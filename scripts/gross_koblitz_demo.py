#!/usr/bin/env python3
"""Show both sides of the Gross-Koblitz identity coefficient by coefficient.

The Gauss sum side comes from the splitting-series additive character; the
Gamma side from the direct product formula.  The two computations share no
code path beyond ring arithmetic, which is what makes the agreement a real
cross-check.

Example:
    python scripts/gross_koblitz_demo.py -p 7 -N 4
"""

import argparse

from padiclift.charsum import gross_koblitz_check, series_terms_used


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-p", type=int, default=5)
    ap.add_argument("-N", type=int, default=3)
    args = ap.parse_args()

    used = series_terms_used(args.p, args.N)
    print(f"p={args.p}, N={args.N}, series terms used: {used}")
    for a in range(1, args.p - 1):
        rep = gross_koblitz_check(a, args.p, args.N)
        mark = "ok" if rep.passed else "MISMATCH"
        print(f"a={a}: gauss side  {list(rep.lhs.residues)}")
        print(f"     gamma side  {list(rep.rhs.residues)}   [{mark}]")


if __name__ == "__main__":
    main()
