#!/usr/bin/env python3
"""Count points on x^m + y^m = 1 over F_q for every m dividing q-1.

Runs both routes side by side and flags any disagreement: the brute route
counts the fibres of x -> x^m with field arithmetic alone, the Jacobi
route sums Jacobi sums of order-m characters, each one pass over the
field's Zech logarithms.

Example:
    python scripts/fermat_counts.py -q 13
"""

import argparse

from padiclift.charsum import count_fermat_brute, count_fermat_jacobi, fermat_precision


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-q", type=int, default=13)
    args = ap.parse_args()

    q = args.q
    divisors = [m for m in range(2, q) if (q - 1) % m == 0]
    print(f"q={q}: m | q-1 -> {divisors}")
    print("m,N,brute,jacobi,match")
    for m in divisors:
        brute = count_fermat_brute(q, m)
        viaj = count_fermat_jacobi(q, m)
        print(f"{m},{fermat_precision(q, m)},{brute},{viaj},{brute == viaj}")


if __name__ == "__main__":
    main()
