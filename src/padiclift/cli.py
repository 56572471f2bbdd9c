"""Command-line surface: one subcommand per operation plus verify suites.

Machine-readable output (json, csv, or text key=value rows) goes to stdout;
a one-line human summary goes to stderr.  Exit codes: 0 all good, 1 a
verification failed, 2 usage or domain error, 3 precision error, 4 a
mathematical invariant failed inside a computation (an InvariantError).
Reports are byte-identical across runs with the same flags and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import charsum, gamma
from .buium import p_derivation
from .errors import InvariantError, PrecisionError
from .gfq import fq_make
from .suites import CheckRecord, RunConfig, jsonable, run_suites
from .witt_zq import frobenius_lift, parse_zq, teichmuller, zq_ring
from .zp_ring import from_integer, parse_padic


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(fmt: str, rows: list[dict]) -> None:
    if fmt == "json":
        out = rows[0] if len(rows) == 1 else rows
        print(_dumps(out))
    elif fmt == "csv":
        keys = sorted({k for row in rows for k in row})
        print(",".join(keys))
        for row in rows:
            cells = []
            for k in keys:
                v = row.get(k, "")
                if isinstance(v, (dict, list)):
                    v = _dumps(v).replace(",", ";")
                cells.append(str(v))
            print(",".join(cells))
    elif fmt == "text":
        for row in rows:
            print(" ".join(f"{k}={_dumps(row[k]) if isinstance(row[k], (dict, list)) else row[k]}"
                           for k in sorted(row)))
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _parse_element(args):
    """Build a Z_q element from --elem text or -x (integer / comma coeffs)."""
    raw = args.elem or args.x
    if raw is None:
        raise ValueError("provide -x or --elem")
    if args.elem or ";" in raw:
        return parse_zq(raw)  # the text fixes p, n and N
    ring = zq_ring(fq_make(args.p, args.n), args.N)
    if "," in raw:
        return ring.element([int(c) for c in raw.split(",")])
    return ring.from_int(int(raw))


# ---------------------------------------------------------------------------
# handlers

def cmd_teich(args) -> int:
    field = fq_make(args.p, args.n)
    if "," in args.v:
        v = field.element([int(c) for c in args.v.split(",")])
    else:
        v = field.from_int(int(args.v))
    t = teichmuller(v, args.N)
    payload = {"op": "teichmuller", **jsonable(t), "v": list(v.coeffs)}
    if args.n == 1:
        payload["digits"] = payload["coeffs"][0]
    _emit(args.format, [payload])
    print(f"teichmuller({v.to_int()}) in Z_{args.p}^{args.n} at N={args.N}: "
          f"{list(t.residues)}", file=sys.stderr)
    return 0


def cmd_frobenius(args) -> int:
    x = _parse_element(args)
    y = frobenius_lift(x)
    _emit(args.format, [{"op": "frobenius_lift", **jsonable(y), "input": jsonable(x)}])
    print(f"frobenius_lift -> {list(y.residues)}", file=sys.stderr)
    return 0


def cmd_delta(args) -> int:
    x = _parse_element(args)
    d = p_derivation(x)
    _emit(args.format, [{"op": "p_derivation", **jsonable(d), "input": jsonable(x)}])
    print(f"p_derivation -> {list(d.residues)}", file=sys.stderr)
    return 0


def cmd_gamma(args) -> int:
    rows = []
    if not args.sweep and args.x is None:
        raise ValueError("provide -x or --sweep")
    p, N = args.p, args.N
    if args.sweep:
        lo, _, hi = args.sweep.partition(":")
        for m in range(int(lo), int(hi)):
            v = gamma.gamma_p_integer(m, args.p, args.N)
            rows.append({"op": "gamma_p", "m": m, **jsonable(v)})
    else:
        x = from_integer(int(args.x), args.p, args.N) if ";" not in args.x \
            else parse_padic(args.x)
        p, N = x.p, x.precision  # canonical text fixes its own p and N
        v = gamma.gamma_p(x)
        rows.append({"op": "gamma_p", "x": jsonable(x), **jsonable(v)})
    _emit(args.format, rows)
    print(f"gamma_p: {len(rows)} value(s) at p={p}, N={N}", file=sys.stderr)
    return 0


def cmd_beta(args) -> int:
    a = from_integer(args.a, args.p, args.N)
    b = from_integer(args.b, args.p, args.N)
    v = gamma.beta_p(a, b)
    _emit(args.format, [{"op": "beta_p", "a": args.a, "b": args.b, **jsonable(v)}])
    print(f"beta_p({args.a},{args.b}) = {v.value} mod {args.p}^{args.N}", file=sys.stderr)
    return 0


def cmd_jacobi(args) -> int:
    if not args.q and not args.p:
        raise ValueError("provide -q or -p")
    field = charsum.field_for_order(args.q) if args.q else fq_make(args.p, args.n)
    v = charsum.jacobi_sum(args.a, args.b, field, args.N)
    _emit(args.format, [{"op": "jacobi_sum", "a": args.a, "b": args.b,
                         "q": field.q, **jsonable(v)}])
    print(f"jacobi_sum({args.a},{args.b}) over F_{field.q}: "
          f"{list(v.residues)}", file=sys.stderr)
    return 0


def cmd_gauss(args) -> int:
    v = charsum.gauss_sum(args.a, args.p, args.N)
    used = charsum.series_terms_used(args.p, args.N)
    _emit(args.format, [{"op": "gauss_sum", "a": args.a, "K": used, **jsonable(v)}])
    print(f"gauss_sum({args.a}) at p={args.p}, N={args.N}: pi-coeffs "
          f"{list(v.residues)}", file=sys.stderr)
    return 0


def cmd_gk(args) -> int:
    exps = [args.a] if args.a is not None else list(range(1, args.p - 1))
    used = charsum.series_terms_used(args.p, args.N)
    rows = []
    ok = True
    for a in exps:
        rep = charsum.gross_koblitz_check(a, args.p, args.N)
        ok = ok and rep.passed
        rows.append({"op": "gross_koblitz_check", "a": a, "K": used,
                     "passed": rep.passed,
                     "lhs": jsonable(rep.lhs), "rhs": jsonable(rep.rhs)})
    _emit(args.format, rows)
    print(f"gross_koblitz_check p={args.p}: "
          f"{sum(r['passed'] for r in rows)}/{len(rows)} passed", file=sys.stderr)
    return 0 if ok else 1


def cmd_fermat(args) -> int:
    brute = charsum.count_fermat_brute(args.q, args.m)
    precision = args.N or charsum.fermat_precision(args.q, args.m)
    viaj = charsum.count_fermat_jacobi(args.q, args.m, precision)
    field = charsum.field_for_order(args.q)
    payload = {"op": "fermat_count", "q": args.q, "m": args.m,
               "p": field.p, "n": field.n, "N": precision,
               "brute": brute, "jacobi": viaj, "match": brute == viaj}
    _emit(args.format, [payload])
    print(f"fermat q={args.q} m={args.m}: brute={brute} jacobi={viaj}",
          file=sys.stderr)
    return 0 if brute == viaj else 1


def _first_difference(expected, actual: dict) -> str:
    """Where a fixture and a verify report first differ."""
    if not isinstance(expected, dict):
        return "the fixture is not a verify report"
    if expected.get("config") != actual["config"]:
        return "config differs"
    old, new = expected.get("records") or [], actual["records"]
    for i, (want, got) in enumerate(zip(old, new)):
        if want != got:
            return f"record #{i} differs (suite {got['suite']}, op {got['op']})"
    if len(old) != len(new):
        return f"{len(old)} records in the fixture, {len(new)} in the report"
    return "a top-level field differs"


def cmd_verify(args) -> int:
    cfg = RunConfig(p=args.p, n=args.n, precision=args.N,
                    seed=args.seed, count=args.count, suite=args.suite)
    records = run_suites(cfg)
    report = {
        "config": {"suite": cfg.suite, "p": cfg.p, "n": cfg.n, "N": cfg.precision,
                   # "K" was the series-term hint; pinned reports keep the field
                   "K": 0, "seed": cfg.seed, "count": cfg.count},
        "records": [r._asdict() for r in records],
        "passed": all(r.passed for r in records),
    }
    if args.format == "json":
        print(_dumps(report))
    else:
        _emit(args.format, [r._asdict() for r in records])

    by_suite: dict[str, list[CheckRecord]] = {}
    for r in records:
        by_suite.setdefault(r.suite, []).append(r)
    for name, rs in by_suite.items():
        checks = sum(r.checks for r in rs)
        fails = sum(r.failures for r in rs)
        status = "ok" if fails == 0 else "FAILED"
        print(f"suite {name}: {checks - fails}/{checks} checks passed [{status}]",
              file=sys.stderr)

    if args.fixtures:
        compare = os.path.exists(args.fixtures)
        try:
            with open(args.fixtures, "r" if compare else "w", encoding="utf-8") as fh:
                if compare:
                    expected = json.load(fh)
                else:
                    fh.write(_dumps(report) + "\n")
        except OSError as exc:  # an unusable path is a usage error, not a failed check
            raise ValueError(f"fixtures {args.fixtures}: {exc.strerror or exc}") from None
        except ValueError as exc:  # not JSON, or not text
            raise ValueError(f"fixtures {args.fixtures}: could not be parsed as a "
                             f"verify report: {exc}") from None
        if not compare:
            print(f"fixtures written to {args.fixtures}", file=sys.stderr)
        elif expected != (actual := json.loads(_dumps(report))):
            print(f"fixtures mismatch against {args.fixtures}: "
                  f"{_first_difference(expected, actual)}", file=sys.stderr)
            return 1
        else:
            print(f"fixtures match {args.fixtures}", file=sys.stderr)

    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------

def _arg(*flags, **kwargs):
    """One add_argument call, as data."""
    return flags, kwargs


_P = _arg("-p", type=int, required=True, help="prime")
_n = _arg("-n", type=int, default=1, help="extension degree")
_N = _arg("-N", type=int, required=True, help="p-adic precision")
_FORMAT = _arg("--format", choices=("json", "csv", "text"), default="json")
_A, _B = _arg("-a", type=int, required=True), _arg("-b", type=int, required=True)
_ELEMENT = (_P, _n, _N, _FORMAT,
            _arg("-x", help="element: integer, comma coeffs, or canonical text"),
            _arg("--elem", help="canonical text form p=..;n=..;N=..;coeffs=[..]"))

# (name, aliases, help, handler, arguments), in the order -h lists them
COMMANDS = (
    ("teich", (), "Teichmuller lift of a field element", cmd_teich,
     (_P, _n, _N, _FORMAT,
      _arg("-v", required=True, help="field element: integer or comma coeffs"))),
    ("frobenius", (), "canonical Frobenius lift", cmd_frobenius, _ELEMENT),
    ("delta", (), "p-derivation (phi(x) - x^p)/p", cmd_delta, _ELEMENT),
    ("gamma", (), "Morita p-adic Gamma", cmd_gamma,
     (_P, _N, _FORMAT, _arg("-x", help="argument: integer or canonical text"),
      _arg("--sweep", help="emit a table for m in lo:hi"))),
    ("beta", (), "p-adic Beta unit", cmd_beta, (_P, _N, _FORMAT, _A, _B)),
    ("jacobi", (), "Jacobi sum as a character convolution", cmd_jacobi,
     (_N, _FORMAT, _arg("-q", type=int, help="field order (prime power)"),
      _arg("-p", type=int, help="prime (with -n)"), _arg("-n", type=int, default=1), _A, _B)),
    ("gauss", (), "Gauss sum in the pi-ring", cmd_gauss, (_P, _N, _FORMAT, _A)),
    ("gk-check", ("gk",), "Gross-Koblitz cross-check", cmd_gk,
     (_P, _N, _FORMAT, _arg("-a", type=int, help="single exponent; default all 0<a<p-1"))),
    ("fermat-count", ("fermat",), "Fermat curve point count, brute vs Jacobi", cmd_fermat,
     (_arg("-q", type=int, required=True), _arg("-m", type=int, required=True),
      _arg("-N", type=int, default=0, help="0 = auto precision"), _FORMAT)),
    ("verify", (), "run verification suites", cmd_verify,
     (_arg("--suite", default="all", choices=("carry", "buium", "gamma", "charsum", "all")),
      _arg("-p", type=int), _arg("-n", type=int), _arg("-N", type=int),
      _arg("--seed", type=int, default=0),
      _arg("--count", type=int, default=200, help="random cases per seeded sweep"),
      _arg("--fixtures", help="JSON regression file to write or compare"), _FORMAT)),
)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv: only the subcommand argv[0] names, else all of them.

    A process runs one subcommand, so building the other nine would be wasted.
    """
    parser = argparse.ArgumentParser(
        prog="padiclift",
        description="Exact truncated p-adic arithmetic, Frobenius lifts, "
                    "p-adic Gamma/Beta, and character sums.")
    first = argv[0] if argv else None
    chosen = [c for c in COMMANDS if first == c[0] or first in c[1]]
    # The usage line argparse prints on unrecognized arguments lists every name
    # either way; on the full build a metavar would rename the "required:
    # command" error, so it is only set on the one-subcommand build.
    metavar = "{%s}" % ",".join(n for c in COMMANDS for n in (c[0], *c[1])) if chosen else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, aliases, hint, handler, arguments in chosen or COMMANDS:
        sp = sub.add_parser(name, aliases=aliases, help=hint)
        for flags, kwargs in arguments:
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.handler(args)
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
