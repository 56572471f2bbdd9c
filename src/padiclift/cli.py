"""Command-line surface: one subcommand per operation plus verify suites.

Each command and each input has one spelling: no command aliases, and no
two flags that set the same value.  An element -x is an integer or
comma-separated coefficients over the ring that -p, -n and -N name, and
every integer the CLI reads goes through int_exact: an optional '-' and
ASCII digits.  jacobi and fermat-count read the field from its order -q,
and fermat-count works out its own precision N (printed in its report)
from q and m.

Machine-readable output (json, csv, or text key=value rows) goes to stdout
through _emit: one value prints a JSON object, a table (gk-check, gamma
--sweep) an array, even of one row.  A one-line summary goes to stderr.  Exit codes: 0 all good, 1 a
verification failed, 2 usage or domain error, 3 precision error, 4 a
mathematical invariant failed inside a computation (an InvariantError).
Reports are byte-identical across runs with the same flags and seed.
This module owns serialisation: jsonable lives here, the verify harness
(suites) imports it from here, and only verify loads suites.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import charsum, gamma
from .buium import p_derivation
from .charsum import PiRingElem
from .errors import InvariantError, PrecisionError
from .gfq import FqElem, fq_make
from .residue import from_digits, prime_power, to_digits
from .witt_zq import ZqElem, frobenius_lift, zq_ring
from .zp_ring import PAdicInt

_INT_RE = re.compile(r"-?[0-9]+")


def int_exact(token: str) -> int:
    """An integer with no whitespace, '+' or '_': an optional '-' and ASCII digits."""
    if not _INT_RE.fullmatch(token):
        raise ValueError(f"malformed integer {token!r}")
    return int(token)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def jsonable(v):
    """Reduce package values to JSON-ready data: flat, self-describing."""
    if isinstance(v, PAdicInt):
        return {"p": v.p, "n": 1, "N": v.precision, "digits": list(v.digits)}
    if isinstance(v, ZqElem):
        return {"p": v.ring.p, "n": v.ring.n, "N": v.ring.precision,
                "coeffs": _digit_lists(v)}
    if isinstance(v, PiRingElem):
        return {"p": v.ring.p, "n": 1, "N": v.ring.precision,
                "pi_coeffs": _digit_lists(v)}
    if isinstance(v, FqElem):
        return {"p": v.field.p, "n": v.field.n, "coeffs": list(v.coeffs)}
    if hasattr(v, "_asdict"):  # a report or record, before the tuple branch
        return {k: jsonable(x) for k, x in v._asdict().items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    return repr(v)


def _digit_lists(v) -> list:
    """The base-p digits of each residue of a Z_q or pi-ring element."""
    p, N = v.ring.p, v.ring.precision
    # a pi-ring element at large p is mostly zero residues
    return [list(to_digits(c, p, N)) if c else [0] * N for c in v.residues]


def _emit(fmt: str, data) -> None:
    """Print a one-value command's dict, or a table command's list of rows:
    JSON as given, csv and text as rows, a dict as one row."""
    if fmt == "json":
        print(_dumps(data))
        return
    rows = [data] if isinstance(data, dict) else data
    if fmt == "csv":
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
    else:  # text
        for row in rows:
            print(" ".join(f"{k}={_dumps(row[k]) if isinstance(row[k], (dict, list)) else row[k]}"
                           for k in sorted(row)))


def _int(flag: str, token: str, form: str) -> int:
    """An int_exact integer of a flag's value; a malformed one names the flag and its form."""
    try:
        return int_exact(token)
    except ValueError:
        raise ValueError(f"{flag}: malformed integer {token!r} ({form})") from None


def _ints(flag: str, raw: str, form: str) -> list[int]:
    """The integers of a flag's comma-separated value."""
    return [_int(flag, c, form) for c in raw.split(",")]


def _parse_element(args):
    """Build a Z_q element from -x: an integer or comma-separated coefficients."""
    if args.x is None:
        raise ValueError("provide -x")
    ring = zq_ring(fq_make(args.p, args.n), args.N)
    ints = _ints("-x", args.x, "integer or comma-separated coefficients")
    return ring.element(ints) if len(ints) > 1 else ring.from_int(ints[0])


# ---------------------------------------------------------------------------
# handlers

def cmd_teich(args) -> int:
    field = fq_make(args.p, args.n)
    coeffs = _ints("-v", args.v, "integer or comma-separated coefficients")
    if len(coeffs) == 1:  # the element index K: its base-p digits are the coefficients
        k = coeffs[0]
        if not 0 <= k < field.q:
            raise ValueError(f"-v: element index {k} is outside 0 <= K < q = {field.q}")
        coeffs = to_digits(k, field.p, field.n)
    v = field.element(coeffs)
    t = zq_ring(field, args.N).teichmuller(v)
    payload = {"op": "teichmuller", **jsonable(t), "v": list(v.coeffs)}
    if args.n == 1:
        payload["digits"] = payload["coeffs"][0]
    _emit(args.format, payload)
    print(f"teichmuller({from_digits(v.coeffs, args.p)}) in Z_{args.p}^{args.n} "
          f"at N={args.N}: {list(t.residues)}", file=sys.stderr)
    return 0


def cmd_frobenius(args) -> int:
    x = _parse_element(args)
    y = frobenius_lift(x)
    _emit(args.format, {"op": "frobenius_lift", **jsonable(y), "input": jsonable(x)})
    print(f"frobenius_lift -> {list(y.residues)}", file=sys.stderr)
    return 0


def cmd_delta(args) -> int:
    x = _parse_element(args)
    d = p_derivation(x)
    _emit(args.format, {"op": "p_derivation", **jsonable(d), "input": jsonable(x)})
    print(f"p_derivation -> {list(d.residues)}", file=sys.stderr)
    return 0


def cmd_gamma(args) -> int:
    if (args.sweep is None) == (args.x is None):
        raise ValueError("provide one of -x and --sweep")
    p, N = args.p, args.N
    if args.sweep is not None:
        try:
            lo, hi = map(int_exact, args.sweep.split(":"))
        except ValueError:
            raise ValueError(f"--sweep takes lo:hi, not {args.sweep!r}") from None
        if hi <= lo:
            raise ValueError(f"--sweep {args.sweep!r} is empty: lo:hi needs lo < hi")
        rows = [{"op": "gamma_p", "m": m, **jsonable(gamma.gamma_p_integer(m, p, N))}
                for m in range(lo, hi)]
    else:
        x = PAdicInt.from_integer(_int("-x", args.x, "integer"), p, N)
        rows = [{"op": "gamma_p", "x": jsonable(x), **jsonable(gamma.gamma_p(x))}]
    _emit(args.format, rows if args.sweep is not None else rows[0])  # a sweep is a table
    print(f"gamma_p: {len(rows)} value(s) at p={p}, N={N}", file=sys.stderr)
    return 0


def cmd_beta(args) -> int:
    a = PAdicInt.from_integer(args.a, args.p, args.N)
    b = PAdicInt.from_integer(args.b, args.p, args.N)
    v = gamma.beta_p(a, b)
    _emit(args.format, {"op": "beta_p", "a": args.a, "b": args.b, **jsonable(v)})
    print(f"beta_p({args.a},{args.b}) = {v.value} mod {args.p}^{args.N}", file=sys.stderr)
    return 0


def cmd_jacobi(args) -> int:
    field = charsum.field_for_order(args.q)
    v = charsum.jacobi_sum(args.a, args.b, field, args.N)
    _emit(args.format, {"op": "jacobi_sum", "a": args.a, "b": args.b,
                        "q": field.q, **jsonable(v)})
    print(f"jacobi_sum({args.a},{args.b}) over F_{field.q}: "
          f"{list(v.residues)}", file=sys.stderr)
    return 0


def cmd_gauss(args) -> int:
    v = charsum.gauss_sum(args.a, args.p, args.N)
    used = charsum.series_terms_used(args.p, args.N)
    _emit(args.format, {"op": "gauss_sum", "a": args.a, "K": used, **jsonable(v)})
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
    viaj = charsum.count_fermat_jacobi(args.q, args.m)
    p, n = prime_power(args.q)
    precision = charsum.fermat_precision(args.q, args.m)  # the N the Jacobi route used
    payload = {"op": "fermat_count", "q": args.q, "m": args.m, "p": p, "n": n, "N": precision,
               "brute": brute, "jacobi": viaj, "match": brute == viaj}
    _emit(args.format, payload)
    print(f"fermat q={args.q} m={args.m}: brute={brute} jacobi={viaj}",
          file=sys.stderr)
    return 0 if brute == viaj else 1


def _first_difference(expected: dict, actual: dict) -> str:
    """Where a fixture and a verify report first differ."""
    if expected.get("config") != actual["config"]:
        return "config differs"
    old, new = expected["records"], actual["records"]
    for i, (want, got) in enumerate(zip(old, new)):
        if want != got:
            return f"record #{i} differs (suite {got['suite']}, op {got['op']})"
    if len(old) != len(new):
        return f"{len(old)} records in the fixture, {len(new)} in the report"
    return "a top-level field differs"


def cmd_verify(args) -> int:
    from .suites import CheckRecord, RunConfig, run_suites  # only verify loads the harness
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
    _emit(args.format, report if args.format == "json" else report["records"])  # csv, text: a table

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
                    records = expected.get("records") if isinstance(expected, dict) else None
                    if not isinstance(records, list):
                        raise ValueError("not an object with a list of records")
                else:
                    fh.write(_dumps(report) + "\n")
        except OSError as exc:  # an unusable path is a usage error, not a failed check
            raise ValueError(f"fixtures {args.fixtures}: {exc.strerror or exc}") from None
        except ValueError as exc:  # not JSON, not text, or not shaped as a report
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


def _integer(token: str) -> int:
    """The argparse type of every integer flag: int_exact, in argparse's words."""
    try:
        return int_exact(token)
    except ValueError as exc:  # argparse prints "argument -a: malformed integer '1_0'"
        raise argparse.ArgumentTypeError(str(exc)) from None


_P = _arg("-p", type=_integer, required=True, help="prime")
_n = _arg("-n", type=_integer, default=1, help="extension degree")
_N = _arg("-N", type=_integer, required=True, help="p-adic precision")
_FORMAT = _arg("--format", choices=("json", "csv", "text"), default="json")
_A, _B = _arg("-a", type=_integer, required=True), _arg("-b", type=_integer, required=True)
_ELEMENT = (_P, _n, _N, _FORMAT,
            _arg("-x", help="element: integer or comma coeffs"))

# (name, help, handler, arguments), in the order -h lists them
COMMANDS = (
    ("teich", "Teichmuller lift of a field element", cmd_teich,
     (_P, _n, _N, _FORMAT,
      _arg("-v", required=True, help="field element: integer or comma coeffs"))),
    ("frobenius", "canonical Frobenius lift", cmd_frobenius, _ELEMENT),
    ("delta", "p-derivation (phi(x) - x^p)/p", cmd_delta, _ELEMENT),
    ("gamma", "Morita p-adic Gamma", cmd_gamma,
     (_P, _N, _FORMAT, _arg("-x", help="argument: integer"),
      _arg("--sweep", help="emit a table for m in lo:hi"))),
    ("beta", "p-adic Beta unit", cmd_beta, (_P, _N, _FORMAT, _A, _B)),
    ("jacobi", "Jacobi sum as a character convolution", cmd_jacobi,
     (_N, _FORMAT, _arg("-q", type=_integer, required=True, help="field order (prime power)"),
      _A, _B)),
    ("gauss", "Gauss sum in the pi-ring", cmd_gauss, (_P, _N, _FORMAT, _A)),
    ("gk-check", "Gross-Koblitz cross-check", cmd_gk,
     (_P, _N, _FORMAT, _arg("-a", type=_integer, help="single exponent; default all 0<a<p-1"))),
    ("fermat-count", "Fermat curve point count, brute vs Jacobi", cmd_fermat,
     (_arg("-q", type=_integer, required=True), _arg("-m", type=_integer, required=True),
      _FORMAT)),
    ("verify", "run verification suites", cmd_verify,
     (_arg("--suite", default="all", choices=("carry", "buium", "gamma", "charsum", "all")),
      _arg("-p", type=_integer), _arg("-n", type=_integer), _arg("-N", type=_integer),
      _arg("--seed", type=_integer, default=0),
      _arg("--count", type=_integer, default=200, help="random cases per seeded sweep"),
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
    chosen = [c for c in COMMANDS if first == c[0]]
    # The usage line argparse prints on unrecognized arguments lists every name
    # either way; on the full build a metavar would rename the "required:
    # command" error, so it is only set on the one-subcommand build.
    metavar = "{%s}" % ",".join(c[0] for c in COMMANDS) if chosen else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, hint, handler, arguments in chosen or COMMANDS:
        sp = sub.add_parser(name, help=hint)
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
