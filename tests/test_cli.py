import argparse
import contextlib
import hashlib
import io
import json

import pytest

from padiclift import InvariantError, charsum
from padiclift.cli import COMMANDS, build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_teich_example(capsys):
    rc, out, err = run(capsys, "teich", "-p", "5", "-N", "2", "-v", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["digits"] == [2, 1]
    assert payload["p"] == 5 and payload["N"] == 2
    assert "7" in err


def test_teich_extension_field(capsys):
    rc, out, _ = run(capsys, "teich", "-p", "3", "-n", "2", "-N", "2", "-v", "0,1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["n"] == 2 and len(payload["coeffs"]) == 2


def test_fermat_example(capsys):
    rc, out, _ = run(capsys, "fermat-count", "-q", "5", "-m", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["brute"] == 4 and payload["jacobi"] == 4 and payload["match"]


def test_fermat_alias(capsys):
    rc, out, _ = run(capsys, "fermat", "-q", "7", "-m", "3")
    assert rc == 0
    assert json.loads(out)["brute"] == 6


def test_frobenius_and_delta(capsys):
    rc, out, _ = run(capsys, "frobenius", "-p", "3", "-n", "2", "-N", "4",
                     "-x", "5,7")
    assert rc == 0
    first = json.loads(out)
    rc, out, _ = run(capsys, "frobenius", "--elem",
                     "p=3;n=2;N=4;coeffs=[" + "|".join(
                         ",".join(map(str, c)) for c in first["coeffs"]) + "]",
                     "-p", "3", "-n", "2", "-N", "4")
    assert rc == 0
    second = json.loads(out)
    # applying the lift twice returns to the original element
    assert second["coeffs"] == first["input"]["coeffs"]

    rc, out, _ = run(capsys, "delta", "-p", "5", "-N", "3", "-x", "2")
    assert rc == 0
    assert json.loads(out)["coeffs"] == [[4, 3]]  # 19 mod 25


def test_gamma_single_and_sweep(capsys):
    rc, out, _ = run(capsys, "gamma", "-p", "5", "-N", "2", "-x", "6")
    assert rc == 0
    assert json.loads(out)["digits"] == [4, 4]  # 24 mod 25
    rc, out, _ = run(capsys, "gamma", "-p", "5", "-N", "2", "--sweep", "0:10",
                     "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11  # header + ten rows


def test_beta_and_jacobi_and_gauss(capsys):
    rc, out, _ = run(capsys, "beta", "-p", "5", "-N", "3", "-a", "1", "-b", "1")
    assert rc == 0
    assert json.loads(out)["digits"] == [1, 0, 0]
    rc, out, _ = run(capsys, "jacobi", "-q", "5", "-N", "3", "-a", "2", "-b", "2")
    assert rc == 0
    assert json.loads(out)["coeffs"] == [[4, 4, 4]]  # -1 mod 125
    rc, out, _ = run(capsys, "gauss", "-p", "5", "-N", "2", "-a", "0")
    assert rc == 0
    assert json.loads(out)["pi_coeffs"][0] == [4, 4]  # -1


def test_gk_check(capsys):
    rc, out, _ = run(capsys, "gk-check", "-p", "5", "-N", "3")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 3 and all(r["passed"] for r in rows)
    rc, out, _ = run(capsys, "gk", "-p", "7", "-N", "3", "-a", "2")
    assert rc == 0
    assert json.loads(out)["passed"]


@pytest.mark.parametrize("p,N,digest", [
    (7, 8, "33c24f12d47c9fbb346552001abb9c45fd46517993199a5e3c1261e40ce3c58f"),
    (13, 5, "59aa9a91de690353cb809459e387abf50ac5257d1b55e941e142575b5c12fab4"),
    (53, 6, "bb60c6bb4494f04f3701383b435d1e6d66c46ef5564fcc08368253ca7fde611d"),
], ids=["(7,8)", "(13,5)", "(53,6)"])
def test_gk_check_stdout_is_pinned(capsys, p, N, digest):
    # the benchmark's two Gross-Koblitz cases and a large p, byte for byte
    rc, out, _ = run(capsys, "gk-check", "-p", str(p), "-N", str(N))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gamma_arguments_are_uncapped(capsys):
    rc, out, _ = run(capsys, "gk-check", "-p", "31", "-N", "5")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 29 and all(r["passed"] for r in rows)
    rc, out, _ = run(capsys, "gamma", "-p", "5", "-N", "2",
                     "--sweep", "10000000:10000003")
    assert rc == 0
    # 10^7 = 0 mod 25: Gamma_5 at 0, 1, 2 is 1, -1, 1
    assert [r["digits"] for r in json.loads(out)] == [[1, 0], [4, 4], [1, 0]]


def test_verify_suite(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "carry", "-p", "7")
    assert rc == 0
    report = json.loads(out)
    assert report["passed"]
    assert all(r["failures"] == 0 for r in report["records"])
    assert "suite carry" in err


def test_verify_all_seed0_stdout_is_pinned(capsys):
    # the behaviour invariant: the full report at seed 0, byte for byte
    rc, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "0")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "2d4142838f451e7499f51acb115a5a5599789a56bcea3453c676658f6b973eff"


@pytest.mark.parametrize("argv,digest", [
    ("frobenius -p 2 -n 8 -N 12 -x 5,7,1,0,3,9,2,4",
     "149f5adc1f02b495e4a5d562c21c2c56b79ef8573c717fde4edeac42a945abc8"),
    ("delta -p 3 -n 2 -N 4 -x 5,7",
     "f39070ce117896b4bfe755b5fc4efda081a5dbf763503c309baf57af202f952b"),
    ("verify --suite buium -p 3 -n 6 -N 10 --count 4 --seed 0",
     "afeb79316f49964ee72e905dd45825928137dbb16032831e9d1aebd5569edb15"),
], ids=["frobenius", "delta", "verify-buium"])
def test_frobenius_stdout_is_pinned(capsys, argv, digest):
    # taken with the digit-wise Frobenius, before it became a matrix
    rc, out, _ = run(capsys, *argv.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_determinism(capsys):
    args = ("verify", "--suite", "gamma", "--seed", "9", "--count", "20")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_usage_error_exit_2(capsys):
    rc, _, err = run(capsys, "teich", "-p", "4", "-N", "2", "-v", "1")
    assert rc == 2
    assert "not prime" in err
    with pytest.raises(SystemExit) as exc:
        main(["teich", "-p", "5", "-v", "1"])  # missing -N
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


@pytest.mark.parametrize("cmd", [["gk-check"], ["gauss", "-a", "1"]])
@pytest.mark.parametrize("p,N,code,message", [
    (1, 3, 2, "not prime"),
    (4, 3, 2, "not prime"),
    (2, 3, 2, "p=2 unsupported"),
    (5, 0, 3, "precision must be >= 1"),
])
def test_series_inputs_are_validated_first(capsys, cmd, p, N, code, message):
    # the ring rejects these before the series degree is ever formed
    rc, out, err = run(capsys, *cmd, "-p", str(p), "-N", str(N))
    assert rc == code
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ["gauss", "-p", "5", "-N", "3", "-a", "1", "-K", "3"],
    ["gk-check", "-p", "5", "-N", "3", "-K", "3"],
    ["verify", "--suite", "charsum", "-K", "3"],
])
def test_series_term_hint_is_refused(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("m", ["0", "-2"])
def test_fermat_exponent_below_one_is_a_usage_error(capsys, m):
    rc, out, err = run(capsys, "fermat-count", "-q", "13", "-m", m)
    assert (rc, out) == (2, "")
    assert err == "error: m must be >= 1 and divide q-1\n"  # one line, no traceback


@pytest.mark.parametrize("argv,code,message", [
    ("--suite buium -p 5 -n 0", 2, "extension degree must be >= 1"),
    ("--suite buium -p 5 -N 0", 3, "precision must be >= 1"),
    ("--suite gamma -N 0", 3, "precision must be >= 1"),
    ("--suite charsum -N 0", 3, "precision must be >= 1"),
    ("--suite carry -p 0", 2, "not prime"),
    ("--suite carry -p 4", 2, "not prime"),
    ("--suite buium --count 0", 2, "count must be at least 1"),
    ("--suite gamma --count -3", 2, "count must be at least 1"),
    ("--suite buium -n 3", 2, "n is only read together with p"),
], ids=["n0", "N0-buium", "N0-gamma", "N0-charsum", "p0", "p4", "count0", "count-3",
        "n-without-p"])
def test_verify_uses_zero_as_given(capsys, argv, code, message):
    # 0 is a value, not "use the default": it reaches the ring checks, and a
    # sweep of no cases cannot pass
    rc, out, err = run(capsys, "verify", *argv.split())
    assert (rc, out) == (code, "")
    assert err == f"error: {message}\n"


def test_verify_buium_precision_alone_sets_every_default_config(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "buium", "-N", "5", "--count", "3")
    assert rc == 0
    report = json.loads(out)
    assert report["config"]["N"] == 5
    configs = {(r["inputs"]["p"], r["inputs"]["n"], r["inputs"]["N"])
               for r in report["records"] if r["op"] == "verify_sum_rule"}
    assert configs == {(5, 1, 5), (3, 2, 5), (7, 1, 5)}


def test_verify_buium_precision_one_exits_3(capsys):
    # delta(x) = (phi(x) - x^p) / p needs N >= 2
    rc, out, err = run(capsys, "verify", "--suite", "buium", "-N", "1")
    assert (rc, out) == (3, "")
    assert err == "error: insufficient precision\n"  # one line, no traceback


def test_precision_error_exit_3(capsys):
    rc, _, err = run(capsys, "fermat-count", "-q", "13", "-m", "4", "-N", "2")
    assert rc == 3
    assert "cannot identify integer" in err


def test_fixtures_round_trip(tmp_path, capsys):
    fx = tmp_path / "carry.json"
    args = ("verify", "--suite", "carry", "-p", "3", "--fixtures", str(fx))
    rc, out, err = run(capsys, *args)
    assert rc == 0 and fx.exists()
    assert "fixtures written" in err
    rc, out, err = run(capsys, *args)
    assert rc == 0
    assert "fixtures match" in err
    # tampering must be detected
    data = json.loads(fx.read_text())
    data["records"][0]["checks"] += 1
    fx.write_text(json.dumps(data))
    rc, _, err = run(capsys, *args)
    assert rc == 1
    assert "mismatch" in err


def test_fixtures_mismatch_names_first_record(tmp_path, capsys):
    fx = tmp_path / "carry.json"
    args = ("verify", "--suite", "carry", "-p", "3", "--fixtures", str(fx))
    assert run(capsys, *args)[0] == 0
    data = json.loads(fx.read_text())
    data["records"][1]["failures"] += 1
    data["records"][2:] = []
    fx.write_text(json.dumps(data))
    rc, out, err = run(capsys, *args)
    assert rc == 1 and json.loads(out)["passed"]
    assert "record #1 differs (suite carry, op add/star_product_vs_integers)" in err
    data["records"][1]["failures"] -= 1
    data["records"].append(data["records"][0])
    fx.write_text(json.dumps(data))
    rc, _, err = run(capsys, *args)
    assert rc == 1
    assert "3 records in the fixture, 2 in the report" in err


@pytest.mark.parametrize("where", ["missing directory", "a directory", "not JSON"])
def test_unusable_fixtures_path_is_a_usage_error(tmp_path, capsys, where):
    # exit 1 means a check failed; a path that can be neither read nor written,
    # or a file that is not a report, exits 2 with one error line and no traceback
    fx = {"missing directory": tmp_path / "no-such-dir" / "carry.json",
          "a directory": tmp_path, "not JSON": tmp_path / "notes.md"}[where]
    if where == "not JSON":
        fx.write_text("# notes\n")
    rc, out, err = run(capsys, "verify", "--suite", "carry", "-p", "3", "--fixtures", str(fx))
    assert rc == 2 and json.loads(out)["passed"]
    *summary, last = err.splitlines()
    assert all(line.startswith("suite carry: ") for line in summary)
    assert last.startswith(f"error: fixtures {fx}: ")
    if where == "not JSON":
        assert "could not be parsed as a verify report" in last


def test_invariant_failure_exit_4(capsys, monkeypatch):
    def broken(q, m, precision=0):
        raise InvariantError("Jacobi-sum total is not rational")

    monkeypatch.setattr(charsum, "count_fermat_jacobi", broken)
    rc, out, err = run(capsys, "fermat-count", "-q", "13", "-m", "4")
    assert rc == 4
    assert out == ""
    assert err == "error: Jacobi-sum total is not rational\n"


@pytest.mark.parametrize("exc", [RuntimeError, RecursionError, NotImplementedError])
def test_other_runtime_errors_keep_their_traceback(monkeypatch, exc):
    def broken(q, m, precision=0):
        raise exc("a bug, not an invariant")

    monkeypatch.setattr(charsum, "count_fermat_jacobi", broken)
    with pytest.raises(exc):
        main(["fermat-count", "-q", "13", "-m", "4"])


def test_text_format(capsys):
    rc, out, _ = run(capsys, "beta", "-p", "5", "-N", "2", "-a", "2", "-b", "3",
                     "--format", "text")
    assert rc == 0
    assert "op=beta_p" in out


def test_verify_other_formats(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "carry", "-p", "3",
                     "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0].startswith("checks,")
    rc, out, _ = run(capsys, "verify", "--suite", "carry", "-p", "3",
                     "--format", "text")
    assert rc == 0
    assert "passed=True" in out


def test_gamma_summary_names_the_parsed_argument(capsys):
    # canonical text fixes its own p and N; the -p/-N flags are not used
    rc, out, err = run(capsys, "gamma", "-p", "7", "-N", "3", "-x", "p=5;N=2;digits=1,1")
    assert rc == 0
    assert json.loads(out)["p"] == 5
    assert err == "gamma_p: 1 value(s) at p=5, N=2\n"
    rc, _, err = run(capsys, "gamma", "-p", "7", "-N", "3", "--sweep", "0:2")
    assert (rc, err) == (0, "gamma_p: 2 value(s) at p=7, N=3\n")


def test_gamma_accepts_canonical_text(capsys):
    rc, out, _ = run(capsys, "gamma", "-p", "5", "-N", "3", "-x",
                     "p=5;N=3;digits=4,3,0")
    assert rc == 0
    payload = json.loads(out)
    assert payload["x"]["digits"] == [4, 3, 0]


def test_missing_value_flags(capsys):
    rc, _, err = run(capsys, "gamma", "-p", "5", "-N", "3")
    assert rc == 2 and "provide" in err
    rc, _, err = run(capsys, "jacobi", "-N", "3", "-a", "1", "-b", "1")
    assert rc == 2 and "provide" in err
    rc, _, err = run(capsys, "frobenius", "-p", "3", "-n", "2", "-N", "2")
    assert rc == 2 and "provide" in err


def test_canonical_text_ignores_the_ring_flags(capsys):
    # the text fixes p, n and N; -p 4 must not be tried as a field
    text = "p=3;n=2;N=4;coeffs=[1,0,0,0|0,1,0,0]"
    rc, out, err = run(capsys, "frobenius", "-p", "4", "-N", "4", "-x", text)
    assert rc == 0, err
    rc, want, _ = run(capsys, "frobenius", "-p", "3", "-n", "2", "-N", "4", "-x", text)
    assert rc == 0 and out == want
    rc, _, err = run(capsys, "delta", "-p", "4", "-N", "4", "-x", "1,2")
    assert rc == 2 and "not prime" in err


# Every argv the tests above pass to main, then missing and trailing
# arguments, -h and an unknown command; -h on every name and no argv are added
# below.
CLI_CALLS = """
teich -p 5 -N 2 -v 2
teich -p 3 -n 2 -N 2 -v 0,1
fermat-count -q 5 -m 2
fermat -q 7 -m 3
frobenius -p 3 -n 2 -N 4 -x 5,7
frobenius --elem p=3;n=2;N=4;coeffs=[2,1,0,0|2,0,2,2] -p 3 -n 2 -N 4
delta -p 5 -N 3 -x 2
gamma -p 5 -N 2 -x 6
gamma -p 5 -N 2 --sweep 0:10 --format csv
beta -p 5 -N 3 -a 1 -b 1
jacobi -q 5 -N 3 -a 2 -b 2
gauss -p 5 -N 2 -a 0
gk-check -p 5 -N 3
gk -p 7 -N 3 -a 2
gk-check -p 7 -N 8
gk-check -p 13 -N 5
gk-check -p 53 -N 6
gk-check -p 31 -N 5
gamma -p 5 -N 2 --sweep 10000000:10000003
verify --suite carry -p 7
verify --suite all --seed 0
frobenius -p 2 -n 8 -N 12 -x 5,7,1,0,3,9,2,4
delta -p 3 -n 2 -N 4 -x 5,7
verify --suite buium -p 3 -n 6 -N 10 --count 4 --seed 0
verify --suite gamma --seed 9 --count 20
teich -p 4 -N 2 -v 1
teich -p 5 -v 1
no-such-command
gk-check -p 1 -N 3
gauss -a 1 -p 1 -N 3
gk-check -p 4 -N 3
gauss -a 1 -p 4 -N 3
gk-check -p 2 -N 3
gauss -a 1 -p 2 -N 3
gk-check -p 5 -N 0
gauss -a 1 -p 5 -N 0
gauss -p 5 -N 3 -a 1 -K 3
gk-check -p 5 -N 3 -K 3
verify --suite charsum -K 3
fermat-count -q 13 -m 0
fermat-count -q 13 -m -2
verify --suite buium -p 5 -n 0
verify --suite buium -p 5 -N 0
verify --suite gamma -N 0
verify --suite charsum -N 0
verify --suite carry -p 0
verify --suite carry -p 4
verify --suite buium --count 0
verify --suite gamma --count -3
verify --suite buium -n 3
verify --suite buium -N 5 --count 3
verify --suite buium -N 1
fermat-count -q 13 -m 4 -N 2
verify --suite carry -p 3 --fixtures carry.json
fermat-count -q 13 -m 4
beta -p 5 -N 2 -a 2 -b 3 --format text
verify --suite carry -p 3 --format csv
verify --suite carry -p 3 --format text
gamma -p 7 -N 3 -x p=5;N=2;digits=1,1
gamma -p 7 -N 3 --sweep 0:2
gamma -p 5 -N 3 -x p=5;N=3;digits=4,3,0
gamma -p 5 -N 3
jacobi -N 3 -a 1 -b 1
frobenius -p 3 -n 2 -N 2
frobenius -p 4 -N 4 -x p=3;n=2;N=4;coeffs=[1,0,0,0|0,1,0,0]
frobenius -p 3 -n 2 -N 4 -x p=3;n=2;N=4;coeffs=[1,0,0,0|0,1,0,0]
delta -p 4 -N 4 -x 1,2
gk-check -p 7
beta -p 5 -N 3 -a 1
fermat-count -q 13 -m 4 extra
fermat -q
verify --suite nope
verify --bogus 1
-h
--help
-h verify
bogus
"""
NAMES = [n for name, aliases, *_ in COMMANDS for n in (name, *aliases)]
CORPUS = [line.split() for line in CLI_CALLS.strip().splitlines()]
CORPUS += [[n, "-h"] for n in NAMES] + [[]]


def _parse(parser, argv):
    """Namespace (None on exit), exit code, stdout and stderr of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            namespace, code = None, exc.code
    return namespace, code, out.getvalue(), err.getvalue()


def _registered(parser):
    """The command names, aliases included, that a parser has subparsers for."""
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
def test_one_subcommand_build_parses_as_the_full_build(argv):
    # the full build is the oracle: same Namespace, stdout, stderr and exit code
    parser = build_parser(argv)
    first = argv[0] if argv else None
    names = next(([c[0], *c[1]] for c in COMMANDS if first in (c[0], *c[1])), NAMES)
    assert _registered(parser) == names
    assert _parse(parser, argv) == _parse(build_parser(), argv)


def test_help_and_usage_errors_list_every_command(capsys):
    assert len(COMMANDS) == 10 and _registered(build_parser()) == NAMES
    seen = {}
    for argv in (["-h"], ["bogus"], ["fermat-count", "-q", "13", "-m", "4", "extra"], []):
        with pytest.raises(SystemExit):
            main(argv)
        seen[" ".join(argv)] = "".join(capsys.readouterr())
        assert "{" + ",".join(NAMES) + "}" in seen[" ".join(argv)], argv
    assert "(choose from " + ", ".join(map(repr, NAMES)) + ")" in seen["bogus"]
    assert seen[""].endswith("error: the following arguments are required: command\n")
