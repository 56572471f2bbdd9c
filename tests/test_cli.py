import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from padiclift import InvariantError, charsum
from padiclift.cli import COMMANDS, build_parser, main
from padiclift.residue import from_digits

ROOT = Path(__file__).resolve().parent.parent


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


def test_frobenius_and_delta(capsys):
    rc, out, _ = run(capsys, "frobenius", "-p", "3", "-n", "2", "-N", "4",
                     "-x", "5,7")
    assert rc == 0
    first = json.loads(out)
    # each printed digit vector is one -x coefficient, read back as an integer
    coeffs = ",".join(str(from_digits(c, 3)) for c in first["coeffs"])
    rc, out, _ = run(capsys, "frobenius", "-p", "3", "-n", "2", "-N", "4", "-x", coeffs)
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


@pytest.mark.parametrize("argv", [
    ["gk-check", "-p", "3", "-N", "2"],
    ["gk-check", "-p", "7", "-N", "3", "-a", "2"],
    ["gamma", "-p", "5", "-N", "2", "--sweep", "3:4"],
], ids=["gk-p3", "gk-a", "gamma-sweep"])
def test_a_table_command_prints_an_array_even_with_one_row(capsys, argv):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    rows = json.loads(out)
    assert isinstance(rows, list) and len(rows) == 1
    # csv and text print the same one row
    rc, csv_out, _ = run(capsys, *argv, "--format", "csv")
    assert rc == 0 and len(csv_out.splitlines()) == 2
    rc, text_out, _ = run(capsys, *argv, "--format", "text")
    assert rc == 0 and len(text_out.splitlines()) == 1


def test_gk_check(capsys):
    rc, out, _ = run(capsys, "gk-check", "-p", "5", "-N", "3")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 3 and all(r["passed"] for r in rows)
    rc, out, _ = run(capsys, "gk-check", "-p", "7", "-N", "3", "-a", "2")
    assert rc == 0
    row, = json.loads(out)  # a table command prints an array, even with one row
    assert row["passed"] and row["a"] == 2


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


# every stdout pin, from the one table that CI runs in fresh processes too
PIN_TABLE = Path(__file__).with_name("stdout_pins.txt")
PIN_ROW = re.compile(r"[0-9a-f]{64}  \S+( \S+)*")


def read_pins():
    """(test, id, argv, digest) per table row; a `#:` line tags the row below."""
    pins, tag = [], None
    for line in PIN_TABLE.read_text().splitlines():
        if line.startswith("#:"):
            tag = line[2:].strip()
        elif line and not line.startswith("#"):
            digest, _, argv = line.partition("  ")
            test, _, row_id = (tag or f"test_stdout_is_pinned[{argv}]").partition("[")
            pins.append((test, row_id.removesuffix("]"), argv, digest))
            tag = None
    return pins


PINS = read_pins()


def stdout_sha256(capsys, argv):
    rc, out, _ = run(capsys, *argv.split())
    assert rc == 0
    return hashlib.sha256(out.encode()).hexdigest()


def test_pin_table_rows_are_well_formed():
    # a typo fails here instead of dropping a pin: each row is 64 lowercase
    # hex digits, two spaces and an argv, no argv is pinned twice, every
    # command has a row, and every tag names a test below
    rows = [line for line in PIN_TABLE.read_text().splitlines()
            if line and not line.startswith("#")]
    assert [row for row in rows if not PIN_ROW.fullmatch(row)] == []
    argvs = [argv for _, _, argv, _ in PINS]
    assert len(set(argvs)) == len(argvs) == len(rows)
    assert {argv.split()[0] for argv in argvs} >= {name for name, *_ in COMMANDS}
    assert {test for test, *_ in PINS} <= set(globals())


def test_verify_all_seed0_stdout_is_pinned(capsys):
    # the behaviour invariant: the full report at seed 0, byte for byte
    (argv, digest), = [(argv, digest) for test, _, argv, digest in PINS
                       if test == "test_verify_all_seed0_stdout_is_pinned"]
    assert argv == "verify --suite all --seed 0"
    assert digest.startswith("2d4142") and digest.endswith("3eff")
    assert stdout_sha256(capsys, argv) == digest


def pytest_generate_tests(metafunc):
    # each pin test runs the rows whose tag names it
    if "digest" in metafunc.fixturenames:
        metafunc.parametrize("argv,digest", [
            pytest.param(argv, digest, id=row_id)
            for test, row_id, argv, digest in PINS if test == metafunc.definition.name])


def test_stdout_is_pinned(capsys, argv, digest):
    assert stdout_sha256(capsys, argv) == digest


# the tagged rows run under the names they had before the table
test_frobenius_stdout_is_pinned = test_fq_and_report_stdout_is_pinned = \
    test_gk_check_stdout_is_pinned = test_stdout_is_pinned


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
    ("--suite carry -N 0", 3, "precision must be >= 1"),
    ("--suite carry -p 0", 2, "not prime"),
    ("--suite carry -p 4", 2, "not prime"),
    ("--suite buium --count 0", 2, "count must be at least 1"),
    ("--suite gamma --count -3", 2, "count must be at least 1"),
    ("--suite buium -n 3", 2, "n is only read together with p"),
    ("--suite carry -N 7", 2, "the carry suite reads no N: it runs at N = 2"),
    ("--suite gamma -p 5 -n 2", 2, "the gamma suite reads no n"),
    ("--suite charsum -p 5 -n 2", 2, "the charsum suite reads no n"),
    ("--suite carry -p 5 -n 2", 2, "the carry suite reads no n"),
    ("--suite charsum -p 3", 2, "charsum suite: gauss_coboundary/equals_jacobi at "
                                "{'p': 3, 'N': 4} has no cases"),
    ("--suite carry --count 5 --seed 9", 2,
     "the carry suite reads no seed: it draws no random numbers"),
    ("--suite charsum --seed 3", 2, "the charsum suite reads no seed: it draws no random numbers"),
    ("--suite carry --seed 0", 2, "the carry suite reads no seed: it draws no random numbers"),
    ("--suite charsum --count 200", 2,
     "the charsum suite reads no count: it draws no random numbers"),
], ids=["n0", "N0-buium", "N0-gamma", "N0-charsum", "N0-carry", "p0", "p4", "count0",
        "count-3", "n-without-p", "N-carry", "n-gamma", "n-charsum", "n-carry",
        "charsum-p3", "seed-count-carry", "seed-charsum", "seed0-carry", "count-charsum"])
def test_verify_uses_zero_as_given(capsys, argv, code, message):
    # 0 is a value, not "use the default": it reaches the ring checks, and a
    # sweep of no cases cannot pass; a flag that no selected suite reads is
    # refused, as a value given is never silently dropped
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


def test_verify_gamma_precision_sets_every_sweep(capsys):
    # the sweeps stay below p^3 and continuity below k = 3, so N = 4 runs
    # the same cases as the default N = 3, each one at N = 4
    rc, out, _ = run(capsys, "verify", "--suite", "gamma", "-N", "4")
    assert rc == 0
    records = json.loads(out)["records"]
    assert {r["inputs"]["N"] for r in records} == {4}
    assert sum(r["checks"] for r in records) == 2082


def test_verify_gamma_precision_one_has_no_continuity_record(capsys):
    # continuity mod p^k needs some k < N to compare at
    rc, out, _ = run(capsys, "verify", "--suite", "gamma", "-N", "1")
    assert rc == 0
    records = json.loads(out)["records"]
    assert {r["inputs"]["N"] for r in records} == {1}
    assert [r for r in records if r["op"] == "gamma_p/continuity"] == []


def test_verify_charsum_precision_reaches_the_jacobi_norm(monkeypatch, capsys):
    from padiclift import suites
    seen = set()
    jacobi_sum = suites.jacobi_sum

    def spy(a, b, field, N):
        seen.add(N)
        return jacobi_sum(a, b, field, N)
    monkeypatch.setattr(suites, "jacobi_sum", spy)
    rc, out, _ = run(capsys, "verify", "--suite", "charsum", "-N", "5")
    assert rc == 0 and json.loads(out)["passed"] is True
    # the coboundary record runs at max(N, 4) = 5 and the norm relation at N
    assert seen == {5}


def test_verify_all_accepts_n_for_its_buium_suite(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "all", "-p", "5", "-n", "2", "--count", "3")
    assert rc == 0
    records = json.loads(out)["records"]
    assert {r["inputs"]["n"] for r in records if r["suite"] == "buium" and "n" in r["inputs"]} \
        == {2}
    assert {r["suite"] for r in records} == {"carry", "buium", "gamma", "charsum"}


def test_verify_buium_precision_one_exits_3(capsys):
    # delta(x) = (phi(x) - x^p) / p needs N >= 2
    rc, out, err = run(capsys, "verify", "--suite", "buium", "-N", "1")
    assert (rc, out) == (3, "")
    assert err == "error: insufficient precision\n"  # one line, no traceback


def test_precision_error_exit_3(capsys):
    # delta(x) = (phi(x) - x^p) / p needs N >= 2
    rc, _, err = run(capsys, "delta", "-p", "5", "-N", "1", "-x", "2")
    assert rc == 3
    assert err == "error: insufficient precision\n"


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


@pytest.mark.parametrize("edit,cause", [
    (lambda data: {**data, "config": {**data["config"], "seed": 1}}, "config differs"),
    (lambda data: {**data, "passed": False}, "a top-level field differs"),
], ids=["config", "passed"])
def test_fixtures_mismatch_names_its_cause(tmp_path, capsys, edit, cause):
    fx = tmp_path / "carry.json"
    args = ("verify", "--suite", "carry", "-p", "3", "--fixtures", str(fx))
    assert run(capsys, *args)[0] == 0
    fx.write_text(json.dumps(edit(json.loads(fx.read_text()))))
    rc, out, err = run(capsys, *args)
    assert rc == 1 and json.loads(out)["passed"]
    assert err.splitlines()[-1] == f"fixtures mismatch against {fx}: {cause}"


@pytest.mark.parametrize("where", ["missing directory", "a directory", "not JSON",
                                   "records is 5", "an array"])
def test_unusable_fixtures_path_is_a_usage_error(tmp_path, capsys, where):
    # exit 1 means a check failed; a path that can be neither read nor written,
    # or a file that is not a report, exits 2 with one error line and no traceback
    fx = {"missing directory": tmp_path / "no-such-dir" / "carry.json",
          "a directory": tmp_path}.get(where, tmp_path / "carry.json")
    contents = {"not JSON": "# notes\n",
                "records is 5": json.dumps({"config": {"suite": "carry"}, "records": 5}),
                "an array": json.dumps([{"config": {"suite": "carry"}, "records": []}])}
    if where in contents:
        fx.write_text(contents[where])
    rc, out, err = run(capsys, "verify", "--suite", "carry", "-p", "3", "--fixtures", str(fx))
    assert rc == 2 and json.loads(out)["passed"]
    *summary, last = err.splitlines()
    assert all(line.startswith("suite carry: ") for line in summary)
    assert last.startswith(f"error: fixtures {fx}: ")
    if where in contents:
        assert "could not be parsed as a verify report" in last


def test_invariant_failure_exit_4(capsys, monkeypatch):
    def broken(q, m):
        raise InvariantError("Jacobi-sum total is not rational")

    monkeypatch.setattr(charsum, "count_fermat_jacobi", broken)
    rc, out, err = run(capsys, "fermat-count", "-q", "13", "-m", "4")
    assert rc == 4
    assert out == ""
    assert err == "error: Jacobi-sum total is not rational\n"


@pytest.mark.parametrize("exc", [RuntimeError, RecursionError, NotImplementedError])
def test_other_runtime_errors_keep_their_traceback(monkeypatch, exc):
    def broken(q, m):
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
    rc, out, err = run(capsys, "gamma", "-p", "5", "-N", "2", "-x", "6")
    assert rc == 0
    assert json.loads(out)["p"] == 5
    assert err == "gamma_p: 1 value(s) at p=5, N=2\n"
    rc, _, err = run(capsys, "gamma", "-p", "7", "-N", "3", "--sweep", "0:2")
    assert (rc, err) == (0, "gamma_p: 2 value(s) at p=7, N=3\n")


def test_missing_value_flags(capsys):
    rc, _, err = run(capsys, "gamma", "-p", "5", "-N", "3")
    assert rc == 2 and "provide" in err
    # -x beside --sweep is refused, not dropped, even when -x is malformed
    for x in ("1", "zz"):
        rc, out, err = run(capsys, "gamma", "-p", "5", "-N", "3", "-x", x, "--sweep", "0:2")
        assert (rc, out, err) == (2, "", "error: provide one of -x and --sweep\n")
    with pytest.raises(SystemExit) as exc:
        main(["jacobi", "-N", "3", "-a", "1", "-b", "1"])
    assert exc.value.code == 2
    assert "the following arguments are required: -q" in capsys.readouterr().err
    rc, _, err = run(capsys, "frobenius", "-p", "3", "-n", "2", "-N", "2")
    assert rc == 2 and err == "error: provide -x\n"


@pytest.mark.parametrize("argv,message", [
    ("gk -p 7 -N 3", "argument command: invalid choice: 'gk'"),
    ("fermat -q 7 -m 3", "argument command: invalid choice: 'fermat'"),
    ("frobenius --elem p=3;n=2;N=4;coeffs=[2,1,0,0|2,0,2,2] -p 3 -N 4",
     "unrecognized arguments: --elem p=3;n=2;N=4;coeffs=[2,1,0,0|2,0,2,2]"),
    ("jacobi -q 9 -p 5 -n 3 -a 1 -b 2 -N 3", "unrecognized arguments: -p 5 -n 3"),
    ("fermat-count -q 13 -m 4 -N 2", "unrecognized arguments: -N 2"),
], ids=["gk", "fermat", "frobenius --elem", "jacobi -p -n", "fermat-count -N"])
def test_second_spellings_are_refused(capsys, argv, message):
    # each command and input has one spelling: a command alias or a second
    # flag for the same value is a usage error, never a run that ignores one
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"padiclift: error: {message}")


@pytest.mark.parametrize("sweep", ["5", "a:b", "0:2:4", ":3", "1_0:20", "+1:3"])
def test_malformed_sweep_names_the_flag(capsys, sweep):
    # one error line that names the flag and its form, exit 2, nothing on stdout
    rc, out, err = run(capsys, "gamma", "-p", "5", "-N", "3", "--sweep", sweep)
    assert (rc, out, err) == (2, "", f"error: --sweep takes lo:hi, not {sweep!r}\n")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("sweep", ["3:3", "5:2"])
def test_empty_sweep_is_a_usage_error(capsys, sweep, fmt):
    # a sweep of no values prints no table, as verify --count 0 runs no suite
    rc, out, err = run(capsys, "gamma", "-p", "5", "-N", "3", "--sweep", sweep,
                       "--format", fmt)
    assert (rc, out, err) == (2, "", f"error: --sweep {sweep!r} is empty: lo:hi needs lo < hi\n")


COEFFS = "integer or comma-separated coefficients"


@pytest.mark.parametrize("argv,message", [
    (["teich", "-p", "3", "-n", "2", "-N", "2", "-v", "1,a"],
     f"-v: malformed integer 'a' ({COEFFS})"),
    (["teich", "-p", "5", "-N", "2", "-v", "2.5"],
     f"-v: malformed integer '2.5' ({COEFFS})"),
    (["frobenius", "-p", "3", "-n", "2", "-N", "2", "-x", "1,,2"],
     f"-x: malformed integer '' ({COEFFS})"),
    (["delta", "-p", "3", "-n", "2", "-N", "2", "-x", "z"],
     f"-x: malformed integer 'z' ({COEFFS})"),
    (["gamma", "-p", "5", "-N", "3", "-x", "abc"],
     "-x: malformed integer 'abc' (integer)"),
    (["gamma", "-p", "5", "-N", "3", "-x", "1,2"],
     "-x: malformed integer '1,2' (integer)"),
    # int_exact's grammar: no '_', '+' or inner whitespace
    (["teich", "-p", "3", "-n", "2", "-N", "2", "-v", "1_0"],
     f"-v: malformed integer '1_0' ({COEFFS})"),
    (["teich", "-p", "5", "-N", "2", "-v", "+5"],
     f"-v: malformed integer '+5' ({COEFFS})"),
    (["teich", "-p", "5", "-N", "2", "-v", " 5"],
     f"-v: malformed integer ' 5' ({COEFFS})"),
    (["frobenius", "-p", "3", "-n", "2", "-N", "2", "-x", "1, 2"],
     f"-x: malformed integer ' 2' ({COEFFS})"),
    (["gamma", "-p", "5", "-N", "3", "-x", "1_9"],
     "-x: malformed integer '1_9' (integer)"),
], ids=["teich", "teich-float", "frobenius", "delta", "gamma", "gamma-coeffs",
        "teich-underscore", "teich-plus", "teich-space", "frobenius-space",
        "gamma-underscore"])
def test_malformed_integer_names_the_flag(capsys, argv, message):
    # one error line that names the flag and its form, exit 2, nothing on stdout
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


# (command, flag) for every flag COMMANDS types, so a new one is covered here
TYPED_FLAGS = [(name, flags[0]) for name, _, _, arguments in COMMANDS
               for flags, kwargs in arguments if "type" in kwargs]


@pytest.mark.parametrize("token", ["1_0", "+5", " 5"])
@pytest.mark.parametrize("command,flag", TYPED_FLAGS)
def test_typed_flags_refuse_what_the_text_grammar_refuses(capsys, command, flag, token):
    # int() reads all three tokens; int_exact reads none
    with pytest.raises(SystemExit) as exc:
        main([command, flag, token])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    # the wording of -v, -x and --sweep, not the name of the parser function
    assert err.splitlines()[-1] == (
        f"padiclift {command}: error: argument {flag}: malformed integer {token!r}")


def test_teich_index_is_the_element_with_those_base_p_digits(capsys):
    # -v K over F_9 is the element K_0 + K_1 t, K = K_0 + 3 K_1
    rc, out, err = run(capsys, "teich", "-p", "3", "-n", "2", "-N", "2", "-v", "8")
    assert rc == 0 and json.loads(out)["v"] == [2, 2]
    assert err.startswith("teichmuller(8) in Z_3^2 at N=2: ")
    rc, want, _ = run(capsys, "teich", "-p", "3", "-n", "2", "-N", "2", "-v", "2,2")
    assert rc == 0 and out == want


def test_teich_coefficients_are_read_mod_p(capsys):
    # comma coefficients are constants of F_q, k -> k mod p, as -x reads its
    # coefficients mod p^N; only the index K is a digit encoding with a range
    rc, out, err = run(capsys, "teich", "-p", "3", "-n", "2", "-N", "2", "-v", "4,-1")
    assert rc == 0 and json.loads(out)["v"] == [1, 2]
    assert err.startswith("teichmuller(7) in Z_3^2 at N=2: ")


@pytest.mark.parametrize("k", ["9", "10", "-1"])
def test_teich_index_outside_the_field_is_a_usage_error(capsys, k):
    rc, out, err = run(capsys, "teich", "-p", "3", "-n", "2", "-N", "2", "-v", k)
    assert (rc, out, err) == (2, "", f"error: -v: element index {k} is outside 0 <= K < q = 9\n")


def test_only_verify_loads_the_suites_harness():
    # fermat-count and gk-check never compile the verify harness; verify does,
    # and the harness serialises through the CLI's own jsonable
    probe = (
        "import contextlib, io, sys\n"
        "from padiclift import cli\n"
        "def quiet(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "quiet(['fermat-count', '-q', '13', '-m', '3'])\n"
        "quiet(['gk-check', '-p', '7', '-N', '3'])\n"
        "print('padiclift.suites' in sys.modules)\n"
        "quiet(['verify', '--suite', 'carry', '-p', '2'])\n"
        "from padiclift import suites\n"
        "print('padiclift.suites' in sys.modules, suites.jsonable is cli.jsonable)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["False", "True True", ""]


F9_TEXT = "p=3;n=2;N=4;coeffs=[1,0,0,0|0,1,0,0]"


@pytest.mark.parametrize("argv,message", [
    (f"frobenius -p 3 -n 2 -N 4 -x {F9_TEXT}",
     f"-x: malformed integer 'p=3;n=2;N=4;coeffs=[1' ({COEFFS})"),
    ("frobenius -p 7 -N 9 -x p=3;n=2;N=4;coeffs=[2,1,0,0|2,0,2,2]",
     f"-x: malformed integer 'p=3;n=2;N=4;coeffs=[2' ({COEFFS})"),
    (f"delta -p 3 -n 2 -N 4 -x {F9_TEXT}",
     f"-x: malformed integer 'p=3;n=2;N=4;coeffs=[1' ({COEFFS})"),
    ("gamma -p 5 -N 3 -x p=5;N=3;digits=4,3,0",
     "-x: malformed integer 'p=5;N=3;digits=4,3,0' (integer)"),
    ("gamma -p 7 -N 3 -x p=5;N=2;digits=1,1",
     "-x: malformed integer 'p=5;N=2;digits=1,1' (integer)"),
    # the ring flags are read, so -p 4 is tried as a field, text or not
    (f"frobenius -p 4 -N 4 -x {F9_TEXT}", "not prime"),
    ("delta -p 4 -N 4 -x 1,2", "not prime"),
], ids=["frobenius-F9", "frobenius-p7", "delta-F9", "gamma-Z5", "gamma-p7",
        "frobenius-p4", "delta-p4"])
def test_canonical_text_is_refused(capsys, argv, message):
    # -x is an integer or coefficients over the ring -p, -n and -N name: text
    # that fixes its own p, n and N exits 2, one error line, nothing on stdout
    rc, out, err = run(capsys, *argv.split())
    assert (rc, out, err) == (2, "", f"error: {message}\n")


# Every argv the tests above pass to main, then missing and trailing
# arguments, -h, an unknown command and -h on the removed aliases gk and
# fermat; -h on every name and no argv are added below.
CLI_CALLS = """
teich -p 5 -N 2 -v 2
teich -p 3 -n 2 -N 2 -v 0,1
teich -p 3 -n 2 -N 2 -v 8
teich -p 3 -n 2 -N 2 -v 2,2
teich -p 3 -n 2 -N 2 -v 9
teich -p 3 -n 2 -N 2 -v 10
teich -p 3 -n 2 -N 2 -v -1
teich -p 3 -n 2 -N 2 -v 4,-1
beta -p 5 -N 3 -a 1_0 -b 1
fermat-count -q 5 -m 2
fermat -q 7 -m 3
frobenius -p 3 -n 2 -N 4 -x 5,7
frobenius --elem p=3;n=2;N=4;coeffs=[2,1,0,0|2,0,2,2] -p 3 -n 2 -N 4
delta -p 5 -N 3 -x 2
gamma -p 5 -N 2 -x 6
gamma -p 5 -N 2 --sweep 0:10 --format csv
gamma -p 5 -N 3 --sweep 3:3
gamma -p 5 -N 3 --sweep 5:2 --format csv
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
verify --suite carry -N 0
verify --suite carry -p 0
verify --suite carry -p 4
verify --suite buium --count 0
verify --suite gamma --count -3
verify --suite buium -n 3
verify --suite carry -N 7
verify --suite gamma -p 5 -n 2
verify --suite charsum -p 5 -n 2
verify --suite carry -p 5 -n 2
verify --suite charsum -p 3
verify --suite carry --count 5 --seed 9
verify --suite charsum --seed 3
verify --suite carry --seed 0
verify --suite charsum --count 200
verify --suite buium -N 5 --count 3
verify --suite gamma -N 4
verify --suite gamma -N 1
verify --suite charsum -N 5
verify --suite all -p 5 -n 2 --count 3
verify --suite buium -N 1
delta -p 5 -N 1 -x 2
fermat-count -q 13 -m 4 -N 2
verify --suite carry -p 3 --fixtures carry.json
fermat-count -q 13 -m 4
beta -p 5 -N 2 -a 2 -b 3 --format text
verify --suite carry -p 3 --format csv
verify --suite carry -p 3 --format text
verify --suite all --seed 1
verify --suite all --seed 7
verify --suite buium -p 5 -n 2 -N 6 --count 50 --seed 3
verify --suite gamma -p 5 -N 4 --seed 0
gamma -p 7 -N 3 -x p=5;N=2;digits=1,1
gamma -p 7 -N 3 --sweep 0:2
gamma -p 5 -N 3 -x p=5;N=3;digits=4,3,0
gamma -p 5 -N 3
gamma -p 5 -N 3 -x 1 --sweep 0:2
gamma -p 5 -N 3 -x zz --sweep 0:2
jacobi -N 3 -a 1 -b 1
frobenius -p 3 -n 2 -N 2
gk -p 7 -N 3
frobenius --elem p=3;n=2;N=4;coeffs=[2,1,0,0|2,0,2,2] -p 3 -N 4
jacobi -q 9 -p 5 -n 3 -a 1 -b 2 -N 3
frobenius -p 4 -N 4 -x p=3;n=2;N=4;coeffs=[1,0,0,0|0,1,0,0]
frobenius -p 3 -n 2 -N 4 -x p=3;n=2;N=4;coeffs=[1,0,0,0|0,1,0,0]
frobenius -p 7 -N 9 -x p=3;n=2;N=4;coeffs=[2,1,0,0|2,0,2,2]
delta -p 3 -n 2 -N 4 -x p=3;n=2;N=4;coeffs=[1,0,0,0|0,1,0,0]
gamma -p 5 -N 3 -x 19
delta -p 4 -N 4 -x 1,2
gk-check -p 7
beta -p 5 -N 3 -a 1
fermat-count -q 13 -m 4 extra
fermat -q
gk -h
fermat -h
verify --suite nope
verify --bogus 1
-h
--help
-h verify
bogus
"""
NAMES = [name for name, *_ in COMMANDS]
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
    """The command names that a parser has subparsers for."""
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
def test_one_subcommand_build_parses_as_the_full_build(argv):
    # the full build is the oracle: same Namespace, stdout, stderr and exit code
    parser = build_parser(argv)
    first = argv[0] if argv else None
    names = [first] if first in NAMES else NAMES
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
