"""The verify suites' failure path, and the record types they pass around."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from padiclift import buium, charsum, cohomo, gamma, suites
from padiclift.cli import jsonable, main
from padiclift.gfq import fq_make
from padiclift.rng import CounterRng
from padiclift.witt_zq import zq_ring
from padiclift.zp_ring import PAdicInt, carry_cocycle

ROOT = Path(__file__).resolve().parent.parent


def _by_op(records, op):
    """The one row of a sub-check."""
    [row] = [r for r in records if r.op == op]
    return row


def _case(row):
    """The one failing case a row holds, as JSON."""
    [case] = jsonable(row.residual)
    return case


def test_carry_suite_passes_without_detail_records():
    records = suites.run_carry_suite(suites.RunConfig(p=3))
    assert [(r.op, r.checks, r.failures, r.residual) for r in records] == [
        ("carry_cocycle/cocycle2", 27, 0, None), ("add/star_product_vs_integers", 81, 0, None)]


def _wrong_star_sum(monkeypatch, wrong):
    """Make cocycle_sum one more than the true sum on the pairs wrong(x, y) names."""
    real = suites.cocycle_sum

    def wrong_sum(x, y):
        s = real(x, y)
        return s + 1 if wrong(x.value, y.value) else s

    monkeypatch.setattr(suites, "cocycle_sum", wrong_sum)


def test_wrong_star_sum_on_one_pair_is_reported(monkeypatch):
    _wrong_star_sum(monkeypatch, lambda x, y: (x, y) == (2, 7))
    records = suites.run_carry_suite(suites.RunConfig(p=3))
    assert len(records) == 2
    cocycle = _by_op(records, "carry_cocycle/cocycle2")
    assert (cocycle.passed, cocycle.failures, cocycle.residual) == (True, 0, None)
    star = _by_op(records, "add/star_product_vs_integers")
    assert (star.suite, star.passed, star.checks, star.failures) == ("carry", False, 81, 1)
    assert star.inputs == {"p": 3, "pairs": 81}
    assert _case(star) == {"inputs": {"p": 3, "pair": [2, 7]},
                           "residual": jsonable(PAdicInt.from_integer(1, 3, 2))}


@pytest.mark.parametrize("wrong,failures", [
    (lambda x, y: (x, y) == (2, 7), 1),
    (lambda x, y: x < 3, 27),  # more than MAX_FAILURE_RECORDS: all counted, 20 kept
], ids=["one-pair", "27-pairs"])
def test_failing_cases_nest_in_their_row(monkeypatch, capsys, wrong, failures):
    # one row per sub-check, so the per-suite stderr line sums the rows' counts,
    # and the failing pairs are read from the row they failed in
    _wrong_star_sum(monkeypatch, wrong)
    assert main(["verify", "--suite", "carry", "-p", "3"]) == 1
    out, err = capsys.readouterr()
    assert err == f"suite carry: {108 - failures}/108 checks passed [FAILED]\n"
    cocycle, star = json.loads(out)["records"]
    assert (cocycle["passed"], cocycle["checks"], cocycle["failures"], cocycle["residual"]) \
        == (True, 27, 0, None)
    assert (star["op"], star["passed"], star["checks"], star["failures"]) == \
        ("add/star_product_vs_integers", False, 81, failures)
    pairs = [[x, y] for x in range(9) for y in range(9) if wrong(x, y)]
    assert suites.MAX_FAILURE_RECORDS == 20
    assert star["residual"] == [{"inputs": {"p": 3, "pair": pair},
                                 "residual": {"p": 3, "n": 1, "N": 2, "digits": [1, 0]}}
                                for pair in pairs[:20]]


def test_wrong_carry_on_one_triple_is_reported(monkeypatch):
    # each triple evaluates the cocycle four times, so exactly one triple
    # sees the one wrong value
    real = suites.carry_cocycle
    wrong_call = 4 * 14 + 1
    calls = itertools.count()

    def wrong_once(a, b, p):
        v = real(a, b, p)
        return v + 1 if next(calls) == wrong_call else v

    monkeypatch.setattr(suites, "carry_cocycle", wrong_once)
    records = suites.run_carry_suite(suites.RunConfig(p=3))
    star = _by_op(records, "add/star_product_vs_integers")
    assert (star.passed, star.failures, star.residual) == (True, 0, None)
    cocycle = _by_op(records, "carry_cocycle/cocycle2")
    assert (cocycle.suite, cocycle.passed, cocycle.checks, cocycle.failures) == \
        ("carry", False, 27, 1)
    assert cocycle.inputs == {"p": 3, "triples": 27}
    case = _case(cocycle)
    assert case["inputs"] == {"p": 3, "triple": [1, 1, 2]}  # triple 14 in base 3
    assert case["residual"] in (1, -1)


BUIUM_CFG = suites.RunConfig(p=5, count=12, seed=4, suite="buium")


def _buium_pairs(cfg):
    """The suite's pairs, drawn again from the same stream."""
    ring = zq_ring(fq_make(cfg.p, 1), 4)
    rng = CounterRng(cfg.seed + suites.SUITE_SEED_OFFSET["buium"])
    return [(suites.sample_zq(ring, rng), suites.sample_zq(ring, rng))
            for _ in range(cfg.count)]


def _names_pair(row, pair):
    """The row failed at that pair alone, and names it."""
    x, y = pair
    return (row.suite, row.passed, row.checks, row.failures) == ("buium", False, 12, 1) \
        and _case(row)["inputs"] == jsonable({"p": 5, "n": 1, "N": 4, "x": x, "y": y})


def test_wrong_ring_carry_on_one_pair_is_reported(monkeypatch):
    # the sum law fails at that pair alone; the product reports, formed in
    # the same verify_laws calls, all still pass
    pairs = _buium_pairs(BUIUM_CFG)
    x7, y7 = pairs[7]
    real = buium.ring_carry

    def wrong_on_one_pair(x, y):
        c = real(x, y)
        return c + 1 if (x, y) == (x7, y7) else c

    monkeypatch.setattr(buium, "ring_carry", wrong_on_one_pair)
    records = suites.run_buium_suite(BUIUM_CFG)
    assert _names_pair(_by_op(records, "verify_sum_rule"), pairs[7])
    product = _by_op(records, "verify_product_rule")
    assert (product.passed, product.checks, product.failures, product.residual) == \
        (True, 12, 0, None)


def test_wrong_product_delta_on_one_pair_is_reported_with_its_pair(monkeypatch):
    # a product report stored during the sum sweep is read back beside the
    # pair it was formed from, not a neighbour
    pairs = _buium_pairs(BUIUM_CFG)
    x3, y3 = pairs[3]
    real = buium.p_derivation

    def wrong_on_one_product(z):
        d = real(z)
        return d + 1 if z == x3 * y3 else d

    monkeypatch.setattr(buium, "p_derivation", wrong_on_one_product)
    records = suites.run_buium_suite(BUIUM_CFG)
    total = _by_op(records, "verify_sum_rule")
    assert (total.passed, total.failures, total.residual) == (True, 0, None)
    product = _by_op(records, "verify_product_rule")
    assert _names_pair(product, pairs[3])
    assert _case(product)["residual"] == jsonable(zq_ring(fq_make(5, 1), 3).one())


def test_wrong_delta_on_one_teichmuller_lift_is_reported(monkeypatch):
    # the failing case names the F_9 element whose lift failed as the JSON
    # of an FqElem: its p, n and coefficients
    cfg = suites.RunConfig(p=3, n=2, precision=3, count=2, seed=0, suite="buium")
    ring = zq_ring(fq_make(3, 2), 3)
    v = ring.field.element([1, 2])
    tau = ring.teichmuller(v)
    real = buium.p_derivation

    def wrong_on_one_lift(z):
        d = real(z)
        return d + 1 if z == tau else d

    monkeypatch.setattr(buium, "p_derivation", wrong_on_one_lift)
    records = suites.run_buium_suite(cfg)
    teich = _by_op(records, "p_derivation/vanishes_on_teichmuller")
    assert (teich.suite, teich.passed, teich.checks, teich.failures) == ("buium", False, 9, 1)
    case = _case(teich)
    assert case["inputs"] == {"p": 3, "n": 2, "N": 3,
                              "v": {"p": 3, "n": 2, "coeffs": [1, 2]}}
    assert case["residual"] == jsonable(ring.with_precision(2).one())
    assert json.loads(json.dumps(case)) == case
    for op in ("verify_sum_rule", "verify_product_rule"):
        law = _by_op(records, op)
        assert (law.passed, law.residual) == (True, None)


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        suites.run_suites(suites.RunConfig(suite="nope"))


def test_a_sub_check_with_no_cases_is_refused():
    # at p = 3 every exponent pair has a + b = 0 mod 2, so no Jacobi sum is
    # left to check; a green record with "checks": 0 would claim a pass
    assert suites._jacobi_pairs(3 - 1) == []
    with pytest.raises(ValueError, match=r"^charsum suite: jacobi_sum/norm_relation "
                                         r"at \{'q': 3\} has no cases$"):
        suites.run_check("charsum", "jacobi_sum/norm_relation", {"q": 3}, iter([]))


@pytest.mark.parametrize("bound", [0, -1])
def test_rng_bound_must_be_positive(bound):
    with pytest.raises(ValueError, match="bound must be positive"):
        CounterRng(0).below(bound)


def test_import_loads_no_dataclasses_or_inspect():
    # the records are named tuples, so a cold `padiclift` start skips the
    # dataclasses import and the inspect/ast/dis/tokenize chain behind it
    probe = ("import sys; before = set(sys.modules); import padiclift.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "padiclift.cli" in added
    assert not added & {"dataclasses", "inspect", "typing"}


# each record type with its field names, as they were when it was a dataclass
FIELDS = {
    "LawReport": "law lhs rhs residual passed",
    "EquationReport": "argument lhs rhs branch passed",
    "GrossKoblitzReport": "exponent lhs rhs passed",
    "CocycleReport": "name inputs lhs rhs residual passed",
    "GroupValuedMap": "fn flavor name combine",
    "RunConfig": "p n precision seed count suite",
    "CheckRecord": "suite op inputs passed checks failures residual",
}


def _records():
    """One value of each record type the package returns."""
    ring = zq_ring(fq_make(3, 2), 3)
    F = cohomo.GroupValuedMap(lambda a, b: carry_cocycle(a, b, 3), cohomo.ADDITIVE,
                              name="carry_cocycle", combine=lambda a, b: (a + b) % 3)
    return {
        "LawReport": buium.verify_sum_rule(ring.element([1, 2]), ring.element([4, 5])),
        "EquationReport": gamma.functional_equation_check(PAdicInt.from_integer(4, 5, 3)),
        "GrossKoblitzReport": charsum.gross_koblitz_check(1, 5, 3),
        "CocycleReport": cohomo.cocycle2_check(F, 1, 2, 2),
        "GroupValuedMap": F,
        "RunConfig": suites.RunConfig(),
        "CheckRecord": suites.CheckRecord("carry", "op", {}, True, 1, 0, None),
    }


@pytest.mark.parametrize("name", FIELDS)
def test_records_serialise_as_dicts_in_field_order(name):
    record = _records()[name]
    assert type(record).__name__ == name
    assert list(record._fields) == FIELDS[name].split()
    if name == "GroupValuedMap":  # fn and combine are functions, which have no JSON form
        with pytest.raises(TypeError, match="^no JSON form for a function$"):
            jsonable(record)
    else:
        data = jsonable(record)
        assert isinstance(data, dict)
        assert list(data) == FIELDS[name].split()
        assert json.loads(json.dumps(data)) == data
    with pytest.raises(AttributeError):
        setattr(record, FIELDS[name].split()[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict either


def test_record_defaults_are_kept():
    assert suites.RunConfig()._asdict() == {
        "p": None, "n": None, "precision": None, "seed": 0, "count": 200, "suite": "all"}
    # a row states its counts and residual: CheckRecord has no defaults
    assert suites.CheckRecord._field_defaults == {}
    with pytest.raises(TypeError):
        suites.CheckRecord("s", "op", {}, True)
    gm = cohomo.GroupValuedMap(gamma.gamma_p, cohomo.MULTIPLICATIVE)
    assert gm.name == "f" and gm.combine(2, 3) == 5


def test_failing_report_in_a_row_is_a_dict():
    # the gamma suite yields the whole EquationReport as a failing case's residual
    rep = gamma.functional_equation_check(PAdicInt.from_integer(4, 5, 3))
    row = suites.run_check("gamma", "functional_equation", {}, [({"x": 4}, rep)])
    case = _case(row)
    assert (row.failures, case["residual"]["branch"]) == (1, rep.branch)
    assert list(case["residual"]) == ["argument", "lhs", "rhs", "branch", "passed"]
