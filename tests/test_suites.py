"""The verify suites' failure path, and the record types they pass around."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from padiclift import buium, charsum, cohomo, gamma, suites
from padiclift.gfq import fq_make
from padiclift.rng import CounterRng
from padiclift.witt_zq import zq_ring
from padiclift.zp_ring import PAdicInt, carry_cocycle

ROOT = Path(__file__).resolve().parent.parent


def _by_op(records, op):
    aggregate, *detail = [r for r in records if r.op == op]
    return aggregate, detail


def test_carry_suite_passes_without_detail_records():
    records = suites.run_carry_suite(suites.RunConfig(p=3))
    assert [(r.op, r.checks, r.failures) for r in records] == [
        ("carry_cocycle/cocycle2", 27, 0), ("add/star_product_vs_integers", 81, 0)]


def test_wrong_star_sum_on_one_pair_is_reported(monkeypatch):
    real = suites.cocycle_sum

    def wrong_on_one_pair(x, y):
        s = real(x, y)
        return s + 1 if (x.value, y.value) == (2, 7) else s

    monkeypatch.setattr(suites, "cocycle_sum", wrong_on_one_pair)
    records = suites.run_carry_suite(suites.RunConfig(p=3))
    cocycle, cocycle_detail = _by_op(records, "carry_cocycle/cocycle2")
    assert (cocycle.passed, cocycle.failures, cocycle_detail) == (True, 0, [])
    star, detail = _by_op(records, "add/star_product_vs_integers")
    assert (star.passed, star.checks, star.failures) == (False, 81, 1)
    assert star.inputs == {"p": 3, "pairs": 81}
    [rec] = detail
    assert (rec.suite, rec.passed, rec.checks, rec.failures) == ("carry", False, 1, 0)
    assert rec.inputs == {"p": 3, "pair": [2, 7]}
    assert rec.residual == suites.jsonable(PAdicInt.from_integer(1, 3, 2))


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
    star, star_detail = _by_op(records, "add/star_product_vs_integers")
    assert (star.passed, star.failures, star_detail) == (True, 0, [])
    cocycle, detail = _by_op(records, "carry_cocycle/cocycle2")
    assert (cocycle.passed, cocycle.checks, cocycle.failures) == (False, 27, 1)
    assert cocycle.inputs == {"p": 3, "triples": 27}
    [rec] = detail
    assert (rec.suite, rec.passed) == ("carry", False)
    assert rec.inputs == {"p": 3, "triple": [1, 1, 2]}  # triple 14 in base 3
    assert rec.residual in (1, -1)


BUIUM_CFG = suites.RunConfig(p=5, count=12, seed=4, suite="buium")


def _buium_pairs(cfg):
    """The suite's pairs, drawn again from the same stream."""
    ring = zq_ring(fq_make(cfg.p, 1), 4)
    rng = CounterRng(cfg.seed + suites.SUITE_SEED_OFFSET["buium"])
    return [(suites.sample_zq(ring, rng), suites.sample_zq(ring, rng))
            for _ in range(cfg.count)]


def _names_pair(rec, pair):
    x, y = pair
    return (rec.suite, rec.passed, rec.checks, rec.failures) == ("buium", False, 1, 0) \
        and rec.inputs == suites.jsonable({"p": 5, "n": 1, "N": 4, "x": x, "y": y})


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
    total, detail = _by_op(records, "verify_sum_rule")
    assert (total.passed, total.checks, total.failures) == (False, 12, 1)
    [rec] = detail
    assert _names_pair(rec, pairs[7])
    product, product_detail = _by_op(records, "verify_product_rule")
    assert (product.passed, product.checks, product.failures, product_detail) == \
        (True, 12, 0, [])


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
    total, detail = _by_op(records, "verify_sum_rule")
    assert (total.passed, total.failures, detail) == (True, 0, [])
    product, detail = _by_op(records, "verify_product_rule")
    assert (product.passed, product.checks, product.failures) == (False, 12, 1)
    [rec] = detail
    assert _names_pair(rec, pairs[3])
    assert rec.residual == suites.jsonable(zq_ring(fq_make(5, 1), 3).one())


def test_wrong_delta_on_one_teichmuller_lift_is_reported(monkeypatch):
    # the detail record names the F_9 element whose lift failed as the JSON
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
    teich, detail = _by_op(records, "p_derivation/vanishes_on_teichmuller")
    assert (teich.passed, teich.checks, teich.failures) == (False, 9, 1)
    [rec] = detail
    assert (rec.suite, rec.passed, rec.checks, rec.failures) == ("buium", False, 1, 0)
    assert rec.inputs == {"p": 3, "n": 2, "N": 3,
                          "v": {"p": 3, "n": 2, "coeffs": [1, 2]}}
    assert rec.residual == suites.jsonable(ring.with_precision(2).one())
    assert json.loads(json.dumps(rec.inputs)) == rec.inputs
    for op in ("verify_sum_rule", "verify_product_rule"):
        law, law_detail = _by_op(records, op)
        assert (law.passed, law_detail) == (True, [])


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        suites.run_suites(suites.RunConfig(suite="nope"))


def test_a_sub_check_with_no_cases_is_refused():
    # at p = 3 every exponent pair has a + b = 0 mod 2, so no Jacobi sum is
    # left to check; a green record with "checks": 0 would claim a pass
    assert suites._jacobi_pairs(3 - 1) == []
    records = []
    col = suites._Collector("charsum", records)
    with pytest.raises(ValueError, match=r"^charsum suite: jacobi_sum/norm_relation "
                                         r"at \{'q': 3\} has no cases$"):
        col.run("jacobi_sum/norm_relation", {"q": 3}, iter([]))
    assert records == []


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
        "CheckRecord": suites.CheckRecord("carry", "op", {}, True),
    }


@pytest.mark.parametrize("name", FIELDS)
def test_records_serialise_as_dicts_in_field_order(name):
    record = _records()[name]
    assert type(record).__name__ == name
    data = suites.jsonable(record)
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
    assert suites.CheckRecord("s", "op", {}, True)._asdict() == {
        "suite": "s", "op": "op", "inputs": {}, "passed": True,
        "checks": 1, "failures": 0, "residual": None}
    gm = cohomo.GroupValuedMap(gamma.gamma_p, cohomo.MULTIPLICATIVE)
    assert gm.name == "f" and gm.combine(2, 3) == 5


def test_failing_report_in_a_detail_record_is_a_dict():
    # the gamma suite yields the whole EquationReport as a failing case's residual
    rep = gamma.functional_equation_check(PAdicInt.from_integer(4, 5, 3))
    col = suites._Collector("gamma", [])
    col.run("functional_equation", {}, [({"x": 4}, False, rep)])
    aggregate, detail = col.records
    assert (aggregate.failures, detail.residual["branch"]) == (1, rep.branch)
    assert list(detail.residual) == ["argument", "lhs", "rhs", "branch", "passed"]
