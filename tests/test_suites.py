"""The verify suites' failure path: a wrong case yields one detail record."""

import itertools

from padiclift import suites
from padiclift.zp_ring import from_integer


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
    assert rec.residual == suites.jsonable(from_integer(1, 3, 2))


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
