import pytest
from hypothesis import given, strategies as st

from padiclift.buium import p_derivation, ring_carry
from padiclift.cohomo import (ADDITIVE, MULTIPLICATIVE, CocycleReport, GroupValuedMap,
                              coboundary2, coboundary_of_coboundary_is_trivial,
                              cocycle2_check)
from padiclift.gamma import beta_p, gamma_p
from padiclift.gfq import fq_make
from padiclift.rng import CounterRng
from padiclift.suites import jsonable, sample_zq
from padiclift.witt_zq import zq_ring
from padiclift.zp_ring import PAdicInt, buium_carry, carry_cocycle


def test_flavor_validation():
    with pytest.raises(ValueError):
        GroupValuedMap(lambda x: x, "weird")


@given(st.integers(0, 5**3 - 1), st.integers(0, 5**3 - 1))
def test_coboundary_of_gamma_is_beta(a, b):
    x, y = PAdicInt.from_integer(a, 5, 3), PAdicInt.from_integer(b, 5, 3)
    gm = GroupValuedMap(gamma_p, MULTIPLICATIVE, name="gamma_p")
    assert coboundary2(gm, x, y) == beta_p(x, y)


def test_coboundary_of_constant_one():
    one = PAdicInt.from_integer(1, 5, 3)
    gm = GroupValuedMap(lambda x: one, MULTIPLICATIVE, name="const")
    for a in range(5):
        assert coboundary2(gm, PAdicInt.from_integer(a, 5, 3), one) == one


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_carry_cocycle_check_exhaustive(p):
    F = GroupValuedMap(lambda a, b: carry_cocycle(a, b, p), ADDITIVE,
                       name="carry_cocycle", combine=lambda a, b: (a + b) % p)
    for a in range(p):
        for b in range(p):
            for c in range(p):
                rep = cocycle2_check(F, a, b, c)
                assert rep.passed
                assert rep.residual == 0


@given(st.integers(0, 5**4 - 1), st.integers(0, 5**4 - 1), st.integers(0, 5**4 - 1))
def test_buium_carry_is_a_cocycle(a, b, c):
    F = GroupValuedMap(buium_carry, ADDITIVE, name="buium_carry")
    x, y, z = (PAdicInt.from_integer(v, 5, 4) for v in (a, b, c))
    assert cocycle2_check(F, x, y, z).passed


@given(st.integers(0, 7**2 - 1), st.integers(0, 7**2 - 1), st.integers(0, 7**2 - 1))
def test_beta_is_a_cocycle(a, b, c):
    F = GroupValuedMap(beta_p, MULTIPLICATIVE, name="beta_p")
    x, y, z = (PAdicInt.from_integer(v, 7, 2) for v in (a, b, c))
    rep = cocycle2_check(F, x, y, z)
    assert rep.passed
    assert rep.residual == 1


def test_every_coboundary_is_a_cocycle():
    gm = GroupValuedMap(gamma_p, MULTIPLICATIVE, name="gamma_p")
    F = GroupValuedMap(lambda a, b: coboundary2(gm, a, b), MULTIPLICATIVE,
                       name="d gamma_p")
    rng = CounterRng(13)
    for _ in range(30):
        x, y, z = (PAdicInt.from_integer(rng.below(5**3), 5, 3) for _ in range(3))
        assert cocycle2_check(F, x, y, z).passed


def test_d_of_d_is_trivial_three_structures():
    # additive over Z/5^3 with an arbitrary nonlinear map
    f_add = GroupValuedMap(lambda x: x * x + 3, ADDITIVE, name="square")
    x, y, z = (PAdicInt.from_integer(v, 5, 3) for v in (12, 87, 44))
    assert coboundary_of_coboundary_is_trivial(f_add, x, y, z).passed
    # multiplicative over Z/7^3 with gamma_p
    g = GroupValuedMap(gamma_p, MULTIPLICATIVE, name="gamma_p")
    u, v, w = (PAdicInt.from_integer(t, 7, 3) for t in (5, 30, 100))
    assert coboundary_of_coboundary_is_trivial(g, u, v, w).passed
    # additive over Z_9 with the p-derivation
    ring = zq_ring(fq_make(3, 2), 4)
    d = GroupValuedMap(p_derivation, ADDITIVE, name="p_derivation")
    rng = CounterRng(17)
    a, b, c = (sample_zq(ring, rng) for _ in range(3))
    assert coboundary_of_coboundary_is_trivial(d, a, b, c).passed


def test_multiplicative_values_must_be_units():
    gm = GroupValuedMap(lambda x: PAdicInt.from_integer(5, 5, 3), MULTIPLICATIVE,
                        name="non_unit")
    with pytest.raises(ValueError, match="not a unit"):
        coboundary2(gm, PAdicInt.from_integer(1, 5, 3), PAdicInt.from_integer(2, 5, 3))


def test_report_names_inputs():
    F = GroupValuedMap(lambda a, b: carry_cocycle(a, b, 5), ADDITIVE,
                       name="carry_cocycle", combine=lambda a, b: (a + b) % 5)
    rep = cocycle2_check(F, 1, 2, 3)
    assert rep.name == "carry_cocycle"
    assert rep.inputs == (1, 2, 3)


# -- the two-branch checkers as they were before the law table: the oracle --

def _old_value(f, *args):
    v = f.fn(*args)
    if f.flavor == MULTIPLICATIVE:
        probe = getattr(v, "is_unit", None)
        if not (probe() if probe is not None else v != 0):
            raise ValueError("not a unit")
    return v


def _old_invert(v):
    for attr in ("unit_inverse", "inverse"):
        method = getattr(v, attr, None)
        if method is not None:
            return method()
    raise TypeError(f"no inverse available for {type(v).__name__}")


def _old_coboundary2(f, a, b):
    fa = _old_value(f, a)
    fb = _old_value(f, b)
    fab = _old_value(f, f.combine(a, b))
    if f.flavor == ADDITIVE:
        return fa + fb - fab
    return fa * fb * _old_invert(fab)


def _old_cocycle2_check(F, a, b, c):
    ab = F.combine(a, b)
    bc = F.combine(b, c)
    if F.flavor == ADDITIVE:
        lhs = _old_value(F, a, b) + _old_value(F, ab, c)
        rhs = _old_value(F, b, c) + _old_value(F, a, bc)
        residual = lhs - rhs
    else:
        lhs = _old_value(F, a, b) * _old_value(F, ab, c)
        rhs = _old_value(F, b, c) * _old_value(F, a, bc)
        residual = lhs * _old_invert(rhs)
    return CocycleReport(F.name, (a, b, c), lhs, rhs, residual, lhs == rhs)


def _old_d_of_d(f, a, b, c):
    def df(x, y):
        return _old_coboundary2(f, x, y)

    ab = f.combine(a, b)
    bc = f.combine(b, c)
    if f.flavor == ADDITIVE:
        residual = df(b, c) - df(ab, c) + df(a, bc) - df(a, b)
        neutral = residual - residual
    else:
        residual = df(b, c) * _old_invert(df(ab, c)) \
            * df(a, bc) * _old_invert(df(a, b))
        neutral = residual * _old_invert(residual)
    return CocycleReport(f"d(d {f.name})", (a, b, c), residual, neutral,
                         residual, residual == neutral)


def _logged(fn, log):
    def call(*args):
        log.append(jsonable(args))
        return fn(*args)
    return call


def _same(new_check, old_check, m, *args):
    """Both checkers give one result and call m's function in one order."""
    new_log, old_log = [], []
    got = new_check(m._replace(fn=_logged(m.fn, new_log)), *args)
    want = old_check(m._replace(fn=_logged(m.fn, old_log)), *args)
    assert new_log == old_log and new_log
    assert type(got) is type(want) and jsonable(got) == jsonable(want)
    return got


_ZQ = zq_ring(fq_make(3, 2), 4)


def _structures():
    """(1-argument maps, 2-argument maps, operand sampler) per value group."""
    ints = ([GroupValuedMap(lambda x: x * x * x + 1, ADDITIVE, name="cube",
                            combine=lambda a, b: (a + b) % 7)],
            [GroupValuedMap(lambda a, b: carry_cocycle(a, b, 7), ADDITIVE, name="carry",
                            combine=lambda a, b: (a + b) % 7),
             GroupValuedMap(lambda a, b: a * b * b, ADDITIVE, name="ab^2")],
            lambda rng: rng.below(7))
    padic_add = ([GroupValuedMap(lambda x: x * x + 3, ADDITIVE, name="square")],
                 [GroupValuedMap(buium_carry, ADDITIVE, name="buium_carry"),
                  GroupValuedMap(lambda a, b: a * b * b, ADDITIVE, name="ab^2")],
                 lambda rng: PAdicInt.from_integer(rng.below(5**4), 5, 4))
    zq_add = ([GroupValuedMap(p_derivation, ADDITIVE, name="p_derivation")],
              [GroupValuedMap(ring_carry, ADDITIVE, name="ring_carry"),
               GroupValuedMap(lambda a, b: a * b * b, ADDITIVE, name="ab^2")],
              lambda rng: sample_zq(_ZQ, rng))
    padic_mul = ([GroupValuedMap(gamma_p, MULTIPLICATIVE, name="gamma_p")],
                 [GroupValuedMap(beta_p, MULTIPLICATIVE, name="beta_p"),
                  GroupValuedMap(lambda a, b: gamma_p(a + 2 * b), MULTIPLICATIVE,
                                 name="gamma_p(a+2b)")],
                 lambda rng: PAdicInt.from_integer(rng.below(5**3), 5, 3))
    return {"int": ints, "padic+": padic_add, "zq+": zq_add, "padic*": padic_mul}


@pytest.mark.parametrize("kind", ["int", "padic+", "zq+", "padic*"])
def test_law_table_matches_two_branch_checkers(kind):
    one_arg, two_arg, sample = _structures()[kind]
    rng = CounterRng(29)
    outcomes = set()
    for _ in range(12):
        a, b, c = sample(rng), sample(rng), sample(rng)
        for f in one_arg:
            _same(coboundary2, _old_coboundary2, f, a, b)
            assert _same(coboundary_of_coboundary_is_trivial, _old_d_of_d, f, a, b, c).passed
        for F in two_arg:
            outcomes.add((F.name, _same(cocycle2_check, _old_cocycle2_check, F, a, b, c).passed))
    # the cocycle holds everywhere, and the second map fails somewhere, so
    # failing residuals are compared too
    assert (two_arg[0].name, False) not in outcomes
    assert (two_arg[1].name, False) in outcomes
