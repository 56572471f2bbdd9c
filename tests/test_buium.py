import pytest
from hypothesis import example, given, strategies as st

from padiclift import buium
from padiclift.buium import (fermat_quotient, p_derivation, ring_carry,
                             verify_laws, verify_product_rule, verify_sum_rule)
from padiclift.cohomo import ADDITIVE, GroupValuedMap, coboundary2
from padiclift.errors import PrecisionError
from padiclift.gfq import fq_make
from padiclift.rng import CounterRng
from padiclift.suites import sample_zq
from padiclift.witt_zq import frobenius_lift, zq_ring


F5 = fq_make(5, 1)
F9 = fq_make(3, 2)


def test_p_derivation_vanishes_on_teichmuller():
    ring = zq_ring(F9, 4)
    zero = zq_ring(F9, 3).zero()
    for v in F9.elements():
        assert p_derivation(ring.teichmuller(v)) == zero


def test_p_derivation_prime_field_values():
    ring = zq_ring(F5, 3)
    assert p_derivation(ring.from_int(2)) == zq_ring(F5, 2).from_int(19)
    assert p_derivation(ring.from_int(0)) == zq_ring(F5, 2).zero()
    assert p_derivation(ring.from_int(1)) == zq_ring(F5, 2).zero()


@pytest.mark.parametrize("p", [3, 5])
def test_p_derivation_of_p(p):
    # delta(p) = (p - p^p)/p = 1 - p^(p-1); precision must be deep enough
    # for the power term to survive the reduction
    N = p + 2
    ring = zq_ring(fq_make(p, 1), N)
    got = p_derivation(ring.from_int(p))
    assert got == zq_ring(fq_make(p, 1), N - 1).from_int(1 - p ** (p - 1))


def test_p_derivation_precision_guard():
    # an F_9 element, at precision 1, meets the guard before phi
    for x in (zq_ring(F5, 1).from_int(2), F9.element([1, 2])):
        with pytest.raises(PrecisionError, match="insufficient precision"):
            p_derivation(x)


def test_sum_rule_reports():
    ring = zq_ring(F9, 4)
    x = ring.element([5, 7])
    rep = verify_sum_rule(x, ring.zero())
    assert rep.passed and rep.residual == zq_ring(F9, 3).zero()
    rng = CounterRng(3)
    for _ in range(50):
        a, b = sample_zq(ring, rng), sample_zq(ring, rng)
        assert verify_sum_rule(a, b).passed


def test_sum_rule_random_prime_field():
    ring = zq_ring(F5, 4)
    rng = CounterRng(4)
    for _ in range(50):
        a, b = sample_zq(ring, rng), sample_zq(ring, rng)
        assert verify_sum_rule(a, b).passed


def test_product_rule_reports():
    ring = zq_ring(fq_make(7, 1), 4)
    rng = CounterRng(5)
    for _ in range(50):
        a, b = sample_zq(ring, rng), sample_zq(ring, rng)
        assert verify_product_rule(a, b).passed
    x = sample_zq(ring, rng)
    rep = verify_product_rule(x, ring.one())
    assert rep.passed
    assert rep.lhs == p_derivation(x)  # delta(x * 1) = delta(x)


def test_product_rule_on_teichmuller_pairs():
    ring = zq_ring(F9, 4)
    zero = zq_ring(F9, 3).zero()
    u, v = F9.element([1, 1]), F9.element([2, 1])
    rep = verify_product_rule(ring.teichmuller(u), ring.teichmuller(v))
    assert rep.passed and rep.lhs == zero and rep.rhs == zero


# the three default rings of the buium suite, and one at n = 3
LAW_RINGS = [(5, 1, 4), (3, 2, 4), (7, 1, 3), (2, 3, 5)]


@pytest.mark.parametrize("p,n,N", LAW_RINGS)
def test_verify_laws_equals_the_single_law_reports(p, n, N):
    ring = zq_ring(fq_make(p, n), N)
    rng = CounterRng(10 * p + n)
    pairs = [(sample_zq(ring, rng), sample_zq(ring, rng)) for _ in range(20)]
    pairs += [(ring.zero(), ring.one()), (ring.teichmuller(fq_make(p, n).one()), ring.zero())]
    for x, y in pairs:
        got_sum, got_product = verify_laws(x, y)
        for got, want in [(got_sum, verify_sum_rule(x, y)),
                          (got_product, verify_product_rule(x, y))]:
            for field, a, b in zip(got._fields, got, want, strict=True):
                assert a == b, field
            assert got.passed


def test_verify_laws_raises_what_the_single_laws_raise():
    x, y = zq_ring(F9, 4).one(), zq_ring(F9, 3).one()
    for law in (verify_laws, verify_sum_rule, verify_product_rule):
        with pytest.raises(ValueError, match="ring mismatch"):
            law(x, y)
    for one in (zq_ring(F5, 1).one(), zq_ring(F9, 1).one(), F9.one()):
        for law in (verify_laws, verify_sum_rule, verify_product_rule):
            with pytest.raises(PrecisionError, match="insufficient precision"):
                law(one, one)


@pytest.mark.parametrize("p,n,N", LAW_RINGS)
def test_verify_laws_lifts_four_times_per_pair(monkeypatch, p, n, N):
    # phi of x, y, x + y and xy; the two single laws together lift six times
    calls = []
    real = buium.frobenius_lift

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(buium, "frobenius_lift", counted)
    ring = zq_ring(fq_make(p, n), N)
    rng = CounterRng(p)
    x, y = sample_zq(ring, rng), sample_zq(ring, rng)
    verify_laws(x, y)
    assert sorted(map(repr, calls)) == sorted(map(repr, [x, y, x + y, x * y]))
    calls.clear()
    verify_sum_rule(x, y)
    verify_product_rule(x, y)
    assert len(calls) == 6


def test_frobenius_reconstruction():
    # phi(x) = x^p + p delta(x), exactly at one digit less
    ring = zq_ring(F9, 4)
    rng = CounterRng(6)
    for _ in range(25):
        x = sample_zq(ring, rng)
        d = p_derivation(x)
        lhs = frobenius_lift(x).truncate(3)
        assert lhs == (x**3).truncate(3) + d * 3


def test_precision_stability():
    # delta mod p^(N-1) must not depend on digits beyond p^N
    deep = zq_ring(F9, 6)
    rng = CounterRng(8)
    for _ in range(20):
        x = sample_zq(deep, rng)
        d_deep = p_derivation(x).truncate(3)
        d_shallow = p_derivation(x.truncate(4))
        assert d_deep == d_shallow


def test_sum_rule_is_the_coboundary_of_delta():
    # d(delta)(x, y) = delta(x) + delta(y) - delta(x+y) = -C_p(x, y)
    ring = zq_ring(F5, 4)
    gm = GroupValuedMap(p_derivation, ADDITIVE, name="p_derivation")
    rng = CounterRng(9)
    for _ in range(25):
        x, y = sample_zq(ring, rng), sample_zq(ring, rng)
        assert coboundary2(gm, x, y) == -ring_carry(x, y)


def test_fermat_quotient_examples():
    assert fermat_quotient(1, 5, 3) == 0
    assert fermat_quotient(2, 5, 3) == 19
    for p in (3, 5, 7):
        n = p + 2
        assert fermat_quotient(p, p, n) == (1 - p ** (p - 1)) % p ** (n - 1)
    with pytest.raises(PrecisionError):
        fermat_quotient(2, 5, 1)


@given(st.sampled_from([2, 3, 5, 7, 13]), st.integers(2, 8), st.integers())
@example(13, 8, -13**40 - 1)
@example(2, 2, 2**200 + 1)
def test_fermat_quotient_matches_the_integer_formula(p, n, k):
    # the oracle is the exact-integer quotient on the unreduced k
    fq = fermat_quotient(k, p, n)
    assert (fq.p, fq.precision, fq.value) == (p, n - 1, (k - k**p) // p % p ** (n - 1))


def test_fermat_quotient_matches_p_derivation():
    for k in range(40):
        ring = zq_ring(F5, 4)
        d, fq = p_derivation(ring.from_int(k)), fermat_quotient(k, 5, 4)
        assert d.ring.precision == fq.precision and d.residues[0] == fq.value
