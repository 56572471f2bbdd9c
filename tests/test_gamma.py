import pytest
from hypothesis import given, settings, strategies as st

from padiclift import gamma
from padiclift.cohomo import MULTIPLICATIVE, GroupValuedMap, coboundary2
from padiclift.gamma import (beta_p, functional_equation_check, gamma_p,
                             gamma_p_integer)
from padiclift.zp_ring import PAdicInt

# Gamma_p(x) Gamma_p(1-x) depends only on x mod p; signs frozen from an
# exhaustive integer sweep below p^3
REFLECTION_SIGNS = {
    3: {0: -1, 1: -1, 2: 1},
    5: {0: -1, 1: -1, 2: 1, 3: -1, 4: 1},
    7: {0: -1, 1: -1, 2: 1, 3: -1, 4: 1, 5: -1, 6: 1},
}


def test_integer_values():
    assert gamma_p_integer(0, 5, 3) == 1
    assert gamma_p_integer(1, 5, 2) == 5**2 - 1
    assert gamma_p_integer(6, 5, 2) == 24   # 1*2*3*4 with 5 skipped
    assert gamma_p_integer(3, 3, 2) == 3**2 - 2
    assert gamma_p_integer(19, 5, 2) == 21  # frozen from the direct product


def test_validation():
    with pytest.raises(ValueError, match="p=2 unsupported"):
        gamma_p_integer(3, 2, 4)
    with pytest.raises(ValueError):
        gamma_p_integer(-1, 5, 2)
    with pytest.raises(ValueError, match="not prime"):
        gamma_p_integer(3, 9, 2)
    with pytest.raises(ValueError, match="precision must be >= 1"):
        gamma_p_integer(3, 5, 0)


@pytest.mark.parametrize("p,N", [(3, 4), (5, 3), (7, 3)])
def test_value_memo_matches_uncached_values(p, N):
    uncached = gamma._gamma_residue.__wrapped__
    mod = p**N
    for m in range(mod):
        got = gamma_p_integer(m, p, N)
        want = uncached(m, p, N)
        assert (got.p, got.value, got.precision) == (p, want.value, N), m
        assert gamma_p_integer(m + mod, p, N) == got, m


def test_value_memo_is_bounded_and_keeps_validation():
    for m in range(7**4):
        gamma_p_integer(m, 7, 4)
    info = gamma._gamma_residue.cache_info()
    assert info.maxsize == gamma._VALUE_KEYS
    assert info.currsize <= gamma._VALUE_KEYS
    # a warm memo must not let invalid arguments through
    gamma_p_integer(24, 5, 2)
    with pytest.raises(ValueError, match="p=2 unsupported"):
        gamma_p_integer(3, 2, 4)
    with pytest.raises(ValueError, match=">= 0"):
        gamma_p_integer(-1, 5, 2)  # -1 = 24 mod 25, whose value is cached
    with pytest.raises(ValueError, match="precision must be >= 1"):
        gamma_p_integer(24, 5, 0)


def test_no_argument_cap():
    # 5^11 > 10^7, the old product loop's limit
    assert gamma_p(PAdicInt.from_integer(1, 5, 11)) == 5**11 - 1
    assert gamma_p_integer(10**7 + 1, 5, 2) == 5**2 - 1  # 10^7 + 1 = 1 mod 25


def _direct_product(m, p, N):
    """The defining product, one factor at a time: the differential oracle."""
    mod = p**N
    acc = 1
    for j in range(1, m):
        if j % p:
            acc = acc * j % mod
    return -acc % mod if m % 2 else acc


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 5), st.data())
def test_block_product_matches_direct_product(p, N, data):
    m = data.draw(st.integers(0, min(p**(N + 2), 5 * 10**4) - 1))
    assert gamma_p_integer(m, p, N).value == _direct_product(m, p, N)


@pytest.mark.parametrize("p,N", [(3, 1), (3, 3), (3, 4), (5, 1), (5, 3), (5, 5),
                                 (7, 2), (11, 3), (13, 2)])
def test_block_product_edges(p, N):
    # block and level boundaries, and arguments at and above p^N
    edges = {0, 1, p - 1, p, p + 1, 2 * p**N - 1, 3 * p**N + p + 2}
    for k in range(2, N + 3):
        edges |= {p**k - 1, p**k, p**k + 1}
    for m in sorted(edges):
        assert gamma_p_integer(m, p, N).value == _direct_product(m, p, N), m


@pytest.mark.parametrize("p,N", [(5, 12), (7, 10), (3, 30)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_deep_levels_keep_the_laws(p, N, data):
    # no direct product is affordable here; every level is reached
    mod = p**N
    k = data.draw(st.integers(1, N))
    m = data.draw(st.integers(0, 2 * mod))
    t = data.draw(st.integers(1, mod))
    assert (gamma_p_integer(m, p, N).value
            - gamma_p_integer(m + t * p**k, p, N).value) % p**k == 0
    x = PAdicInt.from_integer(data.draw(st.integers(0, mod - 1)), p, N)
    assert functional_equation_check(x).passed
    assert gamma_p(x) * gamma_p(1 - x) == REFLECTION_SIGNS[p][x.value % p] % mod


def test_gamma_p_of_quarter():
    # 1/4 in Z/25 is 19; the continuous extension evaluates the product there
    x = PAdicInt.from_integer(4, 5, 2).unit_inverse()
    assert x == 19
    assert gamma_p(x) == gamma_p_integer(19, 5, 2)


def test_gamma_p_always_unit():
    for p in (3, 5, 7):
        for m in range(p**3):
            assert gamma_p_integer(m, p, 3).is_unit()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_functional_equation_spot(p):
    # x = 1: Gamma(2) = -1 * Gamma(1) = 1
    assert gamma_p_integer(2, p, 3) == 1
    assert functional_equation_check(PAdicInt.from_integer(1, p, 3)).passed
    # x = p takes the non-unit branch
    rep = functional_equation_check(PAdicInt.from_integer(p, p, 3))
    assert rep.passed and rep.branch == "divisible"


def test_functional_equation_sweep_small():
    # the full [0, p^3) sweep for p in {3,5,7} runs in the acceptance suite
    for x in range(27):
        assert functional_equation_check(PAdicInt.from_integer(x, 3, 3)).passed


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_continuity_below_p3(p, k):
    # values at precision 3, compared mod p^k: at precision k each class
    # would read one memo entry, since m is reduced mod p^k first
    classes = {}
    for m in range(p**3):
        v = gamma_p_integer(m, p, 3).truncate(k)
        r = m % p**k
        if r in classes:
            assert classes[r] == v
        else:
            classes[r] = v


@pytest.mark.parametrize("p", [3, 5, 7])
def test_reflection_sign_table(p):
    for x in range(p**2):
        lhs = gamma_p_integer(x, p, 3) * gamma_p(PAdicInt.from_integer(1 - x, p, 3))
        assert lhs == REFLECTION_SIGNS[p][x % p] % p**3


def test_beta_examples():
    a = PAdicInt.from_integer(12, 7, 3)
    assert beta_p(a, PAdicInt.from_integer(0, 7, 3)) == 1  # normalized coboundary
    one = PAdicInt.from_integer(1, 5, 3)
    assert beta_p(one, one) == 1  # (-1)^2 / Gamma_5(2)
    with pytest.raises(ValueError, match="ring mismatch"):
        beta_p(PAdicInt.from_integer(1, 5, 3), PAdicInt.from_integer(1, 7, 3))


@given(st.integers(0, 5**3 - 1), st.integers(0, 5**3 - 1))
def test_beta_symmetric(a, b):
    x, y = PAdicInt.from_integer(a, 5, 3), PAdicInt.from_integer(b, 5, 3)
    assert beta_p(x, y) == beta_p(y, x)


@given(st.integers(0, 7**2 - 1), st.integers(0, 7**2 - 1))
def test_beta_is_coboundary_of_gamma(a, b):
    x, y = PAdicInt.from_integer(a, 7, 2), PAdicInt.from_integer(b, 7, 2)
    gm = GroupValuedMap(gamma_p, MULTIPLICATIVE, name="gamma_p")
    assert coboundary2(gm, x, y) == beta_p(x, y)


def test_beta_is_unit_valued():
    for a in range(0, 125, 7):
        for b in range(0, 125, 11):
            assert beta_p(PAdicInt.from_integer(a, 5, 3), PAdicInt.from_integer(b, 5, 3)).is_unit()
