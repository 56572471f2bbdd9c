"""The residue-ring kernel against a schoolbook reference kept only here."""

from hypothesis import example, given, settings, strategies as st

from padiclift.gfq import fq_make
from padiclift.residue import from_digits, mulmod, powmod, to_digits


def schoolbook_mulmod(a, b, f, m):
    """Quadratic product, then long division by the monic f, all mod m."""
    n = len(f) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % m
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        for i in range(n + 1):
            prod[k - n + i] = (prod[k - n + i] - c * f[i]) % m
    return tuple(prod[:n])


def schoolbook_powmod(a, e, f, m):
    r = (1,) + (0,) * (len(f) - 2)
    for _ in range(e):
        r = schoolbook_mulmod(r, a, f, m)
    return r


# (p, n) of the canonical fields whose moduli the F_q and Z_q shapes use;
# n = 1 gives F_p and Z_p, where mulmod and powmod skip the Kronecker path
FQ_SHAPES = [(2, 1), (2, 2), (2, 5), (3, 1), (3, 2), (3, 4), (5, 3), (7, 1), (7, 2), (13, 1)]
ZQ_SHAPES = [(2, 8), (3, 6), (5, 3), (3, 2), (7, 2), (5, 1)]


@st.composite
def fq_shape(draw):
    p, n = draw(st.sampled_from(FQ_SHAPES))
    return fq_make(p, n).modulus, p


@st.composite
def zq_shape(draw):
    p, n = draw(st.sampled_from(ZQ_SHAPES))
    return fq_make(p, n).modulus, p ** draw(st.integers(1, 12))


@st.composite
def pi_shape(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    return (p,) + (0,) * (p - 2) + (1,), p ** draw(st.integers(1, 6))


@st.composite
def truncation_shape(draw):
    # (Z/p^k)[x]/(x^n), the truncated products of gamma's block polynomials
    n = draw(st.integers(1, 8))
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    return (0,) * n + (1,), p ** draw(st.integers(1, 8))


SHAPES = st.one_of(fq_shape(), zq_shape(), pi_shape(), truncation_shape())


@st.composite
def ring_elements(draw, count):
    f, m = draw(SHAPES)
    coeffs = st.lists(st.integers(0, m - 1), min_size=len(f) - 1, max_size=len(f) - 1)
    return f, m, [tuple(draw(coeffs)) for _ in range(count)]


# every degree-1 modulus is x, so F_p, Z_p and the truncation x^1 differ
# only in m; the examples pin one of each whatever the draws
@settings(max_examples=300)
@given(ring_elements(2))
@example(((0, 1), 2, [(1,), (1,)]))
@example(((0, 1), 5**3, [(124,), (7,)]))
@example(((0, 1), 3**4, [(80,), (80,)]))
def test_mulmod_matches_schoolbook(case):
    f, m, (a, b) = case
    assert mulmod(a, b, f, m) == schoolbook_mulmod(a, b, f, m)


@settings(max_examples=100)
@given(ring_elements(1), st.integers(0, 40))
@example(((0, 1), 5**3, [(124,)]), 0)
@example(((0, 1), 5**3, [(124,)]), 40)
@example(((1, 1, 1), 4, [(3, 2)]), 0)
def test_powmod_matches_repeated_multiplication(case, e):
    f, m, (a,) = case
    assert powmod(a, e, f, m) == schoolbook_powmod(a, e, f, m)


@given(st.integers(-10**30, 10**30), st.sampled_from([2, 3, 5, 7, 13]), st.integers(1, 20))
def test_digits_round_trip(k, p, count):
    digits = to_digits(k, p, count)
    assert len(digits) == count and all(0 <= d < p for d in digits)
    assert from_digits(digits, p) == k % p**count


def test_digits_examples():
    assert to_digits(7, 5, 2) == (2, 1)
    assert to_digits(-6, 5, 2) == (4, 3)
    assert from_digits((2, 1, 0), 5) == 7
