"""The residue-ring kernel against two references kept only here.

schoolbook_mulmod is quadratic multiplication and long division;
iterative_fold_mulmod is the kernel's earlier form, a Kronecker product
folded back through f one high coefficient at a time.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from padiclift.gfq import fq_make
from padiclift.residue import _folding, from_digits, mulmod, powmod, to_digits


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


def iterative_fold_mulmod(a, b, f, m):
    """Kronecker product, then X^k = -X^(k-n) (f_0 + ... + f_(n-1) X^(n-1))
    from the top degree down, one Python step per nonzero (k, f_i)."""
    n = len(a)
    if n == 1:
        return (a[0] * b[0] % m,)
    bits = (n * (m - 1) ** 2).bit_length()
    mask = (1 << bits) - 1

    def pack(coeffs):
        packed = 0
        for c in reversed(coeffs):
            packed = (packed << bits) | c
        return packed

    packed = pack(a) * pack(b)
    prod = []
    for _ in range(2 * n - 1):
        prod.append(packed & mask)
        packed >>= bits
    low = f[:n]
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k] % m
        if c:
            for i, fi in enumerate(low, k - n):
                if fi:
                    prod[i] -= c * fi
    return tuple(c % m for c in prod[:n])


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
    return fq_make(p, n).relation, p


@st.composite
def zq_shape(draw):
    p, n = draw(st.sampled_from(ZQ_SHAPES))
    return fq_make(p, n).relation, p ** draw(st.integers(1, 12))


def pi_relation(p):
    return (p,) + (0,) * (p - 2) + (1,)


@st.composite
def pi_shape(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 101]))
    return pi_relation(p), p ** draw(st.integers(1, 6))


@st.composite
def truncation_shape(draw):
    # (Z/p^k)[x]/(x^n), the truncated products of gamma's block polynomials
    n = draw(st.integers(1, 8))
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    return (0,) * n + (1,), p ** draw(st.integers(1, 8))


@st.composite
def dense_shape(draw):
    # a random monic relation with f_(n-1) != 0, so X^n mod f has degree
    # n - 1 and every X^(n+j), j >= 1, wraps past X^n again
    n = draw(st.integers(2, 9))
    m = draw(st.integers(2, 2**13))
    low = draw(st.lists(st.integers(0, m - 1), min_size=n - 1, max_size=n - 1))
    return tuple(low) + (draw(st.integers(1, m - 1)), 1), m


@st.composite
def top_residue_shape(draw):
    # f = (m-1, ..., m-1, 1), so X^n = 1 + X + ... + X^(n-1) mod f
    n = draw(st.integers(2, 9))
    m = draw(st.integers(2, 2**13))
    return (m - 1,) * n + (1,), m


SHAPES = st.one_of(fq_shape(), zq_shape(), pi_shape(), truncation_shape(), dense_shape(),
                   top_residue_shape())


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
    assert mulmod(a, b, f, m) == schoolbook_mulmod(a, b, f, m) == iterative_fold_mulmod(a, b, f, m)


# every operand coefficient m - 1 makes every product coefficient its
# largest, so the folded slots reach the slot-width bound
@pytest.mark.parametrize("f,m", [
    (fq_make(2, 16).relation, 2),
    (fq_make(3, 6).relation, 3**10),
    (fq_make(2, 8).relation, 2**12),
    ((2**13 - 1,) * 9 + (1,), 2**13),
    ((5, 0, 7, 2**13 - 1, 1), 2**13),
    (pi_relation(101), 101**6),
    ((0,) * 8 + (1,), 13**8),
], ids=["F_2^16", "Z_3^6-N10", "Z_2^8-N12", "top-residue-9", "dense-4", "pi-101", "trunc-8"])
def test_mulmod_at_the_slot_width_bound(f, m):
    top = (m - 1,) * (len(f) - 1)
    want = schoolbook_mulmod(top, top, f, m)
    assert mulmod(top, top, f, m) == want == iterative_fold_mulmod(top, top, f, m)
    one = (1,) + (0,) * (len(f) - 2)
    assert mulmod(top, one, f, m) == top


@pytest.mark.parametrize("f,m", [
    (pi_relation(3), 3**4), (pi_relation(101), 101**8), (pi_relation(1009), 1009**4),
    ((0,) * 2 + (1,), 5**2), ((0,) * 12 + (1,), 7**12),
], ids=["pi-3", "pi-101", "pi-1009", "trunc-2", "trunc-12"])
def test_sparse_relations_build_no_wrap_rows(f, m):
    # X^n mod f is the constant -f_0 (pi-ring) or 0 (truncation), so X^(n+j)
    # never wraps past X^n again: one product folds every high slot
    n, _, _, split, rows = _folding(f, m)
    assert (split, rows) == (n, ())


def test_dense_relation_builds_a_row_per_wrapping_power():
    n, _, _, split, rows = _folding(fq_make(3, 6).relation, 3**10)
    assert (n, split, len(rows)) == (6, 1, 4)


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
