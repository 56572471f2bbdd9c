import pytest
from hypothesis import given, settings, strategies as st

from padiclift.errors import PrecisionError
from padiclift.gfq import Q_CAP, fq_make
from padiclift.residue import from_digits
from padiclift.witt_zq import (frobenius_lift, from_teich_digits,
                               teich_digits, teichmuller_int, zq_ring)
from padiclift.zp_ring import PAdicInt


F5 = fq_make(5, 1)
F9 = fq_make(3, 2)


def _frobenius_digitwise(x):
    """The oracle for frobenius_lift: phi(sum tau(x_i) p^i) = sum tau(x_i^p) p^i,
    lifting every x_i^p afresh through the Teichmuller digits of x."""
    return from_teich_digits([v.frobenius() for v in teich_digits(x)], x.ring)


def test_ring_construction():
    ring = zq_ring(F9, 4)
    assert [c.value for c in ring.lifted_modulus] == [1, 0, 1]
    assert ring.with_precision(2) is zq_ring(F9, 2)
    with pytest.raises(PrecisionError):
        zq_ring(F9, 0)


def test_mul_examples():
    ring = zq_ring(F9, 2)
    t = ring.element([0, 1])
    assert (t * t) == ring.from_int(-1)          # t^2 = -1 = 8 mod 9
    x = ring.element([5, 7])
    assert x * ring.one() == x
    with pytest.raises(ValueError, match="ring mismatch"):
        x * zq_ring(F9, 3).one()


@settings(max_examples=60)
@given(st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1),
       st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1))
def test_mul_against_hand_rolled_model(a0, a1, b0, b1):
    # the modulus of the canonical F_9 is t^2 + 1, so multiplication must
    # agree with the Gaussian-integer formula computed on raw integers
    ring = zq_ring(F9, 4)
    mod = 3**4
    got = ring.element([a0, a1]) * ring.element([b0, b1])
    want = ring.element([(a0 * b0 - a1 * b1) % mod, (a0 * b1 + a1 * b0) % mod])
    assert got == want


@settings(max_examples=20)
@given(st.integers(0, 3**3 - 1), st.integers(0, 3**3 - 1), st.integers(0, 12))
def test_pow_is_repeated_multiplication(a, b, e):
    ring = zq_ring(F9, 3)
    x = ring.element([a, b])
    acc = ring.one()
    for _ in range(e):
        acc = acc * x
    assert x**e == acc


def test_unit_inverse_involution():
    ring = zq_ring(F9, 4)
    x = ring.element([5, 7])
    assert x.unit_inverse().unit_inverse() == x
    assert x * x.unit_inverse() == ring.one()
    with pytest.raises(ValueError, match="not a unit"):
        ring.element([3, 6]).unit_inverse()  # reduces to 0 mod 3


def test_teichmuller_values():
    assert zq_ring(F5, 2).teichmuller(F5.from_int(2)).residues[0] == 7
    assert zq_ring(F5, 3).teichmuller(F5.zero()) == zq_ring(F5, 3).zero()
    assert zq_ring(F5, 3).teichmuller(F5.one()) == zq_ring(F5, 3).one()
    F3 = fq_make(3, 1)
    assert zq_ring(F3, 3).teichmuller(F3.from_int(2)).residues[0] == 26  # = -1 mod 27
    assert teichmuller_int(2, 5, 2) == 7
    assert teichmuller_int(4, 5, 2) == 24
    with pytest.raises(ValueError, match="field mismatch"):
        zq_ring(F9, 3).teichmuller(F5.one())


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (3, 2), (5, 2), (7, 2)])
def test_teichmuller_multiplicative_exhaustive(p, n):
    field = fq_make(p, n)
    tau = zq_ring(field, 3).teichmuller
    for u in field.elements():
        for v in field.elements():
            assert tau(u * v) == tau(u) * tau(v)


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (3, 2), (5, 2), (2, 1), (2, 3), (2, 4)])
def test_teichmuller_is_root_of_unity(p, n):
    # N = 1 and N = n + 1 are the edges where the exponent q^k steps up
    field = fq_make(p, n)
    for N in sorted({1, 4, n + 1}):
        ring = zq_ring(field, N)
        for v in field.elements():
            t = ring.teichmuller(v)
            assert t.reduce_mod_p() == v
            assert t**field.q == t
            if v != 0:
                assert t ** (field.q - 1) == ring.one()
            if n == 1:
                assert teichmuller_int(v.coeffs[0], p, N) == t.residues[0]


def test_teich_digits_examples():
    ring = zq_ring(F5, 2)
    assert [d.coeffs for d in teich_digits(ring.from_int(2))] == [(2,), (4,)]
    ring3 = zq_ring(F9, 3)
    v = F9.element([2, 1])
    assert teich_digits(ring3.teichmuller(v)) == [v, F9.zero(), F9.zero()]
    assert teich_digits(ring3.zero()) == [F9.zero()] * 3


def test_from_teich_digits_examples():
    ring = zq_ring(F5, 2)
    # tau(2) = 7 and tau(4) = 24, so digits [2, 4] rebuild 7 + 5*24 = 2 mod 25
    assert from_teich_digits([F5.from_int(2), F5.from_int(4)], ring) == ring.from_int(2)
    ring3 = zq_ring(F9, 3)
    v = F9.element([1, 2])
    assert from_teich_digits([v], ring3) == ring3.teichmuller(v)
    with pytest.raises(PrecisionError):
        from_teich_digits([v] * 4, ring3)


@settings(max_examples=40)
@given(st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1))
def test_teich_digit_round_trip(a, b):
    ring = zq_ring(F9, 4)
    x = ring.element([a, b])
    assert from_teich_digits(teich_digits(x), ring) == x


def test_frobenius_lift_prime_field_is_identity():
    ring = zq_ring(F5, 3)
    for k in range(5**3):
        x = ring.from_int(k)
        assert frobenius_lift(x) == x


def test_frobenius_lift_commutes_with_teichmuller():
    ring = zq_ring(F9, 4)
    for v in F9.elements():
        t = ring.teichmuller(v)
        assert frobenius_lift(t) == ring.teichmuller(v.frobenius())
        assert frobenius_lift(t) == t**3


@settings(max_examples=40)
@given(st.integers(0, 9**2 - 1), st.integers(0, 9**2 - 1))
def test_frobenius_lift_order_two_on_z9(a, b):
    ring = zq_ring(F9, 2)
    x = ring.element([a % 9, b % 9])
    assert frobenius_lift(frobenius_lift(x)) == x


@settings(max_examples=40)
@given(st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1),
       st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1))
def test_frobenius_lift_is_ring_homomorphism(a, b, c, d):
    ring = zq_ring(F9, 4)
    x = ring.element([a, b])
    y = ring.element([c, d])
    assert frobenius_lift(x + y) == frobenius_lift(x) + frobenius_lift(y)
    assert frobenius_lift(x * y) == frobenius_lift(x) * frobenius_lift(y)
    assert frobenius_lift(x).reduce_mod_p() == x.reduce_mod_p().frobenius()


def test_reduce_mod_p_examples():
    ring = zq_ring(F9, 3)
    v = F9.element([2, 1])
    assert ring.teichmuller(v).reduce_mod_p() == v
    assert (ring.from_int(3) * ring.element([1, 2])).reduce_mod_p() == F9.zero()
    assert ring.from_int(1 + 3).reduce_mod_p() == F9.one()


def test_text_form_round_trip():
    # the rendering the benchmark digests: one little-endian digit vector per
    # coefficient, whose integers are the -x coefficients of the same element
    ring = zq_ring(F9, 4)
    x = ring.element([5, 7])
    text = x.to_text()
    assert text == "p=3;n=2;N=4;coeffs=[2,1,0,0|1,2,0,0]"
    blocks = text.partition("coeffs=")[2][1:-1].split("|")
    assert ring.element([from_digits([int(d) for d in b.split(",")], 3) for b in blocks]) == x


def test_coefficient_precision_is_enforced():
    # coefficients and scalars are ints, known exactly; a PAdicInt, which
    # carries a precision of its own, is refused whatever that precision is
    ring = zq_ring(F9, 4)
    for N in (2, 4, 5):
        with pytest.raises(TypeError):
            ring.element([PAdicInt.from_integer(7, 3, N), 0])
        with pytest.raises(TypeError):
            ring.one() + PAdicInt.from_integer(5, 3, N)
    with pytest.raises(TypeError):
        ring.one() + PAdicInt.from_integer(5, 5, 4)
    assert ring.one() + 86 == ring.from_int(6)  # 87 = 6 mod 81


def test_truncate_and_div_exact():
    ring = zq_ring(F9, 4)
    x = ring.element([9, 27])
    assert x.div_exact_by_p() == zq_ring(F9, 3).element([3, 9])
    assert x.truncate(2) == zq_ring(F9, 2).element([0, 0])
    with pytest.raises(ValueError, match="not divisible"):
        ring.element([1, 3]).div_exact_by_p()


# -- the matrix Frobenius against the digit-wise route -----------------------

@st.composite
def zq_residues(draw):
    """A ring with p in {2,3,5,7}, n in 1..8, N in 1..12, q <= Q_CAP and
    q^N <= 2^100, and the coefficient residues of one of its elements."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, max(k for k in range(1, 9) if p**k <= Q_CAP)))
    N = draw(st.integers(1, max(k for k in range(1, 13) if p ** (n * k) <= 2**100)))
    ring = zq_ring(fq_make(p, n), N)
    residues = draw(st.lists(st.integers(0, ring.modulus - 1), min_size=n, max_size=n))
    return ring, residues


@settings(max_examples=200, deadline=None)
@given(zq_residues())
def test_frobenius_matrix_matches_digitwise(case):
    ring, residues = case
    x = ring.element(residues)
    assert frobenius_lift(x) == _frobenius_digitwise(x)


@settings(max_examples=100, deadline=None)
@given(zq_residues(), st.integers(0, 11))
def test_frobenius_matrix_on_lower_precision_rings(case, drop):
    # rings reached by exact division and truncation build their own columns
    ring, residues = case
    x = ring.element(residues)
    if ring.precision > 1:
        y = (x * ring.p).div_exact_by_p()
        assert y.ring is ring.with_precision(ring.precision - 1)
        assert frobenius_lift(y) == _frobenius_digitwise(y)
    z = x.truncate(max(1, ring.precision - drop))
    assert frobenius_lift(z) == _frobenius_digitwise(z)


@settings(max_examples=60, deadline=None)
@given(zq_residues(), st.integers(0, 3))
def test_frobenius_matrix_on_padic_coefficients(case, extra):
    ring, residues = case
    p, N = ring.p, ring.precision
    x = ring.element([PAdicInt.from_integer(c, p, N + extra).value for c in residues])
    assert x == ring.element(residues)
    assert frobenius_lift(x) == _frobenius_digitwise(x)


def test_frobenius_columns_are_powers_of_phi_t():
    ring = zq_ring(fq_make(2, 8), 12)
    t = ring.element([0, 1] + [0] * 6)
    columns = ring.frobenius_columns
    assert len(columns) == 8 and columns[0] == ring.one().residues
    for i, column in enumerate(columns):
        assert column == (_frobenius_digitwise(t) ** i).residues
    assert zq_ring(fq_make(2, 8), 11).frobenius_columns == tuple(
        tuple(c % 2**11 for c in column) for column in columns)


COLUMN_GRID = [(p, n, N) for p in (2, 3, 5, 7) for n in (2, 3, 6, 8) if p**n <= Q_CAP
               for N in (1, 2, 3, 10, 12)]


@pytest.mark.parametrize("tables", ["cold", "warm"])
@pytest.mark.parametrize("p, n, N", COLUMN_GRID)
def test_frobenius_columns_match_digitwise_grid(p, n, N, tables):
    # the columns read tau(t_i) back from the precision-(N-i) tables that
    # teich_digits fills; emptied or filled beforehand, the result is the same
    field = fq_make(p, n)
    ring = zq_ring(field, N)
    t = ring.element([0, 1] + [0] * (n - 2))
    digits = teich_digits(t)
    for M in range(1, N + 1):
        zq_ring(field, M)._teich.clear()
        if tables == "warm":
            for v in digits + [v.frobenius() for v in digits]:
                zq_ring(field, M).teichmuller(v)
    ring.__dict__.pop("frobenius_columns", None)
    columns = ring.frobenius_columns
    assert len(columns) == n and columns[0] == ring.one().residues
    phi_t = _frobenius_digitwise(t)
    for i, column in enumerate(columns):
        assert column == (phi_t ** i).residues
