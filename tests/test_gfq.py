import pytest
from hypothesis import given, strategies as st

from padiclift import InvariantError, cli, gfq
from padiclift.cli import main
from padiclift.gfq import FqField, discrete_log, fq_make, frobenius, is_prime, prime_factors
from padiclift.rng import CounterRng
from padiclift.zp_ring import from_integer


def test_fq_make_smallest_modulus():
    # frozen from exhaustive scans over all monic polynomials
    assert fq_make(2, 2).relation == (1, 1, 1)   # the only irreducible quadratic
    assert fq_make(5, 1).relation == (0, 1)      # degree-1 case: the prime field
    assert fq_make(3, 2).relation == (1, 0, 1)   # t^2 + 1, -1 a non-residue mod 3
    assert fq_make(5, 2).relation == (1, 1, 1)   # t^2 + 1 splits mod 5, t^2+t+1 not
    # t^16 + t^15 + t^13 + t^11 + 1
    assert fq_make(2, 16).relation == (1,) + (0,) * 10 + (1, 0, 1, 0, 1, 1)


def test_fq_make_smallest_generator():
    assert fq_make(5, 1).generator.coeffs == (2,)
    assert fq_make(7, 1).generator.coeffs == (3,)
    assert fq_make(13, 1).generator.coeffs == (2,)
    assert fq_make(2, 2).generator.coeffs == (0, 1)
    assert fq_make(3, 2).generator.coeffs == (1, 1)
    assert fq_make(5, 2).generator.coeffs == (2, 1)


def test_fq_make_validation():
    with pytest.raises(ValueError, match="not prime"):
        fq_make(4, 1)
    with pytest.raises(ValueError, match="field too large"):
        fq_make(2, 25)
    with pytest.raises(ValueError):
        FqField(3, 2, (0, 0, 1))  # t^2 has the root 0
    with pytest.raises(ValueError, match="order"):
        FqField(5, 1, (0, 1), generator=(4,))  # order 2, not 4


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 1), (5, 2), (7, 1), (13, 1)])
def test_generator_order_exact(p, n):
    field = fq_make(p, n)
    g = field.generator
    q = field.q
    assert g ** (q - 1) == field.one()
    for l in prime_factors(q - 1):
        assert g ** ((q - 1) // l) != field.one()


def test_field_arithmetic_examples():
    F5 = fq_make(5, 1)
    assert F5.from_int(2).inverse() == F5.from_int(3)
    F4 = fq_make(2, 2)
    t = F4.element([0, 1])
    assert t * t == F4.element([1, 1])  # t^2 = t + 1 mod the modulus
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        F5.zero().inverse()
    with pytest.raises(ValueError, match="ring mismatch"):
        F5.from_int(1) + F4.from_int(1)


@given(st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_f25(j, k):
    F = fq_make(5, 2)
    x, y = F.from_int(j), F.from_int(k)
    assert x * y == y * x
    assert x + y == y + x
    assert x * F.one() == x
    assert x + F.zero() == x
    if not y.is_zero():
        assert (x / y) * y == x


@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_distributivity_f25(a, b, c):
    F = fq_make(5, 2)
    x, y, z = F.from_int(a), F.from_int(b), F.from_int(c)
    assert x * (y + z) == x * y + x * z


def test_frobenius_examples():
    F9 = fq_make(3, 2)
    t = F9.element([0, 1])
    assert frobenius(t) == F9.element([0, 2])  # t^3 = -t
    assert frobenius(F9.zero()) == F9.zero()
    F7 = fq_make(7, 1)
    for x in F7.elements():
        assert frobenius(x) == x  # Fermat's little theorem


@given(st.integers(0, 24), st.integers(0, 24))
def test_frobenius_is_homomorphism(j, k):
    F = fq_make(5, 2)
    x, y = F.from_int(j), F.from_int(k)
    assert frobenius(x * y) == frobenius(x) * frobenius(y)
    assert frobenius(x + y) == frobenius(x) + frobenius(y)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (13, 2)])
def test_frobenius_iterated_n_times_is_identity(p, n):
    field = fq_make(p, n)
    if field.q <= 300:
        sample = list(field.elements())
    else:
        rng = CounterRng(7)
        sample = [field.from_int(rng.below(field.q)) for _ in range(40)]
    for x in sample:
        y = x
        for _ in range(n):
            y = frobenius(y)
        assert y == x


def test_frobenius_sampled_above_exhaustive_bound():
    field = fq_make(5, 4)  # q = 625 > 300
    rng = CounterRng(11)
    for _ in range(25):
        x = field.from_int(rng.below(field.q))
        y = x
        for _ in range(field.n):
            y = frobenius(y)
        assert y == x


def test_discrete_log():
    F5 = fq_make(5, 1)
    assert discrete_log(F5.one()) == 0
    assert discrete_log(F5.generator) == 1
    assert discrete_log(F5.from_int(4)) == 2  # 2^2 = 4
    with pytest.raises(ValueError, match="log of zero"):
        discrete_log(F5.zero())


@pytest.mark.parametrize("p,n", [(5, 1), (3, 2), (5, 2)])
def test_discrete_log_inverts_exponentiation(p, n):
    field = fq_make(p, n)
    for e in range(field.q - 1):
        assert discrete_log(field.generator**e) == e


@pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (3, 3), (7, 1), (5, 2)])
def test_zech_table(p, n):
    field = fq_make(p, n)
    g, one = field.generator, field.one()
    zech = field.zech_table()
    assert len(zech) == field.q - 1 and zech[0] is None
    for k in range(1, field.q - 1):
        assert g ** zech[k] == one - g**k


def test_is_prime_basics():
    assert [k for k in range(20) if is_prime(k)] == [2, 3, 5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize("p,n,owner,attr,fake,message", [
    (3, 2, gfq, "_is_irreducible", lambda modulus, p: len(modulus) == 2,
     "no irreducible polynomial found"),
    (7, 1, FqField, "_is_generator", lambda self, g: False, "no generator found"),
], ids=["modulus", "generator"])
def test_failed_search_raises_invariant_error(monkeypatch, capsys, p, n, owner, attr,
                                              fake, message):
    # neither search can fail on a correct F_q; forced to, it is an invariant
    # failure that exits 4 with one error line, not an AssertionError traceback.
    # Fields compare by identity, so this runs on the uncached builder and
    # leaves the cached canonical fields that other tests share in place.
    monkeypatch.setattr(owner, attr, fake)
    monkeypatch.setattr(cli, "fq_make", fq_make.__wrapped__)
    with pytest.raises(InvariantError, match=message):
        fq_make.__wrapped__(p, n)
    assert main(["teich", "-p", str(p), "-n", str(n), "-N", "2", "-v", "1"]) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("p, n", [(2, 1), (3, 2), (2, 4), (5, 3), (13, 2)])
def test_elements_are_in_base_p_integer_order(p, n):
    field = fq_make(p, n)
    walked = list(field.elements())
    assert walked == [field.from_int(k) for k in range(field.q)]
    assert [x.coeffs for x in walked] == [field.from_int(k).coeffs for k in range(field.q)]


SCALAR_FIELDS = pytest.mark.parametrize("p, n", [(3, 2), (2, 3), (5, 2)],
                                        ids=["F9", "F8", "F25"])


@SCALAR_FIELDS
def test_int_scalars_land_in_the_constant_slot(p, n):
    # k is the constant k mod p, not the element from_int(k) whose
    # coefficients are k's base-p digits
    field = fq_make(p, n)
    sample = [field.zero(), field.one(), field.generator, field.from_int(field.q - 1)]
    for k in (p, p + 1, 2 * p + 1, -1):
        c = k % p
        for x in sample:
            v = x.coeffs
            assert (x + k).coeffs == ((v[0] + c) % p,) + v[1:] == (k + x).coeffs
            assert (k - x).coeffs == ((c - v[0]) % p,) + tuple(-a % p for a in v[1:])
            assert (x * k).coeffs == tuple(a * c % p for a in v) == (k * x).coeffs
            assert (x == k) is (v == (c,) + (0,) * (n - 1))


@SCALAR_FIELDS
def test_padic_scalars_and_scalar_hashes(p, n):
    # a same-prime PAdicInt is the scalar it reduces to mod p, and a scalar
    # element hashes as the residue it equals
    field = fq_make(p, n)
    g = field.generator
    for k in (p, p + 1, 2 * p + 1, -1):
        c, s = k % p, from_integer(k, p, 2)
        assert g + s == g + c and s - g == c - g and g * s == g * c
        scalar = field.zero() + k
        assert scalar == s and scalar == c and hash(scalar) == hash(c)
        assert len({scalar, c}) == 1
    other = from_integer(1, 7, 1)
    assert g != other
    with pytest.raises(ValueError, match="prime mismatch"):
        g + other
