import pytest
from hypothesis import given, strategies as st

from padiclift import InvariantError, gfq
from padiclift.cli import main
from padiclift.gfq import FqField, discrete_log, fq_make, frobenius, is_prime, prime_factors
from padiclift.rng import CounterRng


def test_fq_make_smallest_modulus():
    # frozen from exhaustive scans over all monic polynomials
    assert fq_make(2, 2).modulus == (1, 1, 1)    # the only irreducible quadratic
    assert fq_make(5, 1).modulus == (0, 1)       # degree-1 case: the prime field
    assert fq_make(3, 2).modulus == (1, 0, 1)    # t^2 + 1, -1 a non-residue mod 3
    assert fq_make(5, 2).modulus == (1, 1, 1)    # t^2 + 1 splits mod 5, t^2+t+1 not
    # t^16 + t^15 + t^13 + t^11 + 1
    assert fq_make(2, 16).modulus == (1,) + (0,) * 10 + (1, 0, 1, 0, 1, 1)


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
    with pytest.raises(ValueError, match="field mismatch"):
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
    # failure that exits 4 with one error line, not an AssertionError traceback
    monkeypatch.setattr(owner, attr, fake)
    fq_make.cache_clear()
    try:
        with pytest.raises(InvariantError, match=message):
            fq_make(p, n)
        assert main(["teich", "-p", str(p), "-n", str(n), "-N", "2", "-v", "1"]) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")
    finally:
        fq_make.cache_clear()


@pytest.mark.parametrize("p, n", [(2, 1), (3, 2), (2, 4), (5, 3), (13, 2)])
def test_elements_are_in_base_p_integer_order(p, n):
    field = fq_make(p, n)
    walked = list(field.elements())
    assert walked == [field.from_int(k) for k in range(field.q)]
    assert [x.coeffs for x in walked] == [field.from_int(k).coeffs for k in range(field.q)]
