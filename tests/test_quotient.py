"""The semantics Z_q and the pi-ring share through their quotient-ring base,
and the equality/hash contract every element type keeps."""

import pytest
from hypothesis import given, settings, strategies as st

from padiclift.charsum import pi_ring
from padiclift.errors import PrecisionError
from padiclift.gfq import fq_make
from padiclift.witt_zq import zq_ring
from padiclift.zp_ring import PAdicInt


@pytest.mark.parametrize("ring", [zq_ring(fq_make(3, 2), 3), pi_ring(5, 3)],
                         ids=["zq", "pi"])
def test_shared_quotient_semantics(ring):
    p, N, mod = ring.p, ring.precision, ring.modulus
    other = zq_ring(fq_make(3, 2), 3) if ring.n == 4 else pi_ring(5, 3)
    x = ring.element([7] + [1] * (ring.n - 1))

    # scalars are ints, reduced mod p^N; anything else is a TypeError
    assert ring.from_int(mod + 2) == ring.from_int(2)
    for bad in ([1.5] + [0] * (ring.n - 1), ["5"] + [0] * (ring.n - 1)):
        with pytest.raises(TypeError):
            ring.element(bad)
    with pytest.raises(TypeError):
        ring.from_int(2.7)
    s = PAdicInt.from_integer(5, p, N)
    for op in (lambda: x + s, lambda: s * x, lambda: x * s):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError, match=f"expected {ring.n} coefficients, got 1"):
        ring.element([1])

    # one ring class: precisions must agree; two classes: no coercion
    with pytest.raises(ValueError, match="ring mismatch"):
        x + ring.with_precision(N + 1).one()
    with pytest.raises(TypeError):
        x + other.one()
    assert x != other.one()

    # equality with ints, and hashing; a PAdicInt is no int and compares unequal
    assert ring.from_int(-1) == mod - 1 and ring.from_int(-1) != -1
    for k in range(mod):
        assert ring.from_int(k) == k and hash(ring.from_int(k)) == hash(k)
    assert (ring.from_int(4) == PAdicInt.from_integer(4, p, N)) is False
    assert (x == s) is False
    y = ring.element(list(x.residues))
    assert y == x and y is not x and hash(y) == hash(x)
    assert len({ring.from_int(4), 4}) == 1
    assert x - 3 == -(3 - x)
    # a float is no scalar: each arithmetic operator raises, and == is False
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(x, 2.0)
        with pytest.raises(TypeError):
            op(2.0, x)
    assert (x == 2.0) is False and (2.0 == x) is False

    # exact division by p and truncation
    assert (x * p).div_exact_by_p() == x.truncate(N - 1)
    with pytest.raises(ValueError, match="not divisible"):
        x.div_exact_by_p()
    with pytest.raises(PrecisionError, match="precision exhausted"):
        ring.with_precision(1).from_int(p).div_exact_by_p()
    with pytest.raises(PrecisionError):
        x.truncate(N + 1)
    with pytest.raises(PrecisionError):
        x.truncate(0)
    assert x.truncate(1).ring is ring.with_precision(1)

    # one ring object per key, since rings compare by identity
    assert (zq_ring(fq_make(3, 2), 3) if ring.n == 2 else pi_ring(5, 3)) is ring
    assert ring.with_precision(N) is ring
    y = x.truncate(N)
    assert y.ring is ring and y == x and hash(y) == hash(x)

    # inverse through the order of the unit group
    assert x.is_unit()
    assert x * x.unit_inverse() == 1
    assert x**-2 * x**2 == ring.one()
    with pytest.raises(ValueError, match="not a unit"):
        (x * p).unit_inverse()


@settings(max_examples=60)
@given(st.sampled_from(["zq", "pi"]), st.integers(-10**30, 10**30),
       st.lists(st.integers(0, 10**6), min_size=6, max_size=6))
def test_scalar_products_scale_coefficient_wise(kind, k, coeffs):
    ring = zq_ring(fq_make(3, 2), 4) if kind == "zq" else pi_ring(5, 3)
    x = ring.element(coeffs[:ring.n])
    assert k * x == ring.from_int(k) * x == x * k
    assert (k * x).residues == tuple(k * c % ring.modulus for c in x.residues)


@settings(max_examples=60)
@given(st.sampled_from(["zq", "pi"]), st.data())
def test_weighted_sum_matches_element_sum(kind, data):
    ring = zq_ring(fq_make(3, 2), 4) if kind == "zq" else pi_ring(5, 3)
    weights = st.one_of(st.just(0), st.integers(-10**12, 10**12),
                        st.integers(ring.modulus, 10**30))
    vectors = st.lists(st.integers(0, ring.modulus - 1), min_size=ring.n, max_size=ring.n)
    terms = data.draw(st.lists(st.tuples(weights, vectors.map(tuple)), max_size=6))
    want = ring.zero()
    for c, v in terms:
        want = want + c * ring.element(v)
    got = ring.weighted_sum(terms)
    assert type(got) is ring.element_type and got.ring is ring
    assert got == want and got.residues == want.residues
    assert ring.weighted_sum(iter(terms)) == want
    assert ring.weighted_sum([]) == ring.zero()
    for bad in ((1,) * (ring.n - 1), (1,) * (ring.n + 1)):  # zip(strict=True)
        with pytest.raises(ValueError):
            ring.weighted_sum(terms + [(1, bad)])


@settings(max_examples=200)
@given(st.sampled_from(["padic", "fq", "zq", "pi"]), st.data())
def test_int_equality_agrees_with_hash(kind, data):
    # an element equals only the int residue it holds, so x == k exactly
    # when {x, k} has one element; equal elements hash alike
    if kind == "padic":
        p, N = 5, 3
        mod = p**N
        r = data.draw(st.integers(0, mod - 1))
        x, twin = PAdicInt.from_integer(r, p, N), PAdicInt.from_integer(r - 2 * mod, p, N)
    else:
        ring = {"fq": fq_make(3, 2), "zq": zq_ring(fq_make(3, 2), 3), "pi": pi_ring(5, 3)}[kind]
        mod = ring.modulus
        top = data.draw(st.sampled_from([0, mod - 1]))  # scalars, and the rest
        coeffs = [data.draw(st.integers(0, mod - 1))] + [
            data.draw(st.integers(0, top)) for _ in range(ring.n - 1)]
        r = coeffs[0]
        x, twin = ring.element(coeffs), ring.element([c + 3 * mod for c in coeffs])
    k = data.draw(st.one_of(st.integers(-3 * mod, 3 * mod),
                            st.sampled_from([r - mod, r, r + mod])))
    assert (x == k) == (len({x, k}) == 1) == (k == x)
    assert twin == x and hash(twin) == hash(x) and len({x, twin}) == 1
