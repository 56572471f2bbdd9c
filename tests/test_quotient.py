"""The semantics Z/p^N, Z_q and the pi-ring share through their quotient-ring
base, and the equality/hash contract every element type keeps."""

import pytest
from hypothesis import given, settings, strategies as st

from padiclift.charsum import pi_ring
from padiclift.errors import PrecisionError
from padiclift.gfq import fq_make
from padiclift.witt_zq import zq_ring
from padiclift.zp_ring import PAdicInt


# each kind's ring at (p, N), one ring object per key
RINGS = {
    "padic": lambda p, N: PAdicInt.from_integer(0, p, N).ring,
    "zq": lambda p, N: zq_ring(fq_make(p, 2), N),
    "pi": pi_ring,
}


@pytest.mark.parametrize("kind", ["padic", "zq", "pi"])
def test_shared_quotient_semantics(kind):
    p, N = (3 if kind == "zq" else 5), 3
    ring = RINGS[kind](p, N)
    mod = ring.modulus
    other = RINGS["pi" if kind == "zq" else "zq"](p, N)
    x = ring.element([7] + [1] * (ring.n - 1))
    # an element of another class at the same p and N: no int, so no scalar
    if kind == "padic":
        s = zq_ring(fq_make(p, 1), N).from_int(5)  # Z_p as Z_q of degree 1
    else:
        s = PAdicInt.from_integer(5, p, N)

    # scalars are ints, reduced mod p^N; anything else is a TypeError
    assert ring.from_int(mod + 2) == ring.from_int(2)
    for bad in ([1.5] + [0] * (ring.n - 1), ["5"] + [0] * (ring.n - 1)):
        with pytest.raises(TypeError):
            ring.element(bad)
    with pytest.raises(TypeError):
        ring.from_int(2.7)
    for op in (lambda: x + s, lambda: s * x, lambda: x * s):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError, match=f"expected {ring.n} coefficients, got {ring.n + 1}"):
        ring.element([1] * (ring.n + 1))

    # one ring class: precisions and primes must agree; two classes: no coercion
    with pytest.raises(ValueError, match="ring mismatch"):
        x + ring.with_precision(N + 1).one()
    with pytest.raises(ValueError, match="ring mismatch"):
        x * RINGS[kind](7, N).one()
    with pytest.raises(TypeError):
        x + other.one()
    assert x != other.one()

    # equality with ints, and hashing; another class is no int and compares unequal
    assert ring.from_int(-1) == mod - 1 and ring.from_int(-1) != -1
    for k in range(mod):
        assert ring.from_int(k) == k and hash(ring.from_int(k)) == hash(k)
    assert (ring.from_int(5) == s) is False and (s == ring.from_int(5)) is False
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
    assert RINGS[kind](p, N) is ring
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
@given(st.sampled_from(["padic", "zq", "pi"]), st.integers(-10**30, 10**30),
       st.lists(st.integers(0, 10**6), min_size=6, max_size=6))
def test_scalar_products_scale_coefficient_wise(kind, k, coeffs):
    ring = RINGS[kind](3, 4) if kind == "zq" else RINGS[kind](5, 3)
    x = ring.element(coeffs[:ring.n])
    assert k * x == ring.from_int(k) * x == x * k
    assert (k * x).residues == tuple(k * c % ring.modulus for c in x.residues)


@settings(max_examples=60)
@given(st.sampled_from(["padic", "zq", "pi"]), st.data())
def test_weighted_sum_matches_element_sum(kind, data):
    ring = RINGS[kind](3, 4) if kind == "zq" else RINGS[kind](5, 3)
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


@settings(max_examples=60)
@given(st.sampled_from(["padic", "fp", "zp"]), st.sampled_from([2, 3, 5, 13]),
       st.integers(1, 40), st.integers())
def test_degree_one_inverse_matches_lagrange(kind, p, N, k):
    # at n = 1 unit_inverse is pow(x, -1, p^N); x^(|units| - 1) is its oracle
    ring = {"padic": lambda: RINGS["padic"](p, N), "fp": lambda: fq_make(p, 1),
            "zp": lambda: zq_ring(fq_make(p, 1), N)}[kind]()
    x = ring.from_int(k)
    if not x.is_unit():
        with pytest.raises(ValueError, match="not a unit"):
            x.unit_inverse()
        return
    inv = x.unit_inverse()
    assert type(inv) is type(x) and inv.ring is ring
    assert inv == x ** (ring.units - 1) and x * inv == 1
