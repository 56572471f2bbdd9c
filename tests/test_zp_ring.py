import pytest
from hypothesis import example, given, strategies as st

from padiclift import zp_ring
from padiclift.buium import ring_carry
from padiclift.charsum import pi_ring
from padiclift.errors import PrecisionError
from padiclift.gfq import fq_make
from padiclift.quotient import QuotientElem
from padiclift.residue import from_digits
from padiclift.witt_zq import zq_ring
from padiclift.zp_ring import PAdicInt, buium_carry, carry_cocycle, cocycle_sum


def test_from_integer_examples():
    assert PAdicInt.from_integer(7, 5, 2).digits == (2, 1)
    assert PAdicInt.from_integer(-6, 5, 2).digits == (4, 3)   # -6 = 19 mod 25
    assert PAdicInt.from_integer(0, 3, 4).digits == (0, 0, 0, 0)
    for composite in (1, 4, 9, 15):
        with pytest.raises(ValueError, match="not prime"):
            PAdicInt.from_integer(1, composite, 2)


def test_add_examples():
    # single-digit inputs padded to two digits: the star product lands the
    # carry in the next coefficient
    examples = [
        (PAdicInt.from_integer(1, 2, 2), PAdicInt.from_integer(1, 2, 2), (0, 1)),
        (PAdicInt.from_integer(7, 5, 2), PAdicInt.from_integer(0, 5, 2), (2, 1)),
        (PAdicInt.from_integer(24, 5, 2), PAdicInt.from_integer(1, 5, 2), (0, 0)),
    ]
    for x, y, digits in examples:
        assert (x + y).digits == digits
        assert cocycle_sum(x, y).digits == digits
    with pytest.raises(ValueError, match="ring mismatch"):
        PAdicInt.from_integer(1, 5, 1) + PAdicInt.from_integer(1, 3, 1)
    with pytest.raises(ValueError, match="ring mismatch"):
        cocycle_sum(PAdicInt.from_integer(1, 5, 1), PAdicInt.from_integer(1, 3, 1))


@given(st.sampled_from([2, 3, 5, 13]), st.integers(1, 12), st.integers(1, 12),
       st.integers(), st.integers())
def test_cocycle_sum_agrees_with_integer_addition(p, m, n, j, k):
    # the oracle is int addition; st.integers() draws negative and
    # many-word ints, and two precisions (m > n) are two rings, as for +
    n = min(m, n)
    x, y = PAdicInt.from_integer(j, p, n), PAdicInt.from_integer(k, p, n)
    got = cocycle_sum(x, y)
    assert (got.p, got.precision, got.value) == (p, n, (j + k) % p**n)
    assert got == x + y == cocycle_sum(y, x)
    if m > n:
        with pytest.raises(ValueError, match="ring mismatch"):
            cocycle_sum(PAdicInt.from_integer(j, p, m), y)


def tuple_walk_cocycle_sum(x, y):
    """cocycle_sum as first written: digit tuples in, digit list out."""
    p = x.p
    out = []
    carry = 0
    for a, b in zip(x.digits, y.digits):
        s = (a + b) % p
        out.append((s + carry) % p)
        carry = carry_cocycle(a, b, p) + carry_cocycle(s, carry, p)
    return PAdicInt.from_integer(from_digits(out, p), p, len(out))


@given(st.sampled_from([2, 3, 5, 7, 13]), st.integers(1, 64), st.integers(1, 64),
       st.integers(-13**64, 13**64), st.integers(-13**64, 13**64))
@example(2, 1, 1, 1, 1)  # precision 1: the top digit is digit 0, no carry walked
@example(13, 1, 1, 12, 12)
@example(7, 1, 5, -1, 6)  # precision 1 drawn beside a longer one, both ways
@example(7, 5, 1, 6, -1)
def test_cocycle_sum_matches_tuple_walk(p, m, n, j, k):
    # bounded draws fill all 64 digits, where st.integers() keeps to a few;
    # both operands sit in one ring, at the smaller drawn precision
    n = min(m, n)
    x, y = PAdicInt.from_integer(j, p, n), PAdicInt.from_integer(k, p, n)
    got, want = cocycle_sum(x, y), tuple_walk_cocycle_sum(x, y)
    assert (got.p, got.value, got.precision) == (want.p, want.value, want.precision)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cocycle_sum_forms_no_carry_out_of_the_top_digit(monkeypatch, n):
    # two carry_cocycle values per carry into digits 1..n-1, none out of n-1
    calls = []
    real = zp_ring.carry_cocycle

    def counted(a, b, p):
        calls.append((a, b))
        return real(a, b, p)

    monkeypatch.setattr(zp_ring, "carry_cocycle", counted)
    for p in (2, 3, 7):
        for j, k in [(0, 0), (-1, -1), (-1, 1), (p**n // 3, 2 * p**n // 3)]:
            calls.clear()
            got = cocycle_sum(PAdicInt.from_integer(j, p, n), PAdicInt.from_integer(k, p, n))
            assert got.value == (j + k) % p**n
            assert len(calls) == 2 * (n - 1)


def test_cocycle_sum_large_and_negative_examples():
    big = 3**200 + 5
    x, y = PAdicInt.from_integer(big, 3, 40), PAdicInt.from_integer(-big, 3, 40)
    assert cocycle_sum(x, y) == 0
    assert cocycle_sum(PAdicInt.from_integer(-1, 2, 64), PAdicInt.from_integer(1, 2, 64)) == 0
    x, y = PAdicInt.from_integer(-1, 13, 3), PAdicInt.from_integer(-1, 13, 3)
    assert cocycle_sum(x, y).digits == (11, 12, 12)


def test_cocycle_sum_refuses_elements_that_are_not_z_mod_p_n():
    # a digit walk over residues[0] alone would drop every other coefficient
    # and keep the other ring: any quotient element but a PAdicInt is refused
    F9 = fq_make(3, 2)
    others = [zq_ring(fq_make(5, 1), 3).from_int(7), zq_ring(F9, 3).element([5, 7]),
              pi_ring(5, 4).element([6, 2, 0, 0]), fq_make(5, 1).from_int(3)]
    x = PAdicInt.from_integer(7, 5, 3)
    for z in others:
        for pair in [(z, z), (x, z), (z, x)]:
            with pytest.raises(TypeError):
                cocycle_sum(*pair)


def test_mul_and_neg_examples():
    x, y = PAdicInt.from_integer(2, 5, 2), PAdicInt.from_integer(3, 5, 2)
    assert (x * y).digits == (1, 1)  # 6 = 1 + 5
    assert (-PAdicInt.from_integer(0, 3, 3)) == PAdicInt.from_integer(0, 3, 3)
    x = PAdicInt.from_integer(17, 3, 3)
    assert x * 1 == x


@given(st.integers(), st.integers())
def test_add_agrees_with_integer_addition(j, k):
    for (p, n) in [(2, 5), (5, 3), (13, 2)]:
        x, y = PAdicInt.from_integer(j, p, n), PAdicInt.from_integer(k, p, n)
        assert x + y == PAdicInt.from_integer(j + k, p, n)


@given(st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1))
def test_ring_axioms(a, b, c):
    for p, n in [(3, 4), (7, 2)]:
        x, y, z = (PAdicInt.from_integer(v, p, n) for v in (a, b, c))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x


def test_min_precision_propagation():
    # two precisions are two rings: + - * raise, and truncation is explicit
    x = PAdicInt.from_integer(7, 5, 4)
    y = PAdicInt.from_integer(9, 5, 2)
    for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a - b):
        with pytest.raises(ValueError, match="ring mismatch"):
            op(x, y)
    assert (x.truncate(2) + y).precision == 2


def test_carry_cocycle_values():
    assert carry_cocycle(1, 1, 2) == 1
    assert carry_cocycle(2, 3, 5) == 1
    assert carry_cocycle(2, 2, 5) == 0
    for p in (2, 3, 5):
        for x in range(p):
            assert carry_cocycle(0, x, p) == 0  # normalized cocycle
    with pytest.raises(ValueError, match="digit out of range"):
        carry_cocycle(5, 0, 5)


@pytest.mark.parametrize("p", [2, 5])
def test_carry_cocycle_identity_spot(p):
    # full exhaustive run over p <= 13 lives in the acceptance suite
    for a in range(p):
        for b in range(p):
            for c in range(p):
                lhs = carry_cocycle(a, b, p) + carry_cocycle((a + b) % p, c, p)
                rhs = carry_cocycle(b, c, p) + carry_cocycle(a, (b + c) % p, p)
                assert lhs == rhs


def test_buium_carry_examples():
    # C_2(1,1) = (1 + 1 - 4)/2 = -1, all-ones digitwise at the lower precision
    out = buium_carry(PAdicInt.from_integer(1, 2, 4), PAdicInt.from_integer(1, 2, 4))
    assert out.digits == (1, 1, 1)
    assert buium_carry(PAdicInt.from_integer(1, 3, 3), PAdicInt.from_integer(1, 3, 3)) == 3**2 - 2
    x = PAdicInt.from_integer(123, 7, 4)
    assert buium_carry(x, PAdicInt.from_integer(0, 7, 4)) == 0
    # the two errors are the quotient base's, on every ring: x**p + y**p
    # refuses two rings, and div_exact_by_p a ring with no digit left
    F9 = fq_make(3, 2)
    for low, (a, b) in [
            (PAdicInt.from_integer(1, 3, 1),
             (PAdicInt.from_integer(1, 3, 3), PAdicInt.from_integer(1, 5, 3))),
            (zq_ring(F9, 1).one(), (zq_ring(F9, 3).one(), zq_ring(F9, 2).one())),
            (pi_ring(5, 1).pi(), (pi_ring(5, 1).pi(), pi_ring(5, 2).pi()))]:
        with pytest.raises(PrecisionError, match="insufficient precision"):
            buium_carry(low, low)
        with pytest.raises(ValueError, match="ring mismatch"):
            buium_carry(a, b)


@given(st.sampled_from([2, 3, 5, 7, 13]), st.integers(2, 8), st.integers(), st.integers())
@example(13, 8, -13**40 - 1, 2**200 + 7)
@example(2, 2, -1, -1)
def test_buium_carry_matches_the_integer_formula(p, n, a, b):
    # the oracle is the exact-integer C_p on the unreduced ints, negative
    # and many-word ones included; C_p has integer coefficients, so its
    # value mod p^(N-1) depends only on a, b mod p^N.  The same residues
    # in Z_q at n = 1 give the same carry through buium.ring_carry.
    out = buium_carry(PAdicInt.from_integer(a, p, n), PAdicInt.from_integer(b, p, n))
    want = (a**p + b**p - (a + b) ** p) // p % p ** (n - 1)
    assert (out.p, out.precision, out.value) == (p, n - 1, want)
    ring = zq_ring(fq_make(p, 1), n)
    z = ring_carry(ring.from_int(a), ring.from_int(b))
    assert (z.ring.precision, z.residues) == (n - 1, (want,))


@given(st.integers(0, 5**4 - 1), st.integers(0, 5**4 - 1))
def test_buium_carry_symmetric(a, b):
    x, y = PAdicInt.from_integer(a, 5, 4), PAdicInt.from_integer(b, 5, 4)
    assert buium_carry(x, y) == buium_carry(y, x)


def test_unit_inverse():
    assert PAdicInt.from_integer(2, 5, 2).unit_inverse().digits == (3, 2)  # 2 * 13 = 26
    one = PAdicInt.from_integer(1, 7, 3)
    assert one.unit_inverse() == one
    x = PAdicInt.from_integer(26, 3, 3)  # = -1 mod 27
    assert x.unit_inverse() == x
    with pytest.raises(ValueError, match="not a unit"):
        PAdicInt.from_integer(10, 5, 3).unit_inverse()
    # a negative power goes through unit_inverse
    x = PAdicInt.from_integer(2, 5, 2)
    assert x ** -1 == 13 and x ** -2 == 13 * 13 % 25
    with pytest.raises(ValueError, match="not a unit"):
        PAdicInt.from_integer(10, 5, 2) ** -1


@given(st.integers(0, 7**3 - 1))
def test_unit_inverse_property(a):
    x = PAdicInt.from_integer(a, 7, 3)
    if x.is_unit():
        assert x * x.unit_inverse() == 1


def test_div_exact_by_p():
    assert PAdicInt.from_integer(40, 5, 3).div_exact_by_p().digits == (3, 1)  # 0 + 3*5 + 25
    assert PAdicInt.from_integer(0, 5, 2).div_exact_by_p().digits == (0,)
    assert PAdicInt.from_integer(6, 3, 3).div_exact_by_p().digits == (2, 0)
    with pytest.raises(ValueError, match="not divisible"):
        PAdicInt.from_integer(1, 5, 2).div_exact_by_p()
    with pytest.raises(PrecisionError, match="insufficient precision"):
        PAdicInt.from_integer(0, 5, 1).div_exact_by_p()


def test_truncate():
    x = PAdicInt.from_integer(57, 5, 3)  # digits 2, 1, 2
    assert x.truncate(3) == x and x.truncate(1).digits == (2,)
    for precision in (0, 4):
        with pytest.raises(PrecisionError, match="cannot truncate to that precision"):
            x.truncate(precision)


def test_from_integer_is_the_one_constructor():
    assert "__init__" not in vars(PAdicInt)


def test_padic_int_is_the_degree_one_quotient_element():
    # Z/p^N = (Z/p^N)[X]/(X): the base holds the arithmetic, PAdicInt keeps
    # its constructor, four read-only views and the tracer shims
    x = PAdicInt.from_integer(7, 5, 3)
    assert isinstance(x, QuotientElem) and x.residues == (7,)
    assert (x.ring.n, x.ring.relation, x.ring.units) == (1, (0, 1), 4 * 25)
    assert PAdicInt.from_integer(1, 5, 3).ring is x.ring
    assert x.ring.with_precision(2) is PAdicInt.from_integer(0, 5, 2).ring
    own = {k for k in vars(PAdicInt) if k not in ("__module__", "__doc__", "__slots__")}
    assert own == {"from_integer", "p", "precision", "value", "digits",
                   "__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
                   "__pow__", "unit_inverse", "div_exact_by_p", "truncate"}
    for name in ("value", "p", "precision", "digits"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)


def test_from_integer_refuses_a_non_int():
    # the residue is an int, as in every quotient ring
    for bad in (2.5, "7", None):
        with pytest.raises(TypeError):
            PAdicInt.from_integer(bad, 5, 2)


@given(st.integers(2, 30).filter(lambda p: all(p % d for d in range(2, p))),
       st.lists(st.integers(0, 100), min_size=1, max_size=6))
def test_digits_round_trip_property(p, raw):
    digits = [d % p for d in raw]
    x = PAdicInt.from_integer(from_digits(digits, p), p, len(digits))
    assert x.digits == tuple(digits)


def test_pow_and_int_coercion():
    x = PAdicInt.from_integer(3, 5, 3)
    assert x**4 == 81 % 125
    assert x**0 == 1
    assert (2 * x) == 6
    assert (x - 1) == 2
    assert x.value == 3
    with pytest.raises(TypeError):  # .value is the one read of the residue
        int(x)
    # a float is no scalar: each arithmetic operator raises, and == is False
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(x, 2.0)
        with pytest.raises(TypeError):
            op(2.0, x)
    assert (x == 2.0) is False and (2.0 == x) is False


def test_hash_agrees_with_int_equality():
    assert PAdicInt.from_integer(7, 5, 2) == 7
    assert len({PAdicInt.from_integer(7, 5, 2), 7}) == 1
    assert len({PAdicInt.from_integer(-18, 5, 2), PAdicInt.from_integer(7, 5, 2)}) == 1
