import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from padiclift import InvariantError, PrecisionError, charsum, cli, gfq
from padiclift.cli import main
from padiclift.gfq import FqField, fq_make, is_prime, prime_factors
from padiclift.residue import from_digits, mulmod, to_digits
from padiclift.rng import CounterRng
from padiclift.witt_zq import zq_ring
from padiclift.zp_ring import PAdicInt


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


def _indexed(field, k):
    """The element whose coefficients are the base-p digits of k, 0 <= k < q."""
    return field.element(to_digits(k, field.p, field.n))


def _monic(p, degree):
    return [tail + (1,) for tail in itertools.product(range(p), repeat=degree)]


def _times(a, b, p):
    """Schoolbook product of two coefficient tuples over F_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


@pytest.mark.parametrize("p, n", [(2, n) for n in (2, 3, 4, 5, 6, 8, 10)]
                         + [(3, 2), (3, 3), (3, 4), (3, 6), (5, 2), (5, 3), (5, 4),
                            (7, 2), (7, 3), (11, 2), (13, 2)])
def test_rabin_test_accepts_exactly_the_sieved_monic_polynomials(p, n):
    # a monic polynomial is reducible exactly when it is a product of two
    # monic polynomials of lower degree; sieve those out of all p^n of them
    reducible = {_times(a, b, p) for d in range(1, n // 2 + 1)
                 for a in _monic(p, d) for b in _monic(p, n - d)}
    accepted = {f for f in _monic(p, n) if gfq._is_irreducible(f, p)}
    assert accepted == set(_monic(p, n)) - reducible


@pytest.mark.parametrize("p_below, n_from, q_cap, fields, digest", [
    (4097, 1, 4096, 604, "26c9f227f603408f5badeac1fe05693e20bb15f62cb9fa00171b7cfe0dc3c125"),
    (257, 2, 65536, 93, "c58c3ba4d33c5c694aa9a76ce603fbc6ca80260423e9d8a50002bdf266c1ac02"),
], ids=["all-to-4096", "extensions-to-65536"])
def test_canonical_fields_are_frozen(p_below, n_from, q_cap, fields, digest):
    # relation and generator of every canonical field in range, primes
    # ascending and degrees upward: a change to either choice moves the digest
    rows = [(p, n, F.relation, F.generator.coeffs)
            for p in range(2, p_below) if is_prime(p)
            for n in itertools.takewhile(lambda n: p**n <= q_cap, itertools.count(n_from))
            for F in [fq_make(p, n)]]
    assert len(rows) == fields
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


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
    assert F5.from_int(2) ** -1 == F5.from_int(3)
    F4 = fq_make(2, 2)
    t = F4.element([0, 1])
    assert t * t == F4.element([1, 1])  # t^2 = t + 1 mod the modulus
    with pytest.raises(ValueError, match="not a unit"):
        F5.zero() ** -1
    with pytest.raises(ValueError, match="ring mismatch"):
        F5.from_int(1) + F4.from_int(1)


@given(st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_f25(j, k):
    F = fq_make(5, 2)
    x, y = _indexed(F, j), _indexed(F, k)
    assert x * y == y * x
    assert x + y == y + x
    assert x * F.one() == x
    assert x + F.zero() == x
    if y != 0:
        assert x * y ** -1 * y == x


@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_distributivity_f25(a, b, c):
    F = fq_make(5, 2)
    x, y, z = _indexed(F, a), _indexed(F, b), _indexed(F, c)
    assert x * (y + z) == x * y + x * z


def test_frobenius_examples():
    F9 = fq_make(3, 2)
    t = F9.element([0, 1])
    assert t.frobenius() == F9.element([0, 2])  # t^3 = -t
    assert F9.zero().frobenius() == F9.zero()
    F7 = fq_make(7, 1)
    for x in F7.elements():
        assert x.frobenius() == x  # Fermat's little theorem


@given(st.integers(0, 24), st.integers(0, 24))
def test_frobenius_is_homomorphism(j, k):
    F = fq_make(5, 2)
    x, y = _indexed(F, j), _indexed(F, k)
    assert (x * y).frobenius() == x.frobenius() * y.frobenius()
    assert (x + y).frobenius() == x.frobenius() + y.frobenius()


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (13, 2)])
def test_frobenius_iterated_n_times_is_identity(p, n):
    field = fq_make(p, n)
    if field.q <= 300:
        sample = list(field.elements())
    else:
        rng = CounterRng(7)
        sample = [_indexed(field, rng.below(field.q)) for _ in range(40)]
    for x in sample:
        y = x
        for _ in range(n):
            y = y.frobenius()
        assert y == x


def test_frobenius_sampled_above_exhaustive_bound():
    field = fq_make(5, 4)  # q = 625 > 300
    rng = CounterRng(11)
    for _ in range(25):
        x = _indexed(field, rng.below(field.q))
        y = x
        for _ in range(field.n):
            y = y.frobenius()
        assert y == x


def test_discrete_log():
    F5 = fq_make(5, 1)
    assert F5.dlog(F5.one()) == 0
    assert F5.dlog(F5.generator) == 1
    assert F5.dlog(F5.from_int(4)) == 2  # 2^2 = 4
    with pytest.raises(ValueError, match="log of zero"):
        F5.dlog(F5.zero())


@pytest.mark.parametrize("p,n", [(5, 1), (3, 2), (5, 2)])
def test_discrete_log_inverts_exponentiation(p, n):
    field = fq_make(p, n)
    for e in range(field.q - 1):
        assert field.dlog(field.generator**e) == e


@pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (3, 3), (7, 1), (5, 2)])
def test_zech_table(p, n):
    field = fq_make(p, n)
    g, one = field.generator, field.one()
    zech = field.zech_table()
    assert len(zech) == field.q - 1 and zech[0] is None
    for k in range(1, field.q - 1):
        assert g ** zech[k] == one - g**k


def walked_logs(field):
    """The one-mulmod-per-power walk, kept as the oracle of FqField._logs."""
    p, f, g = field.p, field.relation, field.generator.coeffs
    powers = [field.one().coeffs]
    for _ in range(field.q - 2):
        powers.append(mulmod(powers[-1], g, f, p))
    dlog = {c: e for e, c in enumerate(powers)}
    zech = [None] * (field.q - 1)
    for k in range(1, field.q - 1):
        c = powers[k]
        zech[k] = dlog[((1 - c[0]) % p,) + tuple(-x % p for x in c[1:])]
    return dlog, tuple(zech)


# every extension field with q <= 4096 and every prime field below 200
LOG_ORACLE_FIELDS = [(p, n) for p in range(2, 200) if is_prime(p)
                     for n in range(1, 13) if n == 1 or p**n <= 4096]


@pytest.mark.parametrize("p, n", LOG_ORACLE_FIELDS)
def test_line_walk_matches_one_mulmod_per_power(p, n):
    field = fq_make(p, n)
    dlog, zech = field._logs
    want_dlog, want_zech = walked_logs(field)
    assert list(dlog.items()) == list(want_dlog.items())
    assert zech == want_zech


@pytest.mark.parametrize("wrong", [(1, 0), (2, 0)], ids=["one", "scalar"])
def test_wrong_generator_exits_4(monkeypatch, capsys, wrong):
    # a generator of order below q - 1 makes the log walk repeat; that is an
    # invariant failure with exit 4 and one error line, not a KeyError
    # traceback out of the Zech table.  jacobi over F_49 reads both tables.
    monkeypatch.setattr(FqField, "_is_generator", lambda self, g: g.coeffs == wrong)
    monkeypatch.setattr(charsum, "fq_make", fq_make.__wrapped__)
    assert main(["jacobi", "-q", "49", "-a", "3", "-b", "5", "-N", "3"]) == 4
    assert capsys.readouterr() == ("", "error: generator powers repeat before q - 1\n")


def test_log_walk_rejects_a_norm_outside_f_p():
    # in a field g^((q-1)/(p-1)) is always a scalar; in F_7[t]/(t^2), which
    # is no field, (1 + t)^8 = 1 + 8t = 1 + t is not
    ring = fq_make.__wrapped__(7, 2)
    ring.relation = (0, 0, 1)
    ring.generator = ring.element_type(ring, (1, 1))
    with pytest.raises(InvariantError, match=r"g\^\(\(q-1\)/\(p-1\)\) is not in F_p\^\*"):
        ring._logs


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
    # The generator is searched on first read, so jacobi, which reads it,
    # is the command that meets the failure.
    monkeypatch.setattr(owner, attr, fake)
    monkeypatch.setattr(charsum, "fq_make", fq_make.__wrapped__)
    with pytest.raises(InvariantError, match=message):
        fq_make.__wrapped__(p, n).generator
    assert main(["jacobi", "-q", str(p**n), "-a", "1", "-b", "2", "-N", "2"]) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    "teich -p 7 -N 2 -v 3",
    "teich -p 2 -n 8 -N 6 -v 1,0,1,1,0,0,0,1",
    "frobenius -p 3 -n 6 -N 10 -x 1,2,3,4,5,6",
    "delta -p 3 -n 2 -N 4 -x 5,7",
], ids=["teich-F7", "teich-F256", "frobenius", "delta"])
def test_zq_commands_never_search_for_a_generator(monkeypatch, capsys, argv):
    # Z_q, its Teichmuller lifts, Frobenius and delta read only the relation
    monkeypatch.setattr(FqField, "_is_generator", lambda self, g: False)
    monkeypatch.setattr(cli, "fq_make", fq_make.__wrapped__)
    assert main(argv.split()) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("p, n", [(2, 8), (2, 16), (3, 4), (5, 3), (13, 2)])
def test_each_candidate_relation_is_tested_once(monkeypatch, p, n):
    tested = []
    rabin = gfq._is_irreducible

    def recorded(modulus, p):
        tested.append(modulus)
        return rabin(modulus, p)

    monkeypatch.setattr(gfq, "_is_irreducible", recorded)
    field = fq_make.__wrapped__(p, n)
    assert len(tested) == len(set(tested))
    assert tested[-1] == field.relation


@pytest.mark.parametrize("p, n", [(2, 1), (3, 2), (2, 4), (5, 3), (13, 2)])
def test_elements_are_in_base_p_integer_order(p, n):
    field = fq_make(p, n)
    walked = list(field.elements())
    assert [from_digits(x.coeffs, p) for x in walked] == list(range(field.q))
    assert all(x.field is field and len(x.coeffs) == n for x in walked)


SCALAR_FIELDS = pytest.mark.parametrize("p, n", [(3, 2), (2, 3), (5, 2)],
                                        ids=["F9", "F8", "F25"])


@SCALAR_FIELDS
def test_int_scalars_land_in_the_constant_slot(p, n):
    # k is the constant k mod p, and from_int(k) is that constant element,
    # as in Z_q: reduction mod p commutes with the map from the integers
    field = fq_make(p, n)
    zero, one = (0,) * n, (1,) + (0,) * (n - 1)
    assert field.zero().coeffs == zero and field.one().coeffs == one
    sample = [field.zero(), field.one(), field.generator, _indexed(field, field.q - 1)]
    for k in (p, p + 1, 2 * p + 1, -1):
        c = k % p
        scalar = field.from_int(k)
        assert scalar.coeffs == (c,) + zero[1:] and scalar == c and scalar != k
        assert scalar == field.zero() + k == field.one() * k
        assert zq_ring(field, 3).from_int(k).reduce_mod_p() == scalar
        for x in sample:
            v = x.coeffs
            assert (x + k).coeffs == ((v[0] + c) % p,) + v[1:] == (k + x).coeffs
            assert (k - x).coeffs == ((c - v[0]) % p,) + tuple(-a % p for a in v[1:])
            assert (x * k).coeffs == tuple(a * c % p for a in v) == (k * x).coeffs
            assert (x == c) is (v == (c,) + (0,) * (n - 1))


@SCALAR_FIELDS
def test_padic_scalars_and_scalar_hashes(p, n):
    # the one scalar type is int: a PAdicInt, a float or a string is refused
    # by element, from_int and the arithmetic, and a PAdicInt compares
    # unequal; a scalar element hashes as the int residue it equals
    field = fq_make(p, n)
    g = field.generator
    for bad in ([1.5] + [0] * (n - 1), ["5"] + [0] * (n - 1)):
        with pytest.raises(TypeError):
            field.element(bad)
    with pytest.raises(TypeError):
        field.from_int(2.7)
    s = PAdicInt.from_integer(p + 1, p, 2)
    for op in (lambda: g + s, lambda: s * g, lambda: g * s):
        with pytest.raises(TypeError):
            op()
    assert (g == s) is False and (field.one() == s) is False
    for k in range(p):
        scalar = field.from_int(k)
        assert scalar == k and hash(scalar) == hash(k) and len({scalar, k}) == 1


@SCALAR_FIELDS
def test_truncate_to_precision_one_is_the_identity(p, n):
    # F_q is the quotient ring at precision 1: truncate(1) is the base's
    # early return, and there is no digit left to spend on a division by p,
    # so F_q needs no with_precision
    field = fq_make(p, n)
    assert not hasattr(field, "with_precision")
    for x in (field.zero(), field.one(), field.generator, _indexed(field, field.q - 1)):
        y = x.truncate(1)
        assert y.field is field and y.coeffs == x.coeffs
        with pytest.raises(PrecisionError, match="cannot truncate"):
            x.truncate(2)
        with pytest.raises(PrecisionError, match="insufficient precision"):
            x.div_exact_by_p()
