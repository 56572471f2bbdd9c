import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import padiclift.charsum as charsum
import padiclift.cli as cli
from padiclift.charsum import (MultChar, additive_character, char_convolution,
                               count_fermat_brute, count_fermat_jacobi,
                               dwork_theta, field_for_order, gauss_coboundary,
                               gauss_sum, gross_koblitz_check, jacobi_sum,
                               pi_ring)
from padiclift.errors import InvariantError
from padiclift.gamma import gamma_p
from padiclift.gfq import fq_make, prime_factors
from padiclift.witt_zq import zq_ring
from padiclift.zp_ring import PAdicInt


F5 = fq_make(5, 1)
F7 = fq_make(7, 1)


def test_field_for_order():
    assert field_for_order(9) is fq_make(3, 2)
    assert field_for_order(13) is fq_make(13, 1)
    with pytest.raises(ValueError):
        field_for_order(12)


def test_fermat_precision_reads_q_without_building_the_field():
    # smallest N with p^N > 4 m^2 q: 3^4 = 81 > 64 and 2^6 = 64 > 36, past Q_CAP
    assert charsum.fermat_precision(3**200, 4) == 204
    assert charsum.fermat_precision(2**22, 3) == 28
    assert charsum.fermat_precision(81, 4) == 8
    with pytest.raises(ValueError, match="q must be a prime power"):
        charsum.fermat_precision(12, 3)


# ---------------------------------------------------------------------------
# characters and Jacobi sums

def test_char_eval_examples():
    triv = MultChar(F5, 0)
    ring = zq_ring(F5, 2)
    for x in F5.elements():
        if x == 0:
            assert triv.eval(x, 2) == ring.zero()
        else:
            assert triv.eval(x, 2) == ring.one()
    quad = MultChar(F5, 2)
    assert quad.order() == 2
    assert quad.eval(F5.from_int(4), 2) == ring.one()
    assert quad.eval(F5.from_int(2), 2) == -ring.one()
    chi = MultChar(F5, 3)
    assert chi.eval(F5.generator, 2) == ring.teichmuller(F5.generator) ** 3
    with pytest.raises(ValueError, match="field mismatch"):
        chi.eval(F7.one(), 2)


def test_char_convolution_trivial():
    for q in (5, 7, 9):
        field = field_for_order(q)
        triv = MultChar(field, 0)
        got = char_convolution(triv, triv, field.one(), 2)
        assert got == zq_ring(field, 2).from_int(q - 2)


def test_char_convolution_degenerate_f2():
    # over F_2 every term has x = 0 or y = 0; the loop returns the empty sum
    F2 = fq_make(2, 1)
    triv = MultChar(F2, 0)
    assert char_convolution(triv, triv, F2.one(), 3) == zq_ring(F2, 3).zero()


def test_jacobi_quadratic():
    assert jacobi_sum(2, 2, F5, 3) == zq_ring(F5, 3).from_int(-1)


def test_jacobi_trivial_pair():
    assert jacobi_sum(0, 0, F5, 2) == zq_ring(F5, 2).from_int(3)


@pytest.mark.parametrize("field", [F5, F7])
def test_jacobi_inverse_pair(field):
    # J(chi_a, chi_{-a}) = -chi_a(-1) = -(-1)^a on prime fields
    ring = zq_ring(field, 3)
    for a in range(1, field.q - 1):
        want = ring.from_int(-((-1) ** a))
        assert jacobi_sum(a, -a, field, 3) == want


@pytest.mark.parametrize("q", [5, 7, 13])
def test_jacobi_norm_relation(q):
    field = field_for_order(q)
    ring = zq_ring(field, 3)
    d = q - 1
    for a in range(1, d):
        for b in range(1, d):
            if (a + b) % d == 0:
                continue
            assert jacobi_sum(a, b, field, 3) * jacobi_sum(-a, -b, field, 3) \
                == ring.from_int(q)


def test_jacobi_norm_relation_extension_field():
    field = fq_make(3, 2)
    ring = zq_ring(field, 3)
    for (a, b) in [(1, 1), (2, 3), (5, 6), (3, 3)]:
        if (a + b) % 8 == 0:
            continue
        assert jacobi_sum(a, b, field, 3) * jacobi_sum(-a, -b, field, 3) \
            == ring.from_int(9)
    field25 = fq_make(5, 2)
    ring25 = zq_ring(field25, 2)
    for (a, b) in [(1, 2), (7, 11), (13, 5)]:
        assert jacobi_sum(a, b, field25, 2) * jacobi_sum(-a, -b, field25, 2) \
            == ring25.from_int(25)


@pytest.mark.parametrize("q", [13, 25, 27])
def test_jacobi_sum_is_symmetric(q):
    # J(a, b) = J(b, a) by x -> 1 - x; count_fermat_jacobi forms only a <= b
    field = field_for_order(q)
    for a in range(q - 1):
        for b in range(a + 1, q - 1):
            assert jacobi_sum(a, b, field, 3) == jacobi_sum(b, a, field, 3), (a, b)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49])
def test_jacobi_sum_matches_convolution(q):
    # the Zech-table sum against the direct definition for every exponent
    # pair, at N = 3 and, through truncation, at N = 1; the convolution is
    # symmetric (x -> 1 - x), so one oracle call serves (a, b) and (b, a)
    field = field_for_order(q)
    one = field.one()
    chars = [MultChar(field, a) for a in range(q - 1)]
    for a in range(q - 1):
        for b in range(a, q - 1):
            want = char_convolution(chars[a], chars[b], one, 3)
            for x, y in ((a, b), (b, a)):
                assert jacobi_sum(x, y, field, 3) == want, (x, y)
                assert jacobi_sum(x, y, field, 1) == want.truncate(1), (x, y)
    # exponents are read mod q-1, negative ones included
    assert jacobi_sum(-1, q, field, 2) == jacobi_sum(q - 2, 1, field, 2)


def test_char_convolution_field_mismatch():
    with pytest.raises(ValueError, match="field mismatch"):
        char_convolution(MultChar(F5, 1), MultChar(F7, 1), F5.one(), 2)


# ---------------------------------------------------------------------------
# pi-ring

def test_pi_ring_relation():
    R = pi_ring(5, 3)
    assert R.pi() ** 4 == R.from_int(-5)
    assert R.pi() ** 5 == R.pi() * -5
    with pytest.raises(ValueError, match="p=2"):
        pi_ring(2, 3)


coeffs4 = st.tuples(*[st.integers(0, 5**3 - 1)] * 4)


@given(coeffs4, coeffs4, coeffs4)
def test_pi_ring_axioms(a, b, c):
    R = pi_ring(5, 3)
    x, y, z = R.element(a), R.element(b), R.element(c)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


def test_pi_ring_div_and_inverse():
    R = pi_ring(5, 3)
    x = R.element([10, 5, 0, 20])
    assert x.div_exact_by_p() == pi_ring(5, 2).element([2, 1, 0, 4])
    with pytest.raises(ValueError, match="not divisible"):
        R.element([1, 5, 0, 0]).div_exact_by_p()
    u = R.element([2, 3, 1, 4])
    assert u.is_unit()
    assert u * u.unit_inverse() == R.one()
    with pytest.raises(ValueError, match="not a unit"):
        R.element([5, 1, 1, 1]).unit_inverse()


def test_pi_valuation():
    R = pi_ring(5, 3)
    assert R.zero().pi_valuation() is None
    assert R.one().pi_valuation() == 0
    assert R.from_int(5).pi_valuation() == 4
    assert (R.pi() ** 6).pi_valuation() == 6
    assert R.element([50, 5, 1, 0]).pi_valuation() == 2


@pytest.mark.parametrize("p", [5, 7])
def test_gauss_sum_valuations(p):
    # with the positive-exponent convention, v_pi(g(a)) = p - 1 - a
    for a in range(1, p - 1):
        assert gauss_sum(a, p, 3).pi_valuation() == p - 1 - a
    assert gauss_sum(0, p, 3).pi_valuation() == 0


def test_jacobi_valuation_under_embedding():
    # J(chi_1, chi_1) over F_5 is 10 mod 25: it picks up the full pi^(p-1)
    # because 1 + 1 stays below p - 1, while the (3,3) conjugate is a unit
    jac = jacobi_sum(1, 1, F5, 2)
    assert jac.residues[0] == 10
    assert pi_ring(5, 2).from_int(jac.residues[0]).pi_valuation() == 4
    jac33 = jacobi_sum(3, 3, F5, 2)
    assert pi_ring(5, 2).from_int(jac33.residues[0]).pi_valuation() == 0


def test_pi_ring_scalar_guard():
    # the scalars are ints: from_int refuses a PAdicInt of any prime or precision
    R = pi_ring(5, 3)
    assert R.from_int(PAdicInt.from_integer(7, 5, 3).value) == R.from_int(7)
    for s in (PAdicInt.from_integer(7, 5, 3), PAdicInt.from_integer(7, 5, 2),
              PAdicInt.from_integer(7, 3, 3)):
        with pytest.raises(TypeError):
            R.from_int(s)


# ---------------------------------------------------------------------------
# splitting series and additive characters

def test_dwork_theta_low_coefficients():
    p, N = 5, 3
    R = pi_ring(p, N)
    cs = dwork_theta(p, p, N)
    assert cs[0] == R.one()
    assert cs[1] == R.pi()
    for k in range(2, p):
        # pure exp(pi X) region: c_k = pi^k / k!
        inv = pow(math.factorial(k), -1, p**N)
        assert cs[k] == R.pi() ** k * inv
    # degree p collects the cross term: pi^p/p! - pi, and pi^p = -p pi
    # turns the first summand into -pi/(p-1)!
    expected = R.pi() * (-pow(math.factorial(p - 1), -1, p**N)) - R.pi()
    assert cs[p] == expected


def test_theta_coefficients_stay_integral():
    # construction raises on any negative valuation; a deep sweep exercises
    # the digit-sum bound across many (i, j) splittings
    for p in (3, 5, 7):
        coeffs = dwork_theta(8 * p, p, 4)
        assert len(coeffs) == 8 * p + 1


def test_series_terms_used_reported():
    # the highest degree summed: M - 1, M = ceil(N p^2 / (p-1))
    assert charsum.series_terms_used(5, 3) == 18
    assert charsum.series_terms_used(7, 3) == 24
    assert charsum.series_terms_used(13, 5) == 70


def _dwork_degree_bound(p, N):
    """M = ceil(N p^2 / (p-1)): every theta coefficient from M up is 0 mod p^N."""
    return -(-N * p * p // (p - 1))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_theta_coefficients_meet_dworks_bound(p):
    # ord_p(lambda_m) >= m(p-1)/p^2, in pi-units v_pi = (p-1) ord_p
    for N in (1, 2, 3, 5, 8):
        M = _dwork_degree_bound(p, N)
        for m, coef in enumerate(dwork_theta(3 * M, p, N)):
            v = coef.pi_valuation()
            assert v is None or v * p * p >= m * (p - 1) ** 2, (p, N, m)
            # lambda_m is a Z_p multiple of pi^(m mod p-1)
            assert not any(c for i, c in enumerate(coef.residues)
                           if i != m % (p - 1)), (p, N, m)
            if m >= M:
                assert v is None, (p, N, m)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_psi_table_equals_a_longer_plain_sum(p):
    # oracle: theta(tau(c)) summed term by term to twice Dwork's degree bound
    for N in (1, 2, 3, 5, 8):
        ring, mod = pi_ring(p, N), p**N
        coeffs = dwork_theta(2 * _dwork_degree_bound(p, N) - 1, p, N)
        for c in range(p):
            tau = pow(c, p ** (N - 1), mod)
            want = ring.zero()
            for m, coef in enumerate(coeffs):
                want = want + coef * pow(tau, m, mod)
            assert additive_character(c, p, N) == want, (p, N, c)


def test_psi_gate_raises_invariant_error(monkeypatch, capsys):
    # a theta with only its constant term makes psi trivial: psi(1) == 1
    monkeypatch.setattr(charsum, "dwork_theta",
                        lambda terms, p, N: [pi_ring(p, N).one()])
    charsum._dwork_constants.cache_clear()
    try:
        with pytest.raises(InvariantError, match="nontrivial p-th root of unity"):
            additive_character(1, 5, 3)
        assert cli.main(["gauss", "-p", "5", "-N", "3", "-a", "1"]) == 4
        assert capsys.readouterr().err.startswith("error: psi(1)")
    finally:
        charsum._dwork_constants.cache_clear()


def test_wrong_pi_convention_is_not_integral():
    # documents the convention gate: if pi^(p-1) were -1 instead of -p,
    # folding pi powers would contribute no powers of p, and the degree-p
    # series coefficient pi^p/p! - pi would carry valuation v_p = -1; the
    # series could not even be assembled over the integral ring.
    p = 5
    i, j = p, 0  # the pi^p/p! term
    fold_p_powers_under_root_of_unity = 0
    v_p_of_factorials = sum((i // p**k) for k in range(1, 3)) + 0
    assert fold_p_powers_under_root_of_unity - v_p_of_factorials < 0
    # under pi^(p-1) = -p the fold supplies (i+j) // (p-1) powers of p
    assert (i + j) // (p - 1) - v_p_of_factorials >= 0


@pytest.mark.parametrize("p", [5, 7])
def test_additive_character_gates(p):
    N = 4
    R = pi_ring(p, N)
    one = R.one()
    psi1 = additive_character(1, p, N)
    assert additive_character(0, p, N) == one
    assert psi1 != one
    assert psi1**p == one
    total = R.zero()
    for c in range(p):
        total = total + additive_character(c, p, N)
    assert total == R.zero()


@pytest.mark.parametrize("p", [5, 7])
def test_additive_character_is_additive(p):
    N = 3
    for a in range(p):
        for b in range(p):
            assert additive_character(a, p, N) * additive_character(b, p, N) \
                == additive_character(a + b, p, N)


# ---------------------------------------------------------------------------
# Gauss sums

def test_gauss_sum_trivial_character():
    for p in (5, 7):
        assert gauss_sum(0, p, 3) == -pi_ring(p, 3).one()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gauss_sum_matches_element_sum(p):
    # oracle: sum over x != 0 of psi(x) tau(x)^a with pi-ring operations
    for N in (1, 3, 5):
        ring = pi_ring(p, N)
        for a in range(p - 1):
            want = ring.zero()
            for x in range(1, p):
                tau = ring.from_int(pow(x, p ** (N - 1), p**N))
                want = want + additive_character(x, p, N) * tau**a
            g = gauss_sum(a, p, N)
            assert g == want, (p, N, a)
            # a monomial in pi, at the exponent -a mod p-1
            assert not any(c for i, c in enumerate(g.residues)
                           if i != -a % (p - 1)), (p, N, a)
            assert gauss_sum(a + p - 1, p, N) == want


@pytest.mark.parametrize("p", [5, 7])
def test_gauss_norm_relation(p):
    R = pi_ring(p, 3)
    for a in range(1, p - 1):
        got = gauss_sum(a, p, 3) * gauss_sum(-a, p, 3)
        assert got == R.from_int(p * (-1) ** a)


@pytest.mark.parametrize("p", [5, 7])
def test_gauss_coboundary_equals_jacobi(p):
    field = fq_make(p, 1)
    d = p - 1
    R = pi_ring(p, 4)
    for a in range(1, d):
        for b in range(1, d):
            if (a + b) % d == 0:
                continue
            cob = gauss_coboundary(a, b, p, 4)
            jac = jacobi_sum(a, b, field, 4)
            assert cob == R.from_int(jac.residues[0])


def test_gauss_coboundary_symmetry_and_guards():
    assert gauss_coboundary(1, 2, 5, 3) == gauss_coboundary(2, 1, 5, 3)
    with pytest.raises(ValueError):
        gauss_coboundary(1, 3, 5, 3)  # a + b = 0 mod 4
    with pytest.raises(ValueError):
        gauss_coboundary(0, 1, 5, 3)


@pytest.mark.parametrize("p", [5, 7])
def test_gross_koblitz(p):
    for a in range(1, p - 1):
        rep = gross_koblitz_check(a, p, 3)
        assert rep.passed, (p, a)


@pytest.mark.parametrize("p, n", [(7, 8), (13, 5)])
def test_gross_koblitz_rhs_matches_pi_power_oracle(p, n):
    # the right-hand side as it was first written: pi^a by repeated squaring,
    # Gamma_p coerced to a ring element and multiplied through mulmod
    ring = pi_ring(p, n)
    for a in range(1, p - 1):
        arg = PAdicInt.from_integer(a * pow(p - 1, -1, ring.modulus), p, n)
        oracle = -(ring.pi() ** a * ring.from_int(gamma_p(arg).value))
        assert gross_koblitz_check(a, p, n).rhs == oracle, (p, n, a)


@pytest.mark.parametrize("p, n", [(7, 8), (13, 5)])
def test_gross_koblitz_rhs_matches_coerced_basis_vector(p, n):
    # pi^a is wrapped from an already reduced tuple; ring.element coerces
    # every coordinate and is the oracle
    ring = pi_ring(p, n)
    for a in range(1, p - 1):
        arg = PAdicInt.from_integer(a * pow(p - 1, -1, ring.modulus), p, n)
        oracle = -(ring.element([0] * a + [1] + [0] * (p - 2 - a)) * gamma_p(arg).value)
        rhs = gross_koblitz_check(a, p, n).rhs
        assert (type(rhs), rhs.residues) == (type(oracle), oracle.residues), (p, n, a)


def test_gross_koblitz_guards():
    with pytest.raises(ValueError):
        gross_koblitz_check(0, 5, 3)
    with pytest.raises(ValueError):
        gross_koblitz_check(4, 5, 3)


# ---------------------------------------------------------------------------
# Fermat point counts

FERMAT_CASES = [(5, 2, 4), (5, 4, 8), (7, 2, 8), (7, 3, 6), (13, 3, 6),
                (13, 4, 8), (9, 2, 8), (9, 4, 24), (9, 8, 16)]


@pytest.mark.parametrize("q,m,expected", FERMAT_CASES)
def test_count_fermat(q, m, expected):
    brute = count_fermat_brute(q, m)
    assert brute == expected  # frozen from the double-loop oracle
    assert count_fermat_jacobi(q, m) == brute


def double_loop_count(q, m):
    """The direct count over F_q^2, kept as the oracle of both routes."""
    field = field_for_order(q)
    powers = [x**m for x in field.elements()]
    one = field.one()
    return sum(1 for xm in powers for ym in powers if xm + ym == one)


SMALL_ORDERS = [q for q in range(2, 82) if len(prime_factors(q)) == 1]


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_count_fermat_routes_match_double_loop(q):
    for m in range(1, q):
        if (q - 1) % m == 0:
            want = double_loop_count(q, m)
            assert count_fermat_brute(q, m) == want, m
            assert count_fermat_jacobi(q, m) == want, m


def fibre_count(q, m):
    """One field power per element, kept as the oracle of count_fermat_brute."""
    field = field_for_order(q)
    fibres = Counter(x**m for x in field.elements())
    return sum(c * fibres[1 - u] for u, c in fibres.items())


@pytest.mark.parametrize("q, m", [(169, 4), (343, 3), (729, 4), (2187, 2), (4096, 3),
                                  (1009, 3), (28561, 4)])
def test_line_count_matches_one_power_per_element(q, m):
    assert count_fermat_brute(q, m) == fibre_count(q, m)


def test_count_fermat_at_3_to_the_9():
    # x^2 + y^2 = 1 has q - (-1|q) affine points; q = 3^9 = 3 mod 4, so -1
    # is not a square in F_q and the count is q + 1
    assert count_fermat_brute(19683, 2) == 19684
    assert count_fermat_jacobi(19683, 2) == 19684


def test_count_fermat_guards():
    for m in (3, 0, -2):  # -2 divides q-1 = 4 but is no exponent
        with pytest.raises(ValueError, match="divide"):
            count_fermat_brute(5, m)
        with pytest.raises(ValueError, match="divide"):
            count_fermat_jacobi(5, m)


def test_jacobi_sum_outside_z_p_exits_4(monkeypatch, capsys):
    # Frobenius fixes every J(a, b), so each lies in Z_p.  One wrong Zech
    # entry of F_81 moves five of the six sums at m = 4 off Z_p; the count
    # stops at the first, (1, 1), with exit 4 and one error line.
    field = fq_make.__wrapped__(3, 4)
    dlog, zech = field._logs
    field.__dict__["_logs"] = (dlog, zech[:5] + ((zech[5] + 1) % 80,) + zech[6:])
    precision = charsum.fermat_precision(81, 4)
    off = [(a, b) for a in range(1, 4) for b in range(a, 4)
           if any(jacobi_sum(20 * a, 20 * b, field, precision).residues[1:])]
    assert off == [(1, 1), (1, 2), (1, 3), (2, 3), (3, 3)]
    monkeypatch.setattr(charsum, "fq_make", lambda p, n: field)
    with pytest.raises(InvariantError, match=r"J\(1, 1\) over F_81 is not in Z_p"):
        count_fermat_jacobi(81, 4)
    assert cli.main(["fermat-count", "-q", "81", "-m", "4"]) == 4
    assert capsys.readouterr() == ("", "error: Jacobi sum J(1, 1) over F_81 is not in Z_p\n")
