"""Multiplicative characters, Jacobi and Gauss sums, and Fermat point counts.

Multiplicative characters are Teichmuller-valued: chi_a(x) = tau(x)^a lands
in Z_q, so Jacobi sums are computed as character convolutions at 1 in Z_q
with no auxiliary cyclotomic tower.  Gauss sums need p-th roots of unity,
which Z_p lacks; they live in the ramified ring Z_p[pi]/(pi^(p-1) + p)
(PiRing, like ZqRing a quotient.QuotientRing over Z/p^N), where Dwork's
splitting function theta(X) = exp(pi X) exp(-pi X^p) evaluated at
Teichmuller lifts yields a nontrivial additive character psi.  Only the
coefficients lambda_m of the product series are integral (the two factor
series diverge separately at these points), and Dwork's lemma,
ord_p(lambda_m) >= m(p-1)/p^2, makes every degree m >= N p^2/(p-1) vanish
mod p^N.  Each lambda_m is a Z_p multiple of pi^(m mod p-1), since
i + j = m - (p-1) j for its terms (i, j), and tau(c)^(p-1) = 1 for c != 0,
so psi(c) = sum_j S_j tau(c)^j pi^j with p-1 constants S_j fixed per
(p, N), and a Gauss sum is one pi-monomial.

Exponent convention: gauss_sum(a) = sum_x tau(x)^a psi(x), fixed so that
jacobi_sum(a, b) is literally the multiplicative coboundary
gauss_sum(a) gauss_sum(b) / gauss_sum(a+b); the Gross-Koblitz comparison
then evaluates the sum at the negated exponent.

Jacobi sums avoid per-element characters: with x = g^k and 1 - x = g^Z[k]
(the field's Zech logarithms), J(a, b) = sum over 0 < k < q-1 of
tau(g)^(ak + bZ[k]), so one pass tallies exponents and each power of a
Teichmuller lift is scaled by its tally, in one weighted sum.
char_convolution keeps the direct definition.

Fermat counting is a dual-route check.  The brute route counts the fibres
of x -> x^m in F_q with field arithmetic only, with no logs and no
Teichmuller lifts: one field power per F_p^*-line of F_q, the line's other
points scaled by the scalars s^m, since (s x)^m = s^m x^m.  The Jacobi
route forms q + sum of Jacobi sums, one O(q) Zech pass per character
pair; each sum must lie in Z_p, and the total is identified as a rational
integer through a symmetric-range lift at the precision
fermat_precision(q, m), which rules out silent wraparound.
"""

from __future__ import annotations

import math
import operator
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import accumulate, product, repeat

from .errors import InvariantError
from .gamma import gamma_p
from .gfq import FqElem, FqField, fq_make
from .quotient import QuotientElem, QuotientRing
from .residue import check_odd_prime, powmod, prime_power, scalar_multiples
from .witt_zq import ZqElem, teichmuller_int, zq_ring
from .zp_ring import PAdicInt


def field_for_order(q: int) -> FqField:
    """The canonical field with q = p^n elements."""
    return fq_make(*prime_power(q))


# ---------------------------------------------------------------------------
# multiplicative characters and Jacobi sums

class MultChar:
    """chi_a = tau^a on F_q^*: exponent a mod (q-1) against a fixed generator.

    Evaluation at 0 is 0, for the trivial character too.
    """

    __slots__ = ("field", "exponent")

    def __init__(self, field: FqField, exponent: int):
        self.field = field
        self.exponent = exponent % (field.q - 1)

    def order(self) -> int:
        q1 = self.field.q - 1
        return q1 // math.gcd(q1, self.exponent)

    def eval(self, x: FqElem, precision: int) -> ZqElem:
        if x.field != self.field:
            raise ValueError("field mismatch")
        ring = zq_ring(self.field, precision)
        if x == 0:
            return ring.zero()
        return ring.teichmuller(x**self.exponent)

    def __repr__(self):
        return f"MultChar(exponent={self.exponent} over F_{self.field.q})"


def char_convolution(chi: MultChar, chi2: MultChar, z: FqElem,
                     precision: int) -> ZqElem:
    """(chi * chi2)(z) = sum over x + y = z of chi(x) chi2(y), in Z_q."""
    if chi.field != chi2.field:
        raise ValueError("field mismatch")
    field = chi.field
    ring = zq_ring(field, precision)
    acc = ring.zero()
    for x in field.elements():
        y = z - x
        if x == 0 or y == 0:
            continue  # characters vanish at 0
        acc = acc + chi.eval(x, precision) * chi2.eval(y, precision)
    return acc


def jacobi_sum(a: int, b: int, field: FqField, precision: int) -> ZqElem:
    """(chi_a * chi_b)(1); the classical Jacobi sum when a, b, a+b != 0.

    Summed over x = g^k, 0 < k < q-1, as tau(g)^(ak + bZ[k]) with Z the
    Zech table.  Every exponent is a multiple of d = gcd(a, b, q-1), so the
    terms are powers of zeta = chi_d(g) = tau(g^d), of order (q-1)/d.
    """
    q1 = field.q - 1
    d = math.gcd(a, b, q1)
    order = q1 // d
    a, b = a // d, b // d
    zech = field.zech_table()
    counts = [0] * order
    for k in range(1, q1):
        counts[(a * k + b * zech[k]) % order] += 1
    zeta = MultChar(field, d).eval(field.generator, precision)
    powers = accumulate(repeat(zeta), operator.mul, initial=zeta.ring.one())
    return zeta.ring.weighted_sum((c, z.residues) for c, z in zip(counts, powers))


# ---------------------------------------------------------------------------
# the ramified ring Z_p[pi]/(pi^(p-1) + p)

@lru_cache(maxsize=None)
def pi_ring(p: int, precision: int) -> "PiRing":
    return PiRing(p, precision)


class PiRingElem(QuotientElem):
    """sum residues[i] * pi^i with coefficients in Z/p^N."""

    __slots__ = ()

    def is_unit(self) -> bool:
        return self.residues[0] % self.ring.p != 0

    def pi_valuation(self) -> int | None:
        """v_pi in units of 1/(p-1) of the p-adic valuation: v_pi(p) = p-1.

        The basis terms c_i pi^i have pairwise distinct valuations mod p-1,
        so the minimum over coordinates is exact.  None for the zero
        vector; values at or beyond (p-1)*N are not distinguishable from it.
        """
        best = None
        for i, c in enumerate(self.residues):
            if c:
                v = 0
                while c % self.ring.p == 0:
                    c //= self.ring.p
                    v += 1
                cand = i + self.ring.n * v
                if best is None or cand < best:
                    best = cand
        return best


class PiRing(QuotientRing):
    """Z_p[pi]/(pi^(p-1) + p) truncated at coefficient modulus p^N.

    Elements are length-(p-1) vectors over Z/p^N; multiplication folds
    degrees >= p-1 down through pi^(p-1) = -p, so pi-adic valuation is
    measured in units of 1/(p-1) of the p-adic one.
    """

    element_type = PiRingElem

    def __init__(self, p: int, precision: int):
        check_odd_prime(p)
        super().__init__(p, precision, (p,) + (0,) * (p - 2) + (1,))  # pi^(p-1) + p
        # all p^((p-1)N) elements but the p^((p-1)N - 1) in the ideal (pi)
        self.units = (p - 1) * p ** (self.n * precision - 1)

    def pi(self) -> "PiRingElem":
        return self.element([0, 1] + [0] * (self.n - 2))

    def with_precision(self, precision: int) -> "PiRing":
        return pi_ring(self.p, precision)

    def __repr__(self):
        return f"PiRing(p={self.p}, N={self.precision})"


# ---------------------------------------------------------------------------
# the splitting series and additive characters

def dwork_theta(terms: int, p: int, precision: int) -> list[PiRingElem]:
    """Coefficients 0..terms of exp(pi X) exp(-pi X^p), exactly, in the pi-ring.

    The term at (i, j), i + pj = m, is (-1)^j pi^(i+j) / (i! j!).  Writing
    pi^(i+j) = pi^rem (-p)^big, the p-power big always dominates the
    factorial valuation (a digit-sum identity), so every term reduces to an
    exact ring element; failure of that inequality would mean a
    non-integral coefficient and is a hard error.
    """
    ring = pi_ring(p, precision)
    mod = ring.modulus
    d = p - 1
    facts = [(0, 1)]  # k! = p^v * u with u a unit: (v, u mod p^N)
    for k in range(1, terms + 1):
        v, u = facts[-1]
        t = k
        while t % p == 0:
            t //= p
            v += 1
        facts.append((v, u * t % mod))
    coeffs = []
    for m in range(terms + 1):
        acc = [0] * d
        for j in range(m // p + 1):
            i = m - p * j
            big, rem = divmod(i + j, d)
            (vi, ui), (vj, uj) = facts[i], facts[j]
            if big < vi + vj:
                raise InvariantError("series coefficient is not integral")
            s = pow(p, big - vi - vj, mod) * pow(ui * uj, -1, mod) % mod
            if (j + big) % 2:
                s = -s
            acc[rem] = (acc[rem] + s) % mod
        coeffs.append(PiRingElem(ring, tuple(acc)))
    return coeffs


@lru_cache(maxsize=None)
def _dwork_constants(p: int, precision: int) -> tuple[int, ...]:
    """S_j = sum over m = j mod p-1 of the j-th coordinate of lambda_m.

    Exact mod p^N by Dwork's estimate (Koblitz, p-adic Numbers, p-adic
    Analysis, and Zeta-Functions, ch. IV; Robert, A Course in p-adic
    Analysis, ch. 7).  psi(1), the element with residues S, must still be a
    nontrivial p-th root of unity; a wrong pi-convention fails that gate.
    """
    ring = pi_ring(p, precision)
    d = p - 1
    consts = [0] * d
    for m, coef in enumerate(dwork_theta(series_terms_used(p, precision), p, precision)):
        consts[m % d] += coef.residues[m % d]
    consts = tuple(s % ring.modulus for s in consts)
    psi1, one = PiRingElem(ring, consts), ring.one()
    if psi1 == one or psi1 ** p != one:
        raise InvariantError("psi(1) is not a nontrivial p-th root of unity")
    return consts


def additive_character(c: int, p: int, precision: int) -> PiRingElem:
    """psi(c): the splitting series evaluated at the Teichmuller lift of c."""
    consts = _dwork_constants(p, precision)
    ring = pi_ring(p, precision)
    if c % p == 0:
        return ring.one()  # theta(0) = lambda_0
    mod, tau = ring.modulus, teichmuller_int(c, p, precision)
    return PiRingElem(ring, tuple(s * pow(tau, j, mod) % mod for j, s in enumerate(consts)))


def series_terms_used(p: int, precision: int) -> int:
    """The highest degree of the splitting series summed for psi at (p, N)."""
    pi_ring(p, precision)  # rejects p = 2, non-primes and N < 1 first
    return -(-precision * p * p // (p - 1)) - 1


def fermat_precision(q: int, m: int) -> int:
    """Smallest N with p^N above the wraparound bound 4 m^2 q."""
    p, _ = prime_power(q)
    bound = 4 * m * m * q
    precision = 1
    while p**precision <= bound:
        precision += 1
    return precision


# ---------------------------------------------------------------------------
# Gauss sums

def gauss_sum(a: int, p: int, precision: int) -> PiRingElem:
    """g(a) = sum over x in F_p^* of tau(x)^a psi(x), in the pi-ring.

    Prime-field case only.  Summing psi(x) = sum_j S_j tau(x)^j pi^j over x
    leaves only j = -a mod (p-1), so g(a) = (p-1) S_j pi^j.  With this
    exponent convention the Jacobi sum is exactly the multiplicative
    coboundary of g (see gauss_coboundary).
    """
    consts = _dwork_constants(p, precision)
    j = -a % (p - 1)
    residues = [0] * (p - 1)
    residues[j] = (p - 1) * consts[j] % p**precision
    return PiRingElem(pi_ring(p, precision), tuple(residues))


def gauss_coboundary(a: int, b: int, p: int, precision: int) -> PiRingElem:
    """g(a) g(b) / g(a+b), returned at the requested precision.

    g(a+b) has positive pi-valuation, so there is no ring inverse; the
    exact quotient is taken through the norm relation
    g(c) g(-c) = chi_c(-1) p, spending one internal digit on the division
    by p.  The result must equal jacobi_sum(a, b) embedded in the pi-ring.
    """
    d = p - 1
    a %= d
    b %= d
    if a == 0 or b == 0 or (a + b) % d == 0:
        raise ValueError("exponents and their sum must be nonzero mod p-1")
    work = precision + 1
    ga = gauss_sum(a, p, work)
    gb = gauss_sum(b, p, work)
    gneg = gauss_sum(-(a + b) % d, p, work)
    prod = ga * gb * gneg
    if (a + b) % 2:
        prod = -prod  # chi_{a+b}(-1) = (-1)^(a+b)
    return prod.div_exact_by_p()


GrossKoblitzReport = namedtuple("GrossKoblitzReport", "exponent lhs rhs passed")


def gross_koblitz_check(a: int, p: int, precision: int) -> GrossKoblitzReport:
    """Check sum_x tau(x)^(-a) psi(x) = -pi^a Gamma_p(a / (p-1)).

    a/(p-1) is the p-adic integer a * (p-1)^(-1); both sides are computed
    independently (series vs product formula) and compared exactly.
    """
    d = p - 1
    if not 0 < a < d:
        raise ValueError("exponent must satisfy 0 < a < p-1")
    lhs = gauss_sum(-a % d, p, precision)
    ring = pi_ring(p, precision)
    arg = PAdicInt.from_integer(a * pow(d, -1, ring.modulus), p, precision)
    # the a-th basis vector (a < p-1), already reduced, so no coordinate is coerced
    pi_a = ring.element_type(ring, (0,) * a + (1,) + (0,) * (d - 1 - a))
    rhs = -(pi_a * gamma_p(arg).value)
    return GrossKoblitzReport(a, lhs, rhs, lhs == rhs)


# ---------------------------------------------------------------------------
# Fermat curve point counts

def _fermat_field(q: int, m: int) -> FqField:
    """F_q, once the exponent m is checked to be a positive divisor of q-1."""
    field = field_for_order(q)
    if m < 1 or (q - 1) % m:
        raise ValueError("m must be >= 1 and divide q-1")
    return field


def count_fermat_brute(q: int, m: int) -> int:
    """Affine solutions of x^m + y^m = 1 in F_q^2: sum of c(u) c(1-u).

    c(u) counts the x with x^m = u, with field arithmetic only, no logs and
    no Teichmuller lifts, so this route shares nothing with the Jacobi one.
    F_q^* is the disjoint union of its (q-1)/(p-1) lines F_p^* r, one per
    representative r whose highest nonzero coefficient is 1, and
    (s r)^m = s^m r^m for a scalar s: each r^m is one field power, and the
    other p - 2 points of its line scale it by s^m.  Every x is still
    visited once, as s r or as 0.
    """
    field = _fermat_field(q, m)
    p, n, f = field.p, field.n, field.relation
    reps = (low + (1,) + (0,) * (n - 1 - top)
            for top in range(n) for low in product(range(p), repeat=top))
    powers = [powmod(r, m, f, p) for r in reps]  # the points s r with s = 1
    fibres = Counter(powers + scalar_multiples(powers, [pow(s, m, p) for s in range(2, p)], p))
    fibres[(0,) * n] += 1  # x = 0
    return sum(c * fibres[(1 - FqElem(field, u)).coeffs] for u, c in fibres.items())


def count_fermat_jacobi(q: int, m: int) -> int:
    """The same count through q + sum of Jacobi sums of order-m characters.

    The double sum runs over all (m-1)^2 pairs, but J(a, b) = J(b, a)
    (substitute x -> 1 - x), so only the m(m-1)/2 sums with a <= b are
    formed, each one O(q) pass over the Zech table, and each one with
    a < b counts twice.  Each J(a, b) lies in Z_p: Frobenius maps it to
    J(pa, pb), which is J(a, b) again since x -> x^p permutes F_q and
    (1 - x)^p = 1 - x^p.  So a J(a, b) with a nonzero residue off the
    constant term raises InvariantError naming (a, b).  The sum of the
    constant terms is a rational integer, recovered by the symmetric-range
    lift, which needs p^N > 4 m^2 q so the archimedean bound
    (m-1)^2 sqrt(q) can never wrap: N is always fermat_precision(q, m),
    the smallest such precision.
    """
    field = _fermat_field(q, m)
    precision = fermat_precision(q, m)
    modulus = field.p**precision
    step = (q - 1) // m
    total = 0
    for a in range(1, m):
        for b in range(a, m):
            j = jacobi_sum(a * step, b * step, field, precision).residues
            if any(j[1:]):
                raise InvariantError(f"Jacobi sum J({a}, {b}) over F_{q} is not in Z_p")
            total += (1 if a == b else 2) * j[0]
    v = total % modulus
    if v > modulus // 2:
        v -= modulus
    return q + v
