"""Exact arithmetic in F_p and its extensions F_q, q = p^n.

Elements live in the polynomial basis: an FqElem is a length-n coefficient
vector over F_p reduced modulo a fixed monic irreducible polynomial.  That
is the shape of quotient.QuotientRing at precision 1, so an FqField is one,
with the polynomial as its relation and q - 1 units, and FqElem adds to
QuotientElem only Frobenius (zero is == 0); the field needs no
with_precision, and the discrete log is the field's, FqField.dlog.
x ** -1 is x^(q-2), the base's unit inverse, so the inverse of zero raises
"not a unit" as in Z_q and the pi-ring.  In arithmetic an int k, like
from_int(k), is the constant k mod p, as in every quotient ring; a scalar
that is no int raises TypeError, so F_q depends on nothing of Z/p^N.  The
primality helpers and all F_p[X] arithmetic come from residue: Rabin's
irreducibility test runs on residue.powmod, with no gcd.

The one constructor is FqField(p, n), and it runs the canonical search:
the lexicographically smallest irreducible modulus (coefficients compared
constant term first), so repeated runs always build the identical field.
The generator, the smallest when coefficient vectors are read as base-p
integers, and the discrete and Zech log tables are built on first read.
fq_make caches FqField(p, n): fields compare by identity.

Fields are capped at q <= 2^20: discrete logs and Zech logarithms are table
lookups and several verification sweeps are exhaustive, so everything must
fit in memory.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .errors import InvariantError
from .quotient import QuotientElem, QuotientRing
from .residue import is_prime, mulmod, powmod, prime_factors, scalar_multiples

Q_CAP = 1 << 20


# ---------------------------------------------------------------------------
# irreducibility over F_p (dense little-endian coefficient lists)

def _is_irreducible(modulus, p):
    """Rabin test for a monic polynomial over F_p, through kernel powers.

    X^(p^n) must reduce to X mod the candidate f.  Then (Z/p)[X]/(f) is a
    product of fields F_(p^d) with d | n, where u is a unit exactly when
    u^(p^n - 1) = 1; so f shares no root with X^(p^(n/l)) - X, for each
    prime l | n, exactly when that difference is a unit mod f.
    """
    n = len(modulus) - 1
    if n == 1:
        return True
    x = (0, 1) + (0,) * (n - 2)
    if powmod(x, p**n, modulus, p) != x:
        return False
    one = (1,) + (0,) * (n - 1)
    for l in prime_factors(n):
        xp = powmod(x, p ** (n // l), modulus, p)
        diff = tuple((u - v) % p for u, v in zip(xp, x))
        if powmod(diff, p**n - 1, modulus, p) != one:
            return False
    return True


def _smallest_irreducible(p: int, n: int) -> tuple:
    """The canonical relation: the first irreducible t^n + c_{n-1} t^{n-1} + ... + c_0.

    Candidates are scanned in lexicographic order of (c_0, ..., c_{n-1}).
    Degree-1 fields use t itself, so F_p elements are plain residues.
    """
    if n == 1:
        return (0, 1)
    # c_0 = 0 makes the candidate divisible by t, so those are skipped
    for tail in itertools.product(range(1, p), *[range(p)] * (n - 1)):
        candidate = tail + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise InvariantError("no irreducible polynomial found")  # cannot happen


# ---------------------------------------------------------------------------

class FqElem(QuotientElem):
    """An element of an FqField: length-n coefficient tuple over F_p."""

    __slots__ = ()

    field = QuotientElem.ring
    coeffs = QuotientElem.residues

    def frobenius(self) -> "FqElem":
        """x -> x^p, the generating automorphism over F_p."""
        return self ** self.field.p


class FqField(QuotientRing):
    """The finite field F_{p^n} = (Z/p)[t]/(relation), in polynomial basis.

    FqField(p, n) is the one constructor: it checks p, n and Q_CAP and runs
    the canonical search for the relation.  The generator, the first
    nonzero element of elements() of multiplicative order exactly q - 1,
    and the log tables are built on first read.
    """

    element_type = FqElem

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise ValueError("not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**n
        if q > Q_CAP:
            raise ValueError("field too large")
        super().__init__(p, 1, _smallest_irreducible(p, n))
        self.q = q
        self.units = q - 1

    def _is_generator(self, g: FqElem) -> bool:
        """Order exactly q - 1, for g nonzero: g^(q-1) = 1 holds in a field."""
        return all(g ** ((self.q - 1) // l) != self.one()
                   for l in prime_factors(self.q - 1))

    @cached_property
    def generator(self) -> FqElem:
        for g in itertools.islice(self.elements(), 1, None):
            if self._is_generator(g):
                return g
        raise InvariantError("no generator found")  # impossible: F_q^* is cyclic

    def elements(self):
        """All q elements, in base-p integer order: element k has base-p digits k."""
        # product varies its last place fastest; coefficient 0 is the lowest digit
        for digits in itertools.product(range(self.p), repeat=self.n):
            yield FqElem(self, digits[::-1])

    # -- discrete and Zech logarithms ------------------------------------
    @cached_property
    def _logs(self) -> tuple:
        """(dlog dict, Zech table), both filled by one walk over g^e, e < q-1.

        The walk goes one F_p^*-line at a time.  x -> x^L, L = (q-1)/(p-1),
        is the norm x x^p ... x^(p^(n-1)) from F_q to F_p (Lidl-Niederreiter,
        Finite Fields, ch. 2), so c = g^L is a scalar: c^(p-1) = g^(q-1) = 1,
        and the p - 1 roots of X^(p-1) - 1 in F_q are F_p^*.  c generates
        F_p^*, since g has order q - 1, and g^(jL+k) = c^j g^k: only the L
        powers g^0 .. g^(L-1) of the first line are field products, and
        every other line scales their coefficients by c^j.
        -1 = c^((p-1)/2) (1 = c^0 at p = 2), so 1 - g^e = g^(e+h) + 1 with
        h = L (p-1)/2, and each Zech key is a stored power plus 1.  A walk
        that meets fewer than q - 1 distinct powers, or a g^L that is no
        scalar, means the generator or the field is wrong: InvariantError.
        """
        p, f, g, q1 = self.p, self.relation, self.generator.coeffs, self.q - 1
        lines = q1 // (p - 1)
        powers = [self.one().coeffs]
        for _ in range(lines - 1):
            powers.append(mulmod(powers[-1], g, f, p))
        c = mulmod(powers[-1], g, f, p)
        if any(c[1:]) or not c[0]:
            raise InvariantError("generator power g^((q-1)/(p-1)) is not in F_p^*")
        # c^1 .. c^(p-2), the scalars of the other lines; none at p = 2
        scalars = itertools.accumulate(itertools.repeat(c[0], p - 2), lambda s, t: s * t % p)
        powers += scalar_multiples(powers, list(scalars), p)
        dlog = dict(zip(powers, range(q1)))
        if len(dlog) != q1:
            raise InvariantError("generator powers repeat before q - 1")
        # e = 0 meets g^h = -1, and 1 - 1 = 0 has no log: None
        h = lines * ((p - 1) // 2)
        zech = [dlog.get(((w[0] + 1) % p,) + w[1:]) for w in powers[h:] + powers[:h]]
        return dlog, tuple(zech)

    def dlog(self, x: FqElem) -> int:
        """Exponent e with generator^e = x; table built on first use."""
        if x == 0:
            raise ValueError("log of zero")
        return self._logs[0][x.coeffs]

    def zech_table(self) -> tuple:
        """Z with g^Z[k] = 1 - g^k for 0 < k < q-1; Z[0] is None (1 - 1 = 0)."""
        return self._logs[1]

    def __repr__(self):
        return f"FqField(p={self.p}, n={self.n}, relation={list(self.relation)})"


@lru_cache(maxsize=None)
def fq_make(p: int, n: int) -> FqField:
    """The canonical F_{p^n}, built once per (p, n): fields compare by identity."""
    return FqField(p, n)
