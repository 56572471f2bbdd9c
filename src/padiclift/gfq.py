"""Exact arithmetic in F_p and its extensions F_q, q = p^n.

Elements live in the polynomial basis: an FqElem is a length-n coefficient
vector over F_p reduced modulo a fixed monic irreducible polynomial.  That
is the shape of quotient.QuotientRing at precision 1, so an FqField is one,
with the polynomial as its relation and q - 1 units, and FqElem adds to
QuotientElem only what a field has beyond it: inverse and division,
Frobenius and the discrete log.  An int scalar k is the constant k mod p;
FqField.from_int(k) is the element whose coefficients are the base-p
digits of k.  The primality helpers come from residue.

The canonical field returned by fq_make uses the lexicographically
smallest irreducible modulus (coefficients compared constant term first)
and the smallest generator when coefficient vectors are read as base-p
integers, so repeated runs always build the identical field, and fq_make
caches it: fields compare by identity.

Fields are capped at q <= 2^20: discrete logs and Zech logarithms are table
lookups and several verification sweeps are exhaustive, so everything must
fit in memory.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import InvariantError
from .quotient import QuotientElem, QuotientRing
from .residue import from_digits, is_prime, mulmod, powmod, prime_factors, to_digits

Q_CAP = 1 << 20


# ---------------------------------------------------------------------------
# irreducibility over F_p (dense little-endian coefficient lists)

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pgcd(a, b, p):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        r = a[:]
        while len(r) >= len(b):
            f = r[-1] * inv % p
            off = len(r) - len(b)
            for i in range(len(b)):
                r[off + i] = (r[off + i] - f * b[i]) % p
            _ptrim(r)
            if not r:
                break
        a, b = b, r
    return a


def _is_irreducible(modulus, p):
    """Rabin test for a monic polynomial over F_p.

    X^(p^n) must reduce to X mod the candidate, and for every prime l | n
    the candidate must share no root with X^(p^(n/l)) - X.
    """
    n = len(modulus) - 1
    if n == 1:
        return True
    x = (0, 1) + (0,) * (n - 2)
    if powmod(x, p**n, modulus, p) != x:
        return False
    for l in prime_factors(n):
        xp = powmod(x, p ** (n // l), modulus, p)
        diff = [(u - v) % p for u, v in zip(xp, x)]
        if len(_pgcd(modulus, diff, p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------

class FqElem(QuotientElem):
    """An element of an FqField: length-n coefficient tuple over F_p."""

    __slots__ = ()

    field = QuotientElem.ring
    coeffs = QuotientElem.residues

    # tracer shims, see ZqElem: one function object per span name
    def __add__(self, other):
        return QuotientElem.__add__(self, other)

    def __sub__(self, other):
        return QuotientElem.__sub__(self, other)

    def __mul__(self, other):
        return QuotientElem.__mul__(self, other)

    def __pow__(self, e: int):
        return QuotientElem.__pow__(self, e)

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def inverse(self) -> "FqElem":
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        return self ** (self.field.q - 2)

    unit_inverse = inverse  # x ** -k goes through it, so zero raises ZeroDivisionError

    def frobenius(self) -> "FqElem":
        """x -> x^p, the generating automorphism over F_p."""
        return self ** self.field.p

    def discrete_log(self) -> int:
        return self.field.dlog(self)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_unit(self) -> bool:
        return not self.is_zero()

    def to_int(self) -> int:
        return from_digits(self.coeffs, self.field.p)


class FqField(QuotientRing):
    """The finite field F_{p^n} = (Z/p)[t]/(relation), in polynomial basis.

    The quotient ring at precision 1: units = q - 1, and the arithmetic,
    coercion and equality are quotient.QuotientElem's.  The relation is
    validated to be monic irreducible and the generator to have
    multiplicative order exactly q - 1.
    """

    element_type = FqElem

    def __init__(self, p: int, n: int, relation, generator=None):
        if not is_prime(p):
            raise ValueError("not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**n
        if q > Q_CAP:
            raise ValueError("field too large")
        relation = tuple(int(c) % p for c in relation)
        if len(relation) != n + 1 or relation[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        if not _is_irreducible(relation, p):
            raise ValueError("modulus is reducible")
        super().__init__(p, 1, relation)
        self.q = q
        self.units = q - 1
        self._dlog = None
        self._zech = None
        if generator is None:
            generator = self._find_generator()
        else:
            generator = self.element(generator)
            if not self._is_generator(generator):
                raise ValueError("generator does not have order q-1")
        self.generator = generator

    def _is_generator(self, g: FqElem) -> bool:
        if g.is_zero():
            return False
        if g ** (self.q - 1) != self.one():
            return False
        return all(g ** ((self.q - 1) // l) != self.one()
                   for l in prime_factors(self.q - 1))

    def _find_generator(self) -> FqElem:
        for k in range(1, self.q):
            g = self.from_int(k)
            if self._is_generator(g):
                return g
        raise InvariantError("no generator found")  # impossible: F_q^* is cyclic

    def from_int(self, k: int) -> FqElem:
        """Element whose coefficient vector is k written in base p."""
        return FqElem(self, to_digits(k, self.p, self.n))

    def elements(self):
        """All q elements, in base-p integer order: element k is from_int(k)."""
        # product varies its last place fastest; coefficient 0 is the lowest digit
        for digits in itertools.product(range(self.p), repeat=self.n):
            yield FqElem(self, digits[::-1])

    # -- discrete and Zech logarithms ------------------------------------
    def _log_tables(self) -> None:
        """One walk over g^k, k < q-1, fills the dlog and the Zech table."""
        p, f, g = self.p, self.relation, self.generator.coeffs
        powers = [self.one().coeffs]
        for _ in range(self.q - 2):
            powers.append(mulmod(powers[-1], g, f, p))
        dlog = {c: e for e, c in enumerate(powers)}
        # 1 - g^k on coefficient vectors; k = 0 gives 0, which has no log
        zech = [None] * (self.q - 1)
        for k in range(1, self.q - 1):
            c = powers[k]
            zech[k] = dlog[((1 - c[0]) % p,) + tuple(-x % p for x in c[1:])]
        self._dlog = dlog
        self._zech = tuple(zech)

    def dlog(self, x: FqElem) -> int:
        """Exponent e with generator^e = x; table built on first use."""
        if x.is_zero():
            raise ValueError("log of zero")
        if self._dlog is None:
            self._log_tables()
        return self._dlog[x.coeffs]

    def zech_table(self) -> tuple:
        """Z with g^Z[k] = 1 - g^k for 0 < k < q-1; Z[0] is None (1 - 1 = 0)."""
        if self._zech is None:
            self._log_tables()
        return self._zech

    def __repr__(self):
        return f"FqField(p={self.p}, n={self.n}, relation={list(self.relation)})"


@lru_cache(maxsize=None)
def fq_make(p: int, n: int) -> FqField:
    """The canonical F_{p^n}: smallest irreducible modulus, smallest generator.

    Degree-1 fields use the modulus t itself, so F_p elements are plain
    residues.  Moduli are scanned in lexicographic order of
    (c_0, ..., c_{n-1}) for t^n + c_{n-1} t^{n-1} + ... + c_0.
    """
    if not is_prime(p):
        raise ValueError("not prime")
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    if p**n > Q_CAP:
        raise ValueError("field too large")
    if n == 1:
        return FqField(p, 1, (0, 1))
    # c_0 = 0 makes the candidate divisible by t, so those are skipped
    for tail in itertools.product(range(1, p), *[range(p)] * (n - 1)):
        candidate = tail + (1,)
        if _is_irreducible(candidate, p):
            return FqField(p, n, candidate)
    raise InvariantError("no irreducible polynomial found")  # cannot happen


def frobenius(x: FqElem) -> FqElem:
    return x.frobenius()


def discrete_log(x: FqElem) -> int:
    return x.discrete_log()
