"""Z/p^N as the degree-1 quotient ring, and its sum built digit by digit.

Z/p^N is (Z/p^N)[X]/(X), F_p deformed over Z/p^N: the n = 1 case of the
quotient.QuotientRing that F_q, Z_q and the pi-ring share.  A PAdicInt is
an element of that ring, one residue in [0, p^N); from_integer builds it,
value is the one read of the residue, and digits its read-only
little-endian base-p view.  Arithmetic, coercion, equality, hashing, the
inverse, exact division by p and truncation are the base's: an int operand
is read mod p^N, a PAdicInt of another prime or precision raises "ring
mismatch", and == never reduces.  F_q, Z_q and the pi-ring take ints
only: a PAdicInt enters as its value.

The digits and their carries appear in one named operation, cocycle_sum:
the schoolbook sum whose every carry into an output digit is a sum of two
values of carry_cocycle, the 2-cocycle that glues Z/p^2 out of two copies
of Z/p.  It reads the digits by divmod on the two residues and adds each
output digit into an int at its place value p^i.  The carry out of the top
digit would leave Z/p^N, so it is never formed.  The carry suite checks
the sum against + exhaustively.

buium_carry is the one place the universal carry polynomial C_p is
written, for two elements of any one quotient ring (buium.ring_carry is
the same call on Z_q); its errors are the base's.  cocycle_sum takes two
PAdicInts of one ring: TypeError for any other element.
"""

from __future__ import annotations

from functools import lru_cache

from .quotient import QuotientElem, QuotientRing
from .residue import is_prime, to_digits


def carry_cocycle(x: int, y: int, p: int) -> int:
    """Carry out of adding two digits: 1 if x + y >= p else 0.

    This is the section defect [ (j(x)+j(y)) - j(x +_p y) ] / p for the
    standard section j: Z/p -> {0, ..., p-1}.
    """
    if not 0 <= x < p or not 0 <= y < p:
        raise ValueError("digit out of range")
    return 1 if x + y >= p else 0


@lru_cache(maxsize=None)
def _zp_ring(p: int, precision: int) -> "_ZpRing":
    return _ZpRing(p, precision)


class PAdicInt(QuotientElem):
    """A residue mod p^N: the element of the degree-1 ring Z/p^N."""

    __slots__ = ()

    @classmethod
    def from_integer(cls, k: int, p: int, precision: int) -> "PAdicInt":
        return _zp_ring(p, precision).from_int(k)

    @property
    def value(self) -> int:
        return self.residues[0]

    @property
    def digits(self) -> tuple:
        """The precision little-endian base-p digits (a read-only view)."""
        return to_digits(self.residues[0], self.ring.p, self.ring.precision)


class _ZpRing(QuotientRing):
    """Z/p^N as (Z/p^N)[X]/(X); one object per (p, N), built by _zp_ring."""

    element_type = PAdicInt

    def __init__(self, p: int, precision: int):
        super().__init__(p, precision, (0, 1))  # the precision is checked first
        if not is_prime(p):
            raise ValueError("not prime")
        self.units = (p - 1) * p ** (precision - 1)

    def with_precision(self, precision: int) -> "_ZpRing":
        return _zp_ring(self.p, precision)

    def __repr__(self):
        return f"ZpRing(p={self.p}, N={self.precision})"


def cocycle_sum(x: PAdicInt, y: PAdicInt) -> PAdicInt:
    """The cocycle-twisted sum that presents Z/p^N as an iterated extension
    of F_p: digits add in F_p and the carry into each digit is a sum of two
    values of carry_cocycle.  It equals x + y.

    Digits 0..N-2 walk through carry_cocycle; the top digit is one sum mod
    p, since the carry out of it would leave Z/p^N and is never formed.
    """
    if type(x) is not PAdicInt or type(y) is not PAdicInt:
        raise TypeError("cocycle_sum adds two elements of Z/p^N")
    ring = x.ring
    if y.ring is not ring:
        raise ValueError("ring mismatch")
    p = ring.p
    u, v = x.residues[0], y.residues[0]
    total, place, carry = 0, 1, 0
    for _ in range(ring.precision - 1):
        u, a = divmod(u, p)
        v, b = divmod(v, p)
        s = (a + b) % p
        total += (s + carry) % p * place
        place *= p
        # never both 1: a + b + carry < 2p
        carry = carry_cocycle(a, b, p) + carry_cocycle(s, carry, p)
    # u and v are now the top digits
    return PAdicInt(ring, (total + (u + v + carry) % p * place,))


def buium_carry(x: QuotientElem, y: QuotientElem) -> QuotientElem:
    """The universal carry polynomial C_p(x, y) = [x^p + y^p - (x+y)^p] / p.

    Evaluated with the ring operations of x and y, so in Z/p^N and Z_q
    alike; the binomial coefficients C(p, k), 0 < k < p, supply the factor
    of p that makes the division exact.  Output precision drops by one; the
    errors are the base's ("ring mismatch", "insufficient precision").
    """
    p = x.ring.p
    return (x**p + y**p - (x + y) ** p).div_exact_by_p()
