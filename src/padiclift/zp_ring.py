"""Truncated arithmetic in Z/p^N, and its sum built digit by digit.

A PAdicInt stores its residue as one int value in [0, p^N) and the
precision N; from_integer builds it, value is the one read of the
residue, and digits its read-only little-endian base-p view.  Operations
propagate the minimum precision of their operands and read an int operand
mod p^N; exact division by p costs one digit.  == never reduces: a
PAdicInt equals the int k only when k is its value, and hashes as k.
F_q, Z_q and the pi-ring take ints only: a PAdicInt enters as its value.

Every operation works on the int value.  The digits and their carries
appear in one named operation, cocycle_sum: the schoolbook sum whose every
carry into an output digit is a sum of two values of carry_cocycle, the
2-cocycle that glues Z/p^2 out of two copies of Z/p.  It reads the digits
by divmod on the two values and adds each output digit into an int at its
place value p^i.  The carry out of the top digit would leave Z/p^N, so it
is never formed.  The carry suite checks the sum against + exhaustively.
"""

from __future__ import annotations

from .errors import InvariantError, PrecisionError
from .residue import is_prime, to_digits


def carry_cocycle(x: int, y: int, p: int) -> int:
    """Carry out of adding two digits: 1 if x + y >= p else 0.

    This is the section defect [ (j(x)+j(y)) - j(x +_p y) ] / p for the
    standard section j: Z/p -> {0, ..., p-1}.
    """
    if not 0 <= x < p or not 0 <= y < p:
        raise ValueError("digit out of range")
    return 1 if x + y >= p else 0


class PAdicInt:
    """A residue mod p^N: an int value in [0, p^N) and its precision N."""

    __slots__ = ("p", "value", "precision")

    @classmethod
    def from_integer(cls, k: int, p: int, precision: int) -> "PAdicInt":
        if precision < 1:
            raise PrecisionError("precision must be >= 1")
        if not is_prime(p):
            raise ValueError("not prime")
        return _unchecked(p, k % p**precision, precision)

    @property
    def digits(self) -> tuple:
        """The precision little-endian base-p digits (a read-only view)."""
        return to_digits(self.value, self.p, self.precision)

    @property
    def modulus(self) -> int:
        return self.p**self.precision

    # -- arithmetic -----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, PAdicInt):
            if other.p != self.p:
                raise ValueError("prime mismatch")
            return other
        if isinstance(other, int):
            return _unchecked(self.p, other % self.modulus, self.precision)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.precision, o.precision)
        return _unchecked(self.p, (self.value + o.value) % self.p**n, n)

    __radd__ = __add__

    def __neg__(self):
        return _unchecked(self.p, -self.value % self.modulus, self.precision)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.precision, o.precision)
        return _unchecked(self.p, (self.value - o.value) % self.p**n, n)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.precision, o.precision)
        return _unchecked(self.p, self.value * o.value % self.p**n, n)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.unit_inverse() ** (-e)
        return _unchecked(self.p, pow(self.value, e, self.modulus), self.precision)

    # -- unit and divisibility structure --------------------------------
    def is_unit(self) -> bool:
        return self.value % self.p != 0

    def unit_inverse(self) -> "PAdicInt":
        """Multiplicative inverse mod p^N; the operand must be a unit."""
        if not self.is_unit():
            raise ValueError("not a unit")
        return _unchecked(self.p, pow(self.value, -1, self.modulus), self.precision)

    def div_exact_by_p(self) -> "PAdicInt":
        """Shift digits down one place; only defined when digit 0 is zero."""
        if self.precision == 1:
            raise PrecisionError("precision exhausted")
        if self.value % self.p:
            raise ValueError("not divisible")
        return _unchecked(self.p, self.value // self.p, self.precision - 1)

    def truncate(self, precision: int) -> "PAdicInt":
        if not 1 <= precision <= self.precision:
            raise PrecisionError("cannot truncate to that precision")
        return _unchecked(self.p, self.value % self.p**precision, precision)

    # -- misc ------------------------------------------------------------
    def __eq__(self, other):
        if type(other) is not PAdicInt:  # the exact type first: the hot path
            if isinstance(other, int):
                return self.value == other
            if not isinstance(other, PAdicInt):
                return NotImplemented
        return (self.value == other.value and self.p == other.p
                and self.precision == other.precision)

    def __hash__(self):
        # equal only to the int value it holds, so it hashes as that int
        return hash(self.value)

    def __repr__(self):
        return f"PAdicInt({self.value} mod {self.p}^{self.precision})"


def _unchecked(p: int, value: int, precision: int) -> PAdicInt:
    """A PAdicInt from a prime p, precision >= 1 and value in [0, p^precision)."""
    x = object.__new__(PAdicInt)
    x.p = p
    x.value = value
    x.precision = precision
    return x


def cocycle_sum(x: PAdicInt, y: PAdicInt) -> PAdicInt:
    """The cocycle-twisted sum that presents Z/p^N as an iterated extension
    of F_p: digits add in F_p and the carry into each digit is a sum of two
    values of carry_cocycle.  It equals x + y at the smaller precision n.

    Digits 0..n-2 walk through carry_cocycle; the top digit is one sum mod
    p, since the carry out of it would leave Z/p^n and is never formed.
    """
    if x.p != y.p:
        raise ValueError("prime mismatch")
    p = x.p
    n = x.precision if x.precision < y.precision else y.precision
    u, v = x.value, y.value
    total, place, carry = 0, 1, 0
    for _ in range(n - 1):
        u, a = divmod(u, p)
        v, b = divmod(v, p)
        s = (a + b) % p
        total += (s + carry) % p * place
        place *= p
        # never both 1: a + b + carry < 2p
        carry = carry_cocycle(a, b, p) + carry_cocycle(s, carry, p)
    # u and v are the top digits mod p; any digits past n sit above them
    return _unchecked(p, total + (u + v + carry) % p * place, n)


def buium_carry(x: PAdicInt, y: PAdicInt) -> PAdicInt:
    """The universal carry polynomial C_p(x, y) = [x^p + y^p - (x+y)^p] / p.

    Evaluated exactly over unbounded integers on the canonical
    representatives, then reduced: (x+y)^p would overflow any fixed word,
    and the binomial coefficients C(p, k), 0 < k < p, supply the factor of
    p that makes the division exact.  Output precision drops by one.
    """
    if x.p != y.p:
        raise ValueError("prime mismatch")
    n = min(x.precision, y.precision)
    if n < 2:
        raise PrecisionError("insufficient precision")
    p = x.p
    a = x.value % p**n
    b = y.value % p**n
    num = a**p + b**p - (a + b) ** p
    if num % p:
        raise InvariantError("carry polynomial is not divisible by p")
    return _unchecked(p, num // p % p ** (n - 1), n - 1)
