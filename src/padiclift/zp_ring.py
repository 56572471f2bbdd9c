"""Truncated arithmetic in Z/p^N, and its sum built digit by digit.

A PAdicInt stores its residue as one int value in [0, p^N) together with
the precision N, so the value is known exactly mod p^N.  Its little-endian
base-p digits are a read-only view (digits).  Binary operations propagate
the minimum precision of their operands, and exact division by p costs one
digit of precision.

Every operation works on the int value.  The digits and their carries
appear in one named operation, cocycle_sum: the schoolbook sum whose every
carry is a value of carry_cocycle, the 2-cocycle that glues Z/p^2 out of
two copies of Z/p.  It reads the digits by divmod on the two values and
adds each output digit into an int at its place value p^i.  The carry
suite checks it against + exhaustively.

Canonical text form (CLI interchange): "p=5;N=3;digits=2,1,0".
"""

from __future__ import annotations

import re

from .errors import InvariantError, PrecisionError
from .residue import from_digits, is_prime, to_digits

_INT_RE = re.compile(r"-?[0-9]+")


def int_exact(token: str) -> int:
    """Integer parse with no whitespace or sign sloppiness inside fields."""
    if not _INT_RE.fullmatch(token):
        raise ValueError(f"malformed integer {token!r}")
    return int(token)


def parse_fields(text: str, keys: tuple[str, ...]) -> dict[str, str]:
    """The "key=value" fields of a ';'-separated text form; exactly keys."""
    parts = text.strip().split(";")
    if len(parts) != len(keys):
        raise ValueError(f"expected {len(keys)} ';'-separated fields")
    fields = {}
    for part in parts:
        key, eq, val = part.partition("=")
        if not eq:
            raise ValueError(f"malformed field {part!r}")
        fields[key] = val
    if set(fields) != set(keys):
        raise ValueError(f"expected fields {', '.join(keys)}")
    return fields


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

    def __init__(self, p: int, digits):
        """The residue with the given little-endian base-p digits."""
        digits = tuple(digits)
        if not is_prime(p):
            raise ValueError("not prime")
        if len(digits) < 1:
            raise PrecisionError("precision must be >= 1")
        if any(not 0 <= d < p for d in digits):
            raise ValueError("digit out of range")
        self.p = p
        self.value = from_digits(digits, p)
        self.precision = len(digits)

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
                return self.value == other % self.modulus
            if not isinstance(other, PAdicInt):
                return NotImplemented
        return (self.value == other.value and self.p == other.p
                and self.precision == other.precision)

    def __hash__(self):
        # equal to the hash of the int in [0, p^N) that compares equal
        return hash(self.value)

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"PAdicInt({self.value} mod {self.p}^{self.precision})"

    def to_text(self) -> str:
        digits = ",".join(str(d) for d in self.digits)
        return f"p={self.p};N={self.precision};digits={digits}"


def _unchecked(p: int, value: int, precision: int) -> PAdicInt:
    """A PAdicInt from a prime p, precision >= 1 and value in [0, p^precision)."""
    x = object.__new__(PAdicInt)
    x.p = p
    x.value = value
    x.precision = precision
    return x


def cocycle_sum(x: PAdicInt, y: PAdicInt) -> PAdicInt:
    """The cocycle-twisted sum that presents Z/p^N as an iterated extension
    of F_p: digits add in F_p and every carry is a value of carry_cocycle.
    It equals x + y at the smaller precision.
    """
    if x.p != y.p:
        raise ValueError("prime mismatch")
    p = x.p
    n = min(x.precision, y.precision)
    u, v = x.value, y.value
    total, place, carry = 0, 1, 0
    for _ in range(n):
        u, a = divmod(u, p)
        v, b = divmod(v, p)
        s = (a + b) % p
        total += (s + carry) % p * place
        place *= p
        # never both 1: a + b + carry < 2p
        carry = carry_cocycle(a, b, p) + carry_cocycle(s, carry, p)
    return _unchecked(p, total, n)


def from_integer(k: int, p: int, precision: int) -> PAdicInt:
    return PAdicInt.from_integer(k, p, precision)


def scalar_residue(x, p: int, precision: int) -> int:
    """An int or PAdicInt scalar as a residue mod p^precision.

    The one coercion rule of the rings over Z/p^N: a PAdicInt of another
    prime raises ValueError, one known to fewer digits than the ring's
    precision raises PrecisionError, and one known to more is reduced.
    """
    if isinstance(x, PAdicInt):
        if x.p != p:
            raise ValueError("prime mismatch")
        if x.precision < precision:
            raise PrecisionError("scalar carries too little precision")
        x = x.value
    return int(x) % p**precision


def parse_padic(text: str) -> PAdicInt:
    """Parse the canonical text form "p=5;N=3;digits=2,1,0" (exact grammar)."""
    fields = parse_fields(text, ("p", "N", "digits"))
    p = int_exact(fields["p"])
    n = int_exact(fields["N"])
    digits = [int_exact(d) for d in fields["digits"].split(",")]
    if len(digits) != n:
        raise ValueError("digit count does not match N")
    return PAdicInt(p, digits)


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
