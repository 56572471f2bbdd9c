"""Truncated arithmetic in Z/p^N with explicit base-p digits and carries.

A PAdicInt stores its residue as a little-endian digit vector; the precision
N is the digit count, so the value is known exactly mod p^N.  Binary
operations propagate the minimum precision of their operands, and exact
division by p shifts digits down at the cost of one digit of precision.

Addition walks the digits schoolbook-style, and every carry it emits is a
value of carry_cocycle: the carry function is exactly the 2-cocycle that
glues Z/p^2 out of two copies of Z/p, which several verification suites
check exhaustively.

Canonical text form (CLI interchange): "p=5;N=3;digits=2,1,0".
"""

from __future__ import annotations

import re

from .errors import PrecisionError
from .gfq import is_prime
from .residue import from_digits, to_digits

_INT_RE = re.compile(r"-?[0-9]+")


def int_exact(token: str) -> int:
    """Integer parse with no whitespace or sign sloppiness inside fields."""
    if not _INT_RE.fullmatch(token):
        raise ValueError(f"malformed integer {token!r}")
    return int(token)


def carry_cocycle(x: int, y: int, p: int) -> int:
    """Carry out of adding two digits: 1 if x + y >= p else 0.

    This is the section defect [ (j(x)+j(y)) - j(x +_p y) ] / p for the
    standard section j: Z/p -> {0, ..., p-1}.
    """
    if not 0 <= x < p or not 0 <= y < p:
        raise ValueError("digit out of range")
    return 1 if x + y >= p else 0


class PAdicInt:
    """A residue mod p^N as a little-endian digit vector of length N."""

    __slots__ = ("p", "digits")

    def __init__(self, p: int, digits, check: bool = True):
        digits = tuple(digits)
        if check:
            if not is_prime(p):
                raise ValueError("not prime")
            if len(digits) < 1:
                raise PrecisionError("precision must be >= 1")
            if any(not 0 <= d < p for d in digits):
                raise ValueError("digit out of range")
        self.p = p
        self.digits = digits

    @classmethod
    def from_integer(cls, k: int, p: int, precision: int) -> "PAdicInt":
        if precision < 1:
            raise PrecisionError("precision must be >= 1")
        if not is_prime(p):
            raise ValueError("not prime")
        return cls(p, to_digits(k, p, precision), check=False)

    @property
    def precision(self) -> int:
        return len(self.digits)

    @property
    def value(self) -> int:
        return from_digits(self.digits, self.p)

    @property
    def modulus(self) -> int:
        return self.p ** len(self.digits)

    # -- arithmetic -----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, PAdicInt):
            if other.p != self.p:
                raise ValueError("prime mismatch")
            return other
        if isinstance(other, int):
            return PAdicInt.from_integer(other, self.p, self.precision)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        n = min(self.precision, o.precision)
        out = []
        carry = 0
        for i in range(n):
            a, b = self.digits[i], o.digits[i]
            s = (a + b) % p
            c1 = carry_cocycle(a, b, p)
            t = (s + carry) % p
            c2 = carry_cocycle(s, carry, p)
            out.append(t)
            carry = c1 + c2  # never both: a+b+carry < 2p
        return PAdicInt(p, out, check=False)

    __radd__ = __add__

    def __neg__(self):
        return PAdicInt.from_integer(-self.value, self.p, self.precision)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.precision, o.precision)
        return PAdicInt.from_integer(self.value - o.value, self.p, n)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.precision, o.precision)
        return PAdicInt.from_integer(self.value * o.value, self.p, n)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.unit_inverse() ** (-e)
        return PAdicInt.from_integer(pow(self.value, e, self.modulus), self.p, self.precision)

    # -- unit and divisibility structure --------------------------------
    def is_unit(self) -> bool:
        return self.digits[0] != 0

    def unit_inverse(self) -> "PAdicInt":
        """Multiplicative inverse mod p^N; the operand must be a unit."""
        if not self.is_unit():
            raise ValueError("not a unit")
        return PAdicInt.from_integer(pow(self.value, -1, self.modulus), self.p, self.precision)

    def div_exact_by_p(self) -> "PAdicInt":
        """Shift digits down one place; only defined when digit 0 is zero."""
        if self.precision == 1:
            raise PrecisionError("precision exhausted")
        if self.digits[0] != 0:
            raise ValueError("not divisible")
        return PAdicInt(self.p, self.digits[1:], check=False)

    def truncate(self, precision: int) -> "PAdicInt":
        if not 1 <= precision <= self.precision:
            raise PrecisionError("cannot truncate to that precision")
        return PAdicInt(self.p, self.digits[:precision], check=False)

    # -- misc ------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.modulus
        if not isinstance(other, PAdicInt):
            return NotImplemented
        return (self.p, self.digits) == (other.p, other.digits)

    def __hash__(self):
        return hash((self.p, self.digits))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"PAdicInt({self.value} mod {self.p}^{self.precision})"

    def to_text(self) -> str:
        digits = ",".join(str(d) for d in self.digits)
        return f"p={self.p};N={self.precision};digits={digits}"


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
    parts = text.strip().split(";")
    if len(parts) != 3:
        raise ValueError("expected three ';'-separated fields")
    fields = {}
    for part in parts:
        key, eq, val = part.partition("=")
        if not eq:
            raise ValueError(f"malformed field {part!r}")
        fields[key] = val
    if set(fields) != {"p", "N", "digits"}:
        raise ValueError("expected fields p, N, digits")
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
        raise RuntimeError("carry polynomial is not divisible by p")
    return PAdicInt.from_integer(num // p, p, n - 1)
