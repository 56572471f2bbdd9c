"""Truncated unramified extensions Z_q = W(F_q) mod p^N.

A ZqRing is (Z/p^N)[t] modulo the trivially lifted field modulus, and a
ZqElem stores its coefficients as plain int residues mod p^N, so ring
arithmetic is the shared residue-ring kernel (residue.mulmod / powmod).
The Witt-vector structure is recovered on top of it: teichmuller computes
the unique root-of-unity lift as one exact power q^k of the naive lift,
teich_digits peels an element into its Teichmuller digit expansion
x = sum tau(x_i) p^i, and frobenius_lift transports Frobenius digit-wise
through that expansion, which makes it a ring endomorphism reducing to
x -> x^p mod p.

Canonical text form (CLI interchange): "p=3;n=2;N=4;coeffs=[1,0,2,1|0,0,1,2]"
with one little-endian digit vector per polynomial coefficient.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import PrecisionError
from .gfq import FqElem, FqField, fq_make
from .residue import mulmod, powmod, to_digits
from .zp_ring import PAdicInt, int_exact, parse_fields, scalar_residue


@lru_cache(maxsize=None)
def zq_ring(field: FqField, precision: int) -> "ZqRing":
    """Cached ring constructor; reuse gives one Teichmuller table per ring."""
    return ZqRing(field, precision)


class ZqRing:
    """(Z/p^N)[t] / (lifted modulus), polynomial basis over int residues."""

    def __init__(self, field: FqField, precision: int):
        if precision < 1:
            raise PrecisionError("precision must be >= 1")
        self.field = field
        self.precision = precision
        self.p = field.p
        self.n = field.n
        self.modulus = field.p**precision
        # unread by the ring arithmetic (which reduces by field.modulus); the
        # zq-lift bench workload counts the from_integer calls it makes
        self.lifted_modulus = tuple(
            PAdicInt.from_integer(c, field.p, precision) for c in field.modulus
        )
        self._teich: dict[tuple, ZqElem] = {}

    # -- constructors ------------------------------------------------------
    def element(self, coeffs) -> "ZqElem":
        """Coefficients are ints or PAdicInts, coerced by scalar_residue."""
        out = tuple(scalar_residue(c, self.p, self.precision) for c in coeffs)
        if len(out) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(out)}")
        return ZqElem(self, out)

    def from_int(self, k) -> "ZqElem":
        return self.element([k] + [0] * (self.n - 1))

    def zero(self) -> "ZqElem":
        return self.from_int(0)

    def one(self) -> "ZqElem":
        return self.from_int(1)

    def naive_lift(self, v: FqElem) -> "ZqElem":
        """Coefficient-wise lift of a field element, digits re-read mod p^N."""
        if v.field != self.field:
            raise ValueError("field mismatch")
        return ZqElem(self, v.coeffs)

    def with_precision(self, precision: int) -> "ZqRing":
        return zq_ring(self.field, precision)

    # -- Teichmuller --------------------------------------------------------
    def teichmuller(self, v: FqElem) -> "ZqElem":
        """The unique lift t of v with t^q = t, as one power of the naive lift.

        A lift t(1 + pu) of v raised to q^k is t mod p^(kn+1), so
        k = ceil((N-1)/n) gives t at precision N.
        """
        if v.field != self.field:
            raise ValueError("field mismatch")
        cached = self._teich.get(v.coeffs)
        if cached is not None:
            return cached
        k = -(-(self.precision - 1) // self.n)
        x = self.naive_lift(v) ** (self.field.q**k)
        self._teich[v.coeffs] = x
        return x

    def __eq__(self, other):
        if not isinstance(other, ZqRing):
            return NotImplemented
        return self.field == other.field and self.precision == other.precision

    def __hash__(self):
        return hash((self.field, self.precision))

    def __repr__(self):
        return f"ZqRing(q={self.field.q}, N={self.precision})"


class ZqElem:
    """Element of a ZqRing: length-n tuple of int residues mod p^N."""

    __slots__ = ("ring", "residues")

    def __init__(self, ring: ZqRing, residues: tuple):
        self.ring = ring
        self.residues = residues

    def _coerce(self, other):
        if isinstance(other, ZqElem):
            if other.ring != self.ring:
                raise ValueError("ring mismatch")
            return other
        if isinstance(other, (int, PAdicInt)):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        mod = self.ring.modulus
        return ZqElem(self.ring, tuple((a + b) % mod for a, b in zip(self.residues, o.residues)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        mod = self.ring.modulus
        return ZqElem(self.ring, tuple((a - b) % mod for a, b in zip(self.residues, o.residues)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        mod = self.ring.modulus
        return ZqElem(self.ring, tuple(-a % mod for a in self.residues))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        return ZqElem(ring, mulmod(self.residues, o.residues, ring.field.modulus, ring.modulus))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.unit_inverse() ** (-e)
        ring = self.ring
        return ZqElem(ring, powmod(self.residues, e, ring.field.modulus, ring.modulus))

    # -- structure ----------------------------------------------------------
    def reduce_mod_p(self) -> FqElem:
        return self.ring.field.element(self.residues)

    def is_unit(self) -> bool:
        return not self.reduce_mod_p().is_zero()

    def unit_inverse(self) -> "ZqElem":
        """x^(|units| - 1): the unit group has (q - 1) q^(N-1) elements."""
        if not self.is_unit():
            raise ValueError("not a unit")
        q = self.ring.field.q
        return self ** ((q - 1) * q ** (self.ring.precision - 1) - 1)

    def div_exact_by_p(self) -> "ZqElem":
        """Coefficient-wise exact division by p; drops one digit of precision."""
        ring = self.ring
        if ring.precision == 1:
            raise PrecisionError("precision exhausted")
        if any(c % ring.p for c in self.residues):
            raise ValueError("not divisible")
        lower = ring.with_precision(ring.precision - 1)
        return ZqElem(lower, tuple(c // ring.p for c in self.residues))

    def truncate(self, precision: int) -> "ZqElem":
        if not 1 <= precision <= self.ring.precision:
            raise PrecisionError("cannot truncate to that precision")
        lower = self.ring.with_precision(precision)
        return ZqElem(lower, tuple(c % lower.modulus for c in self.residues))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, ZqElem):
            return NotImplemented
        return self.ring == other.ring and self.residues == other.residues

    def __hash__(self):
        return hash((self.ring, self.residues))

    def __repr__(self):
        return f"ZqElem({list(self.residues)} in {self.ring!r})"

    def to_text(self) -> str:
        ring = self.ring
        blocks = "|".join(",".join(str(d) for d in to_digits(c, ring.p, ring.precision))
                          for c in self.residues)
        return f"p={ring.p};n={ring.n};N={ring.precision};coeffs=[{blocks}]"


def parse_zq(text: str) -> ZqElem:
    """Parse "p=3;n=2;N=4;coeffs=[...|...]" against the canonical field."""
    fields = parse_fields(text, ("p", "n", "N", "coeffs"))
    p = int_exact(fields["p"])
    n = int_exact(fields["n"])
    prec = int_exact(fields["N"])
    raw = fields["coeffs"]
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ValueError("coeffs must be bracketed")
    ring = zq_ring(fq_make(p, n), prec)
    coeffs = []
    for block in raw[1:-1].split("|"):
        digits = [int_exact(d) for d in block.split(",")]
        if len(digits) != prec:
            raise ValueError("digit count does not match N")
        coeffs.append(PAdicInt(p, digits))
    return ring.element(coeffs)


# ---------------------------------------------------------------------------
# module-level operation surface

def teichmuller(v: FqElem, precision: int) -> ZqElem:
    return zq_ring(v.field, precision).teichmuller(v)


def teichmuller_int(c: int, p: int, precision: int) -> int:
    """tau of a prime-field residue as a plain integer mod p^N: c^(p^(N-1))."""
    return pow(c, p ** (precision - 1), p**precision)


def reduce_mod_p(x: ZqElem) -> FqElem:
    return x.reduce_mod_p()


def teich_digits(x: ZqElem) -> list[FqElem]:
    """Greedy Teichmuller digit expansion, length N.

    Digit i is the reduction of the current remainder; subtracting its
    Teichmuller lift makes the remainder divisible by p exactly, and the
    division pays one digit of precision, which is why digit i only needs
    the ring at precision N - i.
    """
    ring = x.ring
    digits = []
    cur = x
    for i in range(ring.precision):
        v = cur.reduce_mod_p()
        digits.append(v)
        if i < ring.precision - 1:
            tau = cur.ring.teichmuller(v)
            cur = (cur - tau).div_exact_by_p()
    return digits


def from_teich_digits(digits, ring: ZqRing) -> ZqElem:
    """Reassemble sum tau(digits[i]) * p^i at ring precision."""
    if len(digits) > ring.precision:
        raise PrecisionError("more digits than the ring precision")
    acc = ring.zero()
    scale = 1
    for v in digits:
        acc = acc + ring.teichmuller(v) * scale
        scale *= ring.p
    return acc


def frobenius_lift(x: ZqElem) -> ZqElem:
    """The canonical Frobenius: p-th power transported through the digits.

    phi(sum tau(x_i) p^i) = sum tau(x_i^p) p^i.  It is a ring endomorphism,
    reduces to x -> x^p mod p, and iterating it n times is the identity.
    """
    ring = x.ring
    if ring.n == 1:
        return x  # Galois group of the trivial extension
    digits = teich_digits(x)
    return from_teich_digits([v.frobenius() for v in digits], ring)
