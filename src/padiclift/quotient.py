"""The quotient rings (Z/p^N)[X]/(relation) of F_q, Z_q and the pi-ring.

F_q is (Z/p)[X]/(field modulus), and Z_q = W(F_q) mod p^N (relation: the
field modulus) and the ramified ring Z_p[pi]/(pi^(p-1) + p) are F_q or
F_p deformed over Z/p^N, so their elements are the same object: a
length-n tuple of int residues mod p^N (N = 1 for F_q), multiplied and
powered through the residue kernel.  QuotientRing holds the ring data
(p, precision, n, modulus = p^N, relation, and the order of the unit
group) and forms int-weighted sums of residue vectors, reduced mod p^N
once, for the linear maps built on the ring; QuotientElem holds the
arithmetic, coercion, equality, exact division by p and truncation.  A
subclass supplies is_unit and with_precision (F_q, fixed at precision 1,
has no with_precision), and names its element class as element_type.

Rings compare by identity: the cached gfq.fq_make, witt_zq.zq_ring and
charsum.pi_ring build the one ring object per key, and with_precision
goes through them.

Scalars follow scalar_residue: an int is reduced, a PAdicInt must carry at
least the ring's precision.  A scalar becomes the constant element through
_scalar, never through from_int, which FqField gives another meaning.
Elements of two different quotient-ring classes never mix (binary
operators return NotImplemented); elements of two rings of one class
raise "ring mismatch".  An element equals the int or PAdicInt scalars
that coerce to it, and a scalar element hashes as its residue, as they
do; a scalar that cannot coerce compares unequal.
"""

from __future__ import annotations

from .errors import PrecisionError
from .residue import mulmod, powmod
from .zp_ring import PAdicInt, scalar_residue


class QuotientRing:
    """(Z/p^N)[X]/(relation), relation monic of degree n, lowest term first."""

    element_type: type
    units: int  # order of the unit group, set by the subclass

    def __init__(self, p: int, precision: int, relation: tuple):
        if precision < 1:
            raise PrecisionError("precision must be >= 1")
        self.p = p
        self.precision = precision
        self.modulus = p**precision
        self.relation = relation
        self.n = len(relation) - 1

    def element(self, coeffs):
        """Coefficients are ints or PAdicInts, coerced by scalar_residue."""
        out = tuple(scalar_residue(c, self.p, self.precision) for c in coeffs)
        if len(out) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(out)}")
        return self.element_type(self, out)

    def from_int(self, k):
        """The scalar k (FqField overrides this: there k is a base-p vector)."""
        return _scalar(self, k)

    def zero(self):
        return _scalar(self, 0)

    def weighted_sum(self, terms):
        """sum c * v over pairs (int weight c, length-n residue tuple v).

        The sum runs on plain ints and is reduced mod p^N once; weights may
        be any ints, and a zero weight skips its vector.
        """
        acc = [0] * self.n
        for c, v in terms:
            if c:
                acc = [a + c * x for a, x in zip(acc, v, strict=True)]
        mod = self.modulus
        return self.element_type(self, tuple(a % mod for a in acc))

    def one(self):
        return _scalar(self, 1)


def _scalar(ring: QuotientRing, k):
    """The constant element k, an int or PAdicInt coerced by scalar_residue.

    A module function, so that no subclass's from_int can redirect the
    scalar coercion of the operators.
    """
    return ring.element_type(
        ring, (scalar_residue(k, ring.p, ring.precision),) + (0,) * (ring.n - 1))


class QuotientElem:
    """Element of a QuotientRing: length-n tuple of int residues mod p^N."""

    __slots__ = ("ring", "residues")

    def __init__(self, ring: QuotientRing, residues: tuple):
        self.ring = ring
        self.residues = residues

    def _coerce(self, other):
        if isinstance(other, type(self)):
            if other.ring is not self.ring:
                raise ValueError("ring mismatch")
            return other
        if isinstance(other, (int, PAdicInt)):
            return _scalar(self.ring, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        mod = self.ring.modulus
        return type(self)(self.ring, tuple((a + b) % mod for a, b in zip(self.residues, o.residues)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        mod = self.ring.modulus
        return type(self)(self.ring, tuple((a - b) % mod for a, b in zip(self.residues, o.residues)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        mod = self.ring.modulus
        return type(self)(self.ring, tuple(-a % mod for a in self.residues))

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, (int, PAdicInt)):  # a scalar scales coefficient-wise
            c = scalar_residue(other, ring.p, ring.precision)
            mod = ring.modulus
            return type(self)(ring, tuple(a * c % mod for a in self.residues))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(ring, mulmod(self.residues, o.residues, ring.relation, ring.modulus))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.unit_inverse() ** (-e)
        ring = self.ring
        return type(self)(ring, powmod(self.residues, e, ring.relation, ring.modulus))

    def unit_inverse(self):
        """x^(|units| - 1), by Lagrange in the finite unit group."""
        if not self.is_unit():
            raise ValueError("not a unit")
        return self ** (self.ring.units - 1)

    def div_exact_by_p(self):
        """Coefficient-wise exact division by p; drops one digit of precision."""
        ring = self.ring
        if ring.precision == 1:
            raise PrecisionError("precision exhausted")
        if any(c % ring.p for c in self.residues):
            raise ValueError("not divisible")
        lower = ring.with_precision(ring.precision - 1)
        return type(self)(lower, tuple(c // ring.p for c in self.residues))

    def truncate(self, precision: int):
        if not 1 <= precision <= self.ring.precision:
            raise PrecisionError("cannot truncate to that precision")
        lower = self.ring.with_precision(precision)
        return type(self)(lower, tuple(c % lower.modulus for c in self.residues))

    def __eq__(self, other):
        if isinstance(other, (int, PAdicInt)):
            try:
                other = self._coerce(other)
            except ValueError:  # another prime, or too few digits
                return False
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.ring is other.ring and self.residues == other.residues

    def __hash__(self):
        # a scalar hashes as its residue, like the int and PAdicInt it equals
        if not any(self.residues[1:]):
            return hash(self.residues[0])
        return hash((self.ring, self.residues))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.residues)} in {self.ring!r})"
