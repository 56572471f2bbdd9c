"""The quotient rings (Z/p^N)[X]/(relation) of Z/p^N, F_q, Z_q and the pi-ring.

F_q is (Z/p)[X]/(field modulus), and Z/p^N = (Z/p^N)[X]/(X), Z_q = W(F_q)
mod p^N (relation: the field modulus) and the ramified ring
Z_p[pi]/(pi^(p-1) + p) are F_p or F_q deformed over Z/p^N, so their
elements are the same object: a length-n tuple of int residues mod p^N
(N = 1 for F_q, n = 1 for Z/p^N), multiplied and powered through the
residue kernel.  QuotientRing holds the ring data (p, precision, n,
modulus = p^N, relation, and the order of the unit group) and forms
int-weighted sums of residue vectors, reduced mod p^N once, for the linear
maps built on the ring; QuotientElem holds the arithmetic, coercion,
equality, the unit test (nonzero mod p), exact division by p and
truncation, and the one inverse of all four rings: unit_inverse,
x^(|units| - 1) (at n = 1, pow(x, -1, p^N)), which x ** -k goes through,
so a non-unit (in F_q, zero) raises "not a unit", and division by p with
no digit left "insufficient precision".  A subclass names element_type
and, above precision 1, supplies with_precision (F_q's truncate(1)
returns early); the pi-ring, where pi is not a unit, overrides is_unit.
__init_subclass__ gives each element class its own copy of the base's
operator functions, so bench/spans.py traces each class apart.

Rings compare by identity: the cached zp_ring._zp_ring, gfq.fq_make,
witt_zq.zq_ring and charsum.pi_ring build the one ring object per key, and
with_precision goes through them.

The one scalar type is int, reduced mod p^N in arithmetic; element and
from_int raise TypeError on anything else, and an element of another
class is no scalar.  from_int is the one map from ints to constant
elements, in F_q as in Z_q and the pi-ring, so reduction mod p sends
from_int(k) to from_int(k) of the field.  Two quotient-ring classes never
mix (operators return NotImplemented); two rings of one class, such as
Z/p^N at two precisions or two primes, raise "ring mismatch".  == never
reduces: an element equals the int k only when k is its constant residue
and every other coefficient is 0, so 0 <= k < p^N, and then hashes as k;
any other object compares unequal.
"""

from __future__ import annotations

import types

from .errors import PrecisionError
from .residue import mulmod, powmod


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

    def _residue(self, k) -> int:
        """The int k reduced mod p^N; TypeError for anything but an int."""
        if not isinstance(k, int):
            raise TypeError(f"a scalar is an int, not {type(k).__name__}")
        return k % self.modulus

    def element(self, coeffs):
        """The element with these int coefficients, lowest power first."""
        out = tuple(self._residue(c) for c in coeffs)
        if len(out) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(out)}")
        return self.element_type(self, out)

    def from_int(self, k):
        """The constant element k, an int."""
        return self.element_type(self, (self._residue(k),) + (0,) * (self.n - 1))

    def zero(self):
        return self.from_int(0)

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
        return self.from_int(1)


# copied onto each element class, which overrides none of them
_OWN_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__",
                  "unit_inverse", "div_exact_by_p", "truncate")


class QuotientElem:
    """Element of a QuotientRing: length-n tuple of int residues mod p^N."""

    __slots__ = ("ring", "residues")

    def __init__(self, ring: QuotientRing, residues: tuple):
        self.ring = ring
        self.residues = residues

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in _OWN_OPERATORS:
            f = vars(QuotientElem)[name]
            setattr(cls, name, types.FunctionType(f.__code__, f.__globals__, name, f.__defaults__))
        cls.__radd__, cls.__rmul__ = cls.__add__, cls.__mul__

    def _coerce(self, other):
        if isinstance(other, type(self)):
            if other.ring is not self.ring:
                raise ValueError("ring mismatch")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        mod = self.ring.modulus
        return type(self)(self.ring, tuple([(a + b) % mod for a, b in zip(self.residues, o.residues)]))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        mod = self.ring.modulus
        return type(self)(self.ring, tuple([(a - b) % mod for a, b in zip(self.residues, o.residues)]))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        mod = self.ring.modulus
        return type(self)(self.ring, tuple([-a % mod for a in self.residues]))

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, int):  # a scalar scales coefficient-wise
            mod = ring.modulus
            return type(self)(ring, tuple(a * other % mod for a in self.residues))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(ring, mulmod(self.residues, o.residues, ring.relation, ring.modulus))

    def __pow__(self, e: int):
        if e < 0:
            return self.unit_inverse() ** (-e)
        ring = self.ring
        return type(self)(ring, powmod(self.residues, e, ring.relation, ring.modulus))

    def is_unit(self) -> bool:
        """Nonzero mod p: the ring mod p is the field F_q."""
        p = self.ring.p
        return any([c % p for c in self.residues])  # a list: n is small

    def unit_inverse(self):
        """x^(|units| - 1), by Lagrange in the finite unit group; at n = 1
        the ring is Z/p^N, and pow(x, -1, p^N) finds the same inverse by
        Euclid, where the power would cost O(N) products of N-digit ints."""
        if not self.is_unit():
            raise ValueError("not a unit")
        ring = self.ring
        if ring.n == 1:
            return type(self)(ring, (pow(self.residues[0], -1, ring.modulus),))
        return self ** (ring.units - 1)

    def div_exact_by_p(self):
        """Coefficient-wise exact division by p; drops one digit of precision."""
        ring = self.ring
        if ring.precision == 1:
            raise PrecisionError("insufficient precision")
        if any(c % ring.p for c in self.residues):
            raise ValueError("not divisible")
        lower = ring.with_precision(ring.precision - 1)
        return type(self)(lower, tuple(c // ring.p for c in self.residues))

    def truncate(self, precision: int):
        if not 1 <= precision <= self.ring.precision:
            raise PrecisionError("cannot truncate to that precision")
        if precision == self.ring.precision:  # elements are immutable
            return self
        lower = self.ring.with_precision(precision)
        mod = lower.modulus
        return type(self)(lower, tuple([c % mod for c in self.residues]))

    def __eq__(self, other):
        if type(other) is not type(self):  # the exact type first: the hot path
            if isinstance(other, int):
                return other == self.residues[0] and not any(self.residues[1:])
            if not isinstance(other, type(self)):
                return NotImplemented
        return self.ring is other.ring and self.residues == other.residues

    def __hash__(self):
        # a scalar equals only the int residue it holds, and hashes as it
        r = self.residues
        return hash(r[0] if not any(r[1:]) else (self.ring, r))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.residues)} in {self.ring!r})"
