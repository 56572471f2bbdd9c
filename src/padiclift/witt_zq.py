"""Truncated unramified extensions Z_q = W(F_q) mod p^N.

A ZqRing is (Z/p^N)[t] modulo the trivially lifted field modulus, a
quotient.QuotientRing whose ZqElem elements store their coefficients as
plain int residues mod p^N; ring arithmetic, coercion, equality, exact
division by p and truncation come from that base.  The Witt-vector
structure is recovered on top of it: teichmuller computes the unique
root-of-unity lift as one exact power q^k of the naive lift,
teich_digits peels an element into its Teichmuller digit expansion
x = sum tau(x_i) p^i, and frobenius_lift applies the canonical Frobenius
phi, the ring endomorphism with phi(tau(v)) = tau(v^p), reducing to
x -> x^p mod p.  Since phi fixes Z/p^N, phi(sum x_i t^i) = sum x_i phi(t)^i:
frobenius_lift is the product of the coefficient vector with the n x n
matrix over Z/p^N whose columns are phi(t)^0, ..., phi(t)^(n-1).  Each ring
builds the columns once, taking phi(t) through the digit expansion of t
(phi(sum tau(t_i) p^i) = sum tau(t_i^p) p^i); that digit-wise route stays
as _frobenius_digitwise, the oracle of the tests.

Canonical text form (CLI interchange): "p=3;n=2;N=4;coeffs=[1,0,2,1|0,0,1,2]"
with one little-endian digit vector per polynomial coefficient.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import PrecisionError
from .gfq import FqElem, FqField, fq_make
from .quotient import QuotientElem, QuotientRing
from .residue import to_digits
from .zp_ring import PAdicInt, int_exact, parse_fields


@lru_cache(maxsize=None)
def zq_ring(field: FqField, precision: int) -> "ZqRing":
    """Cached ring constructor; reuse gives one Teichmuller table per ring."""
    return ZqRing(field, precision)


class ZqElem(QuotientElem):
    """Element of a ZqRing: length-n tuple of int residues mod p^N."""

    __slots__ = ()

    # Tracer shims: bench/spans.py finds each traced operator in its class's
    # own namespace and wraps it by identity, so ZqElem binds the base
    # functions and PiRingElem and FqElem delegate to them (a second class
    # binding them would merge its spans into ZqElem's); the benchmark
    # refresh (ROADMAP item 6) deletes all three.
    __add__ = __radd__ = QuotientElem.__add__
    __sub__ = QuotientElem.__sub__
    __neg__ = QuotientElem.__neg__
    __mul__ = __rmul__ = QuotientElem.__mul__
    __pow__ = QuotientElem.__pow__
    unit_inverse = QuotientElem.unit_inverse
    div_exact_by_p = QuotientElem.div_exact_by_p
    truncate = QuotientElem.truncate

    def reduce_mod_p(self) -> FqElem:
        return self.ring.field.element(self.residues)

    def is_unit(self) -> bool:
        return not self.reduce_mod_p().is_zero()

    def to_text(self) -> str:
        ring = self.ring
        blocks = "|".join(",".join(str(d) for d in to_digits(c, ring.p, ring.precision))
                          for c in self.residues)
        return f"p={ring.p};n={ring.n};N={ring.precision};coeffs=[{blocks}]"


class ZqRing(QuotientRing):
    """(Z/p^N)[t] / (lifted modulus), polynomial basis over int residues."""

    element_type = ZqElem

    def __init__(self, field: FqField, precision: int):
        super().__init__(field.p, precision, field.relation)
        self.field = field
        self.units = (field.q - 1) * field.q ** (precision - 1)  # |residue field^*| q^(N-1)
        # unread by the ring arithmetic (which reduces by field.relation); the
        # zq-lift bench workload counts the from_integer calls it makes
        self.lifted_modulus = tuple(
            PAdicInt.from_integer(c, field.p, precision) for c in field.relation
        )
        self._teich: dict[tuple, ZqElem] = {}

    def naive_lift(self, v: FqElem) -> "ZqElem":
        """Coefficient-wise lift of a field element, digits re-read mod p^N."""
        if v.field != self.field:
            raise ValueError("field mismatch")
        return ZqElem(self, v.coeffs)

    def with_precision(self, precision: int) -> "ZqRing":
        return zq_ring(self.field, precision)

    @cached_property
    def frobenius_columns(self) -> tuple[tuple[int, ...], ...]:
        """phi(t)^0, ..., phi(t)^(n-1) as residue tuples, for n > 1."""
        phi_t = _frobenius_digitwise(self.element([0, 1] + [0] * (self.n - 2)))
        columns = [self.one()]
        while len(columns) < self.n:
            columns.append(columns[-1] * phi_t)
        return tuple(c.residues for c in columns)

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

    def __repr__(self):
        return f"ZqRing(q={self.field.q}, N={self.precision})"


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
    return ring.weighted_sum((ring.p**i, ring.teichmuller(v).residues)
                             for i, v in enumerate(digits))


def _frobenius_digitwise(x: ZqElem) -> ZqElem:
    """phi(sum tau(x_i) p^i) = sum tau(x_i^p) p^i, through the digits of x."""
    return from_teich_digits([v.frobenius() for v in teich_digits(x)], x.ring)


def frobenius_lift(x: ZqElem) -> ZqElem:
    """The canonical Frobenius phi(x) = sum x_i phi(t)^i, a matrix product.

    phi is the ring endomorphism with phi(tau(v)) = tau(v^p): it fixes
    Z/p^N, reduces to x -> x^p mod p, and iterating it n times is the
    identity.  The columns phi(t)^i come from ZqRing.frobenius_columns.
    """
    ring = x.ring
    if ring.n == 1:
        return x  # Galois group of the trivial extension
    return ring.weighted_sum(zip(x.residues, ring.frobenius_columns))
