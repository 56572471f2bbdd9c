"""Truncated unramified extensions Z_q = W(F_q) mod p^N.

A ZqRing is (Z/p^N)[t] modulo the trivially lifted field modulus, a
quotient.QuotientRing whose ZqElem elements store their coefficients as
plain int residues mod p^N; ring arithmetic, coercion, equality, exact
division by p and truncation come from that base.  The Witt-vector
structure is recovered on top of it: ZqRing.teichmuller computes the
unique root-of-unity lift as one exact power q^k of the naive lift and
caches it per ring, so tau(v) at precision N is spelled
zq_ring(v.field, N).teichmuller(v); teich_digits peels an element into
its Teichmuller digit expansion x = sum tau(x_i) p^i, and frobenius_lift
applies the canonical Frobenius phi, the ring endomorphism with
phi(tau(v)) = tau(v^p), reducing to x -> x^p mod p.  Since phi fixes Z/p^N, phi(sum x_i t^i) = sum x_i phi(t)^i:
frobenius_lift is the product of the coefficient vector with the n x n
matrix over Z/p^N whose columns are phi(t)^0, ..., phi(t)^(n-1).  Each ring
builds the columns once, taking phi(t) through the digit expansion of t:
phi(sum tau(t_i) p^i) = sum tau(t_i)^p p^i, where each tau(t_i) is the lift
teich_digits already cached at precision N - i, so only its p-th power is
new.  The digit-wise route that lifts every t_i^p afresh at precision N,
sum tau(t_i^p) p^i, is the oracle in tests/test_witt_zq.py.

ZqElem.to_text renders an element as "p=3;n=2;N=4;coeffs=[1,0,2,1|0,0,1,2]",
one little-endian digit vector per polynomial coefficient; the benchmark
digests its outputs through it, and nothing reads the text back.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import PrecisionError
from .gfq import FqElem, FqField
from .quotient import QuotientElem, QuotientRing
from .residue import to_digits
from .zp_ring import PAdicInt


@lru_cache(maxsize=None)
def zq_ring(field: FqField, precision: int) -> "ZqRing":
    """Cached ring constructor; reuse gives one Teichmuller table per ring."""
    return ZqRing(field, precision)


class ZqElem(QuotientElem):
    """Element of a ZqRing: length-n tuple of int residues mod p^N."""

    __slots__ = ()

    def reduce_mod_p(self) -> FqElem:
        return self.ring.field.element(self.residues)

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

    def with_precision(self, precision: int) -> "ZqRing":
        return zq_ring(self.field, precision)

    @cached_property
    def frobenius_columns(self) -> tuple[tuple[int, ...], ...]:
        """phi(t)^0, ..., phi(t)^(n-1) as residue tuples, for n > 1.

        phi(t) = sum tau(t_i)^p p^i over the Teichmuller digits t_i of t,
        since tau is multiplicative.  Digit i only needs tau(t_i) mod
        p^(N-i), the lift teich_digits has just cached in that ring (the
        last digit's, at precision 1, is its naive lift), so each term is
        a p-th power there (log2 p products) rather than a
        fresh lift of t_i^p at precision N (about kn log2 p products, the
        tests' digit-wise oracle).
        """
        p, N = self.p, self.precision
        digits = teich_digits(self.element([0, 1] + [0] * (self.n - 2)))
        phi_t = self.weighted_sum(
            (p**i, (self.with_precision(N - i).teichmuller(v) ** p).residues)
            for i, v in enumerate(digits))
        columns = [self.one()]
        while len(columns) < self.n:
            columns.append(columns[-1] * phi_t)
        return tuple(c.residues for c in columns)

    # -- Teichmuller --------------------------------------------------------
    def teichmuller(self, v: FqElem) -> "ZqElem":
        """The unique lift t of v with t^q = t, as one power of the naive lift.

        The naive lift reads v's coefficients as residues mod p^N.  Any lift
        t(1 + pu) of v raised to q^k is t mod p^(kn+1), so k = ceil((N-1)/n)
        gives t at precision N.
        """
        if v.field != self.field:
            raise ValueError("field mismatch")
        cached = self._teich.get(v.coeffs)
        if cached is not None:
            return cached
        k = -(-(self.precision - 1) // self.n)
        x = ZqElem(self, v.coeffs) ** (self.field.q**k)
        self._teich[v.coeffs] = x
        return x

    def __repr__(self):
        return f"ZqRing(q={self.field.q}, N={self.precision})"


# ---------------------------------------------------------------------------
# module-level operation surface

def teichmuller_int(c: int, p: int, precision: int) -> int:
    """tau of a prime-field residue as a plain integer mod p^N: c^(p^(N-1))."""
    return pow(c, p ** (precision - 1), p**precision)


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
