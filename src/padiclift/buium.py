"""The p-derivation delta(x) = (phi(x) - x^p) / p and its twisted Leibniz laws.

phi is the canonical Frobenius lift, so phi(x) == x^p mod p always holds and
the division is exact; the quotient costs one digit of precision.  The two
laws checked here are

    delta(x+y) = delta(x) + delta(y) + C_p(x, y)
    delta(xy)  = x^p delta(y) + delta(x) y^p + p delta(x) delta(y)

with C_p the universal carry polynomial.  The verifiers return structured
reports rather than booleans so the CLI can name inputs and residuals on
failure.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvariantError, PrecisionError
from .witt_zq import ZqElem, frobenius_lift
from .zp_ring import PAdicInt


LawReport = namedtuple("LawReport", "law lhs rhs residual passed")


def p_derivation(x: ZqElem) -> ZqElem:
    """delta(x) = (phi(x) - x^p) / p, at precision N - 1."""
    if x.ring.precision < 2:
        raise PrecisionError("insufficient precision")
    return _delta(x, x**x.ring.p)


def _delta(x: ZqElem, x_p: ZqElem) -> ZqElem:
    """(phi(x) - x_p) / p, given x_p = x^p (which callers may reuse)."""
    return (frobenius_lift(x) - x_p).div_exact_by_p()


def ring_carry(x: ZqElem, y: ZqElem) -> ZqElem:
    """C_p on Z_q, by the same polynomial formula evaluated with ring ops.

    Z_q elements have no canonical integer lift, but the binomial
    coefficients still supply the factor of p, so the division stays exact.
    """
    if x.ring is not y.ring:
        raise ValueError("ring mismatch")
    if x.ring.precision < 2:
        raise PrecisionError("insufficient precision")
    p = x.ring.p
    return (x**p + y**p - (x + y) ** p).div_exact_by_p()


def verify_sum_rule(x: ZqElem, y: ZqElem) -> LawReport:
    """delta(x+y) against delta(x) + delta(y) + C_p(x, y), at precision N-1."""
    if x.ring is not y.ring:
        raise ValueError("ring mismatch")
    lhs = p_derivation(x + y)
    rhs = p_derivation(x) + p_derivation(y) + ring_carry(x, y)
    residual = lhs - rhs
    return LawReport("sum", lhs, rhs, residual, lhs == rhs)


def verify_product_rule(x: ZqElem, y: ZqElem) -> LawReport:
    """delta(xy) against x^p delta(y) + delta(x) y^p + p delta(x) delta(y)."""
    if x.ring is not y.ring:
        raise ValueError("ring mismatch")
    p = x.ring.p
    n1 = x.ring.precision - 1
    lhs = p_derivation(x * y)
    x_p, y_p = x**p, y**p  # each power serves delta and the right-hand side
    dx = _delta(x, x_p)
    dy = _delta(y, y_p)
    rhs = x_p.truncate(n1) * dy + dx * y_p.truncate(n1) + dx * dy * p
    residual = lhs - rhs
    return LawReport("product", lhs, rhs, residual, lhs == rhs)


def fermat_quotient(k: int, p: int, precision: int) -> PAdicInt:
    """(k - k^p) / p mod p^(N-1): delta on Z_p, where phi is the identity.

    Computed over unbounded integers; Fermat's little theorem makes the
    division exact.
    """
    if precision < 2:
        raise PrecisionError("insufficient precision")
    num = k - k**p
    if num % p:
        raise InvariantError("Fermat quotient numerator is not divisible by p")
    return PAdicInt.from_integer(num // p, p, precision - 1)
