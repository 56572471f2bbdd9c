"""The p-derivation delta(x) = (phi(x) - x^p) / p and its twisted Leibniz laws.

phi is the canonical Frobenius lift, so phi(x) == x^p mod p always holds and
the division is exact; the quotient costs one digit of precision, and
_delta, which every delta runs, refuses precision 1 before phi.  The two
laws checked here are

    delta(x+y) = delta(x) + delta(y) + C_p(x, y)
    delta(xy)  = x^p delta(y) + delta(x) y^p + p delta(x) delta(y)

with C_p the universal carry polynomial, written once as
zp_ring.buium_carry.  On Z_p = Z/p^N, where phi is the identity, delta is
the Fermat quotient (k - k^p) / p.  The verifiers return structured
reports rather than booleans so the CLI can name inputs and residuals on
failure.  verify_laws checks both laws at one pair and forms x^p, y^p,
delta(x) and delta(y) once for the two; its reports and errors equal
those of verify_sum_rule and verify_product_rule.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PrecisionError
from .witt_zq import ZqElem, frobenius_lift
from .zp_ring import PAdicInt, buium_carry


LawReport = namedtuple("LawReport", "law lhs rhs residual passed")


def p_derivation(x: ZqElem) -> ZqElem:
    """delta(x) = (phi(x) - x^p) / p, at precision N - 1."""
    return _delta(x, x**x.ring.p)


def _delta(x: ZqElem, x_p: ZqElem) -> ZqElem:
    """(phi(x) - x_p) / p, given x_p = x^p (which callers may reuse)."""
    if x.ring.precision < 2:
        raise PrecisionError("insufficient precision")
    return (frobenius_lift(x) - x_p).div_exact_by_p()


def ring_carry(x: ZqElem, y: ZqElem) -> ZqElem:
    """C_p on Z_q: zp_ring.buium_carry, the one copy of the polynomial."""
    return buium_carry(x, y)


def _power_and_delta(x: ZqElem) -> tuple[ZqElem, ZqElem]:
    """(x^p, delta(x)): the power serves delta and the product law alike."""
    x_p = x**x.ring.p
    return x_p, _delta(x, x_p)


def _sum_law(x: ZqElem, y: ZqElem, dx: ZqElem, dy: ZqElem) -> LawReport:
    lhs = p_derivation(x + y)
    rhs = dx + dy + ring_carry(x, y)
    return LawReport("sum", lhs, rhs, lhs - rhs, lhs == rhs)


def _product_law(x: ZqElem, y: ZqElem, x_p: ZqElem, dx: ZqElem,
                 y_p: ZqElem, dy: ZqElem) -> LawReport:
    n1 = x.ring.precision - 1
    lhs = p_derivation(x * y)
    rhs = x_p.truncate(n1) * dy + dx * y_p.truncate(n1) + dx * dy * x.ring.p
    return LawReport("product", lhs, rhs, lhs - rhs, lhs == rhs)


def verify_sum_rule(x: ZqElem, y: ZqElem) -> LawReport:
    """delta(x+y) against delta(x) + delta(y) + C_p(x, y), at precision N-1."""
    return _sum_law(x, y, _power_and_delta(x)[1], _power_and_delta(y)[1])


def verify_product_rule(x: ZqElem, y: ZqElem) -> LawReport:
    """delta(xy) against x^p delta(y) + delta(x) y^p + p delta(x) delta(y)."""
    return _product_law(x, y, *_power_and_delta(x), *_power_and_delta(y))


def verify_laws(x: ZqElem, y: ZqElem) -> tuple[LawReport, LawReport]:
    """(verify_sum_rule(x, y), verify_product_rule(x, y)), with x^p, y^p,
    delta(x) and delta(y) formed once for both."""
    x_p, dx = _power_and_delta(x)
    y_p, dy = _power_and_delta(y)
    return _sum_law(x, y, dx, dy), _product_law(x, y, x_p, dx, y_p, dy)


def fermat_quotient(k: int, p: int, precision: int) -> PAdicInt:
    """(k - k^p) / p mod p^(N-1): delta on Z/p^N, where phi is the identity."""
    return p_derivation(PAdicInt.from_integer(k, p, precision))
