"""Structure-agnostic 2-cocycle and 2-coboundary checkers.

One reusable test form covers every coboundary/cocycle identity in the
package: digit carries, the universal carry polynomial, the Beta unit, and
the Gauss-sum coboundary are all instances over different abelian groups.
A map's flavor names the group law on its values through the table _LAWS:
additive values combine with + and invert by negation, multiplicative
values combine with * and invert by their unit_inverse method, so every
evaluated multiplicative value must be a unit (is_unit) of its ring.  Each
checker is one code path through that law.

GroupValuedMap and CocycleReport are immutable named tuples: their fields
read by name, and a report serialises through _asdict() in field order.
"""

from __future__ import annotations

import operator
from collections import namedtuple

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"

# flavor -> (group law on values, inverse under that law)
_LAWS = {
    ADDITIVE: (operator.add, operator.neg),
    MULTIPLICATIVE: (operator.mul, operator.methodcaller("unit_inverse")),
}


class GroupValuedMap(namedtuple("GroupValuedMap", "fn flavor name combine")):
    """A 1- or 2-argument map into an abelian group of values.

    combine is the group law on *arguments* (defaults to +); the flavor
    names the law on values, a key of _LAWS.
    """

    __slots__ = ()

    def __new__(cls, fn, flavor, name="f", combine=operator.add):
        if flavor not in _LAWS:
            raise ValueError("flavor must be additive or multiplicative")
        return super().__new__(cls, fn, flavor, name, combine)

    def value(self, *args):
        v = self.fn(*args)
        if self.flavor == MULTIPLICATIVE and not v.is_unit():
            raise ValueError("not a unit")
        return v


CocycleReport = namedtuple("CocycleReport", "name inputs lhs rhs residual passed")


def coboundary2(f: GroupValuedMap, a, b):
    """(df)(a, b) = f(a) o f(b) o f(a+b)^(-1), in f's flavor."""
    op, inv = _LAWS[f.flavor]
    fa = f.value(a)
    fb = f.value(b)
    fab = f.value(f.combine(a, b))
    return op(op(fa, fb), inv(fab))


def cocycle2_check(F: GroupValuedMap, a, b, c) -> CocycleReport:
    """F(a,b) o F(a+b,c) against F(b,c) o F(a,b+c), in F's flavor."""
    op, inv = _LAWS[F.flavor]
    ab = F.combine(a, b)
    bc = F.combine(b, c)
    lhs = op(F.value(a, b), F.value(ab, c))
    rhs = op(F.value(b, c), F.value(a, bc))
    return CocycleReport(F.name, (a, b, c), lhs, rhs, op(lhs, inv(rhs)), lhs == rhs)


def coboundary_of_coboundary_is_trivial(f: GroupValuedMap, a, b, c) -> CocycleReport:
    """d(df) = df(b,c) o df(a+b,c)^(-1) o df(a,b+c) o df(a,b)^(-1) must be neutral."""
    op, inv = _LAWS[f.flavor]

    def df(x, y):
        return coboundary2(f, x, y)

    ab = f.combine(a, b)
    bc = f.combine(b, c)
    residual = op(op(op(df(b, c), inv(df(ab, c))), df(a, bc)), inv(df(a, b)))
    neutral = op(residual, inv(residual))
    return CocycleReport(f"d(d {f.name})", (a, b, c), residual, neutral,
                         residual, residual == neutral)
