"""Structure-agnostic 2-cocycle and 2-coboundary checkers.

One reusable test form covers every coboundary/cocycle identity in the
package: digit carries, the universal carry polynomial, the Beta unit, and
the Gauss-sum coboundary are all instances over different abelian groups.
Maps are wrapped with a flavor tag; additive values combine with + and
multiplicative values with *, in which case every evaluated value must be
a unit of its ring.

GroupValuedMap and CocycleReport are immutable named tuples: their fields
read by name, and a report serialises through _asdict() in field order.
"""

from __future__ import annotations

from collections import namedtuple

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


def _default_combine(a, b):
    return a + b


class GroupValuedMap(namedtuple("GroupValuedMap", "fn flavor name combine")):
    """A 1- or 2-argument map into a commutative monoid of values.

    combine is the group law on *arguments* (defaults to +).  In
    multiplicative flavor values are inverted by their own
    unit_inverse/inverse method.
    """

    __slots__ = ()

    def __new__(cls, fn, flavor, name="f", combine=_default_combine):
        if flavor not in (ADDITIVE, MULTIPLICATIVE):
            raise ValueError("flavor must be additive or multiplicative")
        return super().__new__(cls, fn, flavor, name, combine)

    def value(self, *args):
        v = self.fn(*args)
        if self.flavor == MULTIPLICATIVE and not _is_unit(v):
            raise ValueError("not a unit")
        return v

    def invert_value(self, v):
        for attr in ("unit_inverse", "inverse"):
            method = getattr(v, attr, None)
            if method is not None:
                return method()
        raise TypeError(f"no inverse available for {type(v).__name__}")


def _is_unit(v) -> bool:
    probe = getattr(v, "is_unit", None)
    if probe is not None:
        return probe()
    return v != 0  # plain numbers


CocycleReport = namedtuple("CocycleReport", "name inputs lhs rhs residual passed")


def coboundary2(f: GroupValuedMap, a, b):
    """(df)(a, b): f(a) + f(b) - f(a+b), or f(a) f(b) f(a+b)^(-1)."""
    fa = f.value(a)
    fb = f.value(b)
    fab = f.value(f.combine(a, b))
    if f.flavor == ADDITIVE:
        return fa + fb - fab
    return fa * fb * f.invert_value(fab)


def cocycle2_check(F: GroupValuedMap, a, b, c) -> CocycleReport:
    """F(a,b) o F(a+b,c) against F(b,c) o F(a,b+c), in F's flavor."""
    ab = F.combine(a, b)
    bc = F.combine(b, c)
    if F.flavor == ADDITIVE:
        lhs = F.value(a, b) + F.value(ab, c)
        rhs = F.value(b, c) + F.value(a, bc)
        residual = lhs - rhs
    else:
        lhs = F.value(a, b) * F.value(ab, c)
        rhs = F.value(b, c) * F.value(a, bc)
        residual = lhs * F.invert_value(rhs)
    return CocycleReport(F.name, (a, b, c), lhs, rhs, residual, lhs == rhs)


def coboundary_of_coboundary_is_trivial(f: GroupValuedMap, a, b, c) -> CocycleReport:
    """d(df) evaluated at (a, b, c) must be the neutral value."""
    def df(x, y):
        return coboundary2(f, x, y)

    ab = f.combine(a, b)
    bc = f.combine(b, c)
    if f.flavor == ADDITIVE:
        residual = df(b, c) - df(ab, c) + df(a, bc) - df(a, b)
        neutral = residual - residual
    else:
        residual = df(b, c) * f.invert_value(df(ab, c)) \
            * df(a, bc) * f.invert_value(df(a, b))
        neutral = residual * f.invert_value(residual)
    return CocycleReport(f"d(d {f.name})", (a, b, c), residual, neutral,
                         residual, residual == neutral)
