"""Morita's p-adic Gamma function and the Beta unit it cobounds.

gamma_p agrees with (-1)^m * prod_{0<j<m, p!|j} j on nonnegative integers
and extends continuously to Z_p for odd p: arguments congruent mod p^k give
values congruent mod p^k, which the tests and verify (at N >= 3) check
exhaustively below p^3 instead of assuming.  beta_p(a, b) =
gamma_p(a) gamma_p(b) / gamma_p(a+b), for a and b in one ring (two rings
raise "ring mismatch", as + does), is always a unit and coincides
bit-for-bit with the generic multiplicative 2-coboundary of gamma_p.

The product is never walked factor by factor.  By continuity m may first
be reduced mod p^N.  The p-1 units of each block of p consecutive integers
multiply to F_0(x) = prod_{0<i<p} (xp + i), whose x^s coefficient is
divisible by p^s, so mod p^N the polynomial truncated to degree < N is
exact.  The blocks of p^(l+1) integers multiply to F_{l+1}(x) =
prod_{d<p} F_l(xp + d), whose x^s coefficient is divisible by p^(s(l+2)),
so F_l is exact at n = ceil(N/(l+1)) coefficients, a truncated product in
(Z/p^N)[x]/(x^n).  The product below m is one Horner evaluation of F_l per
unit of the l-th base-p digit of m // p, times fewer than p tail factors.
The N-1 levels of each (p, N) are built once into a bounded cache
(_LEVEL_KEYS keys), costing about p N^2 N-digit additions; no N is refused.

The values themselves are memoized too: after validation gamma_p_integer
reads a bounded least-recently-used cache (_VALUE_KEYS keys) keyed on
(m mod p^N, p, N).  The verify sweeps ask for the same few hundred
residues thousands of times (the functional equation, the continuity
classes and the Beta coboundary and cocycle all revisit them), and every
compared value still comes from the same pure function.

p = 2 is rejected throughout: its continuity modulus differs and nothing
here needs it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import PrecisionError
from .residue import check_odd_prime, mulmod
from .zp_ring import PAdicInt

_LEVEL_KEYS = 32  # (p, N) pairs whose block polynomials stay cached
_VALUE_KEYS = 1024  # (m mod p^N, p, N) triples whose Gamma_p values stay cached


EquationReport = namedtuple("EquationReport", "argument lhs rhs branch passed")


def _next_level(f: list, p: int, mod: int, n: int) -> tuple:
    """prod_{d<p} f(xp + d), truncated to n <= len(f) coefficients."""
    truncation = (0,) * n + (1,)  # the relation x^n: nothing folds back
    scale = [pow(p, s, mod) for s in range(n)]
    g = list(f)  # f(x + d), starting at d = 0
    acc = (1,) + (0,) * (n - 1)
    for _ in range(p):
        acc = mulmod(acc, tuple(c * t % mod for c, t in zip(g, scale)), truncation, mod)
        for i in range(len(g) - 1):  # Taylor shift g(x) -> g(x + 1)
            for j in range(len(g) - 2, i - 1, -1):
                g[j] += g[j + 1]
        g = [c % mod for c in g]
    return acc


@lru_cache(maxsize=_LEVEL_KEYS)
def _block_levels(p: int, precision: int) -> tuple:
    """F_0, ..., F_{N-2} mod p^N, lowest first, F_l at ceil(N/(l+1)) coefficients."""
    mod = p**precision
    f = [1] + [0] * (precision - 1)
    for i in range(1, p):  # times (i + p x)
        f = [(i * c + p * b) % mod for c, b in zip(f, [0] + f)]
    levels = [f]
    for level in range(1, precision - 1):
        levels.append(_next_level(levels[-1], p, mod, -(-precision // (level + 1))))
    return tuple(tuple(f) for f in levels)


def gamma_p_integer(m: int, p: int, precision: int) -> PAdicInt:
    """Gamma_p(m) = (-1)^m * prod_{0<j<m, p!|j} j, reduced mod p^N.

    Gamma_p(0) = 1 by the empty-product convention.  Any m >= 0 is
    accepted: m is first reduced mod p^N, exact by continuity, and the
    value is read from the memo of _gamma_residue (see the module
    docstring), so the cost grows with p and N, not m.
    """
    check_odd_prime(p)
    if m < 0:
        raise ValueError("argument must be >= 0")
    if precision < 1:
        raise PrecisionError("precision must be >= 1")
    return _gamma_residue(m % p**precision, p, precision)


@lru_cache(maxsize=_VALUE_KEYS)
def _gamma_residue(m: int, p: int, precision: int) -> PAdicInt:
    """Gamma_p(m) for 0 <= m < p^N, through the block polynomials of (p, N)."""
    mod = p**precision
    k = m // p
    acc = 1
    for i in range(k * p + 1, m):
        acc = acc * i % mod
    # blocks below k * p: level l covers its digit's worth of p^l-blocks
    for f in _block_levels(p, precision):
        if not k:
            break
        k, digit = divmod(k, p)
        for x in range(k * p, k * p + digit):
            v = 0
            for c in reversed(f):
                v = (v * x + c) % mod
            acc = acc * v % mod
    if m % 2:
        acc = -acc % mod
    return PAdicInt.from_integer(acc, p, precision)


def gamma_p(x: PAdicInt) -> PAdicInt:
    """Gamma_p at a p-adic integer: the value at any nonnegative lift.

    Well-defined at precision N because of the continuity property; the
    canonical representative in [0, p^N) is the lift actually used.
    """
    ring = x.ring
    return gamma_p_integer(x.residues[0], ring.p, ring.precision)


def beta_p(a: PAdicInt, b: PAdicInt) -> PAdicInt:
    """The Beta unit gamma_p(a) gamma_p(b) / gamma_p(a+b), for a, b in one ring."""
    # a + b first: two rings raise "ring mismatch" before any Gamma_p is formed
    return gamma_p(a + b).unit_inverse() * gamma_p(a) * gamma_p(b)


def functional_equation_check(x: PAdicInt) -> EquationReport:
    """Gamma_p(x+1) = -x Gamma_p(x) for unit x, and = -Gamma_p(x) otherwise."""
    lhs = gamma_p(x + 1)
    if x.is_unit():
        rhs = -x * gamma_p(x)
        branch = "unit"
    else:
        rhs = -gamma_p(x)
        branch = "divisible"
    return EquationReport(x, lhs, rhs, branch, lhs == rhs)
