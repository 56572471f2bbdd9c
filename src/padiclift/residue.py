"""Arithmetic in (Z/m)[X]/(f), f monic, on tuples of plain int residues.

F_q (m = p, f the field modulus), Z_q (m = p^N, f the lifted field modulus),
the pi-ring (m = p^N, f = X^(p-1) + p) and the truncated polynomials of
gamma's block products (m = p^N, f = X^N, where nothing folds back) are all
this ring shape, so they share one multiplication and one power: gfq calls
them for F_q, gamma for its truncated products, and quotient.QuotientElem,
the base of the Z_q and pi-ring elements.  An element is a length-n tuple
of coefficients in [0, m), lowest degree first, with n = deg f; f is given
as its n + 1 integer coefficients, lowest first, ending in 1.

Multiplication is Kronecker substitution: both factors are packed into one
int with slots wide enough for any product coefficient, one bigint multiply
forms the whole product polynomial, and the unpacked coefficients are
folded back through f (D. Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symbolic Comput. 44, 2009).  At
n = 1 the ring (Z/m)[X]/(X + f_0) is Z/m itself, so a product is one int
product mod m and a power is pow(a_0, e, m).

Base-p digits exist only at the text/JSON boundary: to_digits and
from_digits convert between a residue mod p^N and its N little-endian
digits.  zp_ring's cocycle_sum reads its digits by divmod on the value.
"""

from __future__ import annotations


def mulmod(a: tuple, b: tuple, f: tuple, m: int) -> tuple:
    """a * b in (Z/m)[X]/(f); a and b hold residues in [0, m)."""
    n = len(a)
    if n == 1:  # (Z/m)[X]/(X + f_0) is Z/m
        return (a[0] * b[0] % m,)
    # a product coefficient is a sum of at most n terms, each <= (m-1)^2
    bits = (n * (m - 1) ** 2).bit_length()
    packed = _pack(a, bits)
    packed *= packed if b is a else _pack(b, bits)
    mask = (1 << bits) - 1
    prod = []
    for _ in range(2 * n - 1):
        prod.append(packed & mask)
        packed >>= bits
    # X^k = -X^(k-n) (f_0 + ... + f_(n-1) X^(n-1)), from the top degree down
    low = f[:n]
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k] % m
        if c:
            for i, fi in enumerate(low, k - n):
                if fi:
                    prod[i] -= c * fi
    return tuple(c % m for c in prod[:n])


def _pack(coeffs: tuple, bits: int) -> int:
    packed = 0
    for c in reversed(coeffs):
        packed = (packed << bits) | c
    return packed


def powmod(a: tuple, e: int, f: tuple, m: int) -> tuple:
    """a^e in (Z/m)[X]/(f) for e >= 0, by left-to-right square and multiply."""
    if len(a) == 1:
        return (pow(a[0], e, m),)
    if e == 0:
        return (1,) + (0,) * (len(a) - 1)
    r = a
    for bit in bin(e)[3:]:
        r = mulmod(r, r, f, m)
        if bit == "1":
            r = mulmod(r, a, f, m)
    return r


def to_digits(k: int, p: int, count: int) -> tuple:
    """The count little-endian base-p digits of k mod p^count."""
    k %= p**count
    digits = []
    for _ in range(count):
        k, d = divmod(k, p)
        digits.append(d)
    return tuple(digits)


def from_digits(digits, p: int) -> int:
    """The integer whose little-endian base-p digits are digits."""
    k = 0
    for d in reversed(digits):
        k = k * p + d
    return k
