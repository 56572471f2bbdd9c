"""Arithmetic in (Z/m)[X]/(f), f monic, on tuples of plain int residues.

Z/p^N (m = p^N, f = X), F_q (m = p, f the field modulus), Z_q (m = p^N,
f the lifted field modulus), the pi-ring (m = p^N, f = X^(p-1) + p) and the
truncated polynomials of gamma's block products (m = p^N, f = X^N, where
nothing folds back) are all this ring shape, so they share one
multiplication and one power: quotient.QuotientElem, the base of the
Z/p^N, F_q, Z_q and pi-ring elements, calls them, and so does gamma for
its truncated products.  An element is a length-n tuple of coefficients in
[0, m), lowest degree first, with n = deg f; f is given as its n + 1
integer coefficients, lowest first, ending in 1.

Multiplication is Kronecker substitution (D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44, 2009): both factors are packed into one int, one bigint multiply forms
the whole product polynomial, and the reduction mod f stays packed too.
With g = X^n mod f = -(f_0, ..., f_(n-1)) of degree d, the product splits
into its n low slots and n - 1 high slots; the first split = n - d high
slots fold in one more bigint product with g, since X^j g(X) has degree
< n for j < split, and each later high slot adds its coefficient times a
packed wrap row X^(n+j) mod f.  The slots are w bits wide, with w the bit
length of n (m-1)^2 (1 + (n-1)(m-1)), so no folded coefficient carries
into the next slot, and each of the n result slots is reduced mod m once.
g, split, w and the rows are built once per (f, m).  The pi-ring relation
X^(p-1) + p has d = 0 and the truncation X^N has g = 0, so neither builds
a row; dense F_q and Z_q moduli keep n - 2.  At n = 1 the ring
(Z/m)[X]/(X + f_0) is Z/m itself, so a product is one int product mod m
and a power is pow(a_0, e, m).

Base-p digits exist only at the text/JSON boundary: to_digits and
from_digits convert between a residue mod p^N and its N little-endian
digits.  zp_ring's cocycle_sum reads its digits by divmod on the value.

The prime helpers live here too: this module imports nothing from the
package, so every module can import them without a cycle.
"""

from __future__ import annotations

from functools import lru_cache


def mulmod(a: tuple, b: tuple, f: tuple, m: int) -> tuple:
    """a * b in (Z/m)[X]/(f); a and b hold residues in [0, m)."""
    if len(a) == 1:  # (Z/m)[X]/(X + f_0) is Z/m
        return (a[0] * b[0] % m,)
    return _fold_mul(a, b, m, _folding(f, m))


@lru_cache(maxsize=64)  # bounded: fq_make tries many moduli per field
def _folding(f: tuple, m: int) -> tuple:
    """n, the slot width w, packed g = X^n mod f, split = n - deg g and the
    packed wrap rows X^(n+j) mod f for split <= j <= n - 2; deg f >= 2."""
    n = len(f) - 1
    # a folded slot is a product slot, <= n (m-1)^2, plus at most one term
    # per high slot, each <= n (m-1)^2 (m-1): w bits hold it with no carry
    w = (n * (m - 1) ** 2 * (1 + (n - 1) * (m - 1))).bit_length()
    g = [-c % m for c in f[:n]]
    split = n - max((i for i, c in enumerate(g) if c), default=0)
    row = ([0] * (split - 1) + g)[:n]  # X^(n+split-1) = X^(split-1) g, degree n - 1
    rows = []
    for _ in range(split, n - 1):  # row = X^(n+j) mod f
        top = row[-1]
        row = [(c + top * gi) % m for c, gi in zip([0] + row[:-1], g)]
        rows.append(_pack(row, w))
    return n, w, _pack(g, w), split, tuple(rows)


def _fold_mul(a: tuple, b: tuple, m: int, folding: tuple) -> tuple:
    """a * b reduced through the _folding data: O(n) bigint steps."""
    n, w, g, split, rows = folding
    packed = _pack(a, w)
    packed *= packed if b is a else _pack(b, w)
    high = packed >> n * w
    acc = (packed & ((1 << n * w) - 1)) + (high & ((1 << split * w) - 1)) * g
    mask = (1 << w) - 1
    for j, row in enumerate(rows, split):
        acc += (high >> j * w & mask) * row
    out = []
    for _ in range(n):
        out.append((acc & mask) % m)
        acc >>= w
    return tuple(out)


def _pack(coeffs, bits: int) -> int:
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
    folding = _folding(f, m)
    r = a
    for bit in bin(e)[3:]:
        r = _fold_mul(r, r, m, folding)
        if bit == "1":
            r = _fold_mul(r, a, m, folding)
    return r


def scalar_multiples(vectors: list, scalars: list, m: int) -> list:
    """[s v for s in scalars for v in vectors], coefficient-wise mod m.

    One flat pass per coordinate, transposed back to tuples by zip: a
    multiple costs one int product mod m per coefficient and no call.
    """
    return list(zip(*[[s * x % m for s in scalars for x in col] for col in zip(*vectors)]))


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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_odd_prime(p: int) -> None:
    """Refuse p = 2 and non-primes, as Gamma_p and the pi-ring do."""
    if p == 2:
        raise ValueError("p=2 unsupported")
    if not is_prime(p):
        raise ValueError("not prime")


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple[int, int]:
    """(p, n) with q = p^n and n >= 1; ValueError unless q is a prime power."""
    primes = prime_factors(q)
    if len(primes) != 1:
        raise ValueError("q must be a prime power")
    p, n = primes[0], 1
    while p**n < q:
        n += 1
    return p, n
