"""Exact arithmetic in the cubic order Z[lam0].

lam0 is the largest root of x^3 - (n-1)x^2 - (n+2)x - 1, so products reduce
through

    lam0^3 = (n-1)*lam0^2 + (n+2)*lam0 + 1.

Elements are integer coordinate triples in the basis (1, lam0, lam0^2) and
carry their family parameter n.  The other two roots are units of this order,
and the units the twists are built from have closed forms, each checked by
multiplying out with the relation above:

    lam1 = -1/(lam0 + 1)     = lam0^2 - n*lam0 - 2,
    1/lam0                   = lam0^2 - (n-1)*lam0 - (n+2),
    1/lam1                   = -(lam0 + 1).

The trace is linear, so it is fixed by the traces of the basis, the power
sums of the three roots:

    Tr(c0 + c1*lam0 + c2*lam0^2) = 3*c0 + (n-1)*c1 + ((n-1)^2 + 2(n+2))*c2.

Everything is immutable; all operations return fresh values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MismatchedParameters


@dataclass(frozen=True)
class FieldInt:
    """c0 + c1*lam0 + c2*lam0^2 with arbitrary-precision integer coordinates."""

    n: int
    c0: int
    c1: int
    c2: int

    def __neg__(self):
        return FieldInt(self.n, -self.c0, -self.c1, -self.c2)


def _check_same_n(a: FieldInt, b: FieldInt):
    if a.n != b.n:
        raise MismatchedParameters(f"family parameters differ: {a.n} != {b.n}")


def one(n: int) -> FieldInt:
    return FieldInt(n, 1, 0, 0)


def lam0(n: int) -> FieldInt:
    return FieldInt(n, 0, 1, 0)


def lam1(n: int) -> FieldInt:
    """lam1 = -1/(lam0 + 1) = lam0^2 - n*lam0 - 2."""
    return FieldInt(n, -2, -n, 1)


def inv_lam0(n: int) -> FieldInt:
    """1/lam0 = lam0^2 - (n-1)*lam0 - (n+2)."""
    return FieldInt(n, -(n + 2), 1 - n, 1)


def inv_lam1(n: int) -> FieldInt:
    """1/lam1 = -(lam0 + 1)."""
    return FieldInt(n, -1, -1, 0)


def reduce_mul(a: FieldInt, b: FieldInt) -> FieldInt:
    """Exact product, reduced back into the basis (1, lam0, lam0^2).

    Uses lam0^3 = (n-1)lam0^2 + (n+2)lam0 + 1 and
         lam0^4 = ((n-1)^2 + n+2)lam0^2 + ((n-1)(n+2) + 1)lam0 + (n-1).
    """
    _check_same_n(a, b)
    n = a.n
    e0 = a.c0 * b.c0
    e1 = a.c0 * b.c1 + a.c1 * b.c0
    e2 = a.c0 * b.c2 + a.c1 * b.c1 + a.c2 * b.c0
    e3 = a.c1 * b.c2 + a.c2 * b.c1
    e4 = a.c2 * b.c2
    p = n - 1
    q = n + 2
    return FieldInt(
        n,
        e0 + e3 + e4 * p,
        e1 + e3 * q + e4 * (p * q + 1),
        e2 + e3 * p + e4 * (p * p + q),
    )


def trace(a: FieldInt) -> int:
    """Sum of the three conjugates, from the traces 3, n-1, (n-1)^2 + 2(n+2) of the basis."""
    p = a.n - 1
    return 3 * a.c0 + p * a.c1 + (p * p + 2 * (a.n + 2)) * a.c2


def unit_power(a: FieldInt, k: int) -> FieldInt:
    """a**k for k >= 0 by binary powering (alpha_element powers the closed-form
    inverses for negative exponents).  The power starts from the base, not from
    one, and nothing is squared after the top bit, so k >= 1 costs
    bitlen(k) + popcount(k) - 2 products.
    """
    if k < 0:
        raise ValueError(f"unit_power needs k >= 0, got {k}")
    if k == 0:
        return one(a.n)
    acc = None
    while True:
        if k & 1:
            acc = a if acc is None else reduce_mul(acc, a)
        k >>= 1
        if not k:
            return acc
        a = reduce_mul(a, a)


def alpha_element(n: int, s: int, t: int) -> FieldInt:
    """The twist unit lam0^s * lam1^t as an exact element of Z[lam0].

    Negative exponents power the closed-form inverses; a zero exponent costs
    no product.
    """
    b0 = lam0(n) if s >= 0 else inv_lam0(n)
    b1 = lam1(n) if t >= 0 else inv_lam1(n)
    if t == 0:
        return unit_power(b0, abs(s))
    if s == 0:
        return unit_power(b1, abs(t))
    return reduce_mul(unit_power(b0, abs(s)), unit_power(b1, abs(t)))
