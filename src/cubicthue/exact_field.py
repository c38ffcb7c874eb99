"""Exact arithmetic in the cubic order Z[lam0].

lam0 is the largest root of x^3 - (n-1)x^2 - (n+2)x - 1, so products reduce
through

    lam0^3 = (n-1)*lam0^2 + (n+2)*lam0 + 1.

Elements are integer coordinate triples in the basis (1, lam0, lam0^2) and
carry their family parameter n.  The other two roots are units of this order,
and the units the twists are built from have closed forms, each checked by
multiplying out with the relation above:

    lam1 = -1/(lam0 + 1)     = lam0^2 - n*lam0 - 2,
    lam2 = -(lam0 + 1)/lam0  = -lam0^2 + (n-1)*lam0 + (n+1),
    1/lam0                   = lam0^2 - (n-1)*lam0 - (n+2),
    1/lam1                   = -(lam0 + 1).

The trace is linear, so it is fixed by the traces of the basis, the power
sums of the three roots:

    Tr(c0 + c1*lam0 + c2*lam0^2) = 3*c0 + (n-1)*c1 + ((n-1)^2 + 2(n+2))*c2.

The multiplication matrix, the norm and the adjugate inverse are the general
path for any element, and the oracle the closed forms are tested against.

Everything is immutable; all operations return fresh values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MismatchedParameters, NotAUnit


@dataclass(frozen=True)
class FieldInt:
    """c0 + c1*lam0 + c2*lam0^2 with arbitrary-precision integer coordinates."""

    n: int
    c0: int
    c1: int
    c2: int

    def __add__(self, other):
        other = _coerce(other, self.n)
        _check_same_n(self, other)
        return FieldInt(self.n, self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other, self.n))

    def __rsub__(self, other):
        return _coerce(other, self.n) + (-self)

    def __neg__(self):
        return FieldInt(self.n, -self.c0, -self.c1, -self.c2)

    def __mul__(self, other):
        other = _coerce(other, self.n)
        return reduce_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return unit_power(self, k)

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0 and self.c2 == 0

    def coords(self):
        return (self.c0, self.c1, self.c2)

    def embed(self, root):
        """Numeric value of the element at a numeric approximation of lam0."""
        return self.c0 + root * (self.c1 + root * self.c2)


def _coerce(value, n):
    if isinstance(value, FieldInt):
        return value
    if isinstance(value, int):
        return FieldInt(n, value, 0, 0)
    raise TypeError(f"cannot mix FieldInt with {type(value).__name__}")


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


def lam2(n: int) -> FieldInt:
    """lam2 = -(lam0 + 1)/lam0 = -lam0^2 + (n-1)*lam0 + (n+1)."""
    return FieldInt(n, n + 1, n - 1, -1)


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


def multiplication_matrix(a: FieldInt):
    """3x3 integer matrix of y -> a*y in the basis (1, lam0, lam0^2), columns = images."""
    n = a.n
    cols = [a, reduce_mul(a, lam0(n)), reduce_mul(a, FieldInt(n, 0, 0, 1))]
    return [[c.c0 for c in cols], [c.c1 for c in cols], [c.c2 for c in cols]]


def trace(a: FieldInt) -> int:
    """Sum of the three conjugates, from the traces 3, n-1, (n-1)^2 + 2(n+2) of the basis."""
    p = a.n - 1
    return 3 * a.c0 + p * a.c1 + (p * p + 2 * (a.n + 2)) * a.c2


def norm(a: FieldInt) -> int:
    """Product of the three conjugates = determinant of the multiplication matrix."""
    m = multiplication_matrix(a)
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def invert_unit(a: FieldInt) -> FieldInt:
    """Exact inverse of a unit via the adjugate of the multiplication matrix.

    Branch-free: coordinates of a^-1 are the first-row cofactors divided by
    the determinant, which is +-1 for units.
    """
    m = multiplication_matrix(a)
    c00 = m[1][1] * m[2][2] - m[1][2] * m[2][1]
    c01 = -(m[1][0] * m[2][2] - m[1][2] * m[2][0])
    c02 = m[1][0] * m[2][1] - m[1][1] * m[2][0]
    d = m[0][0] * c00 + m[0][1] * c01 + m[0][2] * c02
    if d not in (1, -1):
        raise NotAUnit(f"norm is {d}, not +-1")
    return FieldInt(a.n, c00 * d, c01 * d, c02 * d)


def unit_power(a: FieldInt, k: int) -> FieldInt:
    """a**k by binary powering; negative k inverts the base once, then powers.

    Inverting the base first (rather than the final power) keeps intermediate
    coordinate growth linear in |k|.
    """
    if k < 0:
        a = invert_unit(a)
        k = -k
    acc = one(a.n)
    base = a
    while k:
        if k & 1:
            acc = reduce_mul(acc, base)
        base = reduce_mul(base, base)
        k >>= 1
    return acc


def alpha_element(n: int, s: int, t: int) -> FieldInt:
    """The twist unit lam0^s * lam1^t as an exact element of Z[lam0].

    Negative exponents power the closed-form inverses.
    """
    b0 = lam0(n) if s >= 0 else inv_lam0(n)
    b1 = lam1(n) if t >= 0 else inv_lam1(n)
    return reduce_mul(unit_power(b0, abs(s)), unit_power(b1, abs(t)))
