"""Certified arbitrary-precision values of the three roots and the regulator.

The largest root lam0 of f(x) = x^3 - (n-1)x^2 - (n+2)x - 1 lies in the
bracket (n, n+2) for every n >= 0, since

    f(n) = -2n - 1 < 0 < 2(n+2)^2 - 1 = f(n+2).

It is computed in integers as X = floor(lam0 * 2^k), by Newton's method on

    F(X) = 2^(3k) f(X / 2^k) = X^3 - (n-1) 2^k X^2 - (n+2) 2^(2k) X - 2^(3k),

with the step X - floor(F(X) / F'(X)).  f is increasing and convex to the
right of its inflection point (n-1)/3 < lam0, so from any start there (the
seed is n + 1, within 1 of lam0) every step lands at or above lam0, the
floor only adding to that, and the iterates fall to lam0 from above.  At
the lowest precision the steps run until they stop moving X, which leaves
X less than two units above lam0 * 2^k.  Each later level doubles the
precision, less four guard bits: with an error e < 2^(1-p) at p bits, the
Newton error is C e^2 with C = f''/(2 f') < 0.92 near lam0 for every n >= 0,
so at 2p - 4 bits it is below a quarter unit, and with the floor X stays
less than two units above lam0 * 2^k.  The result is then stepped down to
the exact bracket

    F(X) <= 0 < F(X + 1),

which decides floor(lam0 * 2^k) whatever the error analysis says.

The field is cyclic (Shanks' simplest cubic fields), so the Galois action
gives the other two roots exactly from lam0:

    lam1 = -1/(lam0 + 1) in (-1, 0),    lam2 = -(lam0 + 1)/lam0 in (-2, -1),

and two logarithms give all three: log|lam1| = -log(lam0 + 1) and
log|lam2| = -log|lam0| - log|lam1|.  Each of the three root values x is
re-certified by an exact sign change of f across x(1 - 2^-b) and
x(1 + 2^-b), evaluated as F on the integer mantissa of the mpf, so the
reported relative error bound does not depend on floating-point luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf, workprec

from .errors import PrecisionExhausted

_BASE_BITS = 32   # Newton runs to convergence at this precision, then doubles it
_GUARD_BITS = 4   # kept in hand at each doubling, so the rounding of a step cannot compound


@dataclass(frozen=True)
class RootSet:
    n: int
    precision_bits: int
    lambda0: object
    lambda1: object
    lambda2: object
    log_abs_lambda: tuple
    regulator: object

    @property
    def lambdas(self):
        return (self.lambda0, self.lambda1, self.lambda2)


@dataclass(frozen=True)
class AlphaTriple:
    """The twisted conjugates alpha1 = lam0^s lam1^t, alpha2 = lam1^s lam2^t, alpha3 = lam2^s lam0^t.

    roots is the RootSet they were powered from; its precision_bits is the
    working precision for arithmetic on the conjugates.
    """

    n: int
    s: int
    t: int
    precision_bits: int
    alpha1: object
    alpha2: object
    alpha3: object
    roots: RootSet

    @property
    def alphas(self):
        return (self.alpha1, self.alpha2, self.alpha3)


def _scaled_f(n: int, x: int, k: int) -> int:
    """F(x) = 2^(3k) f(x / 2^k), exactly, for integers x and k >= 0."""
    return ((x - ((n - 1) << k)) * x - ((n + 2) << 2 * k)) * x - (1 << 3 * k)


def _scaled_fprime(n: int, x: int, k: int) -> int:
    """F'(x) = 2^(2k) f'(x / 2^k)."""
    return (3 * x - ((n - 1) << (k + 1))) * x - ((n + 2) << 2 * k)


def _lam0_floor(n: int, k: int) -> int:
    """floor(lam0 * 2^k) for k >= 0, by Newton's method on F in integers.

    The precision doubles from step to step, less _GUARD_BITS, and the last
    step is followed by the exact bracket F(x) <= 0 < F(x + 1).
    """
    levels = []
    while k > _BASE_BITS:
        levels.append(k)
        k = (k + _GUARD_BITS + 1) // 2
    x = (n + 1) << k
    step = None
    while step != 0:
        step = _scaled_f(n, x, k) // _scaled_fprime(n, x, k)
        x -= step
    for q in reversed(levels):
        x <<= q - k
        k = q
        x -= _scaled_f(n, x, k) // _scaled_fprime(n, x, k)
    # x now lies above lam0 * 2^k by less than two units
    x -= 1
    while _scaled_f(n, x, k) > 0:
        x -= 1
    return x


def _certify(n: int, x, out_bits: int):
    """Exact sign change of f across x * (1 -+ 2^-out_bits)."""
    sign, man, exp, _ = x._mpf_
    m = -man if sign else man
    # the two ends are m * (2^out_bits -+ 1) * 2^e
    e = exp - out_bits
    k, shift = max(-e, 0), max(e, 0)
    f_lo = _scaled_f(n, ((m << out_bits) - m) << shift, k)
    f_hi = _scaled_f(n, ((m << out_bits) + m) << shift, k)
    if f_lo * f_hi < 0:
        return
    raise PrecisionExhausted(
        f"could not certify root of f_{n} within relative 2^-{out_bits} of computed value"
    )


@lru_cache(maxsize=512)
def compute_roots(n: int, precision_bits: int = 192) -> RootSet:
    """Certified roots, their log-absolute-values and the regulator.

    Raises PrecisionExhausted if any root cannot be certified to within
    2^-(precision_bits-8) relative error.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    wp = precision_bits + 32
    k = max(wp - n.bit_length(), 0)  # floor(lam0 * 2^k) then has about wp bits
    with workprec(wp):
        l0 = mpf((_lam0_floor(n, k), -k))
        lams = (l0, -1 / (l0 + 1), -(l0 + 1) / l0)
        log0, log1 = mp.log(l0), -mp.log(l0 + 1)
        log2 = -log0 - log1
        reg = abs(log1 * log0 - log2 * log2)
    for v in lams:
        _certify(n, v, precision_bits - 8)
    return RootSet(n, precision_bits, *lams, (log0, log1, log2), reg)


def alpha_precision(n: int, s: int, t: int, precision_bits: int) -> int:
    """Internal bits for lam powers: powering multiplies relative error by ~|exponent|.

    Rounded up to a multiple of 64 so nearby (s, t) share one cached root set.
    """
    growth = (abs(s) + abs(t)) * math.log2(n + 2)
    wp = precision_bits + int(math.ceil(growth)) + 32
    return ((wp + 63) // 64) * 64


@lru_cache(maxsize=4096)
def compute_alphas(n: int, s: int, t: int, precision_bits: int = 192) -> AlphaTriple:
    """The three twisted conjugate values with relative error < 2^-precision_bits."""
    wp = alpha_precision(n, s, t, precision_bits)
    rs = compute_roots(n, wp)
    with workprec(wp + 16):
        a1 = rs.lambda0**s * rs.lambda1**t
        a2 = rs.lambda1**s * rs.lambda2**t
        a3 = rs.lambda2**s * rs.lambda0**t
    return AlphaTriple(n, s, t, precision_bits, a1, a2, a3, rs)
