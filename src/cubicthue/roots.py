"""Certified arbitrary-precision values of the three roots and the regulator.

The largest root lam0 of f(x) = x^3 - (n-1)x^2 - (n+2)x - 1 lies in the
bracket (n, n+2) for every n >= 0, since

    f(n) = -2n - 1 < 0 < 2(n+2)^2 - 1 = f(n+2),

and a safeguarded Newton iteration polishes it there.  The field is cyclic
(Shanks' simplest cubic fields), so the Galois action gives the other two
roots exactly from lam0:

    lam1 = -1/(lam0 + 1) in (-1, 0),    lam2 = -(lam0 + 1)/lam0 in (-2, -1).

Each of the three values is re-certified by an exact sign change across
[x - delta, x + delta], so the reported error bound does not depend on
floating-point luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf, workprec

from .errors import PrecisionExhausted

_NEWTON_MAX_ITER = 400


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


def _poly_sign_exact(n: int, value: Fraction) -> int:
    """Exact sign of f(value) for rational value, via integer arithmetic."""
    p, q = value.numerator, value.denominator
    v = p**3 - (n - 1) * p * p * q - (n + 2) * p * q * q - q**3
    return (v > 0) - (v < 0)


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    m = -man if sign else man
    if exp >= 0:
        return Fraction(m << exp, 1)
    return Fraction(m, 1 << -exp)


def _newton_refine(n: int, wp: int):
    """Safeguarded Newton for lam0 inside (n, n+2), where f changes sign from - to +."""

    def f(x):
        return x**3 - (n - 1) * x * x - (n + 2) * x - 1

    def fp(x):
        return 3 * x * x - 2 * (n - 1) * x - (n + 2)

    with workprec(wp):
        a, b = mpf(n), mpf(n + 2)
        x = (a + b) / 2
        tol = mpf(2) ** (4 - wp)
        for _ in range(_NEWTON_MAX_ITER):
            fx = f(x)
            if fx == 0:
                return x
            # keep the bracket shrinking so a bad Newton step cannot escape
            if fx < 0:
                a = x
            else:
                b = x
            d = fp(x)
            x_new = x - fx / d if d != 0 else (a + b) / 2
            if not (a <= x_new <= b):
                x_new = (a + b) / 2
            delta = abs(x_new - x)
            x = x_new
            if delta <= tol * x or b - a <= tol * x:
                return x
        raise PrecisionExhausted(f"Newton did not converge at {wp} bits for n={n}")


def _certify(n: int, x, out_bits: int):
    """Exact sign change across [x-delta, x+delta] with delta ~ 2^-out_bits * scale."""
    xf = _mpf_to_fraction(x)
    scale = max(abs(xf), Fraction(1))
    delta = scale / (1 << out_bits)
    if _poly_sign_exact(n, xf - delta) * _poly_sign_exact(n, xf + delta) < 0:
        return
    raise PrecisionExhausted(
        f"could not certify root of f_{n} within 2^-{out_bits} of computed value"
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
    l0 = _newton_refine(n, wp)
    with workprec(wp):
        lams = (l0, -1 / (l0 + 1), -(l0 + 1) / l0)
        logs = tuple(mp.log(abs(v)) for v in lams)
        reg = abs(logs[1] * logs[0] - logs[2] * logs[2])
    for v in lams:
        _certify(n, v, precision_bits - 8)
    return RootSet(n, precision_bits, *lams, logs, reg)


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
