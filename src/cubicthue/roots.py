"""Certified arbitrary-precision values of the three roots and the regulator.

The largest root lam0 of f(x) = x^3 - (n-1)x^2 - (n+2)x - 1 lies in the
bracket (n, n+2) for every n >= 0, since

    f(n) = -2n - 1 < 0 < 2(n+2)^2 - 1 = f(n+2).

It is computed in integers as X = floor(lam0 * 2^k), by Newton's method on

    F(X) = 2^(3k) f(X / 2^k) = X^3 - (n-1) 2^k X^2 - (n+2) 2^(2k) X - 2^(3k),

forms.at_power of the form of (1, 0) at (X, 2^k), with the step
X - floor(F(X) / F'(X)).  f is increasing and convex to the right of its
inflection point (n-1)/3 < lam0, so from any start there (the seed is
n + 1, within 1 of lam0) every step lands at or above lam0, the floor only
adding to that, and the iterates fall to lam0 from above.  At the lowest
precision the steps run until they stop moving X, which leaves
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
log|lam2| = -log|lam0| - log|lam1|.

Fixed point.  The twisted conjugates, and everything the proof quantities
decide, are carried as integers over one power of two: a real x is held as
a numerator N with a radius r, both integers, such that

    |x - N / 2^K| <= r / 2^K.

The root set's K is k + bitlen(n), so lam0 is X * 2^(K - k) with radius
2^(K - k).  No fixed-point division by a small value is made: lam1 and lam2
come from one division each by a value of size about n (lam0 + 1 and lam0),

    lam1 = -1/(lam0 + 1),    lam2 = -1 - 1/lam0,

and the inverses from the Galois closed forms, which are additions:

    1/lam1 = -(lam0 + 1),    1/lam2 = -(lam1 + 1),    1/lam0 = -(lam2 + 1).

A product of N_a and N_b is floor(N_a N_b / 2^K), with radius
floor((|N_a| r_b + |N_b| r_a + r_a r_b) / 2^K) + 2: one unit for the floor
of the bound, one for the floor of the product.  A quotient M / D of an exact
M by D with radius r_D < D is floor(M / D), with radius
floor(M r_D / (D (D - r_D))) + 2.  Every log of a fixed-point value is
taken in integers by fixed_log, whose radius is the lemma in its docstring:
the radius of the argument relative to its size, every floor of the kernel,
|e| times the error of its log 2 and the tail of its series.  The logs of
the roots are fixed_log of the pairs of lam0 and lam0 + 1 (the second
negated), and log|lam2| = -log|lam0| - log|lam1| adds their radii; the logs
of the conjugate differences (AlphaTriple.diff_log) are fixed_log too, or
integer combinations of such logs and the root logs.  So every radius is an
integer bound that a test can check against a computation at more bits,
and no radius trusts a library's log.  The conjugates alpha_j come out as
N_j / 2^K with |alpha_j - N_j / 2^K| <= r_j / 2^K: products of powers
lam_j^e, each powered by squaring (of lam_j for e > 0, of 1/lam_j for
e < 0) once per root set (RootSet.power), so the triples powered from one
root set share them.  lam0 is certified by its exact bracket, and lam1 and
lam2 by an exact sign change of F between (N_j - r_j) / 2^K and
(N_j + r_j) / 2^K.  The fixed point is all a RootSet or an AlphaTriple
stores, and no module of the package makes a multiprecision float.  A root
set's two root logs and its regulator are taken when first read, and kept,
outside its ==, hash and repr: a solve and its records read them only for a
unit's log solve or b0.

A root set at K serves every K' < K by a floor shift, with no second Newton
run: N' = floor(N / 2^d) and r' = ceil(r / 2^d) + 1 for d = K - K'.  The
floor moves the value by less than one unit of 2^-K', and the true value is
within r / 2^K = (r / 2^d) / 2^K' of N / 2^K, so r' bounds the sum.  A
shifted set's logs and regulator are its source's, shifted so when first read.

Precision.  This is the one precision policy of the package.  The roots and
their inverses are below n + 3 in size, so log2 |alpha_j| is at most about
|s| + |t| times the base-2 log of n + 2, and powering multiplies the relative
error by about the exponent.  So every decision on the conjugates of (s, t)
at n starts at working_bits(n, weight, need) bits: need, plus weight times
the base-2 log of n + 2, rounded up.  For a caller that asks for b bits,

  - the roots (alpha_precision) take weight |s| + |t| and need b + 32,
    rounded up to a multiple of 64: at one n, nearby weights then share a
    floor shift of the root set and its powers, or a cached root set;
  - b0 and the window (proof_precision) take weight 2 and need b + 32: their
    triple, powered at alpha_precision of those bits (which counts the
    conjugates' size), has two powers of n + 2 more than a caller's at b.  A
    conjugate difference loses about one power of n at most (below 0.97 on
    st_box(8) up to n = 10^20), but b0 is decided only where
    min(v_bar, R - v_bar), about n^-k for the cell's depth k, lies beyond the
    radius of v1 + v2, which takes about b + (k + 1) log2(n + 2) bits.  k <= 1
    on 46 of the 64 cells of st_box(4) at n = 10^100 but is 13 at (-4, 4), and
    109 triples of st_box(4) escalate over n = 10^4 .. 10^400.  So the weight 2
    is a starting point: the radii decide, and escalate retries where they do not;
  - the candidates (candidate_precision) take |s| + |t| and the bits of the
    convergents, 2 log2(y_bound + 1) + 64, and at least b.

The cells of one n evaluated together (a scan's or a lemma harness's) are
planned by orbit_triples: one triple per phi-orbit, at the most bits its
cells ask, and one root set, at the largest alpha_precision of any cell,
floor-shifted once to each root_frac_bits the triples need (compute_alphas
is an orbit of one cell, whose root set needs no shift).  escalate is the
one retry loop of every decision the radii can leave open: the solver's
candidates, a solution's type and unit exponents, a difference's sign, b0,
the lemma residuals and the bound side's chain, crossover and w_bar margin
(with the constants of n at as many doublings, bounds._level).  It goes over
attempts(first), the first triple (the solve's, an orbit's, the one that
certified a record, or proof._one_cell's) and then compute_alphas at each
doubling of its bits, PRECISION_ATTEMPTS in all, or for the root expansions
over compute_roots at those doublings, and only when they run out raises
PrecisionExhausted (exit code 3), as no function but _certify_root also does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import PrecisionExhausted
from .forms import at_power, check_twist, phi_transform

_BASE_BITS = 32   # Newton runs to convergence at this precision, then doubles it
_GUARD_BITS = 4   # kept in hand at each doubling, so the rounding of a step cannot compound
_LOG_GUARD = 8    # fixed_log works 8 bits below the unit of its result
PRECISION_ATTEMPTS = 4  # escalate tries this many precisions, doubling between them
_MARGIN_BITS = 64       # the solver's first bits: beyond 2 log2(y_bound) + log2 max|alpha|


def _shifted(pairs, d: int) -> tuple:
    """The pairs floor-shifted down by d bits (see the module docstring)."""
    return tuple((num >> d, -(-r >> d) + 1) for num, r in pairs)


@dataclass(frozen=True)
class RootSet:
    """The fixed point of the module docstring, its logs and regulator taken when first read."""

    n: int
    precision_bits: int
    # the fixed point of the module docstring: (numerator, radius) pairs over 2^frac_bits
    frac_bits: int
    lam_fixed: tuple        # lam0, lam1, lam2; lam0's numerator is the Newton floor X times 2^(K - k)
    inv_fixed: tuple        # 1/lam0, 1/lam1, 1/lam2
    # the set this one is floor-shifted from (shift_roots), or None
    source: RootSet = field(default=None, compare=False, repr=False)
    _powers: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def log_fixed(self) -> tuple:
        """log|lam0|, log|lam1|, log|lam2|: fixed_log of lam0 and of lam0 + 1 (log|lam1|
        = -log(lam0 + 1)), or the source's logs floor-shifted."""
        if self.source is not None:
            return _shifted(self.source.log_fixed, self.source.frac_bits - self.frac_bits)
        K, lam0 = self.frac_bits, self.lam_fixed[0]
        g0 = fixed_log(lam0, K)
        log_plus_1, r_plus_1 = fixed_log((lam0[0] + (1 << K), lam0[1]), K)
        g1 = (-log_plus_1, r_plus_1)
        return g0, g1, (-g0[0] - g1[0], g0[1] + g1[1])

    @cached_property
    def reg_fixed(self) -> tuple:
        """The regulator |log|lam1| log|lam0| - log|lam2|^2|, or the source's floor-shifted."""
        if self.source is not None:
            return _shifted([self.source.reg_fixed], self.source.frac_bits - self.frac_bits)[0]
        g0, g1, g2 = self.log_fixed
        p, q = fixed_mul(g1, g0, self.frac_bits), fixed_mul(g2, g2, self.frac_bits)
        return abs(p[0] - q[0]), p[1] + q[1]

    def power(self, j: int, e: int):
        """lam_j^e as a pair over 2^frac_bits, powered once per (j, e) for this root set."""
        if (j, e) not in self._powers:
            self._powers[(j, e)] = _fixed_power(self.lam_fixed[j], self.inv_fixed[j], e,
                                                self.frac_bits)
        return self._powers[(j, e)]


@dataclass(frozen=True)
class AlphaTriple:
    """The twisted conjugates alpha1 = lam0^s lam1^t, alpha2 = lam1^s lam2^t, alpha3 = lam2^s lam0^t.

    roots is the RootSet they were powered from; its precision_bits is the
    working precision for arithmetic on the conjugates.  numerators and radii
    are the fixed-point values over 2^frac_bits.  mirror is None, or
    (T', shift) for the triple T' of the mirror orbit at the same frac_bits,
    from which diff_log derives its logs.
    """

    n: int
    s: int
    t: int
    precision_bits: int
    roots: RootSet
    numerators: tuple
    radii: tuple
    mirror: tuple = field(default=None, compare=False, repr=False)
    _diff_logs: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def frac_bits(self) -> int:
        return self.roots.frac_bits

    def diff_log(self, i: int, j: int):
        """log|T[i] - T[j]| over 2^frac_bits with its radius, taken once per pair for
        this triple T; None where the radii leave T[i] - T[j] not known to be nonzero.

        The log is fixed_log of the difference, unless mirror = (T', shift)
        gives it.  The mirror orbit is that of (-s, -t), and alpha_j(-s, -t) =
        1/alpha_j(s, t), so if the cell (-s', -t') of the representative
        (s', t') of T' has the conjugates of T from index shift on, then
        T[a] = 1/T'[(a - shift) mod 3].  With i' = (i - shift) mod 3 and
        j' = (j - shift) mod 3, T[i] - T[j] = (T'[j'] - T'[i']) / (T'[i'] T'[j']):

            log|T[i] - T[j]| = log|T'[i'] - T'[j']| - lam'_i' - lam'_j',

        where lam'_k = log|T'[k]| = s' g_k + t' g_(k+1) (indices mod 3) in the
        root logs g of T': an integer combination of T''s diff_log and root
        logs, whose radius is the sum of theirs, r(L'_i'j') + |s'| (r_i' + r_j')
        + |t'| (r_(i'+1) + r_(j'+1)) with r_k the radius of g_k.  Where T'
        leaves its difference open, T takes its own log.  T' has no mirror, so
        no two triples refer to each other: both are freed without a cycle.
        """
        logs, key = self._diff_logs, (i, j) if i < j else (j, i)
        if key not in logs:
            num, r = self.numerators[i] - self.numerators[j], self.radii[i] + self.radii[j]
            if abs(num) <= r:
                return None
            logs[key] = self._mirror_log(*key) or fixed_log((num, r), self.frac_bits)
        return logs[key]

    def _mirror_log(self, i: int, j: int):
        """log|T[i] - T[j]| from the mirror (see diff_log), or None."""
        if self.mirror is None:
            return None
        tri, shift = self.mirror
        ends = ((i - shift) % 3, (j - shift) % 3)
        log = tri.diff_log(*ends)
        if log is None:
            return None
        (num, r), g = log, tri.roots.log_fixed
        for k in ends:
            (gk, rk), (gn, rn) = g[k], g[(k + 1) % 3]
            num -= tri.s * gk + tri.t * gn
            r += abs(tri.s) * rk + abs(tri.t) * rn
        return num, r


def fixed_mul(a, b, frac_bits: int):
    """The product of two (numerator, radius) pairs over 2^frac_bits."""
    (x, rx), (y, ry) = a, b
    return ((x * y) >> frac_bits,
            ((abs(x) * ry + abs(y) * rx + rx * ry) >> frac_bits) + 2)


def _fixed_quotient(m: int, d, frac_bits: int):
    """m / D over 2^frac_bits, for an exact m >= 0 and d = (D, r) with D > r >= 0."""
    den, r = d
    return m // den, (m * r) // (den * (den - r)) + 2


def _fixed_power(base, inverse, e: int, frac_bits: int):
    """lam^e from the pairs of lam and 1/lam: positive powers of one or the other."""
    b = base if e >= 0 else inverse
    e = abs(e)
    acc = None
    while e:
        if e & 1:
            acc = b if acc is None else fixed_mul(acc, b, frac_bits)
        e >>= 1
        if e:
            b = fixed_mul(b, b, frac_bits)
    return acc if acc is not None else (1 << frac_bits, 0)


def _atanh_inverse(q: int, bits: int) -> int:
    """atanh(1/q) over 2^bits for an integer q >= 3, summed in floors: below the true
    value by less than (number of nonzero terms) + 9/8 units of 2^-bits."""
    term, q2, total, k = (1 << bits) // q, q * q, 0, 1
    while term:
        total += term // k   # floor(2^bits / (k q^k)), since term = floor(2^bits / q^k)
        term //= q2
        k += 2
    return total


def _log_reach(bits: int) -> int:
    """J, the last j whose factor (1 - 2^-j) fixed_log's reduction uses at bits."""
    return math.isqrt(2 * bits)


@lru_cache(maxsize=4)
def _log_master(top: int) -> tuple:
    """-log(1 - 2^-j) = 2 atanh(1/(2^(j+1) - 1)) for j = 1 .. _log_reach(top) (log 2
    first), over 2^B with B = top + bitlen(top) + 2: the source of _log_table for
    every W <= top."""
    bits = top + top.bit_length() + 2
    return tuple(2 * _atanh_inverse((2 << j) - 1, bits) for j in range(1, _log_reach(top) + 1))


@lru_cache(maxsize=16)
def _log_table(bits: int) -> tuple:
    """fixed_log's table at W = bits: _log_master's first _log_reach(bits) values,
    floored to 2^-bits (its lemma, (iii)), from the master of the least power of two
    top >= max(bits, 1024)."""
    top = 1 << max(bits - 1, 1023).bit_length()
    shift = top.bit_length() + 2 + top - bits
    return tuple(v >> shift for v in _log_master(top)[:_log_reach(bits)])


def fixed_log(d, frac_bits: int):
    """log|x| over 2^K with its radius, for x = (numerator, radius) with |numerator| > radius.

    The kernel is the argument reduction and series of Brent (J. ACM 23, 1976)
    in integers over 2^W, W = K + _LOG_GUARD.  With N = |numerator| =
    2^(b-1) m, m in [1, 2), and e = b - 1 - K, log(N / 2^K) = e log 2 + log m.
    M = floor(m 2^W).  For j = 2, 3, ..., J = isqrt(2W) in turn, while
    M' = M - floor(M / 2^j) >= 2^W, M becomes M' and l_j is added, the table
    value of T_j = -log(1 - 2^-j) = 2 atanh(1 / (2^(j+1) - 1)); l_1 is log 2.
    Then M (1 - 2^-J) < 2^W, so log(M / 2^W) = 2 atanh(z) with
    z = (M - 2^W) / (M + 2^W) < 2^-J <= 1/8.  Its series is summed in floors:
    Z = floor(z 2^W), Z2 = floor(Z^2 / 2^W), P_0 = Z,
    P_k = floor(P_(k-1) Z2 / 2^W), and 2 floor(P_k / (2k + 1)) is added for
    k = 0 .. T - 1, T the first k with P_k < 2^(W-K), one unit of 2^-K.
    The sum V = e l_1 + sum l_j + 2 sum floor(P_k / (2k + 1)) is floored to
    L = floor(V / 2^(W-K)).

    Lemma.  With r the radius of x, s the number of reduction steps, and
        E = [b - 1 > W] + 2|e| + 2s + 6T + ceil(3 (P_T + 2) / (2T + 1)),
    the value log|x| lies within R = ceil(r 2^K / (N - r)) + ceil(E / 2^(W-K)) + 1
    units of 2^-K of L.

    Proof, in units u = 2^-W.
    (i) x is within r / 2^K of N / 2^K, so log|x| is within
        -log(1 - r/N) <= r / (N - r) of log(N / 2^K): the first term of R.
    (ii) 0 <= m 2^W - M < 1 and M >= 2^W, so log m - log(M / 2^W) lies in [0, 1u),
        and is 0 when b - 1 <= W, as M = m 2^W then.
    (iii) Each l_j (_log_table's, from _log_master's value at B bits) lies in
        (T_j - 2u, T_j]: _atanh_inverse at B bits is below
        atanh(1/q) by less than B/3 + 3 units of 2^-B (its terms fall by
        q^2 >= 9), and twice that is below 4 top < 2^(bitlen(top) + 2) <=
        2^(B-W) of them, so below 1u; the floor to 2^-W loses less than 1u more.
        So e l_1 is within 2|e| u of e log 2.
    (iv) A step has M' = M (1 - 2^-j) + theta, 0 <= theta < 1, so
        log(M / 2^W) = log(M' / 2^W) + T_j - log(1 + theta / (M (1 - 2^-j))),
        and the last term lies in [0, 1 / (2^W - 1)) < 2u, as M (1 - 2^-j) >
        M' - 1 >= 2^W - 1.  Taking l_j for T_j and dropping that term moves
        the sum by less than 2u either way.
    (v) Let y_k = z^(2k+1) 2^W, the true k-th power.  Every floor is of a
        product of values at or below the true ones, so P_k <= y_k; and
        y_0 - Z < 1, z^2 2^W - Z2 < 1 + 2z, y_k - P_k < 1 + z (1 + 2z) +
        z^2 (y_(k-1) - P_(k-1)) < 2 by induction, using z <= 1/8.  So each
        summed term floor(P_k / (2k + 1)) is below y_k / (2k + 1) by less than
        3u, and 2 sum of them below 2 atanh(z)'s first T terms by less than 6T u.
        The omitted terms start with y_T / (2T + 1) < (P_T + 2) / (2T + 1) and
        fall by z^2 <= 1/64, so twice their sum is below 3 (P_T + 2) / (2T + 1) u:
        the series tail.
    (vi) By (ii)-(v), |log(N / 2^K) - V u| < E u, and the floor to 2^-K takes
        less than one unit more: |2^K log(N / 2^K) - L| < E / 2^(W-K) + 1.
    """
    num, r = abs(d[0]), d[1]
    wide = frac_bits + _LOG_GUARD
    table = _log_table(wide)
    b = num.bit_length()
    e = b - 1 - frac_bits
    # D = M - 2^W; a step is M' - 2^W = D - floor(D / 2^j) - 2^(W-j)
    frac = (num << (wide - b + 1) if wide >= b - 1 else num >> (b - 1 - wide)) - (1 << wide)
    err = (wide < b - 1) + 2 * abs(e)
    total = e * table[0]
    # no step at j with D < 2^(W-j), so j starts, and resumes, at the leading bit of D
    j, reach = wide + 1 - frac.bit_length(), len(table)
    while j <= reach:
        step = frac - (frac >> j) - (1 << (wide - j))
        if step < 0:
            j += 1
            continue
        frac = step
        total += table[j - 1]
        err += 2
        lead = wide + 1 - frac.bit_length()
        if lead > j:
            j = lead
    # the series of 2 atanh(z), z = D / (D + 2^(W+1)), down to one unit of 2^-K
    z = (frac << wide) // (frac + (2 << wide))
    z2 = (z * z) >> wide
    power, k, unit = z, 1, 1 << _LOG_GUARD
    while power >= unit:
        total += 2 * (power // k)
        power = (power * z2) >> wide
        k += 2
    err += 3 * (k - 1) - (-3 * (power + 2) // k)
    return (total >> _LOG_GUARD,
            -(-(r << frac_bits) // (num - r)) - (-err >> _LOG_GUARD) + 1)


def _scaled_fprime(n: int, x: int, k: int) -> int:
    """F'(x) = 2^(2k) f'(x / 2^k)."""
    return (3 * x - ((n - 1) << (k + 1))) * x - ((n + 2) << 2 * k)


def _lam0_floor(n: int, k: int) -> int:
    """floor(lam0 * 2^k) for k >= 0, by Newton's method on F in integers.

    The precision doubles from step to step, less _GUARD_BITS, and the last
    step is followed by the exact bracket F(x) <= 0 < F(x + 1).
    """
    A, B = 1 - n, -(n + 2)
    levels = []
    while k > _BASE_BITS:
        levels.append(k)
        k = (k + _GUARD_BITS + 1) // 2
    x = (n + 1) << k
    step = None
    while step != 0:
        step = at_power(A, B, x, k) // _scaled_fprime(n, x, k)
        x -= step
    for q in reversed(levels):
        x <<= q - k
        k = q
        x -= at_power(A, B, x, k) // _scaled_fprime(n, x, k)
    # x now lies above lam0 * 2^k by less than two units
    x -= 1
    while at_power(A, B, x, k) > 0:
        x -= 1
    return x


def _certify_root(n: int, pair, frac_bits: int, j: int):
    """Exact sign change of F between the ends of the radius of the pair of lam_j."""
    num, r = pair
    A, B = 1 - n, -(n + 2)
    if at_power(A, B, num - r, frac_bits) * at_power(A, B, num + r, frac_bits) < 0:
        return
    raise PrecisionExhausted(f"could not certify lam{j} of f_{n} within its radius over 2^{frac_bits}")


def root_frac_bits(n: int, precision_bits: int) -> int:
    """K of compute_roots(n, precision_bits): 32 guard bits beyond precision_bits,
    and at least the bits of n."""
    return max(precision_bits + 32, n.bit_length())


def shift_roots(rs: RootSet, frac_bits: int) -> RootSet:
    """The root set rs at frac_bits <= rs.frac_bits, by the floor shift of the module
    docstring; its precision_bits drops by the bits shifted out.  Its logs and
    regulator are rs's, shifted when first read."""
    d = rs.frac_bits - frac_bits
    if d < 0:
        raise ValueError("a root set shifts only to fewer fraction bits")
    if d == 0:
        return rs
    return RootSet(rs.n, rs.precision_bits - d, frac_bits, _shifted(rs.lam_fixed, d),
                   _shifted(rs.inv_fixed, d), source=rs)


@lru_cache(maxsize=512)
def compute_roots(n: int, precision_bits: int = 192) -> RootSet:
    """The root set of n over 2^K, K = root_frac_bits(n, precision_bits).

    Every value lies within its radius over 2^K; lam0 is certified by its
    Newton bracket, lam1 and lam2 by a sign change (PrecisionExhausted if
    not).  As K >= precision_bits + 32, lam0, 1/lam1, 1/lam2 and the regulator
    have relative error, and the logs absolute error, below 2^-precision_bits.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    K = root_frac_bits(n, precision_bits)
    k = K - n.bit_length()  # floor(lam0 * 2^k) has about K bits
    x0 = _lam0_floor(n, k)
    one = 1 << K
    lam0 = (x0 << (K - k), 1 << (K - k))
    lam0_plus_1 = (lam0[0] + one, lam0[1])
    q1, r1 = _fixed_quotient(one << K, lam0_plus_1, K)
    inv0 = _fixed_quotient(one << K, lam0, K)
    lam1 = (-q1, r1)
    lam2 = (-(one + inv0[0]), inv0[1])
    inv1 = (-lam0_plus_1[0], lam0_plus_1[1])
    inv2 = (-(lam1[0] + one), lam1[1])
    _certify_root(n, lam1, K, 1)
    _certify_root(n, lam2, K, 2)
    return RootSet(n, precision_bits, K, (lam0, lam1, lam2), (inv0, inv1, inv2))


def working_bits(n: int, weight: int, need) -> int:
    """The bits a decision on conjugates at n starts at: need, plus weight times the
    log2 of n + 2, rounded up (see "Precision" above).  The log is only defined for
    n >= 0, so a negative n is refused here."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.ceil(need + weight * math.log2(n + 2))


def alpha_precision(n: int, s: int, t: int, precision_bits: int) -> int:
    """Internal bits for lam powers: powering multiplies relative error by ~|exponent|.

    Rounded up to a multiple of 64, so that within an n the triples of nearby
    weights share one floor shift and its powers (see "Precision" above).
    """
    return -(-working_bits(n, abs(s) + abs(t), precision_bits + 32) // 64) * 64


def candidate_precision(n: int, s: int, t: int, y_bound: int, precision_bits: int) -> int:
    """The bits of the solver's first attempt: at least precision_bits, and the bits
    the convergents up to y_bound need."""
    need = 2 * math.log2(y_bound + 1) + _MARGIN_BITS
    return max(precision_bits, working_bits(n, abs(s) + abs(t), need))


def proof_precision(n: int, precision_bits: int) -> int:
    """The first bits of the proof quantities of every cell of n: the caller's bits
    and two powers of n + 2.  A cell of depth k needs about k - 1 powers more for
    b0; the radii, with escalate, are the guarantee (see "Precision")."""
    return working_bits(n, 2, precision_bits + 32)


def power_alphas(rs: RootSet, s: int, t: int, precision_bits: int, mirror=None) -> AlphaTriple:
    """The twisted conjugates of (s, t), powered in fixed point from the root set rs.

    precision_bits is recorded as the triple's precision; rs must hold enough
    fraction bits for it (orbit_triples picks them by alpha_precision).
    mirror is the triple's AlphaTriple.mirror.
    """
    K = rs.frac_bits
    powers = [(rs.power(j, s), rs.power(j, t)) for j in range(3)]
    # alpha1 = lam0^s lam1^t, alpha2 = lam1^s lam2^t, alpha3 = lam2^s lam0^t
    alphas = [fixed_mul(powers[j][0], powers[(j + 1) % 3][1], K) for j in range(3)]
    return AlphaTriple(rs.n, s, t, precision_bits, rs,
                       tuple(a for a, _ in alphas), tuple(r for _, r in alphas), mirror)


def orbit_triples(n: int, pairs, precision_bits: int, y_bound=None):
    """Yield (s, t, tri, shift) for each (s, t) of pairs, in order: the cells of n
    evaluated by phi-orbit on one root set.

    The cells of pairs that phi maps into each other share one AlphaTriple,
    powered for the first such cell, the orbit's representative (tri.s, tri.t),
    at the proof bits of n (proof_precision, one number for every cell) or, if
    y_bound is given, at those of its solver attempt (candidate_precision) where
    more; a cell's conjugates are tri's from index shift on.  The roots are computed once, at
    the largest alpha_precision of any cell, and floor-shifted once to each
    root_frac_bits the triples need, so the triples of one shift share its
    powers of the roots (RootSet.power).  Two mirrored orbits, those of (s, t)
    and (-s, -t), at one frac_bits are linked once: the first representative
    (s, t) in order, with no mirror yet, whose cell (-s, -t) lies in the other
    orbit gives that orbit's triple its own as mirror (AlphaTriple.diff_log),
    with that cell's shift.  The links are decided before any triple is
    powered, and each source is powered before its target.  A cell (0, 0) is
    refused while the orbits are planned (forms.check_twist), before any root.
    """
    in_box = set(pairs)
    proof_bits = proof_precision(n, precision_bits)
    cells = {}     # cell -> (representative, shift)
    plans = {}     # representative -> (alpha_precision, bits) of its triple
    for rep in pairs:
        if rep in cells:
            continue
        check_twist(*rep)
        once, twice = phi_transform(*rep), phi_transform(*phi_transform(*rep))
        members = [(c, shift) for c, shift in ((rep, 0), (once, 2), (twice, 1)) if c in in_box]
        asks = [(c, proof_bits) for c, _ in members]
        if y_bound is not None:
            asks.append((rep, candidate_precision(n, *rep, y_bound, precision_bits)))
        plans[rep] = (max(alpha_precision(n, *c, bits) for c, bits in asks),
                      max(bits for _, bits in asks))
        cells.update((c, (rep, shift)) for c, shift in members)
    if not plans:
        return
    rs = compute_roots(n, max(wp for wp, _ in plans.values()))
    frac = {rep: root_frac_bits(n, wp) for rep, (wp, _) in plans.items()}
    shifted = {K: shift_roots(rs, K) for K in set(frac.values())}
    # the orbit of the cell (-s, -t) holds the inverses of rep's conjugates, in the
    # order its shift gives; one link per pair, so no two triples refer to each other
    links = {}     # target representative -> (source representative, shift)
    for rep in plans:
        partner, shift = cells.get((-rep[0], -rep[1]), (rep, 0))
        if rep not in links and partner != rep and frac[partner] == frac[rep]:
            links[partner] = (rep, shift)
    triples = {}
    for rep in sorted(plans, key=links.__contains__):   # every source before its target
        link = links.get(rep)
        triples[rep] = power_alphas(shifted[frac[rep]], *rep, plans[rep][1],
                                    link and (triples[link[0]], link[1]))
    for s, t in pairs:
        rep, shift = cells[(s, t)]
        yield s, t, triples[rep], shift


@lru_cache(maxsize=4096)
def compute_alphas(n: int, s: int, t: int, precision_bits: int = 192) -> AlphaTriple:
    """The three twisted conjugate values with relative error < 2^-precision_bits,
    each with its radius: the triple orbit_triples powers for a lone cell (s, t) whose
    bits are precision_bits, from a root set that needs no shift."""
    return power_alphas(compute_roots(n, alpha_precision(n, s, t, precision_bits)),
                        s, t, precision_bits)


def doublings(first_bits: int) -> list:
    """The bits of attempts: first_bits, then PRECISION_ATTEMPTS - 1 doublings."""
    return [first_bits << k for k in range(PRECISION_ATTEMPTS)]


def attempts(first: AlphaTriple):
    """The triples of a decision on first's conjugates: first, then those of its (n, s,
    t) at each later bits of doublings(first.precision_bits), each made when reached."""
    yield first
    for bits in doublings(first.precision_bits)[1:]:
        yield compute_alphas(first.n, first.s, first.t, bits)


def escalate(what, tries, decide):
    """The first result of decide(cur) that is not None, for cur over tries (attempts
    of a triple, or root sets at doublings), the one retry loop of the package (see
    "Precision" above); else PrecisionExhausted naming what() (called only then)
    and the bits of the last attempt."""
    for cur in tries:
        result = decide(cur)
        if result is not None:
            return result
    raise PrecisionExhausted(f"{what()} undecided at {cur.precision_bits} bits")
