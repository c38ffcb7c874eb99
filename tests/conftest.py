"""Shared test helpers: independent oracles for the roots and for the solutions, and
the mpf values of a root set's and a triple's fixed point."""

from mpmath import mp

from cubicthue.bounds import fixed_view
from cubicthue.forms import build_form, eval_form


def alpha_values(tri):
    """The conjugates of the triple tri, as the exact mpf values of its numerators."""
    return tuple(fixed_view(num, tri.frac_bits) for num in tri.numerators)


def log_values(rs):
    """log|lam0|, log|lam1|, log|lam2| of the root set rs, as exact mpf values."""
    return tuple(fixed_view(num, rs.frac_bits) for num, _ in rs.log_fixed)


def regulator_value(rs):
    """The regulator of the root set rs, as an exact mpf value."""
    return fixed_view(rs.reg_fixed[0], rs.frac_bits)


def brute_force_solutions(n, s, t, y_bound):
    """Exhaustive oracle for f(x, y) = +-1 over |y| <= y_bound.

    Independent of the candidate strategy under test and of roots.py: the
    three real roots alpha_j of g(z) = z^3 + A z^2 + B z - 1 come from
    mp.polyroots, and for each y >= 1 every x within 2 of some alpha_j * y is
    confirmed by exact integer evaluation.  This is exhaustive: f(x, y) =
    prod_j (x - alpha_j y), so |f| = 1 forces min_j |x - alpha_j y| <= 1, and
    the margin of 2 absorbs the error of the computed roots.

    Returns {(x, y): value} including mirrors and the y = 0 solutions.
    """
    form = build_form(n, s, t)
    out = {}

    def confirm(x, y):
        v = eval_form(form, x, y)
        if v in (1, -1):
            out[(x, y)] = v
            out[(-x, -y)] = -v

    confirm(1, 0)
    confirm(-1, 0)
    with mp.workdps(40):
        alphas = [mp.re(z) for z in mp.polyroots([1, form.A, form.B, -1], maxsteps=200,
                                                 extraprec=200)]
        for y in range(1, y_bound + 1):
            for x in {int(mp.floor(a * y)) + d for a in alphas for d in range(-2, 4)}:
                confirm(x, y)
    return out


def exact_roots(n):
    """((lam0, lam1, lam2), their log-absolute-values, the regulator) at the
    working precision, independently of compute_roots: lam0 by mp.findroot
    started at n + 1, lam1 = -1/(lam0 + 1) and lam2 = -(lam0 + 1)/lam0 by the
    Galois maps, and the logs by mp.log."""
    lam0 = mp.findroot(lambda x: ((x - (n - 1)) * x - (n + 2)) * x - 1, mp.mpf(n + 1),
                       verify=False)
    lams = (lam0, -1 / (lam0 + 1), -(lam0 + 1) / lam0)
    logs = tuple(mp.log(abs(v)) for v in lams)
    return lams, logs, abs(logs[1] * logs[0] - logs[2] * logs[2])
