"""Shared test helpers: independent oracles for the roots and for the solutions."""

import math

import numpy as np
from mpmath import mp

from cubicthue.forms import build_form, eval_form
from cubicthue.roots import compute_alphas


def brute_force_solutions(n, s, t, y_bound):
    """Exhaustive oracle for f(x, y) = +-1 over |y| <= y_bound.

    Independent of the candidate strategy under test: for each y >= 1 it
    scans every x with |x| <= max|alpha|*y + 1 (beyond that every linear
    factor exceeds 1 in absolute value, so |f| > 1), prescreens with the
    float64 product of the three factors (such that any |f| = 1 point lands
    far inside |prod| < 2), and confirms hits by exact integer evaluation.

    Returns {(x, y): value} including mirrors and the y = 0 solutions.
    """
    form = build_form(n, s, t)
    tri = compute_alphas(n, s, t, 128)
    alpha_f = [float(a) for a in tri.alphas]
    max_alpha = max(abs(a) for a in alpha_f)

    out = {}

    def confirm(x, y):
        v = eval_form(form, x, y)
        if v in (1, -1):
            out[(x, y)] = v
            out[(-x, -y)] = -v

    confirm(1, 0)
    confirm(-1, 0)
    for y in range(1, y_bound + 1):
        limit = int(math.ceil(max_alpha * y)) + 1
        xs = np.arange(-limit, limit + 1, dtype=np.float64)
        prod = (xs - alpha_f[0] * y) * (xs - alpha_f[1] * y) * (xs - alpha_f[2] * y)
        for i in np.nonzero(np.abs(prod) < 2.0)[0]:
            confirm(int(xs[i]), y)
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
