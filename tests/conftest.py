"""Shared test helpers: independent oracles for the roots, for the solutions and for
the order Z[lam0], a form's discriminant, the mpf values of a root set's and a
triple's fixed point and of an upper bound, and patch_everywhere, which replaces a
package function at every module binding its callers look it up in.

mpmath is the tests' oracle: the package computes in integers only.  The package
builds its units from the closed-form inverses of exact_field; the general path of
the order (the multiplication matrix, the norm, the adjugate inverse of any unit and
a signed power through it, sums and integer multiples) lives here, as the oracle the
closed forms are tested against."""

import sys

from mpmath import mp
from mpmath.libmp import fone, from_man_exp, mpf_div, round_nearest

import cubicthue.exact_field as ef
from cubicthue.forms import build_form, eval_form


def patch_everywhere(monkeypatch, fn, replacement):
    """Set replacement, by monkeypatch, at every global of a cubicthue module bound to
    fn, as the module-globals half of benchmarks/tracer.py's _bindings finds them:
    every call of fn then reaches replacement, whichever module's binding the
    caller reads.  Fails where no module binds fn."""
    import cubicthue.cli  # noqa: F401  (with it, every module of the package is loaded)

    bound = [(mod, key) for name, mod in list(sys.modules.items())
             if name == "cubicthue" or name.startswith("cubicthue.")
             for key, value in vars(mod).items() if value is fn]
    assert bound, f"no cubicthue module binds {fn!r}"
    for mod, key in bound:
        monkeypatch.setattr(mod, key, replacement)


def fixed_view(num, frac_bits):
    """num / 2^frac_bits as an mpf, exactly, whatever the working precision."""
    return mp.make_mpf(from_man_exp(num, -frac_bits))


def root_values(rs):
    """lam0, lam1, lam2 of the root set rs as mpf values: lam0 = N / 2^K exactly, lam1
    and lam2 1/x of the exact values of their inverses (of size at least 1), rounded to
    nearest at rs.precision_bits + 32 bits, so that lam1 ~ -1/n keeps its relative
    accuracy where it is below one unit of 2^-K."""
    K, prec = rs.frac_bits, rs.precision_bits + 32
    return (fixed_view(rs.lam_fixed[0][0], K),
            *(mp.make_mpf(mpf_div(fone, from_man_exp(num, -K), prec, round_nearest))
              for num, _ in rs.inv_fixed[1:]))


def alpha_values(tri):
    """The conjugates of the triple tri, as the exact mpf values of its numerators."""
    return tuple(fixed_view(num, tri.frac_bits) for num in tri.numerators)


def log_values(rs):
    """log|lam0|, log|lam1|, log|lam2| of the root set rs, as exact mpf values."""
    return tuple(fixed_view(num, rs.frac_bits) for num, _ in rs.log_fixed)


def regulator_value(rs):
    """The regulator of the root set rs, as an exact mpf value."""
    return fixed_view(rs.reg_fixed[0], rs.frac_bits)


def dyadic_value(v):
    """v, a Fraction over a power of two (bounds.bg_upper_bound's), as an exact mpf."""
    bits = v.denominator.bit_length() - 1
    assert v.denominator == 1 << bits
    return fixed_view(v.numerator, bits)


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


def discriminant(form):
    """Discriminant of the dehomogenised cubic z^3 + A z^2 + B z - 1 of a form."""
    a, b, c = form.A, form.B, -1
    return 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c


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


def multiplication_matrix(a):
    """3x3 integer matrix of y -> a*y in the basis (1, lam0, lam0^2), columns = images."""
    n = a.n
    cols = [a, ef.reduce_mul(a, ef.lam0(n)), ef.reduce_mul(a, ef.FieldInt(n, 0, 0, 1))]
    return [[c.c0 for c in cols], [c.c1 for c in cols], [c.c2 for c in cols]]


def _first_row_cofactors(m):
    return (m[1][1] * m[2][2] - m[1][2] * m[2][1],
            -(m[1][0] * m[2][2] - m[1][2] * m[2][0]),
            m[1][0] * m[2][1] - m[1][1] * m[2][0])


def norm(a):
    """Product of the three conjugates = determinant of the multiplication matrix."""
    m = multiplication_matrix(a)
    return sum(x * c for x, c in zip(m[0], _first_row_cofactors(m)))


def invert_unit(a):
    """Exact inverse of a unit: the first-row cofactors of its multiplication matrix
    divided by the determinant, which is +-1 for units."""
    m = multiplication_matrix(a)
    cof = _first_row_cofactors(m)
    d = sum(x * c for x, c in zip(m[0], cof))
    assert d in (1, -1), f"norm is {d}, not +-1"
    return ef.FieldInt(a.n, *(c * d for c in cof))


def power(a, k):
    """a**k for any integer k; a negative k inverts the base through the matrix."""
    return ef.unit_power(invert_unit(a), -k) if k < 0 else ef.unit_power(a, k)


def field_sum(a, b):
    """a + b, coordinatewise, for elements of one order."""
    assert a.n == b.n
    return ef.FieldInt(a.n, a.c0 + b.c0, a.c1 + b.c1, a.c2 + b.c2)


def scaled(a, k):
    """k*a for an integer k."""
    return ef.FieldInt(a.n, k * a.c0, k * a.c1, k * a.c2)


def beta_element(n, s, t, x, y):
    """x - alpha1*y in Z[lam0], alpha1 = lam0^s lam1^t."""
    return field_sum(ef.FieldInt(n, x, 0, 0), scaled(ef.alpha_element(n, s, t), -y))


def embed(a, root):
    """Numeric value of the element a at a numeric approximation of lam0."""
    return a.c0 + root * (a.c1 + root * a.c2)
