"""Integer binary cubic forms f(x, y) = x^3 + A x^2 y + B x y^2 - y^3.

A form is the norm of x - alpha*y where alpha = lam0^s * lam1^t is a unit of
the cubic order, so the leading coefficient is 1 and the constant one is -1
for every parameter triple (n, s, t).  The middle coefficients come from
exact traces:

    A = -Tr(alpha),    B = Tr(alpha^-1) = (Tr(alpha)^2 - Tr(alpha^2)) / 2

(the second elementary symmetric function of the conjugates of a norm-1 unit
equals the trace of its inverse, and Newton's identity gives it from the
first two power sums).

Every (s, t) but (0, 0) gives an irreducible form, for every n >= 0.  lam0
and lam1 are multiplicatively independent (E. Thomas, J. reine angew. Math.
310, 1979), so alpha is then a unit other than +-1, hence irrational, and
generates the totally real cubic field, which has no other subfield than Q.
Its minimal polynomial, g(z) = f(z, 1), is then irreducible, and f has no
rational root.  (0, 0) gives alpha = 1 and the reducible (x - y)^3, the one
degenerate cell, refused by check_twist before any root is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exact_field as ef
from .errors import DegenerateTwist


@dataclass(frozen=True)
class BinaryCubicForm:
    """x^3 + A x^2 y + B x y^2 - y^3 with provenance (n, s, t)."""

    n: int
    s: int
    t: int
    A: int
    B: int

    @property
    def degenerate(self) -> bool:
        """(s, t) == (0, 0) collapses the form to (x - y)^3."""
        return self.s == 0 and self.t == 0

    def as_record(self) -> dict:
        return {"n": self.n, "s": self.s, "t": self.t, "A": self.A, "B": self.B}


def check_twist(s: int, t: int):
    """Refuse (s, t) = (0, 0), the one reducible cell (see above), which no bound, root
    set, solver or proof quantity takes: its unit is 1 and its form (x - y)^3."""
    if s == t == 0:
        raise DegenerateTwist("(s, t) = (0, 0) gives the reducible form (x - y)^3")


def build_form(n: int, s: int, t: int) -> BinaryCubicForm:
    return form_of_unit(ef.alpha_element(n, s, t), s, t)


def form_of_unit(alpha: ef.FieldInt, s: int, t: int) -> BinaryCubicForm:
    """The form of (alpha.n, s, t), from its unit alpha = lam0^s lam1^t, already powered."""
    n = alpha.n
    if n < 0:
        raise ValueError("n must be nonnegative")
    tr = ef.trace(alpha)
    b = (tr * tr - ef.trace(ef.reduce_mul(alpha, alpha))) // 2
    return BinaryCubicForm(n, s, t, -tr, b)


def eval_form(form: BinaryCubicForm, x: int, y: int) -> int:
    return x**3 + form.A * x * x * y + form.B * x * y * y - y**3


def at_power(A: int, B: int, x: int, k: int) -> int:
    """f(x, 2^k) for the form of (A, B), k >= 0, by Horner's rule with shifts for the
    powers of 2^k: ((x + A 2^k) x + B 2^(2k)) x - 2^(3k)."""
    return ((x + (A << k)) * x + (B << 2 * k)) * x - (1 << 3 * k)


def height(form: BinaryCubicForm) -> int:
    """max(|A|, |B|), floored at 3 (the bound machinery requires H >= 3)."""
    return max(abs(form.A), abs(form.B), 3)


def phi_transform(s: int, t: int):
    """The order-3 parameter map (s, t) -> (-s + t, -s) permuting the three conjugates."""
    return (-s + t, -s)


def st_box(bound: int):
    """All (s, t) with 0 < max(|s|, |t|) <= bound and s*t != 0, in fixed order."""
    span = range(-bound, bound + 1)
    return [(s, t) for s in span for t in span if s * t != 0]
