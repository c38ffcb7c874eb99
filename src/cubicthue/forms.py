"""Integer binary cubic forms f(x, y) = x^3 + A x^2 y + B x y^2 - y^3.

A form is the norm of x - alpha*y where alpha = lam0^s * lam1^t is a unit of
the cubic order, so the leading coefficient is 1 and the constant one is -1
for every parameter triple (n, s, t).  The middle coefficients come from
exact traces:

    A = -Tr(alpha),    B = Tr(alpha^-1) = (Tr(alpha)^2 - Tr(alpha^2)) / 2

(the second elementary symmetric function of the conjugates of a norm-1 unit
equals the trace of its inverse, and Newton's identity gives it from the
first two power sums).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exact_field as ef


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


def build_form(n: int, s: int, t: int) -> BinaryCubicForm:
    if n < 0:
        raise ValueError("family parameter n must be nonnegative")
    alpha = ef.alpha_element(n, s, t)
    tr = ef.trace(alpha)
    b = (tr * tr - ef.trace(ef.reduce_mul(alpha, alpha))) // 2
    return BinaryCubicForm(n, s, t, -tr, b)


def eval_form(form: BinaryCubicForm, x: int, y: int) -> int:
    return x**3 + form.A * x * x * y + form.B * x * y * y - y**3


def height(form: BinaryCubicForm) -> int:
    """max(|A|, |B|, 1), floored at 3 (the bound machinery requires H >= 3)."""
    return max(abs(form.A), abs(form.B), 1, 3)


def phi_transform(s: int, t: int):
    """The order-3 parameter map (s, t) -> (-s + t, -s) permuting the three conjugates."""
    return (-s + t, -s)


def discriminant(form: BinaryCubicForm) -> int:
    """Discriminant of the dehomogenised cubic z^3 + A z^2 + B z - 1."""
    a, b, c = form.A, form.B, -1
    return 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c


def is_reducible(form: BinaryCubicForm) -> bool:
    """True iff the form has a rational root; only z = +-1 is possible here."""
    return form.A + form.B == 0 or form.B - form.A + 2 == 0
