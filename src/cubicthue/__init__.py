"""Twisted cubic Thue equations over the simplest cubic fields.

Exact construction of the norm forms f(x, y) = x^3 + A x^2 y + B x y^2 - y^3
built from unit twists of the cyclic cubic order Z[lam0], a bounded solver
with exact verification, measurement harnesses for the root/regulator/
log-difference asymptotics, and the comparison of the effective upper bound
against the derived lower-bound chain.
"""

from . import asymptotics, bounds, exact_field, forms, proof, roots, solver

__version__ = "0.1.0"
