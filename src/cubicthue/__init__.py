"""Twisted cubic Thue equations over the simplest cubic fields.

Exact construction of the norm forms f(x, y) = x^3 + A x^2 y + B x y^2 - y^3
built from unit twists of the cyclic cubic order Z[lam0], a bounded solver
with exact verification, measurement harnesses for the root/regulator/
log-difference asymptotics, and the comparison of the effective upper bound
against the derived lower-bound chain.
"""

from .errors import (
    ChainPreconditionFailed,
    DegenerateTwist,
    EmptyGrid,
    ExactMatch,
    InsufficientSamples,
    MismatchedParameters,
    NotAUnit,
    NotReducible,
    PrecisionExhausted,
    ReducibleForm,
    RoundingAmbiguous,
)
from .exact_field import FieldInt, alpha_element, invert_unit, norm, reduce_mul, trace, unit_power
from .forms import BinaryCubicForm, build_form, discriminant, eval_form, height, phi_transform
from .roots import AlphaTriple, RootSet, compute_alphas, compute_roots
from .asymptotics import (
    CaseLabel,
    Branch,
    Prediction,
    ProofQuantities,
    check_error_products,
    classify_case,
    compute_proof_quantities,
    fit_error_exponent,
    predict_logdiff,
    predict_power,
    predict_root_expansion,
)
from .solver import SolutionRecord, UnitDecomposition, classify_type, decompose_unit, reduce_to_type1, solve_box
from .bounds import BoundReport, bg_upper_bound, bound_report, c3_constant, lower_bound_chain, n0_scan

__version__ = "0.1.0"

__all__ = [
    "AlphaTriple", "BinaryCubicForm", "BoundReport", "Branch", "CaseLabel",
    "ChainPreconditionFailed", "DegenerateTwist", "EmptyGrid", "ExactMatch",
    "FieldInt", "InsufficientSamples", "MismatchedParameters", "NotAUnit",
    "NotReducible", "Prediction", "PrecisionExhausted", "ProofQuantities",
    "ReducibleForm", "RootSet", "RoundingAmbiguous", "SolutionRecord",
    "UnitDecomposition",
    "alpha_element", "bg_upper_bound", "bound_report", "build_form",
    "c3_constant", "check_error_products", "classify_case", "classify_type",
    "compute_alphas", "compute_proof_quantities", "compute_roots",
    "decompose_unit", "discriminant", "eval_form", "fit_error_exponent",
    "height", "invert_unit", "lower_bound_chain", "n0_scan", "norm",
    "phi_transform", "predict_logdiff", "predict_power",
    "predict_root_expansion", "reduce_mul", "reduce_to_type1", "solve_box",
    "trace", "unit_power",
]
