"""Exact coefficients and growth estimates for two families of
generalized partition products indexed by admissible triples (i, j, k).
"""

from .divisors import AdmissibleTriple, DivisorTable, cycle_weight_weighted
from .series import (
    CoeffSequence,
    egf_coeffs,
    egf_coeffs_weighted,
    from_decimal,
    ogf_coeffs_euler,
    to_bfile,
    to_decimal,
    to_json,
)
from .oracle import CycleType, cycle_type_sum, cycle_type_sums, cycle_types, product_expand
from .asympt import (
    CONSTANTS,
    AsymptoticModel,
    CoeffEstimate,
    MathConstants,
    NoClosedFormError,
    NotTabulatedError,
    PoleAbsentError,
    ResiduePolynomial,
    asymptotic_model,
    coeff_asymptotic,
    kotesovec_ratio,
    lambert_w_log,
    log_coeff_asymptotic,
    residue_leading,
    residue_polynomial,
    weak_saddle_alpha,
)
from .cli import BFileRecord, ComparisonReport, compare_sequence, parse_bfile

__version__ = "0.1.0"

__all__ = [
    "AdmissibleTriple",
    "AsymptoticModel",
    "BFileRecord",
    "CoeffEstimate",
    "CoeffSequence",
    "ComparisonReport",
    "CONSTANTS",
    "CycleType",
    "DivisorTable",
    "MathConstants",
    "NoClosedFormError",
    "NotTabulatedError",
    "PoleAbsentError",
    "ResiduePolynomial",
    "asymptotic_model",
    "coeff_asymptotic",
    "compare_sequence",
    "cycle_type_sum",
    "cycle_type_sums",
    "cycle_types",
    "cycle_weight_weighted",
    "egf_coeffs",
    "egf_coeffs_weighted",
    "from_decimal",
    "kotesovec_ratio",
    "lambert_w_log",
    "log_coeff_asymptotic",
    "ogf_coeffs_euler",
    "parse_bfile",
    "product_expand",
    "residue_leading",
    "residue_polynomial",
    "to_bfile",
    "to_decimal",
    "to_json",
    "weak_saddle_alpha",
]
