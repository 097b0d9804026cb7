"""Exact coefficients and growth estimates for two families of
generalized partition products indexed by admissible triples (i, j, k).

Each exported name loads its submodule on first access (PEP 562), so
``import partition_forge`` loads none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the names it exports
    "divisors": ("AdmissibleTriple", "DivisorTable", "cycle_weight_weighted"),
    "series": (
        "CoeffSequence", "egf_coeffs", "egf_coeffs_weighted", "from_decimal", "ogf_coeffs_euler",
        "to_bfile", "to_decimal", "to_json",
    ),
    "oracle": ("cycle_type_sum", "cycle_type_sums", "product_expand"),
    "asympt": (
        "CONSTANTS", "CoeffEstimate", "MathConstants", "NoClosedFormError", "NotTabulatedError",
        "PoleAbsentError", "ResiduePolynomial", "coeff_asymptotic", "kotesovec_ratio", "lambert_w_log",
        "log_coeff_asymptotic", "residue_leading", "residue_polynomial", "weak_saddle_alpha",
    ),
    "cli": ("BFileRecord", "ComparisonReport", "compare_sequence", "parse_bfile"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# classes and constants first, then functions, each group alphabetical
__all__ = sorted(_MODULE_OF, key=lambda name: (name[0].islower(), name.lower()))


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, reached as an attribute of the package
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
