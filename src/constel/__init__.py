"""Exact-arithmetic toolkit for constellation curves, monoid firmaments,
soft integral points over the rationals, and abc-quality instrumentation.

Every name in ``__all__`` is importable from here, but a submodule loads on
the first use of one of its names: ``import constel`` loads none of them,
and ``constel.scan_abc`` loads ``heights`` (with what it imports) and stores
``scan_abc`` in the package namespace, so later lookups are dict hits.
"""

from importlib import import_module as _import_module

# each public submodule with the public names it defines
_EXPORTS = {
    "arith": (
        "INFINITY", "Factorization", "ProjectivePointQ", "canonicalize", "factorize",
        "is_n_powerful", "is_prime", "powerful_numbers", "radical", "valuation",
    ),
    "curves": (
        "Kappa", "KodairaClass", "MultiplicityProfile", "Prediction", "arithmetic_prediction",
        "classify", "constellation_degree", "curve_iitaka_dimension", "delta_from_fibers",
        "minimal_general_type_profiles", "parse_profile",
    ),
    "errors": (
        "BoundExceededError", "ConstelError", "InfiniteGapsError", "MathDomainError", "ParseError",
        "PointOnBoundaryError", "RayUnsupportedError", "ResourceLimitError", "UnsupportedFieldError",
    ),
    "firmaments": (
        "ExponentMap", "Firmament", "ReductionDatum", "base_firmament", "face_restriction",
        "firm_integral_test", "induced_membership", "morphism_check", "multiplicity_at",
        "supported_constellation",
    ),
    "heights": (
        "AbcTriple", "CountingReport", "Form", "FormDivisor", "HeightReport", "abc_quality",
        "counting_function", "log_discriminant_term", "naive_height", "scan_abc",
        "scan_vojta_gap", "vojta_gap",
    ),
    "monoids": ("LatticeMonoid", "RayRestriction", "gaps", "min_multiple", "monoid", "ray_restriction"),
    "softpoints": (
        "DeltaSupport3", "GeneralDeltaQ", "P1PointQ", "campana_abc_bound_check",
        "campana_abc_bound_exact", "enumerate_soft_points", "is_soft_integral_3pt",
        "is_soft_integral_general", "is_soft_integral_weighted",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it in this namespace
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
