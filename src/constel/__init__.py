"""Exact-arithmetic toolkit for constellation curves, monoid firmaments,
soft integral points over the rationals, and abc-quality instrumentation."""

from .arith import (
    INFINITY,
    Factorization,
    ProjectivePointQ,
    canonicalize,
    factorize,
    is_n_powerful,
    is_prime,
    powerful_numbers,
    radical,
    valuation,
)
from .curves import (
    Kappa,
    KodairaClass,
    MultiplicityProfile,
    Prediction,
    arithmetic_prediction,
    classify,
    constellation_degree,
    curve_iitaka_dimension,
    delta_from_fibers,
    minimal_general_type_profiles,
    parse_profile,
)
from .errors import (
    BoundExceededError,
    ConstelError,
    InfiniteGapsError,
    MathDomainError,
    ParseError,
    PointOnBoundaryError,
    RayUnsupportedError,
    ResourceLimitError,
    UnsupportedFieldError,
)
from .firmaments import (
    ExponentMap,
    Firmament,
    ReductionDatum,
    base_firmament,
    face_restriction,
    firm_integral_test,
    induced_membership,
    morphism_check,
    multiplicity_at,
    supported_constellation,
)
from .heights import (
    AbcTriple,
    CountingReport,
    Form,
    FormDivisor,
    HeightReport,
    abc_quality,
    counting_function,
    log_discriminant_term,
    naive_height,
    scan_abc,
    scan_vojta_gap,
    vojta_gap,
)
from .monoids import (
    LatticeMonoid,
    RayRestriction,
    gaps,
    min_multiple,
    monoid,
    ray_restriction,
)
from .softpoints import (
    DeltaSupport3,
    GeneralDeltaQ,
    P1PointQ,
    campana_abc_bound_check,
    campana_abc_bound_exact,
    enumerate_soft_points,
    is_soft_integral_3pt,
    is_soft_integral_general,
    is_soft_integral_weighted,
)

__all__ = [name for name in dir() if not name.startswith("_")]
