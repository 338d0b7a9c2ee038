"""Aperiodic point sets on central extensions and their diffraction.

Exact quadratic-integer model sets, Meyer-axiom checks on finite
patches, twisted fiber densities and Palm diffraction coefficients,
Bragg peak scans, and Pisot/Salem dilation tests, with a CLI front end.
"""

from .errors import (
    BoundaryUnsoundError,
    CoefficientOverflowError,
    DegenerateBallError,
    DegenerateDensityError,
    InsufficientWindowError,
    MalformedPatchError,
    QuasilatError,
    RadicandMismatchError,
    SizeLimitError,
    ThresholdTooSmallError,
    WindowShortfallError,
)
from .ring import (
    QuadInt,
    abs_le,
    in_closed_interval,
    linear_ge,
    linear_le,
    model_set_1d,
    silver_points,
)
from .group import (
    CentralExtensionGroup,
    Cocycle,
    GroupElement,
    abelian_cocycle,
    abelian_group,
    ball_volume,
    element_from_ints,
    gauge_ball_volume,
    heisenberg_cocycle,
    heisenberg_group,
)
from .pointset import (
    CoverReport,
    CoveringReport,
    ExactCoords,
    MeyerianReport,
    PointPatch,
    approximate_group_cover,
    check_meyerian,
    covering_radius,
    integer_lattice_patch,
    inverse_set,
    make_patch,
    min_gap,
    minkowski,
    patch_density,
    patch_from_exact,
    translate,
)
from .cutproject import (
    AlignmentReport,
    ConditionReport,
    CutProjectScheme,
    FiberReport,
    alignment_report,
    cartesian_flat,
    check_symplectic_condition,
    enforce_uniform_fibers,
    fiber,
    fiber_cardinality_profile,
    generate_model_set,
    matrix_scheme,
    project,
    silver_scheme,
    symplectic_product,
)
from .spectral import (
    Character,
    DensityEstimate,
    EpsilonDualReport,
    SampledFunction,
    SandwichReport,
    SplitLatticeData,
    character,
    default_schedule,
    epsilon_dual,
    equivariance_residual,
    fiber_partition,
    palm_coefficient,
    palm_profile,
    sandwich_check,
    split_data,
    twisted_density,
    twisted_periodization,
)
from .diffraction import (
    BraggReport,
    ConsistencyReport,
    WeightedPointMeasure,
    autocorrelation,
    bragg_scan,
    central_autocorrelation,
    diffraction_atom,
    projection_consistency,
)
from .pisot import (
    DilationReport,
    IntPolynomial,
    RecognitionResult,
    SpectrumClassification,
    TowerReport,
    classify_pisot_salem,
    classify_real,
    dilation_invariance,
    min_poly_quadratic,
    recognize_algebraic_integer,
    tower_spectrum_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
