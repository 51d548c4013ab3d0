"""Desk-scale laboratory for symbolic dynamics over Z^d.

Folner averages, Besicovitch-type pseudometrics, empirical pattern
measures with Prokhorov comparisons, exact rational optimal transport
for the joining pseudometric, and the stock example constructions.
"""

__version__ = "0.1.0"

from .errors import (
    IncompatibleMiddleError,
    IncompatibleWindowsError,
    InvalidConstantError,
    InvalidDimensionError,
    InvalidFamilyError,
    StageExhaustedError,
)
from .groups import (
    FiniteSubset,
    FolnerSequence,
    box_set,
    check_tempered,
    compose,
    custom_folner,
    folner_defect,
    identity,
    inverse,
    make_box_folner,
    sup_norm,
    temperedness_ratio,
    tempered_subsequence,
)
from .configs import (
    Alphabet,
    AdmissibleMetric,
    Configuration,
    DEFAULT_RADIUS,
    Indicator,
    Lattice,
    config_distance,
    constant_config,
    default_metric,
    patched_config,
    periodic_config,
    predicate_config,
    restrict,
    shell_size,
    shift,
    word_config,
)
from .metrics import (
    DPrimeEstimate,
    EstimateTrace,
    TraceRow,
    besicovitch_estimate,
    besicovitch_prime_estimate,
    besicovitch_trace,
    dbar_estimate,
    dbar_trace,
    default_delta_grid,
    exact_mismatch_density,
    upper_density,
)
from .measures import (
    GenericityReport,
    PatternDistribution,
    empirical_measure,
    genericity_check,
    hausdorff_prokhorov,
    omega_hat_approx,
    pattern_metric,
    prokhorov_distance,
)
from .transport import (
    Coupling,
    DbRhoReport,
    PeriodicOrbitMeasure,
    TransportResult,
    TriangleReport,
    brute_force_min_cost,
    check_db_ge_rho,
    glue_couplings,
    hamming_per_site_cost,
    min_cost_transport,
    pair_empirical_joining,
    periodic_rho_oracle,
    rho_bar_lower,
    rho_triangle_check,
    verify_transport_certificate,
)
from .examples import (
    CortezPetiteReport,
    PRIMES,
    SubstitutionStage,
    block_entropy,
    cortez_petite_check,
    prime_approx_config,
    random_config,
    random_periodic_pair,
    resolve_example_name,
    rf_substitution,
    visible_points_config,
)
