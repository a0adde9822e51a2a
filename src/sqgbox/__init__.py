"""Spectral toolkit for the Dirichlet Laplacian on a rectangle.

Fields are band-limited sine/cosine series on (0, L1) x (0, L2) tagged with
a per-axis parity, so derivatives, the heat semigroup, fractional powers of
sqrt(-Laplacian), dyadic frequency blocks, and Besov norms are all exact
operations on coefficients.  On top of the calculus sit a dealiased
surface-quasigeostrophic integrator with Riesz-transform velocity and a
verification harness that measures bilinear product estimates, a resolvent
representation of the square-root operator, and perturbation growth along
trajectories.
"""

from types import ModuleType as _ModuleType

from .domain import (
    PARITIES,
    DomainSpec,
    GridField,
    SpectralField,
    analyze,
    dealias_grid,
    eigenvalue,
    evaluate_at,
    full_band,
    inner_product,
    lambda_table,
    laplacian,
    lp_norm,
    normalised,
    partial_derivative,
    pointwise_product,
    product_parity,
    projection_grid,
    read_field,
    spectral_inner,
    spectral_norm,
    synthesize,
    synthesize_gradient,
    unit_mode,
    write_field,
)
from .multipliers import (
    C0,
    DyadicProfile,
    DyadicTable,
    QuadratureSpec,
    dyadic_block,
    dyadic_blocks,
    dyadic_table,
    fractional_power,
    heat_semigroup,
    j_range,
    multiplier_table,
    quadrature_nodes,
    resolvent,
    sqrt_via_resolvent,
)
from .besov import (
    BesovParams,
    besov_aggregate,
    besov_norm,
    block_lp_norms,
)
from .solver import (
    BlowUpError,
    SolverConfig,
    TrajectoryRecord,
    integrate,
    load_trajectory,
    mild_residual,
    nonlinear_term,
    simulate,
    snapshot_index,
    StepWorkspace,
    write_trajectory,
)
from .harness import (
    DEFAULT_BATTERY,
    DuhamelSupremum,
    EstimateReport,
    SampleSpec,
    adapted_quadrature,
    bilinear_battery,
    duhamel_ensemble,
    elliptic_ratio_study,
    gradient_magnitude,
    heat_smoothing_study,
    holder_target,
    multiplier_bound_study,
    sample_field,
    single_block_sample,
    symmetrized_product,
    twin_distances,
    twin_run,
    uniqueness_experiment,
    verify_derivative_structure,
    verify_initial_smallness,
    verify_product_decomposition,
)

__version__ = "0.1.0"

# Every public name bound above is an export; the submodules that the
# imports bind as attributes of the package are not.
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
