"""tplab: numerical laboratory for trace Poincare inequalities and
subexponential matrix concentration, exact on finite reversible Markov
chains and Monte Carlo on Gaussian models."""

from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    DomainError,
    LabError,
    ModelError,
    NumericError,
)
from .spectral import (
    ScalarFnSpec,
    SpectralDecomposition,
    batch_eigvalsh,
    eigh,
    intdim,
    op_norm,
    symmetrize,
)
from .models import (
    FiniteChain,
    FiniteField,
    GaussianChaos,
    GaussianSeries,
    SmoothField,
    chain_from_graph,
    chain_from_json,
    chaos_as_field,
    complete_refresh_chain,
    constant_field,
    product_chain,
    series_as_field,
    two_state_chain,
)
from .energy import (
    EnergyReport,
    bivariate_symmetrized,
    carre_table,
    column_energies,
    energy_report,
)
from .poincare import (
    PoincareCertificate,
    ProbeReport,
    check_scalar_poincare,
    check_trace_poincare,
    equivalence_probe,
    ou_certificate,
    poincare_constant,
    user_certificate,
)
from .montecarlo import (
    Estimate,
    SampleSpec,
    estimate_tail,
    estimate_trace_moment,
    normal_stream,
    wilson_interval,
)
from .bounds import (
    UNBOUNDED,
    BoundParams,
    GaussianPass,
    chaos_scalar_bound,
    check_bivariate_poincare,
    check_chain_rule,
    check_chaos_matrix,
    check_chaos_scalar,
    check_exp_moment,
    check_intdim_variant,
    check_mean_value_trace,
    check_poly_moment,
    check_subadditivity,
    check_tail_empirical,
    default_theta_grid,
    exp_moment_rhs,
    gaussian_pass,
    poly_moment_rhs,
    tail_bound,
)
from .reports import CheckReport, DEFAULT_SLACK, rows_to_csv, rows_to_json

__version__ = "0.1.0"
