"""Simulation and verification toolkit for contracting stochastic systems.

Simulates input-driven SDEs whose drifts contract in a weighted norm,
certifies or estimates the constants (contraction rate, input Lipschitz
constant, dispersion bound), evaluates closed-form mean-square error
envelopes, and checks the envelopes against Monte Carlo ensembles and
empirical Wasserstein distances.
"""

from .bounds import (
    BoundParams,
    Envelope,
    decay_convolution,
    double_decay_convolution,
    make_envelope,
    optimize_alpha,
)
from .contraction import (
    box_sampler,
    cascade_metric,
    certify_affine,
    dispersion_bound,
    input_lipschitz,
    ito_correction_jd,
    ito_correction_ou,
    oslip_affine,
    oslip_sampled,
)
from .core import (
    Certificate,
    EquilibriumMap,
    InputSignal,
    Metric,
    SystemSpec,
    TimeGrid,
    affine_system,
    identity_metric,
    scalar_tracker,
    validate_metric,
    weighted_norm_sq,
)
from .errors import (
    CapabilityError,
    CapacityError,
    CertificationError,
    ConfigError,
    DivergenceError,
    DomainError,
    EstimationError,
    InputError,
    StateCorruptionError,
)
from .integrate import (
    CouplingMode,
    Trajectory,
    default_dt,
    euler_maruyama,
    integrate_cascade,
    integrate_pair,
    ode_rk4,
)
from .montecarlo import (
    CascadeScenario,
    MomentSeries,
    PairScenario,
    Verdict,
    check_envelope,
    compare_to_bound,
    ou_moment,
    pair_error_moment,
    tail_average,
    tail_standard_error,
    tracking_error_moment,
)
from .noise import (
    JDParams,
    OUParams,
    RngLineage,
    feller_check,
    jd_step,
    jd_step_with_flag,
    ou_exact_step,
    ou_second_moment,
)
from .scenarios import ScenarioConfig, parse_config, resolve_output_dir, run_scenario
from .wasserstein import (
    EmpiricalMeasure,
    WassersteinScenario,
    gibbs_check,
    gibbs_density,
    stationarity_residual,
    verify_wasserstein_contraction,
    wasserstein_1d,
    wasserstein_assignment,
    wasserstein_envelope,
    wasserstein_series,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
