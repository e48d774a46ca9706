"""Pseudospectral solver and diagnostics for a generalized Camassa-Holm equation.

The evolution u_t - u_txx = d_x(2 + d_x)[(2 - d_x)u]^2 is integrated on a
periodic box wide enough that decaying data never sees the seam, by summing
the flow's own Taylor series in time (classical RK4 with an explicit step)
on one semi-discretisation: the primitive nonlocal form with 2/3-dealiased
products, stepped in Fourier space.  The equivalent nonlocal
rewritings of :mod:`gch.dynamics` agree with it to roundoff and serve as
physical-space references.  The diagnostics layer measures what the analysis
predicts: weighted norms grow at most exponentially, spatial decay of the
data persists under the flow, the solution sheds exponential tails with
computable amplitudes, and the spatial analyticity radius stays positive.
"""

from .analyticity import (
    MajorantParams,
    OperatorBoundReport,
    RadiusFit,
    RadiusSeries,
    majorant_norm,
    majorant_norm_argmax,
    operator_bound_report,
    radius_estimate,
    radius_track,
)
from .asymptotics import (
    AsymptoticProfile,
    LogRateFit,
    SourceVariant,
    TailRatio,
    amplitude_series,
    averaged_source,
    dominated_convergence_series,
    emitted_tail_amplitudes,
    extract_profile,
    fit_log_slope,
    initial_tail_amplitudes,
    log_remainder_rate,
    tail_amplitudes,
    tail_ratio,
)
from .config import ExperimentConfig, config_hash, parse_config, parse_config_file
from .dynamics import (
    SIMULATION_FORMS,
    RhsForm,
    form_residual,
    max_form_residual,
    momentum_rhs,
    rhs,
    sqrt3_residual_field,
)
from .errors import BlowUpError, ConfigError, GchError
from .fields import make_initial
from .grid import (
    Field,
    Grid,
    derivative,
    h1_norm,
    interpolate_onto,
    lp_norm,
    read_initial_condition,
    sample,
)
from .helmholtz import (
    green_convolve_direct,
    helmholtz_forward,
    helmholtz_inverse,
    p2_apply,
    periodized_green,
)
from .integrate import (
    Trajectory,
    estimate_dt,
    read_checkpoint,
    read_snapshots,
    rk4_step,
    simulate,
    write_checkpoint,
    write_snapshots,
)
from .persistence import (
    PersistenceLedger,
    TwoTierReport,
    persistence_ledger,
    two_tier_persistence_check,
)
from .runner import RunSummary, run_experiment, selftest, snapshots_to_csv
from .weights import (
    AdmissibilityReport,
    WeightSpec,
    admissibility_report,
    eval_weight,
    truncate_weight,
    weighted_lp_norm,
    weighted_young_check,
)

__version__ = "0.1.0"
