"""Weak measurements followed by dissipation: weak values, meter shifts,
channel maps, and the dissipation-estimation protocols built on them."""

from .errors import (
    ConfigError,
    DegenerateFit,
    DenominatorVanishes,
    DimensionMismatch,
    EpsilonOutOfRange,
    NegativeTau,
    NoConvergence,
    NormTooLarge,
    NotDensity,
    PostselectionVanishes,
    ScenarioAssertionError,
    SingularInversion,
    WeaklindError,
)
from .lindblad import (
    DissipationChannel,
    Dissipator,
    NonMarkovJC,
    SteadySpace,
    apply_superoperator,
    asymptotic_projector,
    build_dissipator,
    evolve,
    nonmarkov_big_gamma,
    nonmarkov_channel_apply,
    nonmarkov_gamma,
    steady_state,
    two_level_damping_apply,
)
from .meter import (
    MeterState,
    ShiftReport,
    invert_weak_value,
    jc_shift_columns,
    jc_shifts,
    rabi_shift_columns,
    rabi_shifts_number_state,
)
from .operators import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_to_density,
    density_to_bloch,
    is_density,
    is_hermitian,
    jy_six_level,
    pauli,
    pure_density,
    sodium_jump_operators,
)
from .scenarios import (
    ScenarioResult,
    classify_markovianity,
    estimate_gamma,
    estimate_lambda,
    run_scenario,
    sodium_anomalous,
    sodium_constant,
)
from .weakvalue import (
    WeakMeasurementSetup,
    WeakValueSample,
    WeakValueTrace,
    epsilon_states,
    markov_short_time_wv,
    measured_operator_rabi,
    nonmarkov_short_time_wv,
    postselection_rotation,
    postselection_rotation_inverse,
    trace_over_tau,
    weak_value_2level_analytic,
    weak_value_dissipative,
    weak_value_limit_infinite,
    weak_value_sigma_pm,
)

__version__ = "0.1.0"
