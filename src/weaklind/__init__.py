"""Weak measurements followed by dissipation: weak values, meter shifts,
channel maps, and the dissipation-estimation protocols built on them."""

from .errors import (
    ConfigError,
    DegenerateFit,
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
    Dissipator,
    NonMarkovJC,
    apply_superoperator,
    asymptotic_projector,
    evolve,
    nonmarkov_big_gamma,
)
from .meter import (
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
    trace_over_tau,
    weak_value_dissipative,
    weak_value_limit_infinite,
)

__version__ = "0.1.0"
