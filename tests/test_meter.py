"""Meter readout formulas against the exact joint-state simulation."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from weaklind import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    Dissipator,
    WeakMeasurementSetup,
    bloch_to_density,
    invert_weak_value,
    jc_shift_columns,
    jc_shifts,
    rabi_shift_columns,
    rabi_shifts_number_state,
    weak_value_dissipative,
)
from weaklind.config import build_occupation, load_config
from weaklind.errors import ConfigError, SingularInversion

SIGMA_I = bloch_to_density([0.55, 0.15, 0.6])
SIGMA_F = bloch_to_density([-0.3, 0.45, -0.5])
GAMMA = 0.5


def damping():
    return Dissipator([SIGMA_MINUS], [GAMMA])


# --------------------------------------------------------------- occupation

def _occupation(tmp_path, **meter):
    """build_occupation of a config whose meter section is `meter`."""
    path = tmp_path / "meter.json"
    path.write_text(json.dumps({"version": 1, "meter": {"omega_f": 1.3, "g": 1e-3, "t": 1.0,
                                                         **meter}}))
    return build_occupation(load_config(str(path)))


def test_meter_state_constructors(tmp_path):
    # the readouts take the meter's mean occupation, a plain float
    assert _occupation(tmp_path) == 0.0
    assert math.copysign(1.0, _occupation(tmp_path, state="vacuum", n=-0.0)) == 1.0
    assert _occupation(tmp_path, state="number", n=3) == 3.0
    assert type(_occupation(tmp_path, state="number", n=3)) is float
    assert _occupation(tmp_path, state="thermal", n=0.7) == 0.7
    for meter in ({"state": "number", "n": -1}, {"state": "number", "n": 1.5},
                  {"state": "rabi"}, {"state": "vacuum", "n": 3.0}):
        with pytest.raises(ConfigError):
            _occupation(tmp_path, **meter)


@pytest.mark.parametrize("make", [
    lambda: rabi_shifts_number_state(math.inf, 1j, 1e-3, 1.0, 0.0, 1.3),
    lambda: jc_shift_columns(math.nan, [0j], [1j], 1e-3, 1.0, [0.0], 1.3, 0.0),
    lambda: jc_shifts(math.nan, 0j, 1j, 1e-3, 1.0, 0.0, 1.3, 0.0),
    lambda: invert_weak_value(math.inf, 0.1, 0.2, "rabi", 1e-3, 1.0, 0.0, 1.3, 0.0),
    lambda: invert_weak_value(-math.inf, 0.1, 0.2, "jc", 1e-3, 1.0, 0.0, 1.3, 0.0),
    lambda: rabi_shift_columns(-math.inf, [1j], 1e-3, 1.0, [0.0], 1.3),
])
def test_meter_state_refuses_a_non_finite_occupation(make):
    # one check, shared by every readout, before any other refusal
    with pytest.raises(ValueError, match="occupation must be finite and >= 0"):
        make()


@pytest.mark.parametrize("n", [-0.5, math.nan, math.inf])
def test_rabi_shift_columns_refuse_a_non_finite_occupation(n):
    with pytest.raises(ValueError, match="occupation must be finite and >= 0"):
        rabi_shift_columns(n, [1j], 1e-3, 1.0, [0.0], 1.3)


def test_meter_density_matrices():
    dim = 25
    rho = orc.meter_density("number", 2, dim)
    assert rho[2, 2] == 1.0 and abs(np.trace(rho) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        orc.meter_density("number", 30, dim)
    th = orc.meter_density("thermal", 0.4, dim)
    assert abs(np.trace(th) - 1.0) < 1e-12
    # geometric ratio between successive occupations
    x = 0.4 / 1.4
    np.testing.assert_allclose(np.diag(th)[1:] / np.diag(th)[:-1], x, atol=1e-12)
    # truncated mean occupation is close to the nominal one
    mean = float(np.sum(np.arange(dim) * np.diag(th).real))
    assert abs(mean - 0.4) < 1e-8


# ------------------------------------------------------- first-order shifts

def test_occupation_amplifies_only_the_imaginary_part():
    omega_f, g, t, tau = 1.0, 0.01, 1.0, 0.2
    pure_im = 2.0j
    q0, p0 = rabi_shifts_number_state(0, pure_im, g, t, tau, omega_f)
    q1, _ = rabi_shifts_number_state(1, pure_im, g, t, tau, omega_f)
    _, p5 = rabi_shifts_number_state(5, pure_im, g, t, tau, omega_f)
    assert abs(q1 / q0 - 3.0) < 1e-12
    assert abs(p5 / p0 - 11.0) < 1e-12
    pure_re = 2.0 + 0.0j
    s0 = rabi_shifts_number_state(0, pure_re, g, t, tau, omega_f)
    s5 = rabi_shifts_number_state(5, pure_re, g, t, tau, omega_f)
    assert abs(s5[0] - s0[0]) < 1e-14
    assert abs(s5[1] - s0[1]) < 1e-14


def _rabi_case(n, g, t=0.9, tau=0.4, omega_f=1.3, omega_a=0.7):
    # the transverse coupling sampled at its midpoint measures sigma_x rotated
    # clockwise by half the accumulated phase
    half = 0.5 * omega_a * t
    A_SI = np.cos(half) * SIGMA_X - np.sin(half) * SIGMA_Y
    setup = WeakMeasurementSetup(sigma_i=SIGMA_I, sigma_fI=SIGMA_F, A_SI=A_SI)
    wv = weak_value_dissipative(setup, damping(), tau).value
    q, p = rabi_shifts_number_state(n, wv, g, t, tau, omega_f)
    mu0 = orc.meter_density("number", n, 21)
    oq, op, _ = orc.rabi_joint_readout(SIGMA_I, SIGMA_F, A_SI, mu0, g, t, tau,
                                       omega_f, GAMMA)
    return (math.hypot(q - oq, p - op)
            / math.hypot(oq, op))


def test_rabi_formula_relative_error_is_second_order_in_gt():
    # relative disagreement with the all-orders simulation scales as (gt)^2;
    # for energy-diagonal meters the absolute error is even third order,
    # because even powers of the coupling trace to zero against the odd
    # quadrature operators
    for n in (0, 1):
        errs = [_rabi_case(n, gt / 0.9) for gt in (1e-2, 1e-3)]
        ratio = errs[0] / errs[1]
        assert 80.0 < ratio < 120.0, ratio


def test_jc_vacuum_reduces_to_polar_rotation():
    g, t, tau, omega_f, Delta = 0.01, 0.9, 0.4, 1.3, 0.02
    wv_minus = 1.1 - 0.8j
    q, p = jc_shifts(0.0, 0.5 + 0.5j, wv_minus, g, t, tau, omega_f, Delta)
    chi = 0.5 * Delta * t + omega_f * (t + tau)
    phase = math.atan2(wv_minus.imag, wv_minus.real)
    qu, pu = math.sqrt(1 / (2 * omega_f)), math.sqrt(omega_f / 2)
    assert abs(q - 2 * g * t * qu * abs(wv_minus) * math.sin(phase - chi)) < 1e-13
    assert abs(p + 2 * g * t * pu * abs(wv_minus) * math.cos(phase - chi)) < 1e-13


def test_jc_rejects_custom_meters_and_warns_off_resonance(tmp_path):
    # a meter is vacuum, number or thermal: the readout forms need only its occupation
    with pytest.raises(ConfigError, match="meter.state"):
        _occupation(tmp_path, state="custom")
    with pytest.warns(UserWarning):
        jc_shifts(0.0, 0j, 1j, 0.01, 1.0, 0.0, 1.0, Delta=0.2)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _rabi_point(n, wv, g, t, tau, omega_f):
    """The per-point transverse formula as written before the grid form."""
    theta = omega_f * (0.5 * t + tau)
    factor = 2.0 * n + 1.0
    q_unit, p_unit = math.sqrt(1.0 / (2.0 * omega_f)), math.sqrt(omega_f / 2.0)
    return (-2.0 * g * t * q_unit * (math.sin(theta) * wv.real
                                     - factor * math.cos(theta) * wv.imag),
            -2.0 * g * t * p_unit * (math.cos(theta) * wv.real
                                     + factor * math.sin(theta) * wv.imag))


def _jc_point(wv_plus, wv_minus, n, g, t, tau, omega_f, Delta):
    """The per-point rotating-wave formula as written before the grid form,
    on numpy complex scalars as a trace's values are."""
    chi = 0.5 * Delta * t + omega_f * (t + tau)
    phase = complex(math.cos(chi), math.sin(chi))
    q_unit, p_unit = math.sqrt(1.0 / (2.0 * omega_f)), math.sqrt(omega_f / 2.0)
    up = phase * wv_plus * n
    down = np.conj(phase) * wv_minus * (n + 1.0)
    return 2.0 * g * t * q_unit * (up + down).imag, 2.0 * g * t * p_unit * (up - down).real


@given(st.integers(0, 10**6), st.sampled_from(["vacuum", "number", "thermal"]))
def test_grid_shifts_equal_the_per_point_forms_bit_for_bit(seed, kind):
    # a grid long enough for numpy's vectorised loops, whose complex multiply
    # may round differently from the scalar one
    rng = np.random.default_rng(seed)
    n = {"vacuum": 0.0, "number": float(rng.integers(1, 5)),
         "thermal": float(rng.uniform(0.0, 3.0))}[kind]
    taus = np.sort(rng.uniform(0.0, 40.0, 37))
    wvp, wvm = ((rng.standard_normal(37) + 1j * rng.standard_normal(37))
                * 10.0 ** rng.uniform(-3, 3, 37) for _ in range(2))
    g, t, omega_f = 10.0 ** rng.uniform(-4, 0), rng.uniform(0.1, 2.0), rng.uniform(0.1, 5.0)
    Delta = rng.uniform(-0.04, 0.04) / t
    Q, P = rabi_shift_columns(n, wvm, g, t, taus, omega_f)
    Qj, Pj = jc_shift_columns(n, wvp, wvm, g, t, taus, omega_f, Delta)
    for k, tau in enumerate(taus.tolist()):
        rep = rabi_shifts_number_state(n, wvm[k], g, t, tau, omega_f)
        want = _rabi_point(n, wvm[k], g, t, tau, omega_f)
        assert all(type(x) is float for x in rep) and len(rep) == 2
        assert (_bits(Q[k]), _bits(P[k])) == tuple(map(_bits, rep))
        assert (_bits(Q[k]), _bits(P[k])) == tuple(map(_bits, want))
        rep = jc_shifts(n, wvp[k], wvm[k], g, t, tau, omega_f, Delta)
        want = _jc_point(wvp[k], wvm[k], n, g, t, tau, omega_f, Delta)
        assert all(type(x) is float for x in rep) and len(rep) == 2
        assert (_bits(Qj[k]), _bits(Pj[k])) == tuple(map(_bits, rep))
        assert (_bits(Qj[k]), _bits(Pj[k])) == tuple(map(_bits, want))


def test_grid_shifts_mark_overflow_without_warnings():
    # an angle past the float range gives NaN from that row on, and g t past
    # it gives non-finite shifts everywhere; neither raises a numpy warning
    taus = np.linspace(0.0, 40.0, 81)
    wv = np.full(81, 0.3 - 0.2j)
    Q, P = rabi_shift_columns(1.0, wv, 0.01, 1.0, taus, 1e307)
    first = next(k for k, tau in enumerate(taus.tolist()) if math.isinf(1e307 * (0.5 + tau)))
    assert np.isfinite(Q[:first]).all() and np.isnan(Q[first:]).all() and np.isnan(P[first:]).all()
    Q, P = jc_shift_columns(1.0, wv, wv, 1e308, 1e308, taus, 1.3, 0.0)
    assert not np.isfinite(Q).any() and not np.isfinite(P).any()
    # the one-point calls refuse what the columns mark
    with pytest.raises(ValueError, match="the meter shifts are not finite"):
        jc_shifts(1.0, wv[0], wv[0], 0.01, 1.0, 40.0, 1e307, 0.0)
    with pytest.raises(ValueError, match="the meter shifts are not finite"):
        rabi_shifts_number_state(1.0, wv[0], 0.01, 1.0, 40.0, 1e307)


def test_jc_grid_warns_once_per_call():
    taus = np.linspace(0.0, 1.0, 11)
    with pytest.warns(UserWarning) as seen:
        jc_shift_columns(0.0, np.zeros(11), np.ones(11), 0.01, 1.0, taus, 1.0, Delta=0.2)
    assert len(seen) == 1


def test_rotating_wave_warning_names_the_callers_line():
    # each public entry warns once per call, at the line that called it
    taus = np.linspace(0.0, 1.0, 11)
    calls = [
        lambda: jc_shift_columns(0.0, np.zeros(11), np.ones(11), 0.01, 1.0, taus, 1.0, 0.2),
        lambda: jc_shifts(0.0, 0j, 1j, 0.01, 1.0, 0.0, 1.0, Delta=0.2),
        lambda: invert_weak_value(0.0, 0.1, 0.2, "jc", 0.01, 1.0, 0.0, 1.0, Delta=0.2),
    ]
    for call in calls:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            call()
        assert [(w.filename, w.lineno) for w in seen] == [
            (__file__, call.__code__.co_firstlineno)]


def _jc_case(kind, n, g, t=0.9, tau=0.4, omega_f=1.3, Delta=0.02):
    d = damping()
    wv_plus = weak_value_dissipative(
        WeakMeasurementSetup(sigma_i=SIGMA_I, sigma_fI=SIGMA_F, A_SI=SIGMA_PLUS),
        d, tau).value
    wv_minus = weak_value_dissipative(
        WeakMeasurementSetup(sigma_i=SIGMA_I, sigma_fI=SIGMA_F, A_SI=SIGMA_MINUS),
        d, tau).value
    q, p = jc_shifts(n, wv_plus, wv_minus, g, t, tau, omega_f, Delta)
    rho_m = orc.meter_density(kind, n, 21)
    oq, op, _ = orc.jc_joint_readout(SIGMA_I, SIGMA_F, rho_m, g, t, tau, omega_f, GAMMA, Delta)
    return (math.hypot(q - oq, p - op)
            / math.hypot(oq, op))


def test_jc_formula_relative_error_is_second_order_in_gt():
    for kind, n in (("vacuum", 0.0), ("number", 1.0), ("thermal", 0.4)):
        errs = [_jc_case(kind, n, gt / 0.9) for gt in (1e-2, 1e-3)]
        ratio = errs[0] / errs[1]
        assert 80.0 < ratio < 120.0, ratio


# ------------------------------------------------------------------ inverse

def test_inversion_round_trip():
    omega_f = 1.3
    wv = 1.7 - 0.9j
    g = 0.01
    for n in (0, 1, 5):
        for t, tau in ((0.9, 0.4), (1.4, 1.1)):
            q, p = rabi_shifts_number_state(n, wv, g, t, tau, omega_f)
            got = invert_weak_value(n, q, p, "rabi", g, t, tau, omega_f, 0.0)
            assert abs(got - wv) < 1e-10


def test_inversion_singular_cases():
    with pytest.raises(SingularInversion):
        invert_weak_value(0.0, 0.1, 0.2, "rabi", 0.0, 1.0, 0.2, 1.0, 0.0)
    # a jc meter with n > 0 reads out both ladder weak values at once
    for n in (1.0, 0.4):
        with pytest.raises(SingularInversion, match="meter.model"):
            invert_weak_value(n, 0.1, 0.2, "jc", 0.01, 1.0, 0.2, 1.0, 0.0)


@given(st.integers(0, 10**6), st.sampled_from(["vacuum", "number", "thermal", "jc"]))
def test_inversion_undoes_the_closed_forms(seed, kind):
    rng = np.random.default_rng(seed)
    n = {"vacuum": 0.0, "jc": 0.0, "number": float(rng.integers(1, 6)),
         "thermal": float(rng.uniform(0.0, 3.0))}[kind]
    wv = complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-3, 3)
    g, t, omega_f = 10.0 ** rng.uniform(-4, 0), rng.uniform(0.1, 2.0), rng.uniform(0.1, 5.0)
    tau, hbar = rng.uniform(0.0, 20.0), 10.0 ** rng.uniform(-2, 2)
    Delta = rng.uniform(-0.04, 0.04) / t
    if kind == "jc":
        (Q,), (P,) = jc_shift_columns(n, [0.3j], [wv], g, t, [tau], omega_f, Delta, hbar)
    else:
        (Q,), (P,) = rabi_shift_columns(n, [wv], g, t, [tau], omega_f, hbar)
    model = "jc" if kind == "jc" else "rabi"
    got = invert_weak_value(n, float(Q), float(P), model, g, t, tau, omega_f, Delta, hbar)
    assert abs(got - wv) <= 1e-12 * abs(wv)
