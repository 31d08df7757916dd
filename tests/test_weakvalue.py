"""Weak values under dissipation: trace formula, closed forms, limits, laws."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from weaklind import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    DissipationChannel,
    NonMarkovJC,
    WeakMeasurementSetup,
    apply_superoperator,
    asymptotic_projector,
    bloch_to_density,
    build_dissipator,
    epsilon_states,
    markov_short_time_wv,
    measured_operator_rabi,
    nonmarkov_short_time_wv,
    pauli,
    postselection_rotation,
    postselection_rotation_inverse,
    pure_density,
    sodium_jump_operators,
    trace_over_tau,
    weak_value_2level_analytic,
    weak_value_dissipative,
    weak_value_limit_infinite,
    weak_value_sigma_pm,
)
from weaklind import lindblad, weakvalue
from weaklind.cli import main
from weaklind.errors import (
    DenominatorVanishes,
    DimensionMismatch,
    EpsilonOutOfRange,
    NegativeTau,
    NoConvergence,
    NotDensity,
    PostselectionVanishes,
)

seeds = st.integers(0, 10**6)


def damping(gamma=1.0):
    return build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=gamma)], dim=2)


def random_2level_setup(rng):
    return WeakMeasurementSetup(
        sigma_i=orc.random_density(rng, 2),
        sigma_fI=orc.random_density(rng, 2),
        A_SI=orc.random_hermitian(rng, 2),
    )


def bloch_interior(rng, scale=0.95):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v) * rng.uniform(0.1, scale)


# ------------------------------------------------------------ trace formula

@given(seeds)
def test_tau_zero_reduces_to_pure_state_quotient(seed):
    rng = np.random.default_rng(seed)
    psi_i, psi_f = orc.random_ket(rng, 2), orc.random_ket(rng, 2)
    overlap = np.vdot(psi_f, psi_i)
    if abs(overlap) < 1e-3:
        return
    A = orc.random_hermitian(rng, 2)
    setup = WeakMeasurementSetup(
        sigma_i=np.outer(psi_i, psi_i.conj()),
        sigma_fI=np.outer(psi_f, psi_f.conj()),
        A_SI=A,
    )
    sample = weak_value_dissipative(setup, damping(), 0.0)
    want = np.vdot(psi_f, A @ psi_i) / overlap
    assert abs(sample.value - want) < 1e-10 * max(1.0, abs(want))
    assert abs(sample.probability - abs(overlap) ** 2) < 1e-12


@given(seeds)
def test_matches_row_stacking_oracle(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    setup = WeakMeasurementSetup(
        sigma_i=orc.random_density(rng, dim),
        sigma_fI=orc.random_density(rng, dim),
        A_SI=orc.random_hermitian(rng, dim),
    )
    channels = [(orc.random_matrix(rng, dim), float(rng.uniform(0.2, 1.5)))]
    d = build_dissipator(
        [DissipationChannel(jump=L, rate=r) for L, r in channels], dim=dim)
    tau = float(rng.uniform(0.0, 2.0))
    want, want_prob = orc.weak_value_row(setup.sigma_i, setup.sigma_fI,
                                         setup.A_SI, channels, dim, tau)
    if abs(want_prob) < 1e-3:
        return
    got = weak_value_dissipative(setup, d, tau)
    assert abs(got.value - want) < 1e-10 * max(1.0, abs(want))
    assert abs(got.probability - want_prob) < 1e-10


def test_orthogonal_postselection_vanishes_then_reopens():
    setup = WeakMeasurementSetup(
        sigma_i=pure_density([1.0, 0.0]),       # |e>
        sigma_fI=pure_density([0.0, 1.0]),      # |g>
        A_SI=pauli("x"),
    )
    d = damping(1.0)
    with pytest.raises(PostselectionVanishes):
        weak_value_dissipative(setup, d, 0.0)
    sample = weak_value_dissipative(setup, d, 0.5)
    assert sample.probability > 0.3   # decayed population reopens the branch


def test_setup_validation():
    good = orc.random_density(np.random.default_rng(0), 2)
    with pytest.raises(NotDensity):
        WeakMeasurementSetup(sigma_i=np.eye(2), sigma_fI=good, A_SI=pauli("x"))
    with pytest.raises(DimensionMismatch):
        WeakMeasurementSetup(sigma_i=good, sigma_fI=good, A_SI=np.eye(3))
    setup = WeakMeasurementSetup(sigma_i=good, sigma_fI=good, A_SI=pauli("x"))
    with pytest.raises(DimensionMismatch):
        weak_value_dissipative(setup, build_dissipator(
            [DissipationChannel(jump=np.zeros((3, 3)), rate=1.0)], dim=3), 0.1)


# ----------------------------------------------------------------- limits

@given(seeds)
def test_unique_ground_state_limit_is_plain_expectation(seed):
    rng = np.random.default_rng(seed)
    setup = random_2level_setup(rng)
    want = np.trace(setup.A_SI @ setup.sigma_i)
    got = weak_value_limit_infinite(setup, damping(0.8))
    assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_degenerate_limit_elementwise_quotient():
    # the entrywise decomposition sum_{jk} f_{jk} [P(A s_i)]_{kj} over
    # sum_{jk} f_{jk} [P(s_i)]_{kj} must reproduce the projector quotient
    from weaklind import sodium_jump_operators
    d = build_dissipator(
        [DissipationChannel(jump=L, rate=1.0) for L, _ in sodium_jump_operators()],
        dim=6,
    )
    rng = np.random.default_rng(31)
    setup = WeakMeasurementSetup(
        sigma_i=orc.random_density(rng, 6),
        sigma_fI=orc.random_density(rng, 6),
        A_SI=orc.random_hermitian(rng, 6),
    )
    P = asymptotic_projector(d)
    Ma = apply_superoperator(P, setup.A_SI @ setup.sigma_i)
    Mb = apply_superoperator(P, setup.sigma_i)
    num = sum(setup.sigma_fI[j, k] * Ma[k, j] for j in range(6) for k in range(6))
    den = sum(setup.sigma_fI[j, k] * Mb[k, j] for j in range(6) for k in range(6))
    assert abs(num / den - weak_value_limit_infinite(setup, d)) < 1e-10


def test_convergence_rate_to_limit():
    # deviation from the limit decays no slower than the coherence gap gamma/2
    rng = np.random.default_rng(37)
    gamma = 1.0
    d = damping(gamma)
    for _ in range(10):
        setup = random_2level_setup(rng)
        lim = weak_value_limit_infinite(setup, d)
        dev1 = abs(weak_value_dissipative(setup, d, 8.0).value - lim)
        dev2 = abs(weak_value_dissipative(setup, d, 12.0).value - lim)
        if dev1 < 1e-12:
            continue
        assert dev2 / dev1 < np.exp(-0.5 * gamma * 4.0) * 1.5


# ----------------------------------------------------- closed two-level form

@given(seeds)
def test_analytic_gamma_zero_matches_pure_state_formula(seed):
    rng = np.random.default_rng(seed)
    i_vec, f_vec = bloch_interior(rng), bloch_interior(rng)
    m_vec = rng.standard_normal(3)
    a, b = float(rng.standard_normal()), float(rng.standard_normal())
    A = a * np.eye(2) + b * sum(m_vec[k] * pauli("xyz"[k]) for k in range(3))
    setup = WeakMeasurementSetup(
        sigma_i=bloch_to_density(i_vec), sigma_fI=bloch_to_density(f_vec), A_SI=A)
    want = weak_value_dissipative(setup, damping(), 0.0).value
    got = weak_value_2level_analytic(i_vec, f_vec, a, b, m_vec, gamma=0.0, tau=0.0)
    assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_analytic_matches_trace_formula_with_damping():
    rng = np.random.default_rng(41)
    gamma = 0.6
    d = damping(gamma)
    checked = 0
    while checked < 200:
        i_vec, f_vec = bloch_interior(rng), bloch_interior(rng)
        m_vec = rng.standard_normal(3)
        a, b = float(rng.standard_normal()), float(rng.standard_normal())
        tau = float(rng.uniform(0.0, 4.0))
        A = a * np.eye(2) + b * sum(m_vec[k] * pauli("xyz"[k]) for k in range(3))
        setup = WeakMeasurementSetup(
            sigma_i=bloch_to_density(i_vec), sigma_fI=bloch_to_density(f_vec), A_SI=A)
        sample = weak_value_dissipative(setup, d, tau)
        if sample.probability < 1e-2:
            continue
        got = weak_value_2level_analytic(i_vec, f_vec, a, b, m_vec, gamma, tau)
        assert abs(got - sample.value) < 1e-9 * max(1.0, abs(sample.value))
        checked += 1


def test_analytic_long_time_limit():
    # full attenuation wipes the post-selection dependence: the closed form
    # collapses to the plain expectation a + b (m . i)
    rng = np.random.default_rng(43)
    for _ in range(20):
        i_vec, f_vec = bloch_interior(rng), bloch_interior(rng)
        m_vec = rng.standard_normal(3)
        a, b = 0.3, 1.2
        got = weak_value_2level_analytic(i_vec, f_vec, a, b, m_vec, 1.0, 80.0)
        want = a + b * np.dot(m_vec, i_vec)
        assert abs(got - want) < 1e-9


def test_analytic_denominator_vanishes():
    # pre and post anti-parallel on the z axis at gamma = 0
    with pytest.raises(DenominatorVanishes):
        weak_value_2level_analytic([0, 0, 1.0], [0, 0, -1.0], 0.0, 1.0,
                                   [1.0, 0, 0], gamma=0.0, tau=0.0)


def test_analytic_input_validation():
    with pytest.raises(Exception):
        weak_value_2level_analytic([0, 0, 2.0], [0, 0, 0.1], 0.0, 1.0,
                                   [1, 0, 0], 0.5, 1.0)
    with pytest.raises(ValueError):
        weak_value_2level_analytic([0, 0, 0.5], [0, 0, 0.1], 0.0, 1.0,
                                   [1, 0, 0], -0.5, 1.0)
    with pytest.raises(Exception):
        weak_value_2level_analytic([0, 0, 0.5], [0, 0, 0.1], 0.0, 1.0,
                                   [1, 0, 0], 0.5, -1.0)


# ------------------------------------------------------------- ladder forms

def test_sigma_pm_equals_complex_axis_form():
    rng = np.random.default_rng(47)
    gamma = 0.8
    m_plus = np.array([1.0, 1j, 0.0]) / 2.0
    m_minus = np.array([1.0, -1j, 0.0]) / 2.0
    checked = 0
    while checked < 200:
        i_vec, f_vec = bloch_interior(rng), bloch_interior(rng)
        tau = float(rng.uniform(0.0, 3.0))
        try:
            plus = weak_value_sigma_pm(i_vec, f_vec, gamma, tau, "+")
            minus = weak_value_sigma_pm(i_vec, f_vec, gamma, tau, "-")
        except DenominatorVanishes:
            continue
        via_m_plus = weak_value_2level_analytic(i_vec, f_vec, 0.0, 1.0, m_plus, gamma, tau)
        via_m_minus = weak_value_2level_analytic(i_vec, f_vec, 0.0, 1.0, m_minus, gamma, tau)
        assert abs(plus - via_m_plus) < 1e-11 * max(1.0, abs(plus))
        assert abs(minus - via_m_minus) < 1e-11 * max(1.0, abs(minus))
        checked += 1


def test_sigma_pm_matches_trace_formula():
    rng = np.random.default_rng(53)
    gamma = 0.5
    d = damping(gamma)
    checked = 0
    while checked < 100:
        i_vec, f_vec = bloch_interior(rng), bloch_interior(rng)
        tau = float(rng.uniform(0.0, 3.0))
        setups = {
            "+": WeakMeasurementSetup(sigma_i=bloch_to_density(i_vec),
                                      sigma_fI=bloch_to_density(f_vec),
                                      A_SI=SIGMA_PLUS),
            "-": WeakMeasurementSetup(sigma_i=bloch_to_density(i_vec),
                                      sigma_fI=bloch_to_density(f_vec),
                                      A_SI=SIGMA_MINUS),
        }
        sample = weak_value_dissipative(setups["+"], d, tau)
        if sample.probability < 1e-2:
            continue
        for sign, setup in setups.items():
            want = weak_value_dissipative(setup, d, tau).value
            got = weak_value_sigma_pm(i_vec, f_vec, gamma, tau, sign)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))
        checked += 1


def test_sigma_pm_combination_identities():
    rng = np.random.default_rng(59)
    gamma = 0.9
    for _ in range(50):
        i_vec, f_vec = bloch_interior(rng), bloch_interior(rng)
        tau = float(rng.uniform(0.05, 2.0))
        plus = weak_value_sigma_pm(i_vec, f_vec, gamma, tau, "+")
        minus = weak_value_sigma_pm(i_vec, f_vec, gamma, tau, "-")
        sx = weak_value_2level_analytic(i_vec, f_vec, 0.0, 1.0, [1, 0, 0], gamma, tau)
        sy = weak_value_2level_analytic(i_vec, f_vec, 0.0, 1.0, [0, 1, 0], gamma, tau)
        assert abs((plus + minus) - sx) < 1e-10 * max(1.0, abs(sx))
        assert abs((plus - minus) - 1j * sy) < 1e-10 * max(1.0, abs(sy))


def test_sigma_pm_excited_to_ground_edge_case():
    # |e> pre, |g> post: both ladder numerators vanish identically for tau > 0
    plus = weak_value_sigma_pm([0, 0, 1.0], [0, 0, -1.0], 1.0, 0.7, "+")
    minus = weak_value_sigma_pm([0, 0, 1.0], [0, 0, -1.0], 1.0, 0.7, "-")
    assert plus == 0.0
    assert minus == 0.0
    with pytest.raises(DenominatorVanishes):
        weak_value_sigma_pm([0, 0, 1.0], [0, 0, -1.0], 1.0, 0.0, "+")
    with pytest.raises(ValueError):
        weak_value_sigma_pm([0, 0, 0.5], [0, 0, 0.1], 1.0, 0.5, "*")


# -------------------------------------------------- rotating-frame helpers

def test_measured_operator_rabi_axes():
    op0, n0 = measured_operator_rabi(omega_a=2.0, t=0.0)
    np.testing.assert_allclose(op0, pauli("x"), atol=1e-15)
    np.testing.assert_allclose(n0, [1.0, 0.0, 0.0], atol=1e-15)
    op, n = measured_operator_rabi(omega_a=np.pi, t=1.0)   # omega_a t / 2 = pi/2
    np.testing.assert_allclose(op, -pauli("y"), atol=1e-12)
    np.testing.assert_allclose(n, [0.0, -1.0, 0.0], atol=1e-12)
    # always a unit transverse axis
    _, n2 = measured_operator_rabi(omega_a=1.7, t=2.3)
    assert abs(np.linalg.norm(n2) - 1.0) < 1e-14
    assert n2[2] == 0.0


def test_postselection_rotation_round_trip():
    rng = np.random.default_rng(61)
    for _ in range(50):
        f = bloch_interior(rng)
        omega_a, t_plus_tau = float(rng.uniform(0.1, 5)), float(rng.uniform(0, 4))
        fwd = postselection_rotation(f, omega_a, t_plus_tau)
        back = postselection_rotation_inverse(fwd, omega_a, t_plus_tau)
        np.testing.assert_allclose(back, f, atol=1e-12)
        assert fwd[2] == f[2]                       # z is invariant
        assert abs(np.linalg.norm(fwd) - np.linalg.norm(f)) < 1e-12
    np.testing.assert_allclose(
        postselection_rotation([0.3, 0.4, 0.1], 1.0, 0.0), [0.3, 0.4, 0.1])


def test_rotation_consistency_with_time_dependent_operator():
    # weak value of the rotating transverse operator, computed two ways:
    # time-dependent operator in the trace formula versus the fixed-axis
    # closed form with the post-selection axis counter-rotated
    rng = np.random.default_rng(67)
    gamma, omega_a = 0.4, 1.3
    d = damping(gamma)
    for _ in range(25):
        i_vec, fI_vec = bloch_interior(rng), bloch_interior(rng)
        t, tau = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        op, n_vec = measured_operator_rabi(omega_a, t)
        setup = WeakMeasurementSetup(
            sigma_i=bloch_to_density(i_vec), sigma_fI=bloch_to_density(fI_vec), A_SI=op)
        sample = weak_value_dissipative(setup, d, tau)
        if sample.probability < 1e-2:
            continue
        got = weak_value_2level_analytic(i_vec, fI_vec, 0.0, 1.0, n_vec, gamma, tau)
        assert abs(got - sample.value) < 1e-9 * max(1.0, abs(sample.value))


# ------------------------------------------------------- weak-pointer states

def test_epsilon_states_overlap_scaling():
    for eps in (0.2, 0.1, 0.01, -0.1):
        rho_i, rho_f = epsilon_states(eps)
        p = float(np.trace(rho_f @ rho_i).real)
        assert abs(p - eps * eps / 4.0) < abs(eps) ** 3


def test_epsilon_states_validation():
    for bad in (0.0, 0.21, -0.5):
        with pytest.raises(EpsilonOutOfRange):
            epsilon_states(bad)


def test_epsilon_states_exact_initial_weak_value():
    d = damping(1.0)
    for eps in (0.2, 0.05, -0.05, 0.01):
        rho_i, rho_f = epsilon_states(eps)
        setup = WeakMeasurementSetup(sigma_i=rho_i, sigma_fI=rho_f, A_SI=pauli("x"))
        wv = weak_value_dissipative(setup, d, 0.0).value
        want = 2j / eps - eps * (1 + 1j) / 2.0
        assert abs(wv - want) < 1e-9 * abs(want)


def test_markov_short_time_law():
    eps, gamma = 0.01, 1.0
    assert abs(markov_short_time_wv(gamma, 0.0, eps) - 2j / eps) < 1e-12 / eps
    d = damping(gamma)
    rho_i, rho_f = epsilon_states(eps)
    setup = WeakMeasurementSetup(sigma_i=rho_i, sigma_fI=rho_f, A_SI=pauli("x"))
    for gtau in (1e-4, 1e-3, 1e-2):
        exact = weak_value_dissipative(setup, d, gtau / gamma).value
        law = markov_short_time_wv(gamma, gtau / gamma, eps)
        assert abs(law - exact) / abs(exact) < 0.01
    with pytest.warns(UserWarning):
        markov_short_time_wv(gamma, 0.06, eps)
    with pytest.raises(EpsilonOutOfRange):
        markov_short_time_wv(gamma, 1e-3, 0.0)


def test_nonmarkov_short_time_law():
    eps, gamma0, lam = 0.01, 0.1, 1.0
    assert abs(nonmarkov_short_time_wv(gamma0, lam, 0.0, eps) - 2j / eps) < 1e-12 / eps
    d = build_dissipator(
        [DissipationChannel(jump=SIGMA_MINUS, rate=NonMarkovJC(gamma0=gamma0, lam=lam))],
        dim=2,
    )
    rho_i, rho_f = epsilon_states(eps)
    setup = WeakMeasurementSetup(sigma_i=rho_i, sigma_fI=rho_f, A_SI=pauli("x"))
    for tau in (1e-3, 3e-3, 1e-2):
        exact = weak_value_dissipative(setup, d, tau).value
        law = nonmarkov_short_time_wv(gamma0, lam, tau, eps)
        assert abs(law - exact) / abs(exact) < 0.01
    with pytest.warns(UserWarning):
        nonmarkov_short_time_wv(gamma0, lam, 0.3, eps)


def test_markov_law_real_part_ratio():
    # the quadratic-memory law grows like tau^2 where the memoryless law is
    # linear: quartering tau quarters one and sixteenths the other
    eps = 0.01
    lin1 = markov_short_time_wv(1.0, 4e-3, eps).real
    lin2 = markov_short_time_wv(1.0, 1e-3, eps).real
    assert abs(lin1 / lin2 - 4.0) < 1e-9
    quad1 = nonmarkov_short_time_wv(0.1, 1.0, 4e-3, eps).real
    quad2 = nonmarkov_short_time_wv(0.1, 1.0, 1e-3, eps).real
    assert abs(quad1 / quad2 - 16.0) < 1e-9


# ------------------------------------------------------------- trace sweeps

def test_trace_over_tau_basic():
    rng = np.random.default_rng(71)
    setup = random_2level_setup(rng)
    d = damping(0.7)
    taus = np.linspace(0.0, 3.0, 7)
    trace = trace_over_tau(setup, d, taus)
    assert len(trace.values) == 7 and not trace.gaps
    for k, tau in enumerate(taus):
        sample = weak_value_dissipative(setup, d, tau)
        assert abs(trace.values[k] - sample.value) < 1e-12
        assert abs(trace.postselection_probs[k] - sample.probability) < 1e-12
    assert "setup_hash" in trace.metadata and "channel" in trace.metadata


def test_trace_over_tau_flags_gaps():
    setup = WeakMeasurementSetup(
        sigma_i=pure_density([1.0, 0.0]),
        sigma_fI=pure_density([0.0, 1.0]),
        A_SI=pauli("x"),
    )
    trace = trace_over_tau(setup, damping(1.0), [0.0, 0.5, 1.0])
    assert trace.gaps == (0,)
    assert np.isnan(trace.values[0].real)
    assert trace.postselection_probs[0] == 0.0
    assert np.isfinite(trace.values[1])


def test_trace_over_tau_rejects_unsorted_grid():
    rng = np.random.default_rng(73)
    setup = random_2level_setup(rng)
    with pytest.raises(Exception):
        trace_over_tau(setup, damping(), [0.5, 0.2, 1.0])
    with pytest.raises(Exception):
        trace_over_tau(setup, damping(), [0.1, 0.1, 1.0])


def test_trace_over_tau_rejects_negative_and_nonfinite_tau():
    # the whole grid is checked before the kernel evolves anything backwards
    setup = random_2level_setup(np.random.default_rng(79))
    for grid in ([-1.0, 0.0, 1.0], [0.0, np.nan]):
        with pytest.raises(NegativeTau):
            trace_over_tau(setup, damping(), grid)


# ---------------------------------------------------------------- structure

@given(seeds)
def test_weak_value_affine_in_observable(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    sigma_i = orc.random_density(rng, dim)
    sigma_f = orc.random_density(rng, dim)
    A, B = orc.random_hermitian(rng, dim), orc.random_hermitian(rng, dim)
    al, be = float(rng.standard_normal()), float(rng.standard_normal())
    L = orc.random_matrix(rng, dim)
    d = build_dissipator([DissipationChannel(jump=L, rate=0.9)], dim=dim)
    tau = float(rng.uniform(0.0, 2.0))

    def wv(op):
        return weak_value_dissipative(
            WeakMeasurementSetup(sigma_i=sigma_i, sigma_fI=sigma_f, A_SI=op), d, tau)

    base = wv(np.eye(dim))
    if base.probability < 1e-3:
        return
    combo = wv(al * A + be * B + 0.0 * np.eye(dim))
    parts = al * wv(A).value + be * wv(B).value
    assert abs(combo.value - parts) < 1e-12 * max(1.0, abs(parts))
    # identity observable is exactly 1, any channel, any tau
    assert abs(base.value - 1.0) < 1e-12


# ------------------------------------------------------- one map per tau

GRID = np.linspace(0.0, 4.0, 5)   # N = 5 points, the first at tau = 0


@pytest.fixture
def counts(monkeypatch):
    """Calls of expm and of the memory-kernel envelope made by weaklind.lindblad."""
    seen = {"expm": 0, "envelope": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lindblad, "expm", counting("expm", lindblad.expm))
    monkeypatch.setattr(lindblad, "nonmarkov_big_gamma",
                        counting("envelope", lindblad.nonmarkov_big_gamma))
    return seen


def random_setup(rng, dim):
    return WeakMeasurementSetup(sigma_i=orc.random_density(rng, dim),
                                sigma_fI=orc.random_density(rng, dim),
                                A_SI=orc.random_hermitian(rng, dim))


def test_memory_kernel_sweep_evaluates_one_envelope_per_nonzero_tau(counts):
    rate = NonMarkovJC(gamma0=0.1, lam=1.0)
    d = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=rate)], dim=2)
    trace_over_tau(random_setup(np.random.default_rng(2), 2), d, GRID)
    assert counts == {"expm": 0, "envelope": len(GRID) - 1}


def test_memory_kernel_sweep_builds_no_channel_map(counts, monkeypatch):
    # strong coupling, the grid crosses the poles of gamma(tau) at ~4.84 and ~12.5
    built = []

    def counting(d, tau):
        built.append(tau)
        return lindblad.channel_map(d, tau)

    monkeypatch.setattr(weakvalue, "channel_map", counting)
    d = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=NonMarkovJC(1.0, 0.5))],
                         dim=2)
    grid = np.linspace(0.0, 16.0, 33)
    trace = trace_over_tau(random_setup(np.random.default_rng(4), 2), d, grid)
    assert not trace.gaps
    assert built == []
    assert counts == {"expm": 0, "envelope": len(grid) - 1}


@pytest.fixture
def eigs(monkeypatch):
    """Calls of numpy.linalg.eig, the eigendecomposition of the batched kernel."""
    seen = []
    eig = np.linalg.eig

    def counting(M):
        seen.append(M.shape)
        return eig(M)

    monkeypatch.setattr(np.linalg, "eig", counting)
    return seen


def shared_rate_chain(rate):
    chain = np.zeros((3, 3), dtype=complex)
    chain[1, 0] = 1.0
    return build_dissipator([DissipationChannel(jump=chain, rate=rate)], dim=3)


def test_constant_rate_sweep_runs_one_eig_and_no_expm(counts, eigs):
    d = build_dissipator([DissipationChannel(jump=L, rate=1.0)
                          for L, _ in sodium_jump_operators()], dim=6)
    trace_over_tau(random_setup(np.random.default_rng(1), 6), d, GRID)
    assert counts == {"expm": 0, "envelope": 0}
    assert eigs == [(36, 36)]


def test_shared_rate_chain_runs_one_eig_and_no_expm(counts, eigs):
    # strong coupling, every grid point before the first pole at tau* ~ 4.84
    d = shared_rate_chain(NonMarkovJC(gamma0=1.0, lam=0.5))
    trace_over_tau(random_setup(np.random.default_rng(3), 3), d, GRID)
    assert counts == {"expm": 0, "envelope": 0}
    assert eigs == [(9, 9)]


def test_jc_shifts_run_one_eig_per_trace_and_no_expm(counts, eigs, tmp_path, capsys):
    payload = {
        "version": 1,
        "system": {"dimension": 2, "pre": {"bloch": [0.55, 0.15, 0.6]},
                   "post": {"bloch": [-0.3, 0.45, -0.5]}},
        "observable": {"named": "sigma_x"},
        "channel": {"named": "amplitude_damping", "gamma": 0.5},
        "sweep": {"start": 0.0, "stop": 4.0, "count": len(GRID), "spacing": "linear"},
        "meter": {"omega_f": 1.3, "n_max": 20, "state": "number", "n": 2, "g": 1e-3,
                  "t": 1.0, "Delta": 0.02, "model": "jc"},
    }
    cfg = tmp_path / "jc.json"
    cfg.write_text(json.dumps(payload))
    assert main(["shifts", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    # one eigendecomposition for the sigma+ trace and one for the sigma- trace
    assert counts == {"expm": 0, "envelope": 0}
    assert eigs == [(4, 4), (4, 4)]


def test_defective_cascade_takes_the_expm_fallback(counts, eigs):
    # equal rates on |0> -> |1> -> |2> make the superoperator defective
    # (cond(V) ~ 2e16), where the eigen kernel would be wrong by 270%
    jumps = np.zeros((2, 3, 3), dtype=complex)
    jumps[0, 1, 0] = jumps[1, 2, 1] = 1.0
    channels = [(L, 1.0) for L in jumps]
    d = build_dissipator([DissipationChannel(jump=L, rate=r) for L, r in channels], dim=3)
    setup = random_setup(np.random.default_rng(5), 3)
    trace = trace_over_tau(setup, d, GRID)
    assert counts == {"expm": len(GRID) - 1, "envelope": 0}
    assert len(eigs) == 1
    for tau, got in zip(GRID, trace.values):
        want, _ = orc.weak_value_row(setup.sigma_i, setup.sigma_fI, setup.A_SI,
                                     channels, 3, tau)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


# ------------------------------------------------------ the batched kernel

@given(seeds)
def test_batched_trace_matches_the_per_point_channel_map(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    d = build_dissipator(
        [DissipationChannel(jump=orc.random_matrix(rng, dim), rate=float(rng.uniform(0.2, 1.5)))
         for _ in range(int(rng.integers(1, 4)))], dim=dim)
    setup = random_setup(rng, dim)
    taus = np.sort(rng.uniform(0.0, 3.0, 6))
    trace = trace_over_tau(setup, d, taus)
    for tau, value, prob in zip(taus, trace.values, trace.postselection_probs):
        apply = lindblad.channel_map(d, tau)
        num, den = (np.trace(setup.sigma_fI @ apply(C))
                    for C in (setup.A_SI @ setup.sigma_i, setup.sigma_i))
        if den.real <= 1e-3:
            continue
        assert abs(value - num / den) < 1e-9 * abs(num / den)
        assert abs(prob - den.real) < 1e-9 * den.real


def bits(values):
    """The IEEE bit patterns of a complex array, so that equality also sees
    the sign of a zero and the place of a NaN."""
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def per_point_traces(setup, d, taus):
    """Tr[sigma_fI e^{D tau}(C)] for C = A sigma_i, sigma_i from one channel_map per tau."""
    rows = []
    for tau in taus:
        apply = lindblad.channel_map(d, tau)
        rows.append([complex(np.trace(setup.sigma_fI @ apply(C)))
                     for C in (setup.A_SI @ setup.sigma_i, setup.sigma_i)])
    return np.array(rows)


def assert_sigma_minus_grid_is_the_per_point_map(setup, d, taus):
    num, den = weakvalue._postselected_traces(setup, d, taus)
    want = per_point_traces(setup, d, taus)
    assert np.array_equal(bits(num), bits(want[:, 0]))
    assert np.array_equal(bits(den), bits(want[:, 1]))
    # the per-point quotient, with a NaN gap where post-selection vanishes
    values = np.full(len(taus), complex(np.nan, np.nan))
    probs = np.zeros(len(taus))
    for k, (n, m) in enumerate(want.tolist()):
        if abs(m) >= 1e-14:
            values[k], probs[k] = n / m, max(m.real, 0.0)
    trace = trace_over_tau(setup, d, taus)
    assert np.array_equal(bits(trace.values), bits(values))
    assert np.array_equal(trace.postselection_probs.view(np.uint64), probs.view(np.uint64))
    assert trace.gaps == tuple(np.flatnonzero(np.isnan(values.real)).tolist())


@given(seeds, st.booleans(), st.booleans())
def test_memory_kernel_grid_is_the_per_point_channel_map_bit_for_bit(seed, strong, orthogonal):
    rng = np.random.default_rng(seed)
    gamma0 = float(rng.uniform(0.05, 3.0))
    # strong coupling lam < 2 gamma0 has poles of gamma(tau), the first at
    # tau* = 2 (pi - atan(delta/lam))/delta; the grid runs past several
    lam = gamma0 * float(rng.uniform(0.05, 1.9) if strong else rng.uniform(2.1, 60.0))
    delta = math.sqrt(abs(lam * lam - 2.0 * gamma0 * lam))
    stop = (4.0 * 2.0 * math.pi / delta if strong else 30.0 / gamma0) * float(rng.uniform(0.5, 1.5))
    taus = np.unique(rng.uniform(0.0, stop, int(rng.integers(1, 40))))
    if rng.random() < 0.5:
        taus = np.concatenate([[0.0], taus[taus > 0.0]])
    if orthogonal:
        # orthogonal pre/post pair: post-selection vanishes at tau = 0
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        perp = [-psi[1].conjugate(), psi[0].conjugate()]
        setup = WeakMeasurementSetup(sigma_i=pure_density(psi), sigma_fI=pure_density(perp),
                                     A_SI=orc.random_hermitian(rng, 2))
    else:
        setup = random_setup(rng, 2)
    d = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=NonMarkovJC(gamma0, lam))],
                         dim=2)
    assert_sigma_minus_grid_is_the_per_point_map(setup, d, taus)


@pytest.mark.parametrize("gamma0,lam", [(1.0, 1e308), (1e308, 1.0), (1e300, 1e300),
                                        (5e307, 1e308), (0.5, 1.0)])
def test_memory_kernel_float_limit_grid_is_the_per_point_channel_map(gamma0, lam):
    # the configs of test_memory_kernel_near_the_float_limit_runs, and
    # ordinary critical coupling
    d = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=NonMarkovJC(gamma0, lam))],
                         dim=2)
    setup = random_setup(np.random.default_rng(6), 2)
    assert_sigma_minus_grid_is_the_per_point_map(setup, d, np.linspace(0.0, 4.0, 9))


def test_memory_kernel_envelope_failure_names_the_first_tau():
    # gamma0 = lam = 1e308: the envelope phase d tau/2 overflows at tau = 4
    d = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=NonMarkovJC(1e308, 1e308))],
                         dim=2)
    setup = random_setup(np.random.default_rng(8), 2)
    grid = np.linspace(0.0, 4.0, 9)
    with pytest.raises(NoConvergence, match=r"phase d tau/2 overflows at tau=4\.0"):
        trace_over_tau(setup, d, grid)
    # an observable whose A sigma_i overflows makes every trace infinite; the
    # per-tau loop then names the first tau, as before the envelope fails
    c, s = math.cos(math.pi / 8.0), math.sin(math.pi / 8.0)
    huge = WeakMeasurementSetup(sigma_i=pure_density([c, s]), sigma_fI=setup.sigma_fI,
                                A_SI=np.full((2, 2), 1.7e308, dtype=complex))
    with np.errstate(all="ignore"), pytest.raises(NoConvergence,
                                                  match=r"not finite at tau=0\.5"):
        trace_over_tau(huge, d, grid[1:])


def test_roundoff_growing_mode_is_clamped():
    # a bounded semigroup has no growing mode; unclamped, Re lam = +1e-15
    # would make e^{lam s} overflow at s = 1e18
    M = np.diag([1e-15, -1.0]).astype(complex)
    got = weakvalue._eigen_traces(np.ones(2), np.eye(2), M, np.array([0.0, 1e18]))
    assert np.array_equal(got, [[1.0, 1.0], [1.0, 0.0]])


def test_huge_tau_reaches_the_projector_limit():
    # the weak value and the probability at tau = 1e12 and 1e18 are the
    # projector's; on the random dissipators the kernel eigenvalue is only
    # zero to roundoff, and unsnapped it would drift the probability by
    # about |lam_0| tau
    sodium = build_dissipator([DissipationChannel(jump=L, rate=1.0)
                               for L, _ in sodium_jump_operators()], dim=6)
    rng = np.random.default_rng(7)
    for d in [sodium, damping(0.8)] + [
            build_dissipator([DissipationChannel(jump=orc.random_matrix(rng, 3), rate=1.0)],
                             dim=3) for _ in range(20)]:
        setup = random_setup(rng, d.dim)
        want = weak_value_limit_infinite(setup, d)
        P = asymptotic_projector(d)
        want_prob = np.trace(setup.sigma_fI @ apply_superoperator(P, setup.sigma_i)).real
        trace = trace_over_tau(setup, d, [1.0, 1e12, 1e18])
        assert not trace.gaps
        for value, prob in zip(trace.values[1:], trace.postselection_probs[1:]):
            assert abs(value - want) < 1e-12 * max(1.0, abs(want))
            assert abs(prob - want_prob) < 1e-12 * max(1.0, want_prob)


def test_shared_rate_near_the_float_limit_reaches_the_unit_rate_limit():
    # Lambda(tau) ~ gamma0 tau ~ 1e307: expm(Lambda M_1) is NaN there (and
    # channel_map refuses it), but exp(Lambda lam_k) is exactly 0 or 1 on the
    # eigen kernel
    chain = shared_rate_chain(NonMarkovJC(gamma0=1e307, lam=1e308))
    unit = build_dissipator([DissipationChannel(jump=chain.channels[0].jump, rate=1.0)], dim=3)
    setup = random_setup(np.random.default_rng(9), 3)
    trace = trace_over_tau(setup, chain, [1.0, 2.0, 4.0])
    want = weak_value_limit_infinite(setup, unit)
    assert not trace.gaps
    assert np.all(np.abs(trace.values - want) < 1e-12 * max(1.0, abs(want)))


