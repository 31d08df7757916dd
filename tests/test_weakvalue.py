"""Weak values under dissipation: trace formula, closed forms, limits, laws."""

import json

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
from weaklind import lindblad
from weaklind.cli import main
from weaklind.errors import (
    DenominatorVanishes,
    DimensionMismatch,
    EpsilonOutOfRange,
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


def test_constant_rate_sweep_runs_one_expm_per_nonzero_tau(counts):
    d = build_dissipator([DissipationChannel(jump=L, rate=1.0)
                          for L, _ in sodium_jump_operators()], dim=6)
    trace_over_tau(random_setup(np.random.default_rng(1), 6), d, GRID)
    assert counts == {"expm": len(GRID) - 1, "envelope": 0}


def test_memory_kernel_sweep_evaluates_one_envelope_per_nonzero_tau(counts):
    rate = NonMarkovJC(gamma0=0.1, lam=1.0)
    d = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=rate)], dim=2)
    trace_over_tau(random_setup(np.random.default_rng(2), 2), d, GRID)
    assert counts == {"expm": 0, "envelope": len(GRID) - 1}


def test_shared_rate_chain_runs_one_expm_per_nonzero_tau(counts):
    # strong coupling, every grid point before the first pole at tau* ~ 4.84
    chain = np.zeros((3, 3), dtype=complex)
    chain[1, 0] = 1.0
    d = build_dissipator(
        [DissipationChannel(jump=chain, rate=NonMarkovJC(gamma0=1.0, lam=0.5))], dim=3)
    trace_over_tau(random_setup(np.random.default_rng(3), 3), d, GRID)
    assert counts == {"expm": len(GRID) - 1, "envelope": 0}


def test_jc_shifts_run_one_expm_per_nonzero_tau_and_observable(counts, tmp_path, capsys):
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
    # the sigma+ and sigma- traces each build one map per nonzero tau
    assert counts == {"expm": 2 * (len(GRID) - 1), "envelope": 0}
