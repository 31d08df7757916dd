"""Weak values under dissipation: trace formula, closed forms, limits, laws."""

import cmath
import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from test_lindblad import equal_rate_cascade
from weaklind import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    Dissipator,
    NonMarkovJC,
    WeakMeasurementSetup,
    asymptotic_projector,
    bloch_to_density,
    epsilon_states,
    pauli,
    pure_density,
    sodium_jump_operators,
    trace_over_tau,
    weak_value_dissipative,
    weak_value_limit_infinite,
)
from weaklind import lindblad, weakvalue
from weaklind.cli import main
from weaklind.scenarios import _alkali_setup, sodium_anomalous, sodium_constant
from weaklind.errors import (
    DimensionMismatch,
    EpsilonOutOfRange,
    NegativeTau,
    NoConvergence,
    NotDensity,
    PostselectionVanishes,
)

seeds = st.integers(0, 10**6)


def damping(gamma=1.0):
    return Dissipator([SIGMA_MINUS], [gamma])


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
    d = Dissipator(*zip(*channels))
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
    with pytest.raises(DimensionMismatch):
        WeakMeasurementSetup(sigma_i=good, sigma_fI=good, A_SI=np.zeros((0, 2, 2)))
    setup = WeakMeasurementSetup(sigma_i=good, sigma_fI=good, A_SI=pauli("x"))
    with pytest.raises(DimensionMismatch):
        weak_value_dissipative(
            setup, Dissipator([np.zeros((3, 3))], [1.0]), 0.1)


def _setup():
    rho = pure_density([0.6, 0.8])
    return WeakMeasurementSetup(sigma_i=rho, sigma_fI=rho, A_SI=pauli("x"))


@pytest.mark.parametrize("make", [
    lambda: damping(0.5),
    _setup,
    lambda: trace_over_tau(_setup(), damping(0.5), [0.0, 1.0]),
], ids=["Dissipator", "WeakMeasurementSetup", "WeakValueTrace"])
def test_array_dataclasses_compare_by_identity(make):
    # a generated __eq__ would compare the numpy fields and raise, and leave no __hash__
    a, b = make(), make()
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True
    assert hash(a) == hash(a) and len({a, b}) == 2


@pytest.mark.parametrize("field,value,match", [
    ("A_SI", np.array([[0.0, math.inf], [1.0, 0.0]]), "A_SI entries must be finite"),
    ("A_SI", np.array([[[0.0, 1.0], [1.0, 0.0]], [[complex(0.0, math.nan), 0.0],
                                                   [0.0, 1.0]]]), "A_SI entries must be finite"),
])
def test_setup_refuses_non_finite_entries_without_a_warning(field, value, match):
    good = orc.random_density(np.random.default_rng(0), 2)
    kwargs = {"sigma_i": good, "sigma_fI": good, "A_SI": pauli("x"), field: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            WeakMeasurementSetup(**kwargs)


def test_setup_is_the_states_and_the_observable():
    assert [f.name for f in dataclasses.fields(WeakMeasurementSetup)] == [
        "sigma_i", "sigma_fI", "A_SI"]
    with pytest.raises(TypeError):
        WeakMeasurementSetup(sigma_i=np.eye(2) / 2, sigma_fI=np.eye(2) / 2, A_SI=pauli("x"),
                             g=0.1, t=1.0)


def test_content_hash_covers_each_of_the_three_and_nothing_else():
    rng = np.random.default_rng(5)
    triple = {"sigma_i": orc.random_density(rng, 2), "sigma_fI": orc.random_density(rng, 2),
              "A_SI": orc.random_hermitian(rng, 2)}
    base = WeakMeasurementSetup(**triple).content_hash()
    # equal triples, built from fresh copies, hash alike
    assert WeakMeasurementSetup(**{k: v.copy() for k, v in triple.items()}
                                ).content_hash() == base
    others = {"sigma_i": orc.random_density(rng, 2), "sigma_fI": orc.random_density(rng, 2),
              "A_SI": pauli("z")}
    for name, other in others.items():
        assert WeakMeasurementSetup(**{**triple, name: other}).content_hash() != base
    want = hashlib.sha256(b"".join(np.asarray(triple[k], dtype=complex).tobytes()
                                   for k in ("sigma_i", "sigma_fI", "A_SI"))).hexdigest()
    assert base == want


@pytest.mark.parametrize("short", ["tau_grid", "values", "postselection_probs", "kept"])
def test_trace_refuses_arrays_of_unequal_length(short):
    trace = trace_over_tau(_setup(), damping(0.5), [0.0, 1.0, 2.0])
    fields = {f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)}
    fields[short] = fields[short][:2]
    with pytest.raises(DimensionMismatch, match="trace arrays must have equal length"):
        weakvalue.WeakValueTrace(**fields)


def test_trace_gaps_are_the_indices_that_kept_leaves_out():
    rho0, rho1 = pure_density([1.0, 0.0]), pure_density([0.0, 1.0])
    setup = WeakMeasurementSetup(sigma_i=rho0, sigma_fI=rho1, A_SI=pauli("x"))
    trace = trace_over_tau(setup, damping(0.5), [0.0, 0.5, 1.0])
    assert trace.kept.tolist() == [False, True, True] and trace.gaps == (0,)
    assert type(trace.gaps[0]) is int
    with pytest.raises(AttributeError):
        trace.gaps = ()


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
    d = Dissipator(sodium_jump_operators(), [1.0] * 3)
    rng = np.random.default_rng(31)
    setup = WeakMeasurementSetup(
        sigma_i=orc.random_density(rng, 6),
        sigma_fI=orc.random_density(rng, 6),
        A_SI=orc.random_hermitian(rng, 6),
    )
    P = asymptotic_projector(d)
    Ma = lindblad._unvec(P @ lindblad._vec(setup.A_SI @ setup.sigma_i), 6)
    Mb = lindblad._unvec(P @ lindblad._vec(setup.sigma_i), 6)
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
    got = orc.weak_value_bloch(i_vec, f_vec, a, b, m_vec, gamma=0.0, tau=0.0)
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
        got = orc.weak_value_bloch(i_vec, f_vec, a, b, m_vec, gamma, tau)
        assert abs(got - sample.value) < 1e-9 * max(1.0, abs(sample.value))
        checked += 1


def bloch_setup(i_vec, f_vec, A):
    return WeakMeasurementSetup(sigma_i=bloch_to_density(i_vec),
                                sigma_fI=bloch_to_density(f_vec), A_SI=A)


def test_analytic_long_time_limit():
    # full attenuation wipes the post-selection dependence: the weak value
    # collapses to the plain expectation a + b (m . i)
    rng = np.random.default_rng(43)
    d = damping(1.0)
    for _ in range(20):
        i_vec, f_vec = bloch_interior(rng), bloch_interior(rng)
        m_vec = rng.standard_normal(3)
        a, b = 0.3, 1.2
        A = a * np.eye(2) + b * sum(m_vec[k] * pauli("xyz"[k]) for k in range(3))
        got = weak_value_dissipative(bloch_setup(i_vec, f_vec, A), d, 80.0).value
        want = a + b * np.dot(m_vec, i_vec)
        assert abs(got - want) < 1e-9


def test_analytic_denominator_vanishes():
    # pre and post anti-parallel on the z axis at tau = 0
    setup = bloch_setup([0, 0, 1.0], [0, 0, -1.0], pauli("x"))
    with pytest.raises(PostselectionVanishes):
        weak_value_dissipative(setup, damping(), 0.0)


def test_analytic_input_validation():
    # a Bloch vector past the sphere, a negative rate and a negative tau are
    # refused where each enters
    with pytest.raises(Exception):
        bloch_setup([0, 0, 2.0], [0, 0, 0.1], pauli("x"))
    with pytest.raises(ValueError):
        damping(-0.5)
    with pytest.raises(Exception):
        weak_value_dissipative(bloch_setup([0, 0, 0.5], [0, 0, 0.1], pauli("x")),
                               damping(0.5), -1.0)


@pytest.mark.parametrize("gamma,tau,error", [
    (math.nan, 1.0, ValueError), (math.inf, 0.0, ValueError), (-math.inf, 1.0, ValueError),
    (0.5, math.nan, NegativeTau), pytest.param(0.5, math.inf, None, id="0.5-inf-limit"),
    (math.inf, math.nan, ValueError),
])
def test_closed_forms_refuse_non_finite_gamma_and_tau(gamma, tau, error):
    # the rate is refused where the channel is built, tau where it is evolved;
    # tau = +inf is the limit, whose one steady state gives Tr[A sigma_i]
    for A in (pauli("x"), SIGMA_PLUS):
        setup = bloch_setup((0.6, 0.2, 0.5), (0.3, -0.5, -0.7), A)
        if error is None:
            sample = weak_value_dissipative(setup, damping(gamma), tau)
            assert sample.value == weak_value_limit_infinite(setup, damping(gamma))
            assert abs(sample.value - np.trace(A @ setup.sigma_i)) <= 4 * np.finfo(float).eps
            continue
        with pytest.raises(error):
            weak_value_dissipative(setup, damping(gamma), tau)


# ------------------------------------------------------------- ladder forms

LADDERS = np.stack([SIGMA_PLUS, SIGMA_MINUS])


def test_sigma_pm_equals_complex_axis_form():
    # the ladder weak values are the Bloch formula at m = (1, +-1j, 0)/2
    rng = np.random.default_rng(47)
    gamma = 0.8
    d = damping(gamma)
    m_plus = np.array([1.0, 1j, 0.0]) / 2.0
    m_minus = np.array([1.0, -1j, 0.0]) / 2.0
    checked = 0
    while checked < 200:
        i_vec, f_vec = bloch_interior(rng), bloch_interior(rng)
        tau = float(rng.uniform(0.0, 3.0))
        sample = weak_value_dissipative(bloch_setup(i_vec, f_vec, LADDERS), d, tau)
        if sample.probability < 1e-2:
            continue
        plus, minus = sample.value
        via_m_plus = orc.weak_value_bloch(i_vec, f_vec, 0.0, 1.0, m_plus, gamma, tau)
        via_m_minus = orc.weak_value_bloch(i_vec, f_vec, 0.0, 1.0, m_minus, gamma, tau)
        assert abs(plus - via_m_plus) < 1e-11 * max(1.0, abs(plus))
        assert abs(minus - via_m_minus) < 1e-11 * max(1.0, abs(minus))
        checked += 1


def test_sigma_pm_matches_trace_formula():
    # against the row-stacking propagator of the oracle stack
    rng = np.random.default_rng(53)
    gamma = 0.5
    d = damping(gamma)
    checked = 0
    while checked < 100:
        i_vec, f_vec = bloch_interior(rng), bloch_interior(rng)
        tau = float(rng.uniform(0.0, 3.0))
        sample = weak_value_dissipative(bloch_setup(i_vec, f_vec, LADDERS), d, tau)
        if sample.probability < 1e-2:
            continue
        for A, got in zip(LADDERS, sample.value):
            want, _ = orc.weak_value_row(bloch_to_density(i_vec), bloch_to_density(f_vec), A,
                                         [(SIGMA_MINUS, gamma)], 2, tau)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))
        checked += 1


def test_sigma_pm_combination_identities():
    rng = np.random.default_rng(59)
    gamma = 0.9
    d = damping(gamma)
    stack = np.stack([SIGMA_PLUS, SIGMA_MINUS, pauli("x"), pauli("y")])
    for _ in range(50):
        i_vec, f_vec = bloch_interior(rng), bloch_interior(rng)
        tau = float(rng.uniform(0.05, 2.0))
        plus, minus, sx, sy = weak_value_dissipative(bloch_setup(i_vec, f_vec, stack), d,
                                                     tau).value
        assert abs((plus + minus) - sx) < 1e-10 * max(1.0, abs(sx))
        assert abs((plus - minus) - 1j * sy) < 1e-10 * max(1.0, abs(sy))


def test_sigma_pm_excited_to_ground_edge_case():
    # |e> pre, |g> post: both ladder numerators vanish identically for tau > 0
    setup = bloch_setup([0, 0, 1.0], [0, 0, -1.0], LADDERS)
    plus, minus = weak_value_dissipative(setup, damping(1.0), 0.7).value
    assert plus == 0.0
    assert minus == 0.0
    with pytest.raises(PostselectionVanishes):
        weak_value_dissipative(setup, damping(1.0), 0.0)


# -------------------------------------------------- rotating-frame helpers

def test_rotation_consistency_with_time_dependent_operator():
    # the midpoint-rotated transverse operator cos(w t/2) sigma_x - sin(w t/2) sigma_y
    # in the trace formula against the Bloch formula on its unit axis
    rng = np.random.default_rng(67)
    gamma, omega_a = 0.4, 1.3
    d = damping(gamma)
    for _ in range(25):
        i_vec, fI_vec = bloch_interior(rng), bloch_interior(rng)
        t, tau = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        n_vec = np.array([np.cos(0.5 * omega_a * t), -np.sin(0.5 * omega_a * t), 0.0])
        op = n_vec[0] * pauli("x") + n_vec[1] * pauli("y")
        sample = weak_value_dissipative(bloch_setup(i_vec, fI_vec, op), d, tau)
        if sample.probability < 1e-2:
            continue
        got = orc.weak_value_bloch(i_vec, fI_vec, 0.0, 1.0, n_vec, gamma, tau)
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
    assert abs(orc.markov_short_time_wv(gamma, 0.0, eps) - 2j / eps) < 1e-12 / eps
    d = damping(gamma)
    rho_i, rho_f = epsilon_states(eps)
    setup = WeakMeasurementSetup(sigma_i=rho_i, sigma_fI=rho_f, A_SI=pauli("x"))
    for gtau in (1e-4, 1e-3, 1e-2):
        exact = weak_value_dissipative(setup, d, gtau / gamma).value
        law = orc.markov_short_time_wv(gamma, gtau / gamma, eps)
        assert abs(law - exact) / abs(exact) < 0.01


def test_nonmarkov_short_time_law():
    eps, gamma0, lam = 0.01, 0.1, 1.0
    assert abs(orc.nonmarkov_short_time_wv(gamma0, lam, 0.0, eps) - 2j / eps) < 1e-12 / eps
    d = NonMarkovJC(gamma0=gamma0, lam=lam)
    rho_i, rho_f = epsilon_states(eps)
    setup = WeakMeasurementSetup(sigma_i=rho_i, sigma_fI=rho_f, A_SI=pauli("x"))
    for tau in (1e-3, 3e-3, 1e-2):
        exact = weak_value_dissipative(setup, d, tau).value
        law = orc.nonmarkov_short_time_wv(gamma0, lam, tau, eps)
        assert abs(law - exact) / abs(exact) < 0.01


def test_markov_law_real_part_ratio():
    # the quadratic-memory law grows like tau^2 where the memoryless law is
    # linear: quartering tau quarters one and sixteenths the other
    eps = 0.01
    lin1 = orc.markov_short_time_wv(1.0, 4e-3, eps).real
    lin2 = orc.markov_short_time_wv(1.0, 1e-3, eps).real
    assert abs(lin1 / lin2 - 4.0) < 1e-9
    quad1 = orc.nonmarkov_short_time_wv(0.1, 1.0, 4e-3, eps).real
    quad2 = orc.nonmarkov_short_time_wv(0.1, 1.0, 1e-3, eps).real
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


@pytest.mark.pinned
@given(seeds, st.sampled_from([2, 3]), st.integers(0, 3))
def test_grid_rows_and_points_are_one_quotient(seed, dim, k):
    # one quotient (weakvalue._weak_values) and one row rule serve the grid
    # and the point: each trace_over_tau row is weak_value_dissipative at its
    # tau, value and probability, as IEEE bit patterns
    rng = np.random.default_rng(seed)
    d = Dissipator(*zip(*[(orc.random_matrix(rng, dim), float(rng.uniform(0.1, 2.0)))
                          for _ in range(int(rng.integers(1, 4)))]))
    basis = np.linalg.qr(orc.random_matrix(rng, dim))[0]
    A = (orc.random_matrix(rng, dim) if k == 0
         else np.stack([orc.random_matrix(rng, dim) for _ in range(k)]))
    # an orthogonal pre/post pair: a gap at tau = 0
    setup = WeakMeasurementSetup(sigma_i=pure_density(basis[:, 0]),
                                 sigma_fI=pure_density(basis[:, 1]), A_SI=A)
    taus = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 5.0, 7))])
    grid = trace_over_tau(setup, d, taus)
    assert 0 in grid.gaps
    for j, tau in enumerate(taus.tolist()):
        if j in grid.gaps:
            with pytest.raises(PostselectionVanishes):
                weak_value_dissipative(setup, d, tau)
            continue
        assert_point_is_the_row(setup, d, grid, j)


def assert_point_is_the_row(setup, d, grid, j):
    point = weak_value_dissipative(setup, d, float(grid.tau_grid[j]))
    value = np.asarray(point.value, dtype=complex)
    assert np.asarray(grid.values[j]).tobytes() == value.tobytes()
    assert (np.float64(grid.postselection_probs[j]).tobytes()
            == np.float64(point.probability).tobytes())


@pytest.mark.pinned
@pytest.mark.parametrize("name, rates", [("sodium", {"rate": 1.0}),
                                         ("amplitude_damping", {"gamma": 0.7})])
def test_named_channel_points_are_their_grid_rows(name, rates):
    d, _ = lindblad.named_channel(name, rates)
    rng = np.random.default_rng(len(name))
    setup = random_setup(rng, d.dim)
    for n in (1, 7, 2000, 10**4):
        grid = trace_over_tau(setup, d, np.linspace(0.0, 40.0, n))
        for j in sorted({0, n - 1} | set(rng.integers(0, n, 8).tolist())):
            assert_point_is_the_row(setup, d, grid, j)


def test_a_large_sweep_keeps_its_memory_bounded():
    # 1e5 points of a 16-level dephasing ladder: the eigen rows go in blocks,
    # so the sweep holds its (N, k) output, not an (N, d^2) gather (489 MB)
    n = 16
    amplitudes = np.full(n, 0.25 + 0j)
    post = amplitudes.copy()
    post[-1] = -0.25
    setup = WeakMeasurementSetup(sigma_i=pure_density(amplitudes), sigma_fI=pure_density(post),
                                 A_SI=np.eye(n, dtype=complex))
    d = Dissipator([np.diag(np.linspace(-1.0, 1.0, n))], [0.1])
    grid = np.linspace(0.0, 10.0, 10**5)
    tracemalloc.start()
    try:
        trace = trace_over_tau(setup, d, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.values) == len(grid) and not trace.gaps
    assert peak <= 32 * 2**20


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


def test_trace_over_tau_rejects_an_empty_or_two_dimensional_grid():
    setup = random_2level_setup(np.random.default_rng(83))
    for grid in ([], [[0.0, 0.5], [1.0, 1.5]]):
        with pytest.raises(ValueError, match=r"^tau_grid must be a nonempty 1-D array$"):
            trace_over_tau(setup, damping(), grid)


def test_trace_over_tau_rejects_negative_and_nonfinite_tau():
    # the whole grid is checked before the kernel evolves anything backwards;
    # +inf is the limit, once and last
    setup = random_2level_setup(np.random.default_rng(79))
    for d in (damping(), NonMarkovJC(gamma0=1.0, lam=0.5)):
        for grid in ([-1.0, 0.0, 1.0], [0.0, np.nan], [-np.inf, 0.0], [0.0, np.inf, np.nan]):
            with pytest.raises(NegativeTau):
                trace_over_tau(setup, d, grid)
        for bad in (-1.0, np.nan, -np.inf):
            with pytest.raises(NegativeTau):
                weak_value_dissipative(setup, d, bad)
        with pytest.raises(ValueError, match="strictly increasing"):
            trace_over_tau(setup, d, [0.0, np.inf, np.inf])
        trace = trace_over_tau(setup, d, [0.0, 1.0, np.inf])
        assert trace.values[-1] == weak_value_limit_infinite(setup, d)


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
    d = Dissipator([L], [0.9])
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
    """Calls of expm (_exponential_map) and of the memory-kernel envelope made
    by weaklind.lindblad."""
    seen = {"expm": 0, "envelope": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lindblad, "_exponential_map",
                        counting("expm", lindblad._exponential_map))
    monkeypatch.setattr(lindblad, "nonmarkov_big_gamma",
                        counting("envelope", lindblad.nonmarkov_big_gamma))
    return seen


def random_setup(rng, dim):
    return WeakMeasurementSetup(sigma_i=orc.random_density(rng, dim),
                                sigma_fI=orc.random_density(rng, dim),
                                A_SI=orc.random_hermitian(rng, dim))


def test_memory_kernel_sweep_evaluates_one_envelope_per_tau(counts):
    # tau = 0 is a row like any other: its envelope is 1
    d = NonMarkovJC(gamma0=0.1, lam=1.0)
    trace_over_tau(random_setup(np.random.default_rng(2), 2), d, GRID)
    assert counts == {"expm": 0, "envelope": len(GRID)}


def test_memory_kernel_sweep_derives_no_d(counts, monkeypatch):
    # d depends on the channel alone: it is derived when the channel is made
    d = NonMarkovJC(gamma0=0.1, lam=1.0)
    derived = []
    monkeypatch.setattr(lindblad, "_nonmarkov_d", lambda *args: derived.append(args))
    trace_over_tau(random_setup(np.random.default_rng(2), 2), d, GRID)
    lindblad.evolve(d, np.eye(2), 1.0)
    assert derived == []
    assert counts == {"expm": 0, "envelope": len(GRID) + 1}


def test_memory_kernel_sweep_builds_no_channel_map(counts, monkeypatch):
    # strong coupling, the grid crosses the poles of gamma(tau) at ~4.84 and ~12.5
    built = []

    def counting(name):
        fn = getattr(lindblad, name)

        def wrapper(*args):
            built.append(name)
            return fn(*args)
        return wrapper

    for name in ("evolve", "_exponential_map"):
        monkeypatch.setattr(lindblad, name, counting(name))
    d = NonMarkovJC(1.0, 0.5)
    grid = np.linspace(0.0, 16.0, 33)
    trace = trace_over_tau(random_setup(np.random.default_rng(4), 2), d, grid)
    assert not trace.gaps
    assert built == []
    assert counts == {"expm": 0, "envelope": len(grid)}


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


@pytest.fixture
def svds(monkeypatch):
    """Calls of numpy.linalg.svd, the SVD of asymptotic_projector; cond(V)
    takes V's singular values inside numpy and is not counted."""
    seen = []
    svd = np.linalg.svd

    def counting(M, *args, **kwargs):
        seen.append(M.shape)
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return seen


@pytest.mark.parametrize("pair", ["anomalous", "constant"])
def test_the_sodium_limit_runs_one_eig_and_no_svd(eigs, svds, pair):
    setup, d, _ = _alkali_setup(pair)
    weak_value_limit_infinite(setup, d)
    assert eigs == [(36, 36)] and svds == []


@pytest.mark.parametrize("scenario", [sodium_anomalous, sodium_constant],
                         ids=["anomalous", "constant"])
def test_the_sodium_scenarios_run_one_eig_and_no_svd(eigs, svds, scenario):
    # the trace and the limit come from one sweep whose last tau is inf
    scenario()
    assert eigs == [(36, 36)] and svds == []


def test_the_defective_cascade_limit_falls_back_to_the_svd_projector(eigs, svds):
    # cond(V) ~ 1.5e16 fails the eig guard: the limit is the quotient of the
    # fixed-order traces of the SVD projector's maps, the steady part P X of
    # the operands' columns X
    d = equal_rate_cascade()
    setup = random_setup(np.random.default_rng(5), 3)
    got = weak_value_limit_infinite(setup, d)
    assert eigs == [(9, 9)] and svds == [(9, 9)]
    steady = asymptotic_projector(d) @ np.array([lindblad._vec(C) for C in setup.operands()]).T
    maps = [lindblad._unvec(x, 3) for x in steady.T]
    num, den = (orc.scalar_trace(setup.sigma_fI, X) for X in maps)
    assert got == num / den
    # and within roundoff of np.trace's BLAS product with the same maps
    num, den = (np.trace(setup.sigma_fI @ X) for X in maps)
    assert abs(got - num / den) <= 4 * np.finfo(float).eps * abs(num / den)
    # one steady state, |2><2|: the limit is Tr[A sigma_i]
    assert abs(got - np.trace(setup.A_SI @ setup.sigma_i)) <= 1e-15


def test_constant_rate_sweep_runs_one_eig_and_no_expm(counts, eigs):
    d = Dissipator(sodium_jump_operators(), [1.0] * 3)
    trace_over_tau(random_setup(np.random.default_rng(1), 6), d, GRID)
    assert counts == {"expm": 0, "envelope": 0}
    assert eigs == [(36, 36)]


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
    # one eigendecomposition for the one sweep of sigma+ and sigma- together
    assert counts == {"expm": 0, "envelope": 0}
    assert eigs == [(4, 4)]


def test_defective_cascade_takes_the_expm_fallback(counts, eigs):
    # equal rates on |0> -> |1> -> |2> make the superoperator defective
    # (cond(V) ~ 2e16), where the eigen kernel would be wrong by 270%
    jumps = np.zeros((2, 3, 3), dtype=complex)
    jumps[0, 1, 0] = jumps[1, 2, 1] = 1.0
    channels = [(L, 1.0) for L in jumps]
    d = Dissipator(*zip(*channels))
    setup = random_setup(np.random.default_rng(5), 3)
    trace = trace_over_tau(setup, d, GRID)
    assert counts == {"expm": len(GRID), "envelope": 0}
    assert len(eigs) == 1
    for tau, got in zip(GRID, trace.values):
        want, _ = orc.weak_value_row(setup.sigma_i, setup.sigma_fI, setup.A_SI,
                                     channels, 3, tau)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))
    # every fallback row is bit for bit the trace sum of evolve's one-point map
    assert_per_point_traces(setup, d, np.linspace(0.0, 20.0, 41))


def test_stacked_observables_share_one_sweep_and_its_gaps(eigs):
    # an orthogonal pre/post pair: post-selection vanishes at tau = 0 for
    # every observable of the stack at once
    sigma_i, sigma_fI = pure_density([0.6, 0.8j]), pure_density([0.8, -0.6j])
    A = [SIGMA_PLUS, SIGMA_MINUS, pauli("x"), orc.random_matrix(np.random.default_rng(14), 2)]
    d = damping(0.7)
    stacked = WeakMeasurementSetup(sigma_i=sigma_i, sigma_fI=sigma_fI, A_SI=np.stack(A))
    trace = trace_over_tau(stacked, d, GRID)
    assert len(eigs) == 1
    assert trace.values.shape == (len(GRID), len(A)) and trace.gaps == (0,)
    assert np.isnan(trace.values[0]).all() and trace.postselection_probs[0] == 0.0
    for j, A_j in enumerate(A):
        single = WeakMeasurementSetup(sigma_i=sigma_i, sigma_fI=sigma_fI, A_SI=A_j)
        one = trace_over_tau(single, d, GRID)
        assert one.gaps == trace.gaps
        np.testing.assert_allclose(trace.values[1:, j], one.values[1:], rtol=1e-12)
        np.testing.assert_allclose(trace.postselection_probs, one.postselection_probs,
                                   rtol=1e-12)
    # the one-point sweep and the infinite-time limit give the k weak values
    sample = weak_value_dissipative(stacked, d, 1.5)
    limit = weak_value_limit_infinite(stacked, d)
    assert sample.value.shape == limit.shape == (len(A),)
    for j, A_j in enumerate(A):
        single = WeakMeasurementSetup(sigma_i=sigma_i, sigma_fI=sigma_fI, A_SI=A_j)
        one = weak_value_dissipative(single, d, 1.5)
        assert abs(sample.value[j] - one.value) < 1e-12 * max(1.0, abs(one.value))
        assert abs(sample.probability - one.probability) < 1e-12
        assert limit[j] == weak_value_limit_infinite(single, d)
    with pytest.raises(PostselectionVanishes):
        weak_value_dissipative(stacked, d, 0.0)
    with pytest.raises(DimensionMismatch):
        WeakMeasurementSetup(sigma_i=sigma_i, sigma_fI=sigma_fI, A_SI=np.zeros((2, 3, 3)))


# ------------------------------------------------------ the batched kernel

@given(seeds)
def test_batched_trace_matches_the_per_point_channel_map(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    d = Dissipator(*zip(*[(orc.random_matrix(rng, dim), float(rng.uniform(0.2, 1.5)))
                          for _ in range(int(rng.integers(1, 4)))]))
    setup = random_setup(rng, dim)
    taus = np.sort(rng.uniform(0.0, 3.0, 6))
    trace = trace_over_tau(setup, d, taus)
    for tau, value, prob in zip(taus, trace.values, trace.postselection_probs):
        num, den = (np.trace(setup.sigma_fI @ lindblad.evolve(d, C, tau))
                    for C in (setup.A_SI @ setup.sigma_i, setup.sigma_i))
        if den.real <= 1e-3:
            continue
        assert abs(value - num / den) < 1e-9 * abs(num / den)
        assert abs(prob - den.real) < 1e-9 * den.real


def bits(values):
    """The IEEE bit patterns of a complex array, so that equality also sees
    the sign of a zero and the place of a NaN."""
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def per_point_traces(setup, d, taus, trace=orc.scalar_trace):
    """Tr[sigma_fI e^{D tau}(C)] for C = A sigma_i, sigma_i from one evolve per tau,
    by default as the fixed-order sum of the library's traces."""
    return np.array([[complex(trace(setup.sigma_fI, lindblad.evolve(d, C, tau)))
                      for C in (setup.A_SI @ setup.sigma_i, setup.sigma_i)] for tau in taus])


def assert_per_point_traces(setup, d, taus):
    """The grid's traces are bit for bit those of evolve's maps, and close to
    the BLAS trace of the same maps."""
    num, den = weakvalue._postselected_traces(setup, d, taus)
    want = per_point_traces(setup, d, taus)
    assert np.array_equal(bits(num[:, 0]), bits(want[:, 0]))
    assert np.array_equal(bits(den), bits(want[:, 1]))
    old = per_point_traces(setup, d, taus, lambda F, X: np.trace(F @ X))
    scale = np.abs(setup.sigma_fI).sum() * np.abs(np.stack(setup.operands())).sum(axis=(1, 2))
    assert (np.abs(want - old) <= 8 * np.finfo(float).eps * scale).all()
    return want


def assert_sigma_minus_grid_is_the_per_point_map(setup, d, taus):
    want = assert_per_point_traces(setup, d, taus)
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
    d = NonMarkovJC(gamma0, lam)
    assert_sigma_minus_grid_is_the_per_point_map(setup, d, taus)


@pytest.mark.parametrize("gamma0,lam", [(1.0, 1e308), (1e308, 1.0), (1e300, 1e300),
                                        (5e307, 1e308), (0.5, 1.0)])
def test_memory_kernel_float_limit_grid_is_the_per_point_channel_map(gamma0, lam):
    # the configs of test_memory_kernel_near_the_float_limit_runs, and
    # ordinary critical coupling
    d = NonMarkovJC(gamma0, lam)
    setup = random_setup(np.random.default_rng(6), 2)
    assert_sigma_minus_grid_is_the_per_point_map(setup, d, np.linspace(0.0, 4.0, 9))


def test_memory_kernel_envelope_failure_names_the_first_tau():
    # gamma0 = lam = 1e308: the envelope phase d tau/2 overflows at tau = 4
    d = NonMarkovJC(1e308, 1e308)
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
    # would make e^{lam s} overflow at s = 1e18. Next to |lam| = 1 the 1e-15
    # is no kernel eigenvalue (_kernel would set a lone 1e-15 to 0)
    M = np.diag([0.0, 1e-15 + 1j, -1.0])
    got = lindblad._eigen_traces(np.ones((1, 3)), np.eye(3), M, np.array([0.0, 1e18]))
    assert np.array_equal(got[0], [1.0, 1.0, 1.0])
    assert got[1, 0] == 1.0 and got[1, 2] == 0.0
    assert abs(got[1, 1] - cmath.exp(1e18j)) <= 4 * np.finfo(float).eps


def test_huge_tau_reaches_the_projector_limit():
    # the weak value and the probability at tau = 1e12 and 1e18 are the
    # projector's; on the random dissipators the kernel eigenvalue is only
    # zero to roundoff, and unsnapped it would drift the probability by
    # about |lam_0| tau
    sodium = Dissipator(sodium_jump_operators(), [1.0] * 3)
    rng = np.random.default_rng(7)
    for d in [sodium, damping(0.8)] + [
            Dissipator([orc.random_matrix(rng, 3)], [1.0])
            for _ in range(20)]:
        setup = random_setup(rng, d.dim)
        want = weak_value_limit_infinite(setup, d)
        P = asymptotic_projector(d)
        steady = lindblad._unvec(P @ lindblad._vec(setup.sigma_i), d.dim)
        want_prob = np.trace(setup.sigma_fI @ steady).real
        trace = trace_over_tau(setup, d, [1.0, 1e12, 1e18])
        assert not trace.gaps
        for value, prob in zip(trace.values[1:], trace.postselection_probs[1:]):
            assert abs(value - want) < 1e-12 * max(1.0, abs(want))
            assert abs(prob - want_prob) < 1e-12 * max(1.0, want_prob)
