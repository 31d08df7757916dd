"""Dissipation channels: generators, propagation, limits."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import oracles as orc
from weaklind import (
    SIGMA_MINUS,
    DissipationChannel,
    Dissipator,
    NonMarkovJC,
    WeakMeasurementSetup,
    apply_superoperator,
    asymptotic_projector,
    build_dissipator,
    evolve,
    nonmarkov_big_gamma,
    nonmarkov_channel_apply,
    nonmarkov_gamma,
    pauli,
    sodium_jump_operators,
    steady_state,
    two_level_damping_apply,
    weak_value_limit_infinite,
)
from weaklind.errors import DimensionMismatch, NegativeTau, NoConvergence
from weaklind import lindblad
from weaklind.lindblad import SteadySpace, channel_map

seeds = st.integers(0, 10**6)


def random_setup(seed, dim=None, n_channels=None):
    rng = np.random.default_rng(seed)
    dim = dim or int(rng.integers(2, 5))
    n_channels = n_channels or int(rng.integers(1, 4))
    channels = [
        DissipationChannel(jump=orc.random_matrix(rng, dim),
                           rate=float(rng.uniform(0.1, 2.0)))
        for _ in range(n_channels)
    ]
    return rng, dim, channels


def as_oracle(channels):
    return [(ch.jump, ch.rate) for ch in channels]


@given(seeds)
def test_evolve_matches_row_stacking_oracle(seed):
    rng, dim, channels = random_setup(seed)
    d = build_dissipator(channels, dim=dim)
    C = orc.random_matrix(rng, dim)
    for tau in (0.3, 1.7):
        got = evolve(d, C, tau)
        want = orc.evolve_row(as_oracle(channels), dim, C, tau)
        assert np.abs(got - want).max() < 1e-10


@given(seeds)
def test_generator_is_trace_free(seed):
    rng, dim, channels = random_setup(seed)
    d = build_dissipator(channels, dim=dim)
    C = orc.random_matrix(rng, dim)
    assert abs(np.trace(d.generator_apply(C))) < 1e-12 * max(1.0, np.abs(C).max())


@given(seeds)
def test_trace_preservation(seed):
    rng, dim, channels = random_setup(seed)
    d = build_dissipator(channels, dim=dim)
    C = orc.random_matrix(rng, dim)
    tau = float(rng.uniform(0.0, 3.0))
    assert abs(np.trace(evolve(d, C, tau)) - np.trace(C)) < 1e-10


@given(seeds)
def test_dagger_commutation(seed):
    # evolving C-dagger equals the dagger of evolving C
    rng, dim, channels = random_setup(seed)
    d = build_dissipator(channels, dim=dim)
    C = orc.random_matrix(rng, dim)
    tau = float(rng.uniform(0.0, 3.0))
    lhs = evolve(d, C.conj().T, tau)
    rhs = evolve(d, C, tau).conj().T
    assert np.abs(lhs - rhs).max() < 1e-10


@given(seeds)
def test_semigroup_property(seed):
    rng, dim, channels = random_setup(seed)
    d = build_dissipator(channels, dim=dim)
    C = orc.random_matrix(rng, dim)
    s, t = float(rng.uniform(0.05, 1.5)), float(rng.uniform(0.05, 1.5))
    assert np.abs(evolve(d, C, s + t) - evolve(d, evolve(d, C, t), s)).max() < 1e-9


@given(seeds)
def test_evolve_linearity(seed):
    rng, dim, channels = random_setup(seed)
    d = build_dissipator(channels, dim=dim)
    A, B = orc.random_matrix(rng, dim), orc.random_matrix(rng, dim)
    al = complex(rng.standard_normal(), rng.standard_normal())
    be = complex(rng.standard_normal(), rng.standard_normal())
    tau = float(rng.uniform(0.0, 2.0))
    lhs = evolve(d, al * A + be * B, tau)
    rhs = al * evolve(d, A, tau) + be * evolve(d, B, tau)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_positivity_preserved_on_densities():
    rng = np.random.default_rng(7)
    d = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=0.8)], dim=2)
    for _ in range(50):
        rho = orc.random_density(rng, 2)
        out = evolve(d, rho, float(rng.uniform(0, 4)))
        assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-12


def test_two_level_damping_closed_form():
    rng = np.random.default_rng(11)
    gamma = 0.7
    d = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=gamma)], dim=2)
    for _ in range(100):
        C = orc.random_matrix(rng, 2)
        for gtau in (0.1, 1.0, 10.0):
            tau = gtau / gamma
            closed = two_level_damping_apply(C, gamma, tau)
            assert np.abs(closed - evolve(d, C, tau)).max() < 1e-10
            assert np.abs(closed - orc.kraus_damping(C, gamma, tau)).max() < 1e-12


def test_two_level_damping_moves_population_down():
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = two_level_damping_apply(rho, 1.0, np.log(4.0))  # E^2 = 1/4
    np.testing.assert_allclose(np.diag(out).real, [0.25, 0.75], atol=1e-14)


# ----------------------------------------------------- time-dependent rate

def test_nonmarkov_gamma_limits():
    gamma0, lam = 0.3, 30.0   # weak coupling
    assert nonmarkov_gamma(0.0, gamma0, lam) == 0.0
    # memoryless limit: rate saturates at gamma0 once lam*tau >> 1
    assert abs(nonmarkov_gamma(2.0, gamma0, lam) - gamma0) < 0.02 * gamma0
    # early growth is linear with slope gamma0*lam
    t = 1e-6
    assert abs(nonmarkov_gamma(t, gamma0, lam) / t - gamma0 * lam) < 1e-3 * gamma0 * lam


def test_nonmarkov_big_gamma_against_ode():
    for gamma0, lam in ((1.0, 10.0), (1.0, 2.0), (1.0, 0.5)):
        taus = np.linspace(0.0, 5.0, 41)
        want = orc.big_gamma_ode(taus, gamma0, lam)
        got = np.array([nonmarkov_big_gamma(t, gamma0, lam) for t in taus])
        assert np.abs(got - want).max() < 1e-9
    assert nonmarkov_big_gamma(0.0, 1.0, 0.5) == 1.0


def test_nonmarkov_big_gamma_critical_coupling():
    # lam = 2 gamma0 makes the discriminant vanish; closed form must stay finite
    lam = 2.0
    for tau in (0.0, 0.4, 2.3):
        want = np.exp(-lam * tau / 2.0) * (1.0 + lam * tau / 2.0)
        assert abs(nonmarkov_big_gamma(tau, 1.0, lam) - want) < 1e-12


def test_nonmarkov_short_memory_does_not_overflow():
    # lam tau in the thousands: cosh(d tau/2) alone overflows a double
    gamma0, lam = 0.1, 1000.0
    d = np.sqrt(lam * lam - 2.0 * gamma0 * lam)
    for tau in (0.5, 2.0, 20.0):
        # (d - lam) written as -2 gamma0 lam / (d + lam), free of cancellation
        want = (0.5 * np.exp(-gamma0 * lam * tau / (d + lam)) * (1.0 + lam / d)
                + 0.5 * np.exp(-(d + lam) * tau / 2.0) * (1.0 - lam / d))
        assert abs(nonmarkov_big_gamma(tau, gamma0, lam) - want) < 1e-14
        assert abs(nonmarkov_gamma(tau, gamma0, lam) - gamma0) < 1e-4
    d = build_dissipator(
        [DissipationChannel(jump=SIGMA_MINUS, rate=NonMarkovJC(gamma0=gamma0, lam=lam))],
        dim=2,
    )
    out = evolve(d, np.diag([1.0, 0.0]).astype(complex), 20.0)
    assert np.all(np.isfinite(out))
    assert abs(np.trace(out) - 1.0) < 1e-14


def test_nonmarkov_envelope_near_the_float_limit():
    # lam ~ 1e308: lam^2, gamma0 lam and d + lam overflow, and 1/(2d) is
    # subnormal, yet Gamma is the Markov envelope e^{-gamma0 tau/2}
    for gamma0 in (1.0, 0.3):
        for tau in (0.5, 1.0, 4.0, 40.0):
            want = np.exp(-gamma0 * tau / 2.0)
            assert abs(nonmarkov_big_gamma(tau, gamma0, 1e308) - want) < 1e-15
    # gamma0 ~ 1e308 is strong coupling with d ~ 1.4e154 i
    for tau in (0.5, 1.0, 2.0, 4.0):
        for gamma0, lam in ((1e308, 1.0), (1e300, 1e300)):
            G = nonmarkov_big_gamma(tau, gamma0, lam)
            assert np.isfinite(G) and abs(G) <= 1.0
        assert np.isfinite(nonmarkov_gamma(tau, 1e308, 1.0))


def test_nonmarkov_critical_coupling_near_the_float_limit():
    # lam = 2 gamma0 = 1e308: y = lam tau/2 overflows, yet Gamma = e^{-y} (1 + y)
    # is 0 and gamma = 2 gamma0 y/(1 + y) stays finite, at most 2 gamma0
    for tau in (1e-300, 0.5, 1.9, 4.0):
        assert nonmarkov_big_gamma(tau, 5e307, 1e308) == 0.0
        rate = nonmarkov_gamma(tau, 5e307, 1e308)
        assert np.isfinite(rate) and 0.0 < rate <= 1e308


def test_channel_map_refuses_a_non_finite_map():
    # expm(s M) past the float range is NaN; the map is refused naming tau,
    # for a shared memory-kernel rate (Lambda ~ 1e307) and a constant one
    chain = np.zeros((3, 3), dtype=complex)
    chain[1, 0] = 1.0
    shared = build_dissipator(
        [DissipationChannel(jump=chain, rate=NonMarkovJC(gamma0=1e307, lam=1e308))], dim=3)
    constant = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=1e308)], dim=2)
    for d, taus in ((shared, (0.5, 1.0, 4.0)), (constant, (0.5, 4.0))):
        for tau in taus:
            with pytest.raises(NoConvergence, match=f"not finite at tau={tau}"):
                channel_map(d, tau)
            with pytest.raises(NoConvergence, match=f"not finite at tau={tau}"):
                evolve(d, np.eye(d.dim, dtype=complex), tau)


def scalar_damping_map(C, E):
    """The damping map entry by entry in numpy's scalar complex arithmetic."""
    return np.array([
        [C[0, 0] * E * E, C[0, 1] * E],
        [C[1, 0] * E, C[1, 1] + C[0, 0] * (1.0 - E * E)],
    ])


# signed zeros, subnormals and envelopes whose square underflows: where a
# fused complex multiply would round the sign of a zero differently
PARTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-160, 0.3, -0.7, 1.0, 1e300])
ENVELOPES = st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-155, -1e-162, 1e-170, -1e-200])


@given(st.lists(PARTS | st.floats(-2.0, 2.0), min_size=8, max_size=8),
       st.lists(ENVELOPES | st.floats(-1.0, 1.0), min_size=1, max_size=40))
def test_stacked_damping_maps_are_the_scalar_map_bit_for_bit(parts, envelopes):
    C = (np.array(parts[:4]) + 1j * np.array(parts[4:])).reshape(2, 2)
    G = np.array(envelopes)
    maps = lindblad._damping_maps(C, G)
    for E, got in zip(G, maps):
        want = scalar_damping_map(C, float(E))
        assert np.array_equal(want.view(np.uint64), got.view(np.uint64))


def test_sigma_minus_maps_are_the_identity_at_tau_0():
    d = build_dissipator(
        [DissipationChannel(jump=SIGMA_MINUS, rate=NonMarkovJC(gamma0=1.0, lam=0.5))], dim=2)
    # the damping map at G = 1 would form -0 - (-1)(0) = +0 in the corner
    C = np.array([[complex(-0.0, -1.0), 0.5], [2.0, 1.0]])
    maps = lindblad.sigma_minus_maps(d, np.array([0.0, 1.0]))(C)
    assert np.array_equal(maps[0].view(np.uint64), C.view(np.uint64))
    assert np.array_equal(maps[1], nonmarkov_channel_apply(C, 1.0, 0.5, 1.0))


def test_nonmarkov_ordinary_critical_coupling_is_the_closed_form_bit_for_bit():
    gamma0, lam = 0.5, 1.0
    for tau in np.linspace(0.0, 30.0, 61).tolist() + [700.0, 1500.0]:
        y = lam * (tau / 2.0)
        assert nonmarkov_big_gamma(tau, gamma0, lam) == math.exp(-lam * tau / 2.0) * (1.0 + y)
        assert nonmarkov_gamma(tau, gamma0, lam) == gamma0 * (2.0 * y / (1.0 + y))


def test_nonmarkov_channel_pole_crossing():
    # strong coupling: gamma(tau) diverges at tau* ~ 4.84, inside the range
    gamma0, lam = 1.0, 0.5
    d = build_dissipator(
        [DissipationChannel(jump=SIGMA_MINUS, rate=NonMarkovJC(gamma0=gamma0, lam=lam))],
        dim=2,
    )
    rng = np.random.default_rng(3)
    C = orc.random_matrix(rng, 2)
    for tau in np.linspace(0.2, 5.0, 13):
        got = evolve(d, C, tau)
        closed = nonmarkov_channel_apply(C, gamma0, lam, tau)
        ode = orc.nonmarkov_apply_ode(C, gamma0, lam, tau)
        assert np.abs(got - closed).max() < 1e-7
        assert np.abs(got - ode).max() < 1e-7


def generic_nonmarkov_oracle(jump, dim, C, gamma0, lam, tau):
    """Unit-rate superoperator scaled by gamma(t) = -2 G'/G, with G integrated
    alongside the state so no closed-form envelope enters."""
    M = orc.superop_row([(jump, 1.0)], dim)

    def rhs(t, y):
        n = dim * dim
        vc = y[:n] + 1j * y[n:2 * n]
        G, Gp = y[2 * n], y[2 * n + 1]
        gam = -2.0 * Gp / G
        dv = gam * (M @ vc)
        return np.concatenate([dv.real, dv.imag,
                               [Gp, -lam * Gp - 0.5 * gamma0 * lam * G]])

    n = dim * dim
    v0 = orc.vec_row(C)
    y0 = np.concatenate([v0.real, v0.imag, [1.0, 0.0]])
    sol = solve_ivp(rhs, (0.0, tau), y0, method="Radau", rtol=1e-11, atol=1e-13)
    assert sol.success
    return orc.unvec_row(sol.y[:n, -1] + 1j * sol.y[n:2 * n, -1], dim)


def test_nonmarkov_generic_channel_weak_coupling():
    # a 3-level decay chain keeps the channel off the specialized two-level path
    gamma0, lam = 0.4, 8.0
    L = np.zeros((3, 3), dtype=complex)
    L[1, 0] = 1.0
    d = build_dissipator([DissipationChannel(jump=L, rate=NonMarkovJC(gamma0=gamma0, lam=lam))], dim=3)
    rng = np.random.default_rng(5)
    C = orc.random_matrix(rng, 3)
    for tau in (0.5, 2.0):
        got = evolve(d, C, tau)
        want = generic_nonmarkov_oracle(L, 3, C, gamma0, lam, tau)
        assert np.abs(got - want).max() < 1e-8


def test_nonmarkov_generic_channel_long_times():
    # Gamma(5000) underflows a double; the chain has fully decayed 0 -> 1
    L = np.zeros((3, 3), dtype=complex)
    L[1, 0] = 1.0
    d = build_dissipator([DissipationChannel(jump=L, rate=NonMarkovJC(gamma0=0.4, lam=8.0))], dim=3)
    out = evolve(d, np.eye(3, dtype=complex), 5000.0)
    assert np.abs(out - np.diag([0.0, 2.0, 1.0])).max() < 1e-12


def test_nonmarkov_generic_channel_refuses_pole():
    gamma0, lam = 1.0, 0.5
    L = np.zeros((3, 3), dtype=complex)
    L[1, 0] = 1.0
    d = build_dissipator([DissipationChannel(jump=L, rate=NonMarkovJC(gamma0=gamma0, lam=lam))], dim=3)
    with pytest.raises(NoConvergence):
        evolve(d, np.eye(3, dtype=complex), 5.0)


def test_nonmarkov_generic_channel_strong_coupling_before_pole():
    # first pole of gamma(tau) at tau* ~ 4.84
    gamma0, lam = 1.0, 0.5
    L = np.zeros((3, 3), dtype=complex)
    L[1, 0] = 1.0
    d = build_dissipator([DissipationChannel(jump=L, rate=NonMarkovJC(gamma0=gamma0, lam=lam))], dim=3)
    rng = np.random.default_rng(29)
    C = orc.random_matrix(rng, 3)
    for tau in (1.0, 3.0, 4.5):
        got = evolve(d, C, tau)
        want = generic_nonmarkov_oracle(L, 3, C, gamma0, lam, tau)
        assert np.abs(got - want).max() < 1e-8


def test_nonmarkov_generic_channel_refuses_past_second_zero():
    # Gamma(13) = 0.0172 > 0 again, but the pole at tau* ~ 4.84 was crossed
    gamma0, lam = 1.0, 0.5
    assert nonmarkov_big_gamma(13.0, gamma0, lam) > 0.0
    L = np.zeros((3, 3), dtype=complex)
    L[1, 0] = 1.0
    d = build_dissipator([DissipationChannel(jump=L, rate=NonMarkovJC(gamma0=gamma0, lam=lam))], dim=3)
    with pytest.raises(NoConvergence):
        evolve(d, np.eye(3, dtype=complex), 13.0)


def test_mixed_rates_are_refused():
    L = np.zeros((3, 3), dtype=complex)
    L[1, 0] = 1.0
    K = np.zeros((3, 3), dtype=complex)
    K[2, 1] = 1.0
    memory = NonMarkovJC(gamma0=0.4, lam=8.0)
    mixes = (
        [DissipationChannel(jump=L, rate=memory), DissipationChannel(jump=K, rate=0.3)],
        [DissipationChannel(jump=L, rate=memory),
         DissipationChannel(jump=K, rate=NonMarkovJC(gamma0=0.4, lam=4.0))],
    )
    for channels in mixes:
        d = build_dissipator(channels, dim=3)
        with pytest.raises(NoConvergence):
            evolve(d, np.eye(3, dtype=complex), 0.5)


# ------------------------------------------------------------------ limits

def test_steady_state_amplitude_damping():
    d = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=1.0)], dim=2)
    rho = steady_state(d)
    np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-10)


def test_steady_state_sodium_is_degenerate():
    d = build_dissipator(
        [DissipationChannel(jump=L, rate=1.0) for L, _ in sodium_jump_operators()],
        dim=6,
    )
    space = steady_state(d)
    assert isinstance(space, SteadySpace)
    assert space.dim == 4   # full ground 2x2 block survives, coherences included
    P = asymptotic_projector(d)
    assert abs(np.trace(P) - space.dim) < 1e-12
    for B in space.basis:
        assert np.abs(d.generator_apply(B)).max() < 1e-9
        assert np.abs(apply_superoperator(P, B) - B).max() < 1e-12


def test_ambiguous_kernel_rank_is_refused_everywhere():
    # at gamma = 1.5e-9 the coherence singular values fall under the 1e-9
    # tolerance while the population one does not: no clean rank
    d = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=1.5e-9)], dim=2)
    setup = WeakMeasurementSetup(sigma_i=np.diag([0.6, 0.4]).astype(complex),
                                 sigma_fI=np.full((2, 2), 0.5, dtype=complex),
                                 A_SI=pauli("x"))
    for limit in (steady_state, asymptotic_projector,
                  lambda d: weak_value_limit_infinite(setup, d)):
        with pytest.raises(NoConvergence, match="ambiguous"):
            limit(d)


def test_asymptotic_projector_matches_brute_force():
    rng = np.random.default_rng(19)
    cases = [
        ([DissipationChannel(jump=SIGMA_MINUS, rate=0.6)], 2),
        ([DissipationChannel(jump=L, rate=1.0) for L, _ in sodium_jump_operators()], 6),
    ]
    for channels, dim in cases:
        d = build_dissipator(channels, dim=dim)
        P = asymptotic_projector(d)
        assert np.abs(P @ P - P).max() < 1e-10
        assert np.abs(P @ d.superoperator).max() < 1e-8
        for _ in range(5):
            C = orc.random_matrix(rng, dim)
            got = apply_superoperator(P, C)
            want = orc.asymptotic_apply(as_oracle(channels), dim, C)
            assert np.abs(got - want).max() < 1e-9
    # zero rates: nothing decays, and the projector is the identity
    for dim, jumps in ((2, [SIGMA_MINUS]), (6, [L for L, _ in sodium_jump_operators()])):
        d = build_dissipator([DissipationChannel(jump=L, rate=0.0) for L in jumps], dim=dim)
        assert np.abs(asymptotic_projector(d) - np.eye(dim * dim)).max() < 1e-14


def test_evolve_converges_to_projector():
    d = build_dissipator(
        [DissipationChannel(jump=L, rate=1.0) for L, _ in sodium_jump_operators()],
        dim=6,
    )
    P = asymptotic_projector(d)
    rng = np.random.default_rng(23)
    C = orc.random_density(rng, 6)
    far = evolve(d, C, 40.0)
    assert np.abs(far - apply_superoperator(P, C)).max() < 1e-9


# ------------------------------------------------------------------ errors

def test_evolve_rejects_bad_inputs():
    d = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=1.0)], dim=2)
    with pytest.raises(NegativeTau):
        evolve(d, np.eye(2), -0.1)
    with pytest.raises(NegativeTau):
        evolve(d, np.eye(2), float("nan"))
    with pytest.raises(DimensionMismatch):
        evolve(d, np.eye(3), 1.0)
    # tau is checked before the operator
    with pytest.raises(NegativeTau):
        evolve(d, np.eye(3), -0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonmarkov_rate_rejects_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="finite"):
        NonMarkovJC(gamma0=bad, lam=1.0)
    with pytest.raises(ValueError, match="finite"):
        NonMarkovJC(gamma0=1.0, lam=bad)
    for envelope in (nonmarkov_big_gamma, nonmarkov_gamma):
        with pytest.raises(ValueError, match="finite"):
            envelope(1.0, bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            envelope(1.0, 0.1, bad)


@pytest.mark.parametrize("tau", [-2.0, -5e-324, math.nan, math.inf, -math.inf])
def test_closed_forms_reject_a_negative_or_non_finite_tau(tau):
    C = np.eye(2, dtype=complex)
    for call in (lambda: nonmarkov_big_gamma(tau, 0.1, 1.0),
                 lambda: nonmarkov_gamma(tau, 0.1, 1.0),
                 lambda: nonmarkov_channel_apply(C, 0.1, 1.0, tau),
                 lambda: two_level_damping_apply(C, 0.5, tau)):
        with pytest.raises(NegativeTau):
            call()


@pytest.mark.parametrize("gamma", [-0.5, math.nan, math.inf, -math.inf])
def test_two_level_damping_rejects_a_negative_or_non_finite_rate(gamma):
    with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
        two_level_damping_apply(np.eye(2, dtype=complex), gamma, 1.0)


def test_channel_map_serves_every_operator_at_one_tau():
    rng = np.random.default_rng(11)
    rate = NonMarkovJC(gamma0=1.0, lam=0.5)
    chain = np.zeros((3, 3), dtype=complex)
    chain[1, 0] = 1.0
    dissipators = [
        build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=0.7)], dim=2),
        build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=rate)], dim=2),
        build_dissipator([DissipationChannel(jump=chain, rate=rate)], dim=3),
    ]
    for d in dissipators:
        for tau in (0.0, 1.5):
            apply = channel_map(d, tau)
            for _ in range(2):
                C = orc.random_matrix(rng, d.dim)
                assert np.array_equal(apply(C), evolve(d, C, tau))
            with pytest.raises(DimensionMismatch):
                apply(np.eye(d.dim + 1))
    C = np.eye(2, dtype=complex)
    out = channel_map(dissipators[0], 0.0)(C)
    assert np.array_equal(out, C) and out is not C


def test_channel_validation():
    with pytest.raises(Exception):
        DissipationChannel(jump=np.zeros((2, 3)), rate=1.0)
    with pytest.raises(Exception):
        DissipationChannel(jump=SIGMA_MINUS, rate=-1.0)
    with pytest.raises(Exception):
        NonMarkovJC(gamma0=-1.0, lam=1.0)
    with pytest.raises(Exception):
        build_dissipator([], dim=2)


def test_steady_state_requires_constant_rates():
    d = build_dissipator(
        [DissipationChannel(jump=SIGMA_MINUS, rate=NonMarkovJC(gamma0=1.0, lam=4.0))],
        dim=2,
    )
    with pytest.raises(NoConvergence):
        steady_state(d)
