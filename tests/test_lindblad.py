"""Dissipation channels: generators, propagation, limits."""

import cmath
import functools
import hashlib
import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles as orc
from weaklind import (
    SIGMA_MINUS,
    Dissipator,
    NonMarkovJC,
    WeakMeasurementSetup,
    apply_superoperator,
    asymptotic_projector,
    evolve,
    nonmarkov_big_gamma,
    pauli,
    sodium_jump_operators,
    trace_over_tau,
    weak_value_dissipative,
    weak_value_limit_infinite,
)
from weaklind.errors import DimensionMismatch, NegativeTau, NoConvergence
from weaklind import lindblad
from weaklind.lindblad import _vec, traces_over_tau
from weaklind.scenarios import _alkali_setup

seeds = st.integers(0, 10**6)


def random_setup(seed, dim=None, n_channels=None):
    rng = np.random.default_rng(seed)
    dim = dim or int(rng.integers(2, 5))
    n_channels = n_channels or int(rng.integers(1, 4))
    channels = [(orc.random_matrix(rng, dim), float(rng.uniform(0.1, 2.0)))
                for _ in range(n_channels)]
    return rng, dim, Dissipator(*zip(*channels))


def as_oracle(d):
    return list(zip(d.jumps, d.rates))


@given(seeds)
def test_evolve_matches_row_stacking_oracle(seed):
    rng, dim, d = random_setup(seed)
    C = orc.random_matrix(rng, dim)
    for tau in (0.3, 1.7):
        got = evolve(d, C, tau)
        want = orc.evolve_row(as_oracle(d), dim, C, tau)
        assert np.abs(got - want).max() < 1e-10


@given(seeds)
def test_generator_is_trace_free(seed):
    rng, dim, d = random_setup(seed)
    C = orc.random_matrix(rng, dim)
    DC = orc.unvec_row(orc.superop_row(as_oracle(d), dim) @ orc.vec_row(C), dim)
    assert abs(np.trace(DC)) < 1e-12 * max(1.0, np.abs(C).max())


@given(seeds)
def test_trace_preservation(seed):
    rng, dim, d = random_setup(seed)
    C = orc.random_matrix(rng, dim)
    tau = float(rng.uniform(0.0, 3.0))
    assert abs(np.trace(evolve(d, C, tau)) - np.trace(C)) < 1e-10


@given(seeds)
def test_dagger_commutation(seed):
    # evolving C-dagger equals the dagger of evolving C
    rng, dim, d = random_setup(seed)
    C = orc.random_matrix(rng, dim)
    tau = float(rng.uniform(0.0, 3.0))
    lhs = evolve(d, C.conj().T, tau)
    rhs = evolve(d, C, tau).conj().T
    assert np.abs(lhs - rhs).max() < 1e-10


@given(seeds)
def test_semigroup_property(seed):
    rng, dim, d = random_setup(seed)
    C = orc.random_matrix(rng, dim)
    s, t = float(rng.uniform(0.05, 1.5)), float(rng.uniform(0.05, 1.5))
    assert np.abs(evolve(d, C, s + t) - evolve(d, evolve(d, C, t), s)).max() < 1e-9


@given(seeds)
def test_evolve_linearity(seed):
    rng, dim, d = random_setup(seed)
    A, B = orc.random_matrix(rng, dim), orc.random_matrix(rng, dim)
    al = complex(rng.standard_normal(), rng.standard_normal())
    be = complex(rng.standard_normal(), rng.standard_normal())
    tau = float(rng.uniform(0.0, 2.0))
    lhs = evolve(d, al * A + be * B, tau)
    rhs = al * evolve(d, A, tau) + be * evolve(d, B, tau)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_positivity_preserved_on_densities():
    rng = np.random.default_rng(7)
    d = Dissipator([SIGMA_MINUS], [0.8])
    for _ in range(50):
        rho = orc.random_density(rng, 2)
        out = evolve(d, rho, float(rng.uniform(0, 4)))
        assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-12


def damping(gamma):
    return Dissipator([SIGMA_MINUS], [gamma])


def test_two_level_damping_closed_form():
    rng = np.random.default_rng(11)
    gamma = 0.7
    d = damping(gamma)
    for _ in range(100):
        C = orc.random_matrix(rng, 2)
        for gtau in (0.1, 1.0, 10.0):
            tau = gtau / gamma
            assert np.abs(evolve(d, C, tau) - orc.kraus_damping(C, gamma, tau)).max() < 1e-10


def test_two_level_damping_moves_population_down():
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = evolve(damping(1.0), rho, np.log(4.0))  # E^2 = 1/4
    np.testing.assert_allclose(np.diag(out).real, [0.25, 0.75], atol=1e-14)


# ----------------------------------------------------- time-dependent rate

def test_nonmarkov_big_gamma_against_ode():
    for gamma0, lam in ((1.0, 10.0), (1.0, 2.0), (1.0, 0.5)):
        taus = np.linspace(0.0, 5.0, 41)
        want = orc.big_gamma_ode(taus, gamma0, lam)
        d = NonMarkovJC(gamma0, lam)
        got = np.array([nonmarkov_big_gamma(d, t) for t in taus])
        assert np.abs(got - want).max() < 1e-9
    assert nonmarkov_big_gamma(NonMarkovJC(1.0, 0.5), 0.0) == 1.0


def test_nonmarkov_big_gamma_critical_coupling():
    # lam = 2 gamma0 makes the discriminant vanish; closed form must stay finite
    lam = 2.0
    for tau in (0.0, 0.4, 2.3):
        want = np.exp(-lam * tau / 2.0) * (1.0 + lam * tau / 2.0)
        assert abs(nonmarkov_big_gamma(NonMarkovJC(1.0, lam), tau) - want) < 1e-12


def test_nonmarkov_short_memory_does_not_overflow():
    # lam tau in the thousands: cosh(d tau/2) alone overflows a double
    gamma0, lam = 0.1, 1000.0
    d = np.sqrt(lam * lam - 2.0 * gamma0 * lam)
    for tau in (0.5, 2.0, 20.0):
        # (d - lam) written as -2 gamma0 lam / (d + lam), free of cancellation
        want = (0.5 * np.exp(-gamma0 * lam * tau / (d + lam)) * (1.0 + lam / d)
                + 0.5 * np.exp(-(d + lam) * tau / 2.0) * (1.0 - lam / d))
        assert abs(nonmarkov_big_gamma(NonMarkovJC(gamma0, lam), tau) - want) < 1e-14
    d = NonMarkovJC(gamma0=gamma0, lam=lam)
    out = evolve(d, np.diag([1.0, 0.0]).astype(complex), 20.0)
    assert np.all(np.isfinite(out))
    assert abs(np.trace(out) - 1.0) < 1e-14


def test_nonmarkov_envelope_near_the_float_limit():
    # lam ~ 1e308: lam^2, gamma0 lam and d + lam overflow, and 1/(2d) is
    # subnormal, yet Gamma is the Markov envelope e^{-gamma0 tau/2}
    for gamma0 in (1.0, 0.3):
        for tau in (0.5, 1.0, 4.0, 40.0):
            want = np.exp(-gamma0 * tau / 2.0)
            assert abs(nonmarkov_big_gamma(NonMarkovJC(gamma0, 1e308), tau) - want) < 1e-15
    # gamma0 ~ 1e308 is strong coupling with d ~ 1.4e154 i
    for tau in (0.5, 1.0, 2.0, 4.0):
        for gamma0, lam in ((1e308, 1.0), (1e300, 1e300)):
            G = nonmarkov_big_gamma(NonMarkovJC(gamma0, lam), tau)
            assert np.isfinite(G) and abs(G) <= 1.0


def test_nonmarkov_critical_coupling_near_the_float_limit():
    # lam = 2 gamma0 = 1e308: y = lam tau/2 overflows, yet Gamma = e^{-y} (1 + y) is 0,
    # also for a numpy scalar tau, whose overflow would warn
    for tau in (1e-300, 0.5, 1.9, 4.0, np.float64(4.0)):
        assert nonmarkov_big_gamma(NonMarkovJC(5e307, 1e308), tau) == 0.0


# (gamma0, lam, tau) -> float.hex of Gamma, in each branch of _envelope_pieces.
# The envelope is cmath and math alone, so these bits do not depend on the
# BLAS core or the SIMD target.
ENVELOPE_BITS = {
    (0.1, 1.0, 2.5): "0x1.d85a465ac5051p-1",           # small x, real d
    (1.0, 0.5, 3.0): "0x1.8edb0b867eaa5p-2",           # small x, imaginary d
    (0.5, 1.0, 3.0): "0x1.1d9b4a76f1992p-1",           # critical coupling
    (1.5e-300, 3e-300, 1e300): "0x1.1d9b4a76f1992p-1",  # critical, the same lam tau
    (5e307, 1e308, 4.0): "0x0.0p+0",                   # critical, y >= 2^1023
    (1.0, 1e308, 40.0): "0x1.1b48655f37267p-29",       # x > 20, scaled d and lam
    (0.1, 1000.0, 2.0): "0x1.cf4c3014224d8p-1",        # x > 20
}


@pytest.mark.pinned
def test_envelope_bits_are_pinned():
    got = {key: nonmarkov_big_gamma(NonMarkovJC(key[0], key[1]), key[2]).hex()
           for key in ENVELOPE_BITS}
    assert got == ENVELOPE_BITS


# gamma0 from 1e-300 to the float limit, and lam as a multiple of it: critical
# coupling (2), around it, and far into weak (lam > 2 gamma0) and strong coupling
GAMMA0 = st.floats(1e-300, 1.7e308)
LAM_RATIO = st.just(2.0) | st.floats(1.0, 3.0) | st.floats(1e-300, 1e300)
TAU = st.floats(0.0, 50.0) | st.floats(0.0, 1.7e308)


@example(5e307, 2.0, 4.0)            # critical, y = lam tau/2 overflows
@example(1.0, 1e308, 40.0)           # weak, e^x moved into the prefactor
@example(1e308, 1e-308, 1.0)         # strong, d ~ 1e154 i
@example(0.1, 10.0, 1e308)           # weak, tau at the float limit
@given(GAMMA0, LAM_RATIO, TAU)
def test_nonmarkov_envelope_is_real(gamma0, ratio, tau):
    # d is real or purely imaginary, so e^a (c + ls) has no imaginary part
    # but +-0, or NaN where inf * 0 meets; nonmarkov_big_gamma keeps the real part
    lam = min(max(gamma0 * ratio, 1e-300), 1.7e308)
    try:
        c, ls, a = lindblad._envelope_pieces(NonMarkovJC(gamma0, lam), tau)
    except NoConvergence:  # the phase d tau/2 overflows
        return
    value = cmath.exp(a) * (c + ls)
    assert value.imag == 0.0 or math.isnan(value.imag)


def test_channel_map_refuses_a_non_finite_map():
    # expm(tau M) past the float range is NaN; the map is refused naming tau
    # wherever the exponent bound sends tau to expm: at tau = 4 alone, and on
    # a grid that holds it, for every tau. At tau = 0.5 alone the bound is
    # finite, and the eigen rows give the fully decayed map
    constant = Dissipator([SIGMA_MINUS], [1e308])
    eye = np.eye(2, dtype=complex)
    with pytest.raises(NoConvergence, match=r"not finite at tau=4\.0"):
        evolve(constant, eye, 4.0)
    assert np.array_equal(evolve(constant, eye, 0.5), [[0.0, 0.0], [0.0, 2.0]])
    with pytest.raises(NoConvergence, match=r"not finite at tau=0\.5"):
        traces_over_tau(constant, eye, [eye], [0.0, 0.5, 4.0])


def test_grid_refuses_the_first_row_that_is_not_finite():
    # finite maps whose traces Tr[F C] overflow, on both kinds of dissipator
    big = np.full((2, 2), 1e200, dtype=complex)
    for d in (damping(0.5), NonMarkovJC(gamma0=1.0, lam=0.5)):
        with np.errstate(all="ignore"), pytest.raises(
                NoConvergence, match=r"the evolved traces are not finite at tau=0\.25"):
            traces_over_tau(d, big, [big], [0.25, 1.0])


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
    d = NonMarkovJC(gamma0=1.0, lam=0.5)
    # the damping map at G = 1 would form -0 - (-1)(0) = +0 in the corner
    C = np.array([[complex(-0.0, -1.0), 0.5], [2.0, 1.0]])
    assert np.array_equal(evolve(d, C, 0.0).view(np.uint64), C.view(np.uint64))
    G = nonmarkov_big_gamma(NonMarkovJC(1.0, 0.5), 1.0)
    assert np.array_equal(evolve(d, C, 1.0), scalar_damping_map(C, G))
    # the stacked grid takes the same two maps, and each trace is their
    # four-term sum, bit for bit
    F = orc.random_matrix(np.random.default_rng(12), 2)
    got = traces_over_tau(d, F, [C, F], [0.0, 1.0])
    want = [[orc.scalar_trace(F, X if tau == 0.0 else scalar_damping_map(X, G)) for X in (C, F)]
            for tau in (0.0, 1.0)]
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
    old = [[np.trace(F @ evolve(d, X, tau)) for X in (C, F)] for tau in (0.0, 1.0)]
    assert np.allclose(got, old, rtol=1e-15, atol=0.0)


def test_nonmarkov_ordinary_critical_coupling_is_the_closed_form_bit_for_bit():
    gamma0, lam = 0.5, 1.0
    d = NonMarkovJC(gamma0, lam)
    for tau in np.linspace(0.0, 30.0, 61).tolist() + [700.0, 1500.0]:
        y = lam * (tau / 2.0)
        assert nonmarkov_big_gamma(d, tau) == math.exp(-lam * tau / 2.0) * (1.0 + y)


def test_nonmarkov_channel_pole_crossing():
    # strong coupling: gamma(tau) diverges at tau* ~ 4.84, inside the range
    gamma0, lam = 1.0, 0.5
    d = NonMarkovJC(gamma0=gamma0, lam=lam)
    rng = np.random.default_rng(3)
    C = orc.random_matrix(rng, 2)
    for tau in np.linspace(0.2, 5.0, 13):
        got = evolve(d, C, tau)
        closed = scalar_damping_map(C, nonmarkov_big_gamma(d, tau))
        ode = orc.nonmarkov_apply_ode(C, gamma0, lam, tau)
        assert np.abs(got - closed).max() < 1e-7
        assert np.abs(got - ode).max() < 1e-7


NOT_A_RATE = (TypeError, "rate must be a real number")
BAD_RATE = (ValueError, "constant rate must be finite and >= 0")
NAN_JUMP = np.array([[0.0, math.nan], [1.0, 0.0]])
CHAIN = np.eye(3, k=-1)


@pytest.mark.parametrize("jumps, rates, error, message", [
    ([], [], ValueError, "at least one dissipation channel is required"),
    ([SIGMA_MINUS], [0.5, 0.5], ValueError, "jumps and rates must have equal length"),
    ([np.zeros((2, 3))], [1.0], DimensionMismatch, "jump operator must be a square matrix"),
    ([NAN_JUMP], [1.0], ValueError, "jump operator entries must be finite"),
    # the sigma_- memory kernel is a dissipator of its own, on no other jump
    ([SIGMA_MINUS], [NonMarkovJC(gamma0=0.4, lam=8.0)], *NOT_A_RATE),
    ([CHAIN], [NonMarkovJC(gamma0=0.4, lam=8.0)], *NOT_A_RATE),
    ([SIGMA_MINUS], ["0.5"], *NOT_A_RATE),
    ([SIGMA_MINUS], [1j], *NOT_A_RATE),
    ([SIGMA_MINUS], [math.nan], *BAD_RATE),
    ([SIGMA_MINUS], [math.inf], *BAD_RATE),
    ([SIGMA_MINUS], [-1.0], *BAD_RATE),
    ([SIGMA_MINUS, CHAIN], [0.5, 0.5], DimensionMismatch,
     r"jump operator shape \(3, 3\) does not match dim 2"),
    # index by index, a jump and then its rate, and the shared shape last
    ([SIGMA_MINUS, CHAIN], [0.5, -1.0], *BAD_RATE),
    ([SIGMA_MINUS, np.zeros((2, 3))], [-1.0, 0.5], *BAD_RATE),
    ([NAN_JUMP, CHAIN], [-1.0, 0.5], ValueError, "jump operator entries must be finite"),
], ids=["no-jumps", "unequal-lengths", "non-square-jump", "non-finite-jump",
        "memory-kernel-rate", "memory-kernel-rate-3-level", "string-rate", "complex-rate",
        "nan-rate", "inf-rate", "negative-rate", "two-shapes", "rate-before-shape",
        "rate-before-next-jump", "jump-before-its-rate"])
def test_dissipator_refuses(jumps, rates, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        Dissipator(jumps, rates)


def test_dissipator_built_directly_evolves():
    # the dimension and the superoperator come from the channels themselves
    chain = np.zeros((3, 3), dtype=complex)
    chain[1, 0] = chain[2, 1] = 1.0
    d = Dissipator([chain, np.diag([1.0, 0.0, -1.0])], [0.5, 0.2])
    assert d.dim == 3 and d.superoperator.shape == (9, 9)
    got = evolve(d, np.eye(3), 1.0)
    want = orc.evolve_row(as_oracle(d), 3, np.eye(3), 1.0)
    assert np.abs(got - want).max() < 1e-12


# ------------------------------------------------------------------ limits

def test_steady_state_amplitude_damping():
    # every state ends in the ground state
    P = asymptotic_projector(damping(1.0))
    rng = np.random.default_rng(17)
    for _ in range(5):
        rho = apply_superoperator(P, orc.random_density(rng, 2))
        np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-10)


def test_steady_state_sodium_is_degenerate():
    d = Dissipator(sodium_jump_operators(), [1.0] * 3)
    M = orc.superop_row(as_oracle(d), 6)
    P = asymptotic_projector(d)
    # full ground 2x2 block survives, coherences included
    assert np.linalg.matrix_rank(P) == 4
    assert abs(np.trace(P) - 4) < 1e-12
    rng = np.random.default_rng(29)
    for _ in range(4):
        B = apply_superoperator(P, orc.random_matrix(rng, 6))
        assert np.abs(M @ orc.vec_row(B)).max() < 1e-9
        assert np.abs(apply_superoperator(P, B) - B).max() < 1e-12


def test_a_slow_cascade_has_one_steady_state_on_both_paths(monkeypatch):
    # a cascade |0><1| at rate s and |1><2| at rate 1.5e-9 s: the slow decay's
    # singular values sit at about 1e-9 s_max, far above the kernel rule's
    # 16 n eps s_max at every scale, so the projector has rank 1. V is well
    # conditioned (cond 3.2), and the limit is Tr[A sigma_i] on the eig path
    # and on the SVD fallback alike
    first, second = np.zeros((3, 3)), np.zeros((3, 3))
    first[0, 1] = second[1, 2] = 1.0
    setup = WeakMeasurementSetup(sigma_i=np.diag([0.5, 0.3, 0.2]).astype(complex),
                                 sigma_fI=np.full((3, 3), 1.0 / 3.0, dtype=complex),
                                 A_SI=np.diag([1.0, 0.0, -1.0]).astype(complex))
    for scale in (1e-6, 1.0, 1e6):
        d = Dissipator([first, second], [scale, 1.5e-9 * scale])
        P = asymptotic_projector(d)
        assert np.linalg.matrix_rank(P) == 1 and abs(np.trace(P) - 1.0) < 1e-12
        assert abs(weak_value_limit_infinite(setup, d) - 0.3) <= 1e-15
        with monkeypatch.context() as patch:
            patch.setattr(lindblad, "_EIG_COND_MAX", 0.0)
            assert abs(weak_value_limit_infinite(setup, d) - 0.3) <= 1e-15


@given(seeds)
def test_a_finite_superoperator_has_a_numerical_kernel(seed):
    # vec(I) is a left null vector of M to roundoff, at any rate scale, so the
    # smallest singular value is within the kernel rule's 16 n eps s_max
    rng, _, unscaled = random_setup(seed)
    scale = 10.0 ** rng.uniform(-100.0, 100.0)
    d = Dissipator(unscaled.jumps, [rate * scale for rate in unscaled.rates])
    svals = np.linalg.svd(d.superoperator, compute_uv=False)
    assert svals[-1] <= 16 * len(svals) * np.finfo(float).eps * svals[0]


@pytest.mark.pinned
@pytest.mark.parametrize("s", [1e-12, 1e-11, 1e-10, 1e-9, 3e-9, 1e-8])
def test_a_slow_decay_is_not_steady_on_the_svd_fallback(s):
    # |2> -> |1> -> |0> at rate 1, a Jordan block that fails the eig guard,
    # and |3> -> |0> at rate s: the limit is the SVD projector's map, and |0>
    # is the one steady state however slowly |3> empties. A uniform
    # post-selection would hide a kept |3>, so sigma_fI weighs the levels apart
    unit = np.eye(4)
    d = Dissipator([np.outer(unit[1], unit[2]), np.outer(unit[0], unit[1]),
                    np.outer(unit[0], unit[3])], [1.0, 1.0, s])
    assert lindblad._eigen_traces(None, np.eye(16), d.superoperator, np.array([math.inf])) is None
    assert abs(np.trace(asymptotic_projector(d)) - 1.0) < 1e-12
    setup = WeakMeasurementSetup(sigma_i=np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex),
                                 sigma_fI=np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex),
                                 A_SI=np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
    assert abs(evolve(d, setup.sigma_i, math.inf)[3, 3]) <= 1e-15
    assert abs(weak_value_limit_infinite(setup, d) - 3.0) <= 3.0e-12


@pytest.mark.pinned
def test_a_zero_eigenvalue_above_the_snap_is_the_eigen_paths_kernel():
    # eig puts this channel's zero eigenvalue at about 1.6e-12, above the snap
    # 16 n eps max|lam| = 2.6e-13, with V well conditioned (cond 3.7): the
    # smallest |lam| is the kernel all the same, so the probability settles at
    # its steady value and the limit is Tr[A sigma_i]
    d = Dissipator([np.array([[-1, 0, 0], [-2, 0, -2], [0, 0, -1]]),
                    np.array([[-2, 2, 1], [1, -1, 0], [-1, -2, -2]])], [1.0, 1e-8])
    lam = np.linalg.eig(d.superoperator)[0]
    assert np.abs(lam).min() > 16 * len(lam) * np.finfo(float).eps * np.abs(lam).max()
    assert lindblad._eigen_traces(None, np.eye(9), d.superoperator, np.array([math.inf])) is not None
    psi = np.sqrt([0.5, 0.3, 0.2])
    setup = WeakMeasurementSetup(sigma_i=np.outer(psi, psi).astype(complex),
                                 sigma_fI=np.full((3, 3), 1.0 / 3.0, dtype=complex),
                                 A_SI=np.diag([1.0, 0.0, -1.0]).astype(complex))
    trace = trace_over_tau(setup, d, [1e10, 1e12, 1e14, math.inf])
    assert trace.gaps == ()
    assert np.abs(trace.postselection_probs - 0.05263).max() < 1e-4
    assert abs(weak_value_limit_infinite(setup, d) - 0.3) < 1e-4


def decoherence_free(rng, k, slow):
    """A channel on C^d, d in (k, 5], whose steady operators are those on a random
    k-dimensional subspace S: jumps c_i 1_S + B_i, B_i on the complement, and one
    pump from each complement state into S. slow scales the B_i by 1e-5 and the
    pump rates by 1e-10. Returns it with an isometry onto S."""
    dim = int(rng.integers(k + 1, 6))
    basis = np.linalg.qr(orc.random_matrix(rng, dim))[0]
    inside, outside = basis[:, :k], basis[:, k:]
    channels = [(
        complex(*rng.standard_normal(2)) * inside @ inside.conj().T
        + (1e-5 if slow else 1.0) * outside @ orc.random_matrix(rng, dim - k) @ outside.conj().T,
        float(rng.uniform(0.5, 1.5))) for _ in range(2)]
    for j in range(dim - k):
        channels.append((np.outer(inside @ orc.random_ket(rng, k), outside[:, j].conj()),
                         (1e-10 if slow else 1.0) * float(rng.uniform(0.5, 1.5))))
    return Dissipator(*zip(*channels)), inside


@pytest.mark.pinned
@pytest.mark.parametrize("path", ["eig", "svd"])
def test_the_limit_keeps_exactly_the_decoherence_free_operators(monkeypatch, path):
    # the paper's dichotomy: a k-dimensional decoherence-free subspace S keeps
    # k^2 steady operators and a weak value supported on S at every tau (Zanardi
    # & Rasetti, PRL 79, 3306, 1997), however slowly the rest decays; k = 1 is
    # the non-degenerate case, whose limit is Tr[A sigma_i] for any setup. The
    # SVD fallback checks no finite tau above 1e3, as its expm drifts at 1e12
    if path == "svd":
        monkeypatch.setattr(lindblad, "_EIG_COND_MAX", 0.0)
    rng = np.random.default_rng(36)
    for case in range(24):
        k, slow = (1, 2, 3)[case % 3], case % 2 == 1
        d, inside = decoherence_free(rng, k, slow)
        n = d.dim ** 2
        assert ((lindblad._eigen_traces(None, np.eye(n), d.superoperator, np.ones(1)) is None)
                == (path == "svd"))
        limit = np.array([evolve(d, unit.reshape(d.dim, d.dim), math.inf).ravel()
                          for unit in np.eye(n)])
        assert np.linalg.matrix_rank(limit, tol=1e-6) == k * k
        if k == 1:
            setup = WeakMeasurementSetup(sigma_i=orc.random_density(rng, d.dim),
                                         sigma_fI=orc.random_density(rng, d.dim),
                                         A_SI=orc.random_hermitian(rng, d.dim))
            want = np.trace(setup.A_SI @ setup.sigma_i)
            taus = [math.inf]
        else:
            on_s = [inside @ X @ inside.conj().T for X in (
                orc.random_density(rng, k), orc.random_density(rng, k),
                orc.random_hermitian(rng, k))]
            setup = WeakMeasurementSetup(*on_s)
            want = weak_value_dissipative(setup, d, 0.0).value
            taus = [1.0, 1e3] + ([1e12] if path == "eig" else []) + [math.inf]
        tol = 1e-3 if slow else 1e-10
        for tau in taus:
            got = weak_value_dissipative(setup, d, tau).value
            assert abs(got - want) <= tol * max(1.0, abs(want)), (case, tau)


def test_an_overflowing_superoperator_is_refused_when_made():
    jump = np.array([[0.0, 0.0], [10.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match="superoperator is not finite"):
            Dissipator([jump], [1e308])
        # each jump's term is finite; their sum is finite, then it is not
        Dissipator([jump] * 2, [5e305] * 2)
        with pytest.raises(NoConvergence, match="superoperator is not finite"):
            Dissipator([jump] * 2, [1e307] * 2)
    # damping at 1.5e308: every entry of M is finite, but s_max = sqrt(2) gamma is not,
    # and a threshold of inf would count every singular value as zero (P = identity)
    d = Dissipator([SIGMA_MINUS], [1.5e308])
    with pytest.raises(NoConvergence, match="largest singular value overflows"):
        asymptotic_projector(d)
    # max|lam| = 1.5e308 is finite, so the limit takes the eig path: the ground
    # state is the one steady state, and the limit is Tr[A sigma_i]
    setup = WeakMeasurementSetup(sigma_i=np.diag([0.8, 0.2]).astype(complex),
                                 sigma_fI=np.full((2, 2), 0.5, dtype=complex), A_SI=pauli("z"))
    assert abs(weak_value_limit_infinite(setup, d) - 0.6) <= 1e-15


def test_asymptotic_projector_matches_brute_force():
    rng = np.random.default_rng(19)
    for d in (Dissipator([SIGMA_MINUS], [0.6]), Dissipator(sodium_jump_operators(), [1.0] * 3)):
        dim = d.dim
        P = asymptotic_projector(d)
        assert np.abs(P @ P - P).max() < 1e-10
        assert np.abs(P @ d.superoperator).max() < 1e-8
        for _ in range(5):
            C = orc.random_matrix(rng, dim)
            got = apply_superoperator(P, C)
            want = orc.asymptotic_apply(as_oracle(d), dim, C)
            assert np.abs(got - want).max() < 1e-9
    # zero rates: nothing decays, and the projector is the identity
    for dim, jumps in ((2, [SIGMA_MINUS]), (6, sodium_jump_operators())):
        d = Dissipator(jumps, [0.0] * len(jumps))
        assert np.abs(asymptotic_projector(d) - np.eye(dim * dim)).max() < 1e-14


def test_evolve_converges_to_projector():
    d = Dissipator(sodium_jump_operators(), [1.0] * 3)
    P = asymptotic_projector(d)
    rng = np.random.default_rng(23)
    C = orc.random_density(rng, 6)
    far = evolve(d, C, 40.0)
    assert np.abs(far - apply_superoperator(P, C)).max() < 1e-9


# ------------------------------------------------------------------ errors

def test_evolve_rejects_bad_inputs():
    d = Dissipator([SIGMA_MINUS], [1.0])
    with pytest.raises(NegativeTau):
        evolve(d, np.eye(2), -0.1)
    with pytest.raises(NegativeTau):
        evolve(d, np.eye(2), float("nan"))
    with pytest.raises(DimensionMismatch):
        evolve(d, np.eye(3), 1.0)
    # tau is checked before the operator
    with pytest.raises(NegativeTau):
        evolve(d, np.eye(3), -0.1)


def test_a_bad_memory_kernel_is_refused_before_a_bad_tau():
    # gamma0 and lam are checked when the channel is made, before any tau
    with pytest.raises(ValueError, match="gamma0 and lam must be finite"):
        nonmarkov_big_gamma(NonMarkovJC(math.nan, 1.0), math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonmarkov_rate_rejects_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="finite"):
        NonMarkovJC(gamma0=bad, lam=1.0)
    with pytest.raises(ValueError, match="finite"):
        NonMarkovJC(gamma0=1.0, lam=bad)
    with pytest.raises(ValueError, match="finite"):
        nonmarkov_big_gamma(NonMarkovJC(bad, 1.0), 1.0)
    with pytest.raises(ValueError, match="finite"):
        nonmarkov_big_gamma(NonMarkovJC(0.1, bad), 1.0)


@pytest.mark.parametrize("tau", [-2.0, -5e-324, math.nan, math.inf, -math.inf])
def test_closed_forms_reject_a_negative_or_non_finite_tau(tau):
    # +inf is the one non-finite tau taken: the limit, Gamma = 0, whose map
    # sends C to Tr[C] |g><g| on the memory kernel and on damping alike
    C = np.eye(2, dtype=complex)
    memory = NonMarkovJC(gamma0=0.1, lam=1.0)
    calls = (lambda: nonmarkov_big_gamma(NonMarkovJC(0.1, 1.0), tau),
             lambda: evolve(memory, C, tau),
             lambda: evolve(damping(0.5), C, tau))
    if tau == math.inf:
        gamma, kernel_map, damping_map = (call() for call in calls)
        assert gamma == 0.0
        assert kernel_map.tobytes() == lindblad._damping_maps(C, np.zeros(1))[0].tobytes()
        assert np.abs(damping_map - np.diag([0.0, 2.0])).max() <= 4 * np.finfo(float).eps
        return
    for call in calls:
        with pytest.raises(NegativeTau):
            call()


@pytest.mark.parametrize("gamma", [-0.5, math.nan, math.inf, -math.inf])
def test_two_level_damping_rejects_a_negative_or_non_finite_rate(gamma):
    with pytest.raises(ValueError, match="constant rate must be finite and >= 0"):
        damping(gamma)


def test_channel_map_serves_every_operator_at_one_tau():
    rng = np.random.default_rng(11)
    dissipators = [
        Dissipator([SIGMA_MINUS], [0.7]),
        NonMarkovJC(gamma0=1.0, lam=0.5),
    ]
    for d in dissipators:
        F = orc.random_matrix(rng, d.dim)
        operands = [orc.random_matrix(rng, d.dim) for _ in range(3)]
        for tau in (0.0, 1.5):
            (row,) = traces_over_tau(d, F, operands, [tau])
            want = [np.trace(F @ evolve(d, C, tau)) for C in operands]
            assert np.allclose(row, want, rtol=1e-12, atol=1e-12)
        with pytest.raises(DimensionMismatch):
            traces_over_tau(d, F, [operands[0], np.eye(d.dim + 1)], [1.5])
        with pytest.raises(DimensionMismatch):
            evolve(d, np.eye(d.dim + 1), 1.5)
    C = np.eye(2, dtype=complex)
    out = evolve(dissipators[0], C, 0.0)
    assert np.array_equal(out, C) and out is not C


def test_apply_superoperator_refuses_a_superoperator_of_the_wrong_shape():
    C = np.eye(2, dtype=complex)
    for shape in ((5, 5), (4, 9)):
        with pytest.raises(DimensionMismatch, match=r"expected a 4x4 operator, got shape"):
            apply_superoperator(np.ones(shape, dtype=complex), C)
    with pytest.raises(DimensionMismatch, match="expected a 3x3 operator"):
        apply_superoperator(np.eye(9, dtype=complex), C)


def test_channel_validation():
    with pytest.raises(ValueError, match="^gamma0 and lam must be finite and strictly positive$"):
        NonMarkovJC(gamma0=-1.0, lam=1.0)


def test_numpy_rates_are_constant_rates():
    for rate, want in ((np.float32(0.5), 0.5), (np.int64(1), 1.0)):
        got = Dissipator([SIGMA_MINUS], [rate])
        ref = Dissipator([SIGMA_MINUS], [want])
        assert type(got.rates[0]) is float and got.rates == (want,)
        assert got.superoperator.tobytes() == ref.superoperator.tobytes()


def test_steady_state_requires_constant_rates():
    d = NonMarkovJC(gamma0=1.0, lam=4.0)
    with pytest.raises(NoConvergence):
        asymptotic_projector(d)


# ------------------------------------------- bit-for-bit kernel rewrites

def kron_superoperator(jumps, rates, dim):
    """The column-stacked superoperator written with np.kron, summed jump by
    jump from zero."""
    eye = np.eye(dim)
    M = np.zeros((dim * dim, dim * dim), dtype=complex)
    for L, rate in zip(jumps, rates):
        LdL = L.conj().T @ L
        piece = np.kron(L.conj(), L) - 0.5 * (np.kron(eye, LdL) + np.kron(LdL.T, eye))
        M += rate * piece
    return M


def wide_jump(rng, dim):
    """Entries of magnitude 1e-200 to 1e150, with exact +0.0 and -0.0 parts."""
    parts = rng.standard_normal((dim, dim, 2)) * 10.0 ** rng.uniform(-200, 150, (dim, dim, 2))
    parts[rng.random(parts.shape) < 0.15] = 0.0
    parts[rng.random(parts.shape) < 0.15] = -0.0
    return parts[..., 0] + 1j * parts[..., 1]


def test_superoperator_is_the_kron_form_bit_for_bit():
    rng = np.random.default_rng(21)
    cases = [(sodium_jump_operators(), [1.0] * 3, 6), ([SIGMA_MINUS], [0.7], 2)]
    for _ in range(300):
        dim = int(rng.integers(2, 6))
        pairs = [(wide_jump(rng, dim), float(rng.choice([0.0, 1.0, rng.uniform(0, 5)])))
                 for _ in range(int(rng.integers(1, 5)))]
        cases.append((*zip(*pairs), dim))
    for jumps, rates, dim in cases:
        got = lindblad._superoperator_matrix(jumps, rates, dim)
        assert got.tobytes() == kron_superoperator(jumps, rates, dim).tobytes()


def clamped_spectrum(r, X, M, s):
    """The guards, clamp and snap of _eigen_traces, written out: (lam, cond(V),
    weights (r V)_i (V^-1 X)_ij), or None where a guard fails."""
    try:
        lam, V = np.linalg.eig(M)
    except np.linalg.LinAlgError:
        return None
    cond = np.linalg.cond(V)
    if not cond <= lindblad._EIG_COND_MAX:
        return None
    lam_max = max(float(np.abs(lam.real).max()), float(np.abs(lam.imag).max()))
    if not math.isfinite(lam_max * float(np.abs(s).max())):
        return None
    lam = np.minimum(lam.real, 0.0) + 1j * lam.imag
    size = np.abs(lam)
    snap = size <= 16 * len(lam) * np.finfo(float).eps * size.max()
    snap[size.argmin()] = True  # the kernel is never empty
    lam[snap] = 0.0
    return lam, cond, (r @ V)[:, None] * np.linalg.solve(V, X)


def exp_outer_traces(r, X, M, s):
    """One exponential per eigenvalue, duplicates included, summed by a matmul."""
    lam, _, weights = clamped_spectrum(r, X, M, s)
    return np.exp(np.multiply.outer(s, lam)) @ weights


def distinct_sum_traces(r, X, M, s):
    """_eigen_traces in Python complex scalars: the weights of each bitwise-distinct
    eigenvalue summed in index order, then each row summed over those eigenvalues
    in the order they first appear, one tau at a time."""
    lam, _, weights = clamped_spectrum(r, X, M, s)
    groups = {}
    for i, key in enumerate(lam.view("V16").tolist()):
        groups.setdefault(key, []).append(i)
    terms = [(complex(lam[idx[0]]), [sum((complex(w) for w in weights[idx, j]), 0j)
                                     for j in range(X.shape[1])])
             for idx in groups.values()]
    rows = []
    for tau in s.tolist():
        e = [complex(np.exp(np.array([complex(tau, 0.0) * l]))[0]) for l, _ in terms]
        rows.append([functools.reduce(operator.add, [e_m * W[j] for e_m, (_, W) in zip(e, terms)])
                     for j in range(X.shape[1])])
    return np.array(rows, dtype=complex).reshape(len(s), X.shape[1])


@pytest.mark.pinned
def test_eigen_traces_are_the_per_eigenvalue_exponentials_bit_for_bit():
    # bit for bit the per-distinct-eigenvalue sum in complex scalars, and
    # within roundoff of the sum over every eigenvalue that it regroups
    rng = np.random.default_rng(22)
    sodium = Dissipator(sodium_jump_operators(), [1.0] * 3)
    damping = Dissipator([SIGMA_MINUS], [0.7])
    generators = [sodium.superoperator, damping.superoperator,
                  np.diag([1e-15, -1.0]).astype(complex)]  # the clamped growing mode
    for _ in range(40):
        generators.append(random_setup(int(rng.integers(10**6)))[2].superoperator)
    generators += [orc.random_matrix(rng, n) - 3.0 * np.eye(n) for n in (2, 3, 5, 8)]
    checked = 0
    for M in generators:
        n = len(M)
        r, X = orc.random_matrix(rng, n)[0], orc.random_matrix(rng, n)[:, :3]
        for s in (np.concatenate(([0.0], np.sort(rng.uniform(0.0, 20.0, 30)), [1e18])),
                  np.linspace(0.0, 40.0, 101)):
            got, spectrum = lindblad._eigen_traces(r, X, M, s), clamped_spectrum(r, X, M, s)
            assert (got is None) == (spectrum is None)
            if got is None:
                continue
            assert got.tobytes() == distinct_sum_traces(r, X, M, s).tobytes()
            # both sum the same terms: within c n eps of the sum of their moduli,
            # itself at most cond(V) |r| |X_j| (|exp| <= 1 after the clamp)
            lam, cond, weights = spectrum
            scale = np.abs(np.exp(np.multiply.outer(s, lam))) @ np.abs(weights)
            assert (np.abs(got - exp_outer_traces(r, X, M, s))
                    <= 4 * n * np.finfo(float).eps * scale).all()
            assert (scale <= (1 + 1e-12) * cond * np.linalg.norm(r)
                    * np.linalg.norm(X, axis=0)).all()
            checked += 1
    assert checked > 80


def test_eigen_traces_exponentiate_each_distinct_eigenvalue_once(monkeypatch):
    seen = []
    exp = np.exp

    def spy(x, *args, **kwargs):
        seen.append(np.shape(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    s = np.array([0.0, 0.5, 2.0])
    got = lindblad._eigen_traces(np.ones(4), np.eye(4),
                                 np.diag([0.0, -1.0, -1.0, -1.0]).astype(complex), s)
    assert [math.prod(shape) for shape in seen] == [2 * 3]  # 2 distinct eigenvalues, 3 taus
    assert np.array_equal(got, [[1.0] + [v] * 3 for v in exp(-s)])


def block_rows(d, k):
    """The rows in one block of a constant-rate sweep with k operands."""
    lam = clamped_spectrum(np.ones(d.dim ** 2), np.eye(d.dim ** 2), d.superoperator,
                           np.ones(1))[0]
    return max(1, lindblad._EIG_BLOCK // (len(set(lam.view("V16").tolist())) * k))


CONSTANT_RATE_CHANNELS = {
    "sodium": lambda rng: lindblad.named_channel("sodium", {"rate": 1.0})[0],
    "damping": lambda rng: damping(0.7),
    "random-2": lambda rng: random_setup(int(rng.integers(10**6)), 2)[2],
    "random-3": lambda rng: random_setup(int(rng.integers(10**6)), 3)[2],
}


@pytest.mark.pinned
@pytest.mark.parametrize("name", CONSTANT_RATE_CHANNELS)
def test_a_tau_alone_is_its_grid_row_bit_for_bit(name):
    # every row is a function of its own tau: grids of 1 and 7 points, one
    # block and one point either side of it, and 1e4 points, whose rows equal
    # the one-point sweep at the same tau as IEEE bit patterns
    rng = np.random.default_rng(sum(map(ord, name)))
    d = CONSTANT_RATE_CHANNELS[name](rng)
    F = orc.random_matrix(rng, d.dim)
    operands = [orc.random_matrix(rng, d.dim) for _ in range(2)]
    step = block_rows(d, len(operands))
    for n in (1, 7, step - 1, step, step + 1, 10**4):
        taus = np.sort(rng.uniform(0.0, 30.0, n))
        grid = traces_over_tau(d, F, operands, taus)
        assert grid.shape == (n, 2)
        picks = {0, n - 1, step - 1, step} | set(rng.integers(0, n, 12).tolist())
        for k in sorted(j for j in picks if 0 <= j < n):
            assert (traces_over_tau(d, F, operands, taus[k:k + 1]).tobytes()
                    == grid[k].tobytes())


def assert_limit_is_the_far_row(d, F, operands):
    """The sweep's tau = inf row is its row at a tau where every decaying
    exp(tau lam) underflows to 0, bit for bit up to the sign of a zero, and
    bit for bit the weight of the eigenvalues snapped to +0 (the rule that
    formed the limit apart from the sweep); false where the eig guards fail,
    and nothing is compared."""
    n = d.dim ** 2
    spectrum = clamped_spectrum(np.ones(n), np.eye(n), d.superoperator, np.ones(1))
    if spectrum is None:
        return False
    lam = spectrum[0]
    tau = 800.0 / (-lam.real[lam != 0.0]).min()  # exp(-800) is 0 in doubles
    far = traces_over_tau(d, F, operands, [tau])[0]
    limit = traces_over_tau(d, F, operands, [math.inf])[0]
    # float equality: equal bits, but +0.0 == -0.0
    assert np.array_equal(limit.view(float), far.view(float))
    # the weights of the eigenvalues snapped to +0, added in index order from 0
    _, _, weights = clamped_spectrum(_vec(F.T), np.array([_vec(C) for C in operands]).T,
                                     d.superoperator, np.ones(1))
    kernel = np.array([sum(weights[lam == 0.0, j].tolist(), 0j) for j in range(len(operands))])
    assert limit.tobytes() == kernel.tobytes()
    return True


@pytest.mark.pinned
@given(seeds)
def test_the_limit_is_the_sweeps_far_row_on_random_dissipators(seed):
    rng, dim, d = random_setup(seed)
    F = orc.random_matrix(rng, dim)
    operands = [orc.random_matrix(rng, dim) for _ in range(2)]
    assume(assert_limit_is_the_far_row(d, F, operands))


@pytest.mark.pinned
@pytest.mark.parametrize("pair", ["anomalous", "constant", "damping"])
def test_the_limit_is_the_sweeps_far_row_on_sodium_and_damping(pair):
    if pair == "damping":
        setup = WeakMeasurementSetup(sigma_i=np.diag([0.8, 0.2]).astype(complex),
                                     sigma_fI=np.full((2, 2), 0.5, dtype=complex),
                                     A_SI=pauli("x"))
        d = damping(0.7)
    else:
        setup, d, _ = _alkali_setup(pair)
    assert assert_limit_is_the_far_row(d, setup.sigma_fI, setup.operands())


# (gamma0, lam) near the float limit, as in the memory-kernel CLI tests
FLOAT_LIMIT_COUPLINGS = [(1.0, 1e308), (1e308, 1.0), (1e300, 1e300), (5e307, 1e308)]
CONTRACT_CHANNELS = {
    **CONSTANT_RATE_CHANNELS,
    "cascade": lambda rng: equal_rate_cascade(),
    "weak coupling": lambda rng: NonMarkovJC(gamma0=0.1, lam=1.0),
    "strong coupling": lambda rng: NonMarkovJC(gamma0=1.0, lam=0.5),
    **{f"float limit {g:g} {l:g}": lambda rng, g=g, l=l: NonMarkovJC(g, l)
       for g, l in FLOAT_LIMIT_COUPLINGS},
}


@pytest.mark.parametrize("name", CONTRACT_CHANNELS)
def test_evolve_is_the_one_point_trace_of_each_matrix_unit(monkeypatch, name):
    # for tau > 0, evolve(d, C, tau)[i, j] is traces_over_tau(d, E_ji, [C], [tau])[0, 0]
    # bit for bit, on the eigen rows, the expm fallback and the memory kernel
    expms = []
    exponential_map = lindblad._exponential_map
    monkeypatch.setattr(lindblad, "_exponential_map",
                        lambda *args: expms.append(args) or exponential_map(*args))
    rng = np.random.default_rng(sum(map(ord, name)))
    d = CONTRACT_CHANNELS[name](rng)
    for tau in (0.3, 1.7, 4.0):
        C = orc.random_matrix(rng, d.dim)
        got = evolve(d, C, tau)
        want = np.empty((d.dim, d.dim), dtype=complex)
        for i, j in np.ndindex(d.dim, d.dim):
            E = np.zeros((d.dim, d.dim))
            E[j, i] = 1.0
            want[i, j] = traces_over_tau(d, E, [C], [tau])[0, 0]
        assert got.tobytes() == want.tobytes()
    assert bool(expms) == (name == "cascade")


MEMORY_KERNEL_COUPLINGS = {"weak": (0.1, 1.0), "critical": (0.5, 1.0), "strong": (1.0, 0.5),
                           **{f"float limit {g:g} {l:g}": (g, l)
                              for g, l in FLOAT_LIMIT_COUPLINGS}}


@pytest.mark.pinned
@pytest.mark.parametrize("coupling", MEMORY_KERNEL_COUPLINGS)
def test_the_memory_kernel_limit_is_its_far_row(coupling):
    # Gamma(inf) = 0.0 on every coupling. At the first doubled tau where
    # Gamma underflows to +-0, the sweep's row is the inf row bit for bit up
    # to the sign of a zero, and the limit's weak value is Tr[A sigma_i]:
    # one steady state, the paper's non-degenerate case
    d = NonMarkovJC(*MEMORY_KERNEL_COUPLINGS[coupling])
    assert nonmarkov_big_gamma(d, math.inf) == 0.0
    tau = 1.0
    while nonmarkov_big_gamma(d, tau) != 0.0:
        tau *= 2.0
    rng = np.random.default_rng(sum(map(ord, coupling)))
    setup = WeakMeasurementSetup(sigma_i=orc.random_density(rng, 2),
                                 sigma_fI=orc.random_density(rng, 2),
                                 A_SI=orc.random_matrix(rng, 2))
    far, limit = (traces_over_tau(d, setup.sigma_fI, setup.operands(), [t])[0]
                  for t in (tau, math.inf))
    # float equality: equal bits, but +0.0 == -0.0
    assert np.array_equal(limit.view(float), far.view(float))
    want = np.trace(setup.A_SI @ setup.sigma_i)[None].view(float)
    got = np.array([weak_value_limit_infinite(setup, d)]).view(float)
    assert (np.abs(got - want) <= 2 * np.spacing(np.abs(want))).all()  # 2 ulps each part


def test_the_cascade_limit_is_the_svd_projector_map():
    # the expm fallback's inf row: evolve gives the SVD projector's map, and
    # a trace is the fixed-order sum over that map
    d = equal_rate_cascade()
    rng = np.random.default_rng(13)
    F, C = orc.random_matrix(rng, 3), orc.random_matrix(rng, 3)
    P = asymptotic_projector(d)
    assert np.array_equal(evolve(d, C, math.inf), apply_superoperator(P, C))
    assert (traces_over_tau(d, F, [C], [math.inf])[0].tobytes()
            == lindblad._trace_sums(F, apply_superoperator(P, C)[None]).tobytes())


# sha256 prefixes of the memory-kernel grid traces and evolve's maps, which no
# BLAS step forms: the same under every OpenBLAS core and numpy SIMD level
MEMORY_KERNEL_BITS = {"weak": ("5e5a642e39d21542", "76a232758777fd23"),
                      "strong": ("eaa0b6b6f1a12eec", "9022edbb01615e34")}


@pytest.mark.pinned
def test_memory_kernel_bits_are_pinned():
    F = np.array([[0.3 + 0.1j, -0.2 + 0.45j], [0.7 - 0.05j, 0.15 + 0.2j]])
    operands = [np.array([[0.55 - 0.1j, 0.25 + 0.3j], [-0.35 + 0.05j, 0.45 + 0.15j]]),
                F.conj().T]
    taus = np.linspace(0.0, 16.0, 81)
    got = {}
    for tag, (gamma0, lam) in {"weak": (0.1, 1.0), "strong": (1.0, 0.5)}.items():
        d = NonMarkovJC(gamma0, lam)
        grid = traces_over_tau(d, F, operands, taus)
        maps = np.array([evolve(d, operands[0], tau) for tau in taus])
        got[tag] = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (grid, maps))
    assert got == MEMORY_KERNEL_BITS


@pytest.mark.pinned
def test_every_block_size_gives_the_same_rows(monkeypatch):
    rng = np.random.default_rng(31)
    for d in (lindblad.named_channel("sodium", {"rate": 1.0})[0],
              random_setup(5, 3)[2]):
        F = orc.random_matrix(rng, d.dim)
        operands = [orc.random_matrix(rng, d.dim) for _ in range(3)]
        taus = np.linspace(0.0, 12.0, 50)
        want = traces_over_tau(d, F, operands, taus).tobytes()
        for cells in (1, 7, 30, 100, 10**4):
            monkeypatch.setattr(lindblad, "_EIG_BLOCK", cells)
            assert traces_over_tau(d, F, operands, taus).tobytes() == want


def equal_rate_cascade():
    """|0> -> |1> -> |2> at equal rates: a defective generator, so its sweep
    takes the expm fallback."""
    jumps = np.zeros((2, 3, 3), dtype=complex)
    jumps[0, 1, 0] = jumps[1, 2, 1] = 1.0
    return Dissipator(jumps, [1.0] * len(jumps))


KINDS = {"constant rates": lambda: damping(0.7), "expm fallback": equal_rate_cascade,
         "memory kernel": lambda: NonMarkovJC(gamma0=1.0, lam=4.0)}


@pytest.mark.parametrize("kind", KINDS)
def test_traces_over_tau_treats_bad_input_alike_on_every_kind(kind):
    d = KINDS[kind]()
    rng = np.random.default_rng(3)
    F, C = orc.random_matrix(rng, d.dim), orc.random_matrix(rng, d.dim)
    for k in (1, 2):
        empty = traces_over_tau(d, F, [C] * k, [])
        assert empty.shape == (0, k) and empty.dtype == complex
    for taus in (np.ones((2, 3)), np.ones((1, 1)), 0.5):
        with pytest.raises(ValueError, match="1-D tau grid"):
            traces_over_tau(d, F, [C], taus)
    for taus in ([0.0, 1.0], [], [math.inf]):
        with pytest.raises(ValueError, match="at least one operand"):
            traces_over_tau(d, F, [], taus)
    # one input rule at every tau: NaN, -inf and a negative tau are refused
    # before anything evolves, +inf is the limit
    for bad in (math.nan, -math.inf, -1.0):
        with pytest.raises(NegativeTau, match="tau must be >= 0"):
            traces_over_tau(d, F, [C], [0.0, math.inf, bad])
        with pytest.raises(NegativeTau, match="tau must be >= 0"):
            evolve(d, C, bad)
    assert np.isfinite(traces_over_tau(d, F, [C], [0.0, math.inf])).all()


# one channel per path of the kernel: eigen rows, the expm fallback, the memory kernel
OVERFLOW_PATHS = {"eigen rows": lambda: damping(0.7), "expm fallback": equal_rate_cascade,
                  "memory kernel": lambda: NonMarkovJC(gamma0=0.1, lam=1.0)}


def overflowing_traces(d):
    """(F, C): finite operators whose trace Tr[F C] overflows at tau = 0."""
    return np.ones((d.dim, d.dim), dtype=complex), np.full((d.dim, d.dim), 1e308, dtype=complex)


@pytest.mark.parametrize("path", OVERFLOW_PATHS)
def test_an_overflowing_row_is_refused_without_a_warning(path):
    d = OVERFLOW_PATHS[path]()
    F, C = overflowing_traces(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match=r"the evolved traces are not finite at tau=0\.0$"):
            traces_over_tau(d, F, [C], [0.0, 0.1, 0.2])


def test_the_expm_fallback_stops_at_its_first_overflowing_row(monkeypatch):
    # the rows after the first that is not finite are never exponentiated
    taus = []
    exponential_map = lindblad._exponential_map

    def spy(M, tau):
        taus.append(tau)
        return exponential_map(M, tau)

    monkeypatch.setattr(lindblad, "_exponential_map", spy)
    d = equal_rate_cascade()
    F, C = overflowing_traces(d)
    with pytest.raises(NoConvergence, match=r"the evolved traces are not finite at tau=0\.1$"):
        traces_over_tau(d, F, [C], [0.1, 0.2, 0.3])
    assert taus == [0.1]


@pytest.mark.parametrize("name, rates", [("amplitude_damping", {"gamma": 0.7}),
                                         ("sodium", {"rate": 1.0})], ids=["damping", "sodium"])
def test_a_failed_eig_takes_the_expm_fallback_bit_for_bit(monkeypatch, name, rates):
    calls = []

    def fail(M):
        calls.append(M.shape)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    d, _ = lindblad.named_channel(name, rates)
    monkeypatch.setattr(np.linalg, "eig", fail)
    rng = np.random.default_rng(11)
    F = orc.random_matrix(rng, d.dim)
    operands = [orc.random_matrix(rng, d.dim) for _ in range(2)]
    taus = [0.0, 0.3, 1.7, 6.0]
    got = traces_over_tau(d, F, operands, taus)
    # the trace of each expm map as its fixed-order sum
    maps = [lindblad._exponential_map(d.superoperator, tau) for tau in taus[1:]]
    evolved = [operands] + [[apply_superoperator(S, C) for C in operands] for S in maps]
    want = np.array([[orc.scalar_trace(F, X) for X in row] for row in evolved])
    assert calls == [(d.dim ** 2, d.dim ** 2)]
    assert got.tobytes() == want.tobytes()
    old = np.array([[np.trace(F @ evolve(d, C, tau)) for C in operands] for tau in taus])
    assert np.allclose(got, old, rtol=1e-13, atol=0.0)
