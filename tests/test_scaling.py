"""Metamorphic checks, which need no oracle.

Only the products rate*tau carry physics: multiplying every rate by s and
dividing every tau by s leaves every trace, weak value and tau -> infinity
limit as it is, and multiplies each rate estimate by s. A fit depends on the
set of its samples, not on their order, to the bit. A change of basis, one
unitary applied to the jumps, the states and the observable, leaves every
weak value as it is.
"""

import math
import sys

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import oracles as orc
from weaklind import (
    SIGMA_MINUS,
    Dissipator,
    NonMarkovJC,
    WeakMeasurementSetup,
    classify_markovianity,
    epsilon_states,
    estimate_gamma,
    estimate_lambda,
    pauli,
    sodium_jump_operators,
    weak_value_limit_infinite,
)
from weaklind.lindblad import traces_over_tau
from weaklind.scenarios import EPSILON, _alkali_setup
from weaklind.weakvalue import trace_over_tau

seeds = st.integers(0, 10**6)
# 10^e with e uniform: scale factors spread over many decades
SCALES = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)


def _close(got, want, rel):
    return np.abs(np.asarray(got) - want).max() <= rel * np.abs(want).max()


def _random_channels(rng, dim):
    return [(orc.random_matrix(rng, dim), float(rng.uniform(0.1, 2.0)))
            for _ in range(int(rng.integers(1, 4)))]


def _dissipator(channels, scale=1.0):
    return Dissipator([L for L, _ in channels], [rate * scale for _, rate in channels])


SODIUM = [(L, 1.0) for L in sodium_jump_operators()]


def _protocol_samples(d, taus, with_zero=False):
    """The short-time protocol's weak values of d over taus (led by tau = 0)."""
    rho_i, rho_f = epsilon_states(EPSILON)
    setup = WeakMeasurementSetup(sigma_i=rho_i, sigma_fI=rho_f, A_SI=pauli("x"))
    grid = np.concatenate([[0.0], taus]) if with_zero else taus
    trace = trace_over_tau(setup, d, grid)
    return [(float(t), complex(v)) for t, v in zip(grid, trace.values)]


def _damping(gamma):
    return Dissipator([SIGMA_MINUS], [gamma])


def _bits(result):
    return [x.hex() if isinstance(x, float) else x for x in result]


# ------------------------------------------------------------ rate scaling

@given(seeds, SCALES)
@example(0, 1e-12)
@example(0, 1e12)
def test_traces_depend_on_rate_times_tau(seed, scale):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    taus = np.linspace(0.0, 3.0, 7)
    for channels, n in ((_random_channels(rng, dim), dim), (SODIUM, 6)):
        F, C = orc.random_matrix(rng, n), orc.random_matrix(rng, n)
        want = traces_over_tau(_dissipator(channels), F, [C], taus)
        got = traces_over_tau(_dissipator(channels, scale), F, [C], taus / scale)
        assert _close(got, want, 1e-11)


@given(st.floats(0.05, 4.0), st.floats(0.05, 4.0), SCALES)
@example(0.1, 1.0, 1e6)
def test_memory_kernel_depends_on_rate_times_tau(gamma0, lam, scale):
    rng = np.random.default_rng(3)
    F, C = orc.random_matrix(rng, 2), orc.random_matrix(rng, 2)
    taus = np.linspace(0.0, 5.0, 11)
    want = traces_over_tau(NonMarkovJC(gamma0=gamma0, lam=lam), F, [C], taus)
    got = traces_over_tau(NonMarkovJC(gamma0=gamma0 * scale, lam=lam * scale), F, [C],
                          taus / scale)
    assert _close(got, want, 1e-11)


@given(st.floats(-12.0, 200.0).map(lambda e: 10.0 ** e))
@example(1e-12)   # max|lam| = 1e-12: the snap to 0 is relative to it, not absolute
@example(1e-9)
@example(1e8)
@example(1e10)
@example(1e200)
def test_infinite_time_limit_is_rate_scale_free(scale):
    setup, _, _ = _alkali_setup("anomalous")
    want = weak_value_limit_infinite(setup, _dissipator(SODIUM))
    assert abs(weak_value_limit_infinite(setup, _dissipator(SODIUM, scale)) - want) <= 1e-15


def _scaled_estimates(scale):
    """gamma_hat and lambda_hat of the protocol's exact data at rates x scale, tau / scale."""
    taus = np.linspace(1e-3, 1e-2, 10)
    gamma = estimate_gamma(_protocol_samples(_damping(0.1 * scale), taus / (0.1 * scale)),
                           EPSILON)
    lam = estimate_lambda(
        _protocol_samples(NonMarkovJC(gamma0=0.1 * scale, lam=scale), taus / scale),
        EPSILON, 0.1 * scale)
    return gamma.gamma_hat, lam.lambda_hat


def _normal_at(coeff, scale, power):
    """Whether coeff * scale^power is a normal float, with a decade to spare."""
    exponent = math.log10(abs(coeff)) + power * math.log10(scale)
    return sys.float_info.min_10_exp < exponent < sys.float_info.max_10_exp - 1


@given(st.floats(-290.0, 290.0).map(lambda e: 10.0 ** e))
@example(1e-12)
@example(1e6)     # the memory-kernel width lam = 1e6 refused as rank-deficient
@example(1e12)
# dx^2 or tau^2 subnormal or past the float range: refused, or 19 % off
@example(1e150)
@example(1e-150)
@example(1e160)
@example(1e-160)
@example(1e200)
@example(1e-200)
@example(1e290)
@example(1e-290)
def test_estimates_scale_with_the_rates(scale):
    taus = np.linspace(1e-3, 1e-2, 10)
    gamma, lam = _scaled_estimates(1.0)
    gamma_s, lam_s = _scaled_estimates(scale)
    assert abs(lam_s / scale - lam) <= 1e-12 * lam
    assert abs(gamma_s / scale - gamma) <= 1e-12 * gamma
    for d, d_s, rate in ((_damping(0.1), _damping(0.1 * scale), 0.1),
                         (NonMarkovJC(gamma0=0.1, lam=1.0),
                          NonMarkovJC(gamma0=0.1 * scale, lam=scale), 1.0)):
        got = classify_markovianity(_protocol_samples(d, taus / rate, with_zero=True))
        got_s = classify_markovianity(
            _protocol_samples(d_s, taus / (rate * scale), with_zero=True))
        assert got_s.verdict == got.verdict
        # each coefficient wherever scale^power times it is representable
        if _normal_at(got.linear_coeff, scale, 1):
            assert (abs(got_s.linear_coeff / scale - got.linear_coeff)
                    <= 1e-12 * abs(got.linear_coeff))
        if _normal_at(got.quadratic_coeff, scale, 2):
            assert (abs(got_s.quadratic_coeff / scale / scale - got.quadratic_coeff)
                    <= 1e-12 * abs(got.quadratic_coeff))


def test_gamma_estimate_at_huge_rates_is_right():
    # rates x 1e160 made dx^2 subnormal: gamma_hat / s was 0.11827, 19 % off
    gamma, _ = _scaled_estimates(1.0)
    gamma_s, _ = _scaled_estimates(1e160)
    assert abs(gamma_s / 1e160 - gamma) <= 1e-12 * gamma


# ------------------------------------------------------------ sample order

@given(st.permutations(range(12)), seeds)
def test_fits_depend_on_the_set_of_samples_alone(order, seed):
    rng = np.random.default_rng(seed)
    taus = np.linspace(1e-3, 1e-2, 10)
    for d, rate in ((_damping(0.1), 0.1), (NonMarkovJC(gamma0=0.1, lam=1.0), 1.0)):
        samples = _protocol_samples(d, taus / rate, with_zero=True)
        # relative noise, so that the residuals are not roundoff alone, and a
        # second tau = 0 sample, so that the classifier's offset is a mean
        samples = [(t, w * (1.0 + 1e-4 * rng.standard_normal())) for t, w in samples]
        samples.append((0.0, samples[0][1] * 1.01))
        shuffled = [samples[k] for k in order]
        for fit in (lambda s: estimate_gamma([x for x in s if x[0]], EPSILON),
                    lambda s: estimate_lambda([x for x in s if x[0]], EPSILON, 0.1),
                    classify_markovianity):
            assert _bits(fit(shuffled)) == _bits(fit(samples))


# ------------------------------------------------------ unitary covariance

@given(seeds)
def test_a_change_of_basis_leaves_weak_values_alone(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    channels = _random_channels(rng, dim)
    sigma_i, sigma_f = orc.random_density(rng, dim), orc.random_density(rng, dim)
    A = orc.random_hermitian(rng, dim)
    U, _ = np.linalg.qr(orc.random_matrix(rng, dim))

    def rotate(X):
        return U @ X @ U.conj().T

    plain = WeakMeasurementSetup(sigma_i=sigma_i, sigma_fI=sigma_f, A_SI=A)
    rotated = WeakMeasurementSetup(sigma_i=rotate(sigma_i), sigma_fI=rotate(sigma_f),
                                   A_SI=rotate(A))
    d, d_rot = _dissipator(channels), _dissipator([(rotate(L), r) for L, r in channels])
    taus = np.array([0.0, 0.3, 1.7, 6.0])
    want = trace_over_tau(plain, d, taus).values
    got = trace_over_tau(rotated, d_rot, taus).values
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
    limit = weak_value_limit_infinite(plain, d)
    assert abs(weak_value_limit_infinite(rotated, d_rot) - limit) <= 1e-10 * max(1.0, abs(limit))
