"""Packaged experiments: reference traces and dissipation estimators.

Two kinds of scenario live here. The six-level atom scenarios rebuild the
reference curves for an anomalous weak value under optical pumping: one
state pair whose weak value grows anomalous with dissipation, and one
orthogonal pair whose anomalous value survives unchanged because it is
carried entirely by asymptotic ground-manifold coherences. The estimator
scenarios run one short-time protocol: the amplification states at
epsilon = 0.01 with A = sigma_x, one sigma_- channel, and ten points with
rate*tau in [1e-3, 1e-2]. Read off amplitude damping, the amplified linear
growth of Re(wv) gives the decay rate; read off the memory kernel, its
quadratic growth gives the kernel width; the classifier tells the two apart.

Two tables drive the scenarios: SHORT_TIME_CHANNELS names the protocol's
channels (the rate that scales tau, the rates that lindblad.named_channel
builds the channel at and the verdicts report, the expected classifier
verdict), and SCENARIOS maps each CLI name to its run.

The three fits share one least-squares line in closed form whose every sum is
a math.fsum: each fit is a function of the set of its samples, whatever their
order, the BLAS core or the SIMD target, and scales with the rates across the
float range (tau is scaled exactly to unit size). Scenarios are deterministic:
Gaussian noise, relative to each sample, comes only with an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DegenerateFit, PostselectionVanishes, ScenarioAssertionError
from .lindblad import Dissipator, named_channel
from .operators import SIGMA_X, jy_six_level, pure_density
from .weakvalue import (
    WeakMeasurementSetup,
    WeakValueTrace,
    epsilon_states,
    trace_over_tau,
    weak_value_dissipative,  # noqa: F401  (bench/tracing.py patches it here)
    weak_value_limit_infinite,  # noqa: F401  (bench/tracing.py patches it here)
)

# residual-ratio threshold of the Markovianity classifier: one model must fit
# at least ten times better (relative L2 residual) than the other. An
# artifact tuning choice, not a physics claim.
CLASSIFY_RATIO = 0.1

# relative noise level used when a seed is supplied to an estimator scenario
NOISE_SIGMA = 1e-4

SODIUM_WV_AT_ZERO = 0.0954
SODIUM_WV_AT_ZERO_TOL = 5e-4
SODIUM_WV_AT_INF = -0.346 + 0.151j
SODIUM_WV_AT_INF_TOL = 2e-3
SODIUM_CONSTANT_SPREAD_TOL = 1e-6


@dataclass(frozen=True)
class ScenarioResult:
    """Named outcome of a packaged run: its trace plus a JSON-ready verdict."""

    name: str
    trace: WeakValueTrace
    verdict: dict


_ALPHA = 0.0498
# the two reference post-selected states of the six-level atom
_ALKALI_POST = {
    "anomalous": [_ALPHA, -0.995, 0.0, -_ALPHA * (1.0 + 1.0j), _ALPHA, -0.00734 + 0.00114j],
    "constant": [0.0, 0.0, 0.0, 0.0, 0.989, -0.146 + 0.0226j],
}


def _alkali_setup(post: str) -> tuple[WeakMeasurementSetup, Dissipator, float]:
    """Six-level optical-pumping system with one of the two reference post states.

    Pre-selection is the balanced excited-manifold superposition
    (1, 1j, 1, 1, 0, 0)/2; the observable is the angular-momentum y component.
    The dissipator, returned with its rate, is the named sodium channel at
    unit rate, so tau is directly the dimensionless rate*time product.
    """
    psi_i = pure_density([0.5, 0.5j, 0.5, 0.5, 0.0, 0.0])
    psi_f = pure_density(_ALKALI_POST[post])
    setup = WeakMeasurementSetup(sigma_i=psi_i, sigma_fI=psi_f, A_SI=jy_six_level())
    return (setup, *named_channel("sodium", {"rate": 1.0}))


def _trace_and_limit(setup: WeakMeasurementSetup, d: Dissipator,
                     grid: np.ndarray) -> tuple[WeakValueTrace, complex]:
    """The trace over grid and, split off from the same sweep's last tau = inf,
    the limit's weak value; PostselectionVanishes if that row is a gap."""
    swept, n = trace_over_tau(setup, d, np.append(grid, math.inf)), len(grid)
    if not swept.kept[n]:
        raise PostselectionVanishes("post-selection probability vanishes as tau -> infinity")
    trace = replace(swept, tau_grid=swept.tau_grid[:n], values=swept.values[:n],
                    postselection_probs=swept.postselection_probs[:n], kept=swept.kept[:n])
    return trace, complex(swept.values[n])


def sodium_anomalous() -> ScenarioResult:
    """Trace of the anomalous-pair weak value over 201 points of rate*tau in [0, 10].

    Asserts the two reference endpoints: 0.0954 + 0j at tau = 0 (tol 5e-4)
    and -0.346 + 0.151j in the infinite-time limit (tol 2e-3, the sweep's
    tau = inf row, not large-tau propagation).
    """
    setup, d, rate = _alkali_setup("anomalous")
    trace, wv_inf = _trace_and_limit(setup, d, np.linspace(0.0, 10.0, 201))
    wv0 = complex(trace.values[0])
    checks = {
        "re_at_zero": abs(wv0.real - SODIUM_WV_AT_ZERO) <= SODIUM_WV_AT_ZERO_TOL,
        "im_at_zero": abs(wv0.imag) <= SODIUM_WV_AT_ZERO_TOL,
        "re_at_inf": abs(wv_inf.real - SODIUM_WV_AT_INF.real) <= SODIUM_WV_AT_INF_TOL,
        "im_at_inf": abs(wv_inf.imag - SODIUM_WV_AT_INF.imag) <= SODIUM_WV_AT_INF_TOL,
    }
    if not all(checks.values()):
        raise ScenarioAssertionError(
            f"reference endpoints violated: wv(0)={wv0}, wv(inf)={wv_inf}, checks={checks}")
    verdict = {
        "characteristic_rate": rate,
        "wv_at_zero": [wv0.real, wv0.imag],
        "wv_at_infinity": [wv_inf.real, wv_inf.imag],
        "postselect_prob_at_zero": float(trace.postselection_probs[0]),
        "checks": checks,
    }
    return ScenarioResult(name="sodium-anomalous", trace=trace, verdict=verdict)


def sodium_constant() -> ScenarioResult:
    """Trace of the orthogonal constant pair over 401 points of rate*tau in [0, 40].

    The pair is orthogonal at tau = 0 (recorded as a gap); for every tau > 0
    the weak value exists and is the same complex number with nonzero
    imaginary part. Asserts spread(Re) and spread(Im) < 1e-6 on (0, 40] and
    agreement with the infinite-time limit (the projector value) to 1e-8.
    """
    setup, d, rate = _alkali_setup("constant")
    trace, wv_inf = _trace_and_limit(setup, d, np.linspace(0.0, 40.0, 401))
    if not trace.kept.any():
        raise ScenarioAssertionError("post-selection vanished over the whole grid")
    vals = trace.values[trace.kept]
    spread_re = float(vals.real.max() - vals.real.min())
    spread_im = float(vals.imag.max() - vals.imag.min())
    drift = float(np.abs(vals - wv_inf).max())
    checks = {
        "gap_at_zero": not trace.kept[0],
        "spread_re": spread_re < SODIUM_CONSTANT_SPREAD_TOL,
        "spread_im": spread_im < SODIUM_CONSTANT_SPREAD_TOL,
        "im_nonzero": float(np.abs(vals.imag).min()) > 1e-3,
        "matches_projector": drift <= 1e-8,
    }
    if not all(checks.values()):
        raise ScenarioAssertionError(
            f"constant-pair violations: spread=({spread_re:.3e}, {spread_im:.3e}), "
            f"drift={drift:.3e}, checks={checks}")
    verdict = {
        "characteristic_rate": rate,
        "value": [float(vals.real.mean()), float(vals.imag.mean())],
        "spread_re": spread_re,
        "spread_im": spread_im,
        "projector_value": [wv_inf.real, wv_inf.imag],
        "max_drift_from_projector": drift,
        "checks": checks,
    }
    return ScenarioResult(name="sodium-constant", trace=trace, verdict=verdict)


class GammaEstimate(NamedTuple):
    gamma_hat: float
    intercept: float
    residual_rms: float
    max_abs_residual: float
    rel_residual: float


class LambdaEstimate(NamedTuple):
    lambda_hat: float
    intercept: float
    residual_rms: float
    max_abs_residual: float
    rel_residual: float


class MarkovianityVerdict(NamedTuple):
    verdict: str
    linear_coeff: float
    quadratic_coeff: float
    linear_rel_residual: float
    quadratic_rel_residual: float


def _unpack_samples(samples, fewest: int) -> tuple[np.ndarray, np.ndarray]:
    """(taus, Re wv); DegenerateFit names the first sample that is not finite,
    then refuses fewer than fewest samples."""
    taus = np.array([float(t) for t, _ in samples])
    wv = np.array([complex(w) for _, w in samples])
    bad = np.flatnonzero(~(np.isfinite(taus) & np.isfinite(wv)))
    if len(bad):
        k = bad[0]
        raise DegenerateFit(f"sample {k} (tau={taus[k]}, wv={wv[k].item()}) is not finite")
    if len(taus) < fewest:
        raise DegenerateFit(f"need at least {fewest} samples")
    return taus, wv.real


def _fsum(v: np.ndarray) -> float:
    """math.fsum of v, one value for any order of its terms; inf where it refuses."""
    try:
        return math.fsum(v.tolist())
    except (OverflowError, ValueError):  # a sum past the float range, or inf - inf
        return math.inf


def _line(taus: np.ndarray, power: int, y: np.ndarray,
          intercept: bool) -> tuple[float, int, float, np.ndarray]:
    """(c, e, a, residuals a + c x - y) of the least-squares line y ~ a + c x in x = 2^e tau^power
    = (tau / 2^k)^power, 2^k just above max|tau|, so that x and the sums stay normal at any tau
    scale; a = 0 unless intercept: c = sum dx (y - ybar) / sum dx^2 and a = ybar - c xbar with
    dx = x - xbar, and xbar = ybar = 0 without an intercept."""
    k = math.frexp(float(np.abs(taus).max()))[1]
    x = np.ldexp(taus, -k) ** power
    if intercept and x.min() == x.max():
        raise DegenerateFit("need at least two distinct tau samples")
    xbar, ybar = (_fsum(x) / len(x), _fsum(y) / len(y)) if intercept else (0.0, 0.0)
    dx = x - xbar
    sxx = _fsum(dx * dx)
    c = _fsum(dx * (y - ybar)) / sxx if 0.0 < sxx < math.inf else math.nan
    if not math.isfinite(c):
        raise DegenerateFit("no finite fit: the tau samples need a finite, nonzero spread")
    a = ybar - c * xbar
    return c, -k * power, a, a + c * x - y


@np.errstate(all="ignore")
def _power_fit(samples, power: int, epsilon: float,
               per: float = 1.0) -> tuple[float, float, float, float, float]:
    """(epsilon c / per, a, residual_rms, max_abs_residual, rel_residual) of the least-squares
    fit of a + c*tau^power (power 1 or 2) to Re(wv), rel_residual relative to the norm of Re(wv).
    ValueError unless epsilon is finite and nonzero; DegenerateFit past the float range."""
    if not (math.isfinite(epsilon) and epsilon != 0.0):
        raise ValueError("epsilon must be finite and nonzero")
    taus, re = _unpack_samples(samples, 2)
    c, e, a, residuals = _line(taus, power, re, intercept=True)
    m, k = math.frexp(per)  # epsilon c 2^e / per, rounded once, to inf or 0 past the range
    estimate = float(np.ldexp(epsilon * c / m, e - k))
    if not math.isfinite(estimate) or (estimate == 0.0 and c != 0.0):
        raise DegenerateFit("the estimate is outside the float range")
    rnorm = math.sqrt(_fsum(residuals * residuals))
    return (estimate, a, rnorm / math.sqrt(len(re)), float(np.abs(residuals).max()),
            rnorm / max(math.sqrt(_fsum(re * re)), 1e-300))


def estimate_gamma(samples, epsilon: float) -> GammaEstimate:
    """Decay rate from the amplified linear growth of Re(wv) on a short grid.

    Re(wv) grows as tau*gamma/epsilon to first order; a least-squares line
    (with intercept, which absorbs the O(epsilon) offset of the exact value
    at tau = 0) recovers gamma = epsilon * slope. Expects the linear regime
    gamma*tau <~ 1e-2. ValueError unless epsilon is finite and nonzero.
    """
    return GammaEstimate(*_power_fit(samples, 1, epsilon))


def estimate_lambda(samples, epsilon: float, gamma0: float) -> LambdaEstimate:
    """Memory-kernel width from the quadratic short-time growth of Re(wv).

    Re(wv) grows as lam*gamma0*tau^2/(2 epsilon); fitting a + c*tau^2 gives
    lam = 2 epsilon c / gamma0. Expects the quadratic regime lam*tau <~ 1e-2;
    outside it the residual diagnostics blow up rather than the estimate
    silently degrading. ValueError unless epsilon is finite and nonzero and gamma0
    finite and > 0."""
    if not 0.0 < gamma0 < math.inf:
        raise ValueError("gamma0 must be finite and > 0")
    return LambdaEstimate(*_power_fit(samples, 2, epsilon, gamma0 / 2.0))


@np.errstate(all="ignore")
def classify_markovianity(samples) -> MarkovianityVerdict:
    """Linear-vs-quadratic discrimination of the short-time Re(wv) growth.

    If tau = 0 samples are present the mean of their real parts is subtracted
    (the exact offset); otherwise the data are assumed offset-corrected. Both
    one-parameter models c1*tau and c2*tau^2 are fitted; the verdict is the
    model whose relative residual is below CLASSIFY_RATIO times the other's,
    otherwise "inconclusive". A c1 or c2 past the float range is inf or 0.
    """
    taus, re = _unpack_samples(samples, 4)
    zero = np.flatnonzero(taus == 0.0)
    y = re - (_fsum(re[zero]) / len(zero) if len(zero) else 0.0)
    c1, e1, _, linear = _line(taus, 1, y, intercept=False)
    c2, e2, _, quadratic = _line(taus, 2, y, intercept=False)
    c1, c2 = float(np.ldexp(c1, e1)), float(np.ldexp(c2, e2))  # inf or 0 past the range
    ynorm = math.sqrt(_fsum(y * y))
    if ynorm < 1e-12 * len(y):
        return MarkovianityVerdict("inconclusive", c1, c2, 0.0, 0.0)
    r1 = math.sqrt(_fsum(linear * linear)) / ynorm
    r2 = math.sqrt(_fsum(quadratic * quadratic)) / ynorm
    if r1 < CLASSIFY_RATIO * r2:
        verdict = "Markovian"
    elif r2 < CLASSIFY_RATIO * r1:
        verdict = "strongly-non-Markovian"
    else:
        verdict = "inconclusive"
    return MarkovianityVerdict(verdict, c1, c2, r1, r2)


class ShortTimeChannel(NamedTuple):
    tau_rate: str           # taus = linspace(1e-3, 1e-2, 10) / params[tau_rate]
    params: dict            # the named channel's rates, which its verdicts report
    expected: str           # the classifier's verdict on its data


# The short-time protocol: the amplification states at EPSILON with
# A = sigma_x, one sigma_- channel, and ten points with rate*tau in [1e-3, 1e-2].
EPSILON = 0.01
SHORT_TIME_CHANNELS = {
    "amplitude_damping": ShortTimeChannel("gamma", {"gamma": 0.1}, "Markovian"),
    "nonmarkov_jc": ShortTimeChannel("lam", {"gamma0": 0.1, "lam": 1.0},
                                     "strongly-non-Markovian"),
}


def _short_time_data(channel: str, rng: np.random.Generator | None,
                     with_zero: bool) -> tuple[list, WeakValueTrace, dict]:
    """The protocol's exact weak values on a named channel, noised when rng is
    given and led by a tau = 0 sample when with_zero, and the verdict entries
    that every short-time scenario reports."""
    tau_rate, params, _ = SHORT_TIME_CHANNELS[channel]
    d, rate = named_channel(channel, params)
    rho_i, rho_f = epsilon_states(EPSILON)
    setup = WeakMeasurementSetup(sigma_i=rho_i, sigma_fI=rho_f, A_SI=SIGMA_X)
    taus = np.linspace(1e-3, 1e-2, 10) / params[tau_rate]
    trace = trace_over_tau(setup, d, np.concatenate([[0.0], taus]) if with_zero else taus)
    values = trace.values.copy()
    if rng is not None:
        # relative noise per quadrature: the real part of these samples is
        # orders of magnitude below the imaginary part, so scaling both by
        # the complex magnitude would drown the fitted signal
        values = values + NOISE_SIGMA * (
            values.real * rng.standard_normal(len(values))
            + 1j * values.imag * rng.standard_normal(len(values)))
        trace = replace(trace, values=values,
                        metadata={**trace.metadata, "noise_sigma": NOISE_SIGMA})
    samples = [(float(t), complex(v)) for t, v in zip(trace.tau_grid, values)]
    shared = {"characteristic_rate": rate, "epsilon": EPSILON, "noisy": rng is not None}
    return samples, trace, shared


def _fit_entries(est, rel_err: float) -> dict:
    """The fit diagnostics that both estimator verdicts report."""
    return {"relative_error": rel_err, "intercept": est.intercept,
            "residual_rms": est.residual_rms, "rel_residual": est.rel_residual}


def run_estimate_gamma(rng: np.random.Generator | None = None) -> ScenarioResult:
    """Recover the amplitude-damping rate from the protocol's data; asserts
    the estimate lands within 1% of the true rate."""
    gamma = SHORT_TIME_CHANNELS["amplitude_damping"].params["gamma"]
    samples, trace, verdict = _short_time_data("amplitude_damping", rng, with_zero=False)
    est = estimate_gamma(samples, EPSILON)
    rel_err = abs(est.gamma_hat - gamma) / gamma
    if rel_err >= 0.01:
        raise ScenarioAssertionError(
            f"gamma estimate {est.gamma_hat} misses true rate {gamma} by {rel_err:.2%}")
    verdict.update(gamma_true=gamma, gamma_hat=est.gamma_hat, **_fit_entries(est, rel_err))
    return ScenarioResult(name="estimate-gamma", trace=trace, verdict=verdict)


def run_estimate_lambda(rng: np.random.Generator | None = None) -> ScenarioResult:
    """Recover the memory-kernel width from the protocol's data; asserts the
    estimate lands within 2% of the true kernel width."""
    params = SHORT_TIME_CHANNELS["nonmarkov_jc"].params
    gamma0, lam = params["gamma0"], params["lam"]
    samples, trace, verdict = _short_time_data("nonmarkov_jc", rng, with_zero=False)
    est = estimate_lambda(samples, EPSILON, gamma0)
    rel_err = abs(est.lambda_hat - lam) / lam
    if rel_err >= 0.02:
        raise ScenarioAssertionError(
            f"lambda estimate {est.lambda_hat} misses true width {lam} by {rel_err:.2%}")
    verdict.update(lambda_true=lam, gamma0=gamma0, lambda_hat=est.lambda_hat,
                   **_fit_entries(est, rel_err))
    return ScenarioResult(name="estimate-lambda", trace=trace, verdict=verdict)


def run_classify(channel: str, rng: np.random.Generator | None = None) -> ScenarioResult:
    """Classify the protocol's data from a named channel; asserts the
    channel's verdict in SHORT_TIME_CHANNELS. A tau = 0 sample is included so
    the classifier subtracts the exact offset."""
    if channel not in SHORT_TIME_CHANNELS:
        raise ValueError(f"unknown channel for classification demo: {channel!r}")
    _, params, expected = SHORT_TIME_CHANNELS[channel]
    samples, trace, verdict = _short_time_data(channel, rng, with_zero=True)
    result = classify_markovianity(samples)
    if result.verdict != expected:
        raise ScenarioAssertionError(
            f"classifier returned {result.verdict!r} on {channel} data "
            f"(expected {expected!r}; residuals {result.linear_rel_residual:.3e} "
            f"vs {result.quadratic_rel_residual:.3e})")
    verdict.update(channel=channel, params=dict(params), expected=expected, **result._asdict())
    return ScenarioResult(name="classify", trace=trace, verdict=verdict)


# CLI name -> run(channel, rng); the order is the one the CLI help lists
SCENARIOS = {
    "sodium-anomalous": lambda channel, rng: sodium_anomalous(),
    "sodium-constant": lambda channel, rng: sodium_constant(),
    "estimate-gamma": lambda channel, rng: run_estimate_gamma(rng),
    "classify": lambda channel, rng: run_classify(channel or "nonmarkov_jc", rng),
    "estimate-lambda": lambda channel, rng: run_estimate_lambda(rng),
}


def run_scenario(name: str, channel: str | None = None,
                 seed: int | None = None) -> ScenarioResult:
    """Dispatch a scenario by CLI name. Raises KeyError for unknown names."""
    rng = np.random.default_rng(seed) if seed is not None else None
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}")
    return SCENARIOS[name](channel, rng)

