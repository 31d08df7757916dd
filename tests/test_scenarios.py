"""Bundled demonstration scenarios and rate estimators."""

import time
import warnings

import numpy as np
import pytest

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
    run_scenario,
    sodium_anomalous,
    sodium_constant,
    weak_value_dissipative,
)
from weaklind.errors import DegenerateFit
from weaklind.scenarios import (
    SCENARIOS,
    SODIUM_WV_AT_INF,
    SODIUM_WV_AT_ZERO,
    run_classify,
    run_estimate_gamma,
    run_estimate_lambda,
)


def test_sodium_anomalous_scenario():
    start = time.perf_counter()
    result = sodium_anomalous()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    v = result.verdict
    wv0 = complex(v["wv_at_zero"][0], v["wv_at_zero"][1])
    wvinf = complex(v["wv_at_infinity"][0], v["wv_at_infinity"][1])
    assert abs(wv0 - SODIUM_WV_AT_ZERO) < 5e-4
    assert abs(wvinf - SODIUM_WV_AT_INF) < 2e-3
    assert v["characteristic_rate"] == 1.0
    assert 0.0 < v["postselect_prob_at_zero"] < 1.0
    assert not result.trace.gaps
    assert all(v["checks"].values())


def test_sodium_constant_scenario():
    result = sodium_constant()
    v = result.verdict
    assert v["spread_re"] < 1e-6 and v["spread_im"] < 1e-6
    assert abs(v["value"][1]) > 1e-3          # genuinely complex plateau
    assert v["checks"]["matches_projector"]
    assert result.trace.gaps == (0,)          # ground-manifold post-selection
    finite = [x for k, x in enumerate(result.trace.values)
              if k not in result.trace.gaps]
    assert np.isfinite(finite).all()


def test_estimate_gamma_on_synthetic_line():
    # exact linear data must be recovered to machine precision
    eps, gamma = 0.02, 0.37
    taus = np.linspace(0.001, 0.01, 8) / gamma
    samples = [(t, complex(gamma * t / eps - 0.007, 3.0)) for t in taus]
    est = estimate_gamma(samples, eps)
    assert abs(est.gamma_hat - gamma) < 1e-12
    assert abs(est.intercept + 0.007) < 1e-12
    assert est.residual_rms < 1e-14


def test_estimate_gamma_on_exact_channel():
    result = run_estimate_gamma()
    v = result.verdict
    assert v["relative_error"] < 0.01
    assert not v["noisy"]


def test_estimate_gamma_epsilon_sweep_variant():
    # fixed tau, sweep the pointer parameter: Re(wv) ~ gamma*tau/eps, so a
    # fit against 1/eps recovers gamma from the slope; eps must stay small
    # enough that the un-amplified O(eps) background does not bend the line
    gamma = 0.25
    tau = 0.01 / gamma
    d = Dissipator([SIGMA_MINUS], [gamma])
    inv_eps, re = [], []
    for eps in (0.004, 0.008, 0.012, 0.016):
        rho_i, rho_f = epsilon_states(eps)
        setup = WeakMeasurementSetup(sigma_i=rho_i, sigma_fI=rho_f, A_SI=pauli("x"))
        wv = weak_value_dissipative(setup, d, tau).value
        inv_eps.append(1.0 / eps)
        re.append(wv.real)
    coef = np.polyfit(inv_eps, re, 1)
    gamma_hat = coef[0] / tau
    assert abs(gamma_hat - gamma) / gamma < 0.01


def test_estimate_gamma_degenerate_grids():
    with pytest.raises(DegenerateFit):
        estimate_gamma([(0.1, 1.0 + 0j)], 0.01)
    with pytest.raises(DegenerateFit):
        estimate_gamma([(0.1, 1.0 + 0j), (0.1, 1.1 + 0j)], 0.01)
    # three equal tau: fsum / 3 lands one ulp off 0.1, so each dx is a nonzero -2^-56
    same_tau = [(0.1, 1.0 + 0j), (0.1, 2.0 + 0j), (0.1, 3.5 + 0j)]
    with pytest.raises(DegenerateFit, match="two distinct tau samples"):
        estimate_gamma(same_tau, 0.01)
    with pytest.raises(DegenerateFit, match="two distinct tau samples"):
        estimate_lambda(same_tau, 0.01, 0.1)


def test_estimate_gamma_refuses_values_whose_sum_overflows():
    # fsum of the Re(wv) overflows, so the mean is inf and the slope not finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFit, match="no finite fit"):
            estimate_gamma([(0.1, 1e308), (0.2, 1e308), (0.3, 1e308)], 0.01)


@pytest.mark.parametrize("fit", [
    lambda s: estimate_gamma(s, 0.01),
    lambda s: estimate_lambda(s, 0.01, 0.1),
    classify_markovianity,
], ids=["estimate_gamma", "estimate_lambda", "classify_markovianity"])
@pytest.mark.parametrize("bad", [(0.02, complex(float("nan"), 1.0)), (float("nan"), 2.0 + 1j),
                                 (float("inf"), 2.0 + 1j)], ids=["nan-wv", "nan-tau", "inf-tau"])
def test_fits_refuse_a_non_finite_sample(fit, bad, capfd):
    samples = [(0.01, 1.0 + 1j), bad, (0.03, 3.0 + 1j), (0.04, 4.0 + 1j), (0.05, 5.0 + 1j)]
    with pytest.raises(DegenerateFit, match=r"sample 1 \(.*\) is not finite"):
        fit(samples)
    # refused before any sum sees it, with nothing printed
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_estimators_refuse_an_epsilon_that_is_not_finite_and_nonzero(epsilon):
    samples = [(0.01, 1.0 + 0j), (0.02, 2.0 + 0j), (0.03, 3.5 + 0j)]
    with pytest.raises(ValueError, match="epsilon must be finite and nonzero"):
        estimate_gamma(samples, epsilon)
    with pytest.raises(ValueError, match="epsilon must be finite and nonzero"):
        estimate_lambda(samples, epsilon, 0.1)


@pytest.mark.parametrize("gamma0", [float("nan"), float("inf"), 0.0, -0.1])
def test_estimate_lambda_refuses_a_gamma0_that_is_not_finite_and_positive(gamma0):
    samples = [(0.01, 1.0 + 0j), (0.02, 2.0 + 0j), (0.03, 3.5 + 0j)]
    with pytest.raises(ValueError, match="gamma0 must be finite and > 0"):
        estimate_lambda(samples, 0.01, gamma0)


# tau^2 overflows at every sample, and Re(wv) = tau / 1e200
OVERFLOWING_SQUARES = [(k * 1e200, complex(k, 1.0)) for k in range(1, 7)]


@pytest.mark.parametrize("fit", [
    lambda s: estimate_lambda(s, 0.01, 0.1),
], ids=["estimate_lambda"])
def test_fits_refuse_a_tau_grid_whose_square_overflows_without_a_warning(fit):
    # the fit runs at unit tau scale, but lam ~ 1e-400 is below the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFit, match="the estimate is outside the float range"):
            fit(OVERFLOWING_SQUARES)


def test_classify_takes_a_tau_grid_whose_square_overflows_without_a_warning():
    # the verdict stands; the tau^2 coefficient ~ 1e-400 rounds to 0 as one IEEE
    # operation would
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = classify_markovianity(OVERFLOWING_SQUARES)
    assert got.verdict == "Markovian"
    assert abs(got.linear_coeff * 1e200 - 1.0) < 1e-15
    assert got.quadratic_coeff == 0.0


# tau = 0, 0.001, ..., 0.01 with a linear and a quadratic term and a fixed ripple
FIT_SAMPLES = [(t, complex(0.25 + 3.0 * t + 40.0 * (t * t) + ((7 * k) % 5 - 2) * 1e-5, 1.0))
               for k, t in enumerate(k / 1000.0 for k in range(11))]


@pytest.mark.pinned
def test_fit_bits_are_pinned():
    # every sum is a math.fsum and every other step one IEEE operation, so these
    # bits do not depend on the BLAS core or the SIMD target
    fits = {
        "gamma": (estimate_gamma(FIT_SAMPLES[1:], 0.01),
                  ["0x1.19b49bd8ba61bp-5", "0x1.fe361f2f289aep-3", "0x1.2faac71921466p-12",
                   "0x1.f198d352e5400p-12", "0x1.1b09796d5a8b7p-10"]),
        "lambda": (estimate_lambda(FIT_SAMPLES[1:], 0.01, 0.1),
                   ["0x1.de42910b24a5ap+5", "0x1.06b04a40085aap-2", "0x1.fa71573955e3ap-10",
                    "0x1.f0dd7dd17af00p-9", "0x1.d80969d46c1ebp-8"]),
        "classify": (classify_markovianity(FIT_SAMPLES),
                     ["inconclusive", "0x1.a88fa03fd5720p+1", "0x1.8e7c27a750a70p+8",
                      "0x1.85d047c80a07bp-6", "0x1.cdbc885b54ce6p-3"]),
    }
    for name, (got, want) in fits.items():
        assert [x.hex() if isinstance(x, float) else x for x in got] == want, name


def test_estimate_lambda_on_synthetic_parabola():
    eps, gamma0, lam = 0.01, 0.2, 1.5
    taus = np.linspace(0.001, 0.01, 8) / lam
    samples = [(t, complex(lam * gamma0 * t * t / (2 * eps) + 0.003, -1.0))
               for t in taus]
    est = estimate_lambda(samples, eps, gamma0)
    assert abs(est.lambda_hat - lam) < 1e-10
    assert abs(est.intercept - 0.003) < 1e-12


def test_estimate_lambda_on_exact_channel():
    result = run_estimate_lambda()
    assert result.verdict["relative_error"] < 0.02
    with pytest.raises(ValueError):
        estimate_lambda([(0.1, 0j), (0.2, 0j)], 0.01, gamma0=0.0)


def test_estimate_lambda_flags_wrong_regime():
    # data far outside the quadratic window: the residual diagnostics blow
    # up instead of silently returning a plausible-looking number
    eps, gamma0, lam = 0.01, 0.1, 1.0
    d = NonMarkovJC(gamma0=gamma0, lam=lam)
    rho_i, rho_f = epsilon_states(eps)
    setup = WeakMeasurementSetup(sigma_i=rho_i, sigma_fI=rho_f, A_SI=pauli("x"))
    taus = np.linspace(0.5, 3.0, 8) / lam
    samples = [(t, weak_value_dissipative(setup, d, t).value) for t in taus]
    est = estimate_lambda(samples, eps, gamma0)
    assert est.rel_residual > 0.01


def test_classifier_on_clean_power_laws():
    taus = np.linspace(0.0, 0.01, 11)
    lin = [(t, complex(3.0 * t, 5.0)) for t in taus]
    quad = [(t, complex(40.0 * t * t, 5.0)) for t in taus]
    assert classify_markovianity(lin).verdict == "Markovian"
    assert classify_markovianity(quad).verdict == "strongly-non-Markovian"
    flat = [(t, complex(0.0, 0.0)) for t in taus]
    assert classify_markovianity(flat).verdict == "inconclusive"
    with pytest.raises(DegenerateFit):
        classify_markovianity(lin[:3])


def test_classifier_on_exact_channels():
    markov = run_classify(channel="amplitude_damping")
    assert markov.verdict["verdict"] == "Markovian"
    nonmark = run_classify(channel="nonmarkov_jc")
    assert nonmark.verdict["verdict"] == "strongly-non-Markovian"
    # the two fits are decisively separated in both directions
    assert markov.verdict["linear_rel_residual"] < 0.1 * markov.verdict["quadratic_rel_residual"]
    assert nonmark.verdict["quadratic_rel_residual"] < 0.1 * nonmark.verdict["linear_rel_residual"]
    with pytest.raises(ValueError):
        run_classify(channel="bogus")


def test_run_scenario_dispatch_and_seeding():
    assert set(SCENARIOS) == {"sodium-anomalous", "sodium-constant",
                                   "estimate-gamma", "classify", "estimate-lambda"}
    with pytest.raises(KeyError):
        run_scenario("sodium")
    clean = run_scenario("estimate-gamma")
    seeded_a = run_scenario("estimate-gamma", seed=42)
    seeded_b = run_scenario("estimate-gamma", seed=42)
    assert seeded_a.verdict["noisy"] and not clean.verdict["noisy"]
    assert seeded_a.verdict["gamma_hat"] == seeded_b.verdict["gamma_hat"]
    assert seeded_a.verdict["gamma_hat"] != clean.verdict["gamma_hat"]
    assert seeded_a.trace.metadata["noise_sigma"] == 1e-4
    # noise is gentle enough that the scenario assertion still holds
    assert seeded_a.verdict["relative_error"] < 0.01
