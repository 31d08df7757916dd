"""Accuracy of the memory-kernel envelope against arbitrary precision.

nonmarkov_big_gamma(NonMarkovJC(gamma0, lam), tau) is compared with the
closed form e^{-lam tau/2} [cosh(d tau/2) + (lam/d) sinh(d tau/2)],
d = sqrt(lam^2 - 2 gamma0 lam) (the limit e^{-y} (1 + y), y = lam tau/2, at
d = 0), evaluated by mpmath at 60 digits from the exact binary inputs as
[e^{(d - lam) tau/2} (1 + lam/d) + e^{-(d + lam) tau/2} (1 - lam/d)] / 2 with
d - lam = -2 gamma0 lam/(d + lam): at lam ~ 1e308 the exponents of the first
form cancel in 308 of its digits. The cases cover weak, strong, critical and
near-critical coupling, both sides of the switch at d tau/2 = 20, lam near
1e308, and gamma0 and lam near 1e-300. |Gamma| <= 1, so the error is
absolute.
"""

import math

import mpmath
import numpy as np
import pytest

from weaklind import NonMarkovJC, nonmarkov_big_gamma

TOL = 1e-14
CASES_PER_REGIME = 150


def exact_big_gamma(gamma0: float, lam: float, tau: float) -> float:
    with mpmath.workdps(60):
        g, l, t = mpmath.mpf(gamma0), mpmath.mpf(lam), mpmath.mpf(tau)
        y = l * t / 2
        disc = l * l - 2 * g * l
        if disc == 0:
            return float(mpmath.exp(-y) * (1 + y))
        d = mpmath.sqrt(mpmath.mpc(disc))
        slow = mpmath.exp(-g * l * t / (d + l)) * (1 + l / d)
        fast = mpmath.exp(-(d + l) * t / 2) * (1 - l / d)
        return float(mpmath.re(slow + fast) / 2)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(lo, hi))


def _tau_at_phase(rng, gamma0: float, lam: float, x_lo: float, x_hi: float) -> float:
    """tau with |d| tau/2 uniform in [x_lo, x_hi] (lam tau/2 at critical coupling)."""
    d = abs(complex(lam * lam - 2.0 * gamma0 * lam) ** 0.5) or lam
    return float(2.0 * rng.uniform(x_lo, x_hi) / d)


def weak(rng):
    gamma0 = _log_uniform(rng, -3.0, 3.0)
    lam = gamma0 * _log_uniform(rng, math.log10(2.0) + 1e-3, 6.0)
    return gamma0, lam, _tau_at_phase(rng, gamma0, lam, 0.0, 40.0)


def strong(rng):
    gamma0 = _log_uniform(rng, -3.0, 3.0)
    lam = gamma0 * _log_uniform(rng, -3.0, math.log10(2.0) - 1e-3)
    return gamma0, lam, _tau_at_phase(rng, gamma0, lam, 0.0, 30.0)


def critical(rng):
    gamma0 = _log_uniform(rng, -3.0, 3.0)
    return gamma0, 2.0 * gamma0, _tau_at_phase(rng, gamma0, 2.0 * gamma0, 0.0, 60.0)


def near_critical(rng):
    gamma0 = _log_uniform(rng, -3.0, 3.0)
    lam = 2.0 * gamma0 * (1.0 + float(rng.choice([-1.0, 1.0])) * _log_uniform(rng, -15.0, -4.0))
    tau = float(2.0 * rng.uniform(0.0, 60.0) / lam)
    return gamma0, lam, tau


def at_the_switch(rng):
    # weak coupling with d tau/2 within 1e-6 of 20, or a few ulps from it
    gamma0 = _log_uniform(rng, -3.0, 3.0)
    lam = gamma0 * _log_uniform(rng, 0.5, 4.0)
    d = math.sqrt(lam * lam - 2.0 * gamma0 * lam)
    tau = 40.0 / d * (1.0 + rng.uniform(-1e-6, 1e-6))
    return gamma0, lam, float(np.nextafter(tau, np.inf) if rng.random() < 0.5 else tau)


def huge_lam(rng):
    # lam ~ 1e308: lam^2, gamma0 lam and d + lam overflow; Gamma ~ e^{-gamma0 tau/2}
    gamma0 = _log_uniform(rng, -3.0, 3.0)
    lam = float(rng.uniform(1e307, 1.7e308))
    return gamma0, lam, float(2.0 * rng.uniform(0.0, 60.0) / gamma0)


def tiny_rates(rng):
    # gamma0 and lam ~ 1e-300 in every coupling, with lam tau of order 1
    gamma0 = _log_uniform(rng, -300.0, -298.0)
    lam = gamma0 * _log_uniform(rng, -1.0, 1.0)
    return gamma0, lam, float(rng.uniform(0.0, 40.0) / max(gamma0, lam))


REGIMES = [weak, strong, critical, near_critical, at_the_switch, huge_lam, tiny_rates]


@pytest.mark.parametrize("regime", REGIMES, ids=[r.__name__ for r in REGIMES])
def test_envelope_matches_60_digit_closed_form(regime):
    rng = np.random.default_rng(sum(map(ord, regime.__name__)))
    worst, at = 0.0, None
    for _ in range(CASES_PER_REGIME):
        gamma0, lam, tau = regime(rng)
        err = abs(nonmarkov_big_gamma(NonMarkovJC(gamma0, lam), tau)
                  - exact_big_gamma(gamma0, lam, tau))
        if err > worst:
            worst, at = err, (gamma0, lam, tau)
    assert worst <= TOL, (worst, at)
