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

The constant-rate sweep (traces_over_tau) is compared with mpmath.expm at
40 digits, one connected block of the generator's nonzero pattern at a time
(exp of a block-diagonal matrix is the block-diagonal of the exps), on random
2- and 3-level dissipators, the six-level sodium channel and the equal-rate
cascade, whose defective generator takes the expm fallback. The error is
relative to |F| |C_j| (Frobenius norms), which bounds a trace times
|exp(tau M)|; the eigen path is pinned at c cond(V) eps, cond(V) <= 1e4.

The infinite-time limit, the tau = inf row of traces_over_tau, is compared
in the same norm with exp(T M) at 40 digits and T = 128/gap, where every
decaying mode is below e^-128. M is formed there from the jumps' and
rates' binary values in 40-digit arithmetic, which keeps vec(I) an exact
left null vector: the double M has a kernel eigenvalue only zero to
roundoff, which exp(T M) would decay. The cases are sodium, damping and the
equal-rate cascade (the SVD fallback) at rates 1e-12, 1 and 1e10.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import oracles as orc
from test_lindblad import equal_rate_cascade, random_setup
from weaklind import Dissipator, NonMarkovJC, lindblad, nonmarkov_big_gamma

pytestmark = pytest.mark.pinned

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


EPS = np.finfo(float).eps
SWEEP_TAUS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)  # each twice the one before: one squaring


def exact_traces(M, F, operands, taus, dps=40):
    """Tr[F exp(tau M)(C_j)] at dps digits for taus that double from the first:
    one mpmath.expm per block of M's nonzero pattern, then a squaring per tau."""
    n_blocks, label = connected_components(M != 0, directed=False)
    with mpmath.workdps(dps):
        blocks = []
        for b in range(n_blocks):
            idx = np.flatnonzero(label == b)
            blocks.append((idx, mpmath.expm(taus[0] * mpmath.matrix(M[np.ix_(idx, idx)].tolist()))))
        r = lindblad._vec(F.T)
        X = np.array([lindblad._vec(C) for C in operands]).T
        rows = []
        for k in range(len(taus)):
            if k:
                blocks = [(idx, E * E) for idx, E in blocks]
            row = [mpmath.mpc(0)] * X.shape[1]
            for idx, E in blocks:
                rE = mpmath.matrix([r[idx].tolist()]) * E
                for j in range(X.shape[1]):
                    row[j] += (rE * mpmath.matrix(X[idx, j].tolist()))[0]
            rows.append([complex(x) for x in row])
    return np.array(rows)


def sweep_error(d, rng):
    """max over the taus and operands of |traces_over_tau - exact| / (|F| |C_j|)."""
    F = orc.random_matrix(rng, d.dim)
    operands = [orc.random_matrix(rng, d.dim) for _ in range(2)]
    got = lindblad.traces_over_tau(d, F, operands, SWEEP_TAUS)
    err = np.abs(got - exact_traces(d.superoperator, F, operands, SWEEP_TAUS))
    return float((err / (np.linalg.norm(F) * np.linalg.norm(operands, axis=(1, 2)))).max())


def eigen_condition(d):
    return float(np.linalg.cond(np.linalg.eig(d.superoperator)[1]))


@pytest.mark.parametrize("dim", [2, 3])
def test_eigen_sweep_error_is_within_cond_v_eps(dim):
    rng = np.random.default_rng(40 + dim)
    for _ in range(12):
        d = random_setup(int(rng.integers(10**6)), dim)[2]
        cond = eigen_condition(d)
        assert cond <= lindblad._EIG_COND_MAX  # the eigen path, not the fallback
        assert sweep_error(d, rng) <= 64 * cond * EPS


def test_sodium_sweep_error_is_within_cond_v_eps():
    d = lindblad.named_channel("sodium", {"rate": 1.0})[0]
    assert sweep_error(d, np.random.default_rng(11)) <= 64 * eigen_condition(d) * EPS


def test_expm_fallback_error_on_the_defective_cascade():
    d = equal_rate_cascade()
    X = np.eye(d.dim ** 2)
    assert lindblad._eigen_traces(X[0], X, d.superoperator, np.array(SWEEP_TAUS)) is None
    assert sweep_error(d, np.random.default_rng(12)) <= 16 * EPS


def exact_superoperator(d):
    """d's superoperator as a numpy object array of 40-digit mpmath numbers,
    in the column stacking of lindblad._superoperator_matrix."""
    eye = np.eye(d.dim, dtype=object)
    M = np.zeros((d.dim ** 2, d.dim ** 2), dtype=object)
    for jump, rate in zip(d.jumps, d.rates):
        L = np.array([[mpmath.mpc(z.real, z.imag) for z in row] for row in jump.tolist()],
                     dtype=object)
        LdL = L.conj().T @ L
        M = M + mpmath.mpf(rate) * (np.kron(L.conj(), L)
                                    - (np.kron(eye, LdL) + np.kron(LdL.T, eye)) / 2)
    return M


def exact_limit_traces(d, F, operands, dps=40):
    """Tr[F exp(T M)(C_j)] at dps digits and T = 128/gap, gap the slowest decay
    rate: one mpmath.expm at T/32 per block of M's nonzero pattern, squared 5 times."""
    lam = np.linalg.eigvals(d.superoperator)
    gap = min(-x.real for x in lam if abs(x) > 1e-9 * np.abs(lam).max())
    r = lindblad._vec(F.T)
    X = np.array([lindblad._vec(C) for C in operands]).T
    with mpmath.workdps(dps):
        M = exact_superoperator(d)
        n_blocks, label = connected_components((M != 0).astype(bool), directed=False)
        row = [mpmath.mpc(0)] * X.shape[1]
        for b in range(n_blocks):
            idx = np.flatnonzero(label == b)
            E = mpmath.expm(mpmath.mpf(4.0 / gap) * mpmath.matrix(M[np.ix_(idx, idx)].tolist()))
            for _ in range(5):
                E = E * E
            rE = mpmath.matrix([r[idx].tolist()]) * E
            for j in range(X.shape[1]):
                row[j] += (rE * mpmath.matrix(X[idx, j].tolist()))[0]
        return np.array([complex(x) for x in row])


LIMIT_CHANNELS = {
    "sodium": lambda rate: lindblad.named_channel("sodium", {"rate": rate})[0],
    "damping": lambda rate: lindblad.named_channel("amplitude_damping", {"gamma": rate})[0],
    "cascade": lambda rate: Dissipator(equal_rate_cascade().jumps, [rate] * 2),
}


@pytest.mark.parametrize("rate", [1e-12, 1.0, 1e10])
@pytest.mark.parametrize("name", LIMIT_CHANNELS)
def test_limit_matches_40_digit_far_exponential(name, rate):
    d = LIMIT_CHANNELS[name](rate)
    rng = np.random.default_rng(sum(map(ord, name)))
    F = orc.random_matrix(rng, d.dim)
    operands = [orc.random_matrix(rng, d.dim) for _ in range(2)]
    err = np.abs(lindblad.traces_over_tau(d, F, operands, [math.inf])[0]
                 - exact_limit_traces(d, F, operands))
    err = float((err / (np.linalg.norm(F) * np.linalg.norm(operands, axis=(1, 2)))).max())
    cond = eigen_condition(d)
    # the cascade's V is numerically singular: the SVD fallback, like the expm one
    assert err <= (16 * EPS if name == "cascade" else 64 * cond * EPS)
    assert (cond > lindblad._EIG_COND_MAX) == (name == "cascade")
