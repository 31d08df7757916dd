"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test prints an `ACCEPTANCE PASS` line on success; under `pytest -v` the
per-test PASSED/FAILED line doubles as the checklist entry.
"""

import time

import numpy as np
from scipy.linalg import expm

import oracles as orc
from test_lindblad import random_setup
from test_meter import _jc_case, _rabi_case
from weaklind import (
    Dissipator,
    NonMarkovJC,
    SIGMA_MINUS,
    WeakMeasurementSetup,
    bloch_to_density,
    classify_markovianity,
    epsilon_states,
    evolve,
    invert_weak_value,
    nonmarkov_big_gamma,
    pauli,
    rabi_shifts_number_state,
    run_scenario,
    weak_value_dissipative,
)

SODIUM_WV_AT_ZERO = 0.0954 + 0.0j
SODIUM_WV_AT_INFINITY = -0.346 + 0.151j


def _passed(num: int, detail: str) -> None:
    print(f"ACCEPTANCE PASS criterion {num}: {detail}")


def _damping(gamma: float):
    return Dissipator([SIGMA_MINUS], [gamma])


def test_criterion_01_sodium_anomalous_endpoints():
    t0 = time.perf_counter()
    result = run_scenario("sodium-anomalous")
    elapsed = time.perf_counter() - t0
    wv0 = complex(*result.verdict["wv_at_zero"])
    wv_inf = complex(*result.verdict["wv_at_infinity"])
    assert abs(wv0 - SODIUM_WV_AT_ZERO) < 5e-4, wv0
    assert abs(wv_inf - SODIUM_WV_AT_INFINITY) < 2e-3, wv_inf
    assert elapsed < 5.0, elapsed
    _passed(1, f"endpoints {wv0:.4f} / {wv_inf:.4f} in {elapsed:.2f}s")


def test_criterion_02_sodium_constant_weak_value():
    result = run_scenario("sodium-constant")
    v = result.verdict
    assert v["spread_re"] < 1e-6, v["spread_re"]
    assert v["spread_im"] < 1e-6, v["spread_im"]
    assert abs(v["value"][1]) > 1e-3          # imaginary part genuinely nonzero
    grid = result.trace.tau_grid
    assert grid[0] == 0.0 and grid[-1] == 40.0
    _passed(2, f"spreads ({v['spread_re']:.2e}, {v['spread_im']:.2e}), "
               f"Im = {v['value'][1]:.4f}")


def test_criterion_03_nondegenerate_infinite_time_limit():
    rng = np.random.default_rng(2026)
    worst = 0.0
    checked = 0
    while checked < 50:
        sigma_i = orc.random_density(rng, 2)
        sigma_fI = orc.random_density(rng, 2)
        H = orc.random_hermitian(rng, 2)
        A = H / np.linalg.norm(H, 2)
        if sigma_fI[1, 1].real < 0.1:   # the limit presumes live post-selection
            continue
        gamma = float(rng.uniform(0.2, 2.0))
        setup = WeakMeasurementSetup(sigma_i=sigma_i, sigma_fI=sigma_fI, A_SI=A)
        wv = weak_value_dissipative(setup, _damping(gamma), 30.0 / gamma).value
        dev = abs(wv - np.trace(A @ sigma_i))
        assert dev < 1e-6, dev
        worst = max(worst, dev)
        checked += 1
    _passed(3, f"50 setups at gamma*tau = 30, worst |wv - Tr[A sigma_i]| = {worst:.2e}")


def test_criterion_04_damping_closed_form_vs_superoperator_exponential():
    rng = np.random.default_rng(7)
    gamma = 0.8
    d = _damping(gamma)
    M = orc.superop_row([(np.array([[0, 0], [1, 0]], dtype=complex), gamma)], 2)
    worst = 0.0
    for _ in range(100):
        C = orc.random_matrix(rng, 2)
        for gtau in (0.1, 1.0, 10.0):
            tau = gtau / gamma
            want = orc.unvec_row(expm(M * tau) @ orc.vec_row(C), 2)
            got = evolve(d, C, tau)
            dev = np.abs(got - want).max()
            assert dev < 1e-10, (gtau, dev)
            worst = max(worst, dev)
    _passed(4, f"100 matrices x gamma*tau in {{0.1, 1, 10}}, worst {worst:.2e}")


def test_criterion_05_bloch_formula_vs_trace_formula():
    rng = np.random.default_rng(11)
    worst = 0.0
    checked = 0
    while checked < 500:
        use_pm = checked % 5 == 4          # every fifth draw: sigma_plus/minus
        complex_m = checked % 5 == 3
        i_vec = rng.standard_normal(3)
        i_vec *= rng.uniform(0.1, 0.95) / np.linalg.norm(i_vec)
        f_vec = rng.standard_normal(3)
        f_vec *= rng.uniform(0.1, 0.95) / np.linalg.norm(f_vec)
        gamma = float(rng.uniform(0.1, 2.0))
        tau = float(rng.uniform(0.0, 5.0)) / gamma
        if use_pm:
            sign = "+" if checked % 2 else "-"
            a, b = 0.0, 1.0
            m_vec = np.array([0.5, 0.5j if sign == "+" else -0.5j, 0.0])
        else:
            a, b = float(rng.standard_normal()), float(rng.standard_normal())
            m_vec = rng.standard_normal(3).astype(complex)
            if complex_m:
                m_vec = m_vec + 1j * rng.standard_normal(3)
        got = orc.weak_value_bloch(i_vec, f_vec, a, b, m_vec, gamma, tau)
        A = a * np.eye(2) + b * sum(m_vec[k] * pauli("xyz"[k]) for k in range(3))
        setup = WeakMeasurementSetup(sigma_i=bloch_to_density(i_vec),
                                     sigma_fI=bloch_to_density(f_vec), A_SI=A)
        sample = weak_value_dissipative(setup, _damping(gamma), tau)
        if sample.probability < 1e-2:
            continue
        dev = abs(got - sample.value) / max(1.0, abs(sample.value))
        assert dev < 1e-9, (checked, dev)
        worst = max(worst, dev)
        checked += 1
    _passed(5, f"500 draws (real, complex and ladder m), worst rel dev {worst:.2e}")


def test_criterion_06_markov_short_time_law_and_slope():
    eps, gamma = 0.01, 1.0
    rho_i, rho_f = epsilon_states(eps)
    setup = WeakMeasurementSetup(sigma_i=rho_i, sigma_fI=rho_f, A_SI=pauli("x"))
    d = _damping(gamma)
    worst = 0.0
    for gtau in np.geomspace(1e-4, 1e-2, 7):
        exact = weak_value_dissipative(setup, d, float(gtau) / gamma).value
        law = orc.markov_short_time_wv(gamma, float(gtau) / gamma, eps)
        rel = abs(exact - law) / abs(exact)
        assert rel < 0.01, (gtau, rel)
        worst = max(worst, rel)
    result = run_scenario("estimate-gamma")
    assert result.verdict["relative_error"] < 0.01, result.verdict
    _passed(6, f"law worst rel err {worst:.2e}; fitted gamma off by "
               f"{result.verdict['relative_error']:.2e}")


def test_criterion_07_quadratic_law_exponent_and_classifier_grid():
    # remainder of the quadratic law is third order once the tau = 0 offset
    # (an O(eps) state-normalization artifact) is calibrated out
    gamma0, lam, eps = 0.1, 1.0, 0.01
    d = NonMarkovJC(gamma0=gamma0, lam=lam)
    rho_i, rho_f = epsilon_states(eps)
    setup = WeakMeasurementSetup(sigma_i=rho_i, sigma_fI=rho_f, A_SI=pauli("x"))
    delta0 = (weak_value_dissipative(setup, d, 0.0).value
              - orc.nonmarkov_short_time_wv(gamma0, lam, 0.0, eps))
    taus = np.geomspace(3e-3, 3e-2, 9)
    errs = []
    for tau in taus:
        exact = weak_value_dissipative(setup, d, float(tau)).value
        law = orc.nonmarkov_short_time_wv(gamma0, lam, float(tau), eps)
        errs.append(abs((exact - law) - delta0))
    slope = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    assert 2.7 < slope < 3.3, slope

    # classifier: 3 x 3 grid per family, one decade in each direction
    grid_taus = np.linspace(1e-3, 1e-2, 8)
    for rate in np.geomspace(0.05, 0.5, 3):
        for e in np.geomspace(0.005, 0.05, 3):
            samples = [(0.0, orc.markov_short_time_wv(rate, 0.0, e))]
            samples += [(t / rate, orc.markov_short_time_wv(rate, t / rate, e))
                        for t in grid_taus]
            assert classify_markovianity(samples).verdict == "Markovian", (rate, e)
    for g0 in np.geomspace(0.05, 0.5, 3):
        lam_k = 10.0 * g0
        for e in np.geomspace(0.005, 0.05, 3):
            samples = [(0.0, orc.nonmarkov_short_time_wv(g0, lam_k, 0.0, e))]
            samples += [(t / lam_k, orc.nonmarkov_short_time_wv(g0, lam_k, t / lam_k, e))
                        for t in grid_taus]
            got = classify_markovianity(samples).verdict
            assert got == "strongly-non-Markovian", (g0, e, got)
    _passed(7, f"log-log exponent {slope:.3f}; 2 x 9 grid classified correctly")


def test_criterion_08_memory_kernel_channel_certification():
    rng = np.random.default_rng(5)
    rho = orc.random_density(rng, 2)
    gamma0 = 1.0
    for lam in (10.0, 0.5):
        taus = np.linspace(0.0, 5.0, 26) / gamma0
        gamma_ode = orc.big_gamma_ode(taus, gamma0, lam)
        d = NonMarkovJC(gamma0=gamma0, lam=lam)
        for tau, g_ref in zip(taus, gamma_ode):
            assert abs(nonmarkov_big_gamma(d, float(tau)) - g_ref) < 1e-7
            want = orc.nonmarkov_apply_ode(rho, gamma0, lam, float(tau))
            got = evolve(d, rho, float(tau))
            assert np.abs(got - want).max() < 1e-7, (lam, tau)
    _passed(8, "closed-form envelope and channel match the integrated master "
               "equation to 1e-7 for lam/gamma0 in {10, 0.5}")


def test_criterion_09_meter_shift_error_is_second_order_in_coupling():
    ratios = []
    for n in (0, 1):
        errs = [_rabi_case(n, gt / 0.9) for gt in (1e-2, 1e-3)]
        ratios.append(errs[0] / errs[1])
    for kind, n in (("vacuum", 0.0), ("thermal", 0.4)):
        errs = [_jc_case(kind, n, gt / 0.9) for gt in (1e-2, 1e-3)]
        ratios.append(errs[0] / errs[1])
    for ratio in ratios:
        assert 80.0 < ratio < 120.0, ratios
    _passed(9, "gt 1e-2 -> 1e-3 shrinks the joint-simulation disagreement by "
               + ", ".join(f"{r:.1f}x" for r in ratios))


def test_criterion_10_inversion_round_trip():
    omega_f, g = 1.3, 0.01
    wv = 1.7 - 0.9j
    worst = 0.0
    for n in (0, 1, 5):
        for t, tau in ((0.9, 0.4), (1.4, 1.1)):    # two phase settings
            q, p = rabi_shifts_number_state(n, wv, g, t, tau, omega_f)
            got = invert_weak_value(n, q, p, "rabi", g, t, tau, omega_f, 0.0)
            dev = abs(got - wv)
            assert dev < 1e-10, (n, t, tau, dev)
            worst = max(worst, dev)
    _passed(10, f"n in {{0, 1, 5}} x two phases, worst recovery error {worst:.2e}")


def test_criterion_11_structural_property_suite():
    # trace preservation
    for seed in range(100):
        rng, dim, d = random_setup(seed)
        rho = orc.random_density(rng, dim)
        tau = float(rng.uniform(0.0, 3.0))
        out = evolve(d, rho, tau)
        assert abs(np.trace(out) - 1.0) < 1e-10

    # dagger commutation: evolving the adjoint equals adjoint of the evolved
    for seed in range(100, 200):
        rng, dim, d = random_setup(seed)
        C = orc.random_matrix(rng, dim)
        tau = float(rng.uniform(0.0, 3.0))
        lhs = evolve(d, C.conj().T, tau)
        rhs = evolve(d, C, tau).conj().T
        assert np.abs(lhs - rhs).max() < 1e-10

    # semigroup law for constant rates
    for seed in range(200, 300):
        rng, dim, d = random_setup(seed)
        C = orc.random_matrix(rng, dim)
        t1, t2 = rng.uniform(0.1, 2.0, size=2)
        lhs = evolve(d, evolve(d, C, float(t1)), float(t2))
        rhs = evolve(d, C, float(t1 + t2))
        assert np.abs(lhs - rhs).max() < 1e-9

    # weak-value linearity in the observable, and identity normalization
    for seed in range(300, 400):
        rng, dim, d = random_setup(seed)
        sigma_i = orc.random_density(rng, dim)
        sigma_fI = orc.random_density(rng, dim)
        tau = float(rng.uniform(0.0, 2.0))
        A, B = orc.random_matrix(rng, dim), orc.random_matrix(rng, dim)
        al, be = (complex(*rng.standard_normal(2)) for _ in range(2))

        def wv(op):
            return weak_value_dissipative(
                WeakMeasurementSetup(sigma_i=sigma_i, sigma_fI=sigma_fI, A_SI=op),
                d, tau).value

        combo = wv(al * A + be * B)
        parts = al * wv(A) + be * wv(B)
        assert abs(combo - parts) < 1e-12 * max(1.0, abs(combo))
        ident = wv(np.eye(dim, dtype=complex))
        assert abs(ident - 1.0) < 1e-12

    _passed(11, "trace, dagger, semigroup, linearity and normalization hold "
                "over 100 randomized draws each")
