"""Independent reference implementations used only by the tests.

Everything here deliberately uses different conventions and algorithms than
the library: row-stacking vectorization instead of column-stacking, Kraus
maps instead of exponentiated generators, closed Bloch-vector formulas
and first-order short-time laws instead of traces, Radau integration of the
second-order envelope ODE instead of the closed hyperbolic form or the
regularized rate equation, large-time exponentials instead of spectral
projectors, and exact-unitary joint-state simulation instead of first-order
shift formulas. Agreement between the two stacks is then evidence, not a
tautology.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import block_diag, expm


# ---------------------------------------------------------------- channels

def vec_row(C: np.ndarray) -> np.ndarray:
    return np.asarray(C, dtype=complex).reshape(-1)


def unvec_row(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape(dim, dim)


def superop_row(channels, dim: int) -> np.ndarray:
    """Dissipator matrix in ROW-stacking convention: vec(ABC) = (A kron C^T) vec(B)."""
    eye = np.eye(dim)
    M = np.zeros((dim * dim, dim * dim), dtype=complex)
    for L, r in channels:
        L = np.asarray(L, dtype=complex)
        LdL = L.conj().T @ L
        M += r * (np.kron(L, L.conj())
                  - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T)))
    return M


def evolve_row(channels, dim: int, C: np.ndarray, tau: float) -> np.ndarray:
    return unvec_row(expm(superop_row(channels, dim) * tau) @ vec_row(C), dim)


def scalar_trace(F: np.ndarray, X: np.ndarray) -> complex:
    """Tr[F X] as the sum of the F_ab X_ba in Python complex scalars, (a, b)
    in row-major order and added left to right: the order of the library's
    trace sums, without numpy, for bit-for-bit comparisons."""
    F, X = np.asarray(F).tolist(), np.asarray(X).tolist()
    terms = [complex(F[a][b]) * complex(X[b][a]) for a in range(len(F)) for b in range(len(F))]
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


def kraus_damping(C: np.ndarray, gamma: float, tau: float) -> np.ndarray:
    """Amplitude damping as a two-element Kraus map, basis (|e>, |g>)."""
    p = 1.0 - np.exp(-gamma * tau)
    K0 = np.array([[np.sqrt(1.0 - p), 0.0], [0.0, 1.0]], dtype=complex)
    K1 = np.array([[0.0, 0.0], [np.sqrt(p), 0.0]], dtype=complex)
    C = np.asarray(C, dtype=complex)
    return K0 @ C @ K0.conj().T + K1 @ C @ K1.conj().T


def weak_value_row(sigma_i, sigma_fI, A, channels, dim: int, tau: float):
    """Trace-formula weak value through the row-stacking propagator."""
    num = np.trace(np.asarray(sigma_fI) @ evolve_row(channels, dim, A @ sigma_i, tau))
    den = np.trace(np.asarray(sigma_fI) @ evolve_row(channels, dim, sigma_i, tau))
    return num / den, den.real


def asymptotic_apply(channels, dim: int, C: np.ndarray) -> np.ndarray:
    """Infinite-time limit by brute-force large-time exponentiation.

    The propagation horizon is set from the spectral gap so the slowest
    decaying mode is suppressed below 1e-13; the result is verified stable
    under doubling the horizon.
    """
    M = superop_row(channels, dim)
    evs = np.linalg.eigvals(M)
    decaying = [-ev.real for ev in evs if abs(ev) > 1e-9]
    gap = min(decaying)
    T = 32.0 / gap
    P1 = expm(M * T)
    P2 = P1 @ P1
    out1 = unvec_row(P1 @ vec_row(C), dim)
    out2 = unvec_row(P2 @ vec_row(C), dim)
    if np.abs(out1 - out2).max() > 1e-11 * max(1.0, np.abs(out2).max()):
        raise AssertionError("large-time limit did not stabilize")
    return out2


# ------------------------------------------------- two-level closed forms

def weak_value_bloch(i_vec, f_vec, a: float, b: float, m_vec, gamma: float, tau: float):
    """Weak value of A = a*1 + b*(m.pauli) under amplitude damping, on Bloch vectors.

    Basis (|e>, |g>), r_z = +1 for |e>. Damping attenuates the post-selection
    vector to f_gamma = (f_x E, f_y E, f_z E^2) with E = exp(-gamma tau/2), and

        A_w = a + b [f_gamma.m + (i.m)(1 + f_gamma_z - f_z) + 1j f_gamma.(m x i)]
                  / [1 + f_gamma.i + (f_gamma_z - f_z)].

    m may be complex: m = (1, +-1j, 0)/2 with a = 0, b = 1 gives the raising
    and lowering operators. Dot and cross products do not conjugate.
    """
    i_vec, f_vec = np.asarray(i_vec, dtype=float), np.asarray(f_vec, dtype=float)
    m_vec = np.asarray(m_vec, dtype=complex)
    E = np.exp(-0.5 * gamma * tau)
    fg = f_vec * np.array([E, E, E * E])
    den = 1.0 + fg @ i_vec + (fg[2] - f_vec[2])
    num = (fg @ m_vec + (i_vec @ m_vec) * (1.0 + fg[2] - f_vec[2])
           + 1j * (fg @ np.cross(m_vec, i_vec)))
    return complex(a + b * num / den)


def markov_short_time_wv(gamma: float, tau: float, epsilon: float) -> complex:
    """First-order sigma_x weak value on the epsilon states under constant
    damping (gamma tau << 1): tau gamma/eps + 1j (2 - tau gamma)/eps."""
    return complex(tau * gamma / epsilon, (2.0 - tau * gamma) / epsilon)


def nonmarkov_short_time_wv(gamma0: float, lam: float, tau: float, epsilon: float) -> complex:
    """The same with the memory kernel (lam tau, gamma0 tau << 1), quadratic in tau:
    lam tau^2 gamma0/(2 eps) + 1j (4 - lam tau^2 gamma0)/(2 eps)."""
    quad = lam * tau * tau * gamma0
    return complex(quad / (2.0 * epsilon), (4.0 - quad) / (2.0 * epsilon))


# ------------------------------------------------- non-Markovian envelope

def big_gamma_ode(taus, gamma0: float, lam: float, rtol: float = 1e-11) -> np.ndarray:
    """Excited-amplitude envelope from its second-order linear ODE.

    G'' + lam G' + (gamma0 lam / 2) G = 0 with G(0) = 1, G'(0) = 0,
    integrated with Radau; no singular points anywhere, so this route is
    immune to the rate poles that plague the rate-equation form.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if taus[-1] == 0.0:
        return np.ones_like(taus)

    def rhs(t, y):
        return [y[1], -lam * y[1] - 0.5 * gamma0 * lam * y[0]]

    sol = solve_ivp(rhs, (0.0, taus[-1]), [1.0, 0.0], t_eval=taus,
                    method="Radau", rtol=rtol, atol=1e-13)
    assert sol.success, sol.message
    return sol.y[0]


def nonmarkov_apply_ode(C: np.ndarray, gamma0: float, lam: float, tau: float) -> np.ndarray:
    """Memory-kernel damping map built from the ODE-integrated envelope."""
    G = float(big_gamma_ode([tau], gamma0, lam)[-1])
    C = np.asarray(C, dtype=complex)
    return np.array([
        [C[0, 0] * G * G, C[0, 1] * G],
        [C[1, 0] * G, C[1, 1] + C[0, 0] * (1.0 - G * G)],
    ])


# ------------------------------------------------------- six-level system

def jy_oracle() -> np.ndarray:
    """Angular-momentum y component from the ladder-operator matrix elements.

    Basis: j = 3/2 block then j = 1/2 block, each ordered by increasing m.
    """

    def block(j: float) -> np.ndarray:
        dim = int(round(2 * j + 1))
        m = -j + np.arange(dim)
        Jp = np.zeros((dim, dim))
        for k in range(dim - 1):
            Jp[k + 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
        return (Jp - Jp.T) / 2j

    return block_diag(block(1.5), block(0.5)).astype(complex)


def sodium_jumps_oracle():
    """Polarization jump operators from the angular-momentum branching amplitudes.

    q = m_e - m_g is the transferred z angular momentum; the amplitudes are
    <3/2, m_e | 1/2, m_g; 1, q>: 1 for the stretched transitions, sqrt(2/3)
    for pi, 1/sqrt(3) for the inner sigma transitions. Excited indices 0..3
    are m_e = -3/2..3/2, ground indices 4..5 are m_g = -1/2, 1/2.
    """
    def e_idx(me: float) -> int:
        return int(round(me + 1.5))

    def g_idx(mg: float) -> int:
        return 4 + int(round(mg + 0.5))

    amp = {
        (-0.5, -1.5): 1.0,            # q = -1
        (0.5, -0.5): 1.0 / np.sqrt(3.0),
        (-0.5, -0.5): np.sqrt(2.0 / 3.0),   # q = 0
        (0.5, 0.5): np.sqrt(2.0 / 3.0),
        (-0.5, 0.5): 1.0 / np.sqrt(3.0),    # q = +1
        (0.5, 1.5): 1.0,
    }
    ops = {}
    for q in (-1, 0, 1):
        L = np.zeros((6, 6), dtype=complex)
        for (mg, me), a in amp.items():
            if abs((me - mg) - q) < 1e-12:
                L[g_idx(mg), e_idx(me)] = a
        ops[q] = L
    return ops


# --------------------------------------------- joint-state meter readout

def _meter_ops(dim_m: int, omega_f: float, hbar: float):
    a = np.zeros((dim_m, dim_m), dtype=complex)
    for n in range(1, dim_m):
        a[n - 1, n] = np.sqrt(n)
    return a, a.conj().T


def meter_density(kind: str, n: float, dim: int) -> np.ndarray:
    """A vacuum, number or thermal meter density on the first dim Fock levels.

    Thermal weights are the geometric x^k with x = n/(1+n), renormalized on
    the truncated space, so the truncated mean occupation approaches n as
    dim grows.
    """
    weights = np.zeros(dim)
    if kind == "thermal" and n > 0.0:
        weights = (n / (1.0 + n)) ** np.arange(dim)
        weights /= weights.sum()
    else:
        level = int(n) if kind == "number" else 0
        if level >= dim:
            raise ValueError(f"number level {level} outside truncation {dim}")
        weights[level] = 1.0
    return np.diag(weights).astype(complex)


def _quadratures_at(dim_m: int, omega_f: float, hbar: float, t_prime: float):
    a, ad = _meter_ops(dim_m, omega_f, hbar)
    up = np.exp(1j * omega_f * t_prime)
    Q = np.sqrt(hbar / (2.0 * omega_f)) * (ad * up + a * np.conj(up))
    P = 1j * np.sqrt(hbar * omega_f / 2.0) * (ad * up - a * np.conj(up))
    return Q, P


def _joint_pipeline(rho_joint: np.ndarray, sigma_fI: np.ndarray, gamma: float,
                    tau: float, dim_s: int, dim_m: int, omega_f: float,
                    hbar: float, t: float):
    """Dissipate the system factor (Kraus x identity), post-select, read out."""
    p = 1.0 - np.exp(-gamma * tau)
    K0 = np.array([[np.sqrt(1.0 - p), 0.0], [0.0, 1.0]], dtype=complex)
    K1 = np.array([[0.0, 0.0], [np.sqrt(p), 0.0]], dtype=complex)
    eye_m = np.eye(dim_m)
    rho = (np.kron(K0, eye_m) @ rho_joint @ np.kron(K0, eye_m).conj().T
           + np.kron(K1, eye_m) @ rho_joint @ np.kron(K1, eye_m).conj().T)
    R = np.kron(np.asarray(sigma_fI, dtype=complex), eye_m) @ rho
    prob = np.trace(R).real
    R4 = R.reshape(dim_s, dim_m, dim_s, dim_m)
    mu_f = np.einsum("smsn->mn", R4) / prob
    Q, P = _quadratures_at(dim_m, omega_f, hbar, t + tau)
    return float(np.trace(Q @ mu_f).real), float(np.trace(P @ mu_f).real), prob


def rabi_joint_readout(sigma_i, sigma_fI, A_SI, mu0, g: float, t: float,
                       tau: float, omega_f: float, gamma: float,
                       hbar: float = 1.0):
    """Exact-unitary transverse-coupling simulation.

    The effective interaction g t A_SI x N_I(t/2) is exponentiated exactly
    (all orders in g t), then the system is damped, post-selected, and the
    meter quadratures at t + tau are read out. First-order shift formulas
    must agree with this to O((g t)^2).
    """
    mu0 = np.asarray(mu0, dtype=complex)
    dim_m = mu0.shape[0]
    a, ad = _meter_ops(dim_m, omega_f, hbar)
    up = np.exp(1j * omega_f * t / 2.0)
    N_I = ad * up + a * np.conj(up)
    H = np.kron(np.asarray(A_SI, dtype=complex), N_I)
    U = expm(-1j * g * t * H)
    rho0 = np.kron(np.asarray(sigma_i, dtype=complex), mu0)
    return _joint_pipeline(U @ rho0 @ U.conj().T, sigma_fI, gamma, tau,
                           2, dim_m, omega_f, hbar, t)


def jc_joint_readout(sigma_i, sigma_fI, mu0, g: float, t: float, tau: float,
                     omega_f: float, gamma: float, Delta: float,
                     hbar: float = 1.0):
    """Exact-unitary rotating-wave simulation.

    Effective interaction g t (e^{1j Delta t/2} sp x a + h.c.), exponentiated
    exactly; rest of the pipeline as in the transverse case.
    """
    mu0 = np.asarray(mu0, dtype=complex)
    dim_m = mu0.shape[0]
    a, ad = _meter_ops(dim_m, omega_f, hbar)
    sp = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
    sm = sp.conj().T
    ph = np.exp(1j * Delta * t / 2.0)
    H = ph * np.kron(sp, a) + np.conj(ph) * np.kron(sm, ad)
    U = expm(-1j * g * t * H)
    rho0 = np.kron(np.asarray(sigma_i, dtype=complex), mu0)
    return _joint_pipeline(U @ rho0 @ U.conj().T, sigma_fI, gamma, tau,
                           2, dim_m, omega_f, hbar, t)


# ----------------------------------------------------------- small helpers

def normalized_ket(amps) -> np.ndarray:
    v = np.asarray(amps, dtype=complex)
    return v / np.linalg.norm(v)


def ket_density(amps) -> np.ndarray:
    v = normalized_ket(amps)
    return np.outer(v, v.conj())


def random_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    return normalized_ket(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = X @ X.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (X + X.conj().T) / 2.0


def random_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
