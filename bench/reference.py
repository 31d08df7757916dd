"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports weaklind, and each route differs from the library's:

- the six-level operators come from spin ladder algebra and the stretched
  Clebsch-Gordan closed form (binomials), not from tabulated amplitudes;
- the six-level propagator is the matrix exponential of a ROW-stacking
  superoperator, and the infinite-time limit is a large-time exponential
  whose horizon is set from the spectral gap, not a Schur projector;
- two-level weak values are taken in the Heisenberg picture: the adjoint
  damping map is applied to the post-selected state through its Bloch
  vector, with the amplitude envelope written as a sum of two exponentials
  (weak coupling), a damped cosine (strong coupling) or e^{-x}(1 + x)
  (critical), in real arithmetic;
- meter shifts are the paper's first-order formulas evaluated on these
  reference weak values, not on the program's.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# ------------------------------------------------------------ states

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
RAISE = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|, basis (|e>, |g>)
LOWER = RAISE.T.copy()                                      # |g><e|


def bloch_density(v) -> np.ndarray:
    """(1 + v.sigma)/2 in the (|e>, |g>) basis."""
    return 0.5 * (np.eye(2) + sum(c * s for c, s in zip(v, PAULI)))


def ket_density(amplitudes) -> np.ndarray:
    """|psi><psi| of the normalized amplitude vector."""
    psi = np.asarray(amplitudes, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


# ------------------------------------------------------ six-level atom

def spin_jy(j: float) -> np.ndarray:
    """J_y = (J+ - J-)/2i on spin j, basis ordered by increasing m."""
    dim = int(round(2 * j + 1))
    jp = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        m = -j + k
        jp[k + 1, k] = math.sqrt(j * (j + 1) - m * (m + 1))
    return (jp - jp.conj().T) / 2j


def six_level_jy() -> np.ndarray:
    """Excited spin-3/2 block first, ground spin-1/2 block second."""
    out = np.zeros((6, 6), dtype=complex)
    out[:4, :4] = spin_jy(1.5)
    out[4:, 4:] = spin_jy(0.5)
    return out


def stretched_cg(j1: float, m1: float, j2: float, m2: float) -> float:
    """<j1 m1; j2 m2 | j1+j2, m1+m2>, which has a closed form in binomials."""
    J, M = j1 + j2, m1 + m2
    if abs(m1) > j1 or abs(m2) > j2:
        return 0.0
    num = math.comb(round(2 * j1), round(j1 + m1)) * math.comb(round(2 * j2), round(j2 + m2))
    return math.sqrt(num / math.comb(round(2 * J), round(J + M)))


def six_level_jumps() -> list[np.ndarray]:
    """One emission operator per photon polarization q = m_e - m_g.

    Amplitude <1/2 m_g; 1 q | 3/2 m_e> on |g, m_g><e, m_e|; excited index
    m_e + 3/2, ground index 4 + m_g + 1/2.
    """
    jumps = []
    for q in (-1, 0, 1):
        L = np.zeros((6, 6), dtype=complex)
        for mg in (-0.5, 0.5):
            me = mg + q
            if abs(me) <= 1.5:
                L[4 + round(mg + 0.5), round(me + 1.5)] = stretched_cg(0.5, mg, 1.0, q)
        jumps.append(L)
    return jumps


def row_superoperator(jumps, rates, dim: int) -> np.ndarray:
    """Dissipator matrix for row stacking: vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(dim)
    M = np.zeros((dim * dim, dim * dim), dtype=complex)
    for L, r in zip(jumps, rates):
        LdL = L.conj().T @ L
        M += r * (np.kron(L, L.conj()) - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T)))
    return M


class RowPropagator:
    """Weak values through exp(M tau) of a row-stacked superoperator."""

    def __init__(self, jumps, rates, dim: int):
        self.dim = dim
        self.M = row_superoperator(jumps, rates, dim)

    def _apply(self, S: np.ndarray, C: np.ndarray) -> np.ndarray:
        return (S @ np.asarray(C, dtype=complex).reshape(-1)).reshape(self.dim, self.dim)

    def weak_value(self, sigma_i, sigma_f, A, tau: float) -> tuple[complex, float]:
        """(weak value, post-selection probability) at tau."""
        S = expm(self.M * tau)
        num = np.trace(sigma_f @ self._apply(S, A @ sigma_i))
        den = np.trace(sigma_f @ self._apply(S, sigma_i))
        return complex(num / den), float(den.real)

    def limit(self, sigma_i, sigma_f, A) -> complex:
        """Infinite-time weak value by propagating past 32 decay times of the
        slowest mode, checked stable under doubling the horizon."""
        evs = np.linalg.eigvals(self.M)
        gap = min(-ev.real for ev in evs if abs(ev) > 1e-9)
        S = expm(self.M * (32.0 / gap))
        values = []
        for P in (S, S @ S):
            num = np.trace(sigma_f @ self._apply(P, A @ sigma_i))
            den = np.trace(sigma_f @ self._apply(P, sigma_i))
            values.append(complex(num / den))
        if abs(values[0] - values[1]) > 1e-11:
            raise ArithmeticError("large-time limit did not settle")
        return values[1]


# ------------------------------------------------- two-level damping

def envelope(tau: float, gamma0: float, lam: float) -> float:
    """Excited-amplitude envelope Gamma(tau) of the memory-kernel channel.

    Solution of G'' + lam G' + (gamma0 lam/2) G = 0, G(0) = 1, G'(0) = 0,
    whose characteristic roots are (-lam +- sqrt(lam^2 - 2 gamma0 lam))/2.
    """
    disc = lam * lam - 2.0 * gamma0 * lam
    if disc > 0.0:
        d = math.sqrt(disc)
        return (0.5 * (1.0 + lam / d) * math.exp(0.5 * (d - lam) * tau)
                + 0.5 * (1.0 - lam / d) * math.exp(-0.5 * (d + lam) * tau))
    if disc < 0.0:
        w = math.sqrt(-disc)
        return math.exp(-0.5 * lam * tau) * (math.cos(0.5 * w * tau)
                                             + (lam / w) * math.sin(0.5 * w * tau))
    return math.exp(-0.5 * lam * tau) * (1.0 + 0.5 * lam * tau)


def markov_envelope(tau: float, gamma: float) -> float:
    """Amplitude damping at a constant rate: populations decay as G^2 = e^{-gamma tau}."""
    return math.exp(-0.5 * gamma * tau)


def heisenberg_post(f_vec, G: float) -> np.ndarray:
    """Adjoint damping map applied to the post-selected state (1 + f.sigma)/2.

    Coherences shrink by G, the population difference by G^2, and the
    identity part picks up f_z (G^2 - 1) because population decays to |g>.
    """
    fx, fy, fz = f_vec
    return 0.5 * ((1.0 + fz * (G * G - 1.0)) * np.eye(2)
                  + G * fx * PAULI[0] + G * fy * PAULI[1] + G * G * fz * PAULI[2])


def two_level_weak_value(i_vec, f_vec, A, G: float) -> tuple[complex, float]:
    """(weak value, post-selection probability) of A for Bloch pre/post states."""
    F = heisenberg_post(f_vec, G)
    rho_i = bloch_density(i_vec)
    den = np.trace(F @ rho_i)
    return complex(np.trace(F @ A @ rho_i) / den), float(den.real)


# ------------------------------------------------------ meter shifts

def rabi_shifts(wv: complex, n: float, g: float, t: float, tau: float,
                omega_f: float, hbar: float = 1.0) -> tuple[float, float]:
    """Transverse coupling, energy-diagonal meter with occupation n.

    theta = omega_f (t/2 + tau):
    Q = -2 g t sqrt(hbar/2w) [sin(theta) Re wv - (2n+1) cos(theta) Im wv],
    P = -2 g t sqrt(hbar w/2) [cos(theta) Re wv + (2n+1) sin(theta) Im wv].
    """
    th = omega_f * (0.5 * t + tau)
    k = 2.0 * n + 1.0
    q = -2.0 * g * t * math.sqrt(hbar / (2.0 * omega_f)) * (
        math.sin(th) * wv.real - k * math.cos(th) * wv.imag)
    p = -2.0 * g * t * math.sqrt(hbar * omega_f / 2.0) * (
        math.cos(th) * wv.real + k * math.sin(th) * wv.imag)
    return q, p


def jc_shifts(wv_plus: complex, wv_minus: complex, n: float, g: float, t: float,
              tau: float, omega_f: float, Delta: float,
              hbar: float = 1.0) -> tuple[float, float]:
    """Rotating-wave coupling; <ad a> = n and <a ad> = n + 1 weight the two
    ladder weak values, chi = Delta t/2 + omega_f (t + tau):
    Q = 2 g t sqrt(hbar/2w) Im[e^{i chi} w+ n + e^{-i chi} w- (n+1)],
    P = 2 g t sqrt(hbar w/2) Re[e^{i chi} w+ n - e^{-i chi} w- (n+1)].
    """
    chi = 0.5 * Delta * t + omega_f * (t + tau)
    up = complex(math.cos(chi), math.sin(chi))
    q = 2.0 * g * t * math.sqrt(hbar / (2.0 * omega_f)) * (
        up * wv_plus * n + up.conjugate() * wv_minus * (n + 1.0)).imag
    p = 2.0 * g * t * math.sqrt(hbar * omega_f / 2.0) * (
        up * wv_plus * n - up.conjugate() * wv_minus * (n + 1.0)).real
    return q, p
