"""Lindblad dissipators and the channel maps they generate.

The dissipator acting on an arbitrary (not necessarily Hermitian) operator C
is

    D(C) = sum_i gamma_i (L_i C L_i' - 1/2 {L_i' L_i, C}),

with jump operators L_i and nonnegative rates gamma_i. For constant rates the
map e^{D tau} is computed exactly (to roundoff) by exponentiating the
materialized superoperator. For the named time-dependent rate (the
non-Markovian damped-atom channel) the master equation dC/dtau = gamma(tau)
D_1(C) is solved in closed form: gamma(tau) = -2 Gamma'/Gamma for the
excited-amplitude envelope Gamma, so the map is exp(-2 ln Gamma(tau) D_1)
whenever every channel shares that one rate. Nothing is integrated
numerically. The map preserves traces, commutes with the adjoint
(e^{D tau}(C') = (e^{D tau}(C))'), and for constant rates forms a semigroup
in tau.

Vectorization is column-stacking: vec(A B C) = (C^T kron A) vec(B), so the
superoperator matrix of C -> L C L' is conj(L) kron L.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, null_space, schur, solve_sylvester

from .errors import DimensionMismatch, NegativeTau, NoConvergence
from .operators import SIGMA_MINUS

_KERNEL_TOL = 1e-9


@dataclass(frozen=True)
class NonMarkovJC:
    """Time-dependent decay rate of a two-level atom in a lossy cavity.

    A single excitation exchanged with a Lorentzian reservoir of width lam
    (memory time 1/lam) and Markovian-limit rate gamma0 gives the
    time-convolutionless rate

        gamma(tau) = 2 gamma0 lam sinh(d tau/2) / (d cosh(d tau/2) + lam sinh(d tau/2)),
        d = sqrt(lam^2 - 2 gamma0 lam).

    Weak coupling (lam > 2 gamma0) has real d and gamma(tau) -> gamma0 for
    lam >> gamma0. Strong coupling (lam < 2 gamma0) has imaginary d: the
    hyperbolic functions become trigonometric, the excited amplitude
    oscillates through zero, and gamma(tau) diverges at each zero crossing.
    """

    gamma0: float
    lam: float

    def __post_init__(self) -> None:
        if self.gamma0 <= 0.0 or self.lam <= 0.0:
            raise ValueError("gamma0 and lam must be strictly positive")


@dataclass(frozen=True)
class DissipationChannel:
    """One jump operator with a constant or named time-dependent rate."""

    jump: np.ndarray
    rate: float | NonMarkovJC

    def __post_init__(self) -> None:
        jump = np.asarray(self.jump, dtype=complex)
        if jump.ndim != 2 or jump.shape[0] != jump.shape[1]:
            raise DimensionMismatch("jump operator must be a square matrix")
        if not np.all(np.isfinite(jump.view(float))):
            raise ValueError("jump operator entries must be finite")
        object.__setattr__(self, "jump", jump)
        if isinstance(self.rate, (int, float)):
            if not np.isfinite(self.rate) or self.rate < 0.0:
                raise ValueError("constant rate must be finite and >= 0")
            object.__setattr__(self, "rate", float(self.rate))

    @property
    def is_constant(self) -> bool:
        return isinstance(self.rate, float)

    def rate_at(self, tau: float) -> float:
        if isinstance(self.rate, float):
            return self.rate
        return nonmarkov_gamma(tau, self.rate.gamma0, self.rate.lam)


@dataclass(frozen=True)
class Dissipator:
    """A set of channels on a fixed dimension, with the materialized
    superoperator cached when all rates are constant."""

    dim: int
    channels: tuple[DissipationChannel, ...]
    superoperator: np.ndarray | None = field(repr=False, default=None)

    @property
    def is_constant(self) -> bool:
        return all(ch.is_constant for ch in self.channels)

    def generator_apply(self, C: np.ndarray, tau: float = 0.0) -> np.ndarray:
        """D(C) at time tau (tau only matters for time-dependent rates)."""
        C = _check_operator(C, self.dim)
        out = np.zeros_like(C)
        for ch in self.channels:
            L = ch.jump
            LdL = L.conj().T @ L
            out += ch.rate_at(tau) * (L @ C @ L.conj().T - 0.5 * (LdL @ C + C @ LdL))
        return out


def _check_operator(C: np.ndarray, dim: int) -> np.ndarray:
    C = np.asarray(C, dtype=complex)
    if C.shape != (dim, dim):
        raise DimensionMismatch(f"expected a {dim}x{dim} operator, got shape {C.shape}")
    return C


def _vec(C: np.ndarray) -> np.ndarray:
    return C.reshape(-1, order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape(dim, dim, order="F")


def _superoperator_matrix(channels, dim: int, unit_rates: bool = False) -> np.ndarray:
    eye = np.eye(dim)
    M = np.zeros((dim * dim, dim * dim), dtype=complex)
    for ch in channels:
        L = ch.jump
        LdL = L.conj().T @ L
        piece = np.kron(L.conj(), L) - 0.5 * (np.kron(eye, LdL) + np.kron(LdL.T, eye))
        M += piece if unit_rates else ch.rate * piece
    return M


def build_dissipator(channels, dim: int) -> Dissipator:
    """Assemble a Dissipator, materializing the superoperator for constant rates."""
    channels = tuple(channels)
    if not channels:
        raise ValueError("at least one dissipation channel is required")
    for ch in channels:
        if not isinstance(ch, DissipationChannel):
            raise TypeError("channels must be DissipationChannel instances")
        if ch.jump.shape != (dim, dim):
            raise DimensionMismatch(
                f"jump operator shape {ch.jump.shape} does not match dim {dim}")
    superop = None
    if all(ch.is_constant for ch in channels):
        superop = _superoperator_matrix(channels, dim)
    return Dissipator(dim=dim, channels=channels, superoperator=superop)


def two_level_damping_apply(C: np.ndarray, gamma: float, tau: float) -> np.ndarray:
    """Closed-form amplitude-damping map on an arbitrary 2x2 matrix.

    In the (|e>,|g>) basis, with E = exp(-gamma tau / 2):

        [[c_ee E^2, c_eg E], [c_ge E, c_gg + c_ee (1 - E^2)]]

    Populations decay at gamma, coherences at gamma/2, and the lost excited
    population lands on the ground state (trace preserved).
    """
    C = _check_operator(C, 2)
    E = np.exp(-0.5 * gamma * tau)
    return np.array([
        [C[0, 0] * E * E, C[0, 1] * E],
        [C[1, 0] * E, C[1, 1] + C[0, 0] * (1.0 - E * E)],
    ])


def _half_sinhc(d: complex, tau: float) -> complex:
    """sinh(d tau/2)/d, analytic in d^2 (equals tau/2 at d = 0)."""
    if abs(d) == 0.0:
        return tau / 2.0
    return cmath.sinh(d * tau / 2.0) / d


def _nonmarkov_d(gamma0: float, lam: float) -> complex:
    return cmath.sqrt(complex(lam * lam - 2.0 * gamma0 * lam))


def _envelope_pieces(gamma0: float, lam: float, tau: float) -> tuple[complex, complex, float]:
    """(c, s, a) with Gamma(tau) = e^a (c + lam s).

    Normally c = cosh(d tau/2), s = sinh(d tau/2)/d and a = -lam tau/2. When
    d is real and x = d tau/2 > 20, cosh(x) heads for overflow at large
    lam tau although Gamma stays below 1 (d < lam), so e^x moves into the
    prefactor: c = (1 + e^{-2x})/2, s = (1 - e^{-2x})/(2d) and
    a = (d - lam) tau/2 = -gamma0 lam tau/(d + lam), written without the
    cancellation of d - lam.
    """
    d = _nonmarkov_d(gamma0, lam)
    x = d * tau / 2.0
    if x.real <= 20.0:
        return cmath.cosh(x), _half_sinhc(d, tau), -lam * tau / 2.0
    e = cmath.exp(-2.0 * x)
    return (1.0 + e) / 2.0, (1.0 - e) / (2.0 * d), -gamma0 * lam * tau / (d.real + lam)


def _real_guarded(z: complex, what: str) -> float:
    if abs(z.imag) > 1e-10 * max(1.0, abs(z.real)):
        raise NoConvergence(f"{what} has non-negligible imaginary residue {z.imag}")
    return z.real


def nonmarkov_gamma(tau: float, gamma0: float, lam: float) -> float:
    """The time-dependent decay rate gamma(tau) of the non-Markovian channel.

    gamma(0) = 0, gamma -> gamma0 for lam >> gamma0, and gamma ~ gamma0 lam tau
    for small tau. Strong coupling (lam < 2 gamma0) oscillates and diverges at
    the zeros of the excited-amplitude envelope.
    """
    if gamma0 <= 0.0 or lam <= 0.0:
        raise ValueError("gamma0 and lam must be strictly positive")
    c, s, _ = _envelope_pieces(gamma0, lam, tau)
    value = 2.0 * gamma0 * lam * s / (c + lam * s)
    return _real_guarded(value, "gamma(tau)")


def nonmarkov_big_gamma(tau: float, gamma0: float, lam: float) -> float:
    """Excited-state amplitude envelope Gamma(tau) of the non-Markovian channel.

    Gamma(tau) = exp(-lam tau/2) [cosh(d tau/2) + (lam/d) sinh(d tau/2)],
    continued to complex d; solves Gamma'' + lam Gamma' + (gamma0 lam/2) Gamma = 0
    with Gamma(0) = 1, Gamma'(0) = 0, and satisfies |Gamma| <= 1. The channel
    map is related to it exactly as the constant-rate amplitude-damping map is
    to exp(-gamma tau/2):

        [[c_ee G^2, c_eg G], [c_ge G, c_gg + c_ee (1 - G^2)]].
    """
    if gamma0 <= 0.0 or lam <= 0.0:
        raise ValueError("gamma0 and lam must be strictly positive")
    c, s, a = _envelope_pieces(gamma0, lam, tau)
    value = cmath.exp(a) * (c + lam * s)
    return _real_guarded(value, "Gamma(tau)")


def nonmarkov_channel_apply(C: np.ndarray, gamma0: float, lam: float, tau: float) -> np.ndarray:
    """Closed-form non-Markovian damping map on an arbitrary 2x2 matrix."""
    C = _check_operator(C, 2)
    G = nonmarkov_big_gamma(tau, gamma0, lam)
    return np.array([
        [C[0, 0] * G * G, C[0, 1] * G],
        [C[1, 0] * G, C[1, 1] + C[0, 0] * (1.0 - G * G)],
    ])


def _is_sigma_minus_channel(d: Dissipator) -> bool:
    """One two-level channel whose jump is exactly |g><e|."""
    if d.dim != 2 or len(d.channels) != 1:
        return False
    return bool(np.abs(d.channels[0].jump - SIGMA_MINUS).max() <= 1e-12)


def _nonmarkov_pole_in(tau: float, gamma0: float, lam: float) -> bool:
    """True when gamma(tau') diverges for some tau' in (0, tau].

    Poles exist only at strong coupling (lam < 2 gamma0), at the zeros of
    q(tau) = cos(delta tau/2) + (lam/delta) sin(delta tau/2); the first one is
    at tau* = 2(pi - atan(delta/lam))/delta.
    """
    if lam >= 2.0 * gamma0:
        return False
    delta = np.sqrt(2.0 * gamma0 * lam - lam * lam)
    tau_star = 2.0 * (np.pi - np.arctan2(delta, lam)) / delta
    return tau >= tau_star


def _shared_nonmarkov_rate(d: Dissipator) -> NonMarkovJC:
    """The one NonMarkovJC rate every channel of d carries.

    Only then is the map a closed form: all channels scale with the same
    gamma(tau), so the generators at different times commute. Any other mix
    (constant with time-dependent rates, or memory kernels with different
    parameters) is refused.
    """
    rate = d.channels[0].rate
    if not isinstance(rate, NonMarkovJC) or any(ch.rate != rate for ch in d.channels):
        raise NoConvergence(
            "time-dependent rates are supported only when every channel shares "
            "one NonMarkovJC rate; this dissipator mixes rates")
    return rate


def evolve(d: Dissipator, C: np.ndarray, tau: float) -> np.ndarray:
    """Apply e^{D tau} to an arbitrary operator C.

    Constant rates: matrix exponential of tau times the materialized
    superoperator. A single sigma_- channel with a NonMarkovJC rate: the
    closed-form map of nonmarkov_channel_apply, analytic across the poles of
    gamma(tau). Channels that all share one NonMarkovJC rate: since
    gamma(tau) = -2 Gamma'/Gamma, the map is exp(Lambda(tau) M_1) with the
    integrated rate Lambda = -2 ln Gamma(tau) and the unit-rate
    superoperator M_1; this raises NoConvergence when a rate pole lies
    inside (0, tau]. Any other mix of rates raises NoConvergence.
    """
    if not np.isfinite(tau):
        raise NegativeTau("tau must be finite")
    if tau < 0.0:
        raise NegativeTau("tau must be >= 0")
    C = _check_operator(C, d.dim)
    if tau == 0.0:
        return C.copy()
    if d.is_constant:
        E = expm(d.superoperator * tau)
        return _unvec(E @ _vec(C), d.dim)
    rate = _shared_nonmarkov_rate(d)
    if _is_sigma_minus_channel(d):
        return nonmarkov_channel_apply(C, rate.gamma0, rate.lam, tau)
    if _nonmarkov_pole_in(tau, rate.gamma0, rate.lam):
        raise NoConvergence(
            "the time-dependent rate diverges inside (0, tau] and this channel "
            "structure has no regular continuation through the pole")
    # -2 ln Gamma from Gamma = e^a (c + lam s) > 0, which stays finite where
    # Gamma itself underflows (gamma0 tau in the thousands)
    c, s, a = _envelope_pieces(rate.gamma0, rate.lam, tau)
    integrated_rate = -2.0 * (a + np.log(_real_guarded(c + rate.lam * s, "Gamma(tau)")))
    M_unit = _superoperator_matrix(d.channels, d.dim, unit_rates=True)
    E = expm(integrated_rate * M_unit)
    return _unvec(E @ _vec(C), d.dim)


@dataclass(frozen=True)
class SteadySpace:
    """Basis of the asymptotic subspace of a dissipator (degenerate case)."""

    basis: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def steady_state(d: Dissipator):
    """Null space of the materialized superoperator.

    Returns the unique normalized steady density matrix when the kernel is
    one-dimensional, otherwise a SteadySpace whose basis spans all asymptotic
    operators (including ground-manifold coherences for degenerate ground
    states). Raises NoConvergence when the kernel rank is ambiguous at
    tolerance 1e-9.
    """
    if not d.is_constant:
        raise NoConvergence("steady_state requires constant rates")
    M = d.superoperator
    svals = np.linalg.svd(M, compute_uv=False)
    n_zero = int(np.sum(svals < _KERNEL_TOL))
    if n_zero == 0:
        raise NoConvergence("superoperator has no numerical kernel at tol 1e-9")
    # the rank decision must be clean: a gap of x100 between the kernel
    # singular values and the rest
    smallest_kept = np.sort(svals)[n_zero - 1]
    largest_dropped = np.sort(svals)[n_zero] if n_zero < len(svals) else np.inf
    if largest_dropped < 100.0 * max(smallest_kept, _KERNEL_TOL / 100.0):
        raise NoConvergence("kernel rank determination is ambiguous")
    kernel = null_space(M, rcond=_KERNEL_TOL / svals[0])
    if kernel.shape[1] != n_zero:
        kernel = null_space(M)
        if kernel.shape[1] != n_zero:
            raise NoConvergence("kernel dimension disagrees between SVD passes")
    mats = [_unvec(kernel[:, k], d.dim) for k in range(kernel.shape[1])]
    if len(mats) == 1:
        rho = mats[0]
        rho = rho / np.trace(rho)
        # a unique fixed point of a trace-preserving positive map is a state
        rho = (rho + rho.conj().T) / 2.0
        return rho
    return SteadySpace(basis=tuple(mats))


def asymptotic_projector(d: Dissipator) -> np.ndarray:
    """The superoperator P = lim_{tau->inf} e^{D tau} (constant rates).

    Spectral projector onto the kernel of the superoperator along the span of
    the decaying modes, via a sorted Schur form: with M = Z [[T11, T12], [0,
    T22]] Z' where T11 collects the (numerically) zero eigenvalues, P =
    Z [[1, R], [0, 0]] Z' and R solves the Sylvester equation
    T11 R - R T22 = T12. Never computed by large-tau propagation.
    """
    if not d.is_constant:
        raise NoConvergence("asymptotic projector requires constant rates")
    M = d.superoperator
    T, Z, k = schur(M, output="complex", sort=lambda z: abs(z) < _KERNEL_TOL)
    if k == 0:
        raise NoConvergence("no asymptotic subspace found at tol 1e-9")
    n = M.shape[0]
    if k == n:
        return np.eye(n, dtype=complex)
    T11 = T[:k, :k]
    T12 = T[:k, k:]
    T22 = T[k:, k:]
    # eigenvalues in T11 are zero to roundoff; keeping them in the Sylvester
    # solve costs nothing and avoids an arbitrary truncation
    R = solve_sylvester(T11, -T22, T12)
    P_t = np.zeros((n, n), dtype=complex)
    P_t[:k, :k] = np.eye(k)
    P_t[:k, k:] = R
    return Z @ P_t @ Z.conj().T


def apply_superoperator(S: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Apply a materialized (dim^2 x dim^2) superoperator to an operator."""
    dim = int(round(np.sqrt(S.shape[0])))
    C = _check_operator(C, dim)
    return _unvec(S @ _vec(C), dim)
