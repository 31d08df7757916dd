"""Lindblad dissipators and the channel maps they generate.

The dissipator acting on an arbitrary (not necessarily Hermitian) operator C
is

    D(C) = sum_i gamma_i (L_i C L_i' - 1/2 {L_i' L_i, C}),

with jump operators L_i and nonnegative rates gamma_i. For constant rates the
map e^{D tau} is computed exactly (to roundoff) by exponentiating the
materialized superoperator M. The steady space and the tau -> infinity limit
P = R (L' R)^{-1} L' both come from the right and left kernels R and L of
one SVD of M, under one rank rule. For the named time-dependent rate (the
non-Markovian damped-atom channel) the master equation dC/dtau = gamma(tau)
D_1(C) is solved in closed form: gamma(tau) = -2 Gamma'/Gamma for the
excited-amplitude envelope Gamma, so the map is exp(-2 ln Gamma(tau) D_1)
whenever every channel shares that one rate. Nothing is integrated
numerically. exponent_scales(d, taus) gives each exponential map as
exp(s M), one generator M with a scale s per tau; weakvalue evaluates a whole
tau grid from one eigendecomposition of M, and falls back to channel_map
when its guards fail. The single sigma_- channel with a memory-kernel rate
has no generator there: sigma_minus_maps(d, taus) stacks its closed-form
damping maps over the grid, one envelope Gamma(tau) per nonzero tau.
channel_map(d, tau) is the one dispatch at a single tau: one expm(s M), or
the one-point case of sigma_minus_maps; evolve applies it. scipy.linalg is
imported on the first expm only. The map
preserves traces, commutes with the adjoint (e^{D tau}(C') = (e^{D tau}(C))'),
and for constant rates forms a semigroup in tau.

Vectorization is column-stacking: vec(A B C) = (C^T kron A) vec(B), so the
superoperator matrix of C -> L C L' is conj(L) kron L.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DimensionMismatch, NegativeTau, NoConvergence
from .operators import SIGMA_MINUS, _cmul

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
        _check_memory_kernel(self.gamma0, self.lam)


def _check_memory_kernel(gamma0: float, lam: float) -> None:
    # the chained comparisons are False for NaN as well
    if not (0.0 < gamma0 < math.inf and 0.0 < lam < math.inf):
        raise ValueError("gamma0 and lam must be finite and strictly positive")


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


def expm(A: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on the first call: importing scipy.linalg
    takes about 0.2 s, and a sweep on the eigen kernel never needs it."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(A)


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


def _check_tau(tau: float) -> None:
    if not math.isfinite(tau):
        raise NegativeTau("tau must be finite")
    if tau < 0.0:
        raise NegativeTau("tau must be >= 0")


def two_level_damping_apply(C: np.ndarray, gamma: float, tau: float) -> np.ndarray:
    """Closed-form amplitude-damping map on an arbitrary 2x2 matrix.

    In the (|e>,|g>) basis, with E = exp(-gamma tau / 2):

        [[c_ee E^2, c_eg E], [c_ge E, c_gg + c_ee (1 - E^2)]]

    Populations decay at gamma, coherences at gamma/2, and the lost excited
    population lands on the ground state (trace preserved). ValueError unless
    gamma is finite and >= 0, NegativeTau unless tau is.
    """
    if not 0.0 <= gamma < math.inf:
        raise ValueError("gamma must be finite and >= 0")
    _check_tau(tau)
    return _damping_maps(_check_operator(C, 2), np.array([np.exp(-0.5 * gamma * tau)]))[0]


def _damping_maps(C: np.ndarray, G: np.ndarray) -> np.ndarray:
    """[[c_ee G^2, c_eg G], [c_ge G, c_gg + c_ee (1 - G^2)]] at every G_k, stacked
    (N, 2, 2), for a checked 2x2 C.

    Each product of an entry with a real G is the scalar complex product
    with G + 0j written in real arithmetic (_cmul), so that every row equals
    the map formed entry by entry in complex scalars, bit for bit.
    """
    ee, eg, ge, gg = ((z.real, z.imag) for z in C.flat)
    loss_re, loss_im = _cmul(*ee, 1.0 - G * G, 0.0)
    entries = (_cmul(*_cmul(*ee, G, 0.0), G, 0.0), _cmul(*eg, G, 0.0), _cmul(*ge, G, 0.0),
               (gg[0] + loss_re, gg[1] + loss_im))
    maps = np.empty((len(G), 4, 2))
    for k, (re, im) in enumerate(entries):
        maps[:, k, 0], maps[:, k, 1] = re, im
    return maps.view(complex).reshape(len(G), 2, 2)


def _nonmarkov_d(gamma0: float, lam: float) -> tuple[complex, float]:
    """(d/scale, scale) for d = sqrt(lam^2 - 2 gamma0 lam) and scale = 2^k ~ max(gamma0, lam).

    The exact power-of-two scaling keeps lam^2 and gamma0 lam finite near the
    float limit, and |d| <= max(gamma0, lam) is finite too."""
    scale = 2.0 ** (math.frexp(max(gamma0, lam))[1] - 1)
    g, l = gamma0 / scale, lam / scale
    return cmath.sqrt(complex(l * l - 2.0 * g * l)), scale


def _envelope_pieces(gamma0: float, lam: float, tau: float) -> tuple[complex, complex, float]:
    """(c, ls, a) with Gamma(tau) = e^a (c + ls).

    Normally c = cosh(d tau/2), ls = lam sinh(d tau/2)/d and a = -lam tau/2.
    When d is real and x = d tau/2 > 20, cosh(x) heads for overflow at large
    lam tau although Gamma stays below 1 (d < lam), so e^x moves into the
    prefactor: c = (1 + e^{-2x})/2, ls = lam (1 - e^{-2x})/(2d) and
    a = (d - lam) tau/2 = -gamma0 lam tau/(d + lam), written without the
    cancellation of d - lam. Both take d and lam over the scale of
    _nonmarkov_d, as at lam ~ 1e308 (Gamma = e^{-gamma0 tau/2}) gamma0 lam and
    d + lam overflow and 1/d is subnormal. At critical coupling (d = 0) with
    lam tau near the float limit the same scale keeps Gamma and gamma finite."""
    ds, scale = _nonmarkov_d(gamma0, lam)
    d = ds * scale
    x = d * (tau / 2.0)
    if math.isinf(x.imag):
        raise NoConvergence(f"the envelope phase d tau/2 overflows at tau={tau}")
    l = lam / scale
    if x.real <= 20.0:
        if d:
            return cmath.cosh(x), lam * (cmath.sinh(x) / d), -lam * tau / 2.0
        y = lam * (tau / 2.0)
        if y < 2.0 ** 1023:  # critical coupling: Gamma = e^{-y} (1 + y)
            return cmath.cosh(x), y, -lam * tau / 2.0
        # 2y (in gamma) overflows: Gamma = e^{ln y - y} (1/y + 1), y from the scaled lam
        ys = l * (tau / 2.0)
        return 1.0 / ys / scale, 1.0, math.log(ys) + math.log(scale) - ys * scale
    # e^{-2x}; x may be infinite, and -2.0 * x would then hold 0 * inf = nan
    e = cmath.exp(-(x + x))
    return (1.0 + e) / 2.0, l * ((1.0 - e) / (2.0 * ds)), -gamma0 * l * tau / (ds.real + l)


def _real_guarded(z: complex, what: str) -> float:
    if abs(z.imag) > 1e-10 * max(1.0, abs(z.real)):
        raise NoConvergence(f"{what} has non-negligible imaginary residue {z.imag}")
    return z.real


def nonmarkov_gamma(tau: float, gamma0: float, lam: float) -> float:
    """The time-dependent decay rate gamma(tau) of the non-Markovian channel.

    gamma(0) = 0, gamma -> gamma0 for lam >> gamma0, and gamma ~ gamma0 lam tau
    for small tau. Strong coupling (lam < 2 gamma0) oscillates and diverges at
    the zeros of the excited-amplitude envelope. NegativeTau unless tau is
    finite and >= 0.
    """
    _check_memory_kernel(gamma0, lam)
    _check_tau(tau)
    c, ls, _ = _envelope_pieces(gamma0, lam, tau)
    value = gamma0 * (2.0 * ls / (c + ls))
    return _real_guarded(value, "gamma(tau)")


def nonmarkov_big_gamma(tau: float, gamma0: float, lam: float) -> float:
    """Excited-state amplitude envelope Gamma(tau) of the non-Markovian channel.

    Gamma(tau) = exp(-lam tau/2) [cosh(d tau/2) + (lam/d) sinh(d tau/2)],
    continued to complex d; solves Gamma'' + lam Gamma' + (gamma0 lam/2) Gamma = 0
    with Gamma(0) = 1, Gamma'(0) = 0, and satisfies |Gamma| <= 1. The channel
    map is related to it exactly as the constant-rate amplitude-damping map is
    to exp(-gamma tau/2):

        [[c_ee G^2, c_eg G], [c_ge G, c_gg + c_ee (1 - G^2)]].

    NegativeTau unless tau is finite and >= 0.
    """
    _check_memory_kernel(gamma0, lam)
    _check_tau(tau)
    c, ls, a = _envelope_pieces(gamma0, lam, tau)
    value = cmath.exp(a) * (c + ls)
    return _real_guarded(value, "Gamma(tau)")


def nonmarkov_channel_apply(C: np.ndarray, gamma0: float, lam: float, tau: float) -> np.ndarray:
    """Closed-form non-Markovian damping map on an arbitrary 2x2 matrix.

    NegativeTau unless tau is finite and >= 0.
    """
    G = nonmarkov_big_gamma(tau, gamma0, lam)
    return _damping_maps(_check_operator(C, 2), np.array([G]))[0]


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
    ds, scale = _nonmarkov_d(gamma0, lam)
    delta = ds.imag * scale
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


def exponent_scales(d: Dissipator, taus) -> tuple[np.ndarray, np.ndarray] | None:
    """(M, s) with e^{D tau_k} = exp(s_k M) at every tau_k, or None for the
    single sigma_- channel with a NonMarkovJC rate, whose map is a closed form.

    The one definition of each exponential map. Constant rates: M is the
    materialized superoperator and s = tau. Channels that all share one
    NonMarkovJC rate: since gamma(tau) = -2 Gamma'/Gamma, M is the unit-rate
    superoperator M_1 and s is the integrated rate Lambda(tau) = -2 ln Gamma(tau);
    NoConvergence when a rate pole lies inside (0, tau]. Any other mix of
    rates raises NoConvergence, and a negative or non-finite tau NegativeTau.
    """
    taus = np.asarray(taus, dtype=float)
    if not np.isfinite(taus).all():
        raise NegativeTau("tau must be finite")
    if (taus < 0.0).any():
        raise NegativeTau("tau must be >= 0")
    if d.is_constant:
        return d.superoperator, taus
    rate = _shared_nonmarkov_rate(d)
    if _is_sigma_minus_channel(d):
        return None

    def integrated_rate(tau: float) -> float:
        if _nonmarkov_pole_in(tau, rate.gamma0, rate.lam):
            raise NoConvergence(
                "the time-dependent rate diverges inside (0, tau] and this channel "
                "structure has no regular continuation through the pole")
        # -2 ln Gamma from Gamma = e^a (c + ls) > 0, which stays finite where
        # Gamma itself underflows (gamma0 tau in the thousands)
        c, ls, a = _envelope_pieces(rate.gamma0, rate.lam, tau)
        return -2.0 * (a + np.log(_real_guarded(c + ls, "Gamma(tau)")))

    M_unit = _superoperator_matrix(d.channels, d.dim, unit_rates=True)
    return M_unit, np.array([integrated_rate(tau) for tau in taus.tolist()])


def sigma_minus_maps(d: Dissipator, taus: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """C -> the (N, 2, 2) stack of e^{D tau_k}(C) for the single sigma_- channel
    with a NonMarkovJC rate, the case where exponent_scales(d, taus) is None.

    The closed form of nonmarkov_channel_apply on the whole grid: one
    envelope Gamma(tau_k) from nonmarkov_big_gamma per nonzero tau, in order,
    so NoConvergence names the first tau whose envelope phase overflows; the
    map at tau = 0 is the identity. taus are checked by exponent_scales.
    """
    rate = d.channels[0].rate
    G = np.array([nonmarkov_big_gamma(tau, rate.gamma0, rate.lam) if tau else 1.0
                  for tau in taus.tolist()])
    at_zero = (taus == 0.0)[:, None, None]

    def apply(C: np.ndarray) -> np.ndarray:
        C = _check_operator(C, 2)
        return np.where(at_zero, C, _damping_maps(C, G))
    return apply


def channel_map(d: Dissipator, tau: float) -> Callable[[np.ndarray], np.ndarray]:
    """The map C -> e^{D tau}(C), built once for every operator at this tau.

    The one place that decides how each kind of channel evolves at one tau.
    A single sigma_- channel with a NonMarkovJC rate: the closed-form map of
    nonmarkov_channel_apply, analytic across the poles of gamma(tau). Every
    other channel: one matrix exponential expm(s M) of exponent_scales,
    which also raises the NegativeTau and NoConvergence refusals;
    NoConvergence too when expm(s M) is not finite. The returned map raises
    DimensionMismatch on an operator of the wrong shape.
    """
    form = exponent_scales(d, (tau,))
    if tau == 0.0:
        return lambda C: _check_operator(C, d.dim).copy()
    if form is None:
        maps = sigma_minus_maps(d, np.array([tau]))
        return lambda C: maps(C)[0]
    M, (s,) = form
    # rates or scales near the float limit overflow s M or the scaling and
    # squaring inside expm; the map is then refused, never returned as NaN
    with np.errstate(over="ignore", invalid="ignore"):
        S = expm(s * M)
    if not np.isfinite(S).all():
        raise NoConvergence(f"the channel map is not finite at tau={tau}")
    return partial(apply_superoperator, S)


def evolve(d: Dissipator, C: np.ndarray, tau: float) -> np.ndarray:
    """Apply e^{D tau} to an arbitrary operator C through the one dispatch, channel_map."""
    return channel_map(d, tau)(C)


@dataclass(frozen=True)
class SteadySpace:
    """Basis of the asymptotic subspace of a dissipator (degenerate case)."""

    basis: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _kernels(d: Dissipator) -> tuple[np.ndarray, np.ndarray]:
    """Right and left kernels (R, L) of a constant-rate superoperator M.

    One SVD M = U diag(s) Vh makes the rank decision: singular values below
    1e-9 count as zero, and NoConvergence is raised unless a x100 gap
    separates them from the rest. M R = 0 and L' M = 0.
    """
    U, svals, Vh = np.linalg.svd(d.superoperator)
    n_zero = int(np.sum(svals < _KERNEL_TOL))
    if n_zero == 0:
        raise NoConvergence("superoperator has no numerical kernel at tol 1e-9")
    # svals descend: the largest kernel value, then the smallest one kept
    largest_zero = svals[-n_zero]
    smallest_kept = svals[-n_zero - 1] if n_zero < len(svals) else np.inf
    if smallest_kept < 100.0 * max(largest_zero, _KERNEL_TOL / 100.0):
        raise NoConvergence("kernel rank determination is ambiguous")
    return Vh[-n_zero:].conj().T, U[:, -n_zero:]


def steady_state(d: Dissipator):
    """Right kernel of the materialized superoperator, from one SVD.

    Returns the unique normalized steady density matrix when the kernel is
    one-dimensional, otherwise a SteadySpace whose basis spans all asymptotic
    operators (including ground-manifold coherences for degenerate ground
    states). Shares the rank rule of asymptotic_projector: NoConvergence
    when the kernel rank is ambiguous at tolerance 1e-9.
    """
    if not d.is_constant:
        raise NoConvergence("steady_state requires constant rates")
    mats = [_unvec(r, d.dim) for r in _kernels(d)[0].T]
    if len(mats) == 1:
        rho = mats[0]
        rho = rho / np.trace(rho)
        # a unique fixed point of a trace-preserving positive map is a state
        rho = (rho + rho.conj().T) / 2.0
        return rho
    return SteadySpace(basis=tuple(mats))


def asymptotic_projector(d: Dissipator) -> np.ndarray:
    """The superoperator P = lim_{tau->inf} e^{D tau} (constant rates).

    Spectral projector onto the kernel of the superoperator M along the
    decaying modes, P = R (L' R)^{-1} L' with the right and left kernels of
    one SVD of M (rank rule shared with steady_state). Zero is a semisimple
    eigenvalue of a bounded Lindblad semigroup (Albert & Jiang, PRA 89,
    022118, 2014), so L' R is invertible. Never computed by large-tau
    propagation.
    """
    if not d.is_constant:
        raise NoConvergence("asymptotic projector requires constant rates")
    R, L = _kernels(d)
    return R @ np.linalg.solve(L.conj().T @ R, L.conj().T)


def apply_superoperator(S: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Apply a materialized (dim^2 x dim^2) superoperator to an operator."""
    dim = int(round(np.sqrt(S.shape[0])))
    C = _check_operator(C, dim)
    return _unvec(S @ _vec(C), dim)
