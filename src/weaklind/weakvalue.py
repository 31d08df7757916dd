"""Weak values of a dissipative two-outcome protocol.

A weak measurement of an observable A on a system pre-selected in sigma_i,
followed by dissipation for a time tau and post-selection on sigma_fI (held
constant in the interaction picture), conditions the meter on

    A_w(tau) = Tr[sigma_fI e^{D tau}(A sigma_i)] / Tr[sigma_fI e^{D tau}(sigma_i)],

where the denominator is the post-selection probability. This module
evaluates the quotient numerically for any dissipator, in closed Bloch form
for a two-level atom under amplitude damping (including the non-Hermitian
lowering/raising operators), in the infinite-time limit through the
asymptotic projector, and in the short-time regimes used to estimate decay
parameters.

A tau grid is one batched kernel: with the generator M and scales s_k of
lindblad.exponent_scales (s = tau for constant rates, the integrated rate
for a shared memory-kernel rate), one eigendecomposition M = V diag(lam) V^-1,
the row r = vec(sigma_fI^T)^T V and one solve V^-1 X for the operands
X = (A sigma_i, sigma_i) give every trace as exp(outer(s, lam)) @ (r * V^-1 X).
Its guards are decided once per grid: cond(V) <= 1e4 (_EIG_COND_MAX), a
finite exponent bound max|lam| max|s|, Re lam clamped to <= 0, and
eigenvalues within roundoff of 0 (16 n eps max|lam|) set to 0. Where a
guard fails (a nearly defective generator such as an equal-rate cascade, or
rates near the float limit), every tau goes through lindblad.channel_map and
its one expm. The single sigma_- memory-kernel channel has no generator: its
grid is the stack of closed-form damping maps of lindblad.sigma_minus_maps,
one envelope Gamma(tau) per nonzero tau and one batched trace per operand.
weak_value_dissipative is the one-point case of the same kernel.

Bloch conventions: basis (|e>, |g>), sigma = (1 + r.pauli)/2, r_z = +1 for
|e>. Dissipation attenuates the post-selection vector componentwise,
f_gamma = (f_x E, f_y E, f_z E^2) with E = exp(-gamma tau/2); populations
relax twice as fast as coherences.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DenominatorVanishes,
    DimensionMismatch,
    EpsilonOutOfRange,
    NegativeTau,
    NoConvergence,
    NormTooLarge,
    NotDensity,
    PostselectionVanishes,
)
from .lindblad import (
    Dissipator,
    NonMarkovJC,
    _vec,
    apply_superoperator,
    asymptotic_projector,
    channel_map,
    exponent_scales,
    sigma_minus_maps,
)
from .lindblad import evolve  # noqa: F401  (bench/tracing.py patches evolve here)
from .operators import SIGMA_X, SIGMA_Y, is_density, pure_density

_VANISH_TOL = 1e-14
_EIG_COND_MAX = 1e4
_SHORT_TIME_GUARD = 0.05


@dataclass(frozen=True)
class WeakMeasurementSetup:
    """Pre/post-selected states and the weakly coupled observable.

    sigma_i and sigma_fI are density matrices (the post-selected one given
    directly in the interaction picture, where it is constant); A_SI is the
    measured observable at the effective interaction midpoint. g and t are
    the coupling strength and interaction duration; their product is the
    small parameter of the meter-shift formulas and is carried along for
    them, not used by the weak value itself.
    """

    sigma_i: np.ndarray
    sigma_fI: np.ndarray
    A_SI: np.ndarray
    g: float = 0.0
    t: float = 0.0

    def __post_init__(self) -> None:
        sigma_i = np.asarray(self.sigma_i, dtype=complex)
        sigma_fI = np.asarray(self.sigma_fI, dtype=complex)
        A_SI = np.asarray(self.A_SI, dtype=complex)
        for name, rho in (("sigma_i", sigma_i), ("sigma_fI", sigma_fI)):
            if not is_density(rho, tol=1e-10):
                raise NotDensity(f"{name} is not a density matrix at tol 1e-10")
        if A_SI.ndim != 2 or A_SI.shape[0] != A_SI.shape[1]:
            raise DimensionMismatch("A_SI must be a square matrix")
        if not (sigma_i.shape == sigma_fI.shape == A_SI.shape):
            raise DimensionMismatch(
                f"shape mismatch: sigma_i {sigma_i.shape}, sigma_fI {sigma_fI.shape}, "
                f"A_SI {A_SI.shape}")
        object.__setattr__(self, "sigma_i", sigma_i)
        object.__setattr__(self, "sigma_fI", sigma_fI)
        object.__setattr__(self, "A_SI", A_SI)
        object.__setattr__(self, "g", float(self.g))
        object.__setattr__(self, "t", float(self.t))

    @property
    def dim(self) -> int:
        return self.sigma_i.shape[0]

    def content_hash(self) -> str:
        """SHA-256 over the states, observable, and couplings."""
        h = hashlib.sha256()
        for arr in (self.sigma_i, self.sigma_fI, self.A_SI):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(np.array([self.g, self.t]).tobytes())
        return h.hexdigest()


class WeakValueSample(NamedTuple):
    value: complex
    probability: float


def _check_dimension(setup: WeakMeasurementSetup, d: Dissipator) -> None:
    if d.dim != setup.dim:
        raise DimensionMismatch(
            f"dissipator dimension {d.dim} != setup dimension {setup.dim}")


def _eigen_traces(r: np.ndarray, X: np.ndarray, M: np.ndarray,
                  s: np.ndarray) -> np.ndarray | None:
    """r^T exp(s_k M) X for every s_k, from one M = V diag(lam) V^-1.

    None when a guard fails: eig does not converge, cond(V) exceeds
    _EIG_COND_MAX (a nearly defective M), or the exponent bound
    max|lam| max|s| is not finite. Re lam is clamped to <= 0, since a
    bounded semigroup has no growing mode and roundoff must not make one,
    and |lam| <= 16 n eps max|lam| (n = dim M) is set to exactly 0: the
    roundoff of a kernel eigenvalue would otherwise decay or grow the
    steady part at huge s (|lam| s of order 1 at s ~ 1e15).
    """
    try:
        lam, V = np.linalg.eig(M)
    except np.linalg.LinAlgError:
        return None
    if not np.linalg.cond(V) <= _EIG_COND_MAX:
        return None
    # in Python floats: an infinite bound must not raise a numpy overflow warning
    lam_max = max(float(np.abs(lam.real).max()), float(np.abs(lam.imag).max()))
    if not math.isfinite(lam_max * float(np.abs(s).max())):
        return None
    lam = np.minimum(lam.real, 0.0) + 1j * lam.imag
    lam[np.abs(lam) <= 16 * len(lam) * np.finfo(float).eps * np.abs(lam).max()] = 0.0
    weights = (r @ V)[:, None] * np.linalg.solve(V, X)
    return np.exp(np.multiply.outer(s, lam)) @ weights


def _postselected_traces(setup: WeakMeasurementSetup, d: Dissipator,
                         taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tr[sigma_fI e^{D tau}(A sigma_i)] and Tr[sigma_fI e^{D tau}(sigma_i)] on taus.

    Both come from one eigendecomposition of the generator of
    lindblad.exponent_scales (_eigen_traces), or, for the sigma_- memory
    kernel, which has no generator, from the stacked closed-form maps of
    sigma_minus_maps. Where a guard fails, or an envelope raises, every tau
    goes through channel_map instead. NoConvergence names the first tau whose
    traces are not finite or whose envelope fails.
    """
    _check_dimension(setup, d)
    operands = (setup.A_SI @ setup.sigma_i, setup.sigma_i)
    form = exponent_scales(d, taus)
    traces = None
    if form is not None:
        # Tr[F C] = vec(F^T) . vec(C) in the column stacking of the superoperator
        X = np.stack([_vec(C) for C in operands], axis=1)
        traces = _eigen_traces(_vec(setup.sigma_fI.T), X, *form)
    else:
        try:
            maps = sigma_minus_maps(d, taus)
        except NoConvergence:
            pass  # the loop below reports whichever fails first in tau: a trace or this envelope
        else:
            traces = np.stack([np.trace(setup.sigma_fI @ maps(C), axis1=1, axis2=2)
                               for C in operands], axis=1)
    if traces is None:
        rows = []
        for tau in taus.tolist():
            apply = channel_map(d, tau)
            rows.append([complex(np.trace(setup.sigma_fI @ apply(C))) for C in operands])
            if not all(map(cmath.isfinite, rows[-1])):  # a larger tau would overflow further
                break
        traces = np.array(rows)
    bad = ~np.isfinite(traces).all(axis=1)
    if bad.any():
        raise NoConvergence(
            f"the evolved traces are not finite at tau={taus[bad.argmax()].item()}")
    return traces[:, 0], traces[:, 1]


def _quotient(num: complex, den: complex, where: str) -> WeakValueSample:
    """One weak value from its post-selected traces; `where` ends the messages."""
    if not (cmath.isfinite(num) and cmath.isfinite(den)):
        raise NoConvergence(f"the evolved traces are not finite{where}")
    if abs(den) < _VANISH_TOL:
        raise PostselectionVanishes(
            f"post-selection probability vanishes{where} (|den|={abs(den):.3e})")
    return WeakValueSample(value=num / den, probability=max(den.real, 0.0))


def weak_value_dissipative(setup: WeakMeasurementSetup, d: Dissipator,
                           tau: float) -> WeakValueSample:
    """The dissipative weak value and the post-selection probability at tau.

    A one-point sweep of trace_over_tau's kernel: the quotient of the two
    post-selected traces is the weak value, the denominator alone the
    probability. Raises PostselectionVanishes when |denominator| < 1e-14
    (orthogonal pre/post selection, typically only possible at tau = 0), and
    NoConvergence when either trace is not finite (rates so large that the
    propagator overflows).
    """
    num, den = _postselected_traces(setup, d, np.array([tau], dtype=float))
    return _quotient(complex(num[0]), complex(den[0]), f" at tau={tau}")


def weak_value_limit_infinite(setup: WeakMeasurementSetup, d: Dissipator) -> complex:
    """The tau -> infinity weak value via the asymptotic projector.

    The quotient of weak_value_dissipative with the projector P in place of
    e^{D tau}: exact spectral limit, no large-tau propagation is involved, so
    degenerate asymptotic subspaces (ground-manifold coherences) are kept.
    For a channel with a unique ground state the result reduces to the plain
    expectation value Tr[A sigma_i].
    """
    _check_dimension(setup, d)
    P = asymptotic_projector(d)
    num, den = (complex(np.trace(setup.sigma_fI @ apply_superoperator(P, C)))
                for C in (setup.A_SI @ setup.sigma_i, setup.sigma_i))
    return _quotient(num, den, " as tau -> infinity").value


def _check_bloch(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DimensionMismatch(f"{name} must be a real 3-vector")
    norm = float(np.linalg.norm(v))
    if norm > 1.0 + 1e-12:
        raise NormTooLarge(f"{name} has norm {norm} > 1")
    return v


def _bloch_denominator(i_vec, fI_vec, gamma: float, tau: float):
    """Checked (i, f, f_gamma, den) of the closed Bloch forms, with the
    post-selection denominator den = 1 + f_gamma.i + (f_gamma_z - f_z)."""
    i_vec = _check_bloch(i_vec, "i_vec")
    fI_vec = _check_bloch(fI_vec, "fI_vec")
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    if tau < 0.0:
        raise NegativeTau("tau must be >= 0")
    E = np.exp(-0.5 * gamma * tau)
    fg = np.array([fI_vec[0] * E, fI_vec[1] * E, fI_vec[2] * E * E])
    den = 1.0 + float(np.dot(fg, i_vec)) + (fg[2] - fI_vec[2])
    if abs(den) < _VANISH_TOL:
        raise DenominatorVanishes(
            f"weak-value denominator vanishes (|den|={abs(den):.3e})")
    return i_vec, fI_vec, fg, den


def weak_value_2level_analytic(i_vec, fI_vec, a: float, b: float, m_vec,
                               gamma: float, tau: float) -> complex:
    """Closed-form weak value of A = a*1 + b*(m.pauli) under amplitude damping.

    With the attenuated post-selection vector f_gamma (see module docstring),

        A_w = a + b * [f_gamma.m + (i.m)(1 + f_gamma_z - f_z)
                       + 1j * f_gamma.(m x i)]
                  / [1 + f_gamma.i + (f_gamma_z - f_z)].

    m may be complex, which covers the non-Hermitian lowering/raising
    operators through m = (1, -+1j, 0)/2 with a = 0, b = 1. All dot and
    cross products are bilinear (no conjugation).
    """
    m_vec = np.asarray(m_vec, dtype=complex)
    if m_vec.shape != (3,):
        raise DimensionMismatch("m_vec must be a 3-vector")
    i_vec, fI_vec, fg, den = _bloch_denominator(i_vec, fI_vec, gamma, tau)
    num = (np.dot(fg, m_vec)
           + np.dot(i_vec, m_vec) * (1.0 + fg[2] - fI_vec[2])
           + 1j * np.dot(fg, np.cross(m_vec, i_vec)))
    return complex(a + b * num / den)


def weak_value_sigma_pm(i_vec, fI_vec, gamma: float, tau: float, sign) -> complex:
    """Weak value of the raising (+) or lowering (-) operator, closed form.

    The printed expansions of the general Bloch formula at m = (1, +-1j, 0)/2:

        lower: [i_x(1 - f_z) + fg_x(1 + i_z) - 1j*(i_y(1 - f_z) + fg_y(1 + i_z))] / (2 den)
        raise: [i_x(1 - f_z + 2 fg_z) + fg_x(1 - i_z)
                + 1j*(i_y(1 - f_z + 2 fg_z) + fg_y(1 - i_z))] / (2 den)

    with den = 1 + fg.i + (fg_z - f_z). `sign` is "+"/"-" or +-1.
    """
    if sign not in ("+", "-", 1, -1):
        raise ValueError("sign must be '+'/'-' or +-1")
    plus = sign in ("+", 1)
    i_vec, fI_vec, fg, den = _bloch_denominator(i_vec, fI_vec, gamma, tau)
    ix, iy, iz = i_vec
    fz = fI_vec[2]
    if plus:
        num = (ix * (1.0 - fz + 2.0 * fg[2]) + fg[0] * (1.0 - iz)
               + 1j * (iy * (1.0 - fz + 2.0 * fg[2]) + fg[1] * (1.0 - iz)))
    else:
        num = (ix * (1.0 - fz) + fg[0] * (1.0 + iz)
               - 1j * (iy * (1.0 - fz) + fg[1] * (1.0 + iz)))
    return complex(num / (2.0 * den))


def measured_operator_rabi(omega_a: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The effective observable picked out by a resonant transverse coupling.

    Sampling the interaction at its midpoint rotates sigma_x clockwise by
    half the accumulated phase: cos(w t/2) sigma_x - sin(w t/2) sigma_y.
    Returns the operator and its unit Bloch direction
    (cos(w t/2), -sin(w t/2), 0).
    """
    half = 0.5 * omega_a * t
    op = np.cos(half) * SIGMA_X - np.sin(half) * SIGMA_Y
    n_vec = np.array([np.cos(half), -np.sin(half), 0.0])
    return op, n_vec


def postselection_rotation(f_vec, omega_a: float, t_plus_tau: float) -> np.ndarray:
    """Clockwise z-rotation taking a lab-frame post-selection vector to the
    interaction picture at time t + tau.

    (f_x cos + f_y sin, f_y cos - f_x sin, f_z) with angle omega_a (t + tau).
    """
    f_vec = _check_bloch(f_vec, "f_vec")
    th = omega_a * t_plus_tau
    c, s = np.cos(th), np.sin(th)
    return np.array([f_vec[0] * c + f_vec[1] * s,
                     f_vec[1] * c - f_vec[0] * s,
                     f_vec[2]])


def postselection_rotation_inverse(fI_vec, omega_a: float, t_plus_tau: float) -> np.ndarray:
    """Lab-frame vector that lands on a fixed interaction-picture target.

    Inverse (counterclockwise) rotation; composing with
    postselection_rotation at the same angle is the identity. This is the
    vector an experimentalist must actually post-select on to keep the
    interaction-picture choice constant while tau is scanned.
    """
    fI_vec = _check_bloch(fI_vec, "fI_vec")
    th = omega_a * t_plus_tau
    c, s = np.cos(th), np.sin(th)
    return np.array([fI_vec[0] * c - fI_vec[1] * s,
                     fI_vec[1] * c + fI_vec[0] * s,
                     fI_vec[2]])


def epsilon_states(epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearly orthogonal pre/post pair with overlap eps^2/4, for amplification.

    In the (|e>, |g>) basis the kets are

        psi_i    prop. (|eps|/2, -sign(eps)),
        psi_fI0  prop. ((1 - 1j)/sqrt(2), eps/sqrt(2)),

    returned as exactly normalized density matrices (the printed kets are
    first-order in eps; normalization shifts the weak value only at O(eps^2)
    and cancels in the quotient anyway). Guarded to 0 < |eps| <= 0.2 where
    the short-time expansions make sense.
    """
    if not (0.0 < abs(epsilon) <= 0.2):
        raise EpsilonOutOfRange(f"epsilon must satisfy 0 < |eps| <= 0.2, got {epsilon}")
    psi_i = pure_density([abs(epsilon) / 2.0, -np.sign(epsilon)])
    psi_f = pure_density([(1.0 - 1j) / np.sqrt(2.0), epsilon / np.sqrt(2.0)])
    return psi_i, psi_f


def markov_short_time_wv(gamma: float, tau: float, epsilon: float) -> complex:
    """First-order law for the sigma_x weak value on the epsilon states.

        tau gamma / eps + 1j (2 - tau gamma) / eps.

    The real part grows linearly with slope gamma/eps: dissipation amplified
    by 1/eps. Valid for gamma tau << 1; a warning is emitted past 0.05.
    """
    if epsilon == 0.0:
        raise EpsilonOutOfRange("epsilon must be nonzero")
    if gamma * tau > _SHORT_TIME_GUARD:
        warnings.warn(f"gamma*tau = {gamma * tau:.3g} exceeds the first-order "
                      "validity guard 0.05", stacklevel=2)
    return complex(tau * gamma / epsilon, (2.0 - tau * gamma) / epsilon)


def nonmarkov_short_time_wv(gamma0: float, lam: float, tau: float,
                            epsilon: float) -> complex:
    """Short-time law for the sigma_x weak value with a memory kernel.

        lam tau^2 gamma0 / (2 eps) + 1j (4 - lam tau^2 gamma0) / (2 eps).

    The real part is quadratic in tau (the instantaneous rate itself starts
    at zero), which separates this regime from the Markovian linear one.
    Valid for lam tau << 1 and gamma0 tau << 1; warns past 0.05.
    """
    if epsilon == 0.0:
        raise EpsilonOutOfRange("epsilon must be nonzero")
    if lam * tau > _SHORT_TIME_GUARD or gamma0 * tau > _SHORT_TIME_GUARD:
        warnings.warn(f"lam*tau = {lam * tau:.3g}, gamma0*tau = {gamma0 * tau:.3g}: "
                      "outside the short-time validity guard 0.05", stacklevel=2)
    quad = lam * tau * tau * gamma0
    return complex(quad / (2.0 * epsilon), (4.0 - quad) / (2.0 * epsilon))


@dataclass(frozen=True)
class WeakValueTrace:
    """A weak-value curve over a tau grid.

    values holds NaN at grid points where post-selection vanishes; those
    indices are listed in gaps and their probability is recorded as 0.
    """

    tau_grid: np.ndarray
    values: np.ndarray
    postselection_probs: np.ndarray
    gaps: tuple[int, ...]
    metadata: dict

    def __post_init__(self) -> None:
        if not (len(self.tau_grid) == len(self.values) == len(self.postselection_probs)):
            raise DimensionMismatch("trace arrays must have equal length")


def _channel_description(d: Dissipator) -> str:
    parts = []
    for ch in d.channels:
        jump_tag = hashlib.sha256(np.ascontiguousarray(ch.jump).tobytes()).hexdigest()[:12]
        if isinstance(ch.rate, NonMarkovJC):
            rate_tag = f"nonmarkov(gamma0={ch.rate.gamma0!r}, lam={ch.rate.lam!r})"
        else:
            rate_tag = f"rate={ch.rate!r}"
        parts.append(f"jump#{jump_tag} {rate_tag}")
    return f"dim={d.dim}; " + "; ".join(parts)


def trace_over_tau(setup: WeakMeasurementSetup, d: Dissipator, tau_grid) -> WeakValueTrace:
    """Evaluate the weak value on an increasing tau grid.

    Vanishing post-selection at a grid point is recorded as a gap (NaN
    value, probability 0), not raised: orthogonal pre/post pairs are a
    deliberate choice at tau = 0 and dissipation reopens the denominator
    for tau > 0.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or len(tau_grid) == 0:
        raise ValueError("tau_grid must be a nonempty 1-D array")
    if np.any(np.diff(tau_grid) <= 0.0):
        raise ValueError("tau_grid must be strictly increasing")
    num, den = _postselected_traces(setup, d, tau_grid)
    kept = np.abs(den) >= _VANISH_TOL
    values = np.full(len(tau_grid), complex(np.nan, np.nan))
    # Python's complex division, as in weak_value_dissipative, keeps the two bit-equal
    values[kept] = [n / m for n, m in zip(num[kept].tolist(), den[kept].tolist())]
    probs = np.where(kept, np.maximum(den.real, 0.0), 0.0)
    gaps = np.flatnonzero(~kept).tolist()
    metadata = {
        "setup_hash": setup.content_hash(),
        "channel": _channel_description(d),
    }
    return WeakValueTrace(tau_grid=tau_grid, values=values,
                          postselection_probs=probs, gaps=tuple(gaps),
                          metadata=metadata)


__all__ = [
    "WeakMeasurementSetup",
    "WeakValueSample",
    "WeakValueTrace",
    "weak_value_dissipative",
    "weak_value_limit_infinite",
    "weak_value_2level_analytic",
    "weak_value_sigma_pm",
    "measured_operator_rabi",
    "postselection_rotation",
    "postselection_rotation_inverse",
    "epsilon_states",
    "markov_short_time_wv",
    "nonmarkov_short_time_wv",
    "trace_over_tau",
]
