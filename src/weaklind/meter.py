"""Meter-side readout of a weak measurement.

The meter couples to the system through its position-like quadrature for a
short time t; after conditioning on the post-selected system state, the
meter quadrature averages shift by amounts proportional to g t and to the
real and imaginary parts of the weak value. This module evaluates those
shifts (general quotient form, transverse-coupling closed forms for
number/thermal/vacuum meters, and the rotating-wave forms driven by the
lowering/raising weak values) and inverts measured shifts back to the weak
value.

The two closed forms are evaluated on a whole tau grid at once:
rabi_shift_columns and jc_shift_columns take the weak values on the grid and
return the Q and P arrays, with the arithmetic of the per-point formula, so
each entry is bit-identical to a one-point call. rabi_shifts_number_state and
jc_shifts are that one-point case, returning a checked ShiftReport.

Conventions: quadratures Q = sqrt(hbar/2 omega_f)(ad + a),
P = 1j sqrt(hbar omega_f/2)(ad - a); the system couples to
N = sqrt(2 omega_f/hbar) Q. Interaction-picture operators carry phases
e^{+-1j omega_f t'}: the coupling operator is sampled at the interaction
midpoint t/2 and the readout quadratures at t + tau. hbar = 1 by default;
the sqrt(hbar/2 omega_f) factors are kept explicit throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularInversion
from .operators import FockSpace, _cmul, is_density, ladder

_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class MeterState:
    """Initial meter state: vacuum, number level, thermal, or custom density.

    Number, thermal, and vacuum states are diagonal in the energy basis, so
    they satisfy the calibration requirement <N_I(t/2)>_0 = 0 and commute
    with the field Hamiltonian. Custom densities carry no such guarantee and
    are accepted only by the general shift formula.
    """

    kind: str
    n: float = 0.0
    rho: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("vacuum", "number", "thermal", "custom"):
            raise ValueError(f"unknown meter state kind {self.kind!r}")
        if self.kind == "number":
            if self.n < 0 or self.n != int(self.n):
                raise ValueError("number state level must be a nonnegative integer")
        if self.kind == "thermal" and self.n < 0.0:
            raise ValueError("thermal occupation must be >= 0")
        if self.kind == "custom":
            rho = np.asarray(self.rho, dtype=complex)
            if not is_density(rho, tol=1e-10):
                raise ValueError("custom meter state must be a density matrix")
            object.__setattr__(self, "rho", rho)

    @classmethod
    def vacuum(cls) -> "MeterState":
        return cls(kind="vacuum")

    @classmethod
    def number(cls, n: int) -> "MeterState":
        return cls(kind="number", n=float(n))

    @classmethod
    def thermal(cls, n_eq: float) -> "MeterState":
        return cls(kind="thermal", n=float(n_eq))

    @classmethod
    def thermal_from_temperature(cls, temperature: float, omega_f: float,
                                 hbar: float = 1.0, k_B: float = 1.0) -> "MeterState":
        """Thermal state at temperature T: n_eq = 1/(e^{hbar w/(k_B T)} - 1)."""
        if temperature <= 0.0:
            raise ValueError("temperature must be > 0")
        n_eq = 1.0 / math.expm1(hbar * omega_f / (k_B * temperature))
        return cls(kind="thermal", n=n_eq)

    @classmethod
    def custom(cls, rho: np.ndarray) -> "MeterState":
        return cls(kind="custom", rho=rho)

    def mean_n(self) -> float:
        """Mean occupation: n for number states, n_eq for thermal, 0 vacuum."""
        if self.kind == "custom":
            rho = self.rho
            return float(np.real(np.sum(np.arange(rho.shape[0]) * np.diag(rho))))
        return self.n

    def density_matrix(self, dim: int) -> np.ndarray:
        """Materialize on a Fock space truncated at dim levels."""
        if self.kind == "custom":
            if self.rho.shape != (dim, dim):
                raise ValueError(
                    f"custom meter state has dimension {self.rho.shape[0]}, expected {dim}")
            return self.rho.copy()
        rho = np.zeros((dim, dim), dtype=complex)
        if self.kind == "vacuum":
            rho[0, 0] = 1.0
        elif self.kind == "number":
            level = int(self.n)
            if level >= dim:
                raise ValueError(f"number level {level} outside truncation {dim}")
            rho[level, level] = 1.0
        else:
            # geometric weights x^k with x = n_eq/(1+n_eq), renormalized on
            # the truncated space
            if self.n == 0.0:
                rho[0, 0] = 1.0
            else:
                x = self.n / (1.0 + self.n)
                weights = x ** np.arange(dim)
                weights /= weights.sum()
                np.fill_diagonal(rho, weights)
        return rho


@dataclass(frozen=True)
class ShiftReport:
    """Quadrature shifts together with every input that produced them."""

    Q_shift: float
    P_shift: float
    g: float
    t: float
    tau: float
    omega_f: float
    Delta: float
    weak_value_inputs: tuple[complex, ...]

    def __post_init__(self) -> None:
        for name in ("Q_shift", "P_shift", "g", "t", "tau", "omega_f", "Delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def quadratures_interaction(space: FockSpace, t_prime: float) -> tuple[np.ndarray, np.ndarray]:
    """Q and P in the interaction picture at time t_prime."""
    a, ad = ladder(space)
    up = np.exp(1j * space.omega_f * t_prime)
    Q = np.sqrt(space.hbar / (2.0 * space.omega_f)) * (ad * up + a * np.conj(up))
    P = 1j * np.sqrt(space.hbar * space.omega_f / 2.0) * (ad * up - a * np.conj(up))
    return Q, P


def meter_coupling_interaction(space: FockSpace, t_half: float) -> np.ndarray:
    """The coupled meter operator N_I = ad e^{1j w s} + a e^{-1j w s} at s = t_half.

    Dimensionless: equals sqrt(2 omega_f/hbar) Q_I(t_half).
    """
    a, ad = ladder(space)
    up = np.exp(1j * space.omega_f * t_half)
    return ad * up + a * np.conj(up)


def shift_general(L_I: np.ndarray, N_I: np.ndarray, mu0, wv: complex,
                  g: float, t: float) -> float:
    """Post-selected average of L_I to first order in g t, with denominator.

        <L>_f = [<L_I>_0 - 1j g t Re(wv) <[L_I, N_I]>_0 + g t Im(wv) <{L_I, N_I}>_0]
                / [1 + 2 g t Im(wv) <N_I>_0].

    mu0 is a MeterState or an explicit density matrix on the same space as
    the operators. The quotient is exact for the first-order joint state;
    meters calibrated to <N_I>_0 = 0 make the denominator exactly 1.
    """
    L_I = np.asarray(L_I, dtype=complex)
    N_I = np.asarray(N_I, dtype=complex)
    if isinstance(mu0, MeterState):
        rho = mu0.density_matrix(L_I.shape[0])
    else:
        rho = np.asarray(mu0, dtype=complex)
    gt = g * t
    L0 = np.trace(L_I @ rho)
    N0 = np.trace(N_I @ rho)
    comm = np.trace((L_I @ N_I - N_I @ L_I) @ rho)
    anti = np.trace((L_I @ N_I + N_I @ L_I) @ rho)
    num = L0 - 1j * gt * wv.real * comm + gt * wv.imag * anti
    den = 1.0 + 2.0 * gt * wv.imag * N0
    return float((num / den).real)


def _trig(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """math.cos and math.sin of each angle, NaN where the angle is not finite.

    math, not np.cos/np.sin: the two agree bit for bit only on some platforms.
    """
    angles = np.where(np.isinf(angles), np.nan, angles).tolist()
    return (np.fromiter(map(math.cos, angles), float, len(angles)),
            np.fromiter(map(math.sin, angles), float, len(angles)))


def rabi_shift_columns(n: float, wv, g: float, t: float, taus, omega_f: float,
                       hbar: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature shifts for a transverse (resonant) coupling, meter level n,
    on a whole tau grid: the Q and P arrays for the weak values wv[k] at taus[k].

    With theta = omega_f (t/2 + tau):

        <Q>_f = -2 g t sqrt(hbar/2 omega_f) [sin(theta) Re(wv) - (2n+1) cos(theta) Im(wv)],
        <P>_f = -2 g t sqrt(hbar omega_f/2) [cos(theta) Re(wv) + (2n+1) sin(theta) Im(wv)].

    The imaginary part of the weak value enters amplified by (2n+1); a
    thermal meter uses the same forms with n -> n_eq. An angle or product
    past the float range gives a non-finite entry, not a warning; the caller
    checks.
    """
    if n < 0.0:
        raise ValueError("occupation must be >= 0")
    wv = np.asarray(wv, dtype=complex)
    factor = 2.0 * n + 1.0
    q_unit = math.sqrt(hbar / (2.0 * omega_f))
    p_unit = math.sqrt(hbar * omega_f / 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        cos, sin = _trig(omega_f * (0.5 * t + np.asarray(taus, dtype=float)))
        Q = -2.0 * g * t * q_unit * (sin * wv.real - factor * cos * wv.imag)
        P = -2.0 * g * t * p_unit * (cos * wv.real + factor * sin * wv.imag)
    return Q, P


def rabi_shifts_number_state(n: float, wv: complex, g: float, t: float, tau: float,
                             omega_f: float, hbar: float = 1.0) -> ShiftReport:
    """The one-point case of rabi_shift_columns, as a checked ShiftReport
    (ValueError when a shift is not finite)."""
    (Q,), (P,) = rabi_shift_columns(n, [wv], g, t, [tau], omega_f, hbar)
    return ShiftReport(Q_shift=float(Q), P_shift=float(P), g=g, t=t, tau=tau,
                       omega_f=omega_f, Delta=0.0, weak_value_inputs=(complex(wv),))


def rabi_shifts_vacuum_polar(wv_modulus: float, wv_phase: float, g: float, t: float,
                             tau: float, omega_f: float, hbar: float = 1.0) -> ShiftReport:
    """Vacuum-meter shifts in polar form: a rotation in meter phase space.

        <Q>_f =  2 g t sqrt(hbar/2 omega_f) |wv| sin(phase - theta),
        <P>_f = -2 g t sqrt(hbar omega_f/2) |wv| cos(phase - theta),

    theta = omega_f (t/2 + tau). Identical to rabi_shifts_number_state(0, .).
    """
    theta = omega_f * (0.5 * t + tau)
    q_unit = math.sqrt(hbar / (2.0 * omega_f))
    p_unit = math.sqrt(hbar * omega_f / 2.0)
    Q = 2.0 * g * t * q_unit * wv_modulus * math.sin(wv_phase - theta)
    P = -2.0 * g * t * p_unit * wv_modulus * math.cos(wv_phase - theta)
    wv = wv_modulus * complex(math.cos(wv_phase), math.sin(wv_phase))
    return ShiftReport(Q_shift=Q, P_shift=P, g=g, t=t, tau=tau, omega_f=omega_f,
                       Delta=0.0, weak_value_inputs=(wv,))


class CommutatorAverages(NamedTuple):
    comm_Q: complex
    comm_P: complex
    anti_Q: complex
    anti_P: complex


class MeterBaseline(NamedTuple):
    Q0: float
    P0: float
    N0: float


def commutator_averages(space: FockSpace, mu0: MeterState, t: float,
                        tau: float) -> CommutatorAverages:
    """Averages of [Q_I, N_I], [P_I, N_I], {Q_I, N_I}, {P_I, N_I} over mu0.

    Readout quadratures at t + tau, coupling operator at t/2. The
    commutators are proportional to the identity, hence state-independent:

        <[Q_I, N_I]>_0 = -2j sqrt(hbar/2 omega_f) sin[omega_f (t/2 + tau)],
        <[P_I, N_I]>_0 = -2j sqrt(hbar omega_f/2) cos[omega_f (t/2 + tau)].

    The anticommutators carry a (2 <ad a>_0 + 1) factor plus a^2 and ad^2
    terms that vanish for energy-diagonal states.
    """
    if space.n_max < 2:
        warnings.warn("n_max < 2 truncates the anticommutator a^2/ad^2 terms",
                      stacklevel=2)
    rho = mu0.density_matrix(space.dim)
    Q_I, P_I = quadratures_interaction(space, t + tau)
    N_I = meter_coupling_interaction(space, 0.5 * t)
    out = []
    for L in (Q_I, P_I):
        out.append(complex(np.trace((L @ N_I - N_I @ L) @ rho)))
    for L in (Q_I, P_I):
        out.append(complex(np.trace((L @ N_I + N_I @ L) @ rho)))
    return CommutatorAverages(*out)


def baseline_averages(space: FockSpace, mu0: MeterState, t: float,
                      tau: float) -> MeterBaseline:
    """Unconditioned averages <Q_I>, <P_I> (at t + tau) and <N_I> (at t/2)."""
    rho = mu0.density_matrix(space.dim)
    Q_I, P_I = quadratures_interaction(space, t + tau)
    N_I = meter_coupling_interaction(space, 0.5 * t)
    return MeterBaseline(
        Q0=float(np.trace(Q_I @ rho).real),
        P0=float(np.trace(P_I @ rho).real),
        N0=float(np.trace(N_I @ rho).real),
    )


def jc_shift_columns(wv_plus, wv_minus, mu0: MeterState, g: float, t: float, taus,
                     omega_f: float, Delta: float,
                     hbar: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Rotating-wave quadrature shifts driven by the raising/lowering weak
    values, on a whole tau grid: the Q and P arrays for wv_plus[k] and
    wv_minus[k] at taus[k].

    For an energy-diagonal meter (number level n or thermal occupation n_eq),
    with chi = Delta t/2 + omega_f (t + tau):

        <Q>_f = 2 g t sqrt(hbar/2 omega_f) Im[e^{1j chi} wv_plus n + e^{-1j chi} wv_minus (n+1)],
        <P>_f = 2 g t sqrt(hbar omega_f/2) Re[e^{1j chi} wv_plus n - e^{-1j chi} wv_minus (n+1)].

    The n and n+1 weights come from <ad a> and <a ad>; a vacuum meter reads
    out the lowering weak value alone. Valid within the rotating-wave window
    Delta t << 1 (soft warning past 0.05, once per call). An angle or product
    past the float range gives a non-finite entry, not a warning; the caller
    checks.
    """
    if mu0.kind == "custom":
        raise ValueError("rotating-wave shifts support vacuum/number/thermal meters only")
    if abs(Delta * t) > 0.05:
        warnings.warn(f"Delta*t = {Delta * t:.3g} outside the rotating-wave "
                      "validity guard 0.05", stacklevel=2)
    wv_plus = np.asarray(wv_plus, dtype=complex)
    wv_minus = np.asarray(wv_minus, dtype=complex)
    n = mu0.mean_n()
    q_unit = math.sqrt(hbar / (2.0 * omega_f))
    p_unit = math.sqrt(hbar * omega_f / 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        cos, sin = _trig(0.5 * Delta * t + omega_f * (t + np.asarray(taus, dtype=float)))
        up_re, up_im = _cmul(*_cmul(cos, sin, wv_plus.real, wv_plus.imag), n, 0.0)
        down_re, down_im = _cmul(*_cmul(cos, -sin, wv_minus.real, wv_minus.imag),
                                 n + 1.0, 0.0)
        Q = 2.0 * g * t * q_unit * (up_im + down_im)
        P = 2.0 * g * t * p_unit * (up_re - down_re)
    return Q, P


def jc_shifts(wv_plus: complex, wv_minus: complex, mu0: MeterState, g: float,
              t: float, tau: float, omega_f: float, Delta: float,
              hbar: float = 1.0) -> ShiftReport:
    """The one-point case of jc_shift_columns, as a checked ShiftReport
    (ValueError when a shift is not finite)."""
    (Q,), (P,) = jc_shift_columns([wv_plus], [wv_minus], mu0, g, t, [tau], omega_f, Delta,
                                  hbar)
    return ShiftReport(Q_shift=float(Q), P_shift=float(P), g=g, t=t, tau=tau,
                       omega_f=omega_f, Delta=Delta,
                       weak_value_inputs=(complex(wv_plus), complex(wv_minus)))


def invert_weak_value(Q_f: float, P_f: float, averages: CommutatorAverages,
                      baseline: MeterBaseline, g: float, t: float) -> complex:
    """Recover the weak value from the two measured quadrature averages.

    Cross-multiplying the general shift quotient for L = Q_I and L = P_I
    gives a real linear 2x2 system in (gt Re(wv), gt Im(wv)):

        [-1j C_Q] x + [A_Q - 2 N0 Q_f] y = Q_f - Q0,
        [-1j C_P] x + [A_P - 2 N0 P_f] y = P_f - P0,

    with C = commutator averages (purely imaginary) and A = anticommutator
    averages. Solved by Cramer's rule; raises SingularInversion when the
    determinant is below 1e-12 in magnitude (shift pattern does not
    constrain the weak value) or when g t = 0.
    """
    gt = g * t
    if gt == 0.0:
        raise SingularInversion("g*t = 0: shifts carry no weak-value information")
    a11 = (-1j * averages.comm_Q).real
    a21 = (-1j * averages.comm_P).real
    a12 = averages.anti_Q.real - 2.0 * baseline.N0 * Q_f
    a22 = averages.anti_P.real - 2.0 * baseline.N0 * P_f
    b1 = Q_f - baseline.Q0
    b2 = P_f - baseline.P0
    det = a11 * a22 - a12 * a21
    if abs(det) < _SINGULAR_TOL:
        raise SingularInversion(f"inversion determinant {det:.3e} below 1e-12")
    re_gt = (b1 * a22 - a12 * b2) / det
    im_gt = (a11 * b2 - b1 * a21) / det
    return complex(re_gt / gt, im_gt / gt)


__all__ = [
    "MeterState",
    "ShiftReport",
    "CommutatorAverages",
    "MeterBaseline",
    "quadratures_interaction",
    "meter_coupling_interaction",
    "shift_general",
    "rabi_shift_columns",
    "rabi_shifts_number_state",
    "rabi_shifts_vacuum_polar",
    "commutator_averages",
    "baseline_averages",
    "jc_shift_columns",
    "jc_shifts",
    "invert_weak_value",
]
