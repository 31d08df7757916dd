"""Meter-side readout of a weak measurement.

The meter couples to the system through its position-like quadrature for a
short time t; after conditioning on the post-selected system state, the
meter quadrature averages shift by amounts proportional to g t and to the
real and imaginary parts of the weak value. This module evaluates those
shifts in the paper's closed forms, which depend on the meter only through
its mean occupation n: the transverse (rabi) coupling driven by the weak
value, and the rotating-wave (jc) coupling driven by the raising/lowering
weak values. invert_weak_value is the algebraic inverse of the same two
forms, so a weak value read back from its own shifts is recovered to
rounding. A vacuum, number or thermal meter is diagonal in the energy
basis, so it satisfies the calibration <N_I(t/2)>_0 = 0 and commutes with
the field Hamiltonian; every readout takes its n first, as a float, and
refuses one that is not finite or is negative.

The two closed forms are evaluated on a whole tau grid at once:
rabi_shift_columns and jc_shift_columns take the weak values on the grid and
return the Q and P arrays, with the arithmetic of the per-point formula, so
each entry is bit-identical to a one-point call. rabi_shifts_number_state and
jc_shifts are that one-point case, returning (Q, P) as finite floats.

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

import numpy as np

from .errors import SingularInversion
from .operators import _cmul


def _check_occupation(n: float) -> None:
    """Refuse a mean meter occupation that is not finite or is negative."""
    if not 0.0 <= n < math.inf:
        raise ValueError("occupation must be finite and >= 0")


def _units(omega_f: float, hbar: float) -> tuple[float, float]:
    """The quadrature units sqrt(hbar/2 omega_f) and sqrt(hbar omega_f/2)."""
    return math.sqrt(hbar / (2.0 * omega_f)), math.sqrt(hbar * omega_f / 2.0)


def _rotating_wave_guard(Delta: float, t: float) -> None:
    """Warn when Delta t leaves the rotating-wave window. Each public entry
    calls it once, so the warning names that entry's caller."""
    if abs(Delta * t) > 0.05:
        warnings.warn(f"Delta*t = {Delta * t:.3g} outside the rotating-wave "
                      "validity guard 0.05", stacklevel=3)


def _one_point(Q: np.ndarray, P: np.ndarray) -> tuple[float, float]:
    """The one row of one-point shift columns as floats; ValueError if not finite."""
    if not np.isfinite([Q, P]).all():
        raise ValueError("the meter shifts are not finite")
    return Q.item(), P.item()


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
    _check_occupation(n)
    wv = np.asarray(wv, dtype=complex)
    factor = 2.0 * n + 1.0
    q_unit, p_unit = _units(omega_f, hbar)
    with np.errstate(over="ignore", invalid="ignore"):
        cos, sin = _trig(omega_f * (0.5 * t + np.asarray(taus, dtype=float)))
        Q = -2.0 * g * t * q_unit * (sin * wv.real - factor * cos * wv.imag)
        P = -2.0 * g * t * p_unit * (cos * wv.real + factor * sin * wv.imag)
    return Q, P


def rabi_shifts_number_state(n: float, wv: complex, g: float, t: float, tau: float,
                             omega_f: float, hbar: float = 1.0) -> tuple[float, float]:
    """The one-point case of rabi_shift_columns: (Q, P) as floats
    (ValueError when a shift is not finite)."""
    return _one_point(*rabi_shift_columns(n, [wv], g, t, [tau], omega_f, hbar))


def jc_shift_columns(n: float, wv_plus, wv_minus, g: float, t: float, taus,
                     omega_f: float, Delta: float,
                     hbar: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Rotating-wave quadrature shifts driven by the raising/lowering weak
    values, meter occupation n, on a whole tau grid: the Q and P arrays for
    wv_plus[k] and wv_minus[k] at taus[k].

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
    _check_occupation(n)
    _rotating_wave_guard(Delta, t)
    return _jc_columns(n, wv_plus, wv_minus, g, t, taus, omega_f, Delta, hbar)


def _jc_columns(n, wv_plus, wv_minus, g, t, taus, omega_f, Delta, hbar):
    """jc_shift_columns past its checks and its rotating-wave warning."""
    wv_plus = np.asarray(wv_plus, dtype=complex)
    wv_minus = np.asarray(wv_minus, dtype=complex)
    q_unit, p_unit = _units(omega_f, hbar)
    with np.errstate(over="ignore", invalid="ignore"):
        cos, sin = _trig(0.5 * Delta * t + omega_f * (t + np.asarray(taus, dtype=float)))
        up_re, up_im = _cmul(*_cmul(cos, sin, wv_plus.real, wv_plus.imag), n, 0.0)
        down_re, down_im = _cmul(*_cmul(cos, -sin, wv_minus.real, wv_minus.imag),
                                 n + 1.0, 0.0)
        Q = 2.0 * g * t * q_unit * (up_im + down_im)
        P = 2.0 * g * t * p_unit * (up_re - down_re)
    return Q, P


def jc_shifts(n: float, wv_plus: complex, wv_minus: complex, g: float, t: float,
              tau: float, omega_f: float, Delta: float, hbar: float = 1.0) -> tuple[float, float]:
    """The one-point case of jc_shift_columns: (Q, P) as floats
    (ValueError when a shift is not finite)."""
    _check_occupation(n)
    _rotating_wave_guard(Delta, t)
    return _one_point(*_jc_columns(n, [wv_plus], [wv_minus], g, t, [tau], omega_f, Delta, hbar))


def invert_weak_value(n: float, Q_f: float, P_f: float, model: str, g: float,
                      t: float, tau: float, omega_f: float, Delta: float,
                      hbar: float = 1.0) -> complex:
    """Recover the weak value from the two measured quadrature averages: the
    algebraic inverse of rabi_shift_columns or jc_shift_columns at one tau.

    With q = Q_f/(2 g t sqrt(hbar/2 omega_f)) and p = P_f/(2 g t sqrt(hbar omega_f/2)):

    - model "rabi", theta = omega_f (t/2 + tau), occupation n:
          wv = -sin(theta) q - cos(theta) p + 1j (cos(theta) q - sin(theta) p)/(2n+1);
    - model "jc" on an empty meter (n = 0), chi = Delta t/2 + omega_f (t + tau):
          wv_minus = e^{1j chi} (-p + 1j q),
      with the rotating-wave warning of jc_shift_columns.

    Raises SingularInversion when g t = 0 (the shifts carry no weak-value
    information) and for a jc meter with n > 0, whose shifts mix the raising
    and lowering weak values: four real unknowns from two quadratures. The
    arithmetic runs in numpy floats, so a scale 2 g t sqrt(.) that is 0 or
    past the float range, or an angle past it, gives a non-finite weak
    value, not an exception; the caller checks.
    """
    _check_occupation(n)
    if model == "jc" and n > 0.0:
        raise SingularInversion(
            f"meter.model 'jc' with occupation n = {n:g} > 0: the shifts mix the "
            "raising and lowering weak values, four real unknowns from two quadratures")
    if g * t == 0.0:
        raise SingularInversion("g*t = 0: shifts carry no weak-value information")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = 2.0 * g * t * np.array(_units(omega_f, hbar))
        # an infinite scale sends every weak value to non-finite shifts: no inverse
        q, p = np.array([Q_f, P_f]) / np.where(np.isinf(scale), np.nan, scale)
        if model == "jc":
            _rotating_wave_guard(Delta, t)
            (cos,), (sin,) = _trig(np.array([0.5 * Delta * t + omega_f * (t + tau)]))
            return complex(*_cmul(cos, sin, -p, q))
        (cos,), (sin,) = _trig(np.array([omega_f * (0.5 * t + tau)]))
        return complex(-sin * q - cos * p, (cos * q - sin * p) / (2.0 * n + 1.0))

