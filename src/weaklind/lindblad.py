"""Lindblad dissipators and the channel maps they generate.

The dissipator acting on an arbitrary (not necessarily Hermitian) operator C is

    D(C) = sum_i gamma_i (L_i C L_i' - 1/2 {L_i' L_i, C}),

with jump operators L_i and nonnegative rates gamma_i. Dissipator(jumps, rates)
holds constant rates and their materialized superoperator M, refused when it
is not finite. NonMarkovJC(gamma0, lam) is the sigma_- channel of the
non-Markovian damped atom at dim 2, whose time-dependent rate is the memory
kernel; its map is closed form through the excited-amplitude envelope
nonmarkov_big_gamma(d, tau). Both check themselves when they are made, where
a NonMarkovJC also derives its d; named_channel alone builds the channels of
NAMED_CHANNELS, and describe(d) states either kind in one line.

Each kind has one kernel for Tr[F e^{D tau}(C)], the eigen rows of M (expm,
and with it scipy.linalg, only where their guards fail) or the closed-form
maps: traces_over_tau(d, F, operands, taus) on a tau grid, and evolve(d, C,
tau) with F running over the matrix units, so that evolve(d, C, tau)[i, j] is
traces_over_tau(d, E_ji, [C], [tau])[0, 0] bit for bit. tau = inf is a grid
point whose row is the limit tau -> infinity: the eigen row keeps the kernel
of M, or the SVD asymptotic_projector where the guards fail, one rule (_kernel)
deciding both, and the sigma_- map keeps Gamma = 0. The map preserves traces,
commutes with the adjoint, and for constant rates is a semigroup.

Vectorization is column-stacking: vec(A B C) = (C^T kron A) vec(B), so the
superoperator matrix of C -> L C L' is conj(L) kron L.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NegativeTau, NoConvergence
from .operators import SIGMA_MINUS, _cmul, sodium_jump_operators

_EIG_COND_MAX = 1e4
_EIG_BLOCK = 1 << 16  # the products of one block of _eigen_traces rows


@dataclass(frozen=True)
class NonMarkovJC:
    """The sigma_- channel of a two-level atom in a lossy cavity.

    A single excitation exchanged with a Lorentzian reservoir of width lam
    (memory time 1/lam) and Markovian-limit rate gamma0 decays through the
    jump sigma_- = |g><e| at the time-convolutionless rate

        gamma(tau) = 2 gamma0 lam sinh(d tau/2) / (d cosh(d tau/2) + lam sinh(d tau/2)),
        d = sqrt(lam^2 - 2 gamma0 lam).

    Weak coupling (lam > 2 gamma0) has real d and gamma(tau) -> gamma0 for
    lam >> gamma0. Strong coupling (lam < 2 gamma0) has imaginary d: the
    hyperbolic functions become trigonometric, the excited amplitude
    oscillates through zero, and gamma(tau) diverges at each zero crossing.
    ValueError unless gamma0 and lam are finite and > 0; d is derived once, when made.
    """

    gamma0: float
    lam: float
    dim = 2
    scaled_d: tuple[complex, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the chained comparisons are False for NaN as well
        if not (0.0 < self.gamma0 < math.inf and 0.0 < self.lam < math.inf):
            raise ValueError("gamma0 and lam must be finite and strictly positive")
        object.__setattr__(self, "scaled_d", _nonmarkov_d(self.gamma0, self.lam))


@dataclass(frozen=True, eq=False)
class Dissipator:
    """Jump operators, each with a constant rate, checked index by index (the jump
    square and finite, then its rate real, finite and >= 0) and then for a shared
    shape; dim and the superoperator M come from them when the dissipator is made."""

    jumps: tuple[np.ndarray, ...]
    rates: tuple[float, ...]
    dim: int = field(init=False)
    superoperator: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        jumps, rates = list(self.jumps), list(self.rates)
        if len(jumps) != len(rates):
            raise ValueError("jumps and rates must have equal length")
        if not jumps:
            raise ValueError("at least one dissipation channel is required")
        for k, (jump, rate) in enumerate(zip(jumps, rates)):
            jumps[k] = jump = np.asarray(jump, dtype=complex)
            if jump.ndim != 2 or jump.shape[0] != jump.shape[1]:
                raise DimensionMismatch("jump operator must be a square matrix")
            if not np.all(np.isfinite(jump.view(float))):
                raise ValueError("jump operator entries must be finite")
            if not isinstance(rate, numbers.Real):  # a NonMarkovJC is a dissipator
                raise TypeError("rate must be a real number")
            rates[k] = rate = float(rate)  # numpy scalars included
            if not math.isfinite(rate) or rate < 0.0:
                raise ValueError("constant rate must be finite and >= 0")
        dim = jumps[0].shape[0]
        for jump in jumps:
            if jump.shape != (dim, dim):
                raise DimensionMismatch(
                    f"jump operator shape {jump.shape} does not match dim {dim}")
        object.__setattr__(self, "jumps", tuple(jumps))
        object.__setattr__(self, "rates", tuple(rates))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "superoperator", _superoperator_matrix(jumps, rates, dim))


# name -> (its rate fields, the first being its characteristic rate; its dimension)
NAMED_CHANNELS = {"amplitude_damping": (("gamma",), 2), "sodium": (("rate",), 6),
                  "nonmarkov_jc": (("gamma0", "lam"), 2)}


def named_channel(name: str, rates) -> tuple[Dissipator | NonMarkovJC, float]:
    """The named channel at rates (its rate fields -> values) and its characteristic
    rate: sigma_- damping, the three sodium polarization channels, or NonMarkovJC."""
    rate = rates[NAMED_CHANNELS[name][0][0]]
    if name == "nonmarkov_jc":
        return NonMarkovJC(gamma0=rates["gamma0"], lam=rates["lam"]), rate
    jumps = sodium_jump_operators() if name == "sodium" else [SIGMA_MINUS]
    return Dissipator(jumps, [rate] * len(jumps)), rate


def describe(d: Dissipator | NonMarkovJC) -> str:
    """dim, then each jump's short hash with its constant rate or memory kernel."""
    if isinstance(d, NonMarkovJC):
        tagged = [(SIGMA_MINUS, f"nonmarkov(gamma0={d.gamma0!r}, lam={d.lam!r})")]
    else:
        tagged = [(L, f"rate={r!r}") for L, r in zip(d.jumps, d.rates)]
    parts = [f"jump#{hashlib.sha256(np.ascontiguousarray(L).tobytes()).hexdigest()[:12]} {tag}"
             for L, tag in tagged]
    return f"dim={d.dim}; " + "; ".join(parts)


def _check_operator(C: np.ndarray, dim: int) -> np.ndarray:
    C = np.asarray(C, dtype=complex)
    if C.shape != (dim, dim):
        raise DimensionMismatch(f"expected a {dim}x{dim} operator, got shape {C.shape}")
    return C


def _vec(C: np.ndarray) -> np.ndarray:
    return C.reshape(-1, order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape(dim, dim, order="F")


def _kron4(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.kron(A, B) as a (dim, dim, dim, dim) array: the same product
    A[i, j] B[k, l] at [i, k, j, l], without np.kron's per-call overhead."""
    return A[:, None, :, None] * B[None, :, None, :]


@np.errstate(over="ignore", invalid="ignore")
def _superoperator_matrix(jumps, rates, dim: int) -> np.ndarray:
    # one jump at a time: a (dim,)*4 term is already 16 MB at dim 32
    eye = np.eye(dim)
    M = np.zeros((dim * dim, dim * dim), dtype=complex)
    for L, rate in zip(jumps, rates):
        LdL = L.conj().T @ L
        piece = _kron4(L.conj(), L) - 0.5 * (_kron4(eye, LdL) + _kron4(LdL.T, eye))
        M += (rate * piece).reshape(M.shape)
    if not np.isfinite(M).all():
        raise NoConvergence("the superoperator is not finite: its rates and jumps overflow")
    return M


def _check_tau(tau: float | np.ndarray) -> None:
    """NegativeTau unless tau, one number or every tau of a grid, is >= 0: NaN
    and -inf are refused, and +inf is the limit tau -> infinity."""
    if not ((tau >= 0.0).all() if isinstance(tau, np.ndarray) else tau >= 0.0):
        raise NegativeTau("tau must be >= 0")


def _damping_maps(C: np.ndarray, G: np.ndarray) -> np.ndarray:
    """[[c_ee G^2, c_eg G], [c_ge G, c_gg + c_ee (1 - G^2)]] at every G_k, stacked
    (N, 2, 2), for a checked 2x2 C. Each product of an entry with a real G is
    the complex product with G + 0j in real arithmetic (_cmul), so that every
    map is the one formed entry by entry in complex scalars, bit for bit."""
    ee, eg, ge, gg = ((z.real, z.imag) for z in C.flat)
    loss_re, loss_im = _cmul(*ee, 1.0 - G * G, 0.0)
    entries = (_cmul(*_cmul(*ee, G, 0.0), G, 0.0), _cmul(*eg, G, 0.0), _cmul(*ge, G, 0.0),
               (gg[0] + loss_re, gg[1] + loss_im))
    return np.ascontiguousarray(np.transpose(entries, (2, 0, 1))).view(complex).reshape(-1, 2, 2)


def _nonmarkov_d(gamma0: float, lam: float) -> tuple[complex, float]:
    """(d/scale, scale) for d = sqrt(lam^2 - 2 gamma0 lam) and scale = 2^k ~ max(gamma0, lam).

    The exact power-of-two scaling keeps lam^2 and gamma0 lam finite near the
    float limit, and |d| <= max(gamma0, lam) is finite too."""
    scale = 2.0 ** (math.frexp(max(gamma0, lam))[1] - 1)
    g, l = gamma0 / scale, lam / scale
    return cmath.sqrt(complex(l * l - 2.0 * g * l)), scale


def _envelope_pieces(channel: NonMarkovJC, tau: float) -> tuple[complex, complex, float]:
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
    gamma0, lam, (ds, scale) = channel.gamma0, channel.lam, channel.scaled_d
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


def nonmarkov_big_gamma(d: NonMarkovJC, tau: float) -> float:
    """Excited-state amplitude envelope Gamma(tau) of the non-Markovian channel d.

    Gamma(tau) = exp(-lam tau/2) [cosh(d tau/2) + (lam/d) sinh(d tau/2)],
    continued to complex d; solves Gamma'' + lam Gamma' + (gamma0 lam/2) Gamma = 0
    with Gamma(0) = 1, Gamma'(0) = 0, and satisfies |Gamma| <= 1. It enters
    the channel map (_damping_maps) as exp(-gamma tau/2) enters the
    constant-rate damping map. NegativeTau unless tau >= 0. Gamma(inf) = 0.0 on
    every coupling: |Gamma| <= e^{(Re d - lam) tau/2} (1 + lam tau/2), Re d < lam.
    """
    _check_tau(tau)
    if tau == math.inf:
        return 0.0
    c, ls, a = _envelope_pieces(d, float(tau))  # a numpy scalar would warn on overflow
    # d is real or purely imaginary, so every imaginary part of c, ls and e^a
    # is +-0 and Gamma is real (NaN only where inf * 0 meets in the product)
    return (cmath.exp(a) * (c + ls)).real


def _exponential_map(M: np.ndarray, tau: float) -> np.ndarray:
    """expm(tau M), refused with NoConvergence naming tau when it is not finite,
    as when rates near the float limit overflow tau M or expm's squaring."""
    from scipy.linalg import expm  # on the first call only: importing it takes 0.2 s
    with np.errstate(over="ignore", invalid="ignore"):
        S = expm(tau * M)
    if not np.isfinite(S).all():
        raise NoConvergence(f"the channel map is not finite at tau={tau}")
    return S


def _kernel(x: np.ndarray) -> np.ndarray:
    """The kernel of M among its eigen- or singular values x: |x| <= 16 n eps max|x|,
    n = len(x), and the smallest |x|, as vec(I) is a left null vector of every M."""
    kernel = np.abs(x) <= 16 * len(x) * np.finfo(float).eps * np.abs(x).max()
    kernel[np.abs(x).argmin()] = True
    return kernel


def _eigen_traces(r: np.ndarray | None, X: np.ndarray, M: np.ndarray,
                  taus: np.ndarray) -> np.ndarray | None:
    """r^T exp(tau_k M) X, (N, p k), from M = V diag(lam) V^-1; r = None, every
    unit row, takes V's rows (p = n). W_m sums the weights (r^T V)_i (V^-1 X)_ij
    of each bitwise-distinct lam_m, in index order, and row k sums e_m W_m in the
    first-seen order of m by _cmul, a function of tau_k alone, with e_m =
    exp(tau_k lam_m), or at tau_k = inf e_m = [lam_m == 0]: the kernel's weight.
    None when eig does not converge, cond(V) exceeds _EIG_COND_MAX (a nearly
    defective M), or max|lam| tau_max is not finite, tau_max the largest finite
    tau, and at least 1 for an inf. Re lam is clamped to <= 0: a bounded
    semigroup has no growing mode. The kernel's lam (_kernel) are set to 0: a
    kernel eigenvalue's roundoff would otherwise move the steady part at huge tau
    (|lam| tau ~ 1 at tau ~ 1e15), and the limit would keep no mode at all."""
    try:
        lam, V = np.linalg.eig(M)
    except np.linalg.LinAlgError:
        return None
    tau_max = float(np.where(taus < math.inf, taus, 1.0).max(initial=0.0))
    # the bound in Python floats: an infinite one must not raise a numpy overflow warning
    if not (np.linalg.cond(V) <= _EIG_COND_MAX and math.isfinite(
            float(np.abs(lam.view(float)).max()) * tau_max)):
        return None
    lam = np.minimum(lam.real, 0.0) + 1j * lam.imag
    lam[_kernel(lam)] = 0.0
    rows = V if r is None else (r @ V)[None]
    weights = rows.T[:, :, None] * np.linalg.solve(V, X)[:, None]  # (i, row, j)
    # keyed on the bytes: float equality would merge +0.0 and -0.0
    slot = {}
    cols = [slot.setdefault(key, len(slot)) for key in lam.view("V16").tolist()]
    W = np.zeros((len(slot), weights[0].size, 1), dtype=complex)
    np.add.at(W, cols, weights.reshape(len(lam), -1, 1))
    lam = np.frombuffer(b"".join(slot), dtype=complex)[:, None]
    step = max(1, _EIG_BLOCK // W.size)
    traces = np.empty((W.shape[1], len(taus)), dtype=complex)
    for start in range(0, len(taus), step):
        t = taus[start:start + step]
        finite = t < math.inf
        z = np.empty((len(lam), len(t)), dtype=complex)
        z.real, z.imag = _cmul(np.where(finite, t, 0.0), 0.0, lam.real, lam.imag)
        e = np.where(finite, np.exp(z), lam == 0.0)[:, None]
        re, im = _cmul(e.real, e.imag, W.real, W.imag)  # (m, j, k): summed over m in order
        traces.real[:, start:start + step], traces.imag[:, start:start + step] = (
            sum(re[1:], re[0]), sum(im[1:], im[0]))
    return traces.T


def _trace_sums(F: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Tr[F X] over broadcast stacks of operators: the _cmul products F_ab X_ba
    summed in row-major (a, b) order, whose bits no BLAS kernel or shape moves."""
    terms = [_cmul(F[..., a, b].real, F[..., a, b].imag, X[..., b, a].real, X[..., b, a].imag)
             for a, b in np.ndindex(F.shape[-2:])]
    re, im = (sum(part[1:], part[0]) for part in zip(*terms))
    return np.stack([re, im], axis=-1).view(complex)[..., 0]


def traces_over_tau(d: Dissipator | NonMarkovJC, F: np.ndarray, operands,
                    taus) -> np.ndarray:
    """Tr[F e^{D tau_n}(C_j)] for every tau_n of taus and operand C_j, an (N, k) array.

    Constant rates take the rows of one eigendecomposition (_eigen_traces) or,
    where its guards fail, one expm per nonzero tau; the sigma_- memory kernel
    stacks _damping_maps, one envelope per nonzero tau. A row depends on its
    tau alone, and a map's trace is a fixed-order scalar sum (_trace_sums).
    The row at tau = inf is the limit: the eigen row that keeps the kernel of
    M, the fallback's asymptotic_projector map or the sigma_- map at Gamma = 0.
    ValueError unless taus is 1-D and operands nonempty; NegativeTau unless
    every tau >= 0. NoConvergence names the first tau whose row or expm is not
    finite, or, when every earlier row is, a failing envelope's or projector's.
    Open: on a generator with a decoherence-free subspace an expm row at
    tau = 1e12 can be off by 5.1e-3 relative (eigen and inf rows: 1e-10)."""
    return _traces(d, _check_operator(F, d.dim), operands, taus)[:, 0]


@np.errstate(over="ignore", invalid="ignore")  # a row that overflows is refused below
def _traces(d: Dissipator | NonMarkovJC, F: np.ndarray | None, operands, taus) -> np.ndarray:
    """traces_over_tau as (N, p, k), for F alone (p = 1) or, for F = None, the
    matrix units F_p = E_ji, p = i + j dim, whose traces make vec(e^{D tau_n}(C_j))."""
    taus = np.asarray(taus, dtype=float)
    operands = [_check_operator(C, d.dim) for C in operands]
    if taus.ndim != 1 or not operands:
        raise ValueError("traces need a 1-D tau grid and at least one operand")
    _check_tau(taus)
    Fs = np.eye(d.dim ** 2).reshape(-1, d.dim, d.dim) if F is None else F[None]
    if isinstance(d, NonMarkovJC):
        G, failure = [], None
        try:
            for tau in taus.tolist():
                G.append(nonmarkov_big_gamma(d, tau) if tau else 1.0)
        except NoConvergence as exc:
            failure = exc
        at_zero = (taus[:len(G)] == 0.0)[:, None, None]  # the identity, not the map at G = 1
        maps = [np.where(at_zero, C, _damping_maps(C, np.array(G)))[:, None] for C in operands]
        traces = _trace_sums(Fs[None, :, None], np.stack(maps, axis=2))
        if failure is not None and np.isfinite(traces).all():
            raise failure
    else:
        # Tr[F C] = vec(F^T) . vec(C) in the column stacking of the superoperator
        X, M = np.array([_vec(C) for C in operands]).T, d.superoperator
        traces = _eigen_traces(None if F is None else _vec(F.T), X, M, taus)
        if traces is None:
            traces = np.full((len(taus), len(Fs), len(operands)), complex(np.nan, np.nan))
            for k, tau in enumerate(taus.tolist()):
                if tau:
                    S = _exponential_map(M, tau) if tau < math.inf else asymptotic_projector(d)
                evolved = [apply_superoperator(S, C) for C in operands] if tau else operands
                traces[k] = _trace_sums(Fs[:, None], np.array(evolved))
                if not np.isfinite(traces[k]).all():  # a larger tau would overflow further
                    break
        traces = traces.reshape(len(taus), len(Fs), len(operands))
    if not np.isfinite(traces).all():
        first = np.isfinite(traces).all(axis=(1, 2)).argmin()
        raise NoConvergence(f"the evolved traces are not finite at tau={taus[first].item()}")
    return traces


def evolve(d: Dissipator | NonMarkovJC, C: np.ndarray, tau: float) -> np.ndarray:
    """e^{D tau}(C) for any operator C: a copy at tau = 0, else the kernel's traces of the
    matrix units, entry (i, j) bit for bit traces_over_tau(d, E_ji, [C], [tau])[0, 0];
    at tau = inf the limit map of C."""
    _check_tau(tau)  # before the operator
    C = _check_operator(C, d.dim)
    if tau == 0.0:
        return C.copy()
    return _unvec(_traces(d, None, [C], [tau])[0, :, 0], d.dim)


def asymptotic_projector(d: Dissipator | NonMarkovJC) -> np.ndarray:
    """The superoperator P = lim_{tau->inf} e^{D tau} (constant rates), from one
    SVD M = U diag(s) Vh: the tau = inf map of traces_over_tau where eig's guards fail.

    P = R (L' R)^{-1} L' projects onto the kernel of M along the decaying modes, R and
    L its right and left kernels (M R = 0, L' M = 0). Its rank, at least 1, is the eigen
    path's rule (_kernel) on the singular values, so P is unchanged when every rate is
    scaled; NoConvergence if s_max overflows. Zero is a semisimple eigenvalue of a bounded
    Lindblad semigroup (Albert & Jiang, PRA 89, 022118, 2014), so L' R is invertible.
    """
    if isinstance(d, NonMarkovJC):
        raise NoConvergence("asymptotic projector requires constant rates")
    U, svals, Vh = np.linalg.svd(d.superoperator)
    if not np.isfinite(svals[0]):
        raise NoConvergence("the superoperator's largest singular value overflows")
    n_zero = int(_kernel(svals).sum())  # svals descend: the kernel is their tail
    R, L = Vh[-n_zero:].conj().T, U[:, -n_zero:]
    return R @ np.linalg.solve(L.conj().T @ R, L.conj().T)


def apply_superoperator(S: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Apply a (dim^2 x dim^2) superoperator to a dim x dim operator, or DimensionMismatch."""
    dim = math.isqrt(len(S))
    S, C = _check_operator(S, dim * dim), _check_operator(C, dim)
    return _unvec(S @ _vec(C), dim)
