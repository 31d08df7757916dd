"""Weak values of a dissipative two-outcome protocol.

A weak measurement of an observable A on a system pre-selected in sigma_i,
followed by dissipation for a time tau and post-selection on sigma_fI (held
constant in the interaction picture), conditions the meter on

    A_w(tau) = Tr[sigma_fI e^{D tau}(A sigma_i)] / Tr[sigma_fI e^{D tau}(sigma_i)],

where the denominator is the post-selection probability. Besides the
dissipator it depends on sigma_i, sigma_fI and A alone (the meter coupling g t
enters only the readout, in meter): a WeakMeasurementSetup is that triple, and
its content_hash, a trace's setup_hash, covers nothing else. This module
evaluates the quotient numerically for any dissipator, on a tau grid or at
one tau, and in the infinite-time limit as the sweep's tau = inf row;
epsilon_states gives the nearly orthogonal pre/post pair whose short-time
weak values the estimation scenarios fit.

A tau grid is one call of lindblad.traces_over_tau for the numerators and
the denominator together; weak_value_dissipative is its one-point case, and
weak_value_limit_infinite its one-point case at tau = inf. A grid may end in
inf, so that one sweep gives a curve and its limit. One function,
_weak_values, forms every quotient and decides the gaps once, as the mask of
the rows kept, which a WeakValueTrace stores. A_SI may be a (k, n, n) stack of
observables sharing sigma_i, sigma_fI and the dissipator: each tau then
gives k weak values over one shared denominator.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EpsilonOutOfRange,
    NotDensity,
    PostselectionVanishes,
)
from .lindblad import (
    Dissipator,
    NonMarkovJC,
    describe,
    traces_over_tau,
)
from .lindblad import asymptotic_projector  # noqa: F401  (bench/tracing.py patches it here)
from .lindblad import evolve  # noqa: F401  (bench/tracing.py patches evolve here)
from .operators import is_density, pure_density

_VANISH_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class WeakMeasurementSetup:
    """What a weak value depends on besides the dissipator: the pre- and
    post-selected states and the weakly coupled observable.

    sigma_i and sigma_fI are density matrices (the post-selected one given
    directly in the interaction picture, where it is constant); A_SI is the
    measured observable at the effective interaction midpoint, or a (k, n, n)
    stack of k observables measured on the same states. The coupling g t of
    the meter enters only the meter readout, not the weak value, and is not
    part of the setup.
    """

    sigma_i: np.ndarray
    sigma_fI: np.ndarray
    A_SI: np.ndarray

    def __post_init__(self) -> None:
        sigma_i = np.asarray(self.sigma_i, dtype=complex)
        sigma_fI = np.asarray(self.sigma_fI, dtype=complex)
        A_SI = np.asarray(self.A_SI, dtype=complex)
        for name, rho in (("sigma_i", sigma_i), ("sigma_fI", sigma_fI)):
            if not is_density(rho, tol=1e-10):
                raise NotDensity(f"{name} is not a density matrix at tol 1e-10")
        if A_SI.ndim not in (2, 3) or A_SI.shape[-1] != A_SI.shape[-2] or not len(A_SI):
            raise DimensionMismatch("A_SI must be a square matrix or a nonempty stack of them")
        if not (sigma_i.shape == sigma_fI.shape == A_SI.shape[-2:]):
            raise DimensionMismatch(
                f"shape mismatch: sigma_i {sigma_i.shape}, sigma_fI {sigma_fI.shape}, "
                f"A_SI {A_SI.shape}")
        if not np.isfinite(A_SI).all():
            raise ValueError("A_SI entries must be finite")
        object.__setattr__(self, "sigma_i", sigma_i)
        object.__setattr__(self, "sigma_fI", sigma_fI)
        object.__setattr__(self, "A_SI", A_SI)

    @property
    def dim(self) -> int:
        return self.sigma_i.shape[0]

    @property
    def stacked(self) -> bool:
        return self.A_SI.ndim == 3

    def operands(self) -> list[np.ndarray]:
        """A_j sigma_i for each observable A_j, then sigma_i: the operators
        whose post-selected traces are the numerators and the denominator."""
        stack = self.A_SI.reshape(-1, self.dim, self.dim)
        return [A @ self.sigma_i for A in stack] + [self.sigma_i]

    def content_hash(self) -> str:
        """SHA-256 over the bytes of sigma_i, sigma_fI and A_SI."""
        h = hashlib.sha256()
        for arr in (self.sigma_i, self.sigma_fI, self.A_SI):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


class WeakValueSample(NamedTuple):
    value: complex | np.ndarray
    probability: float


def _postselected_traces(setup: WeakMeasurementSetup, d: Dissipator | NonMarkovJC,
                         taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (N, k) traces Tr[sigma_fI e^{D tau}(A_j sigma_i)] and the (N,)
    Tr[sigma_fI e^{D tau}(sigma_i)], finite (traces_over_tau refuses the rest)."""
    if d.dim != setup.dim:
        raise DimensionMismatch(f"dissipator dimension {d.dim} != setup dimension {setup.dim}")
    traces = traces_over_tau(d, setup.sigma_fI, setup.operands(), taus)
    return traces[:, :-1], traces[:, -1]


def _weak_values(num: np.ndarray,
                 den: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quotients of the finite post-selected traces num (N, k) over den
    (N,): the (N, k) weak values, NaN where |den| < _VANISH_TOL; the (N,)
    probabilities, the real part of den clamped at 0 and 0 there; and the
    (N,) mask of the rows kept. Each quotient is Python's complex division.
    _VANISH_TOL is absolute: a kept row's relative error is about its traces'
    error (~eps) over |den|, so about 1e-3 at |den| ~ 1e-13, printed to 17 digits.
    """
    kept = np.abs(den) >= _VANISH_TOL
    values = np.full(num.shape, complex(np.nan, np.nan))
    for j in range(num.shape[1]):
        values[kept, j] = [n / m for n, m in zip(num[kept, j].tolist(), den[kept].tolist())]
    probs = np.where(kept, np.maximum(den.real, 0.0), 0.0)
    return values, probs, kept


def weak_value_dissipative(setup: WeakMeasurementSetup, d: Dissipator | NonMarkovJC,
                           tau: float) -> WeakValueSample:
    """The dissipative weak value and the post-selection probability at tau.

    The one-point case of trace_over_tau: the quotient of the two
    post-selected traces is the weak value, the denominator alone the
    probability. Raises PostselectionVanishes when |denominator| < 1e-14
    (orthogonal pre/post selection, typically only possible at tau = 0), and
    NoConvergence when either trace is not finite (rates so large that the
    propagator overflows). For a stacked A_SI the value is the array of the k
    weak values.
    """
    num, den = _postselected_traces(setup, d, np.array([tau], dtype=float))
    values, probs, kept = _weak_values(num, den)
    if not kept[0]:
        raise PostselectionVanishes(f"post-selection probability vanishes at tau={tau} "
                                    f"(|den|={abs(den[0]):.3e})")
    return WeakValueSample(value=values[0] if setup.stacked else complex(values[0, 0]),
                           probability=float(probs[0]))


def weak_value_limit_infinite(setup: WeakMeasurementSetup,
                              d: Dissipator | NonMarkovJC) -> complex | np.ndarray:
    """The tau -> infinity weak value: the one-point sweep at tau = inf.

    That row of lindblad.traces_over_tau keeps the kernel of D, which one rule
    decides on the eigen weights and, where the eig guards fail, on
    asymptotic_projector's SVD: no large-tau propagation, so degenerate steady
    spaces (ground coherences) are kept and a mode decaying above roundoff is
    not. For a channel with a unique ground state, the sigma_- memory kernel
    included, the result is Tr[A sigma_i]. For a stacked A_SI, the array of
    the k limits. PostselectionVanishes when the limit's denominator does.
    """
    return weak_value_dissipative(setup, d, math.inf).value


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


@dataclass(frozen=True, eq=False)
class WeakValueTrace:
    """A weak-value curve over a tau grid.

    kept is the (N,) mask of the grid points where post-selection does not
    vanish, as _weak_values decided it; at the others (the gaps) values holds
    NaN and the probability is 0. For a stacked A_SI, values is (N, k), one
    column per observable, and kept and the probabilities, which come from
    the shared denominator, are shared. metadata holds the setup's
    content_hash and the channel's description.
    """

    tau_grid: np.ndarray
    values: np.ndarray
    postselection_probs: np.ndarray
    kept: np.ndarray
    metadata: dict

    def __post_init__(self) -> None:
        if not (len(self.tau_grid) == len(self.values) == len(self.postselection_probs)
                == len(self.kept)):
            raise DimensionMismatch("trace arrays must have equal length")

    @property
    def gaps(self) -> tuple[int, ...]:
        """The indices of the grid points that kept leaves out, in grid order."""
        return tuple(np.flatnonzero(~self.kept).tolist())


def trace_over_tau(setup: WeakMeasurementSetup, d: Dissipator | NonMarkovJC,
                   tau_grid) -> WeakValueTrace:
    """Evaluate the weak value on an increasing tau grid, which may end in
    tau = inf, the row of the limit tau -> infinity.

    Vanishing post-selection at a grid point is recorded as a gap (NaN
    value, probability 0), not raised: orthogonal pre/post pairs are a
    deliberate choice at tau = 0 and dissipation reopens the denominator
    for tau > 0.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or len(tau_grid) == 0:
        raise ValueError("tau_grid must be a nonempty 1-D array")
    if np.any(tau_grid[1:] <= tau_grid[:-1]):  # inf <= inf, where np.diff holds NaN
        raise ValueError("tau_grid must be strictly increasing")
    values, probs, kept = _weak_values(*_postselected_traces(setup, d, tau_grid))
    metadata = {
        "setup_hash": setup.content_hash(),
        "channel": describe(d),
    }
    return WeakValueTrace(tau_grid=tau_grid, values=values if setup.stacked else values[:, 0],
                          postselection_probs=probs, kept=kept, metadata=metadata)

