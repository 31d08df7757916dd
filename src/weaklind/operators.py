"""Finite-dimensional complex operator algebra.

Pauli and Bloch machinery for two-level systems, truncated Fock-space ladder
operators and field quadratures for the meter mode, and the six-level
angular-momentum system (a J_g=1/2 <-> J_e=3/2 optical transition, four
excited Zeeman sublevels above two degenerate ground ones).

Conventions
-----------
Two-level basis order is (|e>, |g>), so sigma_z = diag(1, -1) and the Bloch
decomposition of a density matrix is rho = (1 + r.sigma)/2 with r_z = +1 for
the excited state. Six-level basis order is
(|e,-3/2>, |e,-1/2>, |e,1/2>, |e,3/2>, |g,-1/2>, |g,1/2>), i.e. increasing
magnetic quantum number within each block, excited block first. hbar defaults
to 1 and the field frequency omega_f stays an explicit parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormTooLarge, NotDensity

_SQRT3 = np.sqrt(3.0)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|


def _cmul(ar, ai, br, bi):
    """(ar + 1j ai)(br + 1j bi) as (real, imag), formed as CPython's and numpy's
    complex scalars form it; a real factor b is the complex b + 0j there.
    numpy's vectorised complex multiply may fuse the products and round
    differently (the sign of an underflowed zero, the last bit of a sum), so
    a grid formed with it would not match the scalar products bit for bit.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def pauli(axis: str) -> np.ndarray:
    """Return the Pauli matrix for axis 'x', 'y' or 'z' in the (|e>,|g>) basis."""
    try:
        return {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected 'x', 'y' or 'z'") from None


def is_hermitian(op: np.ndarray, tol: float = 1e-12) -> bool:
    """True when op equals its conjugate transpose within tol (max entry)."""
    op = np.asarray(op)
    return bool(np.abs(op - op.conj().T).max() <= tol)


def is_density(rho: np.ndarray, tol: float = 1e-10) -> bool:
    """True when rho is Hermitian, unit-trace and positive semidefinite up to tol."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if not is_hermitian(rho, tol):
        return False
    if abs(np.trace(rho) - 1.0) > tol:
        return False
    eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    return bool(eigs.min() >= -tol)


def pure_density(amplitudes: np.ndarray, normalize: bool = True) -> np.ndarray:
    """Projector |psi><psi| from a state vector, normalized by default."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if normalize:
        with np.errstate(over="ignore"):
            nrm = np.linalg.norm(psi)
        if (nrm == 0.0 or not np.isfinite(nrm)) and np.any(psi != 0.0):
            # the norm over- or underflowed: rescale by the largest component first
            parts = np.stack([psi.real, psi.imag])
            parts /= np.abs(parts).max()
            psi = parts[0] + 1j * parts[1]
            nrm = np.linalg.norm(psi)
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        psi = psi / nrm
    return np.outer(psi, psi.conj())


def bloch_to_density(v) -> np.ndarray:
    """Density matrix (1 + v.sigma)/2 of a Bloch vector v = (x, y, z).

    Raises NormTooLarge when |v| > 1 + 1e-12 (not a state).
    """
    v = np.asarray(v, dtype=float).reshape(3)
    norm = np.linalg.norm(v)
    if norm > 1.0 + 1e-12:
        raise NormTooLarge(f"Bloch vector norm {norm} exceeds 1")
    return 0.5 * (np.eye(2, dtype=complex) + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (x, y, z) of a 2x2 density matrix.

    Components are r_j = Tr[rho sigma_j]; round-trips with bloch_to_density
    to better than 1e-12. Raises NotDensity for non-states.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2) or not is_density(rho, tol=1e-10):
        raise NotDensity("expected a 2x2 density matrix")
    return np.array([
        float(np.trace(rho @ SIGMA_X).real),
        float(np.trace(rho @ SIGMA_Y).real),
        float(np.trace(rho @ SIGMA_Z).real),
    ])


@dataclass(frozen=True)
class FockSpace:
    """Truncated single-mode Fock space.

    n_max is the highest retained number state (dimension n_max + 1).
    The canonical commutator [Q, P] = i*hbar*1 holds exactly outside the
    truncation corner (n_max, n_max), where [a, a'] picks up -n_max instead
    of 1; tests pin that artifact.
    """

    n_max: int
    omega_f: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.omega_f <= 0.0 or self.hbar <= 0.0:
            raise ValueError("omega_f and hbar must be positive")

    @property
    def dim(self) -> int:
        return self.n_max + 1


def ladder(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation operators (a, a_dagger) on the truncated basis.

    a|n> = sqrt(n)|n-1>; a_dagger is the conjugate transpose.
    """
    n = np.arange(1, space.dim)
    a = np.zeros((space.dim, space.dim), dtype=complex)
    a[n - 1, n] = np.sqrt(n)
    return a, a.conj().T


def number_operator(space: FockSpace) -> np.ndarray:
    """a_dagger a, diagonal (0, 1, ..., n_max)."""
    a, adag = ladder(space)
    return adag @ a


def quadratures(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Field quadratures Q = sqrt(hbar/2w)(a' + a), P = i sqrt(hbar w/2)(a' - a)."""
    a, adag = ladder(space)
    q = np.sqrt(space.hbar / (2.0 * space.omega_f)) * (adag + a)
    p = 1.0j * np.sqrt(space.hbar * space.omega_f / 2.0) * (adag - a)
    return q, p


def jy_six_level() -> np.ndarray:
    """The y angular-momentum operator of the six-level system (hbar = 1).

    Block diagonal: the spin-3/2 J_y on the four excited sublevels and the
    spin-1/2 J_y on the two ground sublevels, in the increasing-m basis order
    stated in the module docstring. Eigenvalues are (+-3/2, +-1/2) on the
    excited block and +-1/2 on the ground block.
    """
    jy = np.zeros((6, 6), dtype=complex)
    jy[0, 1] = 1.0j * _SQRT3 / 2.0
    jy[1, 2] = 1.0j
    jy[2, 3] = 1.0j * _SQRT3 / 2.0
    jy[4, 5] = 1.0j / 2.0
    return jy + jy.conj().T


def sodium_jump_operators() -> list[tuple[np.ndarray, str]]:
    """Spontaneous-emission jump operators of the six-level system.

    One operator per emitted-photon polarization q in {0, -, +}, with the
    Clebsch-Gordan amplitudes of the J_g=1/2 <-> J_e=3/2 transition:

        L_0 = sqrt(2/3) (|g,-1/2><e,-1/2| + |g,1/2><e,1/2|)
        L_- = |g,-1/2><e,-3/2| + (1/sqrt3)|g,1/2><e,-1/2|
        L_+ = (1/sqrt3)|g,-1/2><e,1/2| + |g,1/2><e,3/2|

    Each annihilates both ground states, and sum_q L_q' L_q = 1 on the
    excited block (every excited level decays at the full rate).
    """
    l0 = np.zeros((6, 6), dtype=complex)
    l0[4, 1] = np.sqrt(2.0 / 3.0)
    l0[5, 2] = np.sqrt(2.0 / 3.0)
    lm = np.zeros((6, 6), dtype=complex)
    lm[4, 0] = 1.0
    lm[5, 1] = 1.0 / _SQRT3
    lp = np.zeros((6, 6), dtype=complex)
    lp[4, 2] = 1.0 / _SQRT3
    lp[5, 3] = 1.0
    return [(l0, "0"), (lm, "-"), (lp, "+")]
