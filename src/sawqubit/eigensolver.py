"""Finite-difference eigensolver for the instantaneous moving-dot Hamiltonian.

Discretization: 3-point central Laplacian on a uniform grid with Dirichlet
boundaries (wavefunction implicitly zero one spacing outside the grid).
The solver extracts only the lowest-k eigenpairs of the resulting symmetric
tridiagonal matrix.

Everything here is unit-agnostic: the grid coordinate, mass, and potential
just have to be mutually consistent.  The production pipeline uses natural
units (hbar = 1, length unit a, mass 1/2).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .params import DeviceConfig, DerivedScales

# Natural-unit effective mass: with hbar = 1 and energies in units of
# hbar^2/(2 m* a^2), the kinetic prefactor hbar^2/(2m) equals 1.
NATURAL_MASS = 0.5

RESIDUAL_TOL = 1e-8
ORTHO_TOL = 1e-8
NORM_TOL = 1e-10


class SolverError(RuntimeError):
    """Eigensolver failure, with diagnostics in the message."""


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid with implied Dirichlet boundaries."""

    z_min: float
    z_max: float
    n_points: int

    @property
    def h(self) -> float:
        return (self.z_max - self.z_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.n_points)


def build_grid(z_min: float, z_max: float, n_points: int) -> Grid:
    if not (z_min < z_max):
        raise ValueError(f"degenerate grid extent: z_min={z_min} >= z_max={z_max}")
    if n_points < 3:
        raise ValueError(f"need at least 3 grid points, got {n_points}")
    return Grid(z_min=z_min, z_max=z_max, n_points=int(n_points))


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Symmetric tridiagonal operator; one off-diagonal array stores both sides."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    @property
    def n(self) -> int:
        return len(self.diagonal)

    def dense(self) -> np.ndarray:
        m = np.diag(self.diagonal)
        m += np.diag(self.off_diagonal, 1)
        m += np.diag(self.off_diagonal, -1)
        return m

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = self.diagonal * psi
        out[:-1] += self.off_diagonal * psi[1:]
        out[1:] += self.off_diagonal * psi[:-1]
        return out


def build_hamiltonian(grid: Grid, potential, m_star: float,
                      hbar: float = 1.0) -> TridiagonalHamiltonian:
    """Assemble the 3-point finite-difference Hamiltonian.

    ``potential`` is a callable z -> energy (vectorized) sampled at the
    grid nodes at a fixed time.
    """
    v = np.asarray(potential(grid.points), dtype=float)
    if v.shape != (grid.n_points,):
        v = np.broadcast_to(v, (grid.n_points,)).astype(float)
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"non-finite potential sample at grid index {bad}")
    kin = hbar**2 / (2.0 * m_star * grid.h**2)
    diagonal = 2.0 * kin + v
    off_diagonal = np.full(grid.n_points - 1, -kin)
    return TridiagonalHamiltonian(diagonal=diagonal, off_diagonal=off_diagonal)


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue and grid-normalized real eigenvector (sum |psi|^2 h = 1)."""

    energy: float
    wavefunction: np.ndarray
    index: int


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Global sign convention: largest-magnitude component positive."""
    i = int(np.argmax(np.abs(vec)))
    return -vec if vec[i] < 0 else vec


def solve_lowest(H: TridiagonalHamiltonian, count: int,
                 grid: Grid | None = None, h: float | None = None) -> list[EigenPair]:
    """Lowest ``count`` eigenpairs, energies nondecreasing, orthonormal.

    Normalization uses the grid spacing ``h`` (taken from ``grid`` if given,
    else 1), so that sum |psi_i|^2 h = 1.
    """
    n = H.n
    if not (1 <= count <= n):
        raise ValueError(f"count must be in [1, {n}], got {count}")
    if h is None:
        h = grid.h if grid is not None else 1.0
    try:
        w, v = eigh_tridiagonal(H.diagonal, H.off_diagonal,
                                select="i", select_range=(0, count - 1))
    except Exception as exc:  # pragma: no cover - LAPACK failure path
        raise SolverError(f"tridiagonal eigensolver failed for n={n}, "
                          f"count={count}: {exc}") from exc
    pairs = []
    for i in range(count):
        vec = _fix_sign(v[:, i]) / np.sqrt(h)
        resid = np.linalg.norm(H.apply(vec) - w[i] * vec) / np.linalg.norm(vec)
        if resid > RESIDUAL_TOL * max(1.0, np.abs(H.diagonal).max()):
            raise SolverError(
                f"eigen-residual {resid:.3e} too large for level {i} "
                f"(energy {w[i]:.6e}, n={n})")
        pairs.append(EigenPair(energy=float(w[i]), wavefunction=vec, index=i))
    return pairs


@dataclass(frozen=True)
class BoundClassification:
    bound: bool
    mass_fraction: float


def classify_bound(pair: EigenPair, grid: Grid, well_center: float,
                   well_width: float, threshold: float = 0.99) -> BoundClassification:
    """Is the state localized in the well window [center +/- width/2]?"""
    if not (well_width > 0):
        raise ValueError("well_width must be positive")
    lo, hi = well_center - well_width / 2.0, well_center + well_width / 2.0
    if hi < grid.z_min or lo > grid.z_max:
        raise ValueError("well window lies outside the grid")
    z = grid.points
    mask = (z >= lo) & (z <= hi)
    frac = float(np.sum(pair.wavefunction[mask] ** 2) * grid.h)
    return BoundClassification(bound=frac >= threshold, mass_fraction=frac)


def matrix_element(bra: EigenPair, ket: EigenPair, f, grid: Grid) -> float:
    """<bra| f(z) |ket> by grid quadrature; symmetric for real states."""
    if bra.wavefunction.shape != ket.wavefunction.shape or \
            bra.wavefunction.shape != (grid.n_points,):
        raise ValueError("bra/ket/grid size mismatch")
    fz = f(grid.points) if callable(f) else f
    return float(np.sum(bra.wavefunction * fz * ket.wavefunction) * grid.h)


def natural_effective_potential(config: DeviceConfig, scales: DerivedScales,
                                t: float):
    """Dimensionless effective potential at SI time t, as a function of z/a."""
    v0 = scales.V0_nat
    vs = scales.V_S_nat
    kn = scales.k_nat
    phase = scales.omega_saw * t

    def v(zeta):
        return v0 / np.cosh(zeta) ** 2 + vs * np.cos(kn * zeta - phase)

    return v
