"""Finite-difference eigensolver for the instantaneous moving-dot Hamiltonian.

Discretization: 3-point central Laplacian on a uniform grid with Dirichlet
boundaries (wavefunction implicitly zero one spacing outside the grid).
The solver extracts only the lowest-k eigenpairs of the resulting symmetric
tridiagonal matrix, as one :class:`Levels` record that carries its grid;
matrix elements of solved states are taken only by ``Levels.matrix``.

The Hamiltonian is in natural units only (see :mod:`sawqubit.params`):
hbar = 1 and mass 1/2, so the kinetic prefactor hbar^2/(2m) is 1.  The
grid coordinate and the potential are in the matching length and energy
units; the pipeline samples the model potential of
:mod:`sawqubit.potential` on z/a grids.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RESIDUAL_TOL = 1e-8
# Smallest fraction of a state's weight between the well's crests (see
# ``bound_fractions``) for the state to count as bound.
BOUND_FRACTION = 0.99


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

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = self.diagonal * psi
        out[:-1] += self.off_diagonal * psi[1:]
        out[1:] += self.off_diagonal * psi[:-1]
        return out


def build_hamiltonian(grid: Grid, potential) -> TridiagonalHamiltonian:
    """Assemble the 3-point finite-difference Hamiltonian -d^2/dz^2 + V.

    ``potential`` is a callable z -> energy (vectorized) sampled at the
    grid nodes at a fixed time.
    """
    v = np.asarray(potential(grid.points), dtype=float)
    if v.shape != (grid.n_points,):
        v = np.broadcast_to(v, (grid.n_points,)).astype(float)
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"non-finite potential sample at grid index {bad}")
    kin = 1.0 / grid.h**2
    diagonal = 2.0 * kin + v
    off_diagonal = np.full(grid.n_points - 1, -kin)
    return TridiagonalHamiltonian(diagonal=diagonal, off_diagonal=off_diagonal)


@dataclass(frozen=True)
class Levels:
    """The lowest levels of one solve, on the grid they were solved on.

    ``states`` holds one real, grid-normalized state per row
    (sum psi^2 h = 1), in the order of the nondecreasing ``energies``.
    """

    energies: np.ndarray  # (count,)
    states: np.ndarray  # (count, n_points)
    grid: Grid

    def matrix(self, f) -> np.ndarray:
        """Symmetric (count, count) matrix of <i| f |j> by grid quadrature,
        with f sampled at the grid nodes."""
        if np.shape(f) != (self.grid.n_points,):
            raise ValueError(f"operator shape {np.shape(f)} off the grid")
        count = len(self.states)
        m = np.empty((count, count))
        for i in range(count):
            for j in range(i, count):
                m[i, j] = m[j, i] = np.sum(
                    self.states[i] * f * self.states[j]) * self.grid.h
        return m


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Global sign convention: largest-magnitude component positive."""
    i = int(np.argmax(np.abs(vec)))
    return -vec if vec[i] < 0 else vec


def solve_lowest(H: TridiagonalHamiltonian, count: int, grid: Grid) -> Levels:
    """Lowest ``count`` levels of H, energies nondecreasing, orthonormal.

    Each state is normalized with the spacing h of ``grid``
    (sum |psi_i|^2 h = 1) and has its largest-magnitude component positive.
    """
    # imported here: scipy.linalg costs every process ~0.2-0.3 s to load,
    # and most subcommands never solve
    from scipy.linalg import eigh_tridiagonal

    n = H.n
    if not (1 <= count <= n):
        raise ValueError(f"count must be in [1, {n}], got {count}")
    try:
        w, v = eigh_tridiagonal(H.diagonal, H.off_diagonal,
                                select="i", select_range=(0, count - 1))
    except Exception as exc:  # pragma: no cover - LAPACK failure path
        raise SolverError(f"tridiagonal eigensolver failed for n={n}, "
                          f"count={count}: {exc}") from exc
    states = np.empty((count, n))
    for i in range(count):
        vec = _fix_sign(v[:, i]) / np.sqrt(grid.h)
        resid = np.linalg.norm(H.apply(vec) - w[i] * vec) / np.linalg.norm(vec)
        if resid > RESIDUAL_TOL * max(1.0, np.abs(H.diagonal).max()):
            raise SolverError(
                f"eigen-residual {resid:.3e} too large for level {i} "
                f"(energy {w[i]:.6e}, n={n})")
        states[i] = vec
    return Levels(energies=w, states=states, grid=grid)


def bound_fractions(levels: Levels, v: np.ndarray,
                    well_center: float) -> np.ndarray:
    """Fraction of each state's weight between the crests that flank the
    well: the highest samples of ``v``, the potential on the levels' grid,
    on either side of ``well_center``."""
    z = levels.grid.points
    if not z[0] < well_center < z[-1]:
        raise ValueError("well center lies outside the grid")
    c = int(np.searchsorted(z, well_center))
    lo, hi = int(np.argmax(v[:c])), c + int(np.argmax(v[c:]))
    return np.sum(levels.states[:, lo:hi + 1] ** 2, axis=1) * levels.grid.h
