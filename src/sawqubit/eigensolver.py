"""Finite-difference eigensolver for the instantaneous moving-dot Hamiltonian.

Discretization: 3-point central Laplacian on a uniform grid with Dirichlet
boundaries (wavefunction implicitly zero one spacing outside the grid).
The solver extracts only the lowest-k eigenpairs of the resulting symmetric
tridiagonal matrix, as one :class:`Levels` record that carries its grid;
matrix elements of solved states are taken only by ``Levels.matrix``.
It bisects the whole spectrum (LAPACK stebz, then stein) unless it is
given energy guesses, e.g. a neighbouring sample's levels: it then runs
inverse iteration from them and keeps the result only if a gate of
residuals, level spacing and a Sturm count proves it the lowest k, else
it bisects as without guesses.

The Hamiltonian is in natural units only (see :mod:`sawqubit.params`):
hbar = 1 and mass 1/2, so the kinetic prefactor hbar^2/(2m) is 1.  The
grid coordinate and the potential are in the matching length and energy
units; the pipeline samples the model potential of
:mod:`sawqubit.potential` on z/a grids.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def points(self) -> np.ndarray:
        """The nodes, built once per grid and read-only."""
        z = np.linspace(self.z_min, self.z_max, self.n_points)
        z.flags.writeable = False
        return z


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


def solve_lowest(H: TridiagonalHamiltonian, count: int, grid: Grid,
                 near=None) -> Levels:
    """Lowest ``count`` levels of H, energies nondecreasing, orthonormal.

    Each state is normalized with the spacing h of ``grid``
    (sum |psi_i|^2 h = 1) and has its largest-magnitude component positive.

    ``near``, when given, holds ``count`` energy guesses, e.g. the levels
    of a neighbouring sample: the levels are then found by inverse
    iteration from them (``_inverse_iteration``) and kept only if they
    pass its gate, which proves them the lowest ``count``.  Any other
    outcome, including non-finite guesses, falls back to bisecting the
    whole tridiagonal, the only path taken without ``near``.
    """
    n = H.n
    if not (1 <= count <= n):
        raise ValueError(f"count must be in [1, {n}], got {count}")
    pairs = None
    if near is not None:
        if np.shape(near) != (count,):
            raise ValueError(f"need {count} energy guesses, got shape "
                             f"{np.shape(near)}")
        pairs = _inverse_iteration(H, np.asarray(near, dtype=float))
    w, v = pairs if pairs is not None else _bisect(H, count)
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


def _bisect(H: TridiagonalHamiltonian, count: int):
    """Lowest ``count`` eigenpairs of H by bisection and inverse iteration
    (LAPACK stebz, then stein), as (energies, states in columns)."""
    # imported here, as in ``_inverse_iteration``: scipy.linalg costs
    # every process ~0.2-0.3 s to load, and most subcommands never solve
    from scipy.linalg import eigh_tridiagonal

    try:
        return eigh_tridiagonal(H.diagonal, H.off_diagonal,
                                select="i", select_range=(0, count - 1))
    except Exception as exc:  # pragma: no cover - LAPACK failure path
        raise SolverError(f"tridiagonal eigensolver failed for n={H.n}, "
                          f"count={count}: {exc}") from exc


# The gate on warm-started pairs, both relative to max|diag H| (about 5e5
# on the 1025-point dot window).  WARM_RESIDUAL_TOL bounds each residual
# |Hv - Ev| to ~5e-9 there: bisection pairs show ~1e-10, while pairs that
# inverse iteration leaves unconverged passed RESIDUAL_TOL with residuals
# up to 2e-4 and moved beta by ~1e-3.  WARM_SEPARATION, ~5 natural units,
# is the least spacing of accepted levels (dot spacings are 20-80) and
# the margin of the Sturm count above the top level: with residuals far
# below it, each accepted quotient lies next to its own eigenvalue, each
# state within residual/spacing (~1e-9) of its eigenvector, and a count
# of exactly ``count`` levels up to the margin leaves no lower one.
WARM_RESIDUAL_TOL = 1e-14
WARM_SEPARATION = 1e-5
# Inverse-iteration passes before bisecting: a guess within ~1 of its
# level takes two (residuals ~1e-6 of max|diag H|, then below 1e-15), one
# that is off by ~10 or next to a near crossing sometimes three.
WARM_PASSES = 3


def _inverse_iteration(H: TridiagonalHamiltonian, near: np.ndarray):
    """Eigenpairs of H next to the guesses ``near``, as (Rayleigh quotients,
    unit states in columns), or None unless they pass the gate.

    Inverse iteration (LAPACK stein) runs at the guesses, then at the
    Rayleigh quotients of what it found, until every residual is within
    WARM_RESIDUAL_TOL or WARM_PASSES passes are spent.  The gate: stein
    succeeds on increasing, finite shifts; the residuals converge; the
    quotients are at least WARM_SEPARATION apart in increasing order; and
    a Sturm count (stebz, counting only) finds exactly ``len(near)``
    eigenvalues up to the top quotient plus WARM_SEPARATION.  Never
    raises: any failure returns None.
    """
    from scipy.linalg.lapack import dstebz, dstein

    d, e = H.diagonal, H.off_diagonal
    # stein's wrapper takes no 1x1 matrix
    if H.n < 2 or not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        return None
    n, count = H.n, len(near)
    scale = max(1.0, np.abs(d).max())
    iblock = np.ones(n, dtype=np.intc)  # every level in one block,
    isplit = np.full(n, n, dtype=np.intc)  # which is the whole matrix
    w = near
    for _ in range(WARM_PASSES):
        if not (np.all(np.isfinite(w)) and np.all(w[1:] > w[:-1])):
            return None
        v, info = dstein(d, e, w, iblock, isplit)
        if info != 0:
            return None
        hv = np.column_stack([H.apply(col) for col in v.T])
        w = np.einsum("ij,ij->j", v, hv)
        resid = np.linalg.norm(hv - w * v, axis=0)
        if np.all(resid <= WARM_RESIDUAL_TOL * scale):
            break
    else:
        return None
    sep = WARM_SEPARATION * scale
    if not np.all(w[1:] - w[:-1] >= sep):
        return None
    # below every eigenvalue (Gershgorin), less the margin
    floor = d.min() - 2.0 * np.abs(e).max() - sep
    # range 1 counts the eigenvalues in (floor, top]; a tolerance of 1e300
    # ends the bisection at once, so stebz only counts
    found, _, _, _, info = dstebz(d, e, 1, floor, w[-1] + sep, 0, 0, 1e300,
                                  "E")
    if info != 0 or found != count:
        return None
    return w, v


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
