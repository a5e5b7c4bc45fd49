"""High-level workflow shared by the CLI and the validation suite.

Ties the modules together: default grid and time sampling, level tracking
over one SAW period, selection of the representative time of strongest
confinement, and the single-qubit quantities (splitting, drive coupling)
evaluated there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import adiabatic, dynamics, twoqubit
from .constants import PhysicalConstants, CONSTANTS
from .eigensolver import (NATURAL_MASS, EigenPair, Grid, build_grid,
                          build_hamiltonian, natural_effective_potential,
                          solve_lowest)
from .params import DeviceConfig, DerivedScales, derive_scales

DEFAULT_N_POINTS = 4096
DEFAULT_N_TIMES = 64
DEFAULT_N_LEVELS = 3

# Reference per-dot position matrix elements for a two-channel device
# (upper/lower), in meters; used to exercise the coupling pipeline without
# re-solving the spectra.
REFERENCE_Z_UPPER = twoqubit.ZMatrixElements(
    z00=-5.6186e-7, z11=-5.6975e-7, z01=-5.6431e-8)
REFERENCE_Z_LOWER = twoqubit.ZMatrixElements(
    z00=-5.3594e-7, z11=-5.4418e-7, z01=-5.6607e-8)
REFERENCE_QUBIT_SPLITTING = 8.3667e-23  # J, used with the reference elements


def default_grid(config: DeviceConfig) -> Grid:
    """Natural-unit (z/a) grid spanning [-2 lambda, +2 lambda]."""
    half = 2.0 * config.saw_wavelength / config.a
    return build_grid(-half, half, DEFAULT_N_POINTS)


def default_times(scales: DerivedScales,
                  n_times: int = DEFAULT_N_TIMES) -> np.ndarray:
    """Midpoint samples over one SAW period.

    Midpoints avoid the mirror-symmetric instants t = 0 and t = T/2 at
    which pairs of wells are exactly degenerate and eigenstates hybridize
    across wells.
    """
    return (np.arange(n_times) + 0.5) * (scales.T_period / n_times)


# The moving-dot (qubit) levels sit high in the global spectrum of the
# full domain, whose lowest states live in the deep SAW troughs outside the
# channel.  The dot levels are therefore solved on a moving window of width
# lambda centered on the tracked well minimum, with Dirichlet walls on the
# surrounding potential crests.
DOT_WINDOW_POINTS = 1025


def dot_grid(center: float, config: DeviceConfig,
             n_points: int = DOT_WINDOW_POINTS) -> Grid:
    """Window grid of width lambda (in z/a units) around a well center."""
    half = 0.5 * config.saw_wavelength / config.a
    return build_grid(center - half, center + half, n_points)


def solve_dot_levels(t: float, config: DeviceConfig, scales: DerivedScales,
                     count: int = DEFAULT_N_LEVELS,
                     n_points: int = DOT_WINDOW_POINTS
                     ) -> tuple[list, Grid, float]:
    """Lowest ``count`` levels of the well nearest the barrier at SI time t.

    Returns (eigenpairs, window grid, well center in z/a units).  The window
    walls sit on the potential crests flanking the well, so deep dot levels
    are insensitive to them.
    """
    center = adiabatic.find_well_minimum(t, config, scales)
    grid = dot_grid(center, config, n_points)
    v = natural_effective_potential(config, scales, t)
    H = build_hamiltonian(grid, v, NATURAL_MASS)
    return solve_lowest(H, count, grid=grid), grid, center


def track_dot_levels(times, config: DeviceConfig, scales: DerivedScales,
                     count: int = 2,
                     n_points: int = DOT_WINDOW_POINTS) -> "DotTrajectory":
    """Dot-level trajectory over the SAW period, sign-aligned step to step.

    ``times`` must be nonempty and strictly monotonic.  Consecutive windows
    overlap almost entirely; overlaps are evaluated by interpolating the
    previous state onto the current window.
    """
    times = np.asarray(times, dtype=float)
    diffs = np.diff(times)
    if times.size < 1 or (times.size > 1
                          and not (np.all(diffs > 0) or np.all(diffs < 0))):
        raise ValueError("times must be nonempty and strictly monotonic")
    levels = []
    grids = []
    centers = np.empty(times.size)
    min_ov = np.full(count, np.inf)
    prev = None
    prev_grid = None
    for i, t in enumerate(times):
        pairs, grid, centers[i] = solve_dot_levels(t, config, scales, count,
                                                   n_points)
        if prev is not None:
            zc = grid.points
            for n in range(count):
                prev_on_cur = np.interp(zc, prev_grid.points,
                                        prev[n].wavefunction,
                                        left=0.0, right=0.0)
                ov = float(np.sum(prev_on_cur * pairs[n].wavefunction) * grid.h)
                if ov < 0:
                    pairs[n] = EigenPair(energy=pairs[n].energy,
                                         wavefunction=-pairs[n].wavefunction,
                                         index=n)
                    ov = -ov
                min_ov[n] = min(min_ov[n], ov)
        else:
            min_ov[:] = 1.0
        levels.append(pairs)
        grids.append(grid)
        prev = pairs
        prev_grid = grid
    return DotTrajectory(times=times, levels=levels, grids=grids,
                         centers=centers, min_overlaps=min_ov)


@dataclass(frozen=True)
class DotTrajectory:
    """Dot levels over the sampled times, each on its own window grid."""

    times: np.ndarray
    levels: list  # levels[i][n] = EigenPair
    grids: list  # window Grid per time
    centers: np.ndarray  # well center (z/a) per time
    min_overlaps: np.ndarray

    def energies(self) -> np.ndarray:
        return np.array([[p.energy for p in step] for step in self.levels])


@dataclass(frozen=True)
class QubitSolution:
    """Single-qubit (moving-dot) quantities at the representative time t*."""

    config: DeviceConfig
    scales: DerivedScales
    grid: Grid  # window grid at t*
    trajectory: DotTrajectory
    t_star: float  # s
    t_star_index: int
    E0: float  # J
    E1: float  # J
    splitting: float  # J
    omega0: float  # rad/s (E0/hbar)
    omega1: float  # rad/s
    well_center: float  # z/a units, at t*


def solve_qubit(config: DeviceConfig,
                constants: PhysicalConstants = CONSTANTS,
                n_times: int = DEFAULT_N_TIMES,
                n_levels: int = 2) -> QubitSolution:
    """Track the dot levels over a SAW period and evaluate them at t*."""
    scales = derive_scales(config, constants)
    times = default_times(scales, n_times)
    traj = track_dot_levels(times, config, scales, count=n_levels)
    t_star = adiabatic.representative_time(times, traj.centers, config, scales)
    idx = int(np.flatnonzero(times == t_star)[0])
    pairs = traj.levels[idx]
    e0 = scales.energy_to_si(pairs[0].energy)
    e1 = scales.energy_to_si(pairs[1].energy)
    return QubitSolution(
        config=config, scales=scales, grid=traj.grids[idx], trajectory=traj,
        t_star=t_star, t_star_index=idx,
        E0=e0, E1=e1, splitting=e1 - e0,
        omega0=e0 / constants.hbar, omega1=e1 / constants.hbar,
        well_center=float(traj.centers[idx]))


def rabi_parameters(sol: QubitSolution,
                    constants: PhysicalConstants = CONSTANTS) -> dynamics.RabiParameters:
    """Resonant drive parameters from the solved spectrum at t*.

    The drive amplitude is V_e = drive_ratio * V_S; the coupling matrix is
    computed from the t* eigenstates and the spectrum is frozen during the
    Rabi integration.
    """
    pairs = sol.trajectory.levels[sol.t_star_index]
    v_e = sol.config.drive_ratio * sol.scales.V_S
    D = dynamics.rabi_coefficients(pairs[0], pairs[1], v_e,
                                   a=1.0, grid=sol.grid, hbar=constants.hbar)
    return dynamics.RabiParameters(
        omega0=sol.omega0, omega1=sol.omega1,
        omega_drive=sol.omega1 - sol.omega0, D=D)


@dataclass(frozen=True)
class RabiResult:
    """Resonant Rabi run: parameters, trajectory, and extracted period."""

    params: dynamics.RabiParameters
    trajectory: dynamics.RabiTrajectory
    period: dynamics.RabiPeriod
    estimated_period: float  # 2*pi/|D01| (s)


def simulate_rabi(sol: QubitSolution,
                  constants: PhysicalConstants = CONSTANTS,
                  n_periods: float = 1.5,
                  step_factor: float = dynamics.DEFAULT_STEP_FACTOR,
                  duration: float | None = None) -> RabiResult:
    """Integrate the resonant drive from |0> and extract the flip period.

    The trajectory spans ``duration`` seconds when given, else ``n_periods``
    estimated Rabi periods; the period extraction smooths over one drive
    period to suppress micromotion.
    """
    params = rabi_parameters(sol, constants)
    if params.D[0, 1] == 0:
        raise dynamics.NoOscillationError(
            "D01 is zero (no drive coupling); the levels never flip")
    estimated = 2.0 * np.pi / abs(params.D[0, 1])
    if duration is None:
        duration = n_periods * estimated
    dt = dynamics.suggested_step(params, step_factor)
    traj = dynamics.integrate_rabi(params, (0.0, duration), dt, (1.0, 0.0))
    dt_actual = float(traj.times[1] - traj.times[0])
    window = int(round(2.0 * np.pi / params.omega_drive / dt_actual))
    period = dynamics.extract_rabi_period(traj, smooth_window=window)
    return RabiResult(params=params, trajectory=traj, period=period,
                      estimated_period=estimated)


def twoqubit_coefficients_from_reference(
        d: float, constants: PhysicalConstants = CONSTANTS) -> twoqubit.PauliCoefficients:
    """Coupling coefficients from the built-in reference matrix elements.

    Both channels get the reference qubit splitting as their transition
    frequency.
    """
    omega = REFERENCE_QUBIT_SPLITTING / constants.hbar
    return twoqubit.coulomb_pauli_coefficients(
        REFERENCE_Z_UPPER, REFERENCE_Z_LOWER, d, constants,
        omega_u=omega, omega_l=omega)


def twoqubit_coefficients_from_solution(
        sol: QubitSolution, d: float,
        constants: PhysicalConstants = CONSTANTS) -> tuple[twoqubit.PauliCoefficients,
                                                           twoqubit.ZMatrixElements]:
    """Coupling coefficients with both channels modeled by the solved dot."""
    pairs = sol.trajectory.levels[sol.t_star_index]
    zn = twoqubit.dot_matrix_elements(pairs[0], pairs[1], sol.grid)
    z = twoqubit.ZMatrixElements(
        z00=zn.z00 * sol.scales.natural_length,
        z11=zn.z11 * sol.scales.natural_length,
        z01=zn.z01 * sol.scales.natural_length)
    omega = sol.splitting / constants.hbar
    coeffs = twoqubit.coulomb_pauli_coefficients(
        z, z, d, constants, omega_u=omega, omega_l=omega)
    return coeffs, z
