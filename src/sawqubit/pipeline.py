"""High-level workflow shared by the CLI and the validation suite.

Ties the modules together: default grid and time sampling, selection of
the representative time t* of strongest confinement, the single-qubit
quantities (splitting, drive coupling) evaluated there, and beta(t) and
the qubit energies over one SAW period.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import adiabatic, dynamics, potential, twoqubit
from .constants import CONSTANTS
from .eigensolver import Grid, build_grid, build_hamiltonian, solve_lowest
from .params import (DOT_WINDOW_POINTS, DeviceConfig, DerivedScales,
                     derive_scales)

DEFAULT_N_POINTS = 4096
DEFAULT_N_TIMES = 64
QUBIT_LEVELS = 2  # levels solved per sample for the qubit: the lowest pair
WEAK_DRIVE_RATIO = 0.1  # largest |D01|, |D11 - D00| over the drive frequency
RABI_SPAN_PERIODS = 1.5  # default Rabi run, in estimated flip periods

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
# surrounding potential crests.  Its resolution, DOT_WINDOW_POINTS, lives
# in params, whose derived scales keep the window's kinetic term finite.
def solve_dot_levels(t: float, config: DeviceConfig, scales: DerivedScales,
                     count: int) -> tuple[list, Grid, float]:
    """Lowest ``count`` levels of the well nearest the barrier at SI time t.

    Returns (eigenpairs, window grid, well center in z/a units).  The window
    walls sit on the potential crests flanking the well, so deep dot levels
    are insensitive to them.
    """
    center = adiabatic.find_well_minimum(t, config, scales)
    return (*_solve_window(t, center, config, scales, count), center)


def _solve_window(t: float, center: float, config: DeviceConfig,
                  scales: DerivedScales, count: int) -> tuple[list, Grid]:
    """Lowest ``count`` levels on the lambda-wide window around ``center``."""
    half = 0.5 * config.saw_wavelength / config.a
    grid = build_grid(center - half, center + half, DOT_WINDOW_POINTS)
    H = build_hamiltonian(
        grid, lambda zeta: potential.effective(zeta, t, scales))
    return solve_lowest(H, count, grid=grid), grid


def min_level_overlaps(states: list, grids: list) -> np.ndarray:
    """Smallest |overlap| of each level between neighbouring samples.

    ``states[i]`` holds the level wavefunctions of sample i, on
    ``grids[i]``; each is interpolated onto the next sample's window.
    """
    min_ov = np.ones(len(states[0]))
    for prev, prev_grid, cur, grid in zip(states, grids, states[1:],
                                          grids[1:]):
        ov = [np.sum(np.interp(grid.points, prev_grid.points, p, left=0.0,
                               right=0.0) * c) * grid.h
              for p, c in zip(prev, cur)]
        min_ov = np.minimum(min_ov, np.abs(ov))
    return min_ov


@dataclass(frozen=True)
class QubitSolution:
    """Single-qubit (moving-dot) quantities at the representative time t*."""

    config: DeviceConfig
    scales: DerivedScales
    grid: Grid  # window grid at t*
    levels: list  # the QUBIT_LEVELS eigenpairs at t*, solver sign convention
    t_star: float  # s
    well_center: float  # z/a units, at t*

    @property
    def E0(self) -> float:  # J
        return self.scales.energy_to_si(self.levels[0].energy)

    @property
    def E1(self) -> float:  # J
        return self.scales.energy_to_si(self.levels[1].energy)

    @property
    def splitting(self) -> float:  # J
        return self.E1 - self.E0

    @property
    def omega0(self) -> float:  # rad/s
        return self.E0 / CONSTANTS.hbar

    @property
    def omega1(self) -> float:  # rad/s
        return self.E1 / CONSTANTS.hbar


@dataclass(frozen=True)
class AdiabaticityProfile:
    """beta(t) and the qubit energies at the samples of one SAW period."""

    times: np.ndarray  # s
    beta: np.ndarray
    energies: np.ndarray  # (time, level), natural units
    t_star_index: int
    well_center: float  # z/a units, at t*
    min_overlaps: np.ndarray  # per level, between neighbouring samples


# The potential obeys V(z, T - t) = V(-z, t): the barrier is even and
# omega T = 2 pi.  The midpoint samples pair up as t_{n-1-i} = T - t_i, and
# each well of the second half is the mirror image (z -> -z) of its
# partner's, equally deep.  So t* is searched over the first half only,
# where no mirror-image partner can tie with it.
def _first_half(config: DeviceConfig, scales: DerivedScales
                ) -> tuple[np.ndarray, np.ndarray, int]:
    """First-half samples, their well centers and the index of t*."""
    times = default_times(scales)[:DEFAULT_N_TIMES // 2]
    centers = np.array([adiabatic.find_well_minimum(t, config, scales)
                        for t in times])
    return times, centers, adiabatic.representative_time(times, centers,
                                                         scales)


def solve_qubit(config: DeviceConfig) -> QubitSolution:
    """The qubit levels at t*, the sample of strongest confinement."""
    scales = derive_scales(config)
    times, centers, idx = _first_half(config, scales)
    levels, grid = _solve_window(times[idx], centers[idx], config, scales,
                                 QUBIT_LEVELS)
    return QubitSolution(config=config, scales=scales, grid=grid,
                         levels=levels, t_star=float(times[idx]),
                         well_center=float(centers[idx]))


def adiabaticity_profile(config: DeviceConfig,
                         scales: DerivedScales) -> AdiabaticityProfile:
    """beta(t) and the qubit energies over the SAW period.

    Only the first half is solved: sample n-1-i is the mirror image of
    sample i, with the same energies and beta.  The minimum overlaps run
    over the first half and its last sample against that sample's mirror
    image; the second-half neighbours mirror the first-half ones.
    """
    times, centers, idx = _first_half(config, scales)
    levels, grids = zip(*(_solve_window(t, c, config, scales, QUBIT_LEVELS)
                          for t, c in zip(times, centers)))
    beta = np.array([adiabatic.adiabaticity_beta(*pairs, t, grid, scales)
                     for t, pairs, grid in zip(times, levels, grids)])
    energies = np.array([[p.energy for p in pairs] for pairs in levels])
    states = [[p.wavefunction for p in pairs] for pairs in levels]
    g = grids[-1]
    min_ov = min_level_overlaps(
        states + [[psi[::-1] for psi in states[-1]]],
        [*grids, Grid(-g.z_max, -g.z_min, g.n_points)])
    return AdiabaticityProfile(
        times=default_times(scales), beta=np.concatenate([beta, beta[::-1]]),
        energies=np.concatenate([energies, energies[::-1]]),
        t_star_index=idx, well_center=float(centers[idx]),
        min_overlaps=min_ov)


def rescale_solution(sol: QubitSolution,
                     effective_mass_ratio: float) -> QubitSolution:
    """The solution for another effective mass, without solving again.

    The mass enters only the SI scales: the natural-unit problem, and so
    t*, the dot window and the t* levels, are shared.  Raises ValueError
    unless the natural parameters of both masses agree bit for bit.
    """
    config = replace(sol.config, effective_mass_ratio=effective_mass_ratio)
    scales = derive_scales(config)
    natural = ("V0_nat", "V_S_nat", "k_nat")
    if any(getattr(scales, name) != getattr(sol.scales, name)
           for name in natural):
        raise ValueError("the natural-unit problem depends on the mass here; "
                         "solve it again instead")
    return replace(sol, config=config, scales=scales)


def rabi_parameters(sol: QubitSolution) -> dynamics.RabiParameters:
    """Resonant drive parameters from the solved spectrum at t*.

    The drive amplitude is V_e = drive_ratio * V_S; the coupling matrix is
    computed from the t* eigenstates and the spectrum is frozen during the
    Rabi integration.
    """
    v_e = sol.config.drive_ratio * sol.scales.V_S
    D = dynamics.rabi_coefficients(*sol.levels, v_e, sol.grid)
    return dynamics.RabiParameters(
        omega0=sol.omega0, omega1=sol.omega1,
        omega_drive=sol.omega1 - sol.omega0, D=D)


def warn_if_strong_drive(params: dynamics.RabiParameters) -> None:
    """Warn (StrongDriveWarning) unless the drive is weak.

    The period estimate 2 pi/|D01| assumes |D01| and |D11 - D00| small next
    to the drive frequency; above WEAK_DRIVE_RATIO of it the extracted
    period drifts away from the estimate.
    """
    w = abs(params.omega_drive)
    d01 = abs(params.D[0, 1])
    d_diag = abs(params.D[1, 1] - params.D[0, 0])
    if max(d01, d_diag) > WEAK_DRIVE_RATIO * w:
        warnings.warn(
            f"strong drive: |D01| = {d01:.3e} and |D11 - D00| = "
            f"{d_diag:.3e} rad/s against the drive frequency {w:.3e} rad/s "
            f"(limit {WEAK_DRIVE_RATIO} of it); the Rabi period departs "
            "from the weak-drive estimate 2*pi/|D01|",
            dynamics.StrongDriveWarning, stacklevel=2)


@dataclass(frozen=True)
class RabiResult:
    """Resonant Rabi run: parameters, trajectory, and extracted period."""

    params: dynamics.RabiParameters
    trajectory: dynamics.RabiTrajectory
    period: dynamics.RabiPeriod
    estimated_period: float  # 2*pi/|D01| (s)


def simulate_rabi(sol: QubitSolution,
                  duration: float | None = None) -> RabiResult:
    """Integrate the resonant drive from |0> and extract the flip period.

    The trajectory spans ``duration`` seconds when given, else
    RABI_SPAN_PERIODS estimated Rabi periods; the period extraction
    smooths over one drive period to suppress micromotion.  Warns (StrongDriveWarning) before
    integrating when the drive is too strong for the estimate.
    """
    params = rabi_parameters(sol)
    if params.D[0, 1] == 0:
        raise dynamics.NoOscillationError(
            "D01 is zero (no drive coupling); the levels never flip")
    if not np.all(np.isfinite(params.D)):
        raise dynamics.NoOscillationError(
            "drive coupling D is not finite (V_e/hbar overflows)")
    warn_if_strong_drive(params)
    estimated = 2.0 * np.pi / abs(params.D[0, 1])
    if duration is None:
        duration = RABI_SPAN_PERIODS * estimated
    dt = dynamics.suggested_step(params)
    traj = dynamics.integrate_rabi(params, (0.0, duration), dt, (1.0, 0.0))
    dt_actual = float(traj.times[1] - traj.times[0])
    window = int(round(2.0 * np.pi / params.omega_drive / dt_actual))
    period = dynamics.extract_rabi_period(traj, smooth_window=window)
    return RabiResult(params=params, trajectory=traj, period=period,
                      estimated_period=estimated)


def twoqubit_coefficients_from_reference(
        d: float) -> twoqubit.PauliCoefficients:
    """Coupling coefficients from the built-in reference matrix elements.

    Both channels get the reference qubit splitting as their transition
    frequency.
    """
    omega = REFERENCE_QUBIT_SPLITTING / CONSTANTS.hbar
    return twoqubit.coulomb_pauli_coefficients(
        REFERENCE_Z_UPPER, REFERENCE_Z_LOWER, d, omega_u=omega, omega_l=omega)


def twoqubit_coefficients_from_solution(
        sol: QubitSolution, d: float) -> tuple[twoqubit.PauliCoefficients,
                                               twoqubit.ZMatrixElements]:
    """Coupling coefficients with both channels modeled by the solved dot."""
    zn = twoqubit.dot_matrix_elements(*sol.levels, sol.grid)
    z = twoqubit.ZMatrixElements(
        z00=zn.z00 * sol.scales.natural_length,
        z11=zn.z11 * sol.scales.natural_length,
        z01=zn.z01 * sol.scales.natural_length)
    omega = sol.splitting / CONSTANTS.hbar
    coeffs = twoqubit.coulomb_pauli_coefficients(
        z, z, d, omega_u=omega, omega_l=omega)
    return coeffs, z
