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

from . import adiabatic, dynamics, potential
from .constants import CONSTANTS
from .eigensolver import (BOUND_FRACTION, Grid, Levels, bound_fractions,
                          build_grid, build_hamiltonian, solve_lowest)
from .params import (DOT_WINDOW_POINTS, DeviceConfig, DerivedScales,
                     derive_scales)

DEFAULT_N_POINTS = 4096
DEFAULT_N_TIMES = 64
QUBIT_LEVELS = 2  # levels solved per sample for the qubit: the lowest pair
WEAK_DRIVE_RATIO = 0.1  # largest |D01|, |D11 - D00| over the drive frequency
RABI_SPAN_PERIODS = 1.5  # default Rabi run, in estimated flip periods
MAX_TRAJECTORY_ROWS = 4001  # rows a Rabi run keeps (rabi.csv)

# Reference position matrices <i|z|j> (m) of the upper and lower dot of a
# two-channel device, indexed like ``Levels.matrix``; used to exercise the
# coupling without solving the spectra.
REFERENCE_Z_UPPER = np.array([[-5.6186e-7, -5.6431e-8],
                              [-5.6431e-8, -5.6975e-7]])
REFERENCE_Z_LOWER = np.array([[-5.3594e-7, -5.6607e-8],
                              [-5.6607e-8, -5.4418e-7]])
REFERENCE_QUBIT_SPLITTING = 8.3667e-23  # J, used with the reference elements


class UnboundQubitError(RuntimeError):
    """A qubit level at t* lies mostly outside the dot."""


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
# channel.  The dot levels are therefore solved on a moving window, the
# tracked well minimum +/- lambda/2, with Dirichlet walls at its ends.  The
# walls sit on the SAW crests only where the barrier does not shift them;
# near mid-period the barrier raises a crest inside the window, and a level
# of the window can then lie past it, outside the dot (the ``levels`` bound
# flag).  The window's resolution, DOT_WINDOW_POINTS, lives in params,
# whose derived scales keep the window's kinetic term finite.
def solve_dot_levels(t: float, config: DeviceConfig, scales: DerivedScales,
                     count: int) -> tuple[Levels, float]:
    """Lowest ``count`` levels of the window around the well nearest the
    barrier at SI time t.

    Returns (levels on the window grid, well center in z/a units).  The
    window is the center +/- lambda/2; its walls sit on the potential
    crests flanking the well only where the barrier does not shift them.
    """
    center = adiabatic.find_well_minimum(t, config, scales)
    return _solve_window(t, center, config, scales, count), center


def _solve_window(t: float, center: float, config: DeviceConfig,
                  scales: DerivedScales, count: int,
                  near: np.ndarray | None = None) -> Levels:
    """Lowest ``count`` levels on the lambda-wide window around ``center``;
    ``near`` holds energy guesses for them (see ``solve_lowest``)."""
    half = 0.5 * config.saw_wavelength / config.a
    grid = build_grid(center - half, center + half, DOT_WINDOW_POINTS)
    H = build_hamiltonian(
        grid, lambda zeta: potential.effective(zeta, t, scales))
    return solve_lowest(H, count, grid=grid, near=near)


def _overlaps(a: Levels, b: Levels) -> np.ndarray:
    """|<a_i|b_i>| per level, with a's states interpolated onto b's grid."""
    z = b.grid.points
    return np.abs([np.sum(np.interp(z, a.grid.points, p, left=0.0,
                                    right=0.0) * q) * b.grid.h
                   for p, q in zip(a.states, b.states)])


def min_level_overlaps(samples: list[Levels]) -> np.ndarray:
    """Smallest |overlap| of each level between neighbouring samples.

    Each overlap is the mean of interpolating either sample's states onto
    the other's window.  Linear interpolation is not symmetric, and one
    direction alone gives a pair and its mirror image, whose order is
    reversed, overlaps up to ~1e-5 apart for states reaching the walls.
    """
    min_ov = np.ones(len(samples[0].states))
    for prev, cur in zip(samples, samples[1:]):
        mean = 0.5 * (_overlaps(prev, cur) + _overlaps(cur, prev))
        min_ov = np.minimum(min_ov, mean)
    return min_ov


@dataclass(frozen=True)
class QubitSolution:
    """Single-qubit (moving-dot) quantities at the representative time t*."""

    config: DeviceConfig
    scales: DerivedScales
    levels: Levels  # the QUBIT_LEVELS levels at t*, solver sign convention
    t_star: float  # s
    well_center: float  # z/a units, at t*

    @property
    def E0(self) -> float:  # J
        return self.scales.energy_to_si(self.levels.energies[0])

    @property
    def E1(self) -> float:  # J
        return self.scales.energy_to_si(self.levels.energies[1])

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
    """The qubit levels at t*, the sample of strongest confinement.

    Raises UnboundQubitError when either level keeps less than
    BOUND_FRACTION of its weight between the crests flanking the well
    (``bound_fractions``): the window's lowest pair is then not the dot's.
    """
    scales = derive_scales(config)
    times, centers, idx = _first_half(config, scales)
    levels = _solve_window(times[idx], centers[idx], config, scales,
                           QUBIT_LEVELS)
    weights = bound_fractions(
        levels, potential.effective(levels.grid.points, times[idx], scales),
        centers[idx])
    if not np.all(weights >= BOUND_FRACTION):
        raise UnboundQubitError(
            "the qubit levels at t* keep "
            f"{', '.join(f'{w:.4f}' for w in weights)} of their weight "
            f"between the crests of the dot, below {BOUND_FRACTION}")
    return QubitSolution(config=config, scales=scales, levels=levels,
                         t_star=float(times[idx]),
                         well_center=float(centers[idx]))


def _next_energies(samples: list[Levels]) -> np.ndarray | None:
    """Energy guesses for the sample after ``samples``: none for the
    first, the last sample's energies for the second, and the linear
    extrapolation 2 E(i-1) - E(i-2) after that."""
    if len(samples) < 2:
        return samples[-1].energies if samples else None
    return 2.0 * samples[-1].energies - samples[-2].energies


def adiabaticity_profile(config: DeviceConfig,
                         scales: DerivedScales) -> AdiabaticityProfile:
    """beta(t) and the qubit energies over the SAW period.

    Only the first half is solved: sample n-1-i is the mirror image of
    sample i, with the same energies and beta.  Sample 0 is bisected;
    each later one starts inverse iteration from its neighbours' energies
    (``_next_energies``) and is bisected only where the warm start fails
    the solver's gate.  The minimum overlaps run over the first half and
    its last sample against that sample's mirror image; the second-half
    neighbours mirror the first-half ones.
    """
    times, centers, idx = _first_half(config, scales)
    samples = []
    for t, c in zip(times, centers):
        samples.append(_solve_window(t, c, config, scales, QUBIT_LEVELS,
                                     near=_next_energies(samples)))
    beta = np.array([adiabatic.adiabaticity_beta(levels, t, scales)
                     for t, levels in zip(times, samples)])
    energies = np.array([levels.energies for levels in samples])
    last = samples[-1]
    g = last.grid
    min_ov = min_level_overlaps(samples + [Levels(
        last.energies, last.states[:, ::-1],
        Grid(-g.z_max, -g.z_min, g.n_points))])
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
    D = dynamics.rabi_coefficients(sol.levels, v_e)
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
    period: float  # s, from dynamics.PeriodScan
    estimated_period: float  # 2*pi/|D01| (s)


def simulate_rabi(sol: QubitSolution,
                  duration: float | None = None) -> RabiResult:
    """Integrate the resonant drive from |0> and extract the flip period.

    The trajectory spans ``duration`` seconds when given, else
    RABI_SPAN_PERIODS estimated Rabi periods, and keeps at most
    MAX_TRAJECTORY_ROWS rows; the period is the first peak of p1 averaged
    over consecutive drive periods (``PeriodScan``), summed from every step
    as the run goes.  Warns (StrongDriveWarning) before integrating when
    the drive is too strong for the estimate; raises StepSizeError when the
    run needs more than dynamics.MAX_STEPS steps, and NoOscillationError
    when one drive period, the smoothing window, spans more samples than
    the run, or when the means never rise and turn over.
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
    drive_period = 2.0 * np.pi / params.omega_drive
    try:
        n_steps, dt_actual = dynamics.step_grid((0.0, duration), dt)
    except dynamics.StepSizeError:
        raise dynamics.StepSizeError(
            f"a {duration:.3e} s run at dt={dt:.3e} s would pass the cap of "
            f"{dynamics.MAX_STEPS:.0e} RK4 steps; the estimated Rabi period "
            f"2*pi/|D01| is {estimated:.3e} s, "
            f"{estimated / drive_period:.3e} drive periods") from None
    # compared in seconds: in samples, a subnormal step overflows to inf
    if not drive_period <= (n_steps + 1) * dt_actual:
        raise dynamics.NoOscillationError(
            f"smoothing window of one drive period ({drive_period:.3e} s) "
            f"exceeds the {n_steps + 1}-sample trajectory ({duration:.3e} s)")
    scan = dynamics.PeriodScan(int(round(drive_period / dt_actual)))
    traj = dynamics.integrate_rabi(params, (0.0, duration), dt, (1.0, 0.0),
                                   max_rows=MAX_TRAJECTORY_ROWS,
                                   on_chunk=scan)
    return RabiResult(params=params, trajectory=traj, period=scan.period(),
                      estimated_period=estimated)
