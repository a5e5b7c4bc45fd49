"""Microwave-driven two-level amplitude dynamics and Rabi-period extraction.

The amplitude equations (with level frequencies w0, w1 and a cosine drive)

    dC0/dt = -i w0 C0 - i (D00 C0 + D01 C1) cos(w t)
    dC1/dt = -i w1 C1 - i (D11 C1 + D10 C0) cos(w t)

are integrated with a fixed-step classical 4th-order Runge-Kutta scheme for
deterministic, regression-friendly output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import EigenPair, Grid, matrix_element

STEP_SAFETY = 200.0  # dt must resolve the fastest frequency by this factor
DEFAULT_STEP_FACTOR = 1000.0


class StepSizeError(ValueError):
    """Integration step too coarse for the fastest frequency present."""


class NoOscillationError(RuntimeError):
    """Trajectory shows no usable population oscillation."""


@dataclass(frozen=True)
class RabiParameters:
    """Two-level frequencies, drive frequency, and coupling matrix (rad/s)."""

    omega0: float
    omega1: float
    omega_drive: float
    D: np.ndarray  # 2x2 real, symmetric for real eigenfunctions

    def max_frequency(self) -> float:
        return max(abs(self.omega0), abs(self.omega1), abs(self.omega_drive))


@dataclass(frozen=True)
class RabiTrajectory:
    times: np.ndarray
    c0: np.ndarray
    c1: np.ndarray

    @property
    def p0(self) -> np.ndarray:
        return np.abs(self.c0) ** 2

    @property
    def p1(self) -> np.ndarray:
        return np.abs(self.c1) ** 2

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.p0 + self.p1 - 1.0)))


def rabi_coefficients(psi0: EigenPair, psi1: EigenPair, V_e: float,
                      a: float, grid: Grid, hbar: float = 1.0) -> np.ndarray:
    """Coupling matrix D_ij = (V_e/hbar) <i| sech^2(z/a) |j> (rad/s).

    This is the matrix element of the actual drive perturbation
    V_e cos(wt)/cosh^2(z/a); ``a`` must be given in grid units.
    """
    def sech2(z):
        return 1.0 / np.cosh(z / a) ** 2

    states = (psi0, psi1)
    D = np.empty((2, 2))
    for i in range(2):
        for j in range(i, 2):
            D[i, j] = D[j, i] = (V_e / hbar) * matrix_element(
                states[i], states[j], sech2, grid)
    return D


def suggested_step(params: RabiParameters,
                   factor: float = DEFAULT_STEP_FACTOR) -> float:
    """Default integration step resolving the fastest frequency."""
    return 2.0 * math.pi / (factor * params.max_frequency())


def integrate_rabi(params: RabiParameters, t_span: tuple[float, float],
                   dt: float, initial: tuple[complex, complex]) -> RabiTrajectory:
    """Fixed-step RK4 integration of the amplitude equations."""
    c0, c1 = complex(initial[0]), complex(initial[1])
    norm = abs(c0) ** 2 + abs(c1) ** 2
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"initial state not normalized: |C0|^2+|C1|^2={norm}")
    wmax = params.max_frequency()
    if dt > 2.0 * math.pi / (STEP_SAFETY * wmax):
        raise StepSizeError(
            f"dt={dt:.3e} exceeds 2*pi/({STEP_SAFETY:.0f}*max_frequency)="
            f"{2.0 * math.pi / (STEP_SAFETY * wmax):.3e}")
    t0, t1 = t_span
    n_steps = max(1, int(math.ceil((t1 - t0) / dt)))
    dt = (t1 - t0) / n_steps

    w0 = params.omega0
    w1 = params.omega1
    w = params.omega_drive
    d00 = params.D[0, 0]
    d01 = params.D[0, 1]
    d10 = params.D[1, 0]
    d11 = params.D[1, 1]

    times = t0 + dt * np.arange(n_steps + 1)
    out0 = np.empty(n_steps + 1, dtype=complex)
    out1 = np.empty(n_steps + 1, dtype=complex)
    out0[0] = c0
    out1[0] = c1

    half = dt / 2.0
    sixth = dt / 6.0
    t = t0
    for step in range(n_steps):
        cos_a = math.cos(w * t)
        cos_b = math.cos(w * (t + half))
        cos_c = math.cos(w * (t + dt))

        k0a = -1j * (w0 * c0 + (d00 * c0 + d01 * c1) * cos_a)
        k1a = -1j * (w1 * c1 + (d11 * c1 + d10 * c0) * cos_a)

        y0 = c0 + half * k0a
        y1 = c1 + half * k1a
        k0b = -1j * (w0 * y0 + (d00 * y0 + d01 * y1) * cos_b)
        k1b = -1j * (w1 * y1 + (d11 * y1 + d10 * y0) * cos_b)

        y0 = c0 + half * k0b
        y1 = c1 + half * k1b
        k0c = -1j * (w0 * y0 + (d00 * y0 + d01 * y1) * cos_b)
        k1c = -1j * (w1 * y1 + (d11 * y1 + d10 * y0) * cos_b)

        y0 = c0 + dt * k0c
        y1 = c1 + dt * k1c
        k0d = -1j * (w0 * y0 + (d00 * y0 + d01 * y1) * cos_c)
        k1d = -1j * (w1 * y1 + (d11 * y1 + d10 * y0) * cos_c)

        c0 = c0 + sixth * (k0a + 2.0 * (k0b + k0c) + k0d)
        c1 = c1 + sixth * (k1a + 2.0 * (k1b + k1c) + k1d)
        t = t0 + (step + 1) * dt
        out0[step + 1] = c0
        out1[step + 1] = c1

    return RabiTrajectory(times=times, c0=out0, c1=out1)


def rwa_population(Omega: float, detuning: float, t) -> float | np.ndarray:
    """Analytic rotating-wave excited-state population.

    (Omega^2/(Omega^2+Delta^2)) sin^2(sqrt(Omega^2+Delta^2) t / 2).
    """
    geff = math.hypot(Omega, detuning)
    t = np.asarray(t, dtype=float)
    if geff == 0.0:
        out = np.zeros_like(t)
        return out if out.shape else 0.0
    out = (Omega**2 / geff**2) * np.sin(geff * t / 2.0) ** 2
    return out if out.shape else float(out)


@dataclass(frozen=True)
class RabiPeriod:
    period: float  # s
    method: str


def extract_rabi_period(traj: RabiTrajectory, min_peak: float = 0.05,
                        smooth_window: int | None = None) -> RabiPeriod:
    """Oscillation period as twice the time of the first p1 maximum.

    The discrete peak is refined by a quadratic fit through its neighbors;
    the doubling assumes a sin^2-like signal starting from p1(0) ~ 0.
    ``smooth_window`` (samples) applies a moving average first, to suppress
    drive-frequency micromotion that would otherwise fake an early peak;
    pass roughly one drive period worth of samples.
    """
    p1 = traj.p1
    method = "double_first_peak_quadratic"
    if smooth_window is not None and smooth_window > 1:
        kernel = np.ones(smooth_window) / smooth_window
        p1 = np.convolve(p1, kernel, mode="same")
        method = "double_first_peak_quadratic_smoothed"
    if p1.max() < min_peak:
        raise NoOscillationError(
            f"max p1 = {p1.max():.4f} < {min_peak}; no oscillation detected")
    peaks = np.flatnonzero((p1[1:-1] > p1[:-2]) & (p1[1:-1] >= p1[2:])) + 1
    peaks = peaks[p1[peaks] >= min_peak]
    if peaks.size == 0:
        raise NoOscillationError("population rises but never turns over; "
                                 "extend the trajectory")
    i = int(peaks[0])
    y0, y1, y2 = p1[i - 1], p1[i], p1[i + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    dt = traj.times[1] - traj.times[0]
    t_peak = traj.times[i] + shift * dt
    return RabiPeriod(period=2.0 * float(t_peak - traj.times[0]),
                      method=method)
