"""Test-only references: slow, direct forms of production code paths.

``scalar_rk4`` is the step-by-step RK4 loop behind the vectorized
``dynamics.integrate_rabi``; ``track_dot_levels`` solves the dot levels at
every sample it is given, the reference for
``pipeline.adiabaticity_profile``.  No CLI run reaches either.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sawqubit import dynamics, pipeline
from sawqubit.params import DeviceConfig, DerivedScales


def scalar_rk4(params: dynamics.RabiParameters, t_span: tuple[float, float],
               dt: float,
               initial: tuple[complex, complex]) -> dynamics.RabiTrajectory:
    """Reference RK4 of the amplitude equations, one Python step at a time.

    Same step count, times and RK4 stages as ``dynamics.integrate_rabi``,
    without its step-size and normalization guards; kept to cross-check
    the vectorized scan.
    """
    c0, c1 = complex(initial[0]), complex(initial[1])
    t0 = t_span[0]
    n_steps, dt = dynamics.step_grid(t_span, dt)

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

    drift = np.max(np.abs(np.abs(out0) ** 2 + np.abs(out1) ** 2 - 1.0))
    return dynamics.RabiTrajectory(times=times, c0=out0, c1=out1,
                                   norm_drift=float(drift))


@dataclass(frozen=True)
class TrackedLevels:
    """Dot levels solved at every sample, each on its own window grid."""

    times: np.ndarray
    levels: list  # one Levels per time
    centers: np.ndarray  # well center (z/a) per time
    min_overlaps: np.ndarray  # per level, between neighbouring samples

    def energies(self) -> np.ndarray:
        return np.array([step.energies for step in self.levels])


def track_dot_levels(times, config: DeviceConfig, scales: DerivedScales,
                     count: int = 2) -> TrackedLevels:
    """Dot levels with every sample solved; the reference for
    ``pipeline.adiabaticity_profile``.

    ``times`` must be nonempty and strictly monotonic.
    """
    times = np.asarray(times, dtype=float)
    diffs = np.diff(times)
    if times.size < 1 or not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("times must be nonempty and strictly monotonic")
    levels, centers = zip(*(
        pipeline.solve_dot_levels(t, config, scales, count) for t in times))
    return TrackedLevels(
        times=times, levels=list(levels), centers=np.array(centers),
        min_overlaps=pipeline.min_level_overlaps(list(levels)))
