"""Adiabaticity of the tracked levels under the moving SAW potential.

beta = | hbar <m| dH/dt |n> / (E_m - E_n)^2 |, evaluated with the analytic
time derivative of the SAW potential.  In natural units (hbar = 1) beta is
simply |<m| dV/dt_nat |n>| / dE_nat^2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolver import (EigenPair, Grid, matrix_element,
                          natural_effective_potential)
from .params import DeviceConfig, DerivedScales

DEGENERACY_FLOOR = 1e-12


class DegenerateSplittingError(ValueError):
    """Level splitting too small for a meaningful adiabaticity ratio."""


@dataclass(frozen=True)
class AdiabaticityReport:
    time: float  # s
    level_m: int
    level_n: int
    beta: float
    splitting: float  # E_m - E_n (J)


def adiabaticity_beta(pair_m: EigenPair, pair_n: EigenPair, t: float,
                      grid: Grid, scales: DerivedScales) -> float:
    """Adiabaticity ratio between two instantaneous eigenstates at SI time t.

    Grid and eigenpairs are in natural units (z/a coordinate).
    """
    de = pair_m.energy - pair_n.energy
    if abs(de) <= DEGENERACY_FLOOR:
        raise DegenerateSplittingError(
            f"splitting {de:.3e} (natural units) below {DEGENERACY_FLOOR}")
    amp = scales.V_S_nat * scales.omega_saw_nat
    kn = scales.k_nat
    phase = scales.omega_saw * t

    def dvdt(zeta):
        return amp * np.sin(kn * zeta - phase)

    num = abs(matrix_element(pair_m, pair_n, dvdt, grid))
    return num / de**2


def adiabaticity_sweep(trajectory, scales: DerivedScales, level_m: int = 0,
                       level_n: int = 1) -> list[AdiabaticityReport]:
    """beta(t) for one level pair at every sample of a dot trajectory
    (``pipeline.DotTrajectory``, one window grid per time)."""
    reports = []
    for t, pairs, grid in zip(trajectory.times, trajectory.levels,
                              trajectory.grids):
        pm, pn = pairs[level_m], pairs[level_n]
        beta = adiabaticity_beta(pm, pn, t, grid, scales)
        reports.append(AdiabaticityReport(
            time=float(t), level_m=level_m, level_n=level_n, beta=beta,
            splitting=scales.energy_to_si(pm.energy - pn.energy)))
    return reports


def find_well_minimum(t: float, config: DeviceConfig, scales: DerivedScales,
                      search_halfwidth: float | None = None,
                      n_samples: int = 4001) -> float:
    """Location (z/a units) of the effective-potential minimum nearest z = 0.

    Scans local minima of the effective potential around the channel and
    returns the one closest to the barrier center, refined by a parabolic
    fit through the discrete minimum.
    """
    if search_halfwidth is None:
        search_halfwidth = 1.25 * config.saw_wavelength / config.a
    v = natural_effective_potential(config, scales, t)
    zeta = np.linspace(-search_halfwidth, search_halfwidth, n_samples)
    vals = v(zeta)
    interior = np.flatnonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1
    if interior.size == 0:
        return float(zeta[np.argmin(vals)])
    idx = interior[np.argmin(np.abs(zeta[interior]))]
    # parabolic refinement through (idx-1, idx, idx+1)
    y0, y1, y2 = vals[idx - 1], vals[idx], vals[idx + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    return float(zeta[idx] + shift * (zeta[1] - zeta[0]))


def representative_time(times, centers, config: DeviceConfig,
                        scales: DerivedScales) -> float:
    """The sampled time of strongest confinement.

    ``centers`` holds the tracked well minimum (z/a) at each sampled time.
    Each is compared with the barrier crest inside the channel (|z| <= a);
    the time at which the well sits deepest below the crest is returned.
    Deterministic for a fixed time sample.
    """
    times = np.asarray(times, dtype=float)
    crest_zeta = np.linspace(-1.0, 1.0, 2001)
    best_t = float(times[0])
    best_depth = np.inf
    for t, zw in zip(times, centers):
        v = natural_effective_potential(config, scales, t)
        depth = float(v(np.array([zw]))[0] - np.max(v(crest_zeta)))
        if depth < best_depth:
            best_depth = depth
            best_t = float(t)
    return best_t
