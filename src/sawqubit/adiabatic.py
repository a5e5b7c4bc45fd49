"""Adiabaticity of the tracked levels under the moving SAW potential.

beta = | hbar <m| dH/dt |n> / (E_m - E_n)^2 |, evaluated with the analytic
time derivative of the SAW potential.  In natural units (hbar = 1) beta is
simply |<m| dV/dt_nat |n>| / dE_nat^2.
"""
from __future__ import annotations

import numpy as np

from . import potential
from .eigensolver import EigenPair, Grid, matrix_element
from .params import DeviceConfig, DerivedScales

DEGENERACY_FLOOR = 1e-12


class DegenerateSplittingError(ValueError):
    """Level splitting too small for a meaningful adiabaticity ratio."""


def adiabaticity_beta(pair_m: EigenPair, pair_n: EigenPair, t: float,
                      grid: Grid, scales: DerivedScales) -> float:
    """Adiabaticity ratio between two instantaneous eigenstates at SI time t.

    Grid and eigenpairs are in natural units (z/a coordinate).
    """
    de = pair_m.energy - pair_n.energy
    if abs(de) <= DEGENERACY_FLOOR:
        raise DegenerateSplittingError(
            f"splitting {de:.3e} (natural units) below {DEGENERACY_FLOOR}")
    dvdt = potential.saw_time_derivative(grid.points, t, scales)
    num = abs(matrix_element(pair_m, pair_n, dvdt, grid))
    return num / de**2


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
    zeta = np.linspace(-search_halfwidth, search_halfwidth, n_samples)
    vals = potential.effective(zeta, t, scales)
    interior = np.flatnonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1
    if interior.size == 0:
        return float(zeta[np.argmin(vals)])
    idx = interior[np.argmin(np.abs(zeta[interior]))]
    # parabolic refinement through (idx-1, idx, idx+1)
    y0, y1, y2 = vals[idx - 1], vals[idx], vals[idx + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    return float(zeta[idx] + shift * (zeta[1] - zeta[0]))


def representative_time(times, centers, scales: DerivedScales) -> int:
    """Index of the sampled time of strongest confinement.

    ``centers`` holds the tracked well minimum (z/a) at each sampled time.
    Each is compared with the barrier crest inside the channel (|z| <= a);
    the index of the time at which the well sits deepest below the crest
    is returned (the first one on a tie).
    """
    crest_zeta = np.linspace(-1.0, 1.0, 2001)
    depth = (potential.effective(np.asarray(centers), times, scales)
             - potential.effective(crest_zeta, times[:, None],
                                   scales).max(axis=1))
    return int(np.argmin(depth))
