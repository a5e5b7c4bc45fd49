"""Potential-energy functions of the moving-dot model.

The model potential is defined here once, in natural units (see
:mod:`sawqubit.params`): functions of zeta = z/a, SI time t and the
derived scales, for scalars or numpy arrays.  The Coulomb pair
potentials between the two channels stay in SI units (m, J, N).
Grid sampling lives in :mod:`sawqubit.eigensolver`.
"""
from __future__ import annotations

import numpy as np

from .constants import CONSTANTS
from .params import DerivedScales


def barrier(zeta, scales: DerivedScales):
    """Electrostatic split-gate barrier V0 / cosh^2(zeta)."""
    with np.errstate(over="ignore"):  # cosh^2 -> inf far out: the limit 0
        return scales.V0_nat / np.cosh(zeta) ** 2


def saw(zeta, t, scales: DerivedScales):
    """Traveling piezoelectric wave V_S cos(k z - omega t)."""
    return scales.V_S_nat * np.cos(scales.k_nat * zeta - scales.omega_saw * t)


def effective(zeta, t, scales: DerivedScales):
    """Gate barrier plus traveling SAW corrugation."""
    return barrier(zeta, scales) + saw(zeta, t, scales)


def saw_time_derivative(zeta, t, scales: DerivedScales):
    """Analytic d/dt_nat of the SAW potential: V_S omega sin(k z - omega t)."""
    return (scales.V_S_nat * scales.omega_saw_nat) * np.sin(
        scales.k_nat * zeta - scales.omega_saw * t)


def drive_profile(zeta):
    """Spatial profile sech^2(zeta) of the microwave drive."""
    with np.errstate(over="ignore"):  # cosh^2 -> inf far out: the limit 0
        return 1.0 / np.cosh(zeta) ** 2


def coulomb_force(z_u, z_l, d: float):
    """Longitudinal Coulomb force between the two channel electrons.

    Antisymmetric in (z_u, z_l); d > 0 keeps it singularity-free.
    """
    if not (d > 0):
        raise ValueError("channel separation d must be positive")
    dz = np.asarray(z_l, dtype=float) - np.asarray(z_u, dtype=float)
    pref = CONSTANTS.elementary_charge**2 / (
        4.0 * np.pi * CONSTANTS.vacuum_permittivity)
    out = pref * dz / (d**2 + dz**2) ** 1.5
    return out if out.shape else float(out)


def coulomb_potential_exact(z, d: float):
    """Exact inter-channel Coulomb potential as a function of z = z_l - z_u.

    Zero at z = 0, saturating at e^2/(4 pi eps0 d) for |z| -> infinity.
    """
    if not (d > 0):
        raise ValueError("channel separation d must be positive")
    z = np.asarray(z, dtype=float)
    pref = CONSTANTS.elementary_charge**2 / (
        4.0 * np.pi * CONSTANTS.vacuum_permittivity * d)
    out = -pref * (1.0 / np.sqrt(1.0 + (z / d) ** 2) - 1.0)
    return out if out.shape else float(out)


def coulomb_potential_quadratic(z, d: float):
    """Small-displacement quadratic form e^2 z^2 / (8 pi eps0 d^3)."""
    if not (d > 0):
        raise ValueError("channel separation d must be positive")
    z = np.asarray(z, dtype=float)
    out = CONSTANTS.elementary_charge**2 * z**2 / (
        8.0 * np.pi * CONSTANTS.vacuum_permittivity * d**3)
    return out if out.shape else float(out)
