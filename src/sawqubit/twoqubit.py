"""Coulomb-coupled two-dot gate construction, in plain 2x2 and 4x4 algebra.

Pipeline: each dot's 2x2 position matrix <i|z|j> (m) -> Pauli
decomposition of the quadratic inter-channel Coulomb coupling ->
rotating-wave closed-form iSWAP propagator, compared by gate fidelity with
the exact interaction-picture propagator of the full coupling
(counter-rotating terms included).

Basis ordering everywhere: |11>, |10>, |01>, |00> (upper qubit first).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS

# Single-qubit operators in the (|1>, |0>) basis.
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_ID = np.eye(2)


def _upper(op):
    return np.kron(op, _ID)


def _lower(op):
    return np.kron(_ID, op)


class QuadraticExpansionWarning(UserWarning):
    """Relative dot displacement too large for the quadratic Coulomb
    expansion."""


class NoExchangeCouplingError(ValueError):
    """No usable exchange coupling: c_xx is zero (e.g. underflowed at a large
    separation) or d**3 leaves the float range."""


class PhaseResolutionError(ValueError):
    """Phases lambda*t/hbar too large for float64 to resolve."""


# Largest allowed float64 rounding (rad) of the largest phase lambda*t/hbar;
# reached at a phase of ~4.5e9 rad.
PHASE_ROUNDING_LIMIT = 1e-6
# QuadraticExpansionWarning fires when the relative dot displacement
# exceeds this fraction of the channel separation.
EXPANSION_GUARD = 0.3


@dataclass(frozen=True)
class PauliCoefficients:
    """The eight Coulomb-coupling coefficients (J) and effective frequencies."""

    cu_z: float
    cl_z: float
    cu_x: float
    cl_x: float
    c_zz: float
    c_xx: float
    c_zx: float
    c_xz: float
    lambda_u: float  # hbar*omega/2 + C_u^z (J)
    lambda_l: float


def coulomb_pauli_coefficients(zu: np.ndarray, zl: np.ndarray, d: float,
                               omega: float = 0.0) -> PauliCoefficients:
    """Pauli decomposition of the quadratic inter-channel Coulomb coupling.

    ``zu`` and ``zl`` are the upper and lower dot's symmetric 2x2 position
    matrices <i|z|j> (m); ``omega``, the qubit transition frequency (rad/s)
    of both dots, enters the interaction-picture frequencies lambda_j.
    """
    if not (d > 0):
        raise ValueError("channel separation d must be positive")
    try:
        q = CONSTANTS.elementary_charge**2 / (
            4.0 * math.pi * CONSTANTS.vacuum_permittivity * d**3)
    except (OverflowError, ZeroDivisionError):
        raise NoExchangeCouplingError(
            f"d={d:.3e} m: 4 pi eps0 d**3 leaves the float range") from None
    (u00, u01), (_, u11) = np.asarray(zu, dtype=float).tolist()
    (l00, l01), (_, l11) = np.asarray(zl, dtype=float).tolist()
    # The expansion variable is the relative displacement z_l - z_u.
    span = max(abs(l - u) for l in (l00, l11) for u in (u00, u11))
    if span > EXPANSION_GUARD * d:
        warnings.warn(
            f"relative dot displacement (~{span:.3e} m) approaches the "
            f"channel separation d={d:.3e} m; quadratic Coulomb expansion "
            "degrades", QuadraticExpansionWarning, stacklevel=2)
    su = u00 + u11
    sl = l00 + l11
    du = u11 - u00
    dl = l11 - l00
    cu_z = (q / 4.0) * (su - sl) * du
    cl_z = (q / 4.0) * (sl - su) * dl
    cu_x = (q / 2.0) * (su - sl) * u01
    cl_x = (q / 2.0) * (sl - su) * l01
    c_zz = -(q / 4.0) * du * dl
    c_xx = -q * u01 * l01
    c_zx = -(q / 2.0) * du * l01
    c_xz = -(q / 2.0) * dl * u01
    hbar = CONSTANTS.hbar
    return PauliCoefficients(
        cu_z=cu_z, cl_z=cl_z, cu_x=cu_x, cl_x=cl_x,
        c_zz=c_zz, c_xx=c_xx, c_zx=c_zx, c_xz=c_xz,
        lambda_u=hbar * omega / 2.0 + cu_z,
        lambda_l=hbar * omega / 2.0 + cl_z,
    )


def iswap_propagator(coeffs: PauliCoefficients, t: float) -> np.ndarray:
    """Closed-form 4x4 propagator of the rotating-wave exchange coupling.

    xi = t C^xx / hbar; the |10>/|01> block is [[cos xi, -i sin xi],
    [-i sin xi, cos xi]], the |11> and |00> amplitudes are untouched.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    xi = t * coeffs.c_xx / CONSTANTS.hbar
    u = np.eye(4, dtype=complex)
    u[1, 1] = u[2, 2] = math.cos(xi)
    u[1, 2] = u[2, 1] = -1j * math.sin(xi)
    return u


def gate_time_for_iswap(coeffs: PauliCoefficients) -> float:
    """Time at which |xi| reaches pi/2 (the iSWAP point)."""
    if coeffs.c_xx == 0:
        raise NoExchangeCouplingError(
            "c_xx is zero; no exchange coupling, no iSWAP")
    return (math.pi / 2.0) * CONSTANTS.hbar / abs(coeffs.c_xx)


_SZZ = _upper(_SZ) @ _lower(_SZ)  # sz_u sz_l


def interaction_propagator(coeffs: PauliCoefficients, t) -> np.ndarray:
    """Exact interaction-picture propagator of the full Coulomb coupling,
    counter-rotating terms included.

    The interaction picture is taken with respect to the time-independent
    H0 = lambda_u sz_u + lambda_l sz_l of a constant lab-frame Hamiltonian
    H0 + V, so U_I(t) = exp(i H0 t/hbar) exp(-i (H0 + V) t/hbar) exactly.
    One eigendecomposition of H0 + V serves every time.  ``t`` may be a
    scalar (returns 4x4) or an array (returns stacked (len(t), 4, 4)).
    """
    tt = np.asarray(t, dtype=float)[..., None] / CONSTANTS.hbar
    phase = max(abs(coeffs.lambda_u), abs(coeffs.lambda_l)) * np.max(np.abs(tt))
    if phase * 2.0**-52 > PHASE_ROUNDING_LIMIT:
        raise PhaseResolutionError(
            f"phase lambda*t/hbar reaches {phase:.3e} rad; its float64 "
            f"rounding exceeds {PHASE_ROUNDING_LIMIT:.0e} rad")
    h0 = (coeffs.lambda_u * np.diag(_upper(_SZ))
          + coeffs.lambda_l * np.diag(_lower(_SZ)))  # H0 is diagonal
    v = (coeffs.cu_x * _upper(_SX) + coeffs.cl_x * _lower(_SX)
         + coeffs.c_zz * _SZZ + coeffs.c_xx * _upper(_SX) @ _lower(_SX)
         + coeffs.c_zx * _upper(_SZ) @ _lower(_SX)
         + coeffs.c_xz * _upper(_SX) @ _lower(_SZ))
    w, vecs = np.linalg.eigh(np.diag(h0) + v)
    lab = (vecs * np.exp(-1j * w * tt)[..., None, :]) @ vecs.conj().T
    return np.exp(1j * h0 * tt)[..., :, None] * lab


def rwa_fidelity(coeffs: PauliCoefficients, times) -> np.ndarray:
    """Fidelity of the closed-form iSWAP against the exact full propagator
    at each of ``times``."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    full = interaction_propagator(coeffs, times)
    return np.array([gate_fidelity(u, iswap_propagator(coeffs, t))
                     for u, t in zip(full, times)])


def gate_fidelity(U_a: np.ndarray, U_b: np.ndarray) -> float:
    """Global-phase-invariant overlap |Tr(Ua^dag Ub)| / 4 of two 4x4
    unitaries."""
    return float(abs(np.trace(U_a.conj().T @ U_b)) / 4.0)
