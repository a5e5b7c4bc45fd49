"""Coulomb-coupled two-dot gate construction.

Pipeline: per-dot position matrix elements -> Pauli decomposition of the
quadratic inter-channel Coulomb coupling -> interaction-picture Hamiltonian
(with counter-rotating terms) -> rotating-wave closed-form iSWAP propagator,
compared with the exact interaction-picture propagator of the full
Hamiltonian by gate fidelity.

Basis ordering everywhere: |11>, |10>, |01>, |00> (upper qubit first).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants, CONSTANTS
from .eigensolver import EigenPair, Grid, matrix_element

# Single-qubit operators in the (|1>, |0>) basis.
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SP = np.array([[0.0, 1.0], [0.0, 0.0]])  # |1><0|
_SM = np.array([[0.0, 0.0], [1.0, 0.0]])  # |0><1|
_ID = np.eye(2)


def _upper(op):
    return np.kron(op, _ID)


def _lower(op):
    return np.kron(_ID, op)


class RwaDetuningWarning(UserWarning):
    """Interaction-picture frequencies differ beyond the configured threshold."""


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


@dataclass(frozen=True)
class ZMatrixElements:
    """Per-dot position matrix elements in the two-level subspace (m)."""

    z00: float
    z11: float
    z01: float


def dot_matrix_elements(psi0: EigenPair, psi1: EigenPair,
                        grid: Grid) -> ZMatrixElements:
    """<0|z|0>, <1|z|1>, <0|z|1> in the grid's length unit."""
    def ident(z):
        return z

    return ZMatrixElements(
        z00=matrix_element(psi0, psi0, ident, grid),
        z11=matrix_element(psi1, psi1, ident, grid),
        z01=matrix_element(psi0, psi1, ident, grid),
    )


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
    lambda_u: float  # hbar*omega_u/2 + C_u^z (J)
    lambda_l: float


def coulomb_pauli_coefficients(zu: ZMatrixElements, zl: ZMatrixElements,
                               d: float, constants: PhysicalConstants = CONSTANTS,
                               omega_u: float = 0.0, omega_l: float = 0.0,
                               expansion_guard: float = 0.3) -> PauliCoefficients:
    """Pauli decomposition of the quadratic inter-channel Coulomb coupling.

    ``omega_u``/``omega_l`` are the qubit transition frequencies (rad/s)
    entering the interaction-picture frequencies lambda_j.
    """
    if not (d > 0):
        raise ValueError("channel separation d must be positive")
    try:
        q = constants.elementary_charge**2 / (
            4.0 * math.pi * constants.vacuum_permittivity * d**3)
    except (OverflowError, ZeroDivisionError):
        raise NoExchangeCouplingError(
            f"d={d:.3e} m: 4 pi eps0 d**3 leaves the float range") from None
    # The expansion variable is the relative displacement z_l - z_u.
    span = max(abs(l - u) for l in (zl.z00, zl.z11) for u in (zu.z00, zu.z11))
    if span > expansion_guard * d:
        warnings.warn(
            f"relative dot displacement (~{span:.3e} m) approaches the "
            f"channel separation d={d:.3e} m; quadratic Coulomb expansion "
            "degrades", QuadraticExpansionWarning, stacklevel=2)
    su = zu.z00 + zu.z11
    sl = zl.z00 + zl.z11
    du = zu.z11 - zu.z00
    dl = zl.z11 - zl.z00
    cu_z = (q / 4.0) * (su - sl) * du
    cl_z = (q / 4.0) * (sl - su) * dl
    cu_x = (q / 2.0) * (su - sl) * zu.z01
    cl_x = (q / 2.0) * (sl - su) * zl.z01
    c_zz = -(q / 4.0) * du * dl
    c_xx = -q * zu.z01 * zl.z01
    c_zx = -(q / 2.0) * du * zl.z01
    c_xz = -(q / 2.0) * dl * zu.z01
    hbar = constants.hbar
    return PauliCoefficients(
        cu_z=cu_z, cl_z=cl_z, cu_x=cu_x, cl_x=cl_x,
        c_zz=c_zz, c_xx=c_xx, c_zx=c_zx, c_xz=c_xz,
        lambda_u=hbar * omega_u / 2.0 + cu_z,
        lambda_l=hbar * omega_l / 2.0 + cl_z,
    )


@dataclass(frozen=True)
class TwoQubitPropagator:
    """4x4 unitary in the |11>, |10>, |01>, |00> basis."""

    matrix: np.ndarray
    method: str  # "rwa_closed_form" | "interaction_exact"

    def unitarity_defect(self) -> float:
        u = self.matrix
        return float(np.max(np.abs(u.conj().T @ u - np.eye(4))))


def rwa_hamiltonian(coeffs: PauliCoefficients,
                    detuning_threshold: float = 1e-3) -> np.ndarray:
    """Rotating-wave effective coupling C^xx (s+ s- + s- s+), as a 4x4 matrix.

    Warns (RwaDetuningWarning) when lambda_u and lambda_l differ enough that
    the surviving exchange term is itself detuned.
    """
    lu, ll = coeffs.lambda_u, coeffs.lambda_l
    denom = min(abs(lu), abs(ll))
    if denom > 0 and abs(lu - ll) / denom > detuning_threshold:
        warnings.warn(
            f"interaction-picture detuning |lambda_u-lambda_l|/min="
            f"{abs(lu - ll) / denom:.3e} exceeds {detuning_threshold:.1e}; "
            "the exchange term is not exactly co-rotating",
            RwaDetuningWarning, stacklevel=2)
    return coeffs.c_xx * (_upper(_SP) @ _lower(_SM) + _upper(_SM) @ _lower(_SP))


def iswap_propagator(coeffs: PauliCoefficients, t: float,
                     constants: PhysicalConstants = CONSTANTS) -> TwoQubitPropagator:
    """Closed-form propagator of the rotating-wave exchange coupling.

    xi = t C^xx / hbar; the |10>/|01> block is [[cos xi, -i sin xi],
    [-i sin xi, cos xi]], the |11> and |00> amplitudes are untouched.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    xi = t * coeffs.c_xx / constants.hbar
    u = np.eye(4, dtype=complex)
    u[1, 1] = u[2, 2] = math.cos(xi)
    u[1, 2] = u[2, 1] = -1j * math.sin(xi)
    return TwoQubitPropagator(matrix=u, method="rwa_closed_form")


def gate_time_for_iswap(coeffs: PauliCoefficients,
                        constants: PhysicalConstants = CONSTANTS) -> float:
    """Time at which |xi| reaches pi/2 (the iSWAP point)."""
    if coeffs.c_xx == 0:
        raise NoExchangeCouplingError(
            "c_xx is zero; no exchange coupling, no iSWAP")
    return (math.pi / 2.0) * constants.hbar / abs(coeffs.c_xx)


# Constant two-qubit operators for the interaction Hamiltonian.
_SZZ = _upper(_SZ) @ _lower(_SZ)
_SPU = _upper(_SP)
_SMU = _upper(_SM)
_SPL = _lower(_SP)
_SML = _lower(_SM)
_SPSP = _SPU @ _SPL
_SPSM = _SPU @ _SML
_SMSM = _SPSP.conj().T
_SMSP = _SPSM.conj().T
_SZU_SPL = _upper(_SZ) @ _SPL
_SZU_SML = _upper(_SZ) @ _SML
_SPU_SZL = _SPU @ _lower(_SZ)
_SMU_SZL = _SMU @ _lower(_SZ)


def interaction_hamiltonian(coeffs: PauliCoefficients, t,
                            constants: PhysicalConstants = CONSTANTS) -> np.ndarray:
    """Full interaction-picture Hamiltonian, counter-rotating terms included.

    ``t`` may be a scalar (returns 4x4) or an array (returns stacked
    (len(t), 4, 4)).
    """
    hbar = constants.hbar
    t = np.asarray(t, dtype=float)
    tt = t[..., None, None]
    eu = np.exp(2j * coeffs.lambda_u / hbar * tt)
    el = np.exp(2j * coeffs.lambda_l / hbar * tt)
    h = coeffs.c_zz * _SZZ + np.zeros_like(eu)
    h = h + coeffs.cu_x * (eu * _SPU + eu.conj() * _SMU)
    h = h + coeffs.cl_x * (el * _SPL + el.conj() * _SML)
    h = h + coeffs.c_xx * (eu * el * _SPSP + eu * el.conj() * _SPSM
                           + (eu * el).conj() * _SMSM + eu.conj() * el * _SMSP)
    h = h + coeffs.c_zx * (el * _SZU_SPL + el.conj() * _SZU_SML)
    h = h + coeffs.c_xz * (eu * _SPU_SZL + eu.conj() * _SMU_SZL)
    return h


def interaction_propagator(coeffs: PauliCoefficients, t,
                           constants: PhysicalConstants = CONSTANTS) -> np.ndarray:
    """Exact propagator of ``interaction_hamiltonian``, counter-rotating terms
    included.

    The interaction picture is taken with respect to the time-independent
    H0 = lambda_u sz_u + lambda_l sz_l of a constant lab-frame Hamiltonian
    H0 + V, so U_I(t) = exp(i H0 t/hbar) exp(-i (H0 + V) t/hbar) exactly.
    One eigendecomposition of H0 + V serves every time.  ``t`` may be a
    scalar (returns 4x4) or an array (returns stacked (len(t), 4, 4)).
    """
    hbar = constants.hbar
    tt = np.asarray(t, dtype=float)[..., None] / hbar
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


def rwa_fidelity(coeffs: PauliCoefficients, times,
                 constants: PhysicalConstants = CONSTANTS) -> np.ndarray:
    """Fidelity of the closed-form iSWAP against the exact full propagator
    at each of ``times``."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    full = interaction_propagator(coeffs, times, constants)
    return np.array([
        gate_fidelity(TwoQubitPropagator(matrix=u, method="interaction_exact"),
                      iswap_propagator(coeffs, t, constants))
        for u, t in zip(full, times)])


def gate_fidelity(U_a: TwoQubitPropagator, U_b: TwoQubitPropagator) -> float:
    """Global-phase-invariant overlap |Tr(Ua^dag Ub)| / 4."""
    return float(abs(np.trace(U_a.matrix.conj().T @ U_b.matrix)) / 4.0)
