"""Output checks for one job, run after the timed loop.

Each check returns None when the job's outputs are right, else a one-line
reason.  The checks test program correctness only; the documented
discrepancies against published numbers (A3, A4, A5(iii)) are not checked.
"""
from __future__ import annotations

import json
import os

import numpy as np
from scipy.linalg import expm

NORM_TOL = 1e-8
RABI_PERIOD_RTOL = 0.02
RABI_NORM_DRIFT = 1e-8
FIDELITY_ATOL = 1e-6

# Pauli operators in the program's (|1>, |0>) single-qubit basis; two-qubit
# operators are kron(upper, lower).
_SZ = np.diag([1.0, -1.0])
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_ID = np.eye(2)


def _up(op):
    return np.kron(op, _ID)


def _lo(op):
    return np.kron(_ID, op)


def _csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _all_finite(out: str) -> str | None:
    """Every CSV value finite: the program's "%.16e" prints nan and inf as
    those words, which no data row holds otherwise."""
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as fh:
                fh.readline()  # header
                rows = fh.read().lower()
            if b"nan" in rows or b"inf" in rows:
                return f"{name}: non-finite value"
    return None


def _check_levels(out: str, config: dict) -> str | None:
    rows = _csv(os.path.join(out, "levels.csv"))
    times = np.unique(rows[:, 0])
    energies = rows[:, 2].reshape(times.size, -1)
    if not np.all(np.diff(energies, axis=1) > 0):
        return "levels.csv: energies not ascending at some time"
    a = config.get("a_m", 5e-7)
    for i in range(times.size):
        wf = _csv(os.path.join(out, f"wavefunctions_{i:02d}.csv"))
        z = wf[:, 0]
        h = (z[-1] - z[0]) / (z.size - 1) / a  # natural-unit grid spacing
        norms = np.sum(wf[:, 1:] ** 2, axis=0) * h
        if np.max(np.abs(norms - 1.0)) > NORM_TOL:
            return (f"wavefunctions_{i:02d}.csv: norm off by "
                    f"{np.max(np.abs(norms - 1.0)):.3e}")
    return None


def _check_adiabaticity(out: str, config: dict) -> str | None:
    rows = _csv(os.path.join(out, "beta.csv"))
    if not np.all(rows[:, 3] > rows[:, 2]):
        return "beta.csv: E1 not above E0 at some time"
    summary = _json(os.path.join(out, "adiabaticity_summary.json"))
    if not all(np.isfinite(v) for v in summary.values()
               if isinstance(v, float)):
        return "adiabaticity_summary.json: non-finite value"
    return None


def _check_rabi(out: str, config: dict) -> str | None:
    s = _json(os.path.join(out, "rabi_summary.json"))
    if not s["norm_drift"] <= RABI_NORM_DRIFT:
        return f"norm_drift {s['norm_drift']:.3e} > {RABI_NORM_DRIFT}"
    rel = abs(s["rabi_period"] / s["estimated_period"] - 1.0)
    if not rel <= RABI_PERIOD_RTOL:
        return f"Rabi period {rel:.3%} away from the estimate"
    return None


def exact_rwa_fidelity(s: dict, hbar: float) -> float:
    """Fidelity of the exact interaction-picture propagator at the gate time.

    The lab-frame Hamiltonian H0 + V is time independent, so
    U_I(t) = exp(i H0 t / hbar) exp(-i (H0 + V) t / hbar), compared with
    the closed-form rotating-wave iSWAP propagator.
    """
    h0 = s["lambda_u"] * _up(_SZ) + s["lambda_l"] * _lo(_SZ)
    v = (s["cu_x"] * _up(_SX) + s["cl_x"] * _lo(_SX)
         + s["c_zz"] * _up(_SZ) @ _lo(_SZ) + s["c_xx"] * _up(_SX) @ _lo(_SX)
         + s["c_zx"] * _up(_SZ) @ _lo(_SX) + s["c_xz"] * _up(_SX) @ _lo(_SZ))
    t = s["gate_time"]
    u = expm(1j * h0 * t / hbar) @ expm(-1j * (h0 + v) * t / hbar)
    xi = t * s["c_xx"] / hbar
    rwa = np.eye(4, dtype=complex)
    rwa[1, 1] = rwa[2, 2] = np.cos(xi)
    rwa[1, 2] = rwa[2, 1] = -1j * np.sin(xi)
    return float(abs(np.trace(u.conj().T @ rwa)) / 4.0)


def _check_twoqubit(out: str, config: dict) -> str | None:
    from sawqubit.constants import CONSTANTS

    rows = _csv(os.path.join(out, "fidelity.csv"))
    if not np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0)):
        return "fidelity.csv: fidelity outside [0, 1]"
    s = _json(os.path.join(out, "twoqubit_summary.json"))
    exact = exact_rwa_fidelity(s, CONSTANTS.hbar)
    if not abs(exact - s["rwa_fidelity"]) <= FIDELITY_ATOL:
        return (f"rwa_fidelity {s['rwa_fidelity']:.9f} vs exact "
                f"{exact:.9f}")
    return None


def _check_validate(out: str, config: dict) -> str | None:
    if not _json(os.path.join(out, "validation.json"))["overall_passed"]:
        return "validation.json: overall_passed is false"
    return None


_CHECKS = {
    "levels": _check_levels,
    "adiabaticity": _check_adiabaticity,
    "rabi": _check_rabi,
    "twoqubit": _check_twoqubit,
    "validate": _check_validate,
}


def check(job, code, out: str) -> str | None:
    """None when the job ended as it must, else the reason it failed."""
    if code != job.expected_exit:
        ended = "raised" if code is None else f"exit {code}"
        return f"{ended}, expected exit {job.expected_exit}"
    if job.malformed:
        return None
    try:
        return _all_finite(out) or _CHECKS[job.kind](out, job.config or {})
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
