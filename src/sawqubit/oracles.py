"""Self-contained analytic oracles for the numerical machinery.

Each oracle builds its own reference value from a closed form (sech^2 well
spectrum, particle in a box, harmonic oscillator, two-level rotating-wave
solution, finite-difference derivative checks, time-ordered product of the
two-qubit interaction Hamiltonian) and compares the production code
against it.  The validation subcommand and the test suite both run
these; keeping them in one place means the shipped binary can re-verify
itself on any machine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, potential, twoqubit
from .constants import CONSTANTS
from .eigensolver import build_grid, build_hamiltonian, solve_lowest
from .params import DeviceConfig, derive_scales

SPECTRUM_RTOL = 1e-4
CONVERGENCE_ORDER_TOL = 0.1
RWA_ATOL = 1e-3
DERIVATIVE_RTOL = 1e-6
FORCE_RTOL = 1e-8
SLOPE_TOL = 0.05
PROPAGATOR_ATOL = 1e-5
UNITARITY_ATOL = 1e-12

GRID_POINTS = 4096  # production resolution of the spectrum oracles
SECH_DEPTH = 25.0  # depth of the sech^2 test well: five bound levels
COULOMB_D = 1e-6  # channel separation of the Coulomb oracles (m)
PROPAGATOR_STEPS = 3200  # midpoint steps of the time-ordered product


@dataclass
class OracleResult:
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)


def _solve_energies(v, z_half: float, n_points: int, count: int) -> np.ndarray:
    grid = build_grid(-z_half, z_half, n_points)
    H = build_hamiltonian(grid, v)
    return solve_lowest(H, count, grid=grid).energies


def sech_well_energies(depth: float, count: int) -> np.ndarray:
    """Closed-form bound energies of V = -depth / cosh^2(z).

    In units hbar = 1, mass 1/2: E_n = -(s - n)^2 with
    s = (-1 + sqrt(1 + 4 depth)) / 2.
    """
    s = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * depth))
    n_bound = int(math.floor(s)) + 1
    if count > n_bound:
        raise ValueError(f"well of depth {depth} holds only {n_bound} levels")
    return -np.array([(s - n) ** 2 for n in range(count)])


def check_sech_well() -> OracleResult:
    exact = sech_well_energies(SECH_DEPTH, 3)
    num = _solve_energies(lambda z: -SECH_DEPTH / np.cosh(z) ** 2,
                          12.0, GRID_POINTS, 3)
    rel = np.abs(num - exact) / np.abs(exact)
    return OracleResult(
        name="sech_well_spectrum",
        passed=bool(rel.max() <= SPECTRUM_RTOL),
        measured={"max_rel_error": float(rel.max()),
                  "tolerance": SPECTRUM_RTOL,
                  "energies": num.tolist(),
                  "exact": exact.tolist()})


def check_box() -> OracleResult:
    """Particle in a unit box; the grid places the hard walls exactly on the
    Dirichlet boundary one spacing outside the first/last node."""
    h = 1.0 / (GRID_POINTS + 1)
    grid = build_grid(h, 1.0 - h, GRID_POINTS)
    H = build_hamiltonian(grid, lambda z: 0.0 * z)
    num = solve_lowest(H, 3, grid=grid).energies
    exact = np.array([(n * math.pi) ** 2 for n in range(1, 4)])
    rel = np.abs(num - exact) / exact
    return OracleResult(
        name="particle_in_box",
        passed=bool(rel.max() <= SPECTRUM_RTOL),
        measured={"max_rel_error": float(rel.max()),
                  "tolerance": SPECTRUM_RTOL})


def check_harmonic() -> OracleResult:
    """V = z^2 with mass 1/2 gives omega0 = 2 and levels 2n + 1."""
    num = _solve_energies(lambda z: z ** 2, 10.0, GRID_POINTS, 5)
    exact = np.array([2.0 * n + 1.0 for n in range(5)])
    rel = np.abs(num - exact) / exact
    spacings = np.diff(num)
    return OracleResult(
        name="harmonic_spectrum",
        passed=bool(rel.max() <= SPECTRUM_RTOL
                    and np.abs(spacings - 2.0).max() <= 2.0 * SPECTRUM_RTOL),
        measured={"max_rel_error": float(rel.max()),
                  "max_spacing_error": float(np.abs(spacings - 2.0).max()),
                  "tolerance": SPECTRUM_RTOL})


def check_convergence_order() -> OracleResult:
    """Ground-energy error of the sech^2 well under grid halving."""
    exact = sech_well_energies(SECH_DEPTH, 1)[0]
    errs = []
    for n_points in (512, 1024, 2048):
        e = _solve_energies(lambda z: -SECH_DEPTH / np.cosh(z) ** 2,
                            12.0, n_points, 1)[0]
        errs.append(abs(e - exact))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    order = float(np.mean(orders))
    return OracleResult(
        name="grid_convergence_order",
        passed=bool(abs(order - 2.0) <= CONVERGENCE_ORDER_TOL),
        measured={"observed_order": order, "expected": 2.0,
                  "tolerance": CONVERGENCE_ORDER_TOL,
                  "errors": errs})


def check_rwa_integration() -> OracleResult:
    """Resonant two-level run vs the analytic rotating-wave population, at
    levels 0 and 1e6 rad/s with D01 = 1e-3 of the drive frequency."""
    omega1 = 1e6
    d01 = 1e-3 * omega1
    params = dynamics.RabiParameters(
        omega0=0.0, omega1=omega1, omega_drive=omega1,
        D=np.array([[0.0, d01], [d01, 0.0]]))
    t_end = 2.0 * math.pi / d01  # one full flip cycle
    dt = dynamics.suggested_step(params)
    devs = []  # per chunk, so that no step is held beyond its chunk
    traj = dynamics.integrate_rabi(
        params, (0.0, t_end), dt, (1.0, 0.0), max_rows=2,
        on_chunk=lambda times, p1: devs.append(np.max(np.abs(
            p1 - dynamics.rwa_population(d01, 0.0, times)))))
    dev = float(np.max(devs))
    return OracleResult(
        name="rwa_two_level",
        passed=bool(dev <= RWA_ATOL and traj.norm_drift <= 1e-8),
        measured={"max_abs_deviation": dev, "tolerance": RWA_ATOL,
                  "norm_drift": traj.norm_drift})


def check_saw_time_derivative() -> OracleResult:
    """Analytic d/dt of the traveling wave vs a central difference, for the
    default device."""
    config = DeviceConfig()
    scales = derive_scales(config)
    dt = scales.T_period / 1e6
    half = 1.5 * config.saw_wavelength / config.a
    zeta = np.linspace(-half, half, 7)
    t = 0.37 * scales.T_period
    analytic = potential.saw_time_derivative(zeta, t, scales)
    span = scales.time_to_natural(2.0 * dt)
    fd = (potential.saw(zeta, t + dt, scales)
          - potential.saw(zeta, t - dt, scales)) / span
    rel = np.abs(analytic - fd) / np.max(np.abs(analytic))
    return OracleResult(
        name="saw_time_derivative",
        passed=bool(rel.max() <= DERIVATIVE_RTOL),
        measured={"max_rel_error": float(rel.max()),
                  "tolerance": DERIVATIVE_RTOL})


def check_coulomb_force_consistency() -> OracleResult:
    """Numerical -d/dz of the exact pair potential vs the closed-form force.

    The potential is a function of the relative coordinate z = z_l - z_u, so
    its derivative equals the force on the lower electron with sign flipped.
    """
    d = COULOMB_D
    z = np.linspace(-0.5 * d, 0.5 * d, 11)
    z = z[np.abs(z) > 1e-12 * d]
    dz = 1e-7 * d
    dv = (potential.coulomb_potential_exact(z + dz, d)
          - potential.coulomb_potential_exact(z - dz, d)) / (2.0 * dz)
    force = potential.coulomb_force(np.zeros_like(z), z, d)
    rel = np.abs(dv - force) / np.max(np.abs(force))
    return OracleResult(
        name="coulomb_force_consistency",
        passed=bool(rel.max() <= FORCE_RTOL),
        measured={"max_rel_error": float(rel.max()),
                  "tolerance": FORCE_RTOL})


def check_quadratic_coulomb_slope() -> OracleResult:
    """log-log slope of the quadratic-expansion error over z/d in [1e-3, 1e-1]."""
    d = COULOMB_D
    ratios = np.logspace(-3, -1, 9)
    z = ratios * d
    exact = potential.coulomb_potential_exact(z, d)
    quad = potential.coulomb_potential_quadratic(z, d)
    rel_err = np.abs(quad - exact) / exact
    slope, _ = np.polyfit(np.log(ratios), np.log(rel_err), 1)
    return OracleResult(
        name="quadratic_coulomb_slope",
        passed=bool(abs(slope - 2.0) <= SLOPE_TOL),
        measured={"observed_slope": float(slope), "expected": 2.0,
                  "tolerance": SLOPE_TOL})


# Single-qubit operators in the (|1>, |0>) basis of twoqubit; two-qubit
# operators are kron(upper, lower).
_SP = np.array([[0.0, 1.0], [0.0, 0.0]])  # |1><0|
_SM = _SP.T  # |0><1|
_SZ = np.diag([1.0, -1.0])
_ID = np.eye(2)


def interaction_hamiltonian(coeffs: twoqubit.PauliCoefficients,
                            t) -> np.ndarray:
    """Full interaction-picture Hamiltonian, counter-rotating terms included.

    ``t`` may be a scalar (returns 4x4) or an array (returns stacked
    (len(t), 4, 4)).
    """
    hbar = CONSTANTS.hbar
    k = np.kron
    tt = np.asarray(t, dtype=float)[..., None, None]
    eu = np.exp(2j * coeffs.lambda_u / hbar * tt)
    el = np.exp(2j * coeffs.lambda_l / hbar * tt)
    h = coeffs.c_zz * k(_SZ, _SZ) + np.zeros_like(eu)
    h = h + coeffs.cu_x * (eu * k(_SP, _ID) + eu.conj() * k(_SM, _ID))
    h = h + coeffs.cl_x * (el * k(_ID, _SP) + el.conj() * k(_ID, _SM))
    h = h + coeffs.c_xx * (eu * el * k(_SP, _SP) + eu * el.conj() * k(_SP, _SM)
                           + (eu * el).conj() * k(_SM, _SM)
                           + eu.conj() * el * k(_SM, _SP))
    h = h + coeffs.c_zx * (el * k(_SZ, _SP) + el.conj() * k(_SZ, _SM))
    h = h + coeffs.c_xz * (eu * k(_SP, _SZ) + eu.conj() * k(_SM, _SZ))
    return h


def time_ordered_propagator(coeffs: twoqubit.PauliCoefficients, t: float,
                            n_steps: int) -> np.ndarray:
    """Product of ``n_steps`` midpoint-step exponentials of the full
    interaction-picture Hamiltonian over [0, t].

    Each step is the exact exponential of the 4x4 Hermitian midpoint matrix;
    the steps are multiplied pairwise, later steps on the left.  Memory
    grows with ``n_steps`` (a few 256-byte matrices per step).
    """
    dt = t / n_steps
    mids = (np.arange(n_steps) + 0.5) * dt
    w, v = np.linalg.eigh(interaction_hamiltonian(coeffs, mids))
    u = (v * np.exp(-1j * w * dt / CONSTANTS.hbar)[:, None, :]) @ \
        v.conj().swapaxes(1, 2)
    while len(u) > 1:
        if len(u) % 2:
            u = np.concatenate([u, np.eye(4)[None]])
        u = u[1::2] @ u[0::2]
    return u[0]


def check_interaction_propagator() -> OracleResult:
    """Exact two-qubit propagator vs the time-ordered midpoint product.

    All six Pauli couplings are nonzero, the largest a tenth of the level
    term, and the two frequencies differ, so every counter-rotating term
    enters; the run spans one iSWAP gate time.
    """
    lam = 4e-23
    c = 0.1 * lam
    coeffs = twoqubit.PauliCoefficients(
        cu_z=0.0, cl_z=0.0, cu_x=0.3 * c, cl_x=-0.2 * c, c_zz=0.5 * c,
        c_xx=c, c_zx=0.4 * c, c_xz=-0.25 * c,
        lambda_u=lam, lambda_l=1.02 * lam)
    t = twoqubit.gate_time_for_iswap(coeffs)
    exact = twoqubit.interaction_propagator(coeffs, t)
    dev = float(np.max(np.abs(exact - time_ordered_propagator(
        coeffs, t, PROPAGATOR_STEPS))))
    defect = float(np.max(np.abs(exact.conj().T @ exact - np.eye(4))))
    return OracleResult(
        name="interaction_propagator",
        passed=bool(dev <= PROPAGATOR_ATOL and defect <= UNITARITY_ATOL),
        measured={"max_abs_deviation": dev, "tolerance": PROPAGATOR_ATOL,
                  "unitarity_defect": defect, "steps": PROPAGATOR_STEPS})


def run_all() -> list[OracleResult]:
    """The full oracle suite at production resolution."""
    return [
        check_sech_well(),
        check_box(),
        check_harmonic(),
        check_convergence_order(),
        check_rwa_integration(),
        check_saw_time_derivative(),
        check_coulomb_force_consistency(),
        check_quadratic_coulomb_slope(),
        check_interaction_propagator(),
    ]
