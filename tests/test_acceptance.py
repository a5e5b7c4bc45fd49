"""Acceptance gate: one check per headline criterion, each reporting a
single PASS/FAIL line in the terminal summary.

A3, A4 and the period part of A5 compare against published anchor values
that this implementation does not reproduce under either effective-mass
setting; those checks fail by design and the discrepancy is analyzed in
the project notes.  They are asserted at their stated tolerances anyway:
weakening them would hide the disagreement.
"""
import filecmp
import json

import numpy as np
import pytest

import conftest
from sawqubit import cli, pipeline
from sawqubit.constants import CONSTANTS
from sawqubit.params import DeviceConfig, derive_scales
from sawqubit.twoqubit import (PauliCoefficients, coulomb_pauli_coefficients,
                               gate_time_for_iswap, iswap_propagator,
                               rwa_fidelity)

TRANSIT_TIME_TARGET = 0.34e-9  # s
SPLITTING_TARGET = 8.3667e-23  # J
BETA_TARGET = 0.0289
RABI_PERIOD_TARGET = 0.32e-9  # s
RATIO_TARGET = 5.1e-3
MASS_SETTINGS = (0.0067, 0.067)


def report(criterion, ok, detail):
    line = f"{criterion:7s} {'PASS' if ok else 'FAIL'}  {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_a1_saw_period():
    scales = derive_scales(DeviceConfig())
    rel = abs(scales.T_period - TRANSIT_TIME_TARGET) / TRANSIT_TIME_TARGET
    report("A1", rel < 0.02,
           f"T_period {scales.T_period * 1e9:.4f} ns vs 0.34 ns "
           f"({100 * rel:.2f}% off, limit 2%)")


def test_a2_eigensolver_oracles(oracle_results):
    names = ("sech_well_spectrum", "particle_in_box", "harmonic_spectrum",
             "grid_convergence_order")
    bad = [n for n in names if not oracle_results[n].passed]
    order = oracle_results["grid_convergence_order"].measured["observed_order"]
    report("A2", not bad,
           f"spectrum oracles <= 1e-4, convergence order {order:.3f} "
           f"(failures: {bad or 'none'})")


def test_a3_qubit_splitting(qubit_solution, qubit_solution_heavy):
    splittings = {0.0067: qubit_solution.splitting,
                  0.067: qubit_solution_heavy.splitting}
    within = {m: abs(s - SPLITTING_TARGET) / SPLITTING_TARGET <= 0.25
              for m, s in splittings.items()}
    detail = ", ".join(f"mass {m}: {s:.4e} J ({s / SPLITTING_TARGET:.2f}x "
                       f"target)" for m, s in splittings.items())
    report("A3", any(within.values()),
           detail + f"; target {SPLITTING_TARGET:.4e} J +/-25%")


def _beta_summary(sol):
    prof = pipeline.adiabaticity_profile(sol.config, sol.scales)
    return prof.beta[prof.t_star_index], prof.beta.max()


def test_a4_adiabaticity(qubit_solution, qubit_solution_heavy):
    stars = {}
    maxima = {}
    for mass, sol in ((0.0067, qubit_solution), (0.067, qubit_solution_heavy)):
        stars[mass], maxima[mass] = _beta_summary(sol)
    within = {m: 0.5 <= b / BETA_TARGET <= 2.0 for m, b in stars.items()}
    bounded = all(v < 1.0 for v in maxima.values())
    detail = ", ".join(f"mass {m}: beta(t*) {b:.4f}"
                       for m, b in stars.items())
    report("A4", any(within.values()) and bounded,
           detail + f"; target {BETA_TARGET} within 2x; "
           f"max beta {max(maxima.values()):.4f} < 1")


def test_a5i_integrator_vs_analytic(oracle_results):
    r = oracle_results["rwa_two_level"]
    dev = r.measured["max_abs_deviation"]
    report("A5(i)", r.passed and dev <= 1e-3,
           f"max |p1 - analytic| {dev:.2e} (limit 1e-3)")


def test_a5ii_norm_drift(oracle_results, rabi_result):
    drift_oracle = oracle_results["rwa_two_level"].measured["norm_drift"]
    drift_run = rabi_result.trajectory.norm_drift
    ok = drift_oracle <= 1e-8 and drift_run <= 1e-8
    report("A5(ii)", ok,
           f"norm drift {drift_oracle:.2e} (oracle), {drift_run:.2e} "
           f"(device run); limit 1e-8")


def test_a5iii_rabi_period(rabi_result, rabi_result_heavy):
    periods = {0.0067: rabi_result.period,
               0.067: rabi_result_heavy.period}
    within = {m: abs(p - RABI_PERIOD_TARGET) / RABI_PERIOD_TARGET <= 0.25
              for m, p in periods.items()}
    detail = ", ".join(f"mass {m}: {p * 1e9:.4f} ns"
                       for m, p in periods.items())
    report("A5(iii)", any(within.values()),
           detail + " vs 0.32 ns +/-25%")


@pytest.mark.filterwarnings(
    "error::sawqubit.twoqubit.QuadraticExpansionWarning")
def test_a6_coupling_ratio(tmp_path):
    coeffs = coulomb_pauli_coefficients(
        pipeline.REFERENCE_Z_UPPER, pipeline.REFERENCE_Z_LOWER, 1e-6,
        omega=pipeline.REFERENCE_QUBIT_SPLITTING / CONSTANTS.hbar)
    ratio = abs(coeffs.c_zz / coeffs.c_xx)
    out = tmp_path / "out"
    assert cli.main(["twoqubit", "--fixture-paper-z",
                     "--out", str(out)]) == 0
    doc = json.loads((out / "twoqubit_summary.json").read_text())
    ok = (ratio < 1e-2
          and abs(ratio - RATIO_TARGET) / RATIO_TARGET <= 0.01
          and doc["published_czz_over_cxx"] == 1.3e-3
          and doc["discrepancy_documented"] is True)
    report("A6", ok,
           f"|c_zz/c_xx| {ratio:.4e} (< 1e-2, within 1% of 5.1e-3); "
           f"published 1.3e-3 recorded as documented discrepancy")


def test_a7_gate_algebra():
    coeffs = PauliCoefficients(cu_z=0.0, cl_z=0.0, cu_x=0.0, cl_x=0.0,
                               c_zz=0.0, c_xx=1e-25, c_zx=0.0, c_xz=0.0,
                               lambda_u=4e-23, lambda_l=4e-23)
    t_gate = gate_time_for_iswap(coeffs)
    u = iswap_propagator(coeffs, t_gate)
    defect = np.max(np.abs(u.conj().T @ u - np.eye(4)))
    t1, t2 = 0.37 * t_gate, 0.81 * t_gate
    group = np.max(np.abs(iswap_propagator(coeffs, t1)
                          @ iswap_propagator(coeffs, t2)
                          - iswap_propagator(coeffs, t1 + t2)))
    state10 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    mapped = u @ state10
    swap_err = np.max(np.abs(mapped - np.array([0.0, 0.0, -1j, 0.0])))
    ok = defect <= 1e-10 and group <= 1e-12 and swap_err <= 1e-12
    report("A7", ok,
           f"unitarity {defect:.1e}, group {group:.1e}, "
           f"|10> -> -i|01> error {swap_err:.1e}")


def test_a8_rwa_validity():
    lam = 4e-23
    fidelities = []
    for ratio in np.logspace(-3, -2, 5):
        coeffs = PauliCoefficients(cu_z=0.0, cl_z=0.0, cu_x=0.0, cl_x=0.0,
                                   c_zz=0.0, c_xx=ratio * lam, c_zx=0.0,
                                   c_xz=0.0, lambda_u=lam, lambda_l=lam)
        fidelities.append(rwa_fidelity(coeffs, gate_time_for_iswap(coeffs))[0])
    ok = fidelities[0] >= 0.99 and np.all(np.diff(fidelities) <= 1e-9)
    report("A8", ok,
           f"fidelity {fidelities[0]:.6f} at coupling ratio 1e-3, "
           f"nonincreasing over decade sweep to {fidelities[-1]:.6f}")


def test_a9_coulomb_model(oracle_results):
    slope = oracle_results["quadratic_coulomb_slope"]
    force = oracle_results["coulomb_force_consistency"]
    ok = slope.passed and force.passed
    report("A9", ok,
           f"error slope {slope.measured['observed_slope']:.4f} "
           f"(2.0 +/- 0.05), force consistency "
           f"{force.measured['max_rel_error']:.1e} (limit 1e-8)")


def test_a10_cli_determinism(tmp_path):
    pairs = []
    for args, files in (
            (["derive"], ["derived.json"]),
            (["levels", "--times", "0.05,0.2", "--levels", "2"],
             ["levels.csv", "potential_00.csv", "wavefunctions_01.csv"])):
        out_a = tmp_path / ("a_" + args[0])
        out_b = tmp_path / ("b_" + args[0])
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        for name in files:
            pairs.append(filecmp.cmp(out_a / name, out_b / name,
                                     shallow=False))
    report("A10", all(pairs),
           f"{len(pairs)} data files byte-identical across repeated runs")
