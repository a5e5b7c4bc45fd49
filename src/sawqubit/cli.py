"""Command-line frontend: one subcommand per pipeline stage.

Subcommands: derive, levels, adiabaticity, rabi, twoqubit, validate.
``main`` frames every run once: it creates --out, loads the config,
derives the scales, calls the subcommand with a ``_Run`` record that
writes and lists its data files, and writes the manifest with the run's
wall time.  All data files are deterministic (no timestamps inside them);
volatile fields live only in the manifest.

Exit codes: 0 success, 2 configuration error or an unwritable --out,
3 numerical failure, 4 validation failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import (__version__, adiabatic, dynamics, oracles, pipeline, potential,
               twoqubit)
from .constants import CONSTANTS
from .eigensolver import BOUND_FRACTION, SolverError, bound_fractions
from .params import ConfigError, DeviceConfig, derive_scales, load_config, \
    thermal_ratio

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

NUMERICAL_ERRORS = (SolverError, pipeline.UnboundQubitError,
                    dynamics.StepSizeError,
                    dynamics.NoOscillationError,
                    twoqubit.NoExchangeCouplingError,
                    twoqubit.PhaseResolutionError,
                    adiabatic.DegenerateSplittingError)

# CSV: comma-separated, '.' decimal, 17 significant digits.
_FMT = "%.16e"
# Rows formatted and written at a time; bounds the text held in memory.
CSV_BLOCK_ROWS = 1024


def _format_column(values: np.ndarray) -> list[str]:
    """One CSV cell per value: %d for integer or bool dtypes, else %.16e."""
    fmt = "%d\n" if values.dtype.kind in "biu" else _FMT + "\n"
    return (fmt * values.size % tuple(values.tolist())).split("\n")[:-1]


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write equal-length columns under a header row.

    A column is a 1-D numpy array, formatted here block by block, or a
    list of cells already formatted by ``_format_column`` (to share one
    column between files).
    """
    n_rows = len(columns[0])
    if any(len(col) != n_rows for col in columns):
        raise ValueError("CSV columns differ in length")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            cells = [_format_column(col[block])
                     if isinstance(col, np.ndarray) else col[block]
                     for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Run:
    """One run's frame: its --out directory, --units mode, derived scales
    and the data files written so far.

    ``val`` and ``col`` scale the output columns: SI mode passes values
    through; natural mode divides by the relevant scale and renames the
    unit suffix in headers.  ``csv`` and ``json`` write a data file into
    --out, list it for the manifest and return its path.
    """

    def __init__(self, out: str, units: str, scales):
        self.out = out
        self.units = units
        self.scales = scales
        self.outputs = []

    def val(self, value, kind: str):
        if self.units == "si":
            return value
        div = {"s": self.scales.natural_time,
               "J": self.scales.natural_energy,
               "m": self.scales.natural_length}[kind]
        return value / div

    def col(self, base: str, kind: str) -> str:
        return f"{base}_{kind}" if self.units == "si" else f"{base}_nat"

    def csv(self, name: str, header: list[str], columns) -> str:
        path = os.path.join(self.out, name)
        _write_csv(path, header, columns)
        self.outputs.append(path)
        return path

    def json(self, name: str, obj: dict) -> str:
        path = os.path.join(self.out, name)
        _write_json(path, obj)
        self.outputs.append(path)
        return path


def cmd_derive(args, config: DeviceConfig, run: _Run) -> int:
    scales = run.scales
    check = thermal_ratio(config, pipeline.REFERENCE_QUBIT_SPLITTING)
    doc = {key: value for key, value in config.as_file_dict().items()}
    doc.update({
        "V0": run.val(scales.V0, "J"),
        "V_S": run.val(scales.V_S, "J"),
        "k_per_m": scales.k,
        "omega_saw_rad_per_s": scales.omega_saw,
        "T_period": run.val(scales.T_period, "s"),
        "m_star_kg": scales.m_star,
        "natural_length_m": scales.natural_length,
        "natural_energy_J": scales.natural_energy,
        "natural_time_s": scales.natural_time,
        "V0_dimensionless": scales.V0_nat,
        "V_S_dimensionless": scales.V_S_nat,
        "k_dimensionless": scales.k_nat,
        "omega_saw_dimensionless": scales.omega_saw_nat,
        "thermal_energy": run.val(check.thermal_energy, "J"),
        "thermal_ratio_vs_reference_splitting": check.ratio,
        "units": args.units,
    })
    path = run.json("derived.json", doc)
    print(f"T_period = {scales.T_period:.4e} s, "
          f"k_B T = {check.thermal_energy:.4e} J  -> {path}")
    return EXIT_OK


def _parse_times_ns(text: str) -> np.ndarray:
    try:
        values = np.array([float(x) * 1e-9 for x in text.split(",")])
    except ValueError as exc:
        raise ConfigError("--times", f"not a comma-separated number list: {exc}")
    if values.size == 0:
        raise ConfigError("--times", "empty time list")
    if not np.all(np.isfinite(values)):
        raise ConfigError("--times", "every time must be finite")
    return values


def _positive_ns(flag: str, value_ns):
    """Optional duration flag in ns, converted to s; finite and > 0 in s."""
    if value_ns is None:
        return None
    value = value_ns * 1e-9
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(flag, "must be finite and > 0")
    return value


def cmd_levels(args, config: DeviceConfig, run: _Run) -> int:
    scales = run.scales
    if not 1 <= args.levels <= pipeline.DOT_WINDOW_POINTS:
        raise ConfigError("--levels",
                          f"must be in [1, {pipeline.DOT_WINDOW_POINTS}]")
    if args.times is not None:
        times = _parse_times_ns(args.times)
    else:
        times = pipeline.default_times(scales, 8)
    level_rows = []
    # every potential file shares the full-domain z column: format it once
    zeta = pipeline.default_grid(config).points
    pot_z = _format_column(run.val(zeta * scales.natural_length, "m"))
    for i, t in enumerate(times):
        levels, center = pipeline.solve_dot_levels(t, config, scales,
                                                   count=args.levels)
        # potential curve over the full domain
        v = potential.effective(zeta, t, scales) * scales.natural_energy
        run.csv(f"potential_{i:02d}.csv",
                [run.col("z", "m"), run.col("energy", "J")],
                [pot_z, run.val(v, "J")])
        # wavefunctions on the dot window
        header = [run.col("z", "m")] + [f"psi_{n}" for n in range(args.levels)]
        cols = [run.val(levels.grid.points * scales.natural_length, "m")]
        run.csv(f"wavefunctions_{i:02d}.csv", header,
                cols + list(levels.states))
        fractions = bound_fractions(
            levels, potential.effective(levels.grid.points, t, scales), center)
        for n, (energy, frac) in enumerate(zip(levels.energies, fractions)):
            level_rows.append((run.val(t, "s"), n,
                               run.val(scales.energy_to_si(energy), "J"),
                               frac >= BOUND_FRACTION, frac))
    path = run.csv("levels.csv",
                   [run.col("t", "s"), "level_index", run.col("energy", "J"),
                    "bound_flag", "mass_fraction"],
                   [np.array(col) for col in zip(*level_rows)])
    print(f"{len(times)} times x {args.levels} levels -> {path}")
    return EXIT_OK


def cmd_adiabaticity(args, config: DeviceConfig, run: _Run) -> int:
    prof = pipeline.adiabaticity_profile(config, run.scales)
    i = prof.t_star_index
    e0, e1 = run.scales.energy_to_si(prof.energies).T
    csv_path = run.csv(
        "beta.csv",
        [run.col("t", "s"), "beta", run.col("E0", "J"), run.col("E1", "J"),
         run.col("splitting", "J")],
        [run.val(prof.times, "s"), prof.beta, run.val(e0, "J"),
         run.val(e1, "J"), run.val(e1 - e0, "J")])
    beta_star, max_beta = prof.beta[i], prof.beta.max()
    run.json("adiabaticity_summary.json", {
        "t_star": run.val(float(prof.times[i]), "s"),
        "beta_at_t_star": float(beta_star),
        "max_beta": float(max_beta),
        "E0_at_t_star": run.val(float(e0[i]), "J"),
        "E1_at_t_star": run.val(float(e1[i]), "J"),
        "splitting_at_t_star": run.val(float(e1[i] - e0[i]), "J"),
        "well_center_over_a": prof.well_center,
        "units": args.units,
    })
    print(f"beta(t*) = {beta_star:.4f}, max beta = {max_beta:.4f} "
          f"-> {csv_path}")
    return EXIT_OK


def cmd_rabi(args, config: DeviceConfig, run: _Run) -> int:
    duration = _positive_ns("--duration", args.duration)
    result = pipeline.simulate_rabi(pipeline.solve_qubit(config),
                                    duration=duration)
    traj = result.trajectory
    run.csv("rabi.csv",
            [run.col("t", "s"), "re_c0", "im_c0", "re_c1", "im_c1",
             "p0", "p1"],
            [run.val(traj.times, "s"), traj.c0.real, traj.c0.imag,
             traj.c1.real, traj.c1.imag, traj.p0, traj.p1])
    json_path = run.json("rabi_summary.json", {
        "rabi_period": run.val(result.period, "s"),
        "rabi_period_method": dynamics.PERIOD_METHOD,
        "estimated_period": run.val(result.estimated_period, "s"),
        "resonance_rad_per_s": result.params.omega_drive,
        "D00_rad_per_s": float(result.params.D[0, 0]),
        "D01_rad_per_s": float(result.params.D[0, 1]),
        "D11_rad_per_s": float(result.params.D[1, 1]),
        "norm_drift": traj.norm_drift,
        "units": args.units,
    })
    print(f"Rabi period {result.period:.4e} s ({dynamics.PERIOD_METHOD}) "
          f"-> {json_path}")
    return EXIT_OK


PUBLISHED_ZZ_OVER_XX = 1.3e-3


def cmd_twoqubit(args, config: DeviceConfig, run: _Run) -> int:
    d = args.d if args.d is not None else config.channel_separation
    if not (math.isfinite(d) and d > 0):
        raise ConfigError("--d", "must be finite and > 0")
    duration = _positive_ns("--duration", args.duration)
    if args.fixture_paper_z:
        zu, zl = pipeline.REFERENCE_Z_UPPER, pipeline.REFERENCE_Z_LOWER
        splitting = pipeline.REFERENCE_QUBIT_SPLITTING
    else:
        sol = pipeline.solve_qubit(config)
        zu = zl = (sol.levels.matrix(sol.levels.grid.points)
                   * sol.scales.natural_length)
        splitting = sol.splitting
    coeffs = twoqubit.coulomb_pauli_coefficients(
        zu, zl, d, omega=splitting / CONSTANTS.hbar)
    gate_time = twoqubit.gate_time_for_iswap(coeffs)
    t_max = duration if duration is not None else gate_time
    sweep_times = np.linspace(t_max / 32.0, t_max, 32)
    fids = twoqubit.rwa_fidelity(coeffs, np.append(sweep_times, gate_time))
    run.csv("fidelity.csv", [run.col("t", "s"), "fidelity"],
            [run.val(sweep_times, "s"), fids[:-1]])
    rwa_fid = float(fids[-1])
    summary = {
        "d_m": d,
        "z_u00": run.val(zu[0, 0], "m"), "z_u11": run.val(zu[1, 1], "m"),
        "z_u01": run.val(zu[0, 1], "m"),
        "z_l00": run.val(zl[0, 0], "m"), "z_l11": run.val(zl[1, 1], "m"),
        "z_l01": run.val(zl[0, 1], "m"),
        "cu_z": run.val(coeffs.cu_z, "J"), "cl_z": run.val(coeffs.cl_z, "J"),
        "cu_x": run.val(coeffs.cu_x, "J"), "cl_x": run.val(coeffs.cl_x, "J"),
        "c_zz": run.val(coeffs.c_zz, "J"), "c_xx": run.val(coeffs.c_xx, "J"),
        "c_zx": run.val(coeffs.c_zx, "J"), "c_xz": run.val(coeffs.c_xz, "J"),
        "lambda_u": run.val(coeffs.lambda_u, "J"),
        "lambda_l": run.val(coeffs.lambda_l, "J"),
        "czz_over_cxx": abs(coeffs.c_zz / coeffs.c_xx),
        "published_czz_over_cxx": PUBLISHED_ZZ_OVER_XX,
        "discrepancy_documented": bool(args.fixture_paper_z),
        "gate_time": run.val(gate_time, "s"),
        "rwa_fidelity": rwa_fid,
        "fixture_mode": bool(args.fixture_paper_z),
        "units": args.units,
    }
    json_path = run.json("twoqubit_summary.json", summary)
    print(f"|c_zz/c_xx| = {summary['czz_over_cxx']:.4e}, gate time "
          f"{gate_time:.4e} s, RWA fidelity {rwa_fid:.6f} "
          f"-> {json_path}")
    return EXIT_OK


def cmd_validate(args, config: DeviceConfig, run: _Run) -> int:
    results = oracles.run_all()
    report = {r.name: {"passed": r.passed, **r.measured} for r in results}
    # Splitting report for both candidate effective-mass settings, from
    # one natural-unit solve (the spectrum is mass independent).
    sol = pipeline.solve_qubit(config)
    masses = {}
    for ratio in (0.0067, 0.067):
        splitting = pipeline.rescale_solution(sol, ratio).splitting
        masses[f"splitting_J_mass_{ratio}"] = splitting
        masses[f"splitting_over_reference_mass_{ratio}"] = (
            splitting / pipeline.REFERENCE_QUBIT_SPLITTING)
    report["mass_splitting_report"] = masses
    overall = all(r.passed for r in results)
    report["overall_passed"] = overall
    path = run.json("validation.json", report)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
    print(f"overall: {'PASS' if overall else 'FAIL'} -> {path}")
    return EXIT_OK if overall else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sawqubit",
        description="Moving-quantum-dot flying-qubit simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", default=None,
                       help="JSON config file (defaults used when omitted)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--units", choices=("si", "natural"), default="si")

    p = sub.add_parser("derive", help="derived scales and thermal check")
    common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("levels", help="instantaneous dot levels over time")
    common(p)
    p.add_argument("--times", default=None,
                   help="comma-separated times in ns (default: 8 samples "
                        "over one SAW period)")
    p.add_argument("--levels", type=int, default=3)
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("adiabaticity", help="beta sweep over one SAW period")
    common(p)
    p.set_defaults(func=cmd_adiabaticity)

    p = sub.add_parser("rabi", help="resonantly driven population dynamics")
    common(p)
    p.add_argument("--duration", type=float, default=None,
                   help="integration span in ns (default: 1.5 estimated "
                        "flip periods)")
    p.set_defaults(func=cmd_rabi)

    p = sub.add_parser("twoqubit", help="Coulomb coupling and iSWAP gate")
    common(p)
    p.add_argument("--d", type=float, default=None,
                   help="channel separation in meters (default: config value)")
    p.add_argument("--duration", type=float, default=None,
                   help="fidelity sweep endpoint in ns (default: gate time)")
    p.add_argument("--fixture-paper-z", action="store_true",
                   help="use the built-in reference matrix elements instead "
                        "of solving the spectrum")
    p.set_defaults(func=cmd_twoqubit)

    p = sub.add_parser("validate", help="run the analytic oracle suite")
    p.add_argument("--out", default="out", help="output directory")
    # the oracles and the mass report run on the default device
    p.set_defaults(func=cmd_validate, config=None, units="si")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        t_start = time.perf_counter()
        os.makedirs(args.out, exist_ok=True)
        config = (DeviceConfig() if args.config is None
                  else load_config(args.config))
        run = _Run(args.out, args.units, derive_scales(config))
        code = args.func(args, config, run)
        _write_json(os.path.join(args.out, "manifest.json"), {
            "subcommand": args.subcommand,
            "tool_version": __version__,
            "config": config.as_file_dict(),
            "derived_scales": run.scales.as_dict(),
            "outputs": sorted(run.outputs),
            "wall_time_s": time.perf_counter() - t_start,
        })
        return code
    except OSError as exc:
        # --config read errors are ConfigErrors, so this is the output side
        print(f"cannot write output {exc.filename or args.out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
