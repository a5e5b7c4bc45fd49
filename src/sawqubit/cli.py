"""Command-line frontend: one subcommand per pipeline stage.

Subcommands: derive, levels, adiabaticity, rabi, twoqubit, validate.
All data files are deterministic (no timestamps inside them); volatile
fields live only in the per-run manifest.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 validation failure.
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
from .eigensolver import SolverError, classify_bound
from .params import ConfigError, DeviceConfig, derive_scales, load_config, \
    thermal_ratio

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

NUMERICAL_ERRORS = (SolverError, dynamics.StepSizeError,
                    dynamics.NoOscillationError,
                    twoqubit.NoExchangeCouplingError,
                    twoqubit.PhaseResolutionError,
                    adiabatic.DegenerateSplittingError)

# CSV: comma-separated, '.' decimal, 17 significant digits.
_FMT = "%.16e"
# Rows formatted and written at a time; bounds the text held in memory.
CSV_BLOCK_ROWS = 1024

MAX_TRAJECTORY_ROWS = 4001


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


class _Units:
    """Column scaling for the --units flag.

    SI mode passes values through; natural mode divides by the relevant
    scale and renames the unit suffix in headers.
    """

    def __init__(self, mode: str, scales):
        self.mode = mode
        self.scales = scales

    def val(self, value, kind: str):
        if self.mode == "si":
            return value
        div = {"s": self.scales.natural_time,
               "J": self.scales.natural_energy,
               "m": self.scales.natural_length}[kind]
        return value / div

    def col(self, base: str, kind: str) -> str:
        return f"{base}_{kind}" if self.mode == "si" else f"{base}_nat"


def _finish(out_dir: str, subcommand: str, config: DeviceConfig, scales,
            outputs: list[str], t_start: float) -> None:
    manifest = {
        "subcommand": subcommand,
        "tool_version": __version__,
        "config": config.as_file_dict(),
        "derived_scales": scales.as_dict(),
        "outputs": sorted(outputs),
        "wall_time_s": time.perf_counter() - t_start,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _load(args) -> DeviceConfig:
    if args.config is not None:
        return load_config(args.config)
    return DeviceConfig()


def cmd_derive(args) -> int:
    t_start = time.perf_counter()
    config = _load(args)
    scales = derive_scales(config)
    check = thermal_ratio(config, pipeline.REFERENCE_QUBIT_SPLITTING)
    u = _Units(args.units, scales)
    doc = {key: value for key, value in config.as_file_dict().items()}
    doc.update({
        "V0": u.val(scales.V0, "J"),
        "V_S": u.val(scales.V_S, "J"),
        "k_per_m": scales.k,
        "omega_saw_rad_per_s": scales.omega_saw,
        "T_period": u.val(scales.T_period, "s"),
        "m_star_kg": scales.m_star,
        "natural_length_m": scales.natural_length,
        "natural_energy_J": scales.natural_energy,
        "natural_time_s": scales.natural_time,
        "V0_dimensionless": scales.V0_nat,
        "V_S_dimensionless": scales.V_S_nat,
        "k_dimensionless": scales.k_nat,
        "omega_saw_dimensionless": scales.omega_saw_nat,
        "thermal_energy": u.val(check.thermal_energy, "J"),
        "thermal_ratio_vs_reference_splitting": check.ratio,
        "units": args.units,
    })
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "derived.json")
    _write_json(path, doc)
    print(f"T_period = {scales.T_period:.4e} s, "
          f"k_B T = {check.thermal_energy:.4e} J  -> {path}")
    _finish(args.out, "derive", config, scales, [path], t_start)
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
    """Optional duration flag in ns, converted to s; finite and > 0."""
    if value_ns is None:
        return None
    if not (math.isfinite(value_ns) and value_ns > 0):
        raise ConfigError(flag, "must be finite and > 0")
    return value_ns * 1e-9


def cmd_levels(args) -> int:
    t_start = time.perf_counter()
    config = _load(args)
    scales = derive_scales(config)
    if not 1 <= args.levels <= pipeline.DOT_WINDOW_POINTS:
        raise ConfigError("--levels",
                          f"must be in [1, {pipeline.DOT_WINDOW_POINTS}]")
    if args.times is not None:
        times = _parse_times_ns(args.times)
    else:
        times = pipeline.default_times(scales, 8)
    u = _Units(args.units, scales)
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    well_width = config.saw_wavelength / config.a  # natural units
    level_rows = []
    # every potential file shares the full-domain z column: format it once
    zeta = pipeline.default_grid(config).points
    pot_z = _format_column(u.val(zeta * scales.natural_length, "m"))
    for i, t in enumerate(times):
        pairs, grid, center = pipeline.solve_dot_levels(t, config, scales,
                                                        count=args.levels)
        # potential curve over the full domain
        pot_path = os.path.join(args.out, f"potential_{i:02d}.csv")
        v = potential.effective(zeta, t, scales) * scales.natural_energy
        _write_csv(pot_path,
                   [u.col("z", "m"), u.col("energy", "J")],
                   [pot_z, u.val(v, "J")])
        outputs.append(pot_path)
        # wavefunctions on the dot window
        wf_path = os.path.join(args.out, f"wavefunctions_{i:02d}.csv")
        header = [u.col("z", "m")] + [f"psi_{n}" for n in range(args.levels)]
        cols = [u.val(grid.points * scales.natural_length, "m")]
        cols += [p.wavefunction for p in pairs]
        _write_csv(wf_path, header, cols)
        outputs.append(wf_path)
        for n, p in enumerate(pairs):
            cls = classify_bound(p, grid, center, well_width)
            level_rows.append((u.val(t, "s"), n,
                               u.val(scales.energy_to_si(p.energy), "J"),
                               cls.bound, cls.mass_fraction))
    lv_path = os.path.join(args.out, "levels.csv")
    _write_csv(lv_path,
               [u.col("t", "s"), "level_index", u.col("energy", "J"),
                "bound_flag", "mass_fraction"],
               [np.array(col) for col in zip(*level_rows)])
    outputs.append(lv_path)
    print(f"{len(times)} times x {args.levels} levels -> {lv_path}")
    _finish(args.out, "levels", config, scales, outputs, t_start)
    return EXIT_OK


def cmd_adiabaticity(args) -> int:
    t_start = time.perf_counter()
    config = _load(args)
    scales = derive_scales(config)
    prof = pipeline.adiabaticity_profile(config, scales)
    i = prof.t_star_index
    u = _Units(args.units, scales)
    os.makedirs(args.out, exist_ok=True)
    e0, e1 = scales.energy_to_si(prof.energies).T
    csv_path = os.path.join(args.out, "beta.csv")
    _write_csv(csv_path,
               [u.col("t", "s"), "beta", u.col("E0", "J"), u.col("E1", "J"),
                u.col("splitting", "J")],
               [u.val(prof.times, "s"), prof.beta, u.val(e0, "J"),
                u.val(e1, "J"), u.val(e1 - e0, "J")])
    beta_star, max_beta = prof.beta[i], prof.beta.max()
    summary = {
        "t_star": u.val(float(prof.times[i]), "s"),
        "beta_at_t_star": float(beta_star),
        "max_beta": float(max_beta),
        "E0_at_t_star": u.val(float(e0[i]), "J"),
        "E1_at_t_star": u.val(float(e1[i]), "J"),
        "splitting_at_t_star": u.val(float(e1[i] - e0[i]), "J"),
        "well_center_over_a": prof.well_center,
        "units": args.units,
    }
    json_path = os.path.join(args.out, "adiabaticity_summary.json")
    _write_json(json_path, summary)
    print(f"beta(t*) = {beta_star:.4f}, max beta = {max_beta:.4f} "
          f"-> {csv_path}")
    _finish(args.out, "adiabaticity", config, scales, [csv_path, json_path],
            t_start)
    return EXIT_OK


def cmd_rabi(args) -> int:
    t_start = time.perf_counter()
    config = _load(args)
    duration = _positive_ns("--duration", args.duration)
    sol = pipeline.solve_qubit(config)
    scales = sol.scales
    u = _Units(args.units, scales)
    result = pipeline.simulate_rabi(sol, duration=duration)
    traj = result.trajectory
    stride = max(1, (traj.times.size - 1) // (MAX_TRAJECTORY_ROWS - 1))
    sel = slice(None, None, stride)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "rabi.csv")
    _write_csv(csv_path,
               [u.col("t", "s"), "re_c0", "im_c0", "re_c1", "im_c1",
                "p0", "p1"],
               [u.val(traj.times[sel], "s"),
                traj.c0[sel].real, traj.c0[sel].imag,
                traj.c1[sel].real, traj.c1[sel].imag,
                traj.p0[sel], traj.p1[sel]])
    summary = {
        "rabi_period": u.val(result.period.period, "s"),
        "rabi_period_method": result.period.method,
        "estimated_period": u.val(result.estimated_period, "s"),
        "resonance_rad_per_s": result.params.omega_drive,
        "D00_rad_per_s": float(result.params.D[0, 0]),
        "D01_rad_per_s": float(result.params.D[0, 1]),
        "D11_rad_per_s": float(result.params.D[1, 1]),
        "norm_drift": traj.norm_drift,
        "units": args.units,
    }
    json_path = os.path.join(args.out, "rabi_summary.json")
    _write_json(json_path, summary)
    print(f"Rabi period {result.period.period:.4e} s "
          f"({result.period.method}) -> {json_path}")
    _finish(args.out, "rabi", config, scales, [csv_path, json_path], t_start)
    return EXIT_OK


PUBLISHED_ZZ_OVER_XX = 1.3e-3


def cmd_twoqubit(args) -> int:
    t_start = time.perf_counter()
    config = _load(args)
    d = args.d if args.d is not None else config.channel_separation
    if not (math.isfinite(d) and d > 0):
        raise ConfigError("--d", "must be finite and > 0")
    duration = _positive_ns("--duration", args.duration)
    if args.fixture_paper_z:
        scales = derive_scales(config)
        coeffs = pipeline.twoqubit_coefficients_from_reference(d)
        zu, zl = pipeline.REFERENCE_Z_UPPER, pipeline.REFERENCE_Z_LOWER
    else:
        sol = pipeline.solve_qubit(config)
        scales = sol.scales
        coeffs, z = pipeline.twoqubit_coefficients_from_solution(sol, d)
        zu = zl = z
    u = _Units(args.units, scales)
    gate_time = twoqubit.gate_time_for_iswap(coeffs)
    t_max = duration if duration is not None else gate_time
    sweep_times = np.linspace(t_max / 32.0, t_max, 32)
    fids = twoqubit.rwa_fidelity(coeffs, np.append(sweep_times, gate_time))
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "fidelity.csv")
    _write_csv(csv_path, [u.col("t", "s"), "fidelity"],
               [u.val(sweep_times, "s"), fids[:-1]])
    rwa_fid = float(fids[-1])
    summary = {
        "d_m": d,
        "z_u00": u.val(zu.z00, "m"), "z_u11": u.val(zu.z11, "m"),
        "z_u01": u.val(zu.z01, "m"),
        "z_l00": u.val(zl.z00, "m"), "z_l11": u.val(zl.z11, "m"),
        "z_l01": u.val(zl.z01, "m"),
        "cu_z": u.val(coeffs.cu_z, "J"), "cl_z": u.val(coeffs.cl_z, "J"),
        "cu_x": u.val(coeffs.cu_x, "J"), "cl_x": u.val(coeffs.cl_x, "J"),
        "c_zz": u.val(coeffs.c_zz, "J"), "c_xx": u.val(coeffs.c_xx, "J"),
        "c_zx": u.val(coeffs.c_zx, "J"), "c_xz": u.val(coeffs.c_xz, "J"),
        "lambda_u": u.val(coeffs.lambda_u, "J"),
        "lambda_l": u.val(coeffs.lambda_l, "J"),
        "czz_over_cxx": abs(coeffs.c_zz / coeffs.c_xx),
        "published_czz_over_cxx": PUBLISHED_ZZ_OVER_XX,
        "discrepancy_documented": bool(args.fixture_paper_z),
        "gate_time": u.val(gate_time, "s"),
        "rwa_fidelity": rwa_fid,
        "fixture_mode": bool(args.fixture_paper_z),
        "units": args.units,
    }
    json_path = os.path.join(args.out, "twoqubit_summary.json")
    _write_json(json_path, summary)
    print(f"|c_zz/c_xx| = {summary['czz_over_cxx']:.4e}, gate time "
          f"{gate_time:.4e} s, RWA fidelity {rwa_fid:.6f} "
          f"-> {json_path}")
    _finish(args.out, "twoqubit", config, scales, [csv_path, json_path],
            t_start)
    return EXIT_OK


def cmd_validate(args) -> int:
    t_start = time.perf_counter()
    config = DeviceConfig()
    scales = derive_scales(config)
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
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "validation.json")
    _write_json(path, report)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
    print(f"overall: {'PASS' if overall else 'FAIL'} -> {path}")
    _finish(args.out, "validate", config, scales, [path], t_start)
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
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
