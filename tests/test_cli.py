import ast
import filecmp
import json
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sawqubit import cli, dynamics, pipeline
from sawqubit.params import CONFIG_FILE_KEYS

DATA_FILES_DERIVE = ["derived.json"]

# The reference dots sit well inside the quadratic Coulomb expansion.
NO_EXPANSION_WARNING = pytest.mark.filterwarnings(
    "error::sawqubit.twoqubit.QuadraticExpansionWarning")


def run(args):
    return cli.main(args)


def test_derive_writes_scales(tmp_path):
    out = tmp_path / "out"
    assert run(["derive", "--out", str(out)]) == 0
    doc = json.loads((out / "derived.json").read_text())
    assert doc["T_period"] == pytest.approx(3.354579000335458e-10,
                                             rel=1e-12, abs=0)
    assert doc["thermal_energy"] == pytest.approx(3.726e-24, rel=1e-3,
                                                    abs=0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "derive"
    assert manifest["config"]["gamma"] == 0.5


def test_derive_reads_config_file(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"saw_velocity_mps": 1000.0}))
    out = tmp_path / "out"
    assert run(["derive", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "derived.json").read_text())
    assert doc["T_period"] == pytest.approx(1e-9, rel=1e-12, abs=0)


def test_invalid_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    out = tmp_path / "out"
    for args, config, culprit in (
            (["derive"], {"gamma": -1.0}, "gamma"),
            (["derive"], {"a_m": float("inf")}, "a:"),
            # finite, but l0**2 overflows and a**2 underflows
            (["derive"], {"l0_m": 1e300}, "l0:"),
            (["derive"], {"a_m": 1e-300}, "a:"),
            # a JSON integer too large for a float
            (["derive"], {"a_m": 10 ** 400}, "a_m:"),
            (["adiabaticity"], {"saw_velocity_mps": 1e30}, "saw_velocity"),
            # far above any band mass; ran with a 112-digit beta(t*)
            (["adiabaticity"], {"effective_mass_ratio": 7.2e179},
             "effective_mass_ratio"),
            (["twoqubit"], {"channel_separation_m": float("inf")},
             "channel_separation"),
            (["rabi", "--duration", "-1"], {}, "--duration"),
            (["rabi", "--duration", "nan"], {}, "--duration"),
            (["twoqubit", "--duration", "inf"], {}, "--duration"),
            # positive in ns, but 0.0 once converted to s
            (["rabi", "--duration", "1e-320"], {}, "--duration"),
            (["twoqubit", "--duration", "1e-320"], {}, "--duration"),
            (["twoqubit", "--d", "nan"], {}, "--d"),
            (["twoqubit", "--d", "0"], {}, "--d"),
            (["levels", "--levels", "0"], {}, "--levels"),
            (["levels", "--levels", "100000"], {}, "--levels"),
            (["levels", "--times", "nan"], {}, "--times"),
            # finite scales, but the natural-unit V0 + V_S overflows, or
            # the dot window's kinetic term does
            (["levels"], {"a_m": 1e100, "l0_m": 1e-54, "gamma": 1.0},
             "gamma:"),
            (["adiabaticity"], {"a_m": 1e100, "l0_m": 1e-54, "gamma": 1.0},
             "gamma:"),
            (["levels", "--times", "0.05"],
             {"a_m": 1e100, "saw_wavelength_m": 1e-60}, "saw_wavelength:"),
            # the squared bound (2 x Gershgorin bound)**2 on the level
            # spacing in beta's denominator overflows
            (["adiabaticity"], {"gamma": 1e200}, "gamma:"),
            (["adiabaticity"], {"gamma": 1.245e234, "a_m": 0.181}, "gamma:"),
            (["adiabaticity"], {"saw_wavelength_m": 1e-81},
             "saw_wavelength:")):
        cfg.write_text(json.dumps(config))
        assert run(args + ["--config", str(cfg), "--out", str(out)]) == 2
        assert culprit in capsys.readouterr().err


def test_unknown_config_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"wavelength_nm": 1000}))
    assert run(["derive", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 2
    assert "wavelength_nm" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    for args, config, culprit in (
            # far too short a span for any population turnover
            (["rabi", "--duration", "0.0005"], {}, "numerical failure"),
            # one RK4 step: a drive period would be a 2e9-sample window
            (["rabi", "--duration", "1e-12"], {}, "smoothing window"),
            # a subnormal step: a drive period is an inf-sample window
            (["rabi", "--duration", "1e-314"], {}, "smoothing window"),
            # no drive coupling, so no flip period to integrate to
            (["rabi"], {"drive_ratio": 0.0}, "D01 is zero"),
            # V_e <sech^2> / hbar overflows: D01 = inf, a zero-length period
            (["rabi"], {"drive_ratio": 1e300}, "not finite"),
            # a 1 s span needs more than the 1e8 RK4 steps allowed
            (["rabi", "--duration", "1e9"], {}, "steps"),
            # a >> lambda flattens sech^2(z/a) across the dot: D01 ~ 0, and
            # 1.5 Rabi periods need more than the 1e8 RK4 steps allowed
            (["rabi"], {"a_m": 4.1e-6, "l0_m": 1.7e-5}, "Rabi period"),
            # at t* the window's level 1 keeps 0.87 of its weight in the
            # dot, so the pair is not the qubit
            (["rabi"], {"gamma": 0.1}, "between the crests"),
            (["twoqubit"], {"gamma": 0.1}, "between the crests"),
            # the exchange coupling underflows to zero at this separation
            (["twoqubit", "--fixture-paper-z", "--d", "1e100"], {},
             "c_xx is zero"),
            # d**3 underflows, or overflows
            (["twoqubit", "--fixture-paper-z", "--d", "1e-300"], {},
             "float range"),
            (["twoqubit", "--fixture-paper-z", "--d", "1e103"], {},
             "float range"),
            # gate time ~1e98 s: lambda*t/hbar ~1e110 rad has no digits left
            (["twoqubit", "--fixture-paper-z", "--d", "1e30"], {},
             "phase")):
        cfg.write_text(json.dumps(config))
        assert run(args + ["--config", str(cfg),
                           "--out", str(tmp_path / "out")]) == 3
        assert culprit in capsys.readouterr().err


def test_unwritable_out_exit_code(tmp_path, capsys, monkeypatch):
    """An --out that cannot be created or written exits 2 with one line
    naming the path; it is created before any solve."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["derive", "--out", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert str(blocker) in err and len(err.splitlines()) == 1

    def no_solve(config):
        raise AssertionError("solved before --out was created")

    monkeypatch.setattr(pipeline, "solve_qubit", no_solve)
    sub = blocker / "sub"
    assert run(["rabi", "--out", str(sub)]) == 2
    err = capsys.readouterr().err
    assert str(sub) in err and len(err.splitlines()) == 1

    # the directory exists, but a data file cannot be written
    out = tmp_path / "out"
    (out / "derived.json").mkdir(parents=True)
    assert run(["derive", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out / "derived.json") in err and len(err.splitlines()) == 1


def test_console_times_keep_their_digits(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"saw_wavelength_m": 1e-12}))
    assert run(["derive", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 0
    assert "T_period = 3.3546e-16 s" in capsys.readouterr().out


def test_beta_csv_splitting_is_e1_minus_e0(tmp_path):
    out = tmp_path / "out"
    assert run(["adiabaticity", "--out", str(out)]) == 0
    rows = np.loadtxt(out / "beta.csv", delimiter=",", skiprows=1)
    summary = json.loads((out / "adiabaticity_summary.json").read_text())
    t, e0, e1, splitting = rows[:, 0], rows[:, 2], rows[:, 3], rows[:, 4]
    np.testing.assert_array_equal(splitting, e1 - e0)
    assert np.all(splitting > 0)
    assert splitting[t == summary["t_star"]].tolist() == \
        [summary["splitting_at_t_star"]]


def test_beta_csv_second_half_mirrors_first(tmp_path):
    """Sample 63 - i is the mirror image of sample i: same beta and levels."""
    out = tmp_path / "out"
    assert run(["adiabaticity", "--out", str(out)]) == 0
    rows = np.loadtxt(out / "beta.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 1:], rows[::-1, 1:])


@pytest.mark.filterwarnings("error")
def test_far_barrier_runs_without_overflow_warnings(tmp_path):
    """At a 1 mm wavelength cosh overflows far from the channel; the
    barrier's limit there is 0, and nothing is printed to stderr."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"saw_wavelength_m": 0.001}))
    assert run(["adiabaticity", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 0


def test_derive_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["derive", "--out", str(out_a)]) == 0
    assert run(["derive", "--out", str(out_b)]) == 0
    for name in DATA_FILES_DERIVE:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False)


def test_levels_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["levels", "--times", "0.05,0.15", "--levels", "2"]
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(args + ["--out", str(out_b)]) == 0
    names = [p.name for p in sorted(out_a.iterdir())
             if p.name != "manifest.json"]
    assert "levels.csv" in names
    for name in names:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False)


def test_rabi_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["rabi", "--out", str(out_a)]) == 0
    assert run(["rabi", "--out", str(out_b)]) == 0
    for name in ("rabi.csv", "rabi_summary.json"):
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False)


@NO_EXPANSION_WARNING
def test_twoqubit_fixture_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["twoqubit", "--fixture-paper-z"]
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(args + ["--out", str(out_b)]) == 0
    for name in ("twoqubit_summary.json", "fidelity.csv"):
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False)


@NO_EXPANSION_WARNING
def test_twoqubit_fixture_summary(tmp_path):
    out = tmp_path / "out"
    assert run(["twoqubit", "--fixture-paper-z", "--out", str(out)]) == 0
    doc = json.loads((out / "twoqubit_summary.json").read_text())
    assert doc["czz_over_cxx"] == pytest.approx(5.088108198668759e-3,
                                                rel=1e-9)
    assert doc["published_czz_over_cxx"] == 1.3e-3
    assert doc["discrepancy_documented"] is True
    assert doc["rwa_fidelity"] > 0.99


def test_twoqubit_wide_separation(tmp_path):
    # weak coupling: the gate time spans ~3e4 qubit precession periods
    out = tmp_path / "out"
    assert run(["twoqubit", "--fixture-paper-z", "--d", "1e-5",
                "--out", str(out)]) == 0
    lines = (out / "fidelity.csv").read_text().splitlines()[1:]
    fids = [float(line.split(",")[1]) for line in lines]
    assert len(fids) == 32
    assert all(0.0 <= f <= 1.0 for f in fids)
    doc = json.loads((out / "twoqubit_summary.json").read_text())
    assert 0.0 <= doc["rwa_fidelity"] <= 1.0


@NO_EXPANSION_WARNING
def test_units_agreement(tmp_path):
    out_si, out_nat = tmp_path / "si", tmp_path / "nat"
    assert run(["twoqubit", "--fixture-paper-z", "--out", str(out_si),
                "--units", "si"]) == 0
    assert run(["twoqubit", "--fixture-paper-z", "--out", str(out_nat),
                "--units", "natural"]) == 0
    si = json.loads((out_si / "twoqubit_summary.json").read_text())
    nat = json.loads((out_nat / "twoqubit_summary.json").read_text())
    scales = json.loads((out_si / "manifest.json").read_text())[
        "derived_scales"]
    assert nat["c_xx"] * scales["natural_energy"] == pytest.approx(
        si["c_xx"], rel=1e-12, abs=0)
    assert nat["gate_time"] * scales["natural_time"] == pytest.approx(
        si["gate_time"], rel=1e-12, abs=0)
    assert nat["z_u01"] * scales["natural_length"] == pytest.approx(
        si["z_u01"], rel=1e-12, abs=0)
    # dimensionless entries identical in both modes
    assert nat["czz_over_cxx"] == si["czz_over_cxx"]


def test_csv_format(tmp_path):
    out = tmp_path / "out"
    assert run(["levels", "--times", "0.05", "--levels", "2",
                "--out", str(out)]) == 0
    lines = (out / "levels.csv").read_text().splitlines()
    assert lines[0] == "t_s,level_index,energy_J,bound_flag,mass_fraction"
    first = lines[1].split(",")
    assert len(first) == 5
    # 17 significant digits, scientific notation
    assert "e" in first[0] and len(first[0].split("e")[0].rstrip("0")) >= 3


def test_levels_bound_flag_marks_states_past_the_crests(tmp_path):
    """The bound flag reads each state's weight between the crests that
    flank the well: the top levels of the default dot spread past them,
    and on the narrow device the ground state of the lambda-wide window
    lies outside the dot at samples 3 and 4 (weight 0.011)."""
    out = tmp_path / "default"
    assert run(["levels", "--levels", "10", "--out", str(out)]) == 0
    rows = np.loadtxt(out / "levels.csv", delimiter=",",
                      skiprows=1).reshape(8, 10, 5)
    assert np.all(rows[:, :3, 3] == 1)
    assert np.all(rows[:, 6:, 3] == 0)
    assert np.all(rows[:, 6:, 4] < 0.95)
    cfg = tmp_path / "narrow.json"
    cfg.write_text(json.dumps({"gamma": 0.3625, "a_m": 4.083e-7}))
    out = tmp_path / "narrow"
    assert run(["levels", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "levels.csv", delimiter=",",
                      skiprows=1).reshape(8, -1, 5)
    np.testing.assert_array_equal(rows[:, 0, 3], [1, 1, 1, 0, 0, 1, 1, 1])
    np.testing.assert_allclose(rows[3:5, 0, 4], 0.011, rtol=0, atol=1e-3)


def _per_value_csv(header, rows) -> str:
    """Text of the per-value writer that the column writer replaced."""
    def fmt(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return "%.16e" % value
    return ",".join(header) + "\n" + "".join(
        ",".join(fmt(v) for v in row) + "\n" for row in rows)


CSV_FLOATS = [0.0, -0.0, 1.0, -1.5, math.pi, 2.5e-7, -3.3e-23, 1e22, 5e-324,
              1e300, -1e300, 1e-300, float("nan"), float("inf"),
              float("-inf")]


def test_csv_writer_matches_per_value_formatter(tmp_path):
    path = tmp_path / "out.csv"
    block = cli.CSV_BLOCK_ROWS
    for n in (0, 1, block - 1, block, block + 1, 2 * block + 5):
        floats = np.resize(np.array(CSV_FLOATS), n)
        ints = np.arange(n, dtype=np.int64) * 7919 - 3
        big = [(-1) ** i * (2 ** 62 + i) for i in range(n)]  # Python ints
        flags = np.arange(n) % 3 == 0
        header = ["t_s", "level_index", "big", "bound_flag", "fraction"]
        cli._write_csv(str(path), header,
                       [floats, ints, np.array(big), flags, floats[::-1]])
        # the old callers passed flags as int(bool) and ints as Python ints
        rows = zip(floats, ints, big, [int(f) for f in flags], floats[::-1])
        assert path.read_text() == _per_value_csv(header, rows), n
        # a single-column file
        cli._write_csv(str(path), ["x"], [floats])
        assert path.read_text() == _per_value_csv(["x"],
                                                  [(v,) for v in floats]), n
    # one pre-formatted column shared by two files
    z = np.linspace(-2e-6, 2e-6, block + 7)
    z_text = cli._format_column(z)
    for values in (np.cos(z * 1e6), np.arange(z.size)):
        cli._write_csv(str(path), ["z_m", "v"], [z_text, values])
        assert path.read_text() == _per_value_csv(["z_m", "v"],
                                                  zip(z, values))
    with pytest.raises(ValueError):
        cli._write_csv(str(path), ["a", "b"], [z, z[:-1]])


def test_manifest_lists_outputs(tmp_path):
    out = tmp_path / "out"
    assert run(["adiabaticity", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (tmp_path / "out" / name.split("/")[-1]).exists()
    summary = json.loads((out / "adiabaticity_summary.json").read_text())
    assert summary["max_beta"] < 1.0


MANIFEST_KEYS = {"subcommand", "tool_version", "config", "derived_scales",
                 "outputs", "wall_time_s"}


@pytest.mark.parametrize("argv", [
    ["derive"], ["levels", "--times", "0.05", "--levels", "2"],
    ["adiabaticity"], ["rabi"], ["twoqubit"],
    ["twoqubit", "--fixture-paper-z"], ["validate"]], ids=" ".join)
def test_manifest_lists_every_data_file(tmp_path, argv):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest.keys() == MANIFEST_KEYS
    assert manifest["subcommand"] == argv[0]
    assert manifest["outputs"] == sorted(
        str(path) for path in out.iterdir() if path.name != "manifest.json")


def test_perf_counter_called_only_in_main():
    """One timing mechanism: the run's wall time is taken in cli.main."""
    callers = set()

    def visit(node, module, owner):
        """Record the innermost function around each perf_counter call."""
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Call) and "perf_counter" in (
                    getattr(child.func, "attr", None),
                    getattr(child.func, "id", None)):
                callers.add(f"{module}.{owner}")
            visit(child, module, inner)

    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    assert callers == {"cli.main"}


def test_import_leaves_scipy_optimize_unloaded():
    """Neither scipy.optimize nor scipy.linalg loads with the CLI; the
    eigensolver imports scipy.linalg on its first solve."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, sawqubit.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.linalg') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


EXTREME_NUMBERS = (1e300, -1e300, 1e-300, -1e-300, 0.0, 10 ** 400,
                   float("nan"), float("inf"), float("-inf"))
CONFIG_VALUES = st.one_of(
    st.sampled_from(EXTREME_NUMBERS), st.floats(), st.integers(),
    st.booleans(), st.none(), st.text(max_size=3),
    st.lists(st.floats(), max_size=2))
FLAT_CONFIGS = st.dictionaries(
    st.one_of(st.sampled_from(sorted(CONFIG_FILE_KEYS)), st.text(max_size=4)),
    CONFIG_VALUES, max_size=4)


CONTRACT_COMMANDS = {
    "derive": ["derive"],
    "twoqubit": ["twoqubit", "--fixture-paper-z"],
    # one dot-window solve per drawn time, a few ms each for a valid
    # config and a few levels
    "levels": ["levels"],
    # 32 dot-window solves and the beta sweep, ~40 ms for a valid config
    "adiabaticity": ["adiabaticity"],
    # one dot-window solve at t*, ~10 ms for a valid config
    "twoqubit-solved": ["twoqubit"],
    # at most CONTRACT_MAX_STEPS RK4 steps after the t* solve
    "rabi": ["rabi"],
}
# dynamics.MAX_STEPS within the contract test: a rabi run takes at most
# ~0.1 s instead of the ~10 s of the 1e8-step cap
CONTRACT_MAX_STEPS = 1e6
DURATION_COMMANDS = ("rabi", "twoqubit-solved")
# around both ends of the 1..DOT_WINDOW_POINTS range
CONTRACT_LEVELS = (-1, 0, 1, 2, pipeline.DOT_WINDOW_POINTS,
                   pipeline.DOT_WINDOW_POINTS + 1)


@settings(max_examples=100, deadline=None)
@given(config=FLAT_CONFIGS,
       d=st.one_of(st.none(), st.sampled_from(EXTREME_NUMBERS), st.floats()),
       command=st.sampled_from(sorted(CONTRACT_COMMANDS)),
       units=st.sampled_from(["si", "natural"]),
       duration=st.one_of(st.none(), st.sampled_from(EXTREME_NUMBERS),
                          st.floats()),
       times=st.lists(st.one_of(st.sampled_from(EXTREME_NUMBERS),
                                st.floats()), min_size=1, max_size=3),
       levels=st.sampled_from(CONTRACT_LEVELS))
@example(config={"l0_m": 1e300}, d=None, command="derive", units="si",
         duration=None, times=[0.05], levels=2)
@example(config={"a_m": 1e-300}, d=None, command="derive", units="si",
         duration=None, times=[0.05], levels=2)
@example(config={"a_m": 1e100, "l0_m": 1e-54, "gamma": 1.0}, d=None,
         command="levels", units="si", duration=None,
         times=[0.05], levels=2)
@example(config={"a_m": 1e100, "saw_wavelength_m": 1e-60}, d=None,
         command="levels", units="si", duration=None,
         times=[0.05], levels=2)
# beta's (E1 - E0)**2 leaves the float range for these
@example(config={"gamma": 1e200}, d=None, command="adiabaticity",
         units="si", duration=None,
         times=[0.05], levels=2)
@example(config={"gamma": 1.245e234, "a_m": 0.181}, d=None,
         command="adiabaticity", units="si", duration=None,
         times=[0.05], levels=2)
def test_exit_code_contract(tmp_path_factory, config, d, command, units,
                            duration, times, levels):
    """Any flat JSON config exits in {0, 2, 3, 4} without raising from
    ``derive``, ``twoqubit`` with the fixture or the solved dot (with an
    optional --d), ``levels`` at one to three --times and any --levels
    around the ends of its range, ``adiabaticity`` and ``rabi``, in
    either --units mode, with an optional --duration for ``rabi`` and the
    solved ``twoqubit``."""
    tmp = tmp_path_factory.mktemp("contract")
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(config))
    args = list(CONTRACT_COMMANDS[command]) + ["--units", units]
    if command.startswith("twoqubit") and d is not None:
        args.append(f"--d={d!r}")
    if command in DURATION_COMMANDS and duration is not None:
        args.append(f"--duration={duration!r}")
    if command == "levels":
        args += [f"--times={','.join(map(repr, times))}",
                 f"--levels={levels}"]
    with mock.patch.object(dynamics, "MAX_STEPS", CONTRACT_MAX_STEPS):
        code = run(args + ["--config", str(cfg), "--out", str(tmp / "out")])
    assert code in (0, 2, 3, 4)
