import filecmp
import json
import os
import pathlib
import subprocess
import sys

import pytest

from sawqubit import cli

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
    assert doc["T_period"] == pytest.approx(3.354579000335458e-10, rel=1e-12)
    assert doc["thermal_energy"] == pytest.approx(3.726e-24, rel=1e-3)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "derive"
    assert manifest["config"]["gamma"] == 0.5


def test_derive_reads_config_file(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"saw_velocity_mps": 1000.0}))
    out = tmp_path / "out"
    assert run(["derive", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "derived.json").read_text())
    assert doc["T_period"] == pytest.approx(1e-9, rel=1e-12)


def test_invalid_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    out = tmp_path / "out"
    for args, config, culprit in (
            (["derive"], {"gamma": -1.0}, "gamma"),
            (["derive"], {"a_m": float("inf")}, "a:"),
            (["twoqubit"], {"channel_separation_m": float("inf")},
             "channel_separation"),
            (["rabi", "--duration", "-1"], {}, "--duration"),
            (["rabi", "--duration", "nan"], {}, "--duration"),
            (["twoqubit", "--duration", "inf"], {}, "--duration"),
            (["twoqubit", "--d", "nan"], {}, "--d"),
            (["twoqubit", "--d", "0"], {}, "--d"),
            (["levels", "--levels", "0"], {}, "--levels"),
            (["levels", "--levels", "100000"], {}, "--levels"),
            (["levels", "--times", "nan"], {}, "--times")):
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
            # no drive coupling, so no flip period to integrate to
            (["rabi"], {"drive_ratio": 0.0}, "D01 is zero"),
            # a 1 s span needs more than the 1e8 RK4 steps allowed
            (["rabi", "--duration", "1e9"], {}, "steps"),
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
        si["c_xx"], rel=1e-12)
    assert nat["gate_time"] * scales["natural_time"] == pytest.approx(
        si["gate_time"], rel=1e-12)
    assert nat["z_u01"] * scales["natural_length"] == pytest.approx(
        si["z_u01"], rel=1e-12)
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


def test_manifest_lists_outputs(tmp_path):
    out = tmp_path / "out"
    assert run(["adiabaticity", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (tmp_path / "out" / name.split("/")[-1]).exists()
    summary = json.loads((out / "adiabaticity_summary.json").read_text())
    assert summary["max_beta"] < 1.0


def test_import_leaves_scipy_optimize_unloaded():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, sawqubit.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
