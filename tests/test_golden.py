"""Every CLI data file against a committed sha256 digest.

The determinism tests compare two runs of one commit; this table pins the
data files across commits, so a refactor that claims unchanged numbers is
checked byte for byte.  Manifests hold wall times and are left out.  The
digests were taken with the numpy and scipy versions the table names;
another numpy, scipy or LAPACK build may move a last digit.

A change that moves numbers on purpose refreshes the table by running this
file as a script (``PYTHONPATH=src python tests/test_golden.py``), which
prints the keys whose exit code or digest changed, and lists them in
CHANGES.md.
"""
import hashlib
import json
import pathlib

import numpy as np
import scipy

from sawqubit import cli

TABLE = pathlib.Path(__file__).with_name("golden_digests.json")
CONFIGS = {"default": None, "narrow": {"gamma": 0.3625, "a_m": 4.083e-7}}
RUNS = {
    "derive": ["derive"],
    "levels": ["levels"],
    "levels_natural": ["levels", "--units", "natural",
                       "--times", "0.05,0.15"],
    "adiabaticity": ["adiabaticity"],
    "rabi": ["rabi"],
    "twoqubit": ["twoqubit"],
    "twoqubit_fixture": ["twoqubit", "--fixture-paper-z"],
    "twoqubit_natural": ["twoqubit", "--units", "natural"],
    "twoqubit_fixture_natural": ["twoqubit", "--fixture-paper-z",
                                 "--units", "natural"],
}


def _runs(tmp: pathlib.Path) -> dict:
    """argv of every pinned run, keyed config/run."""
    runs = {"default/validate": ["validate"]}
    for name, config in CONFIGS.items():
        extra = []
        if config is not None:
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(config))
            extra = ["--config", str(path)]
        runs.update({f"{name}/{run}": argv + extra
                     for run, argv in RUNS.items()})
    return runs


def data_digests(tmp: pathlib.Path) -> dict:
    """Exit codes and data-file digests of every pinned run."""
    codes, files = {}, {}
    for key, argv in _runs(tmp).items():
        out = tmp / key
        codes[key] = cli.main(argv + ["--out", str(out)])
        for path in sorted(out.iterdir()):
            if path.name != "manifest.json":
                files[f"{key}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "exit_codes": codes, "files": files}


def test_data_files_match_golden_digests(tmp_path):
    golden = json.loads(TABLE.read_text())
    now = data_digests(tmp_path)
    changed = sorted(
        key for field in ("exit_codes", "files")
        for key in golden[field].keys() | now[field].keys()
        if golden[field].get(key) != now[field].get(key))
    assert not changed, (
        f"{len(changed)} runs or data files differ from {TABLE.name}: "
        f"{', '.join(changed)}.  The table was taken with numpy "
        f"{golden['numpy']} and scipy {golden['scipy']}; this run has "
        f"numpy {now['numpy']} and scipy {now['scipy']}.")


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    golden = json.loads(TABLE.read_text())
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        table = data_digests(pathlib.Path(tmp))
    for field in ("exit_codes", "files"):
        for key in sorted(golden[field].keys() | table[field].keys()):
            if golden[field].get(key) != table[field].get(key):
                print(f"changed {field}: {key}")
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
