"""The benchmark's traced run still sees the layers it hooks."""
import importlib.util
import pathlib

from sawqubit import cli

TRACER_PATH = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_jobs_record_hook_counts(tmp_path):
    tracer = _load_tracer().Tracer()
    main = tracer.root(cli.main)
    tracer.install()
    try:
        codes = [main([*args, "--out", str(tmp_path / args[0])])
                 for args in (["adiabaticity"], ["rabi"], ["twoqubit"],
                              ["levels", "--times", "0.05"])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    assert tracer.points > 0
    assert tracer.keys["eigensolver.solve_lowest"]
    assert tracer.keys["adiabatic.find_well_minimum"]
    assert tracer.steps["dynamics.integrate_rabi"]
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "pipeline.adiabaticity_profile",
            "pipeline.solve_qubit", "dynamics.integrate_rabi"} <= names
