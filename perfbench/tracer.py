"""Spans around the calls into each layer's public functions.

The tracer wraps, from outside the program, every public function that a
layer module defines, in every ``sawqubit`` module namespace that binds it
(``cli`` and ``oracles`` import functions by name).  Each call records one
span: name, start, end, parent span and job id.  A few boundaries also
record counts (grid points, RK4 and propagator steps, distinct inputs,
numerical-health maxima).  Spans stay in memory until the run writes them.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("params", "eigensolver", "adiabatic", "pipeline", "dynamics",
          "twoqubit", "oracles")
ROOT_SPAN = "cli.main"
HOOK_SPAN = "trace.hook"  # time spent recording counts, in no layer
BYTES_PER_STEP = 256  # one stacked 4x4 complex128 array


def _key(*values) -> bytes:
    """Key of a natural-unit problem, blind to last-digit rounding noise."""
    return hashlib.sha1(b"".join(np.asarray(v, dtype=np.float32).tobytes()
                                 for v in values)).digest()


def _solve_lowest(t, args, result):
    H = args["H"]
    t.points += H.n
    t.keys["eigensolver.solve_lowest"].add(
        _key(H.diagonal, H.off_diagonal, args["count"]))


def _find_well_minimum(t, args, result):
    s, config = args["scales"], args["config"]
    half = args["search_halfwidth"]
    if half is None:
        half = 1.25 * config.saw_wavelength / config.a
    t.keys["adiabatic.find_well_minimum"].add(_key(
        [s.V0_nat, s.V_S_nat, s.k_nat, s.omega_saw * args["t"], half,
         args["n_samples"]]))


def _integrate_rabi(t, args, result):
    t.record_steps("dynamics.integrate_rabi", result.times.size - 1)
    t.record_max("dynamics.norm_drift_max", result.norm_drift)


def _fidelity_sweep(t, args, result):
    t.record_steps("twoqubit.fidelity_sweep", max(1, math.ceil(
        float(np.asarray(args["times"])[-1]) / args["dt"])))


def _full_interaction_propagator(t, args, result):
    t.record_steps("twoqubit.full_interaction_propagator",
                   max(1, math.ceil(args["t"] / args["dt"])))
    t.record_max("twoqubit.unitarity_defect_max", result.unitarity_defect())


HOOKS = {
    "eigensolver.solve_lowest": _solve_lowest,
    "adiabatic.find_well_minimum": _find_well_minimum,
    "dynamics.integrate_rabi": _integrate_rabi,
    "twoqubit.fidelity_sweep": _fidelity_sweep,
    "twoqubit.full_interaction_propagator": _full_interaction_propagator,
}


class Tracer:
    """Records spans while installed; ``install`` and ``uninstall`` pair."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.points = 0  # grid points of all solve_lowest calls
        self.keys = defaultdict(set)
        self.steps = defaultdict(list)  # name -> [(job id, steps)]
        self.maxima = defaultdict(dict)  # name -> {job id: max}
        self._stack = [-1]
        self._job = -1
        self._restore = []

    def _wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1], self._job])
            stack.append(idx)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, return_value)
                spans.append([HOOK_SPAN, end, time.perf_counter(), stack[-1],
                              self._job])
            return return_value

        return traced

    def record_steps(self, name: str, steps: int) -> None:
        self.steps[name].append((self._job, steps))

    def record_max(self, name: str, value: float) -> None:
        by_job = self.maxima[name]
        by_job[self._job] = max(by_job.get(self._job, value), value)

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"sawqubit.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrapped[fn] = self._wrap(name, fn, HOOKS.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "sawqubit":
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
                    self._restore.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def root(self, main):
        """``main`` traced as the root span of one job per call."""
        traced = self._wrap(ROOT_SPAN, main)

        def run(argv):
            self._job += 1
            return traced(argv)

        return run

    def metrics(self, well_formed: set) -> dict:
        """Per-layer metrics; times as shares of the traced job time.

        Work counts cover every job; the numerical-health maxima cover the
        ``well_formed`` job ids only.  A layer that a workload bypasses
        reads 0 in every metric.
        """
        dur = np.array([s[2] - s[1] for s in self.spans])
        child = np.zeros(len(self.spans))
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        own = dur - child
        calls, total, self_t, layer_self = (Counter(), Counter(), Counter(),
                                            Counter())
        for s, d, o in zip(self.spans, dur, own):
            calls[s[0]] += 1
            total[s[0]] += d
            self_t[s[0]] += o
            layer_self[s[0].split(".")[0]] += o
        jobs = calls[ROOT_SPAN]
        job_time = total[ROOT_SPAN]

        def share(x):
            return x / job_time

        def ratio(a, b):
            return a / b if b else 0.0

        steps = Counter({k: sum(n for _, n in v)
                         for k, v in self.steps.items()})
        out = {
            "trace.job_s": job_time / jobs,
            "cli.self_share": share(layer_self["cli"]),
            "params.self_share": share(layer_self["params"]),
        }
        for name in ("eigensolver.solve_lowest", "eigensolver.build_hamiltonian",
                     "adiabatic.find_well_minimum", "pipeline.solve_qubit",
                     "pipeline.solve_dot_levels", "dynamics.integrate_rabi",
                     "twoqubit.fidelity_sweep",
                     "twoqubit.full_interaction_propagator"):
            out[f"{name}.calls"] = calls[name] / jobs
        for name in ("eigensolver.solve_lowest", "eigensolver.build_hamiltonian",
                     "adiabatic.find_well_minimum",
                     "adiabatic.representative_time",
                     "adiabatic.adiabaticity_sweep", "pipeline.track_dot_levels",
                     "dynamics.integrate_rabi", "dynamics.extract_rabi_period",
                     "twoqubit.fidelity_sweep",
                     "twoqubit.full_interaction_propagator"):
            out[f"{name}.self_share"] = share(self_t[name])
        for name in ("pipeline.solve_qubit", "pipeline.track_dot_levels",
                     "pipeline.simulate_rabi", "oracles.run_all",
                     "oracles.check_rwa_integration"):
            out[f"{name}.total_share"] = share(total[name])
        for name in ("eigensolver.solve_lowest", "adiabatic.find_well_minimum"):
            out[f"{name}.unique_ratio"] = ratio(len(self.keys[name]),
                                                calls[name])
        out["eigensolver.solve_lowest.points"] = self.points / jobs
        for name in ("dynamics.integrate_rabi", "twoqubit.fidelity_sweep",
                     "twoqubit.full_interaction_propagator"):
            out[f"{name}.steps"] = steps[name] / jobs
        out["dynamics.integrate_rabi.steps_per_s"] = ratio(
            steps["dynamics.integrate_rabi"], self_t["dynamics.integrate_rabi"])
        out["twoqubit.computed_bytes"] = BYTES_PER_STEP * (
            steps["twoqubit.fidelity_sweep"]
            + steps["twoqubit.full_interaction_propagator"]) / jobs
        for name in ("dynamics.norm_drift_max",
                     "twoqubit.unitarity_defect_max"):
            out[name] = max((v for job, v in self.maxima[name].items()
                             if job in well_formed), default=0.0)
        return out

    def step_spread(self, well_formed: set) -> dict:
        """Smallest and largest step count per call of the well-formed jobs,
        by stepping function."""
        spread = {}
        for name, calls in sorted(self.steps.items()):
            counts = [n for job, n in calls if job in well_formed]
            if counts:
                spread[name] = [min(counts), max(counts)]
        return spread

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, job])
                         + "\n")
