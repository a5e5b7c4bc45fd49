"""Benchmark of the sawqubit command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload twoqubit_gate --seed 1 --seconds 20 --trace 0

The workload runs in this one process as a sequential closed loop with one
client.  Each job calls ``sawqubit.cli.main(argv)`` in-process and writes
into a scratch ``--out`` directory under ``.perfbench_runs/``.  The loop runs
rounds of jobs (see workloads.py), each with fresh seeded inputs, until
``--seconds`` of job time have passed; the first round always completes.
Between jobs, outside the timed span, the job's outputs are checked and
hashed, and its directory is removed.

With ``--trace 0`` the run reports the end-to-end metrics: setup_s (median
cold ``import sawqubit.cli`` in a fresh interpreter), jobs_per_s
(well-formed jobs that passed their checks over the loop's timed wall
time), job_p50_s and peak_rss_mb (peak resident set after the loop).  On
a shared host the speed can swing by up to 2x over seconds, which makes the
plain median of a run's latencies jump between fast and slow phases; so
job_p50_s is the median over the round's slots (strata, see workloads.py)
of each slot's mean latency over the run.  The three time metrics are
scaled to a nominal host speed by a yardstick kernel timed between the
imports and between the jobs (yardstick.py); the values as measured and
the host's slowdown are printed and recorded.  Malformed-input jobs must exit
2; they count in the printed fail_ratio but not in the JSON ``attempted``
and ``failed``, which cover the well-formed jobs.  job_tail_s, a tail
percentile of all passing latencies, is printed where a run has enough
jobs for it.  With
``--trace 1`` it runs the untraced loop for half the time, replays the same
jobs with every layer function wrapped in a span (tracer.py), checks that
both passes wrote byte-identical data files, and reports the per-layer
metrics.  The last line of standard output is one JSON object; a record of
the run, with the environment and the workload definition, and the spans
of a traced run go to ``.perfbench_runs/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_IMPORTS = 3  # cold imports per run; the median is setup_s
IMPORTTIME_RUNS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
TAIL_MIN_PERCENTILE = 75
IMPORT_MODULES = {"import.numpy_s": "numpy",
                  "import.scipy_linalg_s": "scipy.linalg",
                  "import.scipy_optimize_s": "scipy.optimize"}


def _pin_blas_threads() -> int:
    """One BLAS thread (set before numpy loads).  sawqubit's matrices are
    4x4 or tridiagonal, too small for threads to pay, and idle OpenBLAS
    workers spin on the other cores after each call, which slows whatever
    runs next by up to 2x on a host with few cores."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return 1


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _cold_import_s() -> float:
    code = ("import time; t0 = time.perf_counter(); import sawqubit.cli; "
            "print(repr(time.perf_counter() - t0))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=_child_env(), check=True, capture_output=True,
                         text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _import_times() -> dict:
    """Cumulative import time of the heavy dependencies and sawqubit's own
    module bodies, from ``python -X importtime`` (medians of a few runs)."""
    samples = {name: [] for name in IMPORT_MODULES}
    samples["import.sawqubit_self_s"] = []
    for _ in range(IMPORTTIME_RUNS):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sawqubit.cli"],
            cwd=ROOT, env=_child_env(), check=True, capture_output=True,
            text=True, timeout=120)
        own, cumulative = 0, {}
        for line in out.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            module = parts[2].strip()
            cumulative.setdefault(module, int(parts[1]))
            if module.split(".")[0] == "sawqubit":
                own += int(parts[0].split(":")[1])
        for name, module in IMPORT_MODULES.items():
            samples[name].append(cumulative.get(module, 0) * 1e-6)
        samples["import.sawqubit_self_s"].append(own * 1e-6)
    return {k: statistics.median(v) for k, v in samples.items()}


def _environment(blas_threads: int, nproc: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads}


def _run_job(main, job, out: str, check) -> dict:
    """One CLI call: its exit code (None if it raised) and latency, then,
    untimed, the check of its outputs, their digests and size; the output
    directory is removed."""
    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(list(job.argv) + ["--out", out])
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
        except Exception as exc:  # a job that raises has failed
            code, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    twoqubit_warnings = sum(w.category.__module__ == "sawqubit.twoqubit"
                            for w in caught)
    result = {"code": code, "error": error, "latency": latency,
              "twoqubit_warnings": twoqubit_warnings,
              "failure": check(job, code, out),
              "digests": _data_digests(out), "bytes": _dir_bytes(out)}
    shutil.rmtree(out, ignore_errors=True)
    return result


def _timed_loop(main, source, out_dir: str, budget: float, check,
                gauge) -> tuple[list, list, float]:
    """Jobs of the rounds from ``source`` back to back until ``budget``
    seconds of job time have passed, the first round whole, with the
    yardstick ``gauge`` sampled after each job; returns the jobs, their
    results and the loop's timed wall time."""
    jobs, results, wall = [], [], 0.0
    for n, batch in enumerate(source):
        for job in batch:
            if n and wall >= budget:
                return jobs, results, wall
            r = _run_job(main, job, os.path.join(out_dir, f"{len(jobs):05d}"),
                         check)
            jobs.append(job)
            results.append(r)
            wall += r["latency"]
            gauge.sample(r["latency"])
    raise RuntimeError("the workload ran out of rounds")


def _data_digests(out: str) -> dict:
    """sha256 of every data file of one job; manifest.json holds wall time."""
    digests = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            if name != "manifest.json":
                with open(os.path.join(out, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _dir_bytes(out: str) -> int:
    if not os.path.isdir(out):
        return 0
    return sum(os.path.getsize(os.path.join(out, n)) for n in os.listdir(out))


def _tail(latencies: list) -> dict | None:
    """Nearest-rank latency at the highest whole percentile that leaves at
    least TAIL_BEYOND samples above it; None when that is below
    TAIL_MIN_PERCENTILE."""
    n = len(latencies)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n) if n else 0
    if pct < TAIL_MIN_PERCENTILE:
        return None
    rank = math.ceil(pct * n / 100)
    return {"value_s": sorted(latencies)[rank - 1], "percentile": pct,
            "samples": n, "beyond": n - rank}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sawqubit", "cli.py")):
        print(f"perfbench: no sawqubit source under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}

    nproc = len(os.sched_getaffinity(0))
    blas_threads = _pin_blas_threads()
    sys.path.insert(0, SRC)
    # numpy loads here, after the BLAS thread count is in the environment
    import checks
    from tracer import Tracer
    from yardstick import Yardstick

    workload = workloads.WORKLOADS[args.workload]

    # The median also hides the first import of a fresh checkout, which
    # compiles the bytecode caches that users pay for once.
    setup_gauge, loop_gauge = Yardstick(), Yardstick()
    imports = []
    for _ in range(SETUP_IMPORTS):
        imports.append(_cold_import_s())
        setup_gauge.sample(imports[-1])
    import_times = _import_times() if args.trace else {}

    import sawqubit.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: sawqubit imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(RUNS, f"{run_id}-{os.getpid()}")
    cfg_dir = os.path.join(run_dir, "configs")
    os.makedirs(cfg_dir)
    tracer = Tracer() if args.trace else None
    try:
        # Timed closed loop until the budget is spent.  A traced run spends
        # half of it here and half on the traced replay of the same jobs.
        budget = args.seconds / 2 if args.trace else args.seconds
        source = workloads.rounds(workload, args.seed, cfg_dir)
        jobs, results, wall = _timed_loop(
            cli.main, source, os.path.join(run_dir, "pass0"), budget,
            checks.check, loop_gauge)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = []
        if tracer:
            tracer.install()
            try:
                run = tracer.root(cli.main)
                traced = [_run_job(run, job,
                                   os.path.join(run_dir, "pass1", f"{i:05d}"),
                                   checks.check)
                          for i, job in enumerate(jobs)]
            finally:
                tracer.uninstall()
            traced_wall = sum(r["latency"] for r in traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    pairs = list(zip(jobs, results)) + list(zip(jobs, traced))
    mismatched = [i for i, (a, b) in enumerate(zip(results, traced))
                  if a["digests"] != b["digests"]]

    valid = [r for job, r in pairs if not job.malformed]
    failed = sum(r["failure"] is not None for r in valid)
    failed_all = sum(r["failure"] is not None for _, r in pairs)
    by_slot = defaultdict(list)  # slot -> latencies of its passing jobs
    for job, r in zip(jobs, results):
        if not job.malformed and r["failure"] is None:
            by_slot[job.slot].append(r["latency"])
    passed = [t for v in by_slot.values() for t in v]
    slot_mean = {k: statistics.fmean(v) for k, v in sorted(by_slot.items())}
    samples = [len(v) for v in by_slot.values()] or [0]
    correct = failed == 0 and not mismatched and bool(passed)
    # time metrics as measured, and the factor that scales each to the
    # yardstick's nominal host speed
    measured = {"setup_s": statistics.median(imports),
                "jobs_per_s": len(passed) / wall,
                "job_p50_s": statistics.median(slot_mean.values())
                if slot_mean else 0.0}
    speed = {"setup_s": 1 / setup_gauge.slowdown(),
             "jobs_per_s": loop_gauge.slowdown(),
             "job_p50_s": 1 / loop_gauge.slowdown()}
    tail = _tail(passed)
    well_formed = {i for i, job in enumerate(jobs) if not job.malformed}
    if tracer:
        metrics = tracer.metrics(well_formed)
        metrics.update(import_times)
        metrics["trace.overhead_ratio"] = traced_wall / wall
        metrics["cli.bytes_written"] = statistics.fmean(
            r["bytes"] for r in traced)
        metrics["twoqubit.warnings"] = statistics.fmean(
            r["twoqubit_warnings"] for r in traced)
    else:
        metrics = {k: v * speed[k] for k, v in measured.items()}
        metrics["peak_rss_mb"] = peak_rss_mb
    if set(metrics) != set(units):
        raise RuntimeError("metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": _environment(blas_threads, nproc),
        "definition": {"why": workload.why,
                       "shared_share": workload.shared_share,
                       "malformed_share": workload.malformed_share},
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
        "jobs": len(pairs), "failed_jobs": failed_all,
        "fail_ratio": failed_all / len(pairs),
        "valid_jobs": len(valid), "valid_failed": failed,
        "measured": measured,
        "host_slowdown": {"setup": setup_gauge.slowdown(),
                          "loop": loop_gauge.slowdown()},
        "loop_wall_s": wall, "job_tail_s": tail, "slot_mean_s": slot_mean,
        "slot_samples": [min(samples), max(samples)],
        "latencies_s": [[job.label, job.config, r["latency"]]
                        for job, r in zip(jobs, results)
                        if not job.malformed],
        "failures": [{"job": job.label, "config": job.config,
                      "malformed": job.malformed,
                      "code": r["code"], "reason": r["failure"],
                      "error": r["error"]}
                     for job, r in pairs if r["failure"] is not None],
        "traced_mismatches": mismatched,
    }
    os.makedirs(os.path.join(RUNS, "results"), exist_ok=True)
    if tracer:
        record["step_spread"] = tracer.step_spread(well_formed)
        tracer.write(os.path.join(RUNS, "results", f"{run_id}-spans.jsonl"))
    with open(os.path.join(RUNS, "results", f"{run_id}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"environment: {env['nproc']} cpus ({env['cpu_model']}), python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas threads {env['blas_threads']}")
    print(f"workload {workload.name}: {workload.why}")
    print(f"  shared inputs: {workload.shared_share}; malformed inputs: "
          f"{workload.malformed_share}")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {record['fail_ratio']:.6g} ({failed_all} of "
          f"{len(pairs)} jobs; {failed} of {len(valid)} well-formed jobs)")
    print(f"host slowdown against the yardstick: "
          f"{setup_gauge.slowdown():.4g} at set-up, "
          f"{loop_gauge.slowdown():.4g} in the loop; as measured: "
          + ", ".join(f"{k} = {v:.6g}" for k, v in measured.items()))
    print(f"{len(passed)} passing well-formed jobs in {wall:.4g} s; each "
          f"slot passed {min(samples)} to {max(samples)} times")
    if tail:
        print(f"job_tail_s = {tail['value_s']:.6g} s (p{tail['percentile']} "
              f"of {tail['samples']} jobs, {tail['beyond']} beyond)")
    else:
        print(f"job_tail_s: undefined, {len(passed)} jobs are too few for a "
              f"percentile >= p{TAIL_MIN_PERCENTILE} with {TAIL_BEYOND} beyond")
    if tracer:
        print(f"step counts per call (min, max): {record['step_spread']}")
    for f in record["failures"]:
        config = f" with config {json.dumps(f['config'])}" if f["config"] else ""
        print(f"FAILED {f['job']}{config}: {f['reason']}"
              + (f" ({f['error']})" if f["error"] else ""))
    if mismatched:
        print(f"traced and untraced data files differ for jobs {mismatched}")
    print(json.dumps({"correct": correct, "attempted": len(valid),
                      "failed": failed,
                      "metrics": {k: record["metrics"][k] for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
