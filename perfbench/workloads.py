"""Seeded job generation for the benchmark workloads.

A workload is an endless sequence of rounds.  Each round covers every
stratum of the workload's input ranges once, with the value jittered inside
its stratum from the seed, so that every round costs about the same and a
run's throughput and median do not hinge on which seed drew the extremes.
Every job names its slot: the stratum it was drawn from, the same in every
round.  The benchmark times each slot over several rounds, each with fresh
inputs, so a program cache sees no more sharing than one round holds.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    """One CLI call: argv without ``--out``, and the outcome it must have."""

    argv: tuple
    kind: str  # subcommand
    slot: str  # stratum of the round the job was drawn from
    malformed: bool
    config: dict | None  # parsed config file, None when defaults are used

    @property
    def expected_exit(self) -> int:
        return 2 if self.malformed else 0

    @property
    def label(self) -> str:
        """argv without the config file path; the config is shown apart."""
        argv = list(self.argv)
        if "--config" in argv:
            i = argv.index("--config")
            del argv[i:i + 2]
        return " ".join(argv)


# Inputs the CLI must reject with exit code 2.  "{sub}" stands for the
# workload's own subcommand; the others name the subcommand that reads the
# offending flag or key.  Several of them do not exit 2 today; they stay in
# so that the printed fail_ratio shows it.
MALFORMED = (
    (("{sub}",), '{"a_m": Infinity}'),
    (("levels", "--levels", "0"), None),
    (("levels", "--levels", "100000"), None),
    (("levels", "--times", "nan"), None),
    (("rabi", "--duration", "-1"), None),
    (("twoqubit",), '{"channel_separation_m": Infinity}'),
    (("{sub}",), '{"not_a_config_key": 1.0}'),
    (("{sub}",), '{"gamma": -0.5}'),
)

PAPER_MASS = 0.0067
GAAS_MASS = 0.067


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list:
    """One value per equal-width stratum of [lo, hi], jittered inside it."""
    return [lo + (i + rng.random()) * (hi - lo) / k for i in range(k)]


class _Writer:
    """Writes each job's config file into the run's config directory."""

    def __init__(self, cfg_dir: str):
        self.cfg_dir = cfg_dir
        self.count = 0

    def job(self, slot: str, argv, config_text: str | None,
            malformed: bool) -> Job:
        argv = list(argv)
        config = None
        if config_text is not None:
            path = os.path.join(self.cfg_dir, f"config_{self.count:05d}.json")
            self.count += 1
            with open(path, "w") as fh:
                fh.write(config_text)
            argv += ["--config", path]
            config = json.loads(config_text)
        return Job(argv=tuple(argv), kind=argv[0], slot=slot,
                   malformed=malformed, config=config)

    def valid(self, slot: str, argv, config: dict | None) -> Job:
        text = None if config is None else json.dumps(config, sort_keys=True)
        return self.job(slot, argv, text, malformed=False)

    def malformed(self, sub: str) -> list:
        return [self.job(f"malformed{i}",
                         [sub if a == "{sub}" else a for a in argv], text,
                         malformed=True)
                for i, (argv, text) in enumerate(MALFORMED)]


def _spectrum_round(rng: random.Random, w: _Writer) -> list:
    # 12 fresh geometries (gamma x a, strata paired by a fixed stride), two
    # in three run `levels`, one in three `adiabaticity`.  4 repeats reuse a
    # fresh geometry of this round with only the mass or the velocity
    # changed, and run the same subcommand as the geometry they repeat.
    gammas = _strata(rng, 12, 0.35, 0.65)
    a_values = _strata(rng, 12, 0.4e-6, 0.6e-6)
    fresh = [w.valid(f"fresh{i}",
                     ("levels",) if i % 3 else ("adiabaticity",),
                     {"gamma": gammas[i], "a_m": a_values[(5 * i) % 12]})
             for i in range(12)]
    picks = (rng.sample([i for i in range(12) if i % 3], 3)
             + rng.sample([i for i in range(12) if not i % 3], 1))
    repeats = []
    for n, i in enumerate(picks):
        cfg = dict(fresh[i].config)
        if n % 2:
            cfg["saw_velocity_mps"] = rng.uniform(2700.0, 3300.0)
        else:
            cfg["effective_mass_ratio"] = GAAS_MASS
        repeats.append((fresh[i], cfg))
    order = fresh + w.malformed("levels")
    rng.shuffle(order)
    for n, (original, cfg) in enumerate(repeats):
        # anywhere after the geometry it repeats
        first = order.index(original)
        order.insert(rng.randint(first + 1, len(order)),
                     w.valid(f"repeat{n}", (original.kind,), cfg))
    return order


def _rabi_round(rng: random.Random, w: _Writer) -> list:
    ratios = _strata(rng, 8, 0.07, 0.14)
    gammas = _strata(rng, 8, 0.35, 0.65)
    jobs = [w.valid(f"rabi{i}", ("rabi",), {"drive_ratio": ratios[i],
                                            "gamma": gammas[(3 * i) % 8]})
            for i in range(8)]
    jobs += w.malformed("rabi")
    rng.shuffle(jobs)
    return jobs


def _twoqubit_round(rng: random.Random, w: _Writer) -> list:
    # 4 solved-dot and 4 fixture jobs; in each half the d strata alternate
    # between the two effective-mass settings.
    jobs = []
    for half, extra in (("solved", ()), ("fixture", ("--fixture-paper-z",))):
        for i, d in enumerate(_strata(rng, 4, 0.9e-6, 1.1e-6)):
            mass = PAPER_MASS if i % 2 == 0 else GAAS_MASS
            jobs.append(w.valid(f"{half}{i}",
                                ("twoqubit", "--d", repr(d)) + extra,
                                {"effective_mass_ratio": mass}))
    jobs += w.malformed("twoqubit")
    rng.shuffle(jobs)
    return jobs


def _self_test_round(rng: random.Random, w: _Writer) -> list:
    return [w.valid("validate", ("validate",), None)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shared_share: str
    malformed_share: str
    make_round: object  # (rng, writer) -> list[Job]


WORKLOADS = {w.name: w for w in (
    Workload(
        "spectrum_sweep",
        "the spectral sweep users run: levels and adiabaticity over seeded "
        "geometries near the paper device; the natural-unit eigenproblem "
        "repeats across mass and velocity, and levels jobs are mostly CSV "
        "output",
        "4 of 16 configs per round repeat a geometry of the round with only "
        "effective_mass_ratio or saw_velocity_mps changed",
        "8 of 24 jobs per round",
        _spectrum_round),
    Workload(
        "rabi_drive",
        "rabi jobs over drive_ratio 0.07-0.14 and gamma 0.35-0.65: the "
        "pure-Python RK4 loop dominates and the twoqubit layer is bypassed",
        "none: no natural-unit problem repeats",
        "8 of 16 jobs per round",
        _rabi_round),
    Workload(
        "twoqubit_gate",
        "twoqubit jobs over d 0.9-1.1 um and both mass settings: the "
        "time-ordered propagator dominates; the fixture half needs no "
        "eigensolve",
        "all solved-dot jobs share one natural-unit problem; the fixture "
        "half solves none",
        "8 of 16 jobs per round",
        _twoqubit_round),
    Workload(
        "self_test",
        "validate jobs: the only workload that runs the oracle suite and "
        "its 1e6-step RK4 trajectory; the seed is unused",
        "every job is identical",
        "none",
        _self_test_round),
)}


def rounds(workload: Workload, seed: int, cfg_dir: str):
    """Endless seeded sequence of rounds (lists of jobs) for one workload."""
    rng = random.Random(f"{workload.name}/{seed}")
    writer = _Writer(cfg_dir)
    while True:
        yield workload.make_round(rng, writer)
