import pathlib
import re
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from sawqubit import adiabatic, dynamics, eigensolver, pipeline
from sawqubit.params import DeviceConfig, derive_scales

import references


@pytest.mark.parametrize("geometry", [{}, {"gamma": 0.3625, "a": 4.083e-7}],
                         ids=["default", "narrow"])
def test_rescale_solution_matches_full_solve(geometry):
    light = pipeline.solve_qubit(DeviceConfig(**geometry))
    full = pipeline.solve_qubit(
        DeviceConfig(**geometry, effective_mass_ratio=0.067))
    scaled = pipeline.rescale_solution(light, 0.067)
    assert scaled.config == full.config
    assert scaled.scales == full.scales
    assert scaled.t_star == full.t_star
    assert (scaled.E0, scaled.E1) == (full.E0, full.E1)
    assert scaled.splitting == full.splitting
    assert (scaled.omega0, scaled.omega1) == (full.omega0, full.omega1)
    assert scaled.levels is light.levels


def test_rescale_solution_rejects_changed_natural_problem():
    sol = pipeline.solve_qubit(DeviceConfig())
    shifted = replace(sol, scales=replace(sol.scales,
                                          V0=sol.scales.V0 * (1 + 1e-15)))
    with pytest.raises(ValueError, match="natural-unit problem"):
        pipeline.rescale_solution(shifted, 0.067)


def test_qubit_solution_holds_only_t_star():
    names = {f.name for f in fields(pipeline.QubitSolution)}
    assert not names & {"trajectory", "t_star_index", "grid"}


def _count_work(monkeypatch, run):
    """Eigensolves, well searches and beta evaluations made by ``run()``."""
    counts = {"solves": 0, "searches": 0, "betas": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "solve_lowest",
                        counted("solves", pipeline.solve_lowest))
    monkeypatch.setattr(adiabatic, "find_well_minimum",
                        counted("searches", adiabatic.find_well_minimum))
    monkeypatch.setattr(adiabatic, "adiabaticity_beta",
                        counted("betas", adiabatic.adiabaticity_beta))
    run()
    return counts


def test_solve_qubit_solves_only_t_star(monkeypatch):
    half = pipeline.DEFAULT_N_TIMES // 2
    counts = _count_work(monkeypatch,
                         lambda: pipeline.solve_qubit(DeviceConfig()))
    assert counts == {"solves": 1, "searches": half, "betas": 0}


def test_adiabaticity_profile_solves_half_the_period(monkeypatch):
    config = DeviceConfig()
    scales = derive_scales(config)
    half = pipeline.DEFAULT_N_TIMES // 2
    counts = _count_work(
        monkeypatch, lambda: pipeline.adiabaticity_profile(config, scales))
    assert counts == {"solves": half, "searches": half, "betas": half}


def test_profile_builds_no_level_trajectory():
    """The period profile is plain arrays: no trajectory type, no
    sign-alignment pass, and the solved levels travel as one
    ``eigensolver.Levels`` record, with no per-level pair type, no
    free-standing matrix element and no per-level bound classifier; the
    Rabi chain has no 4-tuple matrix algebra and no period record."""
    for name in ("DotTrajectory", "aligned_trajectory",
                 "mirrored_trajectory", "EigenPair"):
        assert not hasattr(pipeline, name)
    assert not hasattr(adiabatic, "adiabaticity_sweep")
    for name in ("EigenPair", "matrix_element", "classify_bound",
                 "BoundClassification"):
        assert not hasattr(eigensolver, name)
    # the RK4 step is built by matrix products and the period is a float
    for name in ("_matmul", "RabiPeriod"):
        assert not hasattr(dynamics, name)
    package = pathlib.Path(pipeline.__file__).parent
    for path in package.glob("*.py"):
        text = path.read_text()
        assert "EigenPair" not in text, path.name
        assert not re.search(r"\.(wavefunction|energy)\b", text), path.name


def test_adiabaticity_profile_warm_starts(monkeypatch):
    """On the default config the profile bisects sample 0 alone; the 31
    others pass the gate from their neighbours' energies, the same on
    every run."""
    config = DeviceConfig()
    scales = derive_scales(config)
    calls = []
    bisect = eigensolver._bisect
    warm = eigensolver._inverse_iteration

    def counted(name, fn):
        def wrapper(*args):
            result = fn(*args)
            calls.append(name if result is not None else "rejected")
            return result
        return wrapper

    monkeypatch.setattr(eigensolver, "_bisect", counted("bisect", bisect))
    monkeypatch.setattr(eigensolver, "_inverse_iteration",
                        counted("warm", warm))
    counts = []
    for _ in range(2):
        calls.clear()
        pipeline.adiabaticity_profile(config, scales)
        counts.append({name: calls.count(name)
                       for name in ("bisect", "warm", "rejected")})
    half = pipeline.DEFAULT_N_TIMES // 2
    assert counts == 2 * [{"bisect": 1, "warm": half - 1, "rejected": 0}]
    assert calls[0] == "bisect"


@pytest.mark.parametrize("gamma, index", [(0.3625, 0), (0.55, 0), (0.65, 0),
                                          (0.2, 17)])
def test_t_star_in_first_half(gamma, index):
    """Configs whose mirror-image samples tie in depth to rounding: t* is
    the first-half sample, the same for solve_qubit and the profile."""
    sol = pipeline.solve_qubit(DeviceConfig(gamma=gamma))
    times = pipeline.default_times(sol.scales)
    assert sol.t_star == times[index]
    prof = pipeline.adiabaticity_profile(sol.config, sol.scales)
    assert prof.t_star_index == index


@pytest.mark.parametrize("geometry", [{}, {"gamma": 0.55},
                                      {"gamma": 0.3625, "a": 4.083e-7}],
                         ids=["default", "gamma_0.55", "narrow"])
def test_adiabaticity_profile_matches_full_tracking(geometry):
    """The mirrored half of the profile against solving every sample."""
    config = DeviceConfig(**geometry)
    scales = derive_scales(config)
    prof = pipeline.adiabaticity_profile(config, scales)
    ref = references.track_dot_levels(prof.times, config, scales)
    ref_beta = [adiabatic.adiabaticity_beta(levels, t, scales)
                for t, levels in zip(ref.times, ref.levels)]
    np.testing.assert_allclose(prof.energies, ref.energies(), rtol=1e-10,
                               atol=0)
    np.testing.assert_allclose(prof.beta, ref_beta, rtol=1e-9, atol=0)
    np.testing.assert_allclose(prof.min_overlaps, ref.min_overlaps, rtol=0,
                               atol=1e-5)
    # the second half repeats the first in reverse order, bit for bit
    np.testing.assert_array_equal(prof.beta, prof.beta[::-1])
    np.testing.assert_array_equal(prof.energies, prof.energies[::-1])
    # t* is a solved sample: it matches every-sample tracking and
    # solve_qubit bit for bit
    i = prof.t_star_index
    sol = pipeline.solve_qubit(config)
    assert i == 0
    assert prof.times[i] == sol.t_star
    assert prof.well_center == ref.centers[i] == sol.well_center
    assert prof.beta[i] == ref_beta[i]
    assert prof.energies[i].tolist() == sol.levels.energies.tolist()


def _drive(d01, d_diag):
    """Resonant parameters at drive frequency 1 with the given couplings."""
    return dynamics.RabiParameters(
        omega0=0.0, omega1=1.0, omega_drive=1.0,
        D=np.array([[0.0, d01], [d01, d_diag]]))


@pytest.mark.parametrize("d01, d_diag", [(0.5, 0.0), (0.0, 0.5)])
def test_strong_drive_warns(d01, d_diag):
    with pytest.warns(dynamics.StrongDriveWarning, match="strong drive"):
        pipeline.warn_if_strong_drive(_drive(d01, d_diag))


def test_weak_drive_is_silent(rabi_result):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pipeline.warn_if_strong_drive(_drive(0.03, 0.03))
        pipeline.warn_if_strong_drive(rabi_result.params)


def test_rabi_runs_under_a_profile_hook(qubit_solution, rabi_result):
    """A profile or trace hook holds references to the period scan's
    arrays; the run neither fails nor changes under one."""
    previous = sys.getprofile()
    sys.setprofile(lambda *args: None)
    try:
        result = pipeline.simulate_rabi(qubit_solution)
    finally:
        sys.setprofile(previous)
    assert result.period == rabi_result.period


def test_tiny_drive_length_scale_warns():
    """At l0 = 1e-12 m the rabi run reported a period 8% off the estimate;
    the couplings from the solve alone flag it."""
    sol = pipeline.solve_qubit(DeviceConfig(l0=1e-12))
    with pytest.warns(dynamics.StrongDriveWarning):
        pipeline.warn_if_strong_drive(pipeline.rabi_parameters(sol))
