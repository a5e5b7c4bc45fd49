import warnings
from dataclasses import replace

import numpy as np
import pytest

from sawqubit import adiabatic, dynamics, pipeline
from sawqubit.params import DeviceConfig


@pytest.mark.parametrize("geometry", [{}, {"gamma": 0.3625, "a": 4.083e-7}],
                         ids=["default", "narrow"])
def test_rescale_solution_matches_full_solve(geometry):
    light = pipeline.solve_qubit(DeviceConfig(**geometry), n_times=8)
    full = pipeline.solve_qubit(
        DeviceConfig(**geometry, effective_mass_ratio=0.067), n_times=8)
    scaled = pipeline.rescale_solution(light, 0.067)
    assert scaled.config == full.config
    assert scaled.scales == full.scales
    assert scaled.t_star == full.t_star
    assert scaled.t_star_index == full.t_star_index
    assert (scaled.E0, scaled.E1) == (full.E0, full.E1)
    assert scaled.splitting == full.splitting
    assert (scaled.omega0, scaled.omega1) == (full.omega0, full.omega1)
    assert scaled.trajectory is light.trajectory


def test_rescale_solution_rejects_changed_natural_problem():
    sol = pipeline.solve_qubit(DeviceConfig(), n_times=8)
    shifted = replace(sol, scales=replace(sol.scales,
                                          V0=sol.scales.V0 * (1 + 1e-15)))
    with pytest.raises(ValueError, match="natural-unit problem"):
        pipeline.rescale_solution(shifted, 0.067)


def test_solve_qubit_solves_half_the_period(monkeypatch):
    counts = {"solves": 0, "searches": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "solve_lowest",
                        counted("solves", pipeline.solve_lowest))
    monkeypatch.setattr(adiabatic, "find_well_minimum",
                        counted("searches", adiabatic.find_well_minimum))
    pipeline.solve_qubit(DeviceConfig(), n_times=8)
    assert counts == {"solves": 4, "searches": 8}


@pytest.mark.parametrize("geometry, t_star_index",
                         [({}, 7), ({"gamma": 0.45, "a": 5e-7}, 0)],
                         ids=["second_half", "first_half"])
def test_mirrored_trajectory_matches_full_tracking(geometry, t_star_index):
    """The mirrored half of solve_qubit against solving every sample."""
    sol = pipeline.solve_qubit(DeviceConfig(**geometry), n_times=8)
    assert sol.t_star_index == t_star_index
    traj = sol.trajectory
    ref = pipeline.track_dot_levels(traj.times, sol.config, sol.scales)
    np.testing.assert_array_equal(traj.centers, ref.centers)
    np.testing.assert_allclose(traj.energies(), ref.energies(), rtol=1e-10,
                               atol=0)
    for levels, ref_levels, grid, ref_grid in zip(traj.levels, ref.levels,
                                                  traj.grids, ref.grids):
        np.testing.assert_allclose(grid.points, ref_grid.points, rtol=0,
                                   atol=1e-11)
        for pair, ref_pair in zip(levels, ref_levels):
            np.testing.assert_allclose(pair.wavefunction,
                                       ref_pair.wavefunction, rtol=0,
                                       atol=1e-9)
    np.testing.assert_allclose(traj.min_overlaps, ref.min_overlaps, rtol=0,
                               atol=1e-9)
    assert traj.grids[t_star_index] == ref.grids[t_star_index]
    for pair, ref_pair in zip(traj.levels[t_star_index],
                              ref.levels[t_star_index]):
        assert pair.energy == ref_pair.energy
        np.testing.assert_array_equal(pair.wavefunction, ref_pair.wavefunction)


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


def test_tiny_drive_length_scale_warns():
    """At l0 = 1e-12 m the rabi run reported a period 8% off the estimate;
    the couplings from the solve alone flag it."""
    sol = pipeline.solve_qubit(DeviceConfig(l0=1e-12))
    with pytest.warns(dynamics.StrongDriveWarning):
        pipeline.warn_if_strong_drive(pipeline.rabi_parameters(sol))
