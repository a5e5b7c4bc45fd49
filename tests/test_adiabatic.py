import numpy as np
import pytest

from sawqubit import adiabatic, oracles, pipeline, potential
from sawqubit.adiabatic import (DegenerateSplittingError, adiabaticity_beta,
                                adiabaticity_sweep, find_well_minimum,
                                representative_time)
from sawqubit.eigensolver import (EigenPair, build_grid, build_hamiltonian,
                                  matrix_element, solve_lowest)
from sawqubit.params import DeviceConfig, derive_scales

FD_RTOL = 1e-5

# Frozen regression values, default config, 64 midpoint samples.
T_STAR = 2.6207648440120765e-12  # s
WELL_CENTER_T_STAR = -1.1032202220182734  # z/a
BETA_T_STAR = 0.008472916756822815
BETA_MAX = 0.01933975317338466


def _dot_pair(config, scales, t, count=2):
    pairs, grid, _ = pipeline.solve_dot_levels(t, config, scales, count=count)
    return pairs, grid


def test_static_potential_gives_zero_beta():
    config = DeviceConfig(gamma=0.0)
    scales = derive_scales(config)
    # off-center window so the barrier does not create a degenerate pair
    grid = build_grid(0.5, 2.5, 512)
    H = build_hamiltonian(
        grid, lambda zeta: potential.effective(zeta, 0.0, scales))
    pairs = solve_lowest(H, 2, grid=grid)
    beta = adiabaticity_beta(pairs[0], pairs[1], 0.0, grid, scales)
    assert beta == 0.0


def test_beta_symmetric_in_level_exchange(qubit_solution):
    sol = qubit_solution
    pairs = sol.levels
    grid = sol.grid
    b01 = adiabaticity_beta(pairs[0], pairs[1], sol.t_star, grid, sol.scales)
    b10 = adiabaticity_beta(pairs[1], pairs[0], sol.t_star, grid, sol.scales)
    assert b01 == pytest.approx(b10, rel=1e-12)


def test_degenerate_pair_rejected():
    grid = build_grid(-1.0, 1.0, 64)
    psi = np.ones(64) / np.sqrt(64 * grid.h)
    a = EigenPair(energy=1.0, wavefunction=psi)
    b = EigenPair(energy=1.0 + 1e-13, wavefunction=psi)
    scales = derive_scales(DeviceConfig())
    with pytest.raises(DegenerateSplittingError):
        adiabaticity_beta(a, b, 0.0, grid, scales)


def test_beta_matches_finite_difference_hamiltonian(qubit_solution):
    """Same beta with the analytic dV/dt replaced by a centered difference
    of the potential."""
    sol = qubit_solution
    scales = sol.scales
    t = sol.t_star
    pairs = sol.levels
    grid = sol.grid
    analytic = adiabaticity_beta(pairs[0], pairs[1], t, grid, scales)

    delta = scales.T_period / 1e6
    vp = potential.effective(grid.points, t + delta, scales)
    vm = potential.effective(grid.points, t - delta, scales)
    dvdt_nat = (vp - vm) / scales.time_to_natural(2.0 * delta)
    de = pairs[0].energy - pairs[1].energy
    fd = abs(matrix_element(pairs[0], pairs[1], dvdt_nat, grid)) / de**2
    assert fd == pytest.approx(analytic, rel=FD_RTOL)


def test_beta_scales_linearly_in_saw_amplitude():
    """With the eigenbasis held fixed, beta is proportional to V_S * omega."""
    base = DeviceConfig(gamma=0.01)
    base_scales = derive_scales(base)
    t = 0.3 * base_scales.T_period
    pairs, grid = _dot_pair(base, base_scales, t)
    betas = {}
    for gamma in (0.01, 0.02):
        scales = derive_scales(DeviceConfig(gamma=gamma))
        betas[gamma] = adiabaticity_beta(pairs[0], pairs[1], t, grid, scales)
    ratio = (betas[0.02] / 0.02) / (betas[0.01] / 0.01)
    assert ratio == pytest.approx(1.0, abs=0.1)


def test_sweep_regression(qubit_solution):
    sol = qubit_solution
    traj, i = pipeline.mirrored_trajectory(sol.config, sol.scales)
    betas = adiabaticity_sweep(traj, sol.scales)
    assert betas.shape == traj.times.shape
    assert traj.times[i] == sol.t_star
    assert betas[i] == pytest.approx(BETA_T_STAR, rel=1e-9)
    assert betas.max() == pytest.approx(BETA_MAX, rel=1e-9)
    assert betas.max() < 1.0  # adiabaticity over the whole period
    assert np.all(betas >= 0.0)


def test_sweep_static_all_zero():
    config = DeviceConfig(gamma=0.0)
    scales = derive_scales(config)
    times = pipeline.default_times(scales, 8)
    traj = oracles.track_dot_levels(times, config, scales)
    np.testing.assert_array_equal(adiabaticity_sweep(traj, scales),
                                  np.zeros(times.size))


def test_representative_time_is_deterministic():
    config = DeviceConfig()
    scales = derive_scales(config)
    times = pipeline.default_times(scales, 64)
    centers = [find_well_minimum(t, config, scales) for t in times]
    i1 = representative_time(times, centers, scales)
    i2 = representative_time(times, centers, scales)
    assert i1 == i2
    assert times[i1] == pytest.approx(T_STAR, rel=1e-12)


def test_one_well_search_per_sample(monkeypatch):
    calls = []
    search = adiabatic.find_well_minimum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(adiabatic, "find_well_minimum", counted)
    sol = pipeline.solve_qubit(DeviceConfig())
    assert len(calls) == pipeline.DEFAULT_N_TIMES // 2
    assert sol.well_center == search(sol.t_star, sol.config, sol.scales)


def test_well_minimum_at_representative_time():
    config = DeviceConfig()
    scales = derive_scales(config)
    center = find_well_minimum(T_STAR, config, scales)
    assert center == pytest.approx(WELL_CENTER_T_STAR, rel=1e-9)
    # it is a genuine local minimum of the effective potential
    eps = 1e-4
    below, at, above = potential.effective(
        np.array([center - eps, center, center + eps]), T_STAR, scales)
    assert at < below
    assert at < above
