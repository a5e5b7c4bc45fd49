import numpy as np
import pytest

from sawqubit import adiabatic, pipeline, potential
from sawqubit.adiabatic import (DegenerateSplittingError, adiabaticity_beta,
                                find_well_minimum, representative_time)
from sawqubit.eigensolver import (Levels, build_grid, build_hamiltonian,
                                  solve_lowest)
from sawqubit.params import DeviceConfig, derive_scales

FD_RTOL = 1e-5

# Frozen regression values, default config, 64 midpoint samples.
T_STAR = 2.6207648440120765e-12  # s
WELL_CENTER_T_STAR = -1.1032202220182734  # z/a
BETA_T_STAR = 0.008472916756822815
BETA_MAX = 0.01933975317338466


def _dot_pair(config, scales, t, count=2):
    levels, _ = pipeline.solve_dot_levels(t, config, scales, count=count)
    return levels


def test_static_potential_gives_zero_beta():
    config = DeviceConfig(gamma=0.0)
    scales = derive_scales(config)
    # off-center window so the barrier does not create a degenerate pair
    grid = build_grid(0.5, 2.5, 512)
    H = build_hamiltonian(
        grid, lambda zeta: potential.effective(zeta, 0.0, scales))
    levels = solve_lowest(H, 2, grid=grid)
    beta = adiabaticity_beta(levels, 0.0, scales)
    assert beta == 0.0


def test_beta_symmetric_in_level_exchange(qubit_solution):
    sol = qubit_solution
    levels = sol.levels
    swapped = Levels(energies=levels.energies[::-1],
                     states=levels.states[::-1], grid=levels.grid)
    b01 = adiabaticity_beta(levels, sol.t_star, sol.scales)
    b10 = adiabaticity_beta(swapped, sol.t_star, sol.scales)
    assert b01 == pytest.approx(b10, rel=1e-12)


def test_degenerate_pair_rejected():
    grid = build_grid(-1.0, 1.0, 64)
    psi = np.ones(64) / np.sqrt(64 * grid.h)
    levels = Levels(energies=np.array([1.0, 1.0 + 1e-13]),
                    states=np.stack([psi, psi]), grid=grid)
    scales = derive_scales(DeviceConfig())
    with pytest.raises(DegenerateSplittingError):
        adiabaticity_beta(levels, 0.0, scales)


def test_beta_matches_finite_difference_hamiltonian(qubit_solution):
    """Same beta with the analytic dV/dt replaced by a centered difference
    of the potential."""
    sol = qubit_solution
    scales = sol.scales
    t = sol.t_star
    levels = sol.levels
    grid = levels.grid
    analytic = adiabaticity_beta(levels, t, scales)

    delta = scales.T_period / 1e6
    vp = potential.effective(grid.points, t + delta, scales)
    vm = potential.effective(grid.points, t - delta, scales)
    dvdt_nat = (vp - vm) / scales.time_to_natural(2.0 * delta)
    de = levels.energies[0] - levels.energies[1]
    fd = abs(levels.matrix(dvdt_nat)[0, 1]) / de**2
    assert fd == pytest.approx(analytic, rel=FD_RTOL)


def test_beta_scales_linearly_in_saw_amplitude():
    """With the eigenbasis held fixed, beta is proportional to V_S * omega."""
    base = DeviceConfig(gamma=0.01)
    base_scales = derive_scales(base)
    t = 0.3 * base_scales.T_period
    levels = _dot_pair(base, base_scales, t)
    betas = {}
    for gamma in (0.01, 0.02):
        scales = derive_scales(DeviceConfig(gamma=gamma))
        betas[gamma] = adiabaticity_beta(levels, t, scales)
    ratio = (betas[0.02] / 0.02) / (betas[0.01] / 0.01)
    assert ratio == pytest.approx(1.0, abs=0.1)


def test_sweep_regression(qubit_solution):
    sol = qubit_solution
    prof = pipeline.adiabaticity_profile(sol.config, sol.scales)
    betas, i = prof.beta, prof.t_star_index
    assert betas.shape == prof.times.shape
    assert prof.times[i] == sol.t_star
    assert betas[i] == pytest.approx(BETA_T_STAR, rel=1e-9)
    assert betas.max() == pytest.approx(BETA_MAX, rel=1e-9)
    assert betas.max() < 1.0  # adiabaticity over the whole period
    assert np.all(betas >= 0.0)


def test_sweep_static_all_zero():
    config = DeviceConfig(gamma=0.0)
    prof = pipeline.adiabaticity_profile(config, derive_scales(config))
    np.testing.assert_array_equal(prof.beta, np.zeros(prof.times.size))


def test_representative_time_is_deterministic():
    config = DeviceConfig()
    scales = derive_scales(config)
    times = pipeline.default_times(scales, 64)
    centers = [find_well_minimum(t, config, scales) for t in times]
    i1 = representative_time(times, centers, scales)
    i2 = representative_time(times, centers, scales)
    assert i1 == i2
    assert times[i1] == pytest.approx(T_STAR, rel=1e-12, abs=0)


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
