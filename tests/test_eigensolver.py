import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from sawqubit import oracles, pipeline
from sawqubit.eigensolver import (build_grid, build_hamiltonian,
                                  classify_bound, matrix_element,
                                  solve_lowest)
from sawqubit.params import DeviceConfig, derive_scales

ORTHO_TOL = 1e-8
NORM_TOL = 1e-10
SPECTRUM_RTOL = 1e-4

# Frozen regression: minimum consecutive overlaps of the two tracked dot
# levels over 64 midpoint samples of one SAW period.
DOT_MIN_OVERLAP_FLOOR = 0.9


def test_grid_spacing():
    grid = build_grid(-2e-6, 2e-6, 4096)
    assert grid.h == pytest.approx(4e-6 / 4095, rel=1e-12)
    assert grid.h == pytest.approx(0.9768e-9, rel=1e-3)


def test_grid_three_points():
    grid = build_grid(0.0, 1.0, 3)
    np.testing.assert_allclose(grid.points, [0.0, 0.5, 1.0])


def test_grid_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        build_grid(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 2)


def test_free_particle_matrix_structure():
    grid = build_grid(-1.0, 1.0, 64)
    H = build_hamiltonian(grid, lambda z: 0.0 * z)
    kin = 1.0 / grid.h**2  # hbar^2/(2 m h^2) with m = 1/2
    np.testing.assert_allclose(H.diagonal, 2.0 * kin)
    np.testing.assert_allclose(H.off_diagonal, -kin)


def test_rejects_non_finite_potential():
    grid = build_grid(-1.0, 1.0, 16)
    with pytest.raises(ValueError, match="non-finite"):
        build_hamiltonian(grid, lambda z: np.where(z > 0, np.inf, 0.0))


def test_sech_well_oracle(oracle_results):
    r = oracle_results["sech_well_spectrum"]
    assert r.passed, r.measured


def test_box_oracle(oracle_results):
    r = oracle_results["particle_in_box"]
    assert r.passed, r.measured


def test_harmonic_oracle(oracle_results):
    r = oracle_results["harmonic_spectrum"]
    assert r.passed, r.measured


def test_convergence_order_oracle(oracle_results):
    r = oracle_results["grid_convergence_order"]
    assert r.passed, r.measured


def test_orthonormality():
    grid = build_grid(-12.0, 12.0, 2048)
    H = build_hamiltonian(grid, lambda z: -25.0 / np.cosh(z) ** 2)
    pairs = solve_lowest(H, 4, grid=grid)
    ones = np.ones(grid.n_points)
    for i, p in enumerate(pairs):
        norm = matrix_element(p, p, ones, grid)
        assert abs(norm - 1.0) <= NORM_TOL
        for q in pairs[i + 1:]:
            overlap = matrix_element(p, q, ones, grid)
            assert abs(overlap) <= ORTHO_TOL


def test_ground_energy_near_variational_bound():
    exact = oracles.sech_well_energies(25.0, 1)[0]
    grid = build_grid(-12.0, 12.0, 4096)
    H = build_hamiltonian(grid, lambda z: -25.0 / np.cosh(z) ** 2)
    ground = solve_lowest(H, 1, grid=grid)[0].energy
    assert ground >= exact - SPECTRUM_RTOL * abs(exact)


def test_energies_nondecreasing():
    grid = build_grid(-12.0, 12.0, 1024)
    H = build_hamiltonian(grid, lambda z: -25.0 / np.cosh(z) ** 2)
    energies = [p.energy for p in solve_lowest(H, 5, grid=grid)]
    assert energies == sorted(energies)


def test_solve_count_bounds():
    grid = build_grid(-1.0, 1.0, 16)
    H = build_hamiltonian(grid, lambda z: 0.0 * z)
    with pytest.raises(ValueError):
        solve_lowest(H, 0, grid=grid)
    with pytest.raises(ValueError):
        solve_lowest(H, 17, grid=grid)


def test_sign_convention():
    grid = build_grid(-10.0, 10.0, 1024)
    H = build_hamiltonian(grid, lambda z: z ** 2)
    for p in solve_lowest(H, 3, grid=grid):
        i = int(np.argmax(np.abs(p.wavefunction)))
        assert p.wavefunction[i] > 0


def test_harmonic_position_element():
    # <0|z|1> = sqrt(hbar / (2 m omega0)) = sqrt(1/2) for V = z^2, m = 1/2
    grid = build_grid(-10.0, 10.0, 4096)
    H = build_hamiltonian(grid, lambda z: z ** 2)
    p0, p1 = solve_lowest(H, 2, grid=grid)
    value = matrix_element(p0, p1, grid.points, grid)
    assert abs(value) == pytest.approx(math.sqrt(0.5), rel=SPECTRUM_RTOL)


def test_classify_bound_harmonic_ground():
    grid = build_grid(-10.0, 10.0, 2048)
    H = build_hamiltonian(grid, lambda z: z ** 2)
    ground = solve_lowest(H, 1, grid=grid)[0]
    # sigma = sqrt(hbar/(2 m omega0)) = sqrt(1/2); window +/- 5 sigma
    cls = classify_bound(ground, grid, 0.0, 10.0 * math.sqrt(0.5))
    assert cls.bound
    assert cls.mass_fraction > 0.9999


def test_classify_bound_delocalized_state():
    grid = build_grid(0.0, 1.0, 512)
    H = build_hamiltonian(grid, lambda z: 0.0 * z)
    ground = solve_lowest(H, 1, grid=grid)[0]
    cls = classify_bound(ground, grid, 0.5, 0.1)
    assert not cls.bound


def test_classify_bound_window_outside_grid():
    grid = build_grid(0.0, 1.0, 64)
    H = build_hamiltonian(grid, lambda z: 0.0 * z)
    ground = solve_lowest(H, 1, grid=grid)[0]
    with pytest.raises(ValueError):
        classify_bound(ground, grid, 5.0, 0.5)


def test_matrix_element_grid_mismatch():
    grid_a = build_grid(-1.0, 1.0, 64)
    grid_b = build_grid(-1.0, 1.0, 128)
    pa = solve_lowest(build_hamiltonian(grid_a, lambda z: z ** 2), 1,
                      grid=grid_a)[0]
    pb = solve_lowest(build_hamiltonian(grid_b, lambda z: z ** 2), 1,
                      grid=grid_b)[0]
    with pytest.raises(ValueError):
        matrix_element(pa, pb, grid_a.points, grid_a)


def test_track_static_potential():
    config = DeviceConfig(gamma=0.0)
    scales = derive_scales(config)
    times = pipeline.default_times(scales, 64)[:6]
    traj = oracles.track_dot_levels(times, config, scales, count=3)
    np.testing.assert_allclose(traj.min_overlaps, 1.0, atol=1e-10)
    energies = traj.energies()
    assert np.ptp(energies, axis=0).max() < 1e-10


def test_track_weak_saw_continuity_and_reversal():
    config = DeviceConfig(gamma=0.05)
    scales = derive_scales(config)
    times = pipeline.default_times(scales, 64)[:8]
    fwd = oracles.track_dot_levels(times, config, scales)
    assert fwd.min_overlaps.min() > 0.99
    rev = oracles.track_dot_levels(times[::-1], config, scales)
    np.testing.assert_array_equal(fwd.energies(), rev.energies()[::-1])


def test_track_rejects_unordered_times():
    config = DeviceConfig()
    scales = derive_scales(config)
    for times in ([0.0, 2e-12, 1e-12], [1e-12, 1e-12], []):
        with pytest.raises(ValueError):
            oracles.track_dot_levels(np.array(times), config, scales,
                                     count=1)


def test_dot_trajectory_continuity(qubit_solution):
    # moving-window qubit levels over the full period
    prof = pipeline.adiabaticity_profile(qubit_solution.config,
                                         qubit_solution.scales)
    assert prof.min_overlaps.min() >= DOT_MIN_OVERLAP_FLOOR


def test_crossing_levels_follow_character():
    """Two wells whose depths swap: overlap assignment keeps identity with
    the wavefunction, not with the energy ordering."""
    def double_well(delta):
        return lambda z: (-(25.0 + delta) / np.cosh(z + 4.0) ** 2
                          - (25.0 - delta) / np.cosh(z - 4.0) ** 2)

    grid = build_grid(-12.0, 12.0, 2048)
    prev = None
    left_index = None
    for delta in np.linspace(2.0, -2.0, 9):
        H = build_hamiltonian(grid, double_well(delta))
        pairs = solve_lowest(H, 2, grid=grid)
        if prev is None:
            # level 0 starts in the deeper (left) well
            weight_left = np.sum(pairs[0].wavefunction[grid.points < 0] ** 2)
            assert weight_left * grid.h > 0.99
            left_index = 0
        else:
            overlap = np.array(
                [[abs(np.sum(p.wavefunction * q.wavefunction) * grid.h)
                  for q in pairs] for p in prev])
            row, col = linear_sum_assignment(-overlap)
            left_index = col[left_index]
        prev = pairs
    # after the swap the left-well state is the higher-energy one
    assert left_index == 1
    weight_left = np.sum(prev[1].wavefunction[grid.points < 0] ** 2)
    assert weight_left * grid.h > 0.99
