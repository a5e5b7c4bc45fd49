import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from sawqubit import adiabatic, eigensolver, oracles, pipeline, potential
from sawqubit.eigensolver import (BOUND_FRACTION, Grid, bound_fractions,
                                  build_grid, build_hamiltonian, solve_lowest)
from sawqubit.params import DeviceConfig, derive_scales

import references

ORTHO_TOL = 1e-8
NORM_TOL = 1e-10
SPECTRUM_RTOL = 1e-4

# Frozen regression: minimum consecutive overlaps of the two tracked dot
# levels over 64 midpoint samples of one SAW period.
DOT_MIN_OVERLAP_FLOOR = 0.9


def test_grid_spacing():
    grid = build_grid(-2e-6, 2e-6, 4096)
    assert grid.h == pytest.approx(4e-6 / 4095, rel=1e-12, abs=0)
    assert grid.h == pytest.approx(0.9768e-9, rel=1e-3, abs=0)


def test_grid_three_points():
    grid = build_grid(0.0, 1.0, 3)
    np.testing.assert_allclose(grid.points, [0.0, 0.5, 1.0])


def test_grid_points_built_once():
    """The nodes are one read-only linspace per grid, bit for bit, and
    grids still compare by their fields alone."""
    grid = build_grid(-3.0, 5.0, 1025)
    z = grid.points
    assert grid.points is z
    np.testing.assert_array_equal(z, np.linspace(-3.0, 5.0, 1025))
    assert not z.flags.writeable
    assert grid == Grid(-3.0, 5.0, 1025)
    assert hash(grid) == hash(Grid(-3.0, 5.0, 1025))


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
    gram = solve_lowest(H, 4, grid=grid).matrix(np.ones(grid.n_points))
    assert np.abs(np.diag(gram) - 1.0).max() <= NORM_TOL
    assert np.abs(gram - np.diag(np.diag(gram))).max() <= ORTHO_TOL


def test_ground_energy_near_variational_bound():
    exact = oracles.sech_well_energies(25.0, 1)[0]
    grid = build_grid(-12.0, 12.0, 4096)
    H = build_hamiltonian(grid, lambda z: -25.0 / np.cosh(z) ** 2)
    ground = solve_lowest(H, 1, grid=grid).energies[0]
    assert ground >= exact - SPECTRUM_RTOL * abs(exact)


def test_energies_nondecreasing():
    grid = build_grid(-12.0, 12.0, 1024)
    H = build_hamiltonian(grid, lambda z: -25.0 / np.cosh(z) ** 2)
    energies = solve_lowest(H, 5, grid=grid).energies.tolist()
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
    for psi in solve_lowest(H, 3, grid=grid).states:
        assert psi[np.argmax(np.abs(psi))] > 0


def test_harmonic_position_element():
    # <0|z|1> = sqrt(hbar / (2 m omega0)) = sqrt(1/2) for V = z^2, m = 1/2
    grid = build_grid(-10.0, 10.0, 4096)
    H = build_hamiltonian(grid, lambda z: z ** 2)
    value = solve_lowest(H, 2, grid=grid).matrix(grid.points)[0, 1]
    assert abs(value) == pytest.approx(math.sqrt(0.5), rel=SPECTRUM_RTOL)


def test_matrix_is_the_per_pair_quadrature():
    """Each element is the quadrature sum(psi_i f psi_j) h of its pair,
    computed once for i <= j and mirrored, so the matrix is symmetric bit
    for bit."""
    grid = build_grid(-10.0, 10.0, 1024)
    levels = solve_lowest(build_hamiltonian(grid, lambda z: z ** 2), 3,
                          grid=grid)
    f = np.exp(0.3 * grid.points)  # neither even nor odd
    m = levels.matrix(f)
    np.testing.assert_array_equal(m, m.T)
    psi = levels.states
    for i in range(3):
        for j in range(i, 3):
            assert m[i, j] == np.sum(psi[i] * f * psi[j]) * grid.h


def _crest_well_levels(count):
    """The lowest levels of z^2 exp(-z^2/9), a well harmonic near z = 0
    whose crests (height 9/e) sit on the grid samples z = -3 and 3, and
    the potential on the grid."""
    grid = build_grid(-6.0, 6.0, 2049)
    v = grid.points ** 2 * np.exp(-grid.points ** 2 / 9.0)
    levels = solve_lowest(build_hamiltonian(grid, lambda z: v), count,
                          grid=grid)
    return levels, v


def test_bound_fractions_harmonic_ground():
    """The ground state's weight on the samples from crest to crest, for
    any center inside the well."""
    levels, v = _crest_well_levels(1)
    z = levels.grid.points
    inside = np.sum(levels.states[0, np.abs(z) <= 3.0] ** 2) * levels.grid.h
    assert BOUND_FRACTION < inside < 0.9999
    for center in (-2.0, 0.0, 1e-9, 2.5):
        (frac,) = bound_fractions(levels, v, center)
        assert frac == pytest.approx(inside, rel=1e-14, abs=0)


def test_bound_fractions_delocalized_state():
    """Levels 2 and 3 live mostly beyond the crests, where the potential
    falls below their energies: they are not bound."""
    levels, v = _crest_well_levels(4)
    frac = bound_fractions(levels, v, 0.0)
    assert frac[0] >= BOUND_FRACTION
    assert np.all(frac[2:] < 0.2)


def test_bound_fractions_window_outside_grid():
    """A well center on or beyond the grid's ends has no crest on one
    side."""
    levels, v = _crest_well_levels(1)
    for center in (-6.0, 6.0, 7.0):
        with pytest.raises(ValueError, match="outside the grid"):
            bound_fractions(levels, v, center)


def test_matrix_rejects_wrong_length_operator():
    grid = build_grid(-1.0, 1.0, 64)
    levels = solve_lowest(build_hamiltonian(grid, lambda z: z ** 2), 1,
                          grid=grid)
    for f in (np.ones(63), np.ones(128), np.ones((64, 1))):
        with pytest.raises(ValueError):
            levels.matrix(f)


def test_track_static_potential():
    config = DeviceConfig(gamma=0.0)
    scales = derive_scales(config)
    times = pipeline.default_times(scales, 64)[:6]
    traj = references.track_dot_levels(times, config, scales, count=3)
    np.testing.assert_allclose(traj.min_overlaps, 1.0, atol=1e-10)
    energies = traj.energies()
    assert np.ptp(energies, axis=0).max() < 1e-10


def test_track_weak_saw_continuity_and_reversal():
    config = DeviceConfig(gamma=0.05)
    scales = derive_scales(config)
    times = pipeline.default_times(scales, 64)[:8]
    fwd = references.track_dot_levels(times, config, scales)
    assert fwd.min_overlaps.min() > 0.99
    rev = references.track_dot_levels(times[::-1], config, scales)
    np.testing.assert_array_equal(fwd.energies(), rev.energies()[::-1])


def test_track_rejects_unordered_times():
    config = DeviceConfig()
    scales = derive_scales(config)
    for times in ([0.0, 2e-12, 1e-12], [1e-12, 1e-12], []):
        with pytest.raises(ValueError):
            references.track_dot_levels(np.array(times), config, scales,
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
        states = solve_lowest(H, 2, grid=grid).states
        if prev is None:
            # level 0 starts in the deeper (left) well
            weight_left = np.sum(states[0][grid.points < 0] ** 2)
            assert weight_left * grid.h > 0.99
            left_index = 0
        else:
            overlap = np.array([[abs(np.sum(p * q) * grid.h)
                                 for q in states] for p in prev])
            row, col = linear_sum_assignment(-overlap)
            left_index = col[left_index]
        prev = states
    # after the swap the left-well state is the higher-energy one
    assert left_index == 1
    weight_left = np.sum(prev[1][grid.points < 0] ** 2)
    assert weight_left * grid.h > 0.99


def _window_hamiltonian(sample=4):
    """The default config's dot-window Hamiltonian at a first-half sample."""
    config = DeviceConfig()
    scales = derive_scales(config)
    t = pipeline.default_times(scales)[sample]
    center = adiabatic.find_well_minimum(t, config, scales)
    half = 0.5 * config.saw_wavelength / config.a
    grid = build_grid(center - half, center + half, 1025)
    H = build_hamiltonian(grid, lambda z: potential.effective(z, t, scales))
    return H, grid


def _bisections(monkeypatch):
    """A list that gains one entry per bisection the solver makes."""
    calls = []
    bisect = eigensolver._bisect

    def counted(H, count):
        calls.append(count)
        return bisect(H, count)

    monkeypatch.setattr(eigensolver, "_bisect", counted)
    return calls


def test_warm_start_matches_bisection(monkeypatch):
    """Guesses off by a few natural units: inverse iteration, no
    bisection, and the same levels to rounding."""
    H, grid = _window_hamiltonian()
    cold = solve_lowest(H, 2, grid=grid)
    calls = _bisections(monkeypatch)
    warm = solve_lowest(H, 2, grid=grid, near=cold.energies + [3.0, -2.0])
    assert calls == []
    scale = np.abs(H.diagonal).max()
    assert np.abs(warm.energies - cold.energies).max() <= 1e-14 * scale
    assert np.abs(warm.states - cold.states).max() <= 1e-10
    assert eigensolver.WARM_SEPARATION * scale < np.diff(cold.energies)[0]


@pytest.mark.parametrize("pick", [
    # levels 1 and 2: each pair converges, the Sturm count finds 3
    lambda e: e[1:3],
    # both next to E1: one of them cannot converge to E1
    lambda e: e[1] + np.array([-0.5, 0.5]),
    lambda e: np.array([np.nan, e[1]]),
    lambda e: np.array([e[0], np.inf]),
    lambda e: np.array([-np.inf, np.inf]),
    # decreasing guesses
    lambda e: e[1::-1],
    # finite, but far past the float range of the shifted matrix
    lambda e: np.array([-1e308, 1e308]),
], ids=["levels_1_2", "both_near_E1", "nan", "inf", "both_inf",
        "decreasing", "huge"])
def test_warm_start_falls_back_to_bisection(monkeypatch, pick):
    """Guesses that lead elsewhere, or are not numbers, still give the
    lowest two levels, bisected and equal to a cold solve bit for bit."""
    H, grid = _window_hamiltonian()
    cold = solve_lowest(H, 2, grid=grid)
    spectrum = solve_lowest(H, 3, grid=grid).energies
    calls = _bisections(monkeypatch)
    warm = solve_lowest(H, 2, grid=grid, near=pick(spectrum))
    assert calls == [2]
    np.testing.assert_array_equal(warm.energies, cold.energies)
    np.testing.assert_array_equal(warm.states, cold.states)


def test_warm_start_bisects_close_levels(monkeypatch):
    """A tunnel-split doublet 1.6e-4 apart, under the gate's least
    spacing: exact guesses converge, yet the pair is bisected."""
    grid = build_grid(-12.0, 12.0, 1025)
    H = build_hamiltonian(grid, lambda z: (-25.0 / np.cosh(z + 2.0) ** 2
                                           - 25.0 / np.cosh(z - 2.0) ** 2))
    cold = solve_lowest(H, 2, grid=grid)
    spacing = np.diff(cold.energies)[0]
    assert 0 < spacing < eigensolver.WARM_SEPARATION * np.abs(H.diagonal).max()
    calls = _bisections(monkeypatch)
    warm = solve_lowest(H, 2, grid=grid, near=cold.energies)
    assert calls == [2]
    np.testing.assert_array_equal(warm.energies, cold.energies)
    np.testing.assert_array_equal(warm.states, cold.states)


@pytest.mark.parametrize("diagonal, off_diagonal", [
    ([2.0], []),  # 1x1: no inverse iteration to run
    ([2.0, np.nan, 1.0], [-1.0, -1.0]),
    ([2.0, 3.0, 1.0], [-1.0, np.inf]),
], ids=["one_point", "nan_diagonal", "inf_off_diagonal"])
def test_warm_start_declines_without_raising(diagonal, off_diagonal):
    H = eigensolver.TridiagonalHamiltonian(np.array(diagonal),
                                           np.array(off_diagonal))
    near = np.arange(H.n, dtype=float)
    assert eigensolver._inverse_iteration(H, near) is None


def test_warm_start_rejects_wrong_guess_count():
    H, grid = _window_hamiltonian()
    with pytest.raises(ValueError, match="energy guesses"):
        solve_lowest(H, 2, grid=grid, near=[1.0, 2.0, 3.0])
