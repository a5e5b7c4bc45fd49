from dataclasses import replace

import pytest

from sawqubit import pipeline
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
