import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawqubit import potential
from sawqubit.constants import CONSTANTS
from sawqubit.params import DeviceConfig, derive_scales

SCALES = derive_scales(DeviceConfig())
LAMBDA = DeviceConfig().saw_wavelength / DeviceConfig().a  # SAW period in zeta

finite_z = st.floats(min_value=-5e-6, max_value=5e-6,
                     allow_nan=False, allow_infinity=False)
finite_zeta = st.floats(min_value=-10.0, max_value=10.0,
                        allow_nan=False, allow_infinity=False)


def test_gate_center_value():
    assert potential.barrier(0.0, SCALES) == SCALES.V0_nat


def test_gate_tail_negligible():
    assert potential.barrier(10.0, SCALES) < 1e-8 * SCALES.V0_nat


def test_gate_at_one_half_length():
    expected = SCALES.V0_nat / math.cosh(1.0) ** 2
    assert potential.barrier(1.0, SCALES) == pytest.approx(expected, rel=1e-12)
    assert expected / SCALES.V0_nat == pytest.approx(0.41997, rel=1e-4)


@given(zeta=finite_zeta)
@settings(max_examples=50, deadline=None)
def test_gate_parity(zeta):
    assert potential.barrier(zeta, SCALES) == potential.barrier(-zeta, SCALES)


def test_saw_crest():
    # k z - w t = 0 at z = 0, t = 0
    assert potential.saw(0.0, 0.0, SCALES) == SCALES.V_S_nat


def test_saw_node():
    value = potential.saw(LAMBDA / 4.0, 0.0, SCALES)
    assert abs(value) < 1e-12 * SCALES.V_S_nat


@given(zeta=finite_zeta, frac=st.floats(min_value=0.0, max_value=1.0,
                                        allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_saw_periodicity(zeta, frac):
    t = frac * SCALES.T_period
    base = potential.saw(zeta, t, SCALES)
    assert potential.saw(zeta + LAMBDA, t, SCALES) == pytest.approx(
        base, rel=1e-12, abs=1e-12 * SCALES.V_S_nat)
    assert potential.saw(zeta, t + SCALES.T_period, SCALES) == \
        pytest.approx(base, rel=1e-12, abs=1e-12 * SCALES.V_S_nat)


def test_effective_reduces_to_gate_without_saw():
    scales0 = derive_scales(DeviceConfig(gamma=0.0))
    zeta = np.linspace(-4.0, 4.0, 101)
    for t in (0.0, 0.4 * scales0.T_period):
        np.testing.assert_array_equal(potential.effective(zeta, t, scales0),
                                      potential.barrier(zeta, scales0))


def test_effective_coinciding_maxima():
    assert potential.effective(0.0, 0.0, SCALES) == \
        SCALES.V0_nat + SCALES.V_S_nat


def test_drive_profile_peak():
    assert potential.drive_profile(0.0) == 1.0


def test_drive_amplitude_vs_barrier():
    # V_e = 0.1 V_S = 0.05 V0 at the defaults
    v_e = DeviceConfig().drive_ratio * SCALES.V_S
    assert v_e == pytest.approx(0.05 * SCALES.V0, rel=1e-12, abs=0)


def test_saw_derivative_zero_at_crest():
    assert potential.saw_time_derivative(0.0, 0.0, SCALES) == 0.0


def test_saw_derivative_peak():
    # k z - w t = pi/2 at z = lambda/4, t = 0: sin = 1
    value = potential.saw_time_derivative(LAMBDA / 4.0, 0.0, SCALES)
    assert value == pytest.approx(SCALES.V_S_nat * SCALES.omega_saw_nat,
                                  rel=1e-12)


def test_saw_derivative_matches_finite_difference():
    dt = SCALES.T_period / 1e6
    zeta = np.linspace(-3.0, 3.0, 13)
    t = 0.23 * SCALES.T_period
    analytic = potential.saw_time_derivative(zeta, t, SCALES)
    span = SCALES.time_to_natural(2.0 * dt)
    fd = (potential.saw(zeta, t + dt, SCALES)
          - potential.saw(zeta, t - dt, SCALES)) / span
    np.testing.assert_allclose(
        fd, analytic, atol=1e-6 * SCALES.V_S_nat * SCALES.omega_saw_nat)


def test_cosh_called_only_in_potential_and_oracles():
    """The sech^2 barrier and drive profile are defined once, in
    potential.py; oracles.py keeps its own closed-form test wells."""
    src = pathlib.Path(potential.__file__).parent
    callers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "cosh":
                callers.add(path.name)
    assert callers == {"potential.py", "oracles.py"}


def test_physical_constants_are_not_parameters():
    """The constants are read from sawqubit.constants where they are used,
    and the eigensolver works in natural units only: no function takes
    them as parameters."""
    src = pathlib.Path(potential.__file__).parent
    found = []
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                found += [f"{path.name}:{node.name}({a.arg})"
                          for a in (args.posonlyargs + args.args
                                    + args.kwonlyargs)
                          if a.arg in ("constants", "hbar", "m_star")]
    assert found == []


def test_coulomb_force_vanishes_at_alignment():
    assert potential.coulomb_force(0.3e-6, 0.3e-6, 1e-6) == 0.0


@given(zu=finite_z, zl=finite_z)
@settings(max_examples=50, deadline=None)
def test_coulomb_force_antisymmetry(zu, zl):
    d = 1e-6
    assert potential.coulomb_force(zu, zl, d) == \
        -potential.coulomb_force(zl, zu, d)


def test_coulomb_force_asymptotic_decay():
    d = 1e-6
    f1 = potential.coulomb_force(0.0, 100 * d, d)
    f2 = potential.coulomb_force(0.0, 200 * d, d)
    assert f1 / f2 == pytest.approx(4.0, rel=1e-3)


def test_coulomb_potential_zero_and_limit():
    d = 1e-6
    assert potential.coulomb_potential_exact(0.0, d) == 0.0
    limit = CONSTANTS.elementary_charge**2 / (
        4.0 * math.pi * CONSTANTS.vacuum_permittivity * d)
    # 1e-4 below the limit at z = 1e4 d
    assert potential.coulomb_potential_exact(1e4 * d, d) == pytest.approx(
        limit * (1.0 - 1.0 / math.sqrt(1.0 + 1e8)), rel=1e-12, abs=0)


def test_coulomb_potential_monotone_in_magnitude():
    d = 1e-6
    z = np.linspace(0.0, 5 * d, 201)
    v = potential.coulomb_potential_exact(z, d)
    assert np.all(v >= 0.0)
    assert np.all(np.diff(v) > 0.0)
    v_neg = potential.coulomb_potential_exact(-z, d)
    np.testing.assert_array_equal(v, v_neg)


def test_quadratic_expansion_zero():
    assert potential.coulomb_potential_quadratic(0.0, 1e-6) == 0.0


def test_quadratic_overestimates_at_large_displacement():
    d = 1e-6
    quad = potential.coulomb_potential_quadratic(d, d)
    exact = potential.coulomb_potential_exact(d, d)
    assert quad > exact > 0.0


def test_quadratic_error_slope():
    d = 1e-6
    ratios = np.logspace(-3, -1, 9)
    exact = potential.coulomb_potential_exact(ratios * d, d)
    quad = potential.coulomb_potential_quadratic(ratios * d, d)
    rel_err = np.abs(quad - exact) / exact
    slope, _ = np.polyfit(np.log(ratios), np.log(rel_err), 1)
    assert slope == pytest.approx(2.0, abs=0.05)
