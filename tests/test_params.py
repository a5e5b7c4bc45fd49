import json
import math

import pytest

from sawqubit.constants import CONSTANTS
from sawqubit.params import (MAX_SAW_VELOCITY_MPS, ConfigError,
                             DeviceConfig, derive_scales, load_config,
                             thermal_ratio)

REL_TOL = 1e-12

# Frozen regression values for the default configuration.
T_PERIOD_DEFAULT = 3.354579000335458e-10  # s
V0_DEFAULT = 2.277710565291339e-21  # J, l0 = 20 nm, mass ratio 0.0067
KBT_DEFAULT = 3.727752300000001e-24  # J at 0.27 K


def test_default_period():
    scales = derive_scales(DeviceConfig())
    assert scales.T_period == pytest.approx(T_PERIOD_DEFAULT, rel=REL_TOL,
                                             abs=0)
    # within 2% of the published 0.34 ns transit time
    assert abs(scales.T_period - 0.34e-9) / 0.34e-9 < 0.02


def test_period_frequency_consistency():
    scales = derive_scales(DeviceConfig())
    assert scales.T_period * scales.omega_saw == pytest.approx(
        2.0 * math.pi, rel=REL_TOL)


def test_barrier_height_formula():
    scales = derive_scales(DeviceConfig())
    assert scales.V0 == pytest.approx(V0_DEFAULT, rel=REL_TOL, abs=0)
    hand = CONSTANTS.hbar**2 / (2.0 * 0.0067 * CONSTANTS.electron_mass
                                * (20e-9) ** 2)
    assert scales.V0 == pytest.approx(hand, rel=REL_TOL, abs=0)


def test_zero_gamma_switches_saw_off():
    scales = derive_scales(DeviceConfig(gamma=0.0))
    assert scales.V_S == 0.0


def test_natural_units_consistent():
    scales = derive_scales(DeviceConfig())
    assert scales.natural_energy * scales.natural_time == pytest.approx(
        CONSTANTS.hbar, rel=REL_TOL, abs=0)


def test_conversions_round_trip():
    scales = derive_scales(DeviceConfig())
    for value in (1.0, 3.7e-24, -2.5e-7):
        assert scales.energy_to_si(value / scales.natural_energy) == \
            pytest.approx(value, rel=REL_TOL, abs=0)
        assert scales.time_to_natural(value) * scales.natural_time == \
            pytest.approx(value, rel=REL_TOL, abs=0)


def test_derive_is_deterministic():
    a = derive_scales(DeviceConfig())
    b = derive_scales(DeviceConfig())
    assert a == b


def test_l0_defaults_to_fraction_of_a():
    config = DeviceConfig(a=0.5e-6)
    assert config.l0 == pytest.approx(20e-9, rel=REL_TOL, abs=0)
    explicit = DeviceConfig(a=0.5e-6, l0=30e-9)
    assert explicit.l0 == 30e-9


def test_invalid_fields_name_the_culprit():
    with pytest.raises(ConfigError, match="gamma"):
        DeviceConfig(gamma=-1.0)
    with pytest.raises(ConfigError, match="saw_velocity"):
        DeviceConfig(saw_velocity=0.0)
    with pytest.raises(ConfigError, match="temperature"):
        DeviceConfig(temperature=-0.1)
    with pytest.raises(ConfigError, match="^a: must be finite"):
        DeviceConfig(a=math.inf)
    with pytest.raises(ConfigError, match="channel_separation"):
        DeviceConfig(channel_separation=math.inf)
    with pytest.raises(ConfigError, match="drive_ratio"):
        DeviceConfig(drive_ratio=math.nan)


def test_saw_velocity_upper_bound():
    assert DeviceConfig(saw_velocity=MAX_SAW_VELOCITY_MPS).saw_velocity == \
        MAX_SAW_VELOCITY_MPS
    for velocity in (1.0001 * MAX_SAW_VELOCITY_MPS, 1e30):
        with pytest.raises(ConfigError, match="^saw_velocity: must be <="):
            DeviceConfig(saw_velocity=velocity)


def test_thermal_check():
    check = thermal_ratio(DeviceConfig(), 8.3667e-23)
    assert check.thermal_energy == pytest.approx(KBT_DEFAULT, rel=REL_TOL,
                                                  abs=0)
    # published value 3.726e-24 J agrees to 0.1%
    assert check.thermal_energy == pytest.approx(3.726e-24, rel=1e-3, abs=0)
    assert check.ratio == pytest.approx(KBT_DEFAULT / 8.3667e-23, rel=REL_TOL)


def test_thermal_zero_temperature():
    assert thermal_ratio(DeviceConfig(temperature=0.0), 1e-23).ratio == 0.0


def test_thermal_rejects_bad_splitting():
    with pytest.raises(ValueError):
        thermal_ratio(DeviceConfig(), 0.0)


def test_load_config_partial_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gamma": 0.25, "temperature_K": 0.1}))
    config = load_config(str(path))
    assert config.gamma == 0.25
    assert config.temperature == 0.1
    assert config.a == 0.5e-6  # default preserved


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"wavelength": 1e-6}))
    with pytest.raises(ConfigError, match="wavelength"):
        load_config(str(path))


def test_load_config_rejects_non_numeric(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gamma": "big"}))
    with pytest.raises(ConfigError, match="gamma"):
        load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.json")


def test_config_echo_covers_every_key():
    echo = DeviceConfig().as_file_dict()
    assert set(echo) == {"a_m", "l0_m", "gamma", "saw_wavelength_m",
                         "saw_velocity_mps", "effective_mass_ratio",
                         "drive_ratio", "channel_separation_m",
                         "temperature_K"}
