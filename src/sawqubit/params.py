"""Device configuration, derived scales, and the internal unit system.

All heavy numerics run in a dimensionless "natural" unit system:
hbar = 1, length unit = the channel half-length ``a``, energy unit
``E_a = hbar^2 / (2 m* a^2)``, time unit ``hbar / E_a``.  SI values
appear only at I/O boundaries.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, asdict

from .constants import CONSTANTS


class ConfigError(ValueError):
    """Invalid device configuration; carries the offending field name."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"{fieldname}: {message}")


# Upper bound on the SAW velocity, ~10x the fastest known SAW substrates;
# beta grows in proportion to the velocity, so larger values are absurd.
MAX_SAW_VELOCITY_MPS = 1e5

# Upper bound on m*/m_e, well above any semiconductor band mass (all < ~2).
MAX_EFFECTIVE_MASS_RATIO = 10.0

# Grid points of the moving-dot window, one SAW wavelength wide.  Its
# kinetic term sets the largest energy the eigensolver meets, which the
# derived scales must keep in the float range.
DOT_WINDOW_POINTS = 1025

# Mapping between config-file keys and DeviceConfig attributes.
CONFIG_FILE_KEYS = {
    "a_m": "a",
    "l0_m": "l0",
    "gamma": "gamma",
    "saw_wavelength_m": "saw_wavelength",
    "saw_velocity_mps": "saw_velocity",
    "effective_mass_ratio": "effective_mass_ratio",
    "drive_ratio": "drive_ratio",
    "channel_separation_m": "channel_separation",
    "temperature_K": "temperature",
}


@dataclass(frozen=True)
class DeviceConfig:
    """Physical and model parameters of the SAW/channel device.

    ``l0`` defaults to 0.04 * a when not given explicitly.
    """

    a: float = 0.5e-6  # channel half-length (m)
    l0: float | None = None  # effective channel width (m)
    gamma: float = 0.5  # V_S / V0
    saw_wavelength: float = 1.0e-6  # m
    saw_velocity: float = 2981.0  # m/s
    effective_mass_ratio: float = 0.0067  # m*/m_e
    drive_ratio: float = 0.1  # V_e / V_S
    channel_separation: float = 1.0e-6  # inter-channel distance d (m)
    temperature: float = 0.27  # K

    def __post_init__(self):
        if self.l0 is None:
            object.__setattr__(self, "l0", 0.04 * self.a)
        self.validate()

    def validate(self):
        for name in CONFIG_FILE_KEYS.values():
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(name, "must be finite")
        positive = ("a", "l0", "saw_wavelength", "saw_velocity",
                    "effective_mass_ratio", "channel_separation")
        for name in positive:
            if not (getattr(self, name) > 0):
                raise ConfigError(name, "must be strictly positive")
        for name in ("gamma", "drive_ratio", "temperature"):
            if not (getattr(self, name) >= 0):
                raise ConfigError(name, "must be >= 0")
        if self.saw_velocity > MAX_SAW_VELOCITY_MPS:
            raise ConfigError("saw_velocity",
                              f"must be <= {MAX_SAW_VELOCITY_MPS:g} m/s")
        if self.effective_mass_ratio > MAX_EFFECTIVE_MASS_RATIO:
            raise ConfigError("effective_mass_ratio",
                              f"must be <= {MAX_EFFECTIVE_MASS_RATIO:g}")

    def as_file_dict(self) -> dict:
        """Config echoed in file-key form (all keys, no hidden defaults)."""
        return {key: getattr(self, attr) for key, attr in CONFIG_FILE_KEYS.items()}


def load_config(path: str) -> DeviceConfig:
    """Read a flat key->value JSON config file; missing keys take defaults."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<file>", "config must be a flat JSON object")
    kwargs = {}
    for key, value in raw.items():
        if key not in CONFIG_FILE_KEYS:
            raise ConfigError(key, "unknown configuration key")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(key, "value must be a number")
        try:
            kwargs[CONFIG_FILE_KEYS[key]] = float(value)
        except OverflowError:
            raise ConfigError(key, "integer out of the float range") from None
    return DeviceConfig(**kwargs)


@dataclass(frozen=True)
class DerivedScales:
    """Scalar quantities derived from a DeviceConfig.

    Carries both SI scales (V0, V_S, k, omega_saw, T_period, m_star) and
    the natural-unit system (natural_length, natural_energy, natural_time)
    plus the dimensionless parameters the solvers consume.
    """

    V0: float  # gate barrier height (J)
    V_S: float  # SAW amplitude (J)
    k: float  # SAW wavenumber (1/m)
    omega_saw: float  # SAW angular frequency (rad/s)
    T_period: float  # SAW period (s)
    m_star: float  # effective mass (kg)
    natural_length: float  # m
    natural_energy: float  # J
    natural_time: float  # s

    # Dimensionless counterparts used by the eigensolver and dynamics.
    @property
    def V0_nat(self) -> float:
        return self.V0 / self.natural_energy

    @property
    def V_S_nat(self) -> float:
        return self.V_S / self.natural_energy

    @property
    def k_nat(self) -> float:
        return self.k * self.natural_length

    @property
    def omega_saw_nat(self) -> float:
        return self.omega_saw * self.natural_time

    def energy_to_si(self, e_nat):
        return e_nat * self.natural_energy

    def time_to_natural(self, t_si):
        return t_si / self.natural_time

    def as_dict(self) -> dict:
        return asdict(self)


def _scale(name: str, attr: str, source: float, compute) -> float:
    """``compute()``, rejected unless it is a finite float, and nonzero
    when the config value ``source`` of ``attr`` is."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value) or (value == 0 and source != 0):
        raise ConfigError(attr, f"{source!r} takes the derived {name} out "
                                 f"of the float range ({value!r})")
    return value


def derive_scales(config: DeviceConfig) -> DerivedScales:
    """Compute all derived scalar quantities from a validated config.

    Pure and deterministic: identical inputs give bit-identical outputs.
    Raises ConfigError if a finite config value takes a derived scale, or
    a natural-unit parameter, to inf, or to 0 from a nonzero value.  The
    natural-unit parameters include the potential's range V0 + V_S, the
    grid extents, the Gershgorin bound 4/h^2 + V0 + V_S of the dot
    window's Hamiltonian, the largest magnitude the eigensolver meets,
    and the square of twice it, which bounds beta's (E1 - E0)^2.  The
    scales are checked in order, so the field named is the last one to
    enter the scale that fails; the last check names the field of the
    larger term, gamma (depth) or saw_wavelength (kinetic).
    """
    config.validate()
    hbar = CONSTANTS.hbar
    m_star = _scale("m_star", "effective_mass_ratio",
                    config.effective_mass_ratio,
                    lambda: config.effective_mass_ratio
                    * CONSTANTS.electron_mass)
    natural_length = config.a
    natural_energy = _scale("natural_energy", "a", config.a, lambda: (
        hbar**2 / (2.0 * m_star * config.a**2)))
    natural_time = _scale("natural_time", "a", config.a,
                          lambda: hbar / natural_energy)
    V0 = _scale("V0", "l0", config.l0,
                lambda: hbar**2 / (2.0 * m_star * config.l0**2))
    V_S = _scale("V_S", "gamma", config.gamma, lambda: config.gamma * V0)
    k = _scale("k", "saw_wavelength", config.saw_wavelength,
               lambda: 2.0 * math.pi / config.saw_wavelength)
    omega_saw = _scale("omega_saw", "saw_velocity", config.saw_velocity,
                       lambda: config.saw_velocity * k)
    T_period = _scale("T_period", "saw_velocity", config.saw_velocity,
                      lambda: config.saw_wavelength / config.saw_velocity)
    scales = DerivedScales(
        V0=V0, V_S=V_S, k=k, omega_saw=omega_saw, T_period=T_period,
        m_star=m_star, natural_length=natural_length,
        natural_energy=natural_energy, natural_time=natural_time,
    )
    for name, attr in (("V0_nat", "l0"), ("V_S_nat", "gamma"),
                       ("k_nat", "saw_wavelength"),
                       ("omega_saw_nat", "saw_velocity")):
        _scale(name, attr, getattr(config, attr),
               lambda: getattr(scales, name))
    depth = _scale("V0_nat + V_S_nat", "gamma", config.gamma,
                   lambda: scales.V0_nat + scales.V_S_nat)
    # z/a grids: the full domain spans 4 lambda/a, the dot window lambda/a
    # in DOT_WINDOW_POINTS - 1 steps of h
    _scale("4 lambda/a", "saw_wavelength", config.saw_wavelength,
           lambda: 4.0 * config.saw_wavelength / config.a)
    h = config.saw_wavelength / config.a / (DOT_WINDOW_POINTS - 1)
    bound = _scale("dot-window Gershgorin bound 4/h^2 + V0_nat + V_S_nat",
                   "saw_wavelength", config.saw_wavelength,
                   lambda: 4.0 / h**2 + depth)
    if 2.0 * bound > math.sqrt(sys.float_info.max):
        attr = "gamma" if depth >= 4.0 / h**2 else "saw_wavelength"
        raise ConfigError(attr, f"{getattr(config, attr)!r} takes (2 x the "
                                "Gershgorin bound)^2 out of the float range")
    return scales


@dataclass(frozen=True)
class ThermalCheck:
    """Thermal-excitation check: k_B T against the qubit splitting."""

    thermal_energy: float  # k_B T (J)
    ratio: float  # k_B T / splitting


def thermal_ratio(config: DeviceConfig,
                  qubit_splitting: float) -> ThermalCheck:
    """k_B T / splitting; small values mean thermal excitation is negligible."""
    if not (qubit_splitting > 0):
        raise ValueError("qubit_splitting must be positive")
    kbt = CONSTANTS.boltzmann * config.temperature
    return ThermalCheck(thermal_energy=kbt, ratio=kbt / qubit_splitting)
