"""Run configuration: INI files, environment overrides, object construction.

Configuration is declarative (an INI file with sections model, basis,
dynamics, stability, output); every key has a typed default, unknown keys
are rejected, and any value can be overridden through the environment as
FERMICRYSTAL_<SECTION>_<KEY>.  The constructors at the bottom turn a
validated configuration into library objects; they perform no I/O except
reading an explicitly configured density file.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .density import (
    IonDensityModel,
    box_density,
    load_density_file,
    perturbed_box_density,
)
from .dynamics import METHODS
from .errors import ConfigError
from .fermions import DeterminantBasis, enumerate_basis, ground_occupations
from .stability import GroundState, build_ground_state
from .torus import TorusSpec

ENV_PREFIX = "FERMICRYSTAL"


@dataclass
class ModelConfig:
    dimension: int = 1
    cells_per_axis: int = 2
    grid_per_axis: int = 16
    cutoff_radius: float = 0.0  # 0 means the spectral default
    kind: str = "box"
    profile_exponent: int = 1
    amplitude: float = 0.5
    decay: float = 2.0
    charge: float = 1.0
    coupling: float = 1.0
    density_file: str = ""


@dataclass
class BasisConfig:
    ksq_budget: float = 0.0  # 0 means just enough for the ground shell
    capacity: int = 200_000


@dataclass
class DynamicsConfig:
    dt: float = 1e-3
    duration: float = 1.0
    method: str = "implicit_midpoint"
    fp_tol: float = 1e-13
    max_iterations: int = 50
    mass: float = 1.0


@dataclass
class StabilityConfig:
    deltas: tuple = (0.02, 0.05, 0.1)
    n_perturbations: int = 4
    duration: float = 5.0
    dt: float = 1e-3
    method: str = "implicit_midpoint"
    fp_tol: float = 1e-13
    include_controls: bool = True


@dataclass
class OutputConfig:
    stride: int = 1


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    basis: BasisConfig = field(default_factory=BasisConfig)
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    stability: StabilityConfig = field(default_factory=StabilityConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        cfg = cls()
        for section_field in fields(cls):
            section = getattr(cfg, section_field.name)
            for key, value in data.get(section_field.name, {}).items():
                if key == "deltas":
                    value = tuple(value)
                setattr(section, key, value)
        return cfg


_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}


def _convert(raw: str, example, section: str, key: str):
    raw = raw.strip()
    try:
        if isinstance(example, bool):
            lowered = raw.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(example, int):
            return int(raw)
        if isinstance(example, float):
            return float(raw)
        if isinstance(example, tuple):
            parts = [p for p in raw.replace(",", " ").split() if p]
            return tuple(float(p) for p in parts)
        return raw
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {type(example).__name__}"
        ) from None


def load_config(path: Optional[str] = None, environ=None) -> RunConfig:
    """Read an INI file (optional), apply environment overrides, validate."""
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        for section_name in parser.sections():
            if section_name not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section_name}]")
            section = getattr(cfg, section_name)
            for key, raw in parser.items(section_name):
                if not hasattr(section, key):
                    raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
                setattr(section, key, _convert(raw, getattr(section, key),
                                               section_name, key))
    environ = os.environ if environ is None else environ
    for section_name in _SECTIONS:
        section = getattr(cfg, section_name)
        for key in vars(section):
            env_key = f"{ENV_PREFIX}_{section_name}_{key}".upper()
            if env_key in environ:
                setattr(section, key, _convert(environ[env_key],
                                               getattr(section, key),
                                               section_name, key))
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    # nan and inf pass every comparison below, so reject them first
    for name in _SECTIONS:
        for key, value in vars(getattr(cfg, name)).items():
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"[{name}] {key} must be finite, got {value!r}")
    try:  # the torus rules are TorusSpec's
        build_spec(cfg)
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from None
    m = cfg.model
    if m.kind not in ("box", "perturbed_box", "file"):
        raise ConfigError(f"unknown model kind {m.kind!r}")
    if m.kind == "file" and not m.density_file:
        raise ConfigError("model kind 'file' requires density_file")
    if m.kind == "file" and m.cutoff_radius != 0:
        raise ConfigError(
            "model kind 'file' runs at the spectral default cutoff, so "
            f"cutoff_radius must be 0, got {m.cutoff_radius}"
        )
    if m.kind == "box" and m.profile_exponent < 1:
        raise ConfigError("profile_exponent must be at least 1")
    if m.kind == "perturbed_box":
        if m.profile_exponent < 2 or m.profile_exponent % 2:
            raise ConfigError("perturbed_box requires an even profile_exponent >= 2")
        if m.amplitude <= 0:
            raise ConfigError("perturbed_box requires amplitude > 0")
        if 4 * m.decay <= 1:
            raise ConfigError(
                f"perturbed_box requires decay > 1/4 (4 * decay > 1 bounds its "
                f"spectral tail), got {m.decay}")
    if m.charge * m.coupling <= 0:
        raise ConfigError("charge * coupling must be positive")
    amplitude = m.amplitude if m.kind == "perturbed_box" else 0.0
    peak = m.charge * m.coupling * (1.0 + amplitude * m.dimension)
    if not math.isfinite(peak * peak):
        raise ConfigError(
            f"squared peak transform (e Z (1 + amplitude d))^2 = ({peak:.3e})^2 "
            f"overflows a float: lower charge, coupling or amplitude")
    if m.cutoff_radius < 0:
        raise ConfigError("cutoff_radius must be nonnegative")
    b = cfg.basis
    if b.ksq_budget < 0:
        raise ConfigError("ksq_budget must be nonnegative")
    if b.capacity < 1:
        raise ConfigError("capacity must be positive")
    for name, dyn in (("dynamics", cfg.dynamics), ("stability", cfg.stability)):
        if dyn.dt <= 0:
            raise ConfigError(f"[{name}] dt must be positive")
        if dyn.duration < 0:
            raise ConfigError(f"[{name}] duration must be nonnegative")
        if dyn.method not in METHODS:
            raise ConfigError(f"[{name}] method must be one of {METHODS}")
        if dyn.fp_tol <= 0:
            raise ConfigError(f"[{name}] fp_tol must be positive")
    if cfg.dynamics.max_iterations < 1:
        raise ConfigError("[dynamics] max_iterations must be at least 1")
    if cfg.dynamics.mass <= 0:
        raise ConfigError("[dynamics] mass must be positive")
    s = cfg.stability
    if any(d < 0 for d in s.deltas) or not s.deltas:
        raise ConfigError("[stability] deltas must be a nonempty list of nonnegative values")
    if s.n_perturbations < 0:
        raise ConfigError("[stability] n_perturbations must be nonnegative")
    if cfg.output.stride < 1:
        raise ConfigError("[output] stride must be at least 1")


def build_spec(cfg: RunConfig) -> TorusSpec:
    m = cfg.model
    return TorusSpec(m.dimension, m.cells_per_axis, m.grid_per_axis,
                     cutoff_radius=m.cutoff_radius)


def build_model(cfg: RunConfig) -> IonDensityModel:
    m = cfg.model
    spec = build_spec(cfg)
    if m.kind == "box":
        return box_density(spec, m.profile_exponent, Z=m.charge, e=m.coupling)
    if m.kind == "perturbed_box":
        return perturbed_box_density(spec, k=m.profile_exponent,
                                     amplitude=m.amplitude, decay=m.decay,
                                     Z=m.charge, e=m.coupling)
    model = load_density_file(m.density_file)
    found = (model.spec.dimension, model.spec.cells_per_axis, model.spec.grid_per_axis)
    wanted = (m.dimension, m.cells_per_axis, m.grid_per_axis)
    if found != wanted:
        raise ConfigError(
            f"density file {m.density_file} has (d, N, n_g) = {found}, "
            f"but the config sets {wanted}"
        )
    if (model.Z, model.e) != (m.charge, m.coupling):
        raise ConfigError(
            f"density file {m.density_file} has (Z, e) = {(model.Z, model.e)}, "
            f"but the config sets (charge, coupling) = {(m.charge, m.coupling)}"
        )
    return model


def build_basis(cfg: RunConfig, spec: TorusSpec) -> DeterminantBasis:
    budget = cfg.basis.ksq_budget
    if budget <= 0:
        _, omega0 = ground_occupations(spec)
        budget = 2.0 * omega0 + 1e-9
    return enumerate_basis(spec, budget, capacity=cfg.basis.capacity)


def build_ground(cfg: RunConfig) -> GroundState:
    model = build_model(cfg)
    basis = build_basis(cfg, model.spec)
    return build_ground_state(basis, model, mass=cfg.dynamics.mass)
