"""Run configuration: a versioned, strictly validated JSON document.

The schema is deliberately rigid so that a config file pins a run
bit-for-bit: a required integer `version`, complex numbers always spelled as
[re, im] pairs, unknown fields and non-finite numbers (NaN, Infinity)
rejected with field-path diagnostics, and all defaults explicit here rather
than scattered through the commands.

Sections are optional at the schema level; each CLI command states which
ones it needs (weak-value: system/observable/channel/sweep; shifts: those
plus meter; invert: meter plus invert).
"""

from __future__ import annotations

import json
from typing import Literal

import numpy as np
from pydantic import BaseModel, ConfigDict, Field, ValidationError, model_validator

from .errors import ConfigError, WeaklindError
from .lindblad import DissipationChannel, Dissipator, NonMarkovJC, build_dissipator
from .meter import MeterState
from .operators import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    bloch_to_density,
    jy_six_level,
    pauli,
    pure_density,
    sodium_jump_operators,
)

ComplexPair = tuple[float, float]

NAMED_OBSERVABLES = ("jy6", "sigma_x", "sigma_y", "sigma_z", "sigma_plus",
                     "sigma_minus", "identity")
NAMED_CHANNELS = ("amplitude_damping", "sodium", "nonmarkov_jc")


class _StrictModel(BaseModel):
    model_config = ConfigDict(extra="forbid", allow_inf_nan=False)


class StateSpec(_StrictModel):
    """A pure state, as complex amplitudes or (two-level) a Bloch vector."""

    amplitudes: list[ComplexPair] | None = None
    bloch: tuple[float, float, float] | None = None

    @model_validator(mode="after")
    def _exactly_one(self) -> "StateSpec":
        if (self.amplitudes is None) == (self.bloch is None):
            raise ValueError("give exactly one of 'amplitudes' or 'bloch'")
        return self


class SystemSpec(_StrictModel):
    dimension: int = Field(ge=2)
    pre: StateSpec
    post: StateSpec


class PauliCombo(_StrictModel):
    """Observable a*identity + b*(m . pauli_vector), m complex."""

    a: float = 0.0
    b: float = 1.0
    m: tuple[ComplexPair, ComplexPair, ComplexPair]


class ObservableSpec(_StrictModel):
    named: Literal["jy6", "sigma_x", "sigma_y", "sigma_z", "sigma_plus",
                   "sigma_minus", "identity"] | None = None
    matrix: list[list[ComplexPair]] | None = None
    pauli: PauliCombo | None = None

    @model_validator(mode="after")
    def _exactly_one(self) -> "ObservableSpec":
        given = sum(x is not None for x in (self.named, self.matrix, self.pauli))
        if given != 1:
            raise ValueError("give exactly one of 'named', 'matrix' or 'pauli'")
        return self


class ChannelSpec(_StrictModel):
    named: Literal["amplitude_damping", "sodium", "nonmarkov_jc"] | None = None
    gamma: float | None = Field(default=None, ge=0.0)
    rate: float | None = Field(default=None, ge=0.0)
    gamma0: float | None = Field(default=None, gt=0.0)
    lam: float | None = Field(default=None, gt=0.0)
    jumps: list[list[list[ComplexPair]]] | None = None
    rates: list[float] | None = None

    @model_validator(mode="after")
    def _coherent(self) -> "ChannelSpec":
        custom = self.jumps is not None or self.rates is not None
        if (self.named is None) == (not custom):
            raise ValueError("give exactly one of 'named' or 'jumps'+'rates'")
        if custom:
            if self.jumps is None or self.rates is None:
                raise ValueError("custom channels need both 'jumps' and 'rates'")
            if len(self.jumps) != len(self.rates) or len(self.jumps) == 0:
                raise ValueError("'jumps' and 'rates' must have equal nonzero length")
            if any(r < 0.0 for r in self.rates):
                raise ValueError("rates must be >= 0")
            stray = [n for n in ("gamma", "rate", "gamma0", "lam")
                     if getattr(self, n) is not None]
            if stray:
                raise ValueError(f"custom channel does not take {stray}")
            return self
        wanted = {"amplitude_damping": ("gamma",), "sodium": ("rate",),
                  "nonmarkov_jc": ("gamma0", "lam")}[self.named]
        for n in wanted:
            if getattr(self, n) is None:
                raise ValueError(f"channel '{self.named}' requires '{n}'")
        stray = [n for n in ("gamma", "rate", "gamma0", "lam")
                 if n not in wanted and getattr(self, n) is not None]
        if stray:
            raise ValueError(f"channel '{self.named}' does not take {stray}")
        return self


class SweepSpec(_StrictModel):
    """Grid of dissipation times tau (the CSV abscissa is rate * tau)."""

    start: float = Field(ge=0.0)
    stop: float
    count: int = Field(ge=1)
    spacing: Literal["linear", "log"] = "linear"

    @model_validator(mode="after")
    def _ordered(self) -> "SweepSpec":
        if self.stop < self.start:
            raise ValueError("stop must be >= start")
        if self.count > 1 and self.stop == self.start:
            raise ValueError("count > 1 needs stop > start")
        if self.spacing == "log" and self.start <= 0.0:
            raise ValueError("log spacing needs start > 0")
        return self


class MeterSpec(_StrictModel):
    omega_f: float = Field(gt=0.0)
    n_max: int = Field(default=20, ge=1)
    state: Literal["vacuum", "number", "thermal"] = "vacuum"
    n: float = Field(default=0.0, ge=0.0)
    g: float
    t: float
    Delta: float = 0.0
    model: Literal["rabi", "jc"] = "rabi"
    hbar: float = Field(default=1.0, gt=0.0)


class InvertSpec(_StrictModel):
    Q_f: float
    P_f: float
    tau: float = Field(ge=0.0)


class OutputSpec(_StrictModel):
    out_dir: str = "."
    format: Literal["csv", "json"] = "csv"


class RunConfig(_StrictModel):
    version: Literal[1]
    system: SystemSpec | None = None
    observable: ObservableSpec | None = None
    channel: ChannelSpec | None = None
    sweep: SweepSpec | None = None
    meter: MeterSpec | None = None
    invert: InvertSpec | None = None
    output: OutputSpec | None = None


def load_config(path: str) -> RunConfig:
    """Parse and validate a config file; all failures become ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    try:
        return RunConfig.model_validate(raw)
    except ValidationError as exc:
        lines = [f"config {path} failed validation:"]
        for err in exc.errors():
            loc = ".".join(str(p) for p in err["loc"]) or "<root>"
            lines.append(f"  {loc}: {err['msg']}")
        raise ConfigError("\n".join(lines)) from exc


def require_sections(cfg: RunConfig, *names: str) -> None:
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise ConfigError(f"config is missing required section(s): {', '.join(missing)}")


def _pairs_to_vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _pairs_to_matrix(rows, what: str) -> np.ndarray:
    try:
        mat = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: entries must be [re, im] pairs") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"{what}: must be a square matrix, got shape {mat.shape}")
    return mat


def _build_state(spec: StateSpec, dim: int, what: str) -> np.ndarray:
    if spec.bloch is not None:
        if dim != 2:
            raise ConfigError(f"{what}: Bloch vectors describe two-level systems, "
                              f"but dimension is {dim}")
        try:
            return bloch_to_density(spec.bloch)
        except WeaklindError as exc:
            raise ConfigError(f"{what}: {exc}") from exc
    if len(spec.amplitudes) != dim:
        raise ConfigError(f"{what}: {len(spec.amplitudes)} amplitudes for dimension {dim}")
    try:
        return pure_density(_pairs_to_vector(spec.amplitudes))
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def build_states(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Densities (sigma_i, sigma_fI) from the system section."""
    sysspec = cfg.system
    return (_build_state(sysspec.pre, sysspec.dimension, "system.pre"),
            _build_state(sysspec.post, sysspec.dimension, "system.post"))


def build_observable(cfg: RunConfig) -> np.ndarray:
    spec = cfg.observable
    dim = cfg.system.dimension
    if spec.named is not None:
        if spec.named == "jy6":
            if dim != 6:
                raise ConfigError(f"observable 'jy6' needs dimension 6, got {dim}")
            return jy_six_level()
        if spec.named == "identity":
            return np.eye(dim, dtype=complex)
        if dim != 2:
            raise ConfigError(f"observable '{spec.named}' needs dimension 2, got {dim}")
        if spec.named == "sigma_plus":
            return SIGMA_PLUS.copy()
        if spec.named == "sigma_minus":
            return SIGMA_MINUS.copy()
        return pauli(spec.named.split("_")[1])
    if spec.matrix is not None:
        mat = _pairs_to_matrix(spec.matrix, "observable.matrix")
        if mat.shape != (dim, dim):
            raise ConfigError(
                f"observable.matrix shape {mat.shape} does not match dimension {dim}")
        return mat
    combo = spec.pauli
    if dim != 2:
        raise ConfigError(f"observable.pauli needs dimension 2, got {dim}")
    m = _pairs_to_vector(combo.m)
    return (combo.a * np.eye(2, dtype=complex)
            + combo.b * (m[0] * pauli("x") + m[1] * pauli("y") + m[2] * pauli("z")))


def build_channel(cfg: RunConfig) -> tuple[Dissipator, float]:
    """Dissipator plus its characteristic rate (the CSV abscissa scale).

    The characteristic rate is gamma for amplitude damping, the common rate
    for the six-level pumping channels, gamma0 for the memory kernel, and
    the first listed rate for custom channels.
    """
    spec = cfg.channel
    dim = cfg.system.dimension
    if spec.named == "amplitude_damping":
        if dim != 2:
            raise ConfigError(f"channel 'amplitude_damping' needs dimension 2, got {dim}")
        d = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=spec.gamma)], 2)
        return d, spec.gamma
    if spec.named == "sodium":
        if dim != 6:
            raise ConfigError(f"channel 'sodium' needs dimension 6, got {dim}")
        channels = [DissipationChannel(jump=L, rate=spec.rate)
                    for L, _ in sodium_jump_operators()]
        return build_dissipator(channels, 6), spec.rate
    if spec.named == "nonmarkov_jc":
        if dim != 2:
            raise ConfigError(f"channel 'nonmarkov_jc' needs dimension 2, got {dim}")
        rate = NonMarkovJC(gamma0=spec.gamma0, lam=spec.lam)
        d = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=rate)], 2)
        return d, spec.gamma0
    channels = []
    for k, (rows, r) in enumerate(zip(spec.jumps, spec.rates)):
        jump = _pairs_to_matrix(rows, f"channel.jumps[{k}]")
        if jump.shape != (dim, dim):
            raise ConfigError(
                f"channel.jumps[{k}] shape {jump.shape} does not match dimension {dim}")
        channels.append(DissipationChannel(jump=jump, rate=r))
    try:
        return build_dissipator(channels, dim), spec.rates[0]
    except WeaklindError as exc:
        raise ConfigError(str(exc)) from exc


def build_tau_grid(cfg: RunConfig) -> np.ndarray:
    """The sweep's tau grid, refused when float spacing leaves it not strictly
    increasing (a span of a few ulps, or count beyond the representable steps)."""
    spec = cfg.sweep
    if spec.count == 1:
        return np.array([spec.start])
    if spec.spacing == "log":
        grid = np.geomspace(spec.start, spec.stop, spec.count)
    else:
        grid = np.linspace(spec.start, spec.stop, spec.count)
    if np.any(np.diff(grid) <= 0.0):
        raise ConfigError(f"sweep: {spec.count} points between {spec.start!r} and "
                          f"{spec.stop!r} do not form a strictly increasing grid")
    return grid


def build_meter_state(cfg: RunConfig) -> MeterState:
    spec = cfg.meter
    if spec.state == "vacuum":
        return MeterState.vacuum()
    if spec.state == "number":
        if spec.n != int(spec.n):
            raise ConfigError(f"meter.n must be an integer level, got {spec.n}")
        if int(spec.n) > spec.n_max:
            raise ConfigError(f"meter level {int(spec.n)} exceeds n_max {spec.n_max}")
        return MeterState.number(int(spec.n))
    return MeterState.thermal(spec.n)


__all__ = [
    "StateSpec",
    "SystemSpec",
    "PauliCombo",
    "ObservableSpec",
    "ChannelSpec",
    "SweepSpec",
    "MeterSpec",
    "InvertSpec",
    "OutputSpec",
    "RunConfig",
    "load_config",
    "require_sections",
    "build_states",
    "build_observable",
    "build_channel",
    "build_tau_grid",
    "build_meter_state",
    "NAMED_OBSERVABLES",
    "NAMED_CHANNELS",
]
