"""Run configuration: a versioned, strictly validated JSON document.

The schema is deliberately rigid so that a config file pins a run
bit-for-bit: a required `version` that is the JSON integer 1, complex
numbers always spelled as [re, im] pairs, and all defaults explicit here
rather than scattered through the commands.

Each section is a frozen dataclass whose fields carry their check in their
metadata, and one walk (_walk) goes over the parsed JSON and fields(cls):
each field is checked in order, then unknown keys are refused, and the
section is built by its own __init__, whose __post_init__ holds its
cross-field rule. The types are strict: a float field takes a JSON number
and holds a Python float (10 becomes 10.0), an integer field takes only a
JSON integer, and a string or a boolean is never a number. Pairs and
vectors are tuples of their fixed length, lists are lists. Refused, each
with its field path: unknown fields, non-finite numbers (NaN, Infinity, an
integer past the float range), a value outside its Literal or bound, and a
section that breaks its cross-field rule (exactly one state form, exactly
one observable form, a coherent channel, an ordered sweep). Each field that
sizes an allocation is bounded: sweep.count is at most COUNT_MAX = 10**6 and
system.dimension at most DIMENSION_MAX = 32 (the Lindblad generator is
d^2 x d^2). A sweep holds count x (operands + output columns) numbers and a
few d^2 x d^2 matrices, since the eigen rows go in bounded blocks; too little
memory exits 2 from the CLI. meter.n_max (at most N_MAX_MAX = 1000) sizes
nothing, since the readout forms need only the mean occupation; it bounds a
number meter's level. Every failure becomes one `loc: msg` line of a single
ConfigError; a file that cannot be read or parsed is a ConfigError too.

Sections are optional at the schema level; each CLI command states which
ones it needs (weak-value: system/observable/channel/sweep; shifts: those
plus meter, where a jc meter checks the observable and then sweeps sigma_+
and sigma_- in its place; invert: meter plus invert).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ConfigError, WeaklindError
from .lindblad import NAMED_CHANNELS, Dissipator, NonMarkovJC, named_channel
from .operators import SIGMA_MINUS, SIGMA_PLUS, bloch_to_density, jy_six_level, pauli, pure_density

ComplexPair = tuple[float, float]

COUNT_MAX = 10**6
DIMENSION_MAX = 32
N_MAX_MAX = 1000

# name -> (the dimension the observable needs, None for any; its matrix at dimension d)
NAMED_OBSERVABLES = {
    "jy6": (6, lambda d: jy_six_level()),
    "sigma_x": (2, lambda d: pauli("x")),
    "sigma_y": (2, lambda d: pauli("y")),
    "sigma_z": (2, lambda d: pauli("z")),
    "sigma_plus": (2, lambda d: SIGMA_PLUS.copy()),
    "sigma_minus": (2, lambda d: SIGMA_MINUS.copy()),
    "identity": (None, lambda d: np.eye(d, dtype=complex)),
}
# every named channel's rate fields, in table order
_RATE_FIELDS = tuple(n for names, _ in NAMED_CHANNELS.values() for n in names)

# A check is called as check(value, loc, errors): it returns the parsed value,
# or records (loc, msg) in errors and returns _BAD. A loc is the value's path,
# a tuple of keys, () at the root.
_BAD = object()


def _fail(errors: list, loc: tuple, msg: str) -> object:
    errors.append((loc, msg))
    return _BAD


def _number(kind: type, ge=None, gt=None, le=None):
    """A float (any JSON number, held as float) or an int (JSON integers only)."""
    wrong = f"Input should be a valid {'integer' if kind is int else 'number'}"

    def check(v, loc, errors):
        if type(v) is float:
            if not math.isfinite(v):
                return _fail(errors, loc, "Input should be a finite number")
            if kind is int:
                return _fail(errors, loc, wrong)
        elif type(v) is int and kind is float:
            try:
                v = float(v)
            except OverflowError:
                return _fail(errors, loc, "Input should be a finite number")
        elif type(v) is not kind:  # type(True) is bool, not int
            return _fail(errors, loc, wrong)
        if ge is not None and v < ge:
            return _fail(errors, loc, f"Input should be greater than or equal to {ge}")
        if gt is not None and v <= gt:
            return _fail(errors, loc, f"Input should be greater than {gt}")
        if le is not None and v > le:
            return _fail(errors, loc, f"Input should be less than or equal to {le}")
        return v
    return check


def _one_of(*values):
    """A Literal: one of `values`, of the same type (true and 1.0 are not 1)."""
    names = [repr(v) for v in values]
    msg = "Input should be " + " or ".join(filter(None, (", ".join(names[:-1]), names[-1])))
    types = {type(v) for v in values}

    def check(v, loc, errors):
        return v if type(v) in types and v in values else _fail(errors, loc, msg)
    return check


def _string(v, loc, errors):
    return v if type(v) is str else _fail(errors, loc, "Input should be a valid string")


_FLOAT = _number(float)


def _array(item, length: int | None = None):
    """A JSON array of `item`s: a list, or with `length` a tuple of exactly that many."""
    wrong = f"Input should be a valid {'list' if length is None else 'tuple'}"

    def check(v, loc, errors):
        if type(v) is not list:
            return _fail(errors, loc, wrong)
        if length is not None and len(v) > length:
            return _fail(errors, loc, f"Tuple should have at most {length} items "
                                      f"after validation, not {len(v)}")
        n = len(errors)
        out = [item(x, loc + (k,), errors) for k, x in enumerate(v)]
        for k in range(len(v), length or 0):
            _fail(errors, loc + (k,), "Field required")
        if len(errors) > n:
            return _BAD
        return out if length is None else tuple(out)
    return check


def _field(check, default=MISSING):
    """A section field; a default of None also admits JSON null."""
    return field(default=default, metadata={"check": check})


_section = dataclass(frozen=True, kw_only=True)


def _walk(cls, raw, loc, errors):
    """Check a JSON object against a section: its fields in order, then unknown
    keys, then (only when every field passed) build it with cls(**values); the
    ValueError of its __post_init__ rule is reported at the section's path."""
    if type(raw) is not dict:
        return _fail(errors, loc, "Input should be a valid dictionary")
    n = len(errors)
    values = {}
    for f in fields(cls):
        if f.name in raw:
            v = raw[f.name]
            values[f.name] = (v if v is None and f.default is None
                              else f.metadata["check"](v, loc + (f.name,), errors))
        elif f.default is MISSING:
            _fail(errors, loc + (f.name,), "Field required")
    for key in raw:
        if key not in values:
            _fail(errors, loc + (key,), "Extra inputs are not permitted")
    if len(errors) > n:
        return _BAD
    try:
        return cls(**values)
    except ValueError as exc:
        return _fail(errors, loc, f"Value error, {exc}")


def _sub(cls):
    return functools.partial(_walk, cls)


_NONNEG = _number(float, ge=0)
_POSITIVE = _number(float, gt=0)
_PAIR = _array(_FLOAT, 2)
_PAIRS = _array(_PAIR)


@_section
class StateSpec:
    """A pure state, as complex amplitudes or (two-level) a Bloch vector."""

    amplitudes: list[ComplexPair] | None = _field(_PAIRS, None)
    bloch: tuple[float, float, float] | None = _field(_array(_FLOAT, 3), None)

    def __post_init__(self) -> None:
        if (self.amplitudes is None) == (self.bloch is None):
            raise ValueError("give exactly one of 'amplitudes' or 'bloch'")


@_section
class SystemSpec:
    dimension: int = _field(_number(int, ge=2, le=DIMENSION_MAX))
    pre: StateSpec = _field(_sub(StateSpec))
    post: StateSpec = _field(_sub(StateSpec))


@_section
class PauliCombo:
    """Observable a*identity + b*(m . pauli_vector), m complex."""

    a: float = _field(_FLOAT, 0.0)
    b: float = _field(_FLOAT, 1.0)
    m: tuple[ComplexPair, ComplexPair, ComplexPair] = _field(_array(_PAIR, 3))


@_section
class ObservableSpec:
    named: str | None = _field(_one_of(*NAMED_OBSERVABLES), None)
    matrix: list[list[ComplexPair]] | None = _field(_array(_PAIRS), None)
    pauli: PauliCombo | None = _field(_sub(PauliCombo), None)

    def __post_init__(self) -> None:
        given = sum(x is not None for x in (self.named, self.matrix, self.pauli))
        if given != 1:
            raise ValueError("give exactly one of 'named', 'matrix' or 'pauli'")


@_section
class ChannelSpec:
    named: str | None = _field(_one_of(*NAMED_CHANNELS), None)
    gamma: float | None = _field(_NONNEG, None)
    rate: float | None = _field(_NONNEG, None)
    gamma0: float | None = _field(_POSITIVE, None)
    lam: float | None = _field(_POSITIVE, None)
    jumps: list[list[list[ComplexPair]]] | None = _field(_array(_array(_PAIRS)), None)
    rates: list[float] | None = _field(_array(_FLOAT), None)

    def __post_init__(self) -> None:
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
            wanted, kind = (), "custom channel"
        else:
            wanted, kind = NAMED_CHANNELS[self.named][0], f"channel '{self.named}'"
        for n in wanted:
            if getattr(self, n) is None:
                raise ValueError(f"{kind} requires '{n}'")
        stray = [n for n in _RATE_FIELDS if n not in wanted and getattr(self, n) is not None]
        if stray:
            raise ValueError(f"{kind} does not take {stray}")


@_section
class SweepSpec:
    """Grid of dissipation times tau (the CSV abscissa is rate * tau)."""

    start: float = _field(_NONNEG)
    stop: float = _field(_FLOAT)
    count: int = _field(_number(int, ge=1, le=COUNT_MAX))
    spacing: str = _field(_one_of("linear", "log"), "linear")

    def __post_init__(self) -> None:
        if self.stop < self.start:
            raise ValueError("stop must be >= start")
        if self.count > 1 and self.stop == self.start:
            raise ValueError("count > 1 needs stop > start")
        if self.spacing == "log" and self.start <= 0.0:
            raise ValueError("log spacing needs start > 0")


@_section
class MeterSpec:
    omega_f: float = _field(_POSITIVE)
    n_max: int = _field(_number(int, ge=1, le=N_MAX_MAX), 20)
    state: str = _field(_one_of("vacuum", "number", "thermal"), "vacuum")
    n: float = _field(_NONNEG, 0.0)
    g: float = _field(_FLOAT)
    t: float = _field(_FLOAT)
    Delta: float = _field(_FLOAT, 0.0)
    model: str = _field(_one_of("rabi", "jc"), "rabi")
    hbar: float = _field(_POSITIVE, 1.0)

    def __post_init__(self) -> None:
        if self.state == "vacuum" and self.n != 0.0:
            raise ValueError(f"meter state 'vacuum' does not take n = {self.n:g}")


@_section
class InvertSpec:
    Q_f: float = _field(_FLOAT)
    P_f: float = _field(_FLOAT)
    tau: float = _field(_NONNEG)


@_section
class OutputSpec:
    out_dir: str = _field(_string, ".")
    format: str = _field(_one_of("csv", "json"), "csv")


@_section
class RunConfig:
    version: int = _field(_one_of(1))
    system: SystemSpec | None = _field(_sub(SystemSpec), None)
    observable: ObservableSpec | None = _field(_sub(ObservableSpec), None)
    channel: ChannelSpec | None = _field(_sub(ChannelSpec), None)
    sweep: SweepSpec | None = _field(_sub(SweepSpec), None)
    meter: MeterSpec | None = _field(_sub(MeterSpec), None)
    invert: InvertSpec | None = _field(_sub(InvertSpec), None)
    output: OutputSpec | None = _field(_sub(OutputSpec), None)


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
    except (ValueError, RecursionError) as exc:  # not UTF-8, too deep, too many digits
        raise ConfigError(f"config {path} cannot be parsed: {exc}") from exc
    errors: list = []
    cfg = _walk(RunConfig, raw, (), errors)
    if errors:
        lines = [f"config {path} failed validation:"]
        lines += [f"  {'.'.join(map(str, loc)) or '<root>'}: {msg}" for loc, msg in errors]
        raise ConfigError("\n".join(lines))
    return cfg


def require_sections(cfg: RunConfig, *names: str) -> None:
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise ConfigError(f"config is missing required section(s): {', '.join(missing)}")


def _pairs_to_vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _pairs_to_matrix(rows, what: str, dim: int) -> np.ndarray:
    """The dim x dim matrix of rows of [re, im] pairs, or a ConfigError naming what."""
    lengths = [len(row) for row in rows]
    if len(set(lengths)) > 1:
        raise ConfigError(f"{what}: must be a square matrix, got rows of lengths {lengths}")
    mat = np.array([[complex(re, im) for re, im in row] for row in rows])
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"{what}: must be a square matrix, got shape {mat.shape}")
    if mat.shape != (dim, dim):
        raise ConfigError(f"{what} shape {mat.shape} does not match dimension {dim}")
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
        need, matrix = NAMED_OBSERVABLES[spec.named]
        if need not in (None, dim):
            raise ConfigError(f"observable '{spec.named}' needs dimension {need}, got {dim}")
        return matrix(dim)
    if spec.matrix is not None:
        return _bounded(_pairs_to_matrix(spec.matrix, "observable.matrix", dim),
                        "observable.matrix")
    combo = spec.pauli
    if dim != 2:
        raise ConfigError(f"observable.pauli needs dimension 2, got {dim}")
    m = _pairs_to_vector(combo.m)
    with np.errstate(over="ignore", invalid="ignore"):
        A = (combo.a * np.eye(2, dtype=complex)
             + combo.b * (m[0] * pauli("x") + m[1] * pauli("y") + m[2] * pauli("z")))
    return _bounded(A, "observable.pauli")


def _bounded(A: np.ndarray, what: str) -> np.ndarray:
    """A, refused unless sum |A_jk| is finite. That sum bounds every entry of
    A sigma for a density sigma, and every post-selected trace of it, so the
    observable cannot make A sigma_i overflow at any tau."""
    with np.errstate(over="ignore", invalid="ignore"):
        size = float(np.abs(A).sum())
    if not math.isfinite(size):
        raise ConfigError(f"{what}: the entries are too large: sum |A_jk| overflows")
    return A


def build_channel(cfg: RunConfig) -> tuple[Dissipator | NonMarkovJC, float]:
    """The dissipator plus its characteristic rate (the CSV abscissa scale):
    lindblad.named_channel's for a named channel, the first listed rate for
    custom channels."""
    spec = cfg.channel
    dim = cfg.system.dimension
    if spec.named is not None:
        names, need = NAMED_CHANNELS[spec.named]
        if dim != need:
            raise ConfigError(f"channel '{spec.named}' needs dimension {need}, got {dim}")
        return named_channel(spec.named, {n: getattr(spec, n) for n in names})
    jumps = [_pairs_to_matrix(rows, f"channel.jumps[{k}]", dim)
             for k, rows in enumerate(spec.jumps)]
    return Dissipator(jumps, spec.rates), spec.rates[0]


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


def build_occupation(cfg: RunConfig) -> float:
    """The meter's mean occupation: 0.0 for the vacuum (also for n = -0.0),
    the level for a number state, n for a thermal meter."""
    spec = cfg.meter
    if spec.state == "vacuum":
        return 0.0
    if spec.state == "number":
        if spec.n != int(spec.n):
            raise ConfigError(f"meter.n must be an integer level, got {spec.n}")
        if int(spec.n) > spec.n_max:
            raise ConfigError(f"meter level {int(spec.n)} exceeds n_max {spec.n_max}")
        return float(int(spec.n))
    return spec.n

