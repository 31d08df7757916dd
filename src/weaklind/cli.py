"""Command-line front end: config-driven sweeps with deterministic output.

Subcommands: weak-value (trace of the dissipative weak value over a tau
grid), scenario <name> (packaged experiments), shifts (meter quadrature
readout along the sweep), invert (weak value back from measured shifts, by
the algebraic inverse of the same closed forms, meter.invert_weak_value).
Each command sweeps its grid once through weakvalue.trace_over_tau (jc
shifts stack sigma+ and sigma- into one observable over one denominator).
shifts reads the meter out on the whole grid at once (rabi_shift_columns /
jc_shift_columns of meter). One writer, _g17_text, formats every CSV table,
JSON float array and JSON rows table: one % operation when small, numpy with
the same bytes from _G17_MIN_CELLS cells on. The commands compute and write
nothing; main makes the output directory and writes the files only once the
command has succeeded, and maps each failure to its exit code. A refused run
therefore writes no file and makes no directory, unless the writing itself
fails.

Determinism contract: identical config and package version produce
byte-identical files. Every float is serialized with 17 significant digits
(%.17g, locale-independent), JSON keys are sorted, CSV rows follow the grid
order, and files are written atomically (temp file + rename). JSON writes
non-finite floats (the NaN of a gap) as the tokens NaN, Infinity and
-Infinity, which Python's json reads back. Exit codes: 0 success, 2 config
error, unknown scenario, numerical failure (NoConvergence, including
non-finite meter shifts or a non-finite inverted weak value), an output
directory that cannot be created (such as one under a regular file), an
output file that cannot be written (such as one whose path is a directory),
a run too large for the memory left (one `error: not enough memory:` line)
or any other library error, 3 post-selection vanished on the whole grid, 4
scenario assertion failure, 5 singular inversion (g t = 0, or a jc meter
with n > 0, whose two shifts mix the raising and lowering weak values).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import random
import sys
import warnings

import numpy as np

from .config import (
    OutputSpec,
    RunConfig,
    build_channel,
    build_observable,
    build_occupation,
    build_states,
    build_tau_grid,
    load_config,
    require_sections,
)
from .errors import (
    ConfigError,
    NoConvergence,
    PostselectionVanishes,
    ScenarioAssertionError,
    SingularInversion,
    WeaklindError,
)
from .meter import (
    invert_weak_value,
    jc_shift_columns,
    jc_shifts,  # noqa: F401  (bench/tracing.py patches it here)
    rabi_shift_columns,
    rabi_shifts_number_state,  # noqa: F401  (bench/tracing.py patches it here)
)
from .operators import SIGMA_MINUS, SIGMA_PLUS
from .scenarios import SCENARIOS, SHORT_TIME_CHANNELS, run_scenario
from .weakvalue import (
    WeakMeasurementSetup,
    WeakValueTrace,
    trace_over_tau,
    weak_value_dissipative,  # noqa: F401  (bench/tracing.py patches it here)
)

CSV_HEADER = "gamma_tau,re_wv,im_wv,postselect_prob"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_POSTSELECTION = 3
EXIT_SCENARIO_ASSERTION = 4
EXIT_SINGULAR_INVERSION = 5


# _g17_cells writes each cell into a row of _G17_WIDTH bytes, NUL where
# nothing is printed:
#   column 0        the sign
#   columns 1-5     "0." and up to three zeros of 0.000ddd (-4 <= X <= -1)
#   column 6 + 2j   digit j of the 17
#   column 7 + 2j   the point, where it follows digit j
#   columns 39-42   "e-05" or "e-06" (X = -5, -6)
# with X the decimal exponent of the printed value.
_G17_MIN_CELLS = 400
_G17_BLOCK = 4096
_G17_WIDTH = 43
# 10**k for k = 0..22, each an exact double
_POW10 = np.array([1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
                   1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22])


def _byte_table(rows, width: int, dtype) -> np.ndarray:
    """One item of dtype per row of bytes, NUL-padded to width bytes."""
    return np.frombuffer(b"".join(r.ljust(width, b"\0") for r in rows), dtype)


# for X = -6..16: columns 0-7, the digit after which the point falls (17:
# none) and columns 39-42
_LEAD = _byte_table([b"\0" + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")
                     for x in range(-6, 17)], 8, np.uint64)
_POINT_AFTER = np.array([0, 0, 17, 17, 17, 17] + list(range(17)))
_EXPONENT = _byte_table([b"e-0%d" % -x if x < -4 else b"" for x in range(-6, 17)], 4,
                        np.uint32)
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


@functools.cache
def _quad_text() -> np.ndarray:
    """The four digits of q = 0..9999 at every other byte of a uint64."""
    q = np.arange(10000, dtype=np.uint16)
    text = np.zeros((10000, 8), np.uint8)
    for col, unit in enumerate((1000, 100, 10, 1)):
        text[:, 2 * col] = q // unit % 10 + ord("0")
    return text.view(np.uint64).ravel()


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p the rounded a*b and p + e = a*b exactly: Dekker's product
    with Veltkamp's split by 2**27 + 1, exact while nothing overflows or
    underflows. e = ((ah*bh - p) + ah*bl + al*bh) + al*bl, summed in place."""
    p = a * b
    ah = a * 134217729.0
    ah -= ah - a
    al = a - ah
    bh = b * 134217729.0
    bh -= bh - b
    bl = b - bh
    e = ah * bh
    e -= p
    ah *= bl
    e += ah
    bh *= al
    e += bh
    al *= bl
    e += al
    return p, e


def _digits17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, X) such that v, with 1e-6 < v < 1e17, rounded to 17 significant
    digits is D * 10**(X - 16), 10**16 <= D < 10**17.

    v * 10**k = p + e exactly, where k = 16 - X puts p + e in [1e16, 1e17).
    floor(log10 v) can be one off next to a power of ten; one step mends it,
    and the signs of (p - 1e16) + e and (p - 1e17) + e are exact. p + e is
    rounded to an integer with ties to even, as CPython's dtoa rounds them;
    p >= 1e16 > 2**53 is an even integer, so rint(e) decides. No double below
    10**(X+1) lies close enough to it to round up to 10**17, so X stands.
    """
    k = np.clip(16 - np.floor(np.log10(v)).astype(np.intp), 0, 22)
    p, e = _two_product(v, np.take(_POW10, k))
    low = (p - 1e16) + e < 0
    moved = np.flatnonzero(low | ((p - 1e17) + e >= 0))
    if len(moved):
        k[moved] += np.where(low[moved], 1, -1)
        p[moved], e[moved] = _two_product(v[moved], np.take(_POW10, k[moved]))
    return p.astype(np.int64) + np.rint(e).astype(np.int64), 16 - k


def _g17_cells(x: np.ndarray, cells: np.ndarray) -> None:
    """Write '%.17g' % x[i] into row i of cells, a NUL-filled uint8 matrix at
    least _G17_WIDTH wide, in the layout above.

    Cells with 1e-6 < |x| < 1e17 are computed exactly in numpy (_digits17).
    (The double nearest 1e-6 lies below 10**-6 and prints as 9.9...e-07.)
    Every other cell (zeros, subnormals, NaN, infinities, the rest) is
    '%.17g' % x itself.
    """
    v = np.abs(x)
    fast = (v > 1e-6) & (v < 1e17)
    v[~fast] = 1.0
    digits, X = _digits17(v)
    first = digits // 10**16
    rest = digits - first * 10**16
    high = rest // 10**8
    row = X + 6
    cells[:, :8].view(np.uint64)[:, 0] = np.take(_LEAD, row)
    cells[:, 0] = (x < 0) * np.uint8(ord("-"))
    cells[:, 6] = first + ord("0")
    # digits 1-16 in four groups of four, one uint64 of columns 8-39 each
    quad_text = _quad_text()
    quads = cells[:, 8:40].view(np.uint64)
    for i, part in enumerate((high, rest - high * 10**8)):
        top = part // 10**4
        quads[:, 2 * i] = np.take(quad_text, top)
        quads[:, 2 * i + 1] = np.take(quad_text, part - top * 10**4)
    cells[:, 39:43].view(np.uint32)[:, 0] = np.take(_EXPONENT, row)
    # %g drops the zeros that trail the point, which only rows ending in 0 have
    significant = np.full(len(x), 17)
    short = np.flatnonzero((cells[:, 38] == ord("0")) & fast)
    if len(short):
        text = cells[short, 6:40:2]
        significant[short] = 17 - np.argmax(text[:, ::-1] != ord("0"), axis=1)
        text *= np.arange(17) < np.maximum(significant[short], X[short] + 1)[:, None]
        cells[short, 6:40:2] = text
    after = np.take(_POINT_AFTER, row)
    point = np.flatnonzero(significant > after + 1)
    cells[point, 7 + 2 * after[point]] = ord(".")
    # the other cells went through as 1.0 and become '%.17g' % x, padded to
    # 24 bytes (the most it writes) with NULs
    others = np.flatnonzero(~fast)
    if len(others):
        cells[others, :_G17_WIDTH] = 0
        text = ("%-24.17g" * len(others)) % tuple(x[others].tolist())
        cells[others, :24] = np.frombuffer(text.encode("ascii").translate(_SPACE_TO_NUL),
                                           np.uint8).reshape(-1, 24)


def _g17_text(table: np.ndarray, seps: list[str]) -> str:
    """Every cell of a float64 table as '%.17g' writes it, each followed by
    the separator of its column, row after row.

    Below _G17_MIN_CELLS cells, where the two break even, this is one % pass
    over a repeated row template; from there on the same bytes come from
    _g17_cells, about _G17_BLOCK cells at a time, which bounds the
    temporaries. There the separators are NUL-padded to one length and the
    NULs dropped with the rest.
    """
    rows, cols = table.shape
    if table.size < _G17_MIN_CELLS:
        return ("".join("%.17g" + sep for sep in seps) * rows) % tuple(table.ravel().tolist())
    width = max(map(len, seps))
    tail = np.frombuffer(b"".join(sep.encode().ljust(width, b"\0") for sep in seps),
                         np.uint8).reshape(cols, -1)
    step = max(1, _G17_BLOCK // cols)
    pieces = []
    for start in range(0, rows, step):
        block = table[start:start + step]
        raw = bytearray(block.size * (_G17_WIDTH + tail.shape[1]))
        cells = np.frombuffer(raw, np.uint8).reshape(len(block), cols, -1)
        cells[:, :, _G17_WIDTH:] = tail
        _g17_cells(block.ravel(), cells.reshape(block.size, -1))
        pieces.append(raw.translate(None, b"\0").decode("ascii"))
    return "".join(pieces)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _json_float(x: float) -> str:
    """_fmt for finite floats; json's NaN/Infinity/-Infinity tokens otherwise."""
    x = float(x)
    return _fmt(x) if math.isfinite(x) else json.dumps(x)


def _json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _json_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_json_float(obj.real)}, {_json_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {_json_text(v, indent + 1)}"
                 for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if (isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim in (1, 2)
            and obj.size):
        # a float array one cell per line, a table as the list of its rows, in
        # one _g17_text pass; %.17g writes the non-finite floats as
        # nan/inf/-inf, json as NaN/Infinity/-Infinity
        if obj.ndim == 1:
            sep = f",\n{inner}"
            text = f"[\n{inner}{_g17_text(obj[:, None], [sep])[:-len(sep)]}\n{pad}]"
        else:
            cell, row = f",\n{inner}  ", f"\n{inner}],\n{inner}[\n{inner}  "
            body = _g17_text(obj, [cell] * (obj.shape[1] - 1) + [row])[:-len(row)]
            text = f"[\n{inner}[\n{inner}  {body}\n{inner}]\n{pad}]"
        return text.replace("nan", "NaN").replace("inf", "Infinity")
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        parts = [f"{inner}{_json_text(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _atomic_write(path: str, text: str) -> None:
    """Write text to a new temporary file beside path, then rename it over path.

    The temporary file is created with mode 0o666, as open(path, "w") creates
    a file, so the output gets the permissions the umask leaves
    (tempfile.mkstemp would make it 0o600). Its name is random; a name that
    exists already is drawn again. An OSError on the way (path is a
    directory, the disk is full) removes the temporary file and becomes a
    ConfigError naming path.
    """
    directory = os.path.dirname(path) or "."
    try:
        while True:
            tmp = os.path.join(directory, f".tmp-{random.getrandbits(48):012x}")
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:
                continue
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _gamma_tau(char_rate: float, taus: np.ndarray) -> list[float]:
    """The gamma_tau column, rate times tau in Python floats: inf (not a numpy
    overflow warning) where the product leaves the float range."""
    return [char_rate * tau for tau in taus.tolist()]


def _csv_text(header: str, table: np.ndarray) -> str:
    """The header line, then one line per row of a float table with every
    cell as _fmt writes it."""
    return header + "\n" + _g17_text(table, [","] * (table.shape[1] - 1) + ["\n"])


def _trace_csv(trace: WeakValueTrace, char_rate: float) -> str:
    values = trace.values
    return _csv_text(CSV_HEADER, np.column_stack((
        _gamma_tau(char_rate, trace.tau_grid), values.real, values.imag,
        trace.postselection_probs)))


def _trace_json_obj(trace: WeakValueTrace, char_rate: float) -> dict:
    return {
        "columns": CSV_HEADER.split(","),
        "gamma_tau": np.array(_gamma_tau(char_rate, trace.tau_grid)),
        "re_wv": trace.values.real,
        "im_wv": trace.values.imag,
        "postselect_prob": trace.postselection_probs,
        "gaps": list(trace.gaps),
        "metadata": trace.metadata,
    }


def _write(out: str, files: list[tuple[str, str]]) -> list[str]:
    """Make the directory out, then write each (name, text) of files into it,
    in order, with _atomic_write; the paths written."""
    try:
        os.makedirs(out, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot create output directory {out!r}: {reason}")
    paths = [os.path.join(out, name) for name, _ in files]
    for path, (_, text) in zip(paths, files):
        _atomic_write(path, text)
    return paths


def _sweep(setup: WeakMeasurementSetup, d, taus: np.ndarray) -> WeakValueTrace:
    """trace_over_tau, refused when post-selection vanishes at every point."""
    trace = trace_over_tau(setup, d, taus)
    if not trace.kept.any():
        raise PostselectionVanishes("post-selection probability vanishes on the whole tau grid")
    return trace


# What a command returns, having written nothing: its files, (name, text) in
# the order main writes them, and the stdout text before and after the
# "wrote <paths>" that main prints once they are written.
CommandOutput = tuple[list[tuple[str, str]], str, str]


def cmd_weak_value(cfg: RunConfig, fmt: str) -> CommandOutput:
    require_sections(cfg, "system", "observable", "channel", "sweep")
    sigma_i, sigma_fI = build_states(cfg)
    A = build_observable(cfg)
    d, char_rate = build_channel(cfg)
    taus = build_tau_grid(cfg)
    trace = _sweep(WeakMeasurementSetup(sigma_i=sigma_i, sigma_fI=sigma_fI, A_SI=A), d, taus)
    if fmt == "json":
        file = ("weak_value.json", _json_text(_trace_json_obj(trace, char_rate)) + "\n")
    else:
        file = ("weak_value.csv", _trace_csv(trace, char_rate))
    return [file], "", f" ({len(taus)} points, {len(trace.gaps)} gap(s))"


def cmd_scenario(name: str, fmt: str, channel: str | None, seed: int | None) -> CommandOutput:
    if seed is not None and not (0 <= seed < 2**64):
        raise ConfigError("--seed must fit in an unsigned 64-bit integer")
    if channel is not None and name != "classify":
        raise ConfigError("--channel applies to the 'classify' scenario only")
    try:
        result = run_scenario(name, channel=channel, seed=seed)
    except (KeyError, ValueError) as exc:
        raise ConfigError(exc.args[0] if exc.args else exc) from exc
    char_rate = float(result.verdict["characteristic_rate"])
    doc = {"name": result.name, "verdict": result.verdict}
    files = []
    if fmt == "json":
        doc["trace"] = _trace_json_obj(result.trace, char_rate)
    else:
        files.append((f"{result.name}.csv", _trace_csv(result.trace, char_rate)))
    files.append((f"{result.name}.json", _json_text(doc) + "\n"))
    summary = result.verdict.get("verdict", "ok")
    return files, f"scenario {result.name}: {summary}; ", ""


def cmd_shifts(cfg: RunConfig, fmt: str) -> CommandOutput:
    require_sections(cfg, "system", "observable", "channel", "sweep", "meter")
    sigma_i, sigma_fI = build_states(cfg)
    A = build_observable(cfg)
    d, char_rate = build_channel(cfg)
    m = cfg.meter
    n = build_occupation(cfg)
    taus = build_tau_grid(cfg)
    if m.model == "jc":
        if cfg.system.dimension != 2:
            raise ConfigError("jc shifts require a two-level system")
        header = "gamma_tau,q_shift,p_shift,re_wv_plus,im_wv_plus,re_wv_minus,im_wv_minus"
        # one sweep for sigma+ and sigma-, which share the states and the denominator
        A = np.stack([SIGMA_PLUS, SIGMA_MINUS])
    else:
        header = "gamma_tau,q_shift,p_shift,re_wv,im_wv"
    trace = _sweep(WeakMeasurementSetup(sigma_i=sigma_i, sigma_fI=sigma_fI, A_SI=A), d, taus)
    keep = trace.kept
    if m.model == "jc":
        wvp, wvm = trace.values[keep].T.copy()
        Q, P = jc_shift_columns(n, wvp, wvm, m.g, m.t, taus[keep], m.omega_f, m.Delta,
                                hbar=m.hbar)
        cells = np.column_stack((Q, P, wvp.real, wvp.imag, wvm.real, wvm.imag))
    else:
        wv = trace.values[keep]
        Q, P = rabi_shift_columns(n, wv, m.g, m.t, taus[keep], m.omega_f, hbar=m.hbar)
        cells = np.column_stack((Q, P, wv.real, wv.imag))
    bad = ~np.isfinite(cells[:, :2]).all(axis=1)
    if bad.any():  # an infinite phase, or shifts past the float range
        tau = taus[keep][bad.argmax()].item()
        raise NoConvergence(f"the meter shifts are not finite at tau={tau}")
    table = np.full((len(taus), 1 + cells.shape[1]), np.nan)
    table[:, 0] = _gamma_tau(char_rate, taus)
    table[keep, 1:] = cells
    if fmt == "json":
        doc = {"columns": header.split(","), "rows": table, "model": m.model}
        file = ("shifts.json", _json_text(doc) + "\n")
    else:
        file = ("shifts.csv", _csv_text(header, table))
    return [file], "", f" ({len(taus)} points, {len(trace.gaps)} gap(s))"


def cmd_invert(cfg: RunConfig) -> CommandOutput:
    require_sections(cfg, "meter", "invert")
    m = cfg.meter
    inv = cfg.invert
    wv = invert_weak_value(build_occupation(cfg), inv.Q_f, inv.P_f, m.model, m.g, m.t,
                           inv.tau, m.omega_f, m.Delta, hbar=m.hbar)
    if not cmath.isfinite(wv):  # an infinite phase, or a scale 2 g t unit of 0 or inf
        raise NoConvergence(f"the inverted weak value is not finite at tau={inv.tau}")
    doc = {
        "Q_f": inv.Q_f,
        "P_f": inv.P_f,
        "tau": inv.tau,
        "g": m.g,
        "t": m.t,
        "omega_f": m.omega_f,
        "weak_value": wv,
    }
    return ([("invert.json", _json_text(doc) + "\n")],
            f"weak_value = {_fmt(wv.real)} + {_fmt(wv.imag)}j\n", "")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaklind",
        description="Weak values under dissipation: traces, scenarios, meter "
                    "shifts, and shift inversion.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, sweepy=True):
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", default=None, help="output directory (default '.')")
        if sweepy:
            p.add_argument("--format", choices=("csv", "json"), default=None,
                           help="trace output format (default csv)")

    p_wv = sub.add_parser("weak-value", help="weak-value trace over a tau grid")
    add_common(p_wv)

    p_sc = sub.add_parser("scenario", help="run a packaged experiment")
    p_sc.add_argument("name", help=" | ".join(SCENARIOS))
    p_sc.add_argument("--channel", choices=tuple(SHORT_TIME_CHANNELS),
                      default=None, help="generating channel for 'classify'")
    p_sc.add_argument("--seed", type=int, default=None,
                      help="inject seeded Gaussian noise (estimator demos only)")
    p_sc.add_argument("--out", default=None)
    p_sc.add_argument("--format", choices=("csv", "json"), default=None)

    p_sh = sub.add_parser("shifts", help="meter quadrature shifts along the sweep")
    add_common(p_sh)

    p_inv = sub.add_parser("invert", help="weak value from measured shifts")
    add_common(p_inv, sweepy=False)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # a library warning (the rotating-wave guard) is one plain stderr line
        warnings.showwarning = _print_warning
        try:
            cfg = None if args.command == "scenario" else load_config(args.config)
            # the flag, then the config's output section, then its defaults
            section = cfg.output if cfg is not None and cfg.output is not None else OutputSpec()
            fmt = vars(args).get("format") or section.format
            out = section.out_dir if args.out is None else args.out
            if args.command == "scenario":
                files, lead, tail = cmd_scenario(args.name, fmt, args.channel, args.seed)
            elif args.command == "weak-value":
                files, lead, tail = cmd_weak_value(cfg, fmt)
            elif args.command == "shifts":
                files, lead, tail = cmd_shifts(cfg, fmt)
            else:
                files, lead, tail = cmd_invert(cfg)
            paths = _write(out, files)
        except PostselectionVanishes as exc:
            print(exc, file=sys.stderr)
            return EXIT_NO_POSTSELECTION
        except ScenarioAssertionError as exc:
            print(f"scenario assertion failed: {exc}", file=sys.stderr)
            return EXIT_SCENARIO_ASSERTION
        except SingularInversion as exc:
            print(f"singular inversion: {exc}", file=sys.stderr)
            return EXIT_SINGULAR_INVERSION
        except WeaklindError as exc:
            # ConfigError, NoConvergence and any other library error
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except MemoryError as exc:  # a run within every config bound may still not fit
            print(f"error: not enough memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
            return EXIT_CONFIG
    print(f"{lead}wrote {', '.join(paths)}{tail}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
