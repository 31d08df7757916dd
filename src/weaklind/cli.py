"""Command-line front end: config-driven sweeps with deterministic output.

Subcommands: weak-value (trace of the dissipative weak value over a tau
grid), scenario <name> (packaged experiments), shifts (meter quadrature
readout along the sweep), invert (weak value back from measured shifts).
Sweeps run sequentially through weakvalue.trace_over_tau, one call per
observable on the grid.

Determinism contract: identical config and package version produce
byte-identical files. Every float is serialized with 17 significant digits
(%.17g, locale-independent), JSON keys are sorted, CSV rows follow the grid
order, and files are written atomically (temp file + rename). JSON writes
non-finite floats (the NaN of a gap) as the tokens NaN, Infinity and
-Infinity, which Python's json reads back. Exit codes: 0 success, 2 config
error, unknown scenario, numerical failure (NoConvergence, including
non-finite meter shifts) or any other library error, 3 post-selection
vanished on the whole grid, 4 scenario assertion failure, 5 singular
inversion.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .config import (
    RunConfig,
    build_channel,
    build_meter_state,
    build_observable,
    build_states,
    build_tau_grid,
    load_config,
    require_sections,
)
from .errors import (
    ConfigError,
    NoConvergence,
    ScenarioAssertionError,
    SingularInversion,
    WeaklindError,
)
from .meter import (
    baseline_averages,
    commutator_averages,
    invert_weak_value,
    jc_shifts,
    rabi_shifts_number_state,
)
from .operators import SIGMA_MINUS, SIGMA_PLUS, FockSpace
from .scenarios import run_scenario
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
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        parts = [f"{inner}{_json_text(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _gamma_tau(char_rate: float, taus: np.ndarray) -> list[float]:
    """The gamma_tau column, rate times tau in Python floats: inf (not a numpy
    overflow warning) where the product leaves the float range."""
    return [char_rate * tau for tau in taus.tolist()]


def _trace_csv(trace: WeakValueTrace, char_rate: float) -> str:
    lines = [CSV_HEADER]
    rows = zip(_gamma_tau(char_rate, trace.tau_grid), trace.values, trace.postselection_probs)
    lines += [",".join((_fmt(gt), _fmt(v.real), _fmt(v.imag), _fmt(p))) for gt, v, p in rows]
    return "\n".join(lines) + "\n"


def _trace_json_obj(trace: WeakValueTrace, char_rate: float) -> dict:
    return {
        "columns": CSV_HEADER.split(","),
        "gamma_tau": _gamma_tau(char_rate, trace.tau_grid),
        "re_wv": [v.real for v in trace.values],
        "im_wv": [v.imag for v in trace.values],
        "postselect_prob": list(trace.postselection_probs),
        "gaps": list(trace.gaps),
        "metadata": trace.metadata,
    }


def _resolve_out(cfg: RunConfig | None, out_flag: str | None) -> str:
    if out_flag is not None:
        out = out_flag
    elif cfg is not None and cfg.output is not None:
        out = cfg.output.out_dir
    else:
        out = "."
    os.makedirs(out, exist_ok=True)
    return out


def _resolve_format(cfg: RunConfig | None, fmt_flag: str | None) -> str:
    if fmt_flag is not None:
        return fmt_flag
    if cfg is not None and cfg.output is not None:
        return cfg.output.format
    return "csv"


def cmd_weak_value(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    require_sections(cfg, "system", "observable", "channel", "sweep")
    sigma_i, sigma_fI = build_states(cfg)
    A = build_observable(cfg)
    d, char_rate = build_channel(cfg)
    g = cfg.meter.g if cfg.meter is not None else 0.0
    t = cfg.meter.t if cfg.meter is not None else 0.0
    setup = WeakMeasurementSetup(sigma_i=sigma_i, sigma_fI=sigma_fI, A_SI=A, g=g, t=t)
    taus = build_tau_grid(cfg)
    trace = trace_over_tau(setup, d, taus)
    if len(trace.gaps) == len(taus):
        print("post-selection probability vanishes on the whole tau grid", file=sys.stderr)
        return EXIT_NO_POSTSELECTION
    if fmt == "json":
        path = os.path.join(out_dir, "weak_value.json")
        _atomic_write(path, _json_text(_trace_json_obj(trace, char_rate)) + "\n")
    else:
        path = os.path.join(out_dir, "weak_value.csv")
        _atomic_write(path, _trace_csv(trace, char_rate))
    print(f"wrote {path} ({len(taus)} points, {len(trace.gaps)} gap(s))")
    return EXIT_OK


def cmd_scenario(name: str, out_dir: str, fmt: str, channel: str | None,
                 seed: int | None) -> int:
    try:
        result = run_scenario(name, channel=channel, seed=seed)
    except (KeyError, ValueError) as exc:
        reason = exc.args[0] if exc.args else exc
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_CONFIG
    except ScenarioAssertionError as exc:
        print(f"scenario assertion failed: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ASSERTION
    char_rate = float(result.verdict.get("characteristic_rate", 1.0))
    doc = {"name": result.name, "verdict": result.verdict}
    paths = []
    if result.trace is not None:
        if fmt == "json":
            doc["trace"] = _trace_json_obj(result.trace, char_rate)
        else:
            csv_path = os.path.join(out_dir, f"{result.name}.csv")
            _atomic_write(csv_path, _trace_csv(result.trace, char_rate))
            paths.append(csv_path)
    json_path = os.path.join(out_dir, f"{result.name}.json")
    _atomic_write(json_path, _json_text(doc) + "\n")
    paths.append(json_path)
    summary = result.verdict.get("verdict", "ok")
    print(f"scenario {result.name}: {summary}; wrote {', '.join(paths)}")
    return EXIT_OK


def cmd_shifts(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    require_sections(cfg, "system", "observable", "channel", "sweep", "meter")
    sigma_i, sigma_fI = build_states(cfg)
    A = build_observable(cfg)
    d, char_rate = build_channel(cfg)
    m = cfg.meter
    mu0 = build_meter_state(cfg)
    taus = build_tau_grid(cfg)

    def setup(A_SI):
        return WeakMeasurementSetup(sigma_i=sigma_i, sigma_fI=sigma_fI, A_SI=A_SI,
                                    g=m.g, t=m.t)

    if m.model == "jc":
        if cfg.system.dimension != 2:
            raise ConfigError("jc shifts require a two-level system")
        if mu0.kind not in ("vacuum", "number", "thermal"):
            raise ConfigError("jc shifts need a vacuum/number/thermal meter")
        header = "gamma_tau,q_shift,p_shift,re_wv_plus,im_wv_plus,re_wv_minus,im_wv_minus"
        # sigma+ and sigma- share the denominator, so both traces have the same gaps
        traces = (trace_over_tau(setup(SIGMA_PLUS), d, taus),
                  trace_over_tau(setup(SIGMA_MINUS), d, taus))

        def shift(tau, wvp, wvm):
            rep = jc_shifts(wvp, wvm, mu0, m.g, m.t, tau, m.omega_f, m.Delta,
                            hbar=m.hbar)
            return (rep.Q_shift, rep.P_shift, wvp.real, wvp.imag, wvm.real, wvm.imag)
    else:
        header = "gamma_tau,q_shift,p_shift,re_wv,im_wv"
        occupation = mu0.mean_n()
        traces = (trace_over_tau(setup(A), d, taus),)

        def shift(tau, wv):
            rep = rabi_shifts_number_state(occupation, wv, m.g, m.t, tau,
                                           m.omega_f, hbar=m.hbar)
            return (rep.Q_shift, rep.P_shift, wv.real, wv.imag)

    gaps = set().union(*(tr.gaps for tr in traces))
    if len(gaps) == len(taus):
        print("post-selection probability vanishes on the whole tau grid", file=sys.stderr)
        return EXIT_NO_POSTSELECTION
    n_cols = len(header.split(",")) - 1
    table = []
    for k, (tau, gt) in enumerate(zip(taus.tolist(), _gamma_tau(char_rate, taus))):
        cells = (float("nan"),) * n_cols
        if k not in gaps:
            try:
                cells = shift(tau, *(tr.values[k] for tr in traces))
            except ValueError as exc:  # an infinite phase or a non-finite ShiftReport
                raise NoConvergence(f"the meter shifts are not finite at tau={tau}") from exc
        table.append([gt, *cells])
    if fmt == "json":
        path = os.path.join(out_dir, "shifts.json")
        doc = {"columns": header.split(","), "rows": table, "model": m.model}
        _atomic_write(path, _json_text(doc) + "\n")
    else:
        path = os.path.join(out_dir, "shifts.csv")
        lines = [header] + [",".join(map(_fmt, row)) for row in table]
        _atomic_write(path, "\n".join(lines) + "\n")
    print(f"wrote {path} ({len(taus)} points, {len(gaps)} gap(s))")
    return EXIT_OK


def cmd_invert(cfg: RunConfig, out_dir: str) -> int:
    require_sections(cfg, "meter", "invert")
    m = cfg.meter
    inv = cfg.invert
    space = FockSpace(n_max=m.n_max, omega_f=m.omega_f, hbar=m.hbar)
    mu0 = build_meter_state(cfg)
    averages = commutator_averages(space, mu0, m.t, inv.tau)
    baseline = baseline_averages(space, mu0, m.t, inv.tau)
    try:
        wv = invert_weak_value(inv.Q_f, inv.P_f, averages, baseline, m.g, m.t)
    except SingularInversion as exc:
        print(f"singular inversion: {exc}", file=sys.stderr)
        return EXIT_SINGULAR_INVERSION
    doc = {
        "Q_f": inv.Q_f,
        "P_f": inv.P_f,
        "tau": inv.tau,
        "g": m.g,
        "t": m.t,
        "omega_f": m.omega_f,
        "weak_value": wv,
    }
    path = os.path.join(out_dir, "invert.json")
    _atomic_write(path, _json_text(doc) + "\n")
    print(f"weak_value = {_fmt(wv.real)} + {_fmt(wv.imag)}j")
    print(f"wrote {path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaklind",
        description="Weak values under dissipation: traces, scenarios, meter "
                    "shifts, and shift inversion.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True, sweepy=True):
        if config_required:
            p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", default=None, help="output directory (default '.')")
        if sweepy:
            p.add_argument("--format", choices=("csv", "json"), default=None,
                           help="trace output format (default csv)")

    p_wv = sub.add_parser("weak-value", help="weak-value trace over a tau grid")
    add_common(p_wv)

    p_sc = sub.add_parser("scenario", help="run a packaged experiment")
    p_sc.add_argument("name", help="sodium-anomalous | sodium-constant | "
                                   "estimate-gamma | classify | estimate-lambda")
    p_sc.add_argument("--channel", choices=("amplitude_damping", "nonmarkov_jc"),
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "scenario":
            if args.seed is not None and not (0 <= args.seed < 2**64):
                print("error: --seed must fit in an unsigned 64-bit integer",
                      file=sys.stderr)
                return EXIT_CONFIG
            if args.channel is not None and args.name != "classify":
                print("error: --channel applies to the 'classify' scenario only",
                      file=sys.stderr)
                return EXIT_CONFIG
            out_dir = _resolve_out(None, args.out)
            fmt = _resolve_format(None, args.format)
            return cmd_scenario(args.name, out_dir, fmt, args.channel, args.seed)
        cfg = load_config(args.config)
        out_dir = _resolve_out(cfg, args.out)
        if args.command == "weak-value":
            fmt = _resolve_format(cfg, args.format)
            return cmd_weak_value(cfg, out_dir, fmt)
        if args.command == "shifts":
            fmt = _resolve_format(cfg, args.format)
            return cmd_shifts(cfg, out_dir, fmt)
        return cmd_invert(cfg, out_dir)
    except WeaklindError as exc:
        # ConfigError, NoConvergence and any library error the commands do
        # not map to a code of their own
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
