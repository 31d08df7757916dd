"""Spans around weaklind's layers, recorded from outside the program.

`install` replaces module attributes where one layer reaches another (for
example `weaklind.weakvalue.evolve`, which every weak value calls) with
wrappers that record a span: name, start, end, parent and whether the call
raised. Nothing under `src/` changes; `install` returns the function that
puts the originals back. Spans stay in memory until the run writes them out.

The CLI sweeps its grid on a thread pool, so each thread keeps its own stack
of open spans; a span opened on a pool thread with an empty stack belongs to
the request (the `cli.main` call) that is running.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    failed: bool
    points: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request: int | None = None

    def call(self, name: str, fn, *args, points: int = 0, request: bool = False, **kwargs):
        """fn(*args, **kwargs) inside a span; `request=True` marks the call
        that spans opened on pool threads belong to."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else self._request
        if request:
            self._request = sid
        stack.append(sid)
        failed = False
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if request:
                self._request = None
            self.spans.append(Span(sid, parent, name, start, end, failed, points))

    def wrap(self, name: str, fn, label=None, points=None):
        def traced(*args, **kwargs):
            full = f"{name}.{label(*args)}" if label else name
            n = points(*args) if points else 0
            return self.call(full, fn, *args, points=n, **kwargs)
        return traced


# (modules whose attribute is replaced, attribute, span name, label, points)
LAYERS = [
    (("weaklind.cli",), "load_config", "config.load_config", None, None),
    (("weaklind.cli",), "build_channel", "config.build_channel", None, None),
    (("weaklind.weakvalue",), "evolve", "lindblad.evolve", None, None),
    (("weaklind.weakvalue",), "asymptotic_projector", "lindblad.asymptotic_projector",
     None, None),
    (("weaklind.cli", "weaklind.weakvalue", "weaklind.scenarios"), "weak_value_dissipative",
     "weakvalue.weak_value_dissipative", None, None),
    (("weaklind.scenarios",), "trace_over_tau", "weakvalue.trace_over_tau", None,
     lambda setup, d, grid: len(grid)),
    (("weaklind.scenarios",), "weak_value_limit_infinite",
     "weakvalue.weak_value_limit_infinite", None, None),
    (("weaklind.cli",), "jc_shifts", "meter.jc_shifts", None, None),
    (("weaklind.cli",), "rabi_shifts_number_state", "meter.rabi_shifts_number_state",
     None, None),
    (("weaklind.cli",), "invert_weak_value", "meter.invert_weak_value", None, None),
    (("weaklind.cli",), "run_scenario", "scenarios.run_scenario",
     lambda name, *rest: name, None),
]


def install(tracer: Tracer):
    """Wrap every layer in LAYERS; return the function that undoes it."""
    saved = []
    for modules, attr, name, label, points in LAYERS:
        mods = [importlib.import_module(m) for m in modules]
        original = getattr(mods[0], attr)
        traced = tracer.wrap(name, original, label, points)
        for mod in mods:
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, traced)

    def restore() -> None:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
    return restore


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# layers whose time is not the CLI's own: the physics it calls into
_CLI_CALLEES = ("weakvalue.", "meter.", "scenarios.")


def round_metrics(spans: list[Span], points: int) -> dict[str, float]:
    """Per-layer figures of one round of a workload."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def mean(name: str, scale: float) -> float:
        group = by_name.get(name, [])
        return scale * sum(s.seconds for s in group) / len(group) if group else 0.0

    out = {}
    evolve = by_name.get("lindblad.evolve", [])
    out["lindblad.evolve_us"] = mean("lindblad.evolve", 1e6)
    out["lindblad.evolve_calls_per_point"] = len(evolve) / points
    out["lindblad.asymptotic_projector_ms"] = mean("lindblad.asymptotic_projector", 1e3)
    wvd = by_name.get("weakvalue.weak_value_dissipative", [])
    out["weakvalue.weak_value_dissipative_us"] = mean("weakvalue.weak_value_dissipative", 1e6)
    gaps = sum(s.failed for s in wvd)
    out["weakvalue.gap_points"] = gaps
    out["weakvalue.useful_points_ratio"] = (len(wvd) - gaps) / len(wvd) if wvd else 0.0
    sweeps = by_name.get("weakvalue.trace_over_tau", [])
    busy = sum(s.seconds for s in sweeps)
    out["weakvalue.trace_over_tau_points_per_s"] = (
        sum(s.points for s in sweeps) / busy if busy else 0.0)
    out["weakvalue.weak_value_limit_infinite_ms"] = mean(
        "weakvalue.weak_value_limit_infinite", 1e3)
    for name in ("meter.jc_shifts", "meter.rabi_shifts_number_state",
                 "meter.invert_weak_value"):
        out[f"{name}_us"] = mean(name, 1e6)
    for name in by_name:
        if name.startswith("scenarios.run_scenario."):
            scenario = name.split(".", 2)[2]
            out[f"scenarios.run_scenario_ms.{scenario}"] = mean(name, 1e3)
    cli_self = 0.0
    for name, group in by_name.items():
        if not name.startswith("cli.main."):
            continue
        out[f"cli.main_s.{name.split('.', 2)[2]}"] = sum(s.seconds for s in group)
        for s in group:
            inner = [(c.start, c.end) for c in children.get(s.id, [])
                     if c.name.startswith(_CLI_CALLEES)]
            cli_self += s.seconds - covered(inner)
    out["cli.self_s"] = cli_self
    return out
