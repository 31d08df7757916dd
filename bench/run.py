"""Benchmark of weaklind: one closed-loop client per workload.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` next to this
directory, and every file the run writes goes under `.bench_run/` (removed
at the end) or, for traces, `.bench_traces/`.

A run has three phases.

1. Set-up: fresh interpreters import `weaklind.cli`, validate the workload's
   configs and build their dissipators (`setup_probe.py`); one warm-up
   interpreter, then the median of SETUP_PROBES.
2. Warm-up: this process imports the program, runs one whole round of the
   workload's commands through `weaklind.cli.main` and checks every output
   against `reference.py`.
3. Measurement, for S seconds: whole rounds, each followed by one fresh
   `python -m weaklind` process running the workload's headline command.
   Every round must write the same bytes as the warm-up, and the fresh
   process the same bytes as the in-process run of that command.

With --trace 1 the rounds alternate between untraced and traced (spans
around each layer, see tracing.py), no fresh processes run, and the per-layer
figures are printed with the tracing overhead.

The last line of standard output is the result as JSON; the line before it
records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Context, Op, Workload  # noqa: E402

SETUP_PROBES = 5
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {"points_per_s": "1/s", "cli_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "import.weaklind_s": "s",
    "import.weaklind_cli_s": "s",
    "import.weaklind_lindblad_s": "s",
    "import.weaklind_config_s": "s",
    "config.load_config_ms": "ms",
    "config.build_channel_ms": "ms",
    "lindblad.evolve_us": "us",
    "lindblad.evolve_calls_per_point": "count",
    "lindblad.asymptotic_projector_ms": "ms",
    "weakvalue.weak_value_dissipative_us": "us",
    "weakvalue.trace_over_tau_points_per_s": "1/s",
    "weakvalue.weak_value_limit_infinite_ms": "ms",
    "weakvalue.gap_points": "count",
    "weakvalue.useful_points_ratio": "1",
    "meter.jc_shifts_us": "us",
    "meter.rabi_shifts_number_state_us": "us",
    "meter.invert_weak_value_us": "us",
    "scenarios.run_scenario_ms.sodium-anomalous": "ms",
    "scenarios.run_scenario_ms.sodium-constant": "ms",
    "scenarios.run_scenario_ms.estimate-lambda": "ms",
    "scenarios.run_scenario_ms.estimate-gamma": "ms",
    "scenarios.run_scenario_ms.classify": "ms",
    "cli.main_s.weak-value": "s",
    "cli.main_s.scenario": "s",
    "cli.main_s.shifts": "s",
    "cli.main_s.invert": "s",
    "cli.self_s": "s",
    "cli.cpu_per_wall": "1",
    "cli.output_bytes": "B",
    "trace.overhead_pct": "%",
}

IMPORTS = {"weaklind": "import.weaklind_s", "weaklind.cli": "import.weaklind_cli_s",
           "weaklind.lindblad": "import.weaklind_lindblad_s",
           "weaklind.config": "import.weaklind_config_s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, or None if it is not found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime`."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, module = line[len("import time:"):].split("|")
            if module.strip() in IMPORTS and cumulative.strip().isdigit():
                out[IMPORTS[module.strip()]] = int(cumulative) * 1e-6
    return out


def digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.glob("*")) if p.is_file()}


class Run:
    def __init__(self, workload: Workload, work: Path, seed: int, seconds: float,
                 trace: bool):
        self.workload = workload
        self.ctx = Context(work, seed)
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.written: dict | None = None
        self.cli = None

    # ------------------------------------------------------------ operations

    def run_op(self, op: Op, tracer: tracing.Tracer | None = None) -> None:
        """One `weaklind.cli.main` call; its printed summary is discarded."""
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    code = self.cli.main(op.argv)
                else:
                    code = tracer.call(f"cli.main.{op.argv[0]}", self.cli.main, op.argv,
                                       request=True)
        except Exception:
            traceback.print_exc()
            code = None
        if code != 0:
            self.failed += 1
            print(f"operation failed ({code}): {op.label}", file=sys.stderr)

    def run_child(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
        self.attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - start
        if proc is None or proc.returncode != 0:
            self.failed += 1
            print(f"process failed: {argv}\n{proc.stderr if proc else 'timeout'}",
                  file=sys.stderr)
            return wall, None
        return wall, proc

    # --------------------------------------------------------------- phases

    def setup(self) -> list[dict]:
        """Fresh set-up probes: the first warms the file cache and is dropped."""
        flags = ["-X", "importtime"] if self.trace else []
        configs = self.workload.setup_configs(self.ctx)
        probes = []
        for k in range(1 + SETUP_PROBES):
            start = time.perf_counter()
            _, proc = self.run_child([sys.executable, *flags, str(BENCH / "setup_probe.py"),
                                      *configs])
            if proc is None or k == 0:
                continue
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            probe["setup_s"] = probe["ready"] - start
            probe.update(parse_importtime(proc.stderr))
            probes.append(probe)
        return probes

    def round(self, ops: list[Op], tracer=None) -> tuple[float, float]:
        """Wall and CPU seconds of one pass over every operation; afterwards
        the outputs must be byte-identical to the warm-up round's."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in ops:
            self.run_op(op, tracer)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        written = {op.label: digest(op.out) for op in ops}
        if self.written is None:
            self.written = written
        elif written != self.written:
            self.problems.append("a round wrote different bytes than the warm-up round")
        return wall, cpu

    def execute(self) -> dict:
        ops = self.workload.operations(self.ctx)
        probes = self.setup()
        sys.path.insert(0, str(SRC))
        import weaklind.cli
        self.cli = weaklind.cli

        self.workload.prepare(self.ctx, ops, self.run_op)
        self.round(ops)
        try:
            self.problems += self.workload.check(self.ctx)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            self.problems.append(f"outputs unreadable: {exc!r}")
        output_bytes = sum(p.stat().st_size for op in ops for p in op.out.glob("*"))
        points = sum(op.points for op in ops)
        headline = next(op for op in ops if op.label == self.workload.headline)

        if self.trace:
            metrics = self.measure_traced(ops, points, probes)
            metrics["cli.output_bytes"] = output_bytes
        else:
            metrics = self.measure(ops, points, headline, probes)
        for p in dict.fromkeys(self.problems):
            print(f"check failed: {p}", file=sys.stderr)
        units = PER_LAYER if self.trace else END_TO_END
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                        for name, unit in units.items()},
        }

    def budget(self):
        """Iterate while another iteration as long as the last still fits in
        --seconds, and at least MIN_ROUNDS times."""
        start = time.perf_counter()
        for n in itertools.count(1):
            begin = time.perf_counter()
            yield n
            now = time.perf_counter()
            if n >= MIN_ROUNDS and (now - start) + (now - begin) > self.seconds:
                return

    def measure(self, ops, points, headline: Op, probes) -> dict:
        fresh_out = self.ctx.work / "fresh"
        argv = [sys.executable, "-m", "weaklind",
                *[str(fresh_out) if a == str(headline.out) else a for a in headline.argv]]
        rounds, walls = [], []
        for _ in self.budget():
            rounds.append(self.round(ops)[0])
            wall, proc = self.run_child(argv)
            walls.append(wall)
            if proc is not None and digest(fresh_out) != digest(headline.out):
                self.problems.append("a fresh process wrote different bytes than in-process")
        return {
            "points_per_s": points / statistics.median(rounds),
            "cli_wall_s": statistics.median(walls),
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def measure_traced(self, ops, points, probes) -> dict:
        plain, traced, per_round, spans = [], [], [], []
        for _ in self.budget():
            wall, cpu = self.round(ops)
            plain.append(wall)
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            try:
                wall, _ = self.round(ops, tracer)
            finally:
                restore()
            traced.append(wall)
            figures = tracing.round_metrics(tracer.spans, points)
            # an untraced round is nothing but cli.main calls
            figures["cli.cpu_per_wall"] = cpu / plain[-1]
            per_round.append(figures)
            spans.extend(tracer.spans)
        metrics = {name: statistics.median(r.get(name, 0.0) for r in per_round)
                   for name in set().union(*per_round)}
        for key, name in (("load_config_s", "config.load_config_ms"),
                          ("build_channel_s", "config.build_channel_ms")):
            metrics[name] = 1e3 * statistics.median(p[key] for p in probes)
        for name in IMPORTS.values():
            metrics[name] = statistics.median(p.get(name, 0.0) for p in probes)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(plain) - 1.0)
        self.write_spans(spans)
        return metrics

    def write_spans(self, spans) -> None:
        out = ROOT / ".bench_traces"
        out.mkdir(exist_ok=True)
        path = out / f"{self.workload.name}-seed{self.ctx.seed}.jsonl"
        with open(path, "w") as fh:
            for s in spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.start, s.end, s.failed,
                                     s.points]) + "\n")
        print(f"spans: {path.relative_to(ROOT)} ({len(spans)})", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weaklind" / "__init__.py").is_file():
        print(f"error: no weaklind package under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = Run(WORKLOADS[args.workload](), work, args.seed, args.seconds,
                     bool(args.trace)).execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"environment": environment()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
