"""The benchmark's own tests: its checks pass on the program's real output and
fail once that output is perturbed.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    Context,
    MemoryKernelSweep,
    MeterShifts,
    SodiumSweep,
    read_json,
)

SEED = 7


def _produce(workload, work: Path) -> Context:
    import weaklind.cli

    ctx = Context(work, SEED)
    ops = workload.operations(ctx)

    def run_op(op):
        with contextlib.redirect_stdout(io.StringIO()):
            assert weaklind.cli.main(op.argv) == 0, op.label

    workload.prepare(ctx, ops, run_op)
    for op in ops:
        run_op(op)
    return ctx


SMALL = {
    "sodium": lambda: SodiumSweep(anomalous_points=41, constant_points=21),
    "memory": lambda: MemoryKernelSweep(weak_points=6, strong_points=9),
    "meter": lambda: MeterShifts(jc_points=31, rabi_points=31),
}


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """Each workload's outputs on small grids, made once by the program."""
    out = {}
    for key, make in SMALL.items():
        workload = make()
        out[key] = (workload, _produce(workload, tmp_path_factory.mktemp(key)))
    return out


@pytest.fixture
def fresh(produced, tmp_path):
    """A private copy of the produced outputs, safe to perturb."""
    def copy(key):
        workload, ctx = produced[key]
        shutil.copytree(ctx.work, tmp_path / key)
        return workload, Context(tmp_path / key, SEED)
    return copy


def _edit_csv(path: Path, row: int, column: str, fn) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    k = header.index(column)
    cells[k] = "%.17g" % fn(float(cells[k]))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, edit) -> None:
    doc = read_json(path)
    edit(doc)
    path.write_text(json.dumps(doc))


# ------------------------------------------------------------ reference itself

def test_reference_six_level_operators():
    jy = ref.six_level_jy()
    assert np.allclose(jy, jy.conj().T)
    assert np.allclose(np.linalg.eigvalsh(jy), [-1.5, -0.5, -0.5, 0.5, 0.5, 1.5])
    decay = sum(L.conj().T @ L for L in ref.six_level_jumps())
    assert np.allclose(decay, np.diag([1, 1, 1, 1, 0, 0]))


@pytest.mark.parametrize("gamma0, lam", [(0.1, 1.0), (1.0, 0.5), (0.5, 1.0)])
def test_envelope_solves_its_equation(gamma0, lam):
    h = 1e-4
    assert ref.envelope(0.0, gamma0, lam) == 1.0
    assert abs(ref.envelope(h, gamma0, lam) - ref.envelope(-h, gamma0, lam)) < 1e-9
    for tau in (0.7, 3.0, 9.0):
        g = [ref.envelope(tau + k * h, gamma0, lam) for k in (-1, 0, 1)]
        d1, d2 = (g[2] - g[0]) / (2 * h), (g[2] - 2 * g[1] + g[0]) / h**2
        assert abs(d2 + lam * d1 + 0.5 * gamma0 * lam * g[1]) < 1e-5


def test_read_json_takes_bare_nan(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": [\n  nan,\n  1\n], "b": "nan nonmarkov"}')
    doc = read_json(path)
    assert math.isnan(doc["a"][0]) and doc["b"] == "nan nonmarkov"


# --------------------------------------------------- real output passes

@pytest.mark.parametrize("key", sorted(SMALL))
def test_program_output_passes(produced, key):
    workload, ctx = produced[key]
    assert workload.check(ctx) == []


# ------------------------------------------------ perturbed output fails

def test_sodium_spot_point_perturbed(fresh):
    workload, ctx = fresh("sodium")
    row = ctx.spots("anomalous", 41)[-1]
    _edit_csv(ctx.out("weak-value anomalous") / "weak_value.csv", row, "im_wv",
              lambda v: v + 1e-7)
    assert any("weak-value anomalous" in m for m in workload.check(ctx))


def test_sodium_paper_endpoint_perturbed(fresh):
    workload, ctx = fresh("sodium")
    path = ctx.out("scenario sodium-anomalous") / "sodium-anomalous.json"
    _edit_json(path, lambda d: d["verdict"]["wv_at_infinity"].__setitem__(0, -0.349))
    assert any("limit" in m for m in workload.check(ctx))


def test_sodium_constant_pair_drift(fresh):
    workload, ctx = fresh("sodium")
    path = ctx.out("weak-value constant") / "weak_value.json"
    spotted = {k + 1 for k in ctx.spots("constant", 20)}
    row = next(k for k in range(1, 21) if k not in spotted)
    _edit_json(path, lambda d: d["re_wv"].__setitem__(row, d["re_wv"][row] + 1e-5))
    assert any("leaves its limit" in m for m in workload.check(ctx))


def test_sodium_missing_gap(fresh):
    workload, ctx = fresh("sodium")
    path = ctx.out("weak-value constant") / "weak_value.json"
    _edit_json(path, lambda d: d.__setitem__("gaps", []))
    assert any("gap" in m for m in workload.check(ctx))


@pytest.mark.parametrize("row", [0, 4, 8])
def test_memory_kernel_point_perturbed(fresh, row):
    workload, ctx = fresh("memory")
    _edit_csv(ctx.out("weak-value strong") / "weak_value.csv", row, "re_wv",
              lambda v: v * (1 + 1e-8) + 1e-8)
    assert any(f"weak-value strong: row {row}" in m for m in workload.check(ctx))


def test_memory_kernel_wrong_lambda_and_verdict(fresh):
    workload, ctx = fresh("memory")
    _edit_json(ctx.out("scenario estimate-lambda") / "estimate-lambda.json",
               lambda d: d["verdict"].__setitem__("lambda_hat", 1.03))
    _edit_json(ctx.out("scenario classify") / "classify.json",
               lambda d: d["verdict"].__setitem__("verdict", "Markovian"))
    problems = workload.check(ctx)
    assert any("lambda_hat" in m for m in problems)
    assert any("verdict 'Markovian'" in m for m in problems)


@pytest.mark.parametrize("column", ["q_shift", "p_shift"])
def test_meter_wrong_jc_shift(fresh, column):
    workload, ctx = fresh("meter")
    _edit_csv(ctx.out("shifts jc") / "shifts.csv", 5, column, lambda v: v * (1 + 1e-6))
    assert any("shifts jc: row 5 shifts" in m for m in workload.check(ctx))


def test_meter_wrong_rabi_shift(fresh):
    workload, ctx = fresh("meter")
    _edit_csv(ctx.out("shifts rabi") / "shifts.csv", 12, "p_shift", lambda v: -v)
    assert any("shifts rabi: row 12 shifts" in m for m in workload.check(ctx))


def test_meter_wrong_ladder_weak_value(fresh):
    workload, ctx = fresh("meter")
    _edit_csv(ctx.out("shifts jc") / "shifts.csv", 3, "im_wv_minus", lambda v: v + 1e-6)
    assert any("ladder weak values" in m for m in workload.check(ctx))


def test_meter_wrong_inversion(fresh):
    workload, ctx = fresh("meter")
    k = workload.invert_rows[0]
    _edit_json(ctx.out(f"invert row{k}") / "invert.json",
               lambda d: d["weak_value"].__setitem__(1, d["weak_value"][1] * 1.001))
    assert any(f"invert row{k}" in m for m in workload.check(ctx))


# ------------------------------------------------------------- the harness

def test_covered_merges_overlaps():
    assert tracing.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracing.covered([]) == 0


def test_cli_self_time_excludes_parallel_children():
    S = tracing.Span
    spans = [S(2, 1, "weakvalue.weak_value_dissipative", 1.0, 4.0, False, 0),
             S(3, 1, "weakvalue.weak_value_dissipative", 2.0, 5.0, True, 0),
             S(4, 1, "config.load_config", 0.0, 0.5, False, 0),
             S(1, None, "cli.main.weak-value", 0.0, 6.0, False, 0)]
    figures = tracing.round_metrics(spans, points=2)
    assert figures["cli.self_s"] == pytest.approx(2.0)
    assert figures["weakvalue.gap_points"] == 1
    assert figures["cli.main_s.weak-value"] == 6.0


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "meter-shifts",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
