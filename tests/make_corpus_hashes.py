"""Rewrite tests/corpus_hashes.json, the manifest that tests/test_corpus.py checks.

Run from the repository root:

    python3 tests/make_corpus_hashes.py [--base REV]

The whole corpus (tests/corpus.json) runs once in a fresh interpreter under
each of five environments: the default one, OPENBLAS_CORETYPE=Haswell and
Sandybridge, and numpy's AVX2 and baseline SIMD targets
(NPY_DISABLE_CPU_FEATURES). A line is pinned when its exit code and bytes are
the same under all five. The manifest records the default run.

It then runs the corpus on src/ as committed at REV (default HEAD, taken
with git archive) and prints, for each output whose bytes differ from this
tree's, the largest relative change among the numbers that differ: the list
that a change which moves bytes records.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "corpus_hashes.json"

ENVIRONMENTS = {
    "default": {},
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "AVX2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "baseline": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}
_SEPARATORS = re.compile(r"[\s,\[\]{}:\"]+")


def emit() -> None:
    """Run every corpus line in this process and print the runs as JSON, the bytes
    as latin-1 text (every output is ASCII)."""
    import test_corpus

    runs = {}
    for line_id, line in test_corpus.CORPUS.items():
        with tempfile.TemporaryDirectory() as directory:
            run = test_corpus.run_line(line, pathlib.Path(directory))
        run["stdout"], run["stderr"] = run["stdout"].decode("latin-1"), run["stderr"].decode(
            "latin-1")
        run["files"] = {name: data.decode("latin-1") for name, data in run["files"].items()}
        runs[line_id] = run
    json.dump(runs, sys.stdout)


def corpus_runs(src: pathlib.Path, env: dict) -> dict:
    """The corpus run by a fresh interpreter on the package at src, under env."""
    environ = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    environ.update(env, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, __file__, "--emit"], env=environ, check=True,
                            stdout=subprocess.PIPE)
    runs = json.loads(result.stdout)
    for run in runs.values():
        run["stdout"], run["stderr"] = run["stdout"].encode("latin-1"), run["stderr"].encode(
            "latin-1")
        run["files"] = {name: text.encode("latin-1") for name, text in run["files"].items()}
    return runs


def largest_change(old: bytes, new: bytes) -> str:
    """The largest relative change between the numbers of two outputs, token by token."""
    a, b = _SEPARATORS.split(old.decode()), _SEPARATORS.split(new.decode())
    if len(a) != len(b):
        return "the text differs"
    worst, count = 0.0, 0
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            x, y = float(x), float(y)
        except ValueError:
            return "the text differs"
        count += 1
        change = abs(x - y) / max(abs(x), abs(y))
        worst = change if math.isnan(change) else max(worst, change)
    return f"largest relative change {worst:.2g} over {count} numbers"


def base_runs(rev: str) -> dict:
    with tempfile.TemporaryDirectory() as directory:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", directory], input=archive, check=True)
        return corpus_runs(pathlib.Path(directory) / "src", {})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="the revision to list changes against")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        emit()
        return
    sys.path.insert(0, str(ROOT / "src"))  # test_corpus imports the package; its runs do not
    import test_corpus

    runs = {name: corpus_runs(ROOT / "src", env) for name, env in ENVIRONMENTS.items()}
    manifest = {}
    for line_id, run in runs["default"].items():
        record = test_corpus.hashes(run)
        others = [name for name in ENVIRONMENTS
                  if test_corpus.hashes(runs[name][line_id]) != record]
        manifest[line_id] = {"pinned": not others, **record}
        if others:
            print(f"not pinned, differs under {', '.join(others)}: {line_id}")
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    pinned = sum(record["pinned"] for record in manifest.values())
    print(f"wrote {MANIFEST}: {len(manifest)} lines, {pinned} pinned")

    base = base_runs(args.base)
    for line_id, run in runs["default"].items():
        old = base[line_id]
        if old["exit"] != run["exit"]:
            print(f"{line_id}: exit {old['exit']} -> {run['exit']}")
        outputs = {"stdout": (old["stdout"], run["stdout"]),
                   "stderr": (old["stderr"], run["stderr"])}
        for name in sorted(set(old["files"]) | set(run["files"])):
            outputs[name] = (old["files"].get(name, b""), run["files"].get(name, b""))
        for name, (was, now) in outputs.items():
            if was != now:
                print(f"{line_id} / {name}: {largest_change(was, now)}")


if __name__ == "__main__":
    main()
