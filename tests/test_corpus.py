"""The command-line corpus: the bytes of every output, pinned by hash.

tests/corpus.json lists command lines: the argv, with {dir} standing for a
fresh directory, and the configs written into that directory first. Each line
runs in process through cli.main. tests/corpus_hashes.json holds, per line,
the exit code and the SHA-256 of its stdout, of its stderr (the directory
written back as {dir}) and of every file it writes under {dir}/out.

A line marked pinned there gave the same bytes under both OpenBLAS cores and
under numpy's AVX2 and baseline SIMD targets. It is compared in full and joins
the `pinned` marker. Every other line compares its exit code, its stderr and
the names of its files. tests/make_corpus_hashes.py rewrites the manifest,
and records under its TOOLCHAIN key the numpy and BLAS that made it: a
pinned line that fails names both that toolchain and the running one.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import numpy as np
import pytest

from weaklind import cli

HERE = pathlib.Path(__file__).parent
CORPUS = {line["id"]: line for line in json.loads((HERE / "corpus.json").read_text())["lines"]}
TOOLCHAIN = "toolchain (not a corpus line)"
MANIFEST = json.loads((HERE / "corpus_hashes.json").read_text())
MADE_UNDER = MANIFEST.pop(TOOLCHAIN, None)


def toolchain() -> dict:
    """numpy's version and its BLAS's name and version, as numpy's config states them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_line(line: dict, directory: pathlib.Path) -> dict:
    """Run one corpus line in an empty directory: its exit code, its stdout and
    stderr with the directory written as {dir}, and the bytes of each file
    under directory/out by its relative path."""
    for name, doc in line["configs"].items():
        (directory / name).write_text(json.dumps(doc))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([arg.replace("{dir}", str(directory)) for arg in line["argv"]])
    out = directory / "out"
    return {"exit": code,
            "stdout": stdout.getvalue().replace(str(directory), "{dir}").encode(),
            "stderr": stderr.getvalue().replace(str(directory), "{dir}").encode(),
            "files": {path.relative_to(out).as_posix(): path.read_bytes()
                      for path in sorted(out.rglob("*")) if path.is_file()}}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hashes(run: dict) -> dict:
    """A run_line result as the manifest records it, without its pinned flag."""
    return {"exit": run["exit"], "stdout": sha256(run["stdout"]),
            "stderr": sha256(run["stderr"]),
            "files": {name: sha256(data) for name, data in run["files"].items()}}


def test_the_manifest_records_every_corpus_line():
    assert list(MANIFEST) == list(CORPUS)


def test_the_manifest_records_its_toolchain():
    assert MADE_UNDER is not None and set(MADE_UNDER) == set(toolchain())


def _marks(line_id: str):
    return pytest.mark.pinned if MANIFEST.get(line_id, {}).get("pinned") else ()


@pytest.mark.parametrize("line_id", [pytest.param(i, marks=_marks(i)) for i in CORPUS])
def test_corpus_line(line_id, tmp_path):
    want = MANIFEST[line_id]
    got = hashes(run_line(CORPUS[line_id], tmp_path))
    if want["pinned"]:
        assert got == {key: want[key] for key in got}, (
            f"pinned under {MADE_UNDER}, run under {toolchain()}")
    else:
        assert (got["exit"], got["stderr"], sorted(got["files"])) == (
            want["exit"], want["stderr"], sorted(want["files"]))
