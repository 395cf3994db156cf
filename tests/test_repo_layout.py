"""One benchmark system, and a README that points at files that exist.

``bench/`` is the repository's benchmark; ``benchmarks/`` holds the
paper-figure scripts only, each indexed in README.  A root-level
``BENCH_*.json`` ledger, an unindexed ``benchmarks/bench_*.py`` or a
README path that went away fails here, so the two-system fork cannot
regrow unnoticed.  Likewise a second derivation of the sketch geometry,
or of its bucket layout.
"""

import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from repro.sketch.geometry import SketchGeometry

ROOT = Path(__file__).resolve().parent.parent


def test_one_benchmark_system_and_readme_paths_exist():
    assert not sorted(path.name for path in ROOT.glob("BENCH_*.json"))

    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Reproducing the paper's figures")[1].split("\n#")[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("|")][2:]
    indexed = [re.fullmatch(r" `(benchmarks/bench_\w+\.py)` ", row[2]).group(1) for row in rows]
    on_disk = sorted(f"benchmarks/{path.name}" for path in (ROOT / "benchmarks").glob("bench_*.py"))
    assert sorted(indexed) == on_disk
    for script, row in zip(indexed, rows):
        # The driver column names what the script really calls.
        driver = re.search(r"`(\w+)\.(\w+)`", row[3])
        source = (ROOT / script).read_text()
        assert f"from repro.analysis.{driver.group(1)} import" in source, script
        assert driver.group(2) in source, script

    mentioned = set(re.findall(r"(?<![\w/.])((?:benchmarks|bench|tests)/[\w./*-]*)", readme))
    missing = sorted(path for path in mentioned if not list(ROOT.glob(path.rstrip("/."))))
    assert mentioned and not missing


def test_each_geometry_formula_is_written_once():
    """Rounds, columns and rows are derived in ``sketch/geometry.py`` only.

    No other engine module takes a ``math.log2``, and the formula
    functions are called only there and by the paper's closed forms in
    ``sketch/sizes.py`` -- everything else reads a ``SketchGeometry``.
    """
    src = ROOT / "src" / "repro"
    geometry = src / "sketch" / "geometry.py"
    for package in ("sketch", "core", "distributed"):
        for path in sorted((src / package).rglob("*.py")):
            if path != geometry:
                assert "math.log2(" not in path.read_text(), path
    formulas = re.compile(r"\b(?:num_boruvka_rounds|cubesketch_num_columns|cubesketch_num_rows)\(")
    for path in sorted(src.rglob("*.py")):
        if path not in (geometry, src / "sketch" / "sizes.py"):
            assert not formulas.findall(path.read_text()), path


def _code_tokens(path):
    """``(token, previous token)`` pairs of a module, each with its logical line."""
    line, previous = [], None
    for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if token.type in (tokenize.COMMENT, tokenize.NL):
            continue
        line.append(token)
        yield token, previous, line
        if token.type == tokenize.NEWLINE:
            line = []
        previous = token


def test_the_bucket_layout_is_decided_once():
    """Plane names and dtypes are spelled in ``sketch/geometry.py`` only.

    Pools, snapshots and the integrity plane iterate
    ``SketchGeometry.planes`` and convert with ``pack`` / ``unpack``; no
    module branches on ``.packed`` (the snapshot header records the bit
    without a branch, and the native provider picks its kernel entry by
    the number of planes).
    """
    src = ROOT / "src" / "repro"
    geometry = src / "sketch" / "geometry.py"
    plane_name = re.compile(r"[rbuRBU]*(['\"])(packed|alpha|gamma)\1")
    for package in ("sketch", "core", "distributed", "integrity"):
        for path in sorted((src / package).rglob("*.py")):
            if path == geometry:
                continue
            for token, _, _ in _code_tokens(path):
                assert not (token.type == tokenize.STRING and plane_name.fullmatch(token.string)), (
                    path, token.start
                )
                assert not (token.type == tokenize.NAME and token.string == "uint32"), (
                    path, token.start
                )
    for path in sorted(src.rglob("*.py")):
        if path == geometry:
            continue
        for token, previous, line in _code_tokens(path):
            assert token.string != "_packed", (path, token.start)
            if token.string == "packed" and previous is not None and previous.string == ".":
                assert not any(t.string == "if" for t in line), (path, token.start)


@pytest.mark.parametrize("wide, itemsizes", [(False, (8,)), (True, (8, 4))])
def test_geometry_planes_pack_and_unpack(wide, itemsizes):
    geometry = SketchGeometry.for_graph(300)
    if wide:
        geometry = SketchGeometry(300, geometry.rounds, geometry.columns, geometry.rows, False, 0.01)
    assert tuple(dtype.itemsize for _, dtype in geometry.planes) == itemsizes
    assert geometry.allocated_bytes_per_node == geometry.buckets_per_node * sum(itemsizes)
    rng = np.random.default_rng(7)
    alpha = rng.integers(0, geometry.vector_length, (4, 3), dtype=np.uint64)
    gamma = rng.integers(0, 1 << 32, (4, 3), dtype=np.uint64)
    planes = geometry.pack(alpha, gamma)
    assert [plane.dtype for plane in planes] == [dtype for _, dtype in geometry.planes]
    got_alpha, got_gamma = geometry.unpack(planes)
    assert got_alpha.dtype == got_gamma.dtype == np.uint64
    assert np.array_equal(got_alpha, alpha) and np.array_equal(got_gamma, gamma)
    for got in (got_alpha, got_gamma):
        assert not any(np.shares_memory(got, array) for array in (alpha, gamma, *planes))
