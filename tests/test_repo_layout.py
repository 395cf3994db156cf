"""One benchmark system, and a README that points at files that exist.

``bench/`` is the repository's benchmark; ``benchmarks/`` holds the
paper-figure scripts only, each indexed in README.  A root-level
``BENCH_*.json`` ledger, an unindexed ``benchmarks/bench_*.py`` or a
README path that went away fails here, so the two-system fork cannot
regrow unnoticed.  Likewise a second derivation of the sketch geometry.
"""

import re
from pathlib import Path

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
