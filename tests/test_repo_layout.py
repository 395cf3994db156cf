"""One benchmark system, and a README that points at files that exist.

``bench/`` is the repository's benchmark; ``benchmarks/`` holds the
paper-figure scripts only, each indexed in README.  A root-level
``BENCH_*.json`` ledger, an unindexed ``benchmarks/bench_*.py`` or a
README path that went away fails here, so the two-system fork cannot
regrow unnoticed.  Likewise a second derivation of the sketch geometry,
or of its bucket layout, and a scalar reference back in the product.
"""

import ast
import functools
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


@functools.lru_cache(maxsize=None)
def _parsed(path):
    """A module's syntax tree, parsed once for every test here."""
    return ast.parse(path.read_text(), str(path))


@functools.lru_cache(maxsize=None)
def _tokens(path):
    """A module's tokens, tokenized once for every test here."""
    return tuple(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))


def _code_tokens(path):
    """``(token, previous token)`` pairs of a module, each with its logical line."""
    line, previous = [], None
    for token in _tokens(path):
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


#: Names ``src/`` must not define again.  Two kinds: the engine's scalar
#: references, which live in ``tests/`` as oracles, and second paths and
#: surface that only tests reached, which the tests now reach through the
#: product API.  A method is ``Class.name``; anything else is its bare name,
#: which also catches a method of that name (:func:`_defined_names`).
OUT_OF_THE_PRODUCT = {
    # scalar references
    "NodeSketch",
    "sketch_spanning_forest",
    "query_merged",
    "query_bucket_arrays",
    "exhaustive_samples",
    "cubesketch_to_bytes",
    # the pool-to-pool merge (snapshots are the one merge path)
    "NodeTensorPool.merge_from",
    "NodeTensorPool._check_mergeable",
    "PagedTensorPool.merge_from",
    # the blocked segmented XOR (``reduceat`` is the one reduce)
    "_segmented_xor_blocked",
    "_XOR_BLOCK_ROWS",
    # a wrapper and test-only surface
    "columnar_fold",
    "CubeBucket",
    "StandardBucket",
    "CubeSketch.bucket",
    "StandardL0Sketch.bucket",
    "SeedSequenceFactory",
    "BlockDevice.write_block",
    "BlockDevice.read_block",
    "BlockDevice.has_block",
    "BlockDevice.read_blob",
    "BlockDevice.read_blob_digests",
    "IOStats.merged_with",
    "IOStats.reset",
    "EdgeEncoder.decode_batch",
    "OUTCOME_BY_CODE",
    # the per-query native binding (CcBoruvka binds every pool's query)
    "CcQuery",
    "RoundQuery._union_find",
    # the pool-level snapshot loaders (engines load and merge snapshots)
    # and the pre-digest format's reader
    "load_pool_snapshot",
    "merge_snapshots",
    "_build_pool",
    "SNAPSHOT_MAGIC_V1",
    # the dict-backed block device (the tests' fault-injection double;
    # the product's device is the file)
    "DictBlockDevice",
    # the pools' per-provider fold paths (one provider contract: the
    # paged pool folds page by page through ``fold_page``)
    "_fold_layout",
    "_scatter",
    "_fold_native",
    "_fold_page_native",
    "_fold_pass_elements",
    # engine levels copied into registry gauges (each level is read
    # from its owner when ``metrics()`` is called)
    "publish_metrics",
    "Gauge",
    "gauge",
    # observability surface with no caller
    "log_event",
    "trace_ring",
    # dead code
    "SketchFailureError",
    "_reset_for_tests",
    "ShardedIngestor.batches_ingested",
    "ShardedIngestor.updates_ingested",
    "Checkpointer.updates_since_checkpoint",
    "GraphZeppelinConfig.in_memory",
    # the second gutter implementation (the gutter tree is the leaf
    # gutters behind staging levels; every emission folds as one
    # ``PageEmission``; one grouping pass, ``group_update_columns``)
    "BufferingSystem",
    "_TreeNode",
    "_child_for",
    "_emit_leaf",
    "_apply_batch",
    "_split_by_page",
}


#: Methods whose bare name is a retired module function in
#: :data:`OUT_OF_THE_PRODUCT`: the engine's merge replaced the
#: pool-building ``merge_snapshots`` under the same name.
METHODS_REUSING_A_RETIRED_NAME = {"GraphZeppelin.merge_snapshots"}


def _defined_names(tree):
    """Every name a module binds by ``def``, ``class`` or assignment, plus
    ``Class.name`` for each method.  A method also yields its bare name,
    so a bare entry still catches a retired method re-added on any class,
    unless the method is in :data:`METHODS_REUSING_A_RETIRED_NAME`."""
    reusing = set()
    for node in ast.walk(tree):  # breadth first: a class before its methods
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node not in reusing:
                yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = f"{node.name}.{child.name}"
                    if method in METHODS_REUSING_A_RETIRED_NAME:
                        reusing.add(child)
                    yield method, child.lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def test_the_guard_catches_a_retired_method_and_function():
    """A bare entry catches a method as well as a module function of
    that name; only the listed method may reuse a retired name."""
    def caught(source):
        return {name for name, _ in _defined_names(ast.parse(source))} & OUT_OF_THE_PRODUCT

    method = "class NodeTensorPool:\n    def query_merged(self): pass\n"
    assert caught(method) == {"query_merged"}
    assert caught("def merge_snapshots(paths): pass\n") == {"merge_snapshots"}
    assert caught("class GraphZeppelin:\n    def merge_snapshots(self, paths): pass\n") == set()
    assert caught("class Other:\n    def merge_snapshots(self, paths): pass\n") == {
        "merge_snapshots"
    }


def test_references_live_in_tests_not_in_the_product():
    """``src/`` defines nothing in :data:`OUT_OF_THE_PRODUCT` and imports
    nothing from ``tests/``."""
    assert not (ROOT / "src" / "repro" / "sketch" / "bucket.py").exists()
    test_modules = {path.stem for path in (ROOT / "tests").glob("*.py")} | {"tests"}
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = _parsed(path)
        for name, lineno in _defined_names(tree):
            assert name not in OUT_OF_THE_PRODUCT, (path, lineno, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in test_modules, (path, node.lineno)


def _provider_forks(tree):
    """Line numbers of every place a module forks on which kernel provider
    it holds: a ``... kernels is [not] None`` test, a
    ``getattr(..., "_kernels", None)`` or a ``hasattr(..., "query_components")``."""
    def is_const(node, value):
        return isinstance(node, ast.Constant) and type(node.value) is type(value) and (
            node.value == value
        )

    def names_kernels(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
        return isinstance(node, (ast.Name, ast.Attribute)) and name.endswith("kernels")

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.Is, ast.IsNot)):
            operands = (node.left, *node.comparators)
            if any(map(names_kernels, operands)) and any(is_const(op, None) for op in operands):
                yield node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            args = node.args
            if node.func.id == "getattr" and len(args) == 3:
                if is_const(args[1], "_kernels") and is_const(args[2], None):
                    yield node.lineno
            if node.func.id == "hasattr" and len(args) == 2:
                if is_const(args[1], "query_components"):
                    yield node.lineno


def test_every_layer_calls_one_provider_contract():
    """The numpy kernels are a provider object like the compiled one, so
    nothing under ``src/repro`` asks whether it holds a provider at all."""
    forks = [
        (path.relative_to(ROOT), line)
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for line in _provider_forks(_parsed(path))
    ]
    assert forks == []


def test_the_provider_guard_catches_each_fork():
    def caught(source):
        return len(list(_provider_forks(ast.parse(source))))

    assert caught("if self._kernels is None:\n    pass\n") == 1
    assert caught("use = kernels is not None and pool.is_paged\n") == 1
    assert caught("if memory.kernels is None:\n    pass\n") == 1
    assert caught("kernels = getattr(self, '_kernels', None)\n") == 1
    assert caught("bound = hasattr(sampler, 'query_components')\n") == 1
    assert caught("if provider is None:\n    pass\n") == 0
    assert caught("hoist = pool._kernels.hoists_hash\n") == 0
    assert caught("kernels = getattr(self, '_kernels')\n") == 0


def test_src_imports_nothing_it_does_not_use():
    """Every import in a ``src/repro`` module is read there; package
    ``__init__`` modules are skipped, since their imports are re-exports.
    A name read only inside a quoted annotation counts as unused: write
    the annotation unquoted, under ``from __future__ import annotations``."""
    unused = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parsed(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [(path.relative_to(ROOT), node.lineno, name) for name in bound if name not in used]
    assert not unused


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
