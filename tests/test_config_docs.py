"""The config's fields, its docstring and README's backend matrix agree,
and so do README's metric names and the names ``src/`` instruments.

A field that goes without its documentation (or the reverse) fails here,
so a retired switch cannot linger in the docs.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import GraphZeppelinConfig

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FIELDS = [field.name for field in dataclasses.fields(GraphZeppelinConfig)]


def test_config_fields_are_exactly_the_documented_attributes():
    attributes = GraphZeppelinConfig.__doc__.split("Attributes\n    ----------\n")[1]
    documented = re.findall(r"^    (\w+):$", attributes, flags=re.MULTILINE)
    assert sorted(documented) == sorted(FIELDS)


def test_readme_backend_matrix_flags_are_config_fields():
    section = README.read_text().split("## Backend matrix")[1].split("\n#")[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("|")]
    assert rows[0][2].strip() == "Flag"
    # Bare identifiers are config fields; entry points carry dots, dashes or parens.
    flags = [
        token
        for row in rows[2:]
        for token in re.findall(r"`([^`]+)`", row[2])
        if token.isidentifier()
    ]
    assert flags and set(flags) <= set(FIELDS)


def test_retired_switches_are_plain_errors():
    """No alias or shim: the dataclass and argparse reject them themselves."""
    for name, value in (
        ("sketch_backend", "flat"),
        ("out_of_core_pool", "flat"),
        ("query_backend", "flat"),
        ("parallel_backend", "threads"),
        ("num_shards", 4),
    ):
        with pytest.raises(TypeError):
            GraphZeppelinConfig(**{name: value})
    for flags in (
        ["--query-backend", "scalar"],
        ["--parallel-backend", "legacy"],
        ["--parallel-backend", "threads"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["components", "unused.stream", *flags])
        assert exit_info.value.code == 2


def test_retired_shared_memory_pool_stays_gone():
    """The processes backend and its shared-memory pool left no name behind."""
    retired = re.compile(r"shared_memory|attach_shared|release_shared|parallel_backend")
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if retired.search(line)
    ]
    assert hits == []


def test_readme_quotes_no_benchmark_ledger():
    """Measured numbers live with their change in CHANGES.md; README
    points there and holds no ``bench/compare.py`` output."""
    readme = README.read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        assert not re.search(r"^workload\s+metric\s+old\s+new", block, flags=re.MULTILINE)
        assert not re.search(r"^old: \{'commit'", block, flags=re.MULTILINE)


#: README's length when "Kernel providers" replaced the per-change
#: history of "Native kernels"; a change that grows README past it takes
#: as many lines out elsewhere (the history belongs in CHANGES.md).
README_LINE_BUDGET = 698


def test_readme_stays_inside_its_line_budget():
    assert len(README.read_text().splitlines()) <= README_LINE_BUDGET


#: Calls whose first argument names a registry counter or histogram.
INSTRUMENTING_CALLS = {"span", "record_span", "counter", "_count"}


def _string_literals(node):
    """A string constant, or every string either branch of a conditional
    expression can yield (``span("device.write" if w else "device.read")``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    elif isinstance(node, ast.IfExp):
        yield from _string_literals(node.body)
        yield from _string_literals(node.orelse)


def _instrumented_names():
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and node.args:
                func = node.func
                called = getattr(func, "attr", getattr(func, "id", None))
                if called in INSTRUMENTING_CALLS:
                    names.update(_string_literals(node.args[0]))
    return names


def test_readme_metric_names_are_exactly_the_instrumented_names():
    """Every counter and histogram in README's "Metric names" table is
    recorded somewhere in ``src/``, and every recorded name is in the
    table (the gauge row lists engine levels, not registry instruments)."""
    table = README.read_text().split("\nMetric names:\n\n")[1].split("\n\n")[0]
    rows = [line.split("|") for line in table.splitlines()]
    assert [cell.strip() for cell in rows[0][1:3]] == ["name", "kind"]
    documented = {
        name
        for row in rows[2:]
        if row[2].strip() != "gauge"
        for name in re.findall(r"`([^`]+)`", row[1])
    }
    instrumented = _instrumented_names()
    assert {"device.read", "device.write"} <= instrumented
    assert sorted(documented - instrumented) == []
    assert sorted(instrumented - documented) == []
