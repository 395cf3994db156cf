"""The config's fields, its docstring and README's backend matrix agree.

A field that goes without its documentation (or the reverse) fails here,
so a retired switch cannot linger in the docs.
"""

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
