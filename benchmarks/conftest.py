"""Shared fixtures and configuration for the paper-figure scripts.

Every ``bench_*.py`` here reproduces one table, figure or section of
the paper's evaluation (README "Reproducing the paper's figures" is the
index).  Each prints its result table, so ``python -m pytest
benchmarks/bench_*.py -s`` regenerates the paper's rows; the
pytest-benchmark timings cover the performance-critical kernel of each
experiment.  The repository's own performance is measured by
``bench/run.py``, not here.

Scale note: workload sizes default to laptop-friendly values (see
``BENCH_SCALE_REDUCTION``).  Setting the environment variable
``REPRO_BENCH_SCALE`` to a smaller reduction regenerates results closer
to the paper's scales at proportionally higher runtime.
"""

from __future__ import annotations

import os

import pytest

from repro.generators.datasets import load_dataset

#: How many powers of two the kron datasets are shrunk by, relative to
#: the paper (6 -> kron13 becomes 128 nodes, kron15 becomes 512 nodes).
BENCH_SCALE_REDUCTION = int(os.environ.get("REPRO_BENCH_SCALE", "6"))

#: Datasets used by the system-level benchmarks (the larger kron graphs
#: are covered by the closed-form space models instead of being built).
BENCH_KRON_DATASETS = ("kron13", "kron15")


@pytest.fixture(scope="session")
def bench_datasets():
    """Generated kron datasets shared by all system benchmarks."""
    return {
        name: load_dataset(name, scale_reduction=BENCH_SCALE_REDUCTION, seed=7)
        for name in BENCH_KRON_DATASETS
    }


@pytest.fixture(scope="session")
def kron13(bench_datasets):
    return bench_datasets["kron13"]


@pytest.fixture(scope="session")
def kron15(bench_datasets):
    return bench_datasets["kron15"]


def print_table(text: str) -> None:
    """Print a result table with surrounding whitespace so it is readable
    inside pytest output."""
    print("\n" + text + "\n")
