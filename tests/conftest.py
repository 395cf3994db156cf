"""Shared fixtures for the test suite.

Fixtures build small, deterministic graphs and streams so individual
tests stay fast; larger randomized coverage lives in the property-based
and integration tests which draw their own sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.generators.erdos_renyi import erdos_renyi_gnm
from repro.generators.random_graphs import random_spanning_tree
from repro.streaming.generator import StreamConversionSettings, graph_to_stream
from repro.streaming.stream import GraphStream
from repro.types import EdgeUpdate, UpdateType


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def native_provider():
    """The process-wide native kernel provider; skips when none is usable."""
    from repro.kernels import native_kernels, native_unavailable_reason

    provider = native_kernels()
    if provider is None:
        pytest.skip(f"no native kernel provider usable ({native_unavailable_reason()})")
    return provider


@pytest.fixture
def fold_helpers(monkeypatch):
    """Every job a round-split fold hands to a helper thread, as a list.

    The helpers still run the jobs.  The test starts from no helper pool
    (so a forced core count sizes it) and its helpers are shut down
    after it.
    """
    from repro.sketch import round_split

    def shut_down():
        if round_split._helpers is not None:
            round_split._helpers.shutdown()
            round_split._helpers = None

    shut_down()
    handed = []
    real = round_split._helper_pool

    class Counting:
        def submit(self, job, *args):
            handed.append(job)
            return real().submit(job, *args)

    monkeypatch.setattr(round_split, "_helper_pool", Counting)
    yield handed
    shut_down()


@pytest.fixture
def small_graph():
    """A fixed 8-node graph with two non-trivial components and two isolates.

    Components: {0, 1, 2, 3}, {4, 5}, {6}, {7}.
    """
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]
    return 8, edges


@pytest.fixture
def small_stream(small_graph):
    """An insert/delete stream whose final graph is ``small_graph``."""
    num_nodes, edges = small_graph
    settings = StreamConversionSettings(
        churn_fraction=0.4, disconnect_nodes=0, reinsert_fraction=0.2, seed=7
    )
    return graph_to_stream(num_nodes, edges, settings=settings, name="small")


@pytest.fixture
def medium_random_graph():
    """A 64-node random graph with ~200 edges (multiple components likely)."""
    return erdos_renyi_gnm(64, 200, seed=3)


@pytest.fixture
def medium_stream(medium_random_graph):
    num_nodes, edges = medium_random_graph
    settings = StreamConversionSettings(
        churn_fraction=0.2, disconnect_nodes=4, reinsert_fraction=0.1, seed=11
    )
    return graph_to_stream(num_nodes, edges, settings=settings, name="medium")


@pytest.fixture
def tree_graph():
    """A guaranteed-connected 32-node tree."""
    return random_spanning_tree(32, seed=5)


@pytest.fixture
def gz_small():
    """A GraphZeppelin engine on 16 nodes with stream validation enabled."""
    return GraphZeppelin(
        num_nodes=16,
        config=GraphZeppelinConfig(validate_stream=True, seed=42),
    )


def insert_only_stream(num_nodes, edges, name="insert-only"):
    """Helper used by several test modules."""
    updates = [EdgeUpdate(u, v, UpdateType.INSERT) for u, v in edges]
    return GraphStream(num_nodes=num_nodes, updates=updates, name=name)
