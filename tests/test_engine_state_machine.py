"""The in-RAM engine against exact connectivity, under any interleaving.

Hypothesis drives one :class:`GraphZeppelin` through a random sequence
of operations -- point toggles through ``insert`` / ``delete``, edge
batches (empty ones, and ones whose toggles cancel inside the batch),
``ingest`` of update lists, flushes, queries, ``is_connected`` lookups,
and a snapshot saved and loaded into a fresh engine that then carries
on.  The model is the set of edges toggled an odd number of times; the
claim (after Berkholz et al.) is that the maintained answer equals the
from-scratch answer after every prefix:

* a forest flagged ``complete`` has the partition of an exact
  union-find over the model's edges, and any other forest is flagged
  incomplete -- its edges are model edges, its partition a refinement;
* the memo-warm query of the engine equals the cold query of a fresh
  engine loaded from its snapshot, forest and every ``BoruvkaStats``
  field -- and, in the native cells, so does a ``kernel_backend="numpy"``
  engine loaded from it after every query;
* at teardown every node's buckets equal the per-round ``CubeSketch``
  reference of ``sketch_reference``.

Every (kernel backend, delta) cell runs a tenth of the loaded Hypothesis
profile's example budget: 10 in tier-1, 100 under
``--hypothesis-profile=ci`` (registered in ``conftest.py``).
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

from repro.core.config import BufferingMode, GraphZeppelinConfig
from repro.core.dsu import DisjointSetUnion
from repro.core.graph_zeppelin import GraphZeppelin
from repro.types import EdgeUpdate, UpdateType
from sketch_reference import assert_node_state_matches, reference_node_sketches

MAX_NODES = 64

#: Node-pair coordinates, mapped onto the engine's node range by
#: :meth:`EngineMachine._pair` (so one strategy serves every graph size).
coordinates = st.tuples(
    st.integers(0, MAX_NODES - 1), st.integers(0, MAX_NODES - 2)
)


def _answer(engine: GraphZeppelin) -> tuple:
    forest = engine.list_spanning_forest()
    return (
        forest.edge_array.tolist(),
        forest.labels.tolist(),
        forest.complete,
        dataclasses.asdict(engine.last_query_stats),
    )


class EngineMachine(RuleBasedStateMachine):
    """One engine of the matrix cell's ``kernel_backend`` and ``delta``."""

    kernel_backend = "numpy"
    delta = 0.01

    def __init__(self) -> None:
        super().__init__()
        self.engine = None
        self.edges: set = set()

    @initialize(
        num_nodes=st.integers(2, MAX_NODES),
        seed=st.integers(0, 2**32 - 1),
        buffering=st.sampled_from([BufferingMode.NONE, BufferingMode.LEAF_GUTTERS]),
    )
    def build(self, num_nodes, seed, buffering):
        self.config = GraphZeppelinConfig(
            seed=seed, delta=self.delta, kernel_backend=self.kernel_backend, buffering=buffering
        )
        self.engine = GraphZeppelin(num_nodes, config=self.config)

    # ------------------------------------------------------------------
    # the model
    # ------------------------------------------------------------------
    def _pair(self, coordinate) -> tuple:
        """Two distinct nodes of the engine from one drawn coordinate."""
        n = self.engine.num_nodes
        u = coordinate[0] % n
        return u, (u + 1 + coordinate[1] % (n - 1)) % n

    def _toggle(self, u: int, v: int) -> None:
        self.edges ^= {(min(u, v), max(u, v))}

    def _exact_labels(self) -> list:
        dsu = DisjointSetUnion(self.engine.num_nodes)
        dsu.add_edges(self.edges)
        return dsu.component_labels()

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    @rule(coordinate=coordinates)
    def toggle(self, coordinate):
        u, v = self._pair(coordinate)
        if (min(u, v), max(u, v)) in self.edges:
            self.engine.delete(u, v)
        else:
            self.engine.insert(u, v)
        self._toggle(u, v)

    @rule(batch=st.lists(coordinates, max_size=12), cancel=st.booleans())
    def ingest_batch(self, batch, cancel):
        pairs = [self._pair(coordinate) for coordinate in batch]
        if cancel:
            # Every toggle meets its twin inside the one batch.
            pairs += [(v, u) for u, v in reversed(pairs)]
        edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        assert self.engine.ingest_batch(edges) == len(pairs)
        for u, v in pairs:
            self._toggle(u, v)

    @rule(batch=st.lists(coordinates, max_size=12))
    def ingest_stream(self, batch):
        updates = []
        for coordinate in batch:
            u, v = self._pair(coordinate)
            present = (min(u, v), max(u, v)) in self.edges
            updates.append(EdgeUpdate(u, v, UpdateType.DELETE if present else UpdateType.INSERT))
            self._toggle(u, v)
        assert self.engine.ingest(updates) == len(updates)

    @rule()
    def flush(self):
        self.engine.flush()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @rule()
    def query(self):
        forest = self.engine.list_spanning_forest()
        exact = self._exact_labels()
        for u, v in forest.edges:
            assert (u, v) in self.edges, f"forest edge {(u, v)} is not in the graph"
        same_partition = forest.partition_signature() == _partition(exact)
        assert same_partition or not forest.complete, "a wrong forest is flagged complete"
        if self.kernel_backend != "numpy":
            assert _answer(self._reloaded("numpy")) == _answer(self.engine)

    @rule(coordinate=coordinates)
    def is_connected(self, coordinate):
        u, v = self._pair(coordinate)
        forest = self.engine.list_spanning_forest()
        exact = self._exact_labels()
        if forest.complete:
            assert self.engine.is_connected(u, v) == (exact[u] == exact[v])
        elif self.engine.is_connected(u, v):
            assert exact[u] == exact[v]

    def _reloaded(self, kernel_backend: str) -> GraphZeppelin:
        """A fresh engine of ``kernel_backend`` loaded from the engine's snapshot."""
        config = dataclasses.replace(self.config, kernel_backend=kernel_backend)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.snap"
            self.engine.save_snapshot(path)
            return GraphZeppelin.load_snapshot(path, config=config)

    @rule()
    def snapshot_reload(self):
        """Save, load into a fresh engine, compare, and carry on with it."""
        fresh = self._reloaded(self.kernel_backend)
        assert _answer(fresh) == _answer(self.engine)
        self.engine = fresh

    def teardown(self):
        if self.engine is None:
            return
        reference = reference_node_sketches(
            self.engine.num_nodes, sorted(self.edges), self.config.seed, self.delta
        )
        assert_node_state_matches(self.engine, reference)


def _partition(labels) -> frozenset:
    groups: dict = {}
    for node, label in enumerate(labels):
        groups.setdefault(label, set()).add(node)
    return frozenset(frozenset(group) for group in groups.values())


@pytest.mark.parametrize("delta", [0.5, 0.25, 0.01])
@pytest.mark.parametrize("kernel_backend", ["numpy", "native"])
def test_engine_answers_like_exact_connectivity(kernel_backend, delta, request):
    if kernel_backend == "native":
        request.getfixturevalue("native_provider")  # skips when none is usable
    machine = type(
        "EngineMachine", (EngineMachine,), {"kernel_backend": kernel_backend, "delta": delta}
    )
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=max(1, settings.default.max_examples // 10),
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
