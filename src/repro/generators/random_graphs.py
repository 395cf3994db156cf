"""Skewed random graphs used as stand-ins for the real-world datasets.

The paper's correctness experiments use four sparse real-world graphs
(a peer-to-peer network, a co-purchase graph, a social network and a
web graph).  Without network access those exact datasets cannot be
downloaded, so the dataset registry substitutes graphs with matching
node/edge counts and heavy-tailed degree distributions, produced by the
generators in this module.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from repro.exceptions import GraphGenerationError
from repro.types import Edge, canonical_edge


def chung_lu_graph(
    num_nodes: int,
    num_edges: int,
    exponent: float = 2.5,
    seed: int = 0,
) -> Tuple[int, List[Edge]]:
    """A Chung–Lu style power-law graph with roughly ``num_edges`` edges.

    Node weights follow ``w_i ~ (i + 1)^(-1/(exponent - 1))``; edges are
    sampled by picking both endpoints proportionally to weight, which
    yields an expected degree sequence with a power-law tail.
    """
    if num_nodes < 2:
        raise GraphGenerationError("num_nodes must be at least 2")
    if exponent <= 1:
        raise GraphGenerationError("exponent must be greater than 1")
    max_edges = num_nodes * (num_nodes - 1) // 2
    num_edges = min(num_edges, max_edges)
    rng = np.random.default_rng(seed)

    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    probabilities = weights / weights.sum()

    edges: Set[Edge] = set()
    attempts = 0
    max_attempts = 40 * max(num_edges, 1)
    while len(edges) < num_edges and attempts < max_attempts:
        remaining = num_edges - len(edges)
        batch = max(256, int(remaining * 1.6))
        us = rng.choice(num_nodes, size=batch, p=probabilities)
        vs = rng.choice(num_nodes, size=batch, p=probabilities)
        for u, v in zip(us.tolist(), vs.tolist()):
            attempts += 1
            if u == v:
                continue
            edges.add(canonical_edge(u, v))
            if len(edges) >= num_edges:
                break
    return num_nodes, sorted(edges)


def preferential_attachment_graph(
    num_nodes: int,
    edges_per_node: int = 4,
    seed: int = 0,
) -> Tuple[int, List[Edge]]:
    """A Barabási–Albert style preferential-attachment graph."""
    if num_nodes < 2:
        raise GraphGenerationError("num_nodes must be at least 2")
    if edges_per_node < 1:
        raise GraphGenerationError("edges_per_node must be at least 1")
    rng = np.random.default_rng(seed)
    edges: Set[Edge] = set()
    # Repeated-endpoint list: picking uniformly from it is equivalent to
    # degree-proportional sampling.
    endpoint_pool: List[int] = [0]
    for node in range(1, num_nodes):
        targets: Set[int] = set()
        wanted = min(edges_per_node, node)
        while len(targets) < wanted:
            target = endpoint_pool[int(rng.integers(0, len(endpoint_pool)))]
            if target != node:
                targets.add(target)
        for target in targets:
            edges.add(canonical_edge(node, target))
            endpoint_pool.append(target)
            endpoint_pool.append(node)
        if not targets:
            endpoint_pool.append(node)
    return num_nodes, sorted(edges)


def random_multigraph_edges(num_nodes: int, count: int, seed: int = 0) -> np.ndarray:
    """Up to ``count`` uniform random edges as an ``(N, 2)`` int64 array.

    The standard workload of the examples and the sharded
    parallel-ingest tests: endpoints drawn independently (so repeated
    edges -- Z_2 toggles -- occur naturally), self loops dropped, no
    canonicalisation.  Feed it straight to
    :meth:`~repro.core.graph_zeppelin.GraphZeppelin.ingest_batch`.
    """
    if num_nodes < 2:
        raise GraphGenerationError("a graph needs at least two nodes")
    rng = np.random.default_rng(seed)
    u = rng.integers(0, num_nodes, count)
    v = rng.integers(0, num_nodes, count)
    keep = u != v
    return np.stack([u[keep], v[keep]], axis=1).astype(np.int64)


def random_spanning_tree(num_nodes: int, seed: int = 0) -> Tuple[int, List[Edge]]:
    """A uniformly-random-ish spanning tree (random attachment order).

    Useful in tests: the result is guaranteed connected with exactly
    ``num_nodes - 1`` edges.
    """
    if num_nodes < 1:
        raise GraphGenerationError("num_nodes must be at least 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_nodes)
    edges = []
    for position in range(1, num_nodes):
        parent_position = int(rng.integers(0, position))
        edges.append(canonical_edge(int(order[position]), int(order[parent_position])))
    return num_nodes, edges
