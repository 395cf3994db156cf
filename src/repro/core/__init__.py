"""GraphZeppelin core: sketch-based streaming connected components.

The central class is :class:`repro.core.graph_zeppelin.GraphZeppelin`,
whose public API mirrors the paper's system description (Section 5):

* ``edge_update(u, v)`` / ``insert(u, v)`` / ``delete(u, v)`` ingest
  stream updates,
* ``list_spanning_forest()`` flushes the buffers and runs the
  sketch-based Boruvka algorithm,
* ``connected_components()`` returns the node partition implied by the
  spanning forest.

Supporting pieces: merged cut sketches of node sets (:mod:`node_sketch`),
the edge-slot encoding shared by every node sketch
(:mod:`edge_encoding`), a disjoint set union (:mod:`dsu`), the Boruvka
driver (:mod:`boruvka`), and the StreamingCC baseline built on the
general-purpose l0-sampler (:mod:`streaming_cc`).
"""

from repro.core.config import GraphZeppelinConfig
from repro.core.dsu import DisjointSetUnion
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.core.spanning_forest import SpanningForest
from repro.core.streaming_cc import StreamingCC

__all__ = [
    "DisjointSetUnion",
    "EdgeEncoder",
    "GraphZeppelin",
    "GraphZeppelinConfig",
    "SpanningForest",
    "StreamingCC",
]
