"""Graph and workload generators.

The paper's evaluation uses two families of inputs: dense synthetic
graphs from the Graph500 Kronecker generator (kron13 - kron18) and a
handful of sparse real-world graphs from SNAP / NetworkRepository.
This package regenerates both families -- the Kronecker graphs with the
same R-MAT specification (at configurable, laptop-friendly scales) and
the real-world graphs as synthetic stand-ins with matching size and
degree skew.  That is a substitution: the SNAP / NetworkRepository
files are not bundled, so each real graph is regenerated from a seed
with its node count, edge count and heavy-tailed degrees, scaled like
the Kronecker graphs; answers on a stand-in say nothing about the real
graph's components.
"""

from repro.generators.erdos_renyi import erdos_renyi_gnm, erdos_renyi_gnp
from repro.generators.kronecker import KroneckerParameters, kronecker_graph
from repro.generators.random_graphs import (
    chung_lu_graph,
    preferential_attachment_graph,
    random_multigraph_edges,
    random_spanning_tree,
)
from repro.generators.datasets import (
    Dataset,
    DATASET_SPECS,
    available_datasets,
    load_dataset,
)

__all__ = [
    "DATASET_SPECS",
    "Dataset",
    "KroneckerParameters",
    "available_datasets",
    "chung_lu_graph",
    "erdos_renyi_gnm",
    "erdos_renyi_gnp",
    "kronecker_graph",
    "load_dataset",
    "preferential_attachment_graph",
    "random_multigraph_edges",
    "random_spanning_tree",
]
