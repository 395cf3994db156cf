"""A list-of-``EdgeUpdate`` reference stream.

The representation ``GraphStream`` had before it became one rows array,
kept as the oracle the array-backed stream is held to: every answer is
computed by walking a plain Python list of update objects.
"""

import numpy as np


class ListStream:
    def __init__(self, num_nodes, updates=(), name="stream"):
        self.num_nodes, self.updates, self.name = num_nodes, list(updates), name

    def __iter__(self):
        return iter(self.updates)

    def __len__(self):
        return len(self.updates)

    def edge_array(self, start=0):
        pairs = [(update.u, update.v) for update in self.updates[start:]]
        return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)

    def edges_at(self, position):
        edges = set()
        for update in self.updates[:position]:
            if update.is_insert:
                edges.add(update.edge)
            else:
                edges.discard(update.edge)
        return edges

    def final_edges(self):
        return self.edges_at(len(self.updates))

    def prefix(self, position):
        return ListStream(self.num_nodes, self.updates[:position])

    def suffix(self, position):
        return ListStream(self.num_nodes, self.updates[position:])

    def counts(self):
        inserts = sum(1 for update in self.updates if update.is_insert)
        return inserts, len(self.updates) - inserts

    def checkpoints(self, every_fraction=0.1):
        step = max(1, int(len(self.updates) * every_fraction))
        positions = list(range(step, len(self.updates) + 1, step))
        if positions and positions[-1] != len(self.updates):
            positions.append(len(self.updates))
        return positions
