"""Deterministic seed derivation.

A GraphZeppelin instance contains thousands of hash functions: two per
CubeSketch column, across ``log V`` sketches per node sketch, plus the
hash functions of the buffering layer and the baselines.  To make whole
runs reproducible from a single integer seed, every component derives
its seeds through :func:`derive_seed`, which mixes a root seed with a
structured label ("round 3, column 5, membership hash") so that no two
components share a hash function by accident.
"""

from __future__ import annotations

from repro.hashing.mixers import MASK64, splitmix64


def derive_seed(root_seed: int, *components: int) -> int:
    """Derive a 64-bit child seed from a root seed and integer labels.

    The derivation is a chained splitmix64 over the root and each label,
    so ``derive_seed(s, 1, 2) != derive_seed(s, 2, 1)`` and collisions
    between differently-labelled children are as unlikely as 64-bit hash
    collisions.
    """
    state = splitmix64(root_seed & MASK64)
    for component in components:
        state = splitmix64((state ^ (component & MASK64)) & MASK64)
    return state
