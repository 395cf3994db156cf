"""Hashing substrate used by the sketching data structures.

GraphZeppelin's C++ implementation uses xxHash for bucket membership and
checksums.  This package provides:

* :mod:`repro.hashing.xxhash64` -- a specification-faithful scalar
  xxHash64 for bytes and integers,
* :mod:`repro.hashing.mixers` -- vectorised 64-bit mixing hashes
  (splitmix64 / xxHash avalanche) over numpy arrays, used by the hot
  batched sketch-update path,
* :mod:`repro.hashing.prng` -- deterministic seed derivation so an
  entire GraphZeppelin instance is reproducible from one integer seed.
"""

from repro.hashing.mixers import (
    hash_to_depth,
    mix_seed_array,
    seeded_hash64,
    seeded_hash64_array,
    seeded_hash64_matrix,
    splitmix64,
    splitmix64_array,
    xxhash_avalanche,
    xxhash_avalanche_array,
)
from repro.hashing.prng import derive_seed
from repro.hashing.xxhash64 import xxhash64, xxhash64_int

__all__ = [
    "derive_seed",
    "hash_to_depth",
    "mix_seed_array",
    "seeded_hash64",
    "seeded_hash64_array",
    "seeded_hash64_matrix",
    "splitmix64",
    "splitmix64_array",
    "xxhash_avalanche",
    "xxhash_avalanche_array",
    "xxhash64",
    "xxhash64_int",
]
