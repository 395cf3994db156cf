"""Tests for deterministic seed derivation."""

from repro.hashing.prng import derive_seed


# ----------------------------------------------------------------------
# seed derivation
# ----------------------------------------------------------------------
def test_derive_seed_deterministic():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)


def test_derive_seed_order_sensitive():
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


def test_derive_seed_root_sensitive():
    assert derive_seed(1, 7) != derive_seed(2, 7)


def test_derive_seed_no_collisions_small_space():
    seeds = {derive_seed(0, i, j) for i in range(50) for j in range(50)}
    assert len(seeds) == 2500
