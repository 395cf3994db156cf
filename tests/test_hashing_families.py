"""Tests for deterministic seed derivation."""

from repro.hashing.prng import SeedSequenceFactory, derive_seed


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


def test_seed_factory_generators_are_independent():
    factory = SeedSequenceFactory(root_seed=5)
    g1 = factory.generator_for(1)
    g2 = factory.generator_for(2)
    assert g1.integers(0, 1 << 30) != g2.integers(0, 1 << 30)


def test_seed_factory_reproducible():
    a = SeedSequenceFactory(9).generator_for(4).integers(0, 1 << 30)
    b = SeedSequenceFactory(9).generator_for(4).integers(0, 1 << 30)
    assert a == b


def test_seed_factory_spawn_differs_from_parent():
    parent = SeedSequenceFactory(3)
    child = parent.spawn(1)
    assert parent.seed_for(10) != child.seed_for(10)


def test_mix_labels_collapses_iterables():
    assert SeedSequenceFactory.mix_labels([1, 2, 3]) == SeedSequenceFactory.mix_labels([1, 2, 3])
    assert SeedSequenceFactory.mix_labels([1, 2, 3]) != SeedSequenceFactory.mix_labels([3, 2, 1])
