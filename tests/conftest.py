"""Shared fixtures for the test suite.

Fixtures build small, deterministic graphs and streams so individual
tests stay fast; larger randomized coverage lives in the property-based
and integration tests which draw their own sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.generators.erdos_renyi import erdos_renyi_gnm
from repro.generators.random_graphs import random_spanning_tree
from repro.memory.hybrid import HybridMemory
from repro.streaming.generator import StreamConversionSettings, graph_to_stream
from repro.streaming.stream import GraphStream
from repro.types import EdgeUpdate, UpdateType
from dict_device import DEVICE_TYPES

#: ``--hypothesis-profile=ci``: ten times Hypothesis' default example
#: budget, for the CI step that runs the engine state machine, whose
#: cells take a tenth of the loaded profile's budget.
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_addoption(parser):
    parser.addoption(
        "--block-device",
        choices=sorted(DEVICE_TYPES),
        default="file",
        help="device type every HybridMemory builds outside the ``device`` "
        "fixture: the product's file device (default) or the dict test double",
    )


@pytest.fixture(autouse=True, scope="session")
def session_block_device(request):
    with pytest.MonkeyPatch.context() as patch:
        device_type = DEVICE_TYPES[request.config.getoption("block_device")]
        patch.setattr(HybridMemory, "device_type", device_type)
        yield


@pytest.fixture(params=sorted(DEVICE_TYPES))
def device(request, monkeypatch):
    """Every ``HybridMemory`` the test builds stores on this device type:
    the product's file device, or the dict-backed test double."""
    monkeypatch.setattr(HybridMemory, "device_type", DEVICE_TYPES[request.param])
    return request.param


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


@pytest.fixture(scope="session")
def portable_build(tmp_path_factory):
    """``(provider, cache)``: the library a compiler without ``-march=native`` gives.

    Built into its own ``REPRO_KERNEL_CACHE`` through a ``$CC`` wrapper
    that fails on ``-march=native`` the way a cross compiler does, so
    ``_build_library`` takes its fallback branch.  Skips when there is no
    compiler, or one that cannot build the ordinary library either.
    """
    from repro.kernels import native_cc, native_kernels, native_unavailable_reason

    compiler = native_cc.find_compiler()
    if compiler is None:
        pytest.skip("no C compiler")
    if native_kernels() is None:
        pytest.skip(f"the C compiler cannot build the kernels ({native_unavailable_reason()})")
    root = tmp_path_factory.mktemp("portable")
    wrapper = root / "cc-without-march-native"
    wrapper.write_text(
        "#!/bin/sh\n"
        'for arg in "$@"; do\n'
        '  if [ "$arg" = "-march=native" ]; then\n'
        '    echo "error: unsupported option -march=native" >&2; exit 1\n'
        "  fi\n"
        "done\n"
        f'exec "{compiler}" "$@"\n'
    )
    wrapper.chmod(0o755)
    cache = root / "cache"
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("CC", str(wrapper))
        patch.setenv("REPRO_KERNEL_CACHE", str(cache))
        provider = native_cc.CcKernels()
    return provider, cache


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
