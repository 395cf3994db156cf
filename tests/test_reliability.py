"""The Section 6.3 reliability harness: its oracle, bounds and families.

The harness is the gate on the node-sketch geometry, so it is tested
for what would make it pass wrongly: an oracle that disagrees with the
sketch's toggle semantics, a bound that is too loose, a family that
does not build the graph it names, or a wrong answer that goes
uncounted.  The run at the end is the tier-1 budget of the experiment
itself (both geometries, every family, small ``n``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import reliability
from repro.analysis.reliability import (
    FAMILIES,
    clopper_pearson_upper,
    exact_labels,
    parity_edges,
    run_reliability,
    run_reliability_trials,
    same_partition,
)
from repro.streaming.stream import GraphStream
from sketch_reference import SEVEN_COLUMN_DELTA


def test_clopper_pearson_zero_failures():
    # 299 clean queries are the fewest that bound a rate below 1/100.
    assert clopper_pearson_upper(0, 299) <= 0.01 < clopper_pearson_upper(0, 298)
    assert clopper_pearson_upper(0, 300) == pytest.approx(1 - 0.05 ** (1 / 300))
    assert clopper_pearson_upper(3, 3) == 1.0
    assert clopper_pearson_upper(0, 0) == 1.0


@pytest.mark.parametrize("successes, trials", [(1, 10), (5, 40), (17, 100), (2, 2400)])
def test_clopper_pearson_matches_the_beta_quantile(successes, trials):
    stats = pytest.importorskip("scipy.stats")
    expected = stats.beta.ppf(0.95, successes + 1, trials - successes)
    assert clopper_pearson_upper(successes, trials) == pytest.approx(expected, rel=1e-9)


def test_parity_reference_drops_pairs_toggled_twice():
    """A set-union reference would keep (0, 1) and join {0, 1}; the
    sketch, and this reference, see it toggled out."""
    edges = np.array([[0, 1], [2, 3], [1, 0], [3, 4], [4, 3], [3, 4]])
    lo, hi = parity_edges(5, edges)
    assert sorted(zip(lo.tolist(), hi.tolist())) == [(2, 3), (3, 4)]
    labels = exact_labels(5, lo, hi)
    assert labels[2] == labels[3] == labels[4]
    assert len({labels[0], labels[1], labels[2]}) == 3


def test_same_partition():
    a = np.array([0, 0, 2, 2, 4])
    assert same_partition(a, np.array([7, 7, 1, 1, 9]))
    assert not same_partition(a, np.array([0, 0, 0, 0, 4]))  # merged
    assert not same_partition(a, np.array([0, 1, 2, 2, 4]))  # split


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_families_build_valid_toggle_streams(name):
    num_nodes = 100
    edges = FAMILIES[name](num_nodes, np.random.default_rng(3))
    assert edges.ndim == 2 and edges.shape[1] == 2 and edges.shape[0] > 0
    assert edges.min() >= 0 and edges.max() < num_nodes
    assert not np.any(edges[:, 0] == edges[:, 1])
    labels = exact_labels(num_nodes, *parity_edges(num_nodes, edges))
    components = np.unique(labels).size
    if name in ("path", "star", "communities_20", "uniform_4n"):
        assert components == 1
    if name == "half_path":
        assert components == num_nodes // 2 + 1
    if name in ("path", "star"):
        assert parity_edges(num_nodes, edges)[0].size == num_nodes - 1
    if name == "churn_10n_to_5%":
        assert edges.shape[0] == 10 * num_nodes * 195 // 100


def test_rmat_family_is_skewed_and_deletes():
    num_nodes = 1024
    edges = FAMILIES["rmat_churn"](num_nodes, np.random.default_rng(5))
    degrees = np.bincount(edges.ravel(), minlength=num_nodes)
    assert degrees.max() > 20 * np.median(degrees)
    # Half the insertions are toggled out again.
    assert parity_edges(num_nodes, edges)[0].size < 0.8 * edges.shape[0] / 2


def test_tier1_budget_both_geometries_every_family():
    cells = run_reliability(
        num_nodes=128, seeds=range(6), deltas=(0.01, SEVEN_COLUMN_DELTA)
    )
    assert len(cells) == 2 * len(FAMILIES)
    assert {(cell.columns, cell.rounds) for cell in cells} == {(3, 7), (7, 7)}
    for cell in cells:
        assert cell.queries == 6 == sum(cell.rounds_used.values())
        assert cell.wrong == 0
        assert max(cell.rounds_used) <= cell.rounds
        assert 0 <= cell.sample_failure_rate < 0.2
        assert cell.incomplete_upper <= clopper_pearson_upper(cell.incomplete, 6)
    # 3 columns fail more samples than 7 on the family that samples most.
    path = {cell.columns: cell for cell in cells if cell.family == "path"}
    assert path[3].sample_failure_rate > path[7].sample_failure_rate


def test_a_wrong_answer_is_counted(monkeypatch):
    """Drop one edge from the reference: every path answer is now wrong."""
    parity = reliability.parity_edges
    monkeypatch.setattr(
        reliability, "parity_edges", lambda n, edges: tuple(a[1:] for a in parity(n, edges))
    )
    (cell,) = run_reliability(64, range(3), families={"path": FAMILIES["path"]})
    assert (cell.wrong, cell.incomplete, cell.queries) == (3, 0, 3)
    assert not cell.certified


def test_one_column_runs_out_of_rounds_and_is_flagged():
    """At one column a path query fails a third of its samples; answers
    that run out of rounds are counted incomplete, never wrong -- and
    a quarter of them incomplete is still inside the 1/2 asked for."""
    (cell,) = run_reliability(
        256, range(40), deltas=(0.5,), families={"path": FAMILIES["path"]}
    )
    assert cell.columns == 1
    assert cell.sample_failure_rate > 0.25
    assert cell.incomplete > 0
    assert cell.wrong == 0
    assert cell.certified


def test_checkpoint_trials_use_the_parity_reference():
    """Every pair is sent twice, so the stream ends empty: a set-union
    reference would report one component at the end."""
    rng = np.random.default_rng(2)
    pairs = FAMILIES["uniform_4n"](40, rng)
    toggles = np.concatenate([pairs, pairs[rng.permutation(pairs.shape[0])]])
    rows = np.column_stack([np.ones(toggles.shape[0], dtype=np.int64), toggles])
    stream = GraphStream.from_rows(40, rows, name="twice")
    result = run_reliability_trials(stream, num_checkpoints=4, trials=2)
    assert result.checks == 2 * len(stream.checkpoints(1 / 4))
    assert result.all_correct
