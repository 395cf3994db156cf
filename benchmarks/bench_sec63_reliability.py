"""Section 6.3: GraphZeppelin is reliable (no observed failures).

The paper runs 1000 correctness checks per dataset on kron17 and the
four real-world graphs, comparing GraphZeppelin's answer against an
exact adjacency-matrix reference, and never observes a failure despite
the algorithm's (polynomially small) theoretical failure probability.

Two checks, both exact over the toggle-parity edge set:

* under pytest, checkpoints along one dense kron stream and two sparse
  real-world stand-ins, over several independent seeds (the paper's
  protocol), at laptop scale;
* run as a script, one query per seed over the graph families of
  :mod:`repro.analysis.reliability`, reporting per-sample failure,
  rounds used, and incomplete / wrong counts with one-sided
  Clopper-Pearson 95 % upper bounds.  It is the gate on the node-sketch
  geometry::

    PYTHONPATH=src python benchmarks/bench_sec63_reliability.py --seeds 300

exits non-zero on any wrong answer, or when a family's upper bound on
the incomplete rate exceeds its ``delta`` (300 clean queries bound it
below 1/100).  ``--delta`` (repeatable) picks the geometries, default
0.01; ``--delta 0.01 --delta 0.0078125 --seeds 400`` is README's table.
"""

import argparse
import sys
import time

from conftest import BENCH_SCALE_REDUCTION, print_table

from repro.analysis.reliability import run_reliability, run_reliability_trials
from repro.analysis.tables import render_table
from repro.generators.datasets import load_dataset

RELIABILITY_DATASETS = ["kron13", "p2p-gnutella", "rec-amazon"]


def test_sec63_reliability(benchmark):
    def run():
        rows = []
        total_checks = 0
        total_failures = 0
        for name in RELIABILITY_DATASETS:
            dataset = load_dataset(name, scale_reduction=BENCH_SCALE_REDUCTION + 3, seed=11)
            result = run_reliability_trials(
                dataset.stream, num_checkpoints=5, trials=3, base_seed=100
            )
            rows.append(
                {
                    "dataset": name,
                    "nodes": dataset.num_nodes,
                    "checks": result.checks,
                    "failures": result.failures,
                    "incomplete_forests": result.incomplete_forests,
                }
            )
            total_checks += result.checks
            total_failures += result.failures
        return rows, total_checks, total_failures

    rows, total_checks, total_failures = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(render_table(rows, title="Section 6.3: correctness checks vs exact reference"))

    assert total_checks >= 30
    # The paper's headline: zero observed failures.
    assert total_failures == 0


def family_table(cells, num_nodes: int) -> str:
    return render_table(
        [cell.row() for cell in cells],
        title=f"Section 6.3 families at n = {num_nodes} (bounds: one-sided 95 %)",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nodes", type=int, default=2048)
    parser.add_argument("--seeds", type=int, default=300, help="queries per family")
    parser.add_argument(
        "--delta", type=float, action="append", help="repeatable; default 0.01"
    )
    args = parser.parse_args(argv)
    start = time.perf_counter()
    cells = run_reliability(
        num_nodes=args.nodes,
        seeds=range(args.seeds),
        deltas=args.delta or (0.01,),
    )
    print(family_table(cells, args.nodes))
    print(f"\n{sum(c.queries for c in cells)} queries in {time.perf_counter() - start:.1f} s")
    failing = [cell for cell in cells if not cell.certified]
    for cell in failing:
        print(
            f"FAIL {cell.family} at {cell.columns} columns: {cell.wrong} wrong, "
            f"{cell.incomplete} incomplete (rate <= {cell.incomplete_upper:.4f}, "
            f"delta {cell.delta})",
            file=sys.stderr,
        )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
