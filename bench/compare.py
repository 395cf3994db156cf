"""Compare two ledgers written by ``bench/run.py --out``.

``python3 bench/compare.py old.json new.json`` prints one row per
(end-to-end metric, workload): both values, the ratio new/old with its
base, the bound from BENCHMARK.json, and a verdict.  When the old ledger
holds an A/A pair (``run.py --aa --out``), a difference no larger than
that pair's own spread is *unresolved* -- neither a change nor proof of
none.  Exits non-zero when any metric is worse by more than its bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

Values = Dict[str, Dict[str, float]]  # workload -> metric -> value


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as handle:
        return json.load(handle)


def worsening(metric: dict, old: float, new: float) -> float:
    """Share of ``old`` by which ``new`` is worse (negative: better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def compare(old: Values, new: Values, spread: Values) -> Tuple[List[str], bool]:
    """Rows of the comparison table and whether any bound was exceeded."""
    rows = [
        f"{'workload':<26}{'metric':<22}{'old':>14}{'new':>14}  {'new/old':>8}"
        f"  {'bound':>6}  verdict"
    ]
    exceeded = False
    for metric in load_spec()["end_to_end"]:
        name = metric["name"]
        for workload in old:
            if workload not in new:
                continue
            a, b = old[workload][name], new[workload][name]
            worse = worsening(metric, a, b)
            noise = spread.get(workload, {}).get(name, 0.0)
            if worse > metric["bound"]:
                verdict, exceeded = "REGRESSED", True
            elif a == b:
                verdict = "same"
            elif abs(worse) <= noise:
                verdict = f"unresolved (A/A spread {noise:.1%})"
            else:
                verdict = f"{'worse' if worse > 0 else 'better'} by {abs(worse):.1%}"
            rows.append(
                f"{workload:<26}{name:<22}{a:>14.4f}{b:>14.4f}  {b / a:>7.3f}x"
                f"  {metric['bound']:>6.2f}  {verdict} (base {a:.4g} {metric['unit']})"
            )
    return rows, exceeded


def aa_spread(runs: List[Values]) -> Values:
    """|a - b| / a per (workload, metric) of a ledger's A/A pair, if any."""
    if len(runs) < 2:
        return {}
    first, second = runs[0], runs[1]
    return {
        workload: {
            name: abs(second[workload][name] - value) / value
            for name, value in metrics.items()
        }
        for workload, metrics in first.items()
        if workload in second
    }


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path, encoding="ascii") as handle:
            ledgers.append(json.load(handle))
    old, new = ledgers
    rows, exceeded = compare(old["runs"][0], new["runs"][0], aa_spread(old["runs"]))
    print(f"old: {old['stamp']}\nnew: {new['stamp']}")
    print("\n".join(rows))
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
