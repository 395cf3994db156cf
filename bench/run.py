"""The repository's benchmark: one command, four workloads.

Driver form (one workload in this, fresh, process)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Without ``--workload`` every workload runs, each in a subprocess of its
own (clean RSS, clean caches)::

    python3 bench/run.py [--seed N] [--seconds S] [--traced] [--aa] [--out FILE]

``--traced`` adds the traced set, ``--aa`` runs the untraced set twice
and holds the two against the bounds in BENCHMARK.json, ``--out`` writes
the ledger ``bench/compare.py`` reads.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
# Run as a script, sys.path[0] is bench/ -- where trace.py would shadow
# the standard library's module of that name for everything imported
# later.  Import the benchmark as the package `bench` instead.
if Path(sys.path[0]).resolve() == ROOT / "bench":
    sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bench import compare  # noqa: E402
from bench.scenarios import WORKLOADS, Recorder  # noqa: E402
from bench.trace import Tracer  # noqa: E402

CACHE = ROOT / "bench" / ".cache"
DEFAULT_SEED = 11
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5


def preflight_build() -> float:
    """Build (or load) the C kernels before any set-up is timed.

    The library is cached under ``bench/.cache`` through the program's
    own ``REPRO_KERNEL_CACHE`` variable, so only the first run of a
    checkout compiles.  Returns the seconds spent (``kernels.build_s``).
    """
    os.environ.setdefault("REPRO_KERNEL_CACHE", str(CACHE / "kernels"))
    from repro.kernels import native_kernels

    start = time.perf_counter()
    native_kernels()
    return time.perf_counter() - start


def environment_stamp() -> Dict[str, str]:
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # not a git checkout
    return {
        "commit": commit,
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_workload(
    name: str, seed: int, seconds: int, trace: bool, smoke: bool = False,
    trace_out: Optional[str] = None,
) -> dict:
    """Set up and run one workload in this process; returns its result.

    ``metrics`` holds every declared end-to-end metric (untraced) or
    every declared per-layer metric (traced; a layer the workload does
    not exercise reads 0).
    """
    spec = compare.load_spec()
    build_s = preflight_build()
    workdir = CACHE / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    try:
        setup_s: List[float] = []
        for _ in range(SETUP_REPS):
            workload = None
            gc.collect()  # release the previous engine before building the next
            start = time.perf_counter()
            workload = WORKLOADS[name](seed, seconds, smoke, workdir)
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.install()
        rec = Recorder(tracer)
        try:
            workload.run(rec)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values = layer_metrics(workload, rec, tracer, build_s)
        declared = spec["per_layer"]
        if trace_out:
            tracer.chrome_trace(trace_out)
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "ingest_updates_per_s": statistics.median(workload.ingest_rates),
            "query_ms_p50": 1e3 * statistics.median(workload.query_s),
            "answer_ms_p50": 1e3 * statistics.median(workload.answer_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "state_bytes_per_node": workload.state_bytes_per_node,
        }
        declared = spec["end_to_end"]
    undeclared = set(values) - {metric["name"] for metric in declared}
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            metric["name"]: {"value": float(values.get(metric["name"], 0.0)), "unit": metric["unit"]}
            for metric in declared
        },
        "failures": rec.failures,
        "info": {
            **environment_stamp(),
            "kernel": workload.kernel_backend,
            "sizes": workload.sizes,
            "seconds_by_kind": dict(rec.seconds_by_kind),
        },
    }


def layer_metrics(workload, rec: Recorder, tracer: Tracer, build_s: float) -> Dict[str, float]:
    """Per-layer metrics of a traced run (see the table in bench/README.md)."""
    values: Dict[str, float] = {
        **tracer.rollup(), **workload.layer, **tracer.counts, **rec.query_counts
    }
    samples = values["core.component_queries"]
    values["core.good_sample_ratio"] = values["core.good_samples"] / samples if samples else 0.0
    batches = values.get("buffering.batches_emitted", 0)
    values["buffering.updates_per_batch"] = (
        values["buffering.updates_emitted"] / batches if batches else 0.0
    )
    values["kernels.build_s"] = build_s
    values["trace.overhead_share"] = (
        values["trace.spans"] * tracer.span_cost_s / values["trace.timed_total_s"]
    )
    values["trace.missing_targets"] = len(tracer.missing_targets)
    # The recorder's own clock around every root: agrees with the summed
    # root spans unless spans were lost or double-counted.
    values["trace.recorder_total_s"] = rec.timed_total_s
    for intermediate in ("trace.spans", "core.good_samples", "buffering.updates_emitted"):
        values.pop(intermediate, None)
    return values


def print_result(name: str, result: dict) -> None:
    print(f"== {name}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<36}{entry['value']:>18.6f} {entry['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"  failed operations: {result['failed']} of {result['attempted']} ({share:.4f})")
    for failure in result["failures"][:10]:
        print(f"  FAILED: {failure}")


# ----------------------------------------------------------------------
# every workload, one subprocess each
# ----------------------------------------------------------------------
def run_set(seed: int, seconds: int, trace: bool, only: Optional[str]) -> Dict[str, dict]:
    results = {}
    for name in WORKLOADS:
        if only and name != only:
            continue
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.stderr.write(done.stdout + done.stderr)
            raise SystemExit(f"{name}: run failed with exit code {done.returncode}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("# info ")))
        print(f"  wall of the run: {time.perf_counter() - start:.1f} s")
        results[name] = json.loads(lines[-1])
        results[name]["info"] = json.loads(
            next(line for line in lines if line.startswith("# info "))[len("# info "):]
        )
    return results


def as_values(results: Dict[str, dict]) -> compare.Values:
    return {
        name: {metric: entry["value"] for metric, entry in result["metrics"].items()}
        for name, result in results.items()
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=compare.load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run this one workload here: 0 end-to-end, 1 per-layer")
    parser.add_argument("--trace-out", help="with --trace 1: write a Chrome trace here")
    parser.add_argument("--traced", action="store_true", help="also run the traced set")
    parser.add_argument("--aa", action="store_true", help="run the untraced set twice")
    parser.add_argument("--out", help="write the ledger to this file")
    args = parser.parse_args(argv)

    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), trace_out=args.trace_out
        )
        print("# info " + json.dumps(result["info"]))
        print_result(args.workload, result)
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    runs = [run_set(args.seed, args.seconds, False, args.workload)]
    status = 0 if all(result["correct"] for result in runs[0].values()) else 1
    if args.aa:
        runs.append(run_set(args.seed, args.seconds, False, args.workload))
        rows, exceeded = compare.compare(as_values(runs[0]), as_values(runs[1]), {})
        print("\nA/A: two runs of the same code\n" + "\n".join(rows))
        status = status or int(exceeded)
    layers = run_set(args.seed, args.seconds, True, args.workload) if args.traced else {}
    for name, result in layers.items():
        status = status or int(not result["correct"])
        # Over the operations both runs make (the snapshot round trip of
        # the bridges workload exists only in the traced run).
        plain = runs[0][name]["info"]["seconds_by_kind"]
        untraced = sum(plain.values())
        traced = sum(result["info"]["seconds_by_kind"][kind] for kind in plain)
        unattributed = result["metrics"]["trace.unattributed_s"]["value"]
        total = result["metrics"]["trace.timed_total_s"]["value"]
        print(f"{name}: timed total {traced:.3f} s traced, {untraced:.3f} s untraced "
              f"({traced / untraced - 1:+.1%}); unattributed {unattributed / total:.1%}")
    if args.out:
        ledger = {
            "stamp": environment_stamp(),
            "kernels": {name: r["info"]["kernel"] for name, r in runs[0].items()},
            "seed": args.seed,
            "seconds": args.seconds,
            "runs": [as_values(run) for run in runs],
            "layers": as_values(layers),
            "operations": {
                name: {"attempted": r["attempted"], "failed": r["failed"]}
                for name, r in runs[0].items()
            },
        }
        with open(args.out, "w", encoding="ascii") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
