"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.generators.datasets import available_datasets
from repro.streaming.io import read_stream_binary, read_stream_text, write_stream_binary
from repro.streaming.stream import GraphStream
from repro.types import EdgeUpdate, UpdateType


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_datasets_command_lists_registry(capsys):
    assert main(["datasets"]) == 0
    output = capsys.readouterr().out
    for name in available_datasets():
        assert name in output


def test_generate_validate_components_roundtrip(tmp_path, capsys):
    stream_path = tmp_path / "kron13.stream"
    assert main(
        ["generate", "kron13", str(stream_path), "--scale-reduction", "8", "--seed", "3"]
    ) == 0
    assert stream_path.exists()
    generated = read_stream_binary(stream_path)
    assert generated.num_nodes == 32

    assert main(["validate", str(stream_path)]) == 0
    validate_output = capsys.readouterr().out
    assert "valid       : True" in validate_output

    assert main(["components", str(stream_path), "--verify", "--seed", "5"]) == 0
    components_output = capsys.readouterr().out
    assert "components" in components_output
    assert "matches exact reference: True" in components_output


def test_generate_text_format(tmp_path, capsys):
    stream_path = tmp_path / "kron13.txt"
    assert main(
        [
            "generate", "kron13", str(stream_path),
            "--scale-reduction", "8", "--seed", "3", "--text",
        ]
    ) == 0
    stream = read_stream_text(stream_path)
    assert len(stream) > 0
    assert main(["validate", str(stream_path), "--text"]) == 0


def test_validate_flags_illegal_stream(tmp_path, capsys):
    bad = GraphStream(
        num_nodes=4,
        updates=[EdgeUpdate(0, 1, UpdateType.DELETE)],
        name="bad",
    )
    path = tmp_path / "bad.stream"
    write_stream_binary(bad, path)
    assert main(["validate", str(path)]) == 1
    assert "first violation" in capsys.readouterr().out


def test_components_with_ram_budget(tmp_path, capsys):
    stream_path = tmp_path / "small.stream"
    main(["generate", "p2p-gnutella", str(stream_path), "--scale-reduction", "9"])
    capsys.readouterr()
    assert main(
        [
            "components", str(stream_path),
            "--ram-budget-mib", "0.25",
            "--buffering", "gutter_tree",
        ]
    ) == 0
    output = capsys.readouterr().out
    assert "modelled disk I/O" in output


def test_unknown_dataset_rejected_by_parser():
    with pytest.raises(SystemExit):
        main(["generate", "not-a-dataset", "out.stream"])


@pytest.mark.parametrize("backend", ["threads"])
def test_components_parallel_backends_match_reference(tmp_path, capsys, backend):
    stream_path = tmp_path / "kron13.stream"
    main(["generate", "kron13", str(stream_path), "--scale-reduction", "8", "--seed", "3"])
    capsys.readouterr()
    assert main(
        ["components", str(stream_path), "--verify", "--seed", "5", "--workers", "2"]
    ) == 0
    output = capsys.readouterr().out
    from repro.parallel.cost_model import usable_cores

    # The report shows the effective (core-clamped) worker count.
    effective = min(2, usable_cores())
    assert f"({backend} x{effective}" in output
    assert "matches exact reference: True" in output


def test_components_workers_with_ram_budget_ingests_serially(tmp_path, capsys):
    """Sharded ingest needs the in-RAM pool: a RAM-budgeted run says so
    in one line and ingests serially."""
    stream_path = tmp_path / "small.stream"
    main(["generate", "kron13", str(stream_path), "--scale-reduction", "8"])
    capsys.readouterr()
    assert main(
        [
            "components", str(stream_path), "--verify",
            "--workers", "2", "--ram-budget-mib", "0.25",
        ]
    ) == 0
    output = capsys.readouterr().out
    notes = [line for line in output.splitlines() if line.startswith("note:")]
    assert notes == [
        "note: a RAM-budgeted engine ingests serially "
        "(--workers shards the in-RAM pool only)"
    ]
    assert "updates ingested :" in output and "(serial)" in output
    assert "page size        :" in output
    assert "matches exact reference: True" in output


def test_snapshot_resume_roundtrip(tmp_path, capsys):
    """Kill-and-resume through the CLI matches the uninterrupted run."""
    stream_path = tmp_path / "kron13.stream"
    main(["generate", "kron13", str(stream_path), "--scale-reduction", "8", "--seed", "3"])
    capsys.readouterr()
    assert main(["components", str(stream_path), "--seed", "5"]) == 0
    uninterrupted = capsys.readouterr().out

    snap_path = tmp_path / "mid.snap"
    assert main(
        ["snapshot", str(stream_path), str(snap_path), "--up-to", "100", "--seed", "5"]
    ) == 0
    wrote = capsys.readouterr().out
    assert "stream offset 100" in wrote
    assert snap_path.exists()

    assert main(["resume", str(snap_path), str(stream_path)]) == 0
    resumed = capsys.readouterr().out
    assert "resumed at offset 100" in resumed
    # Same components, same counts -- only the ingest-mode line differs.
    strip = lambda text: [
        line for line in text.splitlines()
        if not line.startswith("updates ingested")
    ]
    assert strip(resumed) == strip(uninterrupted)


def test_cli_merge_snapshots_of_disjoint_substreams(tmp_path, capsys):
    from repro.core.config import GraphZeppelinConfig
    from repro.core.graph_zeppelin import GraphZeppelin
    from repro.distributed.snapshot import load_pool_snapshot
    from repro.streaming.io import read_stream_binary as read_binary
    import numpy as np

    stream_path = tmp_path / "kron13.stream"
    main(["generate", "kron13", str(stream_path), "--scale-reduction", "8", "--seed", "3"])
    stream = read_binary(stream_path)
    # Two disjoint sub-streams, written as their own stream files.
    half_paths = []
    for part in range(2):
        sub = GraphStream(
            num_nodes=stream.num_nodes, updates=stream.updates[part::2], name=f"h{part}"
        )
        half_paths.append(tmp_path / f"half{part}.stream")
        write_stream_binary(sub, half_paths[-1])
        assert main(
            ["snapshot", str(half_paths[-1]), str(tmp_path / f"half{part}.snap"),
             "--seed", "5"]
        ) == 0
    capsys.readouterr()
    merged_path = tmp_path / "merged.snap"
    assert main(
        ["merge", str(merged_path),
         str(tmp_path / "half0.snap"), str(tmp_path / "half1.snap")]
    ) == 0
    assert "merged 2 snapshots" in capsys.readouterr().out

    serial = GraphZeppelin(stream.num_nodes, config=GraphZeppelinConfig(seed=5))
    serial.ingest_batch(stream.edge_array())
    pool, meta = load_pool_snapshot(merged_path)
    assert np.array_equal(serial.tensor_pool._planes, pool._planes)
    assert meta.engine_updates == serial.updates_processed


def test_components_distributed_matches_reference(tmp_path, capsys):
    stream_path = tmp_path / "kron13.stream"
    main(["generate", "kron13", str(stream_path), "--scale-reduction", "8", "--seed", "3"])
    capsys.readouterr()
    assert main(
        ["components", str(stream_path), "--verify", "--seed", "5",
         "--distributed", "2"]
    ) == 0
    output = capsys.readouterr().out
    assert "distributed x2" in output
    assert "merge" in output
    assert "matches exact reference: True" in output


def test_resume_refuses_merged_snapshot(tmp_path, capsys):
    stream_path = tmp_path / "kron13.stream"
    main(["generate", "kron13", str(stream_path), "--scale-reduction", "8", "--seed", "3"])
    for part in ("a", "b"):
        assert main(
            ["snapshot", str(stream_path), str(tmp_path / f"{part}.snap"), "--seed", "5"]
        ) == 0
    merged = tmp_path / "merged.snap"
    assert main(
        ["merge", str(merged), str(tmp_path / "a.snap"), str(tmp_path / "b.snap")]
    ) == 0
    capsys.readouterr()
    assert main(["resume", str(merged), str(stream_path)]) == 1
    assert "merged snapshot" in capsys.readouterr().out


def test_merge_refuses_the_same_snapshot_twice(tmp_path, monkeypatch):
    """XOR is self-inverse: merging a file with itself must fail, not
    write an all-zero sketch."""
    from repro.exceptions import StreamFormatError

    stream_path = tmp_path / "kron13.stream"
    main(["generate", "kron13", str(stream_path), "--scale-reduction", "8", "--seed", "3"])
    snap = tmp_path / "a.snap"
    assert main(["snapshot", str(stream_path), str(snap), "--seed", "5"]) == 0
    monkeypatch.chdir(tmp_path)
    merged = tmp_path / "merged.snap"
    with pytest.raises(StreamFormatError, match="same file"):
        main(["merge", str(merged), str(snap), "./a.snap"])
    assert not merged.exists()


# ----------------------------------------------------------------------
# checkpointing flags and directory recovery
# ----------------------------------------------------------------------
def _generated_stream(tmp_path, capsys, name="ckpt.stream"):
    stream_path = tmp_path / name
    main(["generate", "kron13", str(stream_path), "--scale-reduction", "8"])
    capsys.readouterr()
    return stream_path


def test_components_writes_rotating_checkpoints(tmp_path, capsys):
    stream_path = _generated_stream(tmp_path, capsys)
    ckpt_dir = tmp_path / "ckpts"
    assert main(
        [
            "components", str(stream_path),
            "--checkpoint-dir", str(ckpt_dir),
            "--checkpoint-every", "100",
        ]
    ) == 0
    output = capsys.readouterr().out
    assert "checkpoints      : 2 written" in output
    assert len(sorted(ckpt_dir.glob("ckpt-*.snap"))) == 2


def test_checkpoint_every_requires_checkpoint_dir(tmp_path, capsys):
    stream_path = _generated_stream(tmp_path, capsys)
    assert main(
        ["components", str(stream_path), "--checkpoint-every", "10"]
    ) == 1
    assert "requires --checkpoint-dir" in capsys.readouterr().out


def test_checkpoint_dir_rejected_with_distributed(tmp_path, capsys):
    stream_path = _generated_stream(tmp_path, capsys)
    assert main(
        [
            "components", str(stream_path),
            "--checkpoint-dir", str(tmp_path / "c"),
            "--distributed", "2",
        ]
    ) == 1
    assert "--distributed" in capsys.readouterr().out


def test_resume_from_checkpoint_directory_matches_serial(tmp_path, capsys):
    stream_path = _generated_stream(tmp_path, capsys)
    ckpt_dir = tmp_path / "ckpts"
    main(
        [
            "components", str(stream_path),
            "--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "100",
        ]
    )
    capsys.readouterr()
    assert main(["resume", str(ckpt_dir), str(stream_path)]) == 0
    resumed = capsys.readouterr().out
    assert "recovered from" in resumed
    assert main(["components", str(stream_path)]) == 0
    serial = capsys.readouterr().out

    def component_lines(text):
        return [line for line in text.splitlines() if "component" in line]

    assert component_lines(resumed) == component_lines(serial)


def test_resume_from_directory_falls_back_across_torn_newest(tmp_path, capsys):
    stream_path = _generated_stream(tmp_path, capsys)
    ckpt_dir = tmp_path / "ckpts"
    main(
        [
            "components", str(stream_path),
            "--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "100",
        ]
    )
    capsys.readouterr()
    newest = sorted(ckpt_dir.glob("ckpt-*.snap"))[-1]
    newest.write_bytes(newest.read_bytes()[:100])
    assert main(["resume", str(ckpt_dir), str(stream_path)]) == 0
    output = capsys.readouterr().out
    assert f"note: skipped {newest.name}" in output
    assert "recovered from" in output


def test_resume_empty_directory_fails_cleanly(tmp_path, capsys):
    stream_path = _generated_stream(tmp_path, capsys)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["resume", str(empty), str(stream_path)]) == 1
    assert "no checkpoints" in capsys.readouterr().out


def test_resume_rejects_stream_shorter_than_recorded_offset(tmp_path, capsys):
    """A snapshot whose offset lies past the end of the stream means the
    stream file is not the one the checkpoint came from: loud failure,
    never a silent empty-suffix ingest."""
    from repro.exceptions import StreamFormatError

    stream_path = _generated_stream(tmp_path, capsys)
    snap_path = tmp_path / "full.snap"
    assert main(["snapshot", str(stream_path), str(snap_path)]) == 0
    capsys.readouterr()

    full = read_stream_binary(stream_path)
    truncated = GraphStream(
        num_nodes=full.num_nodes,
        updates=list(full)[:10],
        name="truncated",
    )
    short_path = tmp_path / "short.stream"
    write_stream_binary(truncated, short_path)
    with pytest.raises(StreamFormatError, match="holds only 10 updates"):
        main(["resume", str(snap_path), str(short_path)])


def test_resume_rejects_node_count_mismatch(tmp_path, capsys):
    from repro.exceptions import StreamFormatError

    stream_path = _generated_stream(tmp_path, capsys)
    snap_path = tmp_path / "full.snap"
    assert main(["snapshot", str(stream_path), str(snap_path)]) == 0
    capsys.readouterr()

    full = read_stream_binary(stream_path)
    widened = GraphStream(
        num_nodes=full.num_nodes * 2,
        updates=list(full),
        name="widened",
    )
    other_path = tmp_path / "other.stream"
    write_stream_binary(widened, other_path)
    with pytest.raises(StreamFormatError, match="nodes"):
        main(["resume", str(snap_path), str(other_path)])
