"""A follower tails a stream another process is still writing."""

from __future__ import annotations

import multiprocessing
import time

from repro.obs.forensics import FORENSIC_RECORD_TYPE
from repro.obs.live import StreamFollower, TelemetryStream

N_TREES = 12


def _tree_records(i: int) -> list[dict]:
    """One deterministic two-node request tree (root + kernel child)."""
    trace_id = f"req-{i:04d}"
    return [
        {
            "type": FORENSIC_RECORD_TYPE,
            "trace_id": trace_id,
            "uid": f"{i}-root",
            "parent_uid": None,
            "name": "request",
            "sim_start": float(i),
            "sim_seconds": 0.5,
        },
        {
            "type": FORENSIC_RECORD_TYPE,
            "trace_id": trace_id,
            "uid": f"{i}-kernel",
            "parent_uid": f"{i}-root",
            "name": "kernel",
            "sim_start": float(i),
            "sim_seconds": 0.5,
        },
    ]


def _writer(path: str) -> None:
    """Writer process: append the stream a tree at a time."""
    with TelemetryStream(path, flush_every=1) as stream:
        for i in range(N_TREES):
            for record in _tree_records(i):
                stream.emit(record)
            time.sleep(0.001)
        stream.emit({"type": "stream_closed"})


def test_follower_tails_a_live_stream(tmp_path):
    path = tmp_path / "serve.live.jsonl"
    proc = multiprocessing.get_context("spawn").Process(
        target=_writer, args=(str(path),)
    )
    proc.start()
    follower = StreamFollower(path)
    deadline = time.monotonic() + 30
    while not follower.closed and time.monotonic() < deadline:
        follower.poll()
        time.sleep(0.005)
    proc.join(timeout=30)
    assert proc.exitcode == 0
    follower.poll()
    assert follower.closed
    forensic = [
        r for r in follower.records if r.get("type") == FORENSIC_RECORD_TYPE
    ]
    # Incremental polling reassembled every record the writer wrote,
    # without duplication, despite racing it.
    assert len(forensic) == 2 * N_TREES
    assert len({r["uid"] for r in forensic}) == 2 * N_TREES
