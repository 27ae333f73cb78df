"""A follower tails a stream another process is still writing."""

from __future__ import annotations

import multiprocessing
import time

from repro.obs.live import StreamFollower, TelemetryStream

N_TREES = 12


def _tree_record(i: int) -> dict:
    """One deterministic request record (root + one kernel node)."""
    return {
        "type": "serve_request",
        "trace_id": f"req-{i:04d}",
        "arrival_s": float(i),
        "latency_s": 0.5,
        "nodes": [["kernel", "kernel", float(i), 0.5, {}, False]],
    }


def _writer(path: str) -> None:
    """Writer process: append the stream a tree at a time."""
    with TelemetryStream(path, flush_every=1) as stream:
        for i in range(N_TREES):
            stream.emit(_tree_record(i))
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
    requests = [
        r for r in follower.records if r.get("type") == "serve_request"
    ]
    # Incremental polling reassembled every record the writer wrote,
    # without duplication, despite racing it.
    assert requests == [_tree_record(i) for i in range(N_TREES)]
