"""The shard process: one worker serving a contiguous embedding range.

A shard process attaches a zero-copy view of its rows (the owner-side
:class:`~repro.shard.store.ShardHost` creates the shared segment from
the shard's durable checkpoint) and then serves one duplex
``Connection`` — the only channel between it and its host:

- ``("lookup", req_id, node_ids)`` — gather the requested rows and ack
  ``("ok", req_id, rows, version)`` (``("error", req_id, text,
  version)`` when the gather raises).  Lookups are the only messages
  that are acked, one ack each, in order;
- ``("crash",)`` — hard-exit without acking (an injected
  ``shard_crash``).  Acks are written synchronously, so there is
  nothing left to flush: the host reads EOF;
- ``("hang", seconds)`` — sleep without heartbeating or serving (an
  injected ``shard_hang``);
- ``("mute",)`` — stop heartbeating but keep serving (an injected
  ``heartbeat_loss``, the supervisor's false-positive path);
- ``None`` — clean shutdown.

There is no version message.  The table version an ack carries is read,
at ack time, from the host's shared watermark (one 8-byte value in
shared memory, written by the host alone) — the same place and moment
the rows come from, so an ack can never pair fresh rows with an old
version or the reverse.

Liveness is a heartbeat counter (a shared ``Value``) bumped every loop
iteration — while idle the connection poll's timeout paces the bumps,
so a healthy-but-quiet shard still beats and a hung one visibly does
not — plus EOF: a process that dies closes its end of the connection,
which the host reads as a crash at once.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.formats.csdb import SharedArraySpec, attach_shared_array

#: Exit code of an injected shard crash (asserted by crash tests).
SHARD_CRASH_EXIT_CODE = 23

#: Default wall seconds between heartbeat bumps while idle.
DEFAULT_HEARTBEAT_INTERVAL_S = 0.02


def shard_main(
    shard_id: int,
    spec: SharedArraySpec,
    row_start: int,
    conn,
    watermark,
    heartbeat,
    heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
) -> None:
    """Entry point of one shard process (also used by replicas).

    ``row_start`` is the shard's index base: an ``int`` offset for
    contiguous range routing, or a sorted ``np.ndarray`` of owned node
    ids under consistent-hash routing (local slot found by binary
    search).  ``conn`` is this worker's end of the duplex pipe and
    ``watermark`` the host's shared version value.
    """
    view, segment = attach_shared_array(spec)
    owned_ids = (
        np.asarray(row_start, dtype=np.int64)
        if isinstance(row_start, np.ndarray)
        else None
    )
    muted = False
    try:
        while True:
            if not muted:
                with heartbeat.get_lock():
                    heartbeat.value += 1
            try:
                if not conn.poll(heartbeat_interval_s):
                    continue
                job = conn.recv()
            except (EOFError, OSError):
                return  # the host is gone
            if job is None:
                return
            kind = job[0]
            if kind == "crash":
                os._exit(SHARD_CRASH_EXIT_CODE)
            if kind == "hang":
                time.sleep(float(job[1]))
                continue
            if kind == "mute":
                muted = True
                continue
            # kind == "lookup"
            _, req_id, node_ids = job
            try:
                ids = np.asarray(node_ids, dtype=np.int64)
                if owned_ids is not None:
                    ids = np.searchsorted(owned_ids, ids)
                else:
                    ids = ids - row_start
                reply = ("ok", req_id, view[ids], watermark.value)
            except Exception as exc:  # noqa: BLE001 - forwarded
                reply = (
                    "error",
                    req_id,
                    f"{type(exc).__name__}: {exc}",
                    watermark.value,
                )
            try:
                conn.send(reply)
            except OSError:
                return  # the host closed its end mid-reply
    finally:
        del view
        try:
            segment.close()
        except BufferError:  # pragma: no cover - view still exported
            pass
