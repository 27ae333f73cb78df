#!/usr/bin/env python3
"""Lookup-shaped pipe round trips: what pickling and per-call selectors cost.

    python benchmarks/pipe_roundtrip.py [--repeats 3] [--trips 4000]

One forked child per variant answers requests over a duplex
``multiprocessing`` pipe the way a shard worker does: 16 int64 ids in,
16 x 32 float64 rows out.  The four variants cross the message encoding
(pickled ``(kind, req_id, ndarray)`` tuples vs the shard transport's
binary frames) with the wait (``Connection.poll`` vs one ``select.poll``
registered once).  Prints the median round trip of each, per repeat.
"""

from __future__ import annotations

import argparse
import multiprocessing
import select
import statistics
import struct
import time

import numpy as np

HEAD = struct.Struct("<B7xqq")  # the shard transport's frame head
N_IDS, DIM = 16, 32
STOP = 9


def _waiter(conn, selector: bool):
    if not selector:
        return lambda: conn.poll(0.02)
    poller = select.poll()
    poller.register(conn.fileno(), select.POLLIN)
    return lambda: poller.poll(20)


def _serve(conn, framed: bool, selector: bool) -> None:
    rows = np.random.default_rng(0).standard_normal((4096, DIM))
    ready = _waiter(conn, selector)
    while True:
        if not ready():
            continue
        if framed:
            frame = conn.recv_bytes()
            kind, req_id, _ = HEAD.unpack_from(frame)
            if kind == STOP:
                return
            ids = np.frombuffer(frame, np.int64, offset=HEAD.size)
            conn.send_bytes(HEAD.pack(1, req_id, 0) + rows[ids].data)
        else:
            job = conn.recv()
            if job is None:
                return
            _, req_id, ids = job
            conn.send(("ok", req_id, rows[ids], 0))


def median_round_trip_us(framed: bool, selector: bool, trips: int) -> float:
    ctx = multiprocessing.get_context("fork")
    conn, child_conn = ctx.Pipe()
    child = ctx.Process(target=_serve, args=(child_conn, framed, selector))
    child.start()
    child_conn.close()
    ready = _waiter(conn, selector)
    ids = np.arange(N_IDS, dtype=np.int64) * 7
    times = []
    for req_id in range(trips):
        start = time.perf_counter()
        if framed:
            conn.send_bytes(HEAD.pack(0, req_id, 0) + ids.data)
        else:
            conn.send(("lookup", req_id, ids))
        while not ready():
            pass
        if framed:
            frame = conn.recv_bytes()
            np.frombuffer(frame, np.float64, offset=HEAD.size).reshape(-1, DIM)
        else:
            conn.recv()
        times.append(time.perf_counter() - start)
    if framed:
        conn.send_bytes(HEAD.pack(STOP, 0, 0))
    else:
        conn.send(None)
    child.join()
    conn.close()
    return statistics.median(times[trips // 20:]) * 1e6  # skip warm-up


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--trips", type=int, default=4000)
    args = parser.parse_args()
    for _ in range(args.repeats):
        print(" | ".join(
            f"{'frames' if framed else 'pickle'}"
            f" + {'select.poll' if selector else 'Connection.poll'}"
            f" {median_round_trip_us(framed, selector, args.trips):.1f} us"
            for framed in (False, True)
            for selector in (False, True)
        ), flush=True)


if __name__ == "__main__":
    main()
