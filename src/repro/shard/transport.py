"""The shard pipe protocol, both ends of it.

A :class:`~repro.shard.host.ShardHost` talks to each of its worker
processes over one duplex ``Connection`` — the only channel between
them — and shares two things with them through memory: the rows (the
segment) and the table version those rows are current to (an 8-byte
watermark).  This module is the worker's loop (:func:`shard_main`) and
the host's handle on it (:class:`_ShardWorker`), so every frame layout
is written once.

Every message is one binary frame, ``Connection.send_bytes(head +
payload)``: the head is :data:`_HEAD` (kind byte, ``req_id`` int64,
``version`` int64; 24 bytes with padding, so the payload starts 8-byte
aligned) and the payload is raw bytes — nothing is pickled either way:

- ``LOOKUP`` — payload: the requested ids, raw int64.  The worker
  gathers the rows and acks ``OK`` (payload: the rows, raw float64,
  which the host reads in place with ``np.frombuffer``) or ``ERROR``
  (payload: UTF-8 text) when the gather raises; ``version`` is the
  watermark at ack time.  Lookups are the only messages that are acked,
  one ack each, in order;
- ``CRASH`` — hard-exit without acking (an injected ``shard_crash``).
  Acks are written synchronously, so there is nothing left to flush:
  the host reads EOF;
- ``HANG`` — payload: float64 seconds; sleep without heartbeating or
  serving (an injected ``shard_hang``);
- ``MUTE`` — stop heartbeating but keep serving (an injected
  ``heartbeat_loss``, the supervisor's false-positive path);
- ``SHUTDOWN`` — clean shutdown.

Each end waits on its pipe with one ``select.poll`` object registered
once (``Connection.poll`` builds a selector per call).  A ``poll`` owns
no file descriptor, so a worker handle holds exactly its pipe end.

There is no version message, and an update sends nothing at all — it
writes rows and watermark in place, and the next ack reads both.  The
table version an ack carries is read, at ack time, from the host's
shared watermark (one 8-byte value in shared memory, written by the
host alone) — the same place and moment the rows come from, so an ack
can never pair fresh rows with an old version or the reverse.

The host never writes to a worker that still owes an ack (it receives
that ack first), so neither side can block writing a large message the
other is not reading.

Liveness is a heartbeat counter (a shared ``Value``) bumped every loop
iteration — while idle the pipe poll's timeout paces the bumps,
so a healthy-but-quiet shard still beats and a hung one visibly does
not — plus EOF: a process that dies closes its end of the connection,
which the host reads as a crash at once.
"""

from __future__ import annotations

import math
import os
import select
import struct
import time
from typing import Callable, NamedTuple

import numpy as np

from repro.formats.csdb import SharedArraySpec, attach_shared_array
from repro.shard.errors import ShardCrashError, ShardTimeoutError

#: Exit code of an injected shard crash (asserted by the crash test).
SHARD_CRASH_EXIT_CODE = 23

#: Wall seconds between a worker's heartbeat bumps while idle.
HEARTBEAT_INTERVAL_S = 0.02

#: Poll granularity while waiting on a shard ack (fast crash detection).
_POLL_S = 0.02

#: Head of every frame: kind, req_id, version (+ 7 pad bytes after kind).
_HEAD = struct.Struct("<B7xqq")
#: Payload of a HANG frame: the seconds to sleep.
_SECONDS = struct.Struct("<d")

_LOOKUP, _OK, _ERROR, _CRASH, _HANG, _MUTE, _SHUTDOWN = range(7)


def _input_waiter(conn) -> Callable[[int], list]:
    """``wait(ms)``: one ``select.poll`` on ``conn``'s input, registered
    once; returns the ready events (empty on timeout)."""
    poller = select.poll()
    poller.register(conn.fileno(), select.POLLIN)
    return poller.poll


def _ms(seconds: float) -> int:
    """A poll timeout in whole milliseconds, rounded up (never a spin)."""
    return max(0, math.ceil(seconds * 1e3))


# -- the worker's end -------------------------------------------------------


def shard_main(
    spec: SharedArraySpec,
    row_start: int,
    conn,
    watermark,
    heartbeat,
) -> None:
    """Entry point of one shard process (also used by replicas).

    The worker serves rows ``[row_start, row_start + len(segment))``;
    ``conn`` is its end of the duplex pipe and ``watermark`` the host's
    shared version value.
    """
    view, segment = attach_shared_array(spec)
    wait = _input_waiter(conn)
    idle_ms = _ms(HEARTBEAT_INTERVAL_S)
    muted = False
    try:
        while True:
            if not muted:
                with heartbeat.get_lock():
                    heartbeat.value += 1
            try:
                if not wait(idle_ms):
                    continue
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                return  # the host is gone
            kind, req_id, _ = _HEAD.unpack_from(frame)
            if kind == _SHUTDOWN:
                return
            if kind == _CRASH:
                os._exit(SHARD_CRASH_EXIT_CODE)
            if kind == _HANG:
                time.sleep(_SECONDS.unpack_from(frame, _HEAD.size)[0])
                continue
            if kind == _MUTE:
                muted = True
                continue
            # kind == _LOOKUP
            try:
                ids = np.frombuffer(frame, np.int64, offset=_HEAD.size)
                rows = view[ids - row_start]
                reply = _HEAD.pack(_OK, req_id, watermark.value) + rows.data
            except Exception as exc:  # noqa: BLE001 - forwarded
                text = f"{type(exc).__name__}: {exc}".encode()
                reply = _HEAD.pack(_ERROR, req_id, watermark.value) + text
            try:
                conn.send_bytes(reply)
            except OSError:
                return  # the host closed its end mid-reply
    finally:
        del view
        try:
            segment.close()
        except BufferError:  # pragma: no cover - view still exported
            pass


# -- the host's end ---------------------------------------------------------


class _SentLookup(NamedTuple):
    """The send half of one lookup, handed to the receive half."""

    worker: "_ShardWorker"
    shard_id: int
    replica: int
    req_id: int
    deadline_s: float
    deadline_at: float


class _ShardWorker:
    """Owner-side handle of one shard process (primary or replica).

    ``next_req`` is the id of the last lookup sent and ``acked`` the id
    of the last ack received; they differ only while a call is in
    flight or after one timed out, and the difference is what the
    worker still owes (see :meth:`send_lookup`).
    """

    __slots__ = (
        "process", "conn", "wait", "row_shape", "heartbeat", "next_req",
        "acked",
    )

    def __init__(self, ctx, spec, row_start, watermark):
        self.conn, child_conn = ctx.Pipe()
        self.wait = _input_waiter(self.conn)
        self.row_shape = tuple(spec.shape[1:])
        self.heartbeat = ctx.Value("Q", 0, lock=True)
        self.next_req = 0
        self.acked = 0
        self.process = ctx.Process(
            target=shard_main,
            args=(spec, row_start, child_conn, watermark, self.heartbeat),
            daemon=True,
        )
        try:
            self.process.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            # The child holds the only copy of its end from here on, so
            # its death — however it dies — reads as EOF on ours.
            child_conn.close()

    # -- unacked control messages ---------------------------------------

    def _post(self, kind: int, payload: bytes = b"") -> None:
        """Send an unacked control frame; a dead worker ignores it."""
        if self.process.is_alive():
            try:
                self.conn.send_bytes(_HEAD.pack(kind, 0, 0) + payload)
            except OSError:
                pass  # died between the check and the write

    def crash(self) -> None:
        """Make the worker hard-exit (joined before return)."""
        self._post(_CRASH)
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - slow exit
            self.process.terminate()
            self.process.join(timeout=5.0)

    def hang(self, seconds: float) -> None:
        """Make the worker sleep (its next lookup hits the deadline)."""
        self._post(_HANG, _SECONDS.pack(seconds))

    def mute(self) -> None:
        """Stop the worker's heartbeat while it keeps serving."""
        self._post(_MUTE)

    def stop(self, graceful: bool = True, timeout: float = 2.0) -> None:
        """End the process and close the pipe.

        ``graceful`` asks first (a ``SHUTDOWN`` frame) and waits
        ``timeout``; a worker that is dead, hung or being replaced is
        terminated.
        """
        if graceful:
            self._post(_SHUTDOWN)
            self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)
        self.conn.close()

    # -- lookups ---------------------------------------------------------

    def send_lookup(
        self,
        shard_id: int,
        replica: int,
        node_ids: np.ndarray,
        deadline_s: float,
    ) -> _SentLookup:
        """Send half of a lookup: put the request on the pipe.

        ``shard_id`` and ``replica`` name this worker in the errors the
        call can raise.  The deadline of the call starts here.  A worker
        that still owes the ack of an earlier, timed-out call is busy
        with that call (or about to write its reply) and is not reading
        its pipe, so nothing is written to it until those acks have been
        received and dropped — the host only ever writes to a worker
        that is reading, and a worker only ever writes to a host that
        will read, whatever the sizes of the request and the reply.  (A
        request larger than the pipe's buffer, sent to a worker that is
        hung, blocks here until the worker reads or dies; the deadline
        is judged afterwards.)

        Raises:
            ShardCrashError: the worker is dead or its pipe is closed.
            ShardTimeoutError: the owed acks did not arrive in time.
        """
        if not self.process.is_alive():
            raise ShardCrashError(
                shard_id,
                f"worker {replica} dead (exit {self.process.exitcode})",
            )
        last = _SentLookup(
            self,
            shard_id,
            replica,
            self.next_req,
            deadline_s,
            time.monotonic() + deadline_s,
        )
        if self.acked != last.req_id:
            self._await_ack(last)  # owed acks, dropped
        sent = last._replace(req_id=last.req_id + 1)
        ids = np.ascontiguousarray(node_ids, dtype=np.int64)
        try:
            self.conn.send_bytes(_HEAD.pack(_LOOKUP, sent.req_id, 0) + ids.data)
        except OSError:
            raise self._died(sent) from None
        self.next_req = sent.req_id
        return sent

    def finish_lookup(self, sent: _SentLookup) -> tuple[np.ndarray, int]:
        """Receive half of a lookup: the rows and the version they carry.

        The rows are a read-only view of the ack frame (no copy); a
        caller that writes copies first.

        Raises:
            ShardCrashError: the worker died (EOF) or reported an error.
            ShardTimeoutError: no ack within the call's deadline; an ack
                that has already arrived is never a timeout.
        """
        status, version, frame = self._await_ack(sent)
        if status != _OK:
            raise ShardCrashError(sent.shard_id, frame[_HEAD.size:].decode())
        rows = np.frombuffer(frame, np.float64, offset=_HEAD.size)
        return rows.reshape(-1, *self.row_shape), version

    def _died(self, sent: _SentLookup) -> ShardCrashError:
        self.process.join(timeout=_POLL_S)  # EOF can beat the exit status
        return ShardCrashError(
            sent.shard_id,
            f"worker {sent.replica} died mid-call"
            f" (exit {self.process.exitcode})",
        )

    def _await_ack(self, sent: _SentLookup) -> tuple[int, int, bytes]:
        """Receive acks up to ``sent.req_id``'s — its (status, version,
        frame); earlier ones are stale (their calls timed out) and
        dropped."""
        while True:
            remaining = sent.deadline_at - time.monotonic()
            try:
                if self.wait(_ms(min(_POLL_S, remaining))):
                    frame = self.conn.recv_bytes()
                    status, req_id, version = _HEAD.unpack_from(frame)
                    self.acked = req_id
                    if req_id == sent.req_id:
                        return status, version, frame
                    continue
            except (EOFError, OSError):
                raise self._died(sent) from None
            if remaining <= 0:
                raise ShardTimeoutError(sent.shard_id, sent.deadline_s)
            if not self.process.is_alive():
                raise self._died(sent)
