"""The shard transport, both ends of it: a mailbox in shared memory for
lookups, a pipe for control frames and wake-ups.

A :class:`~repro.shard.host.ShardHost` shares three things with each of
its worker processes through memory: the rows (the row segment), the
table version those rows are current to (an 8-byte watermark) and one
mailbox per worker, a named segment that lookups cross in both
directions.  Beside them runs one duplex ``Connection`` per worker.
This module is the worker's loop (:func:`shard_main`) and the host's
handle on it (:class:`_ShardWorker`), so the mailbox layout and every
frame are written once.

**The mailbox** (``shard-<pid>-<token>-box``, made and unlinked by the
host's handle, attached by name by the worker, as the row segment is)
is int64 words, then the ids, then the rows:

- the host's line, written by the host alone: ``req_seq`` (sequence
  number of the last request published), ``n_ids`` and ``host_parked``;
- the worker's line, one cache line on, written by the worker alone:
  ``reply_seq`` (of the last request answered), ``status`` (``OK`` or
  ``ERROR``), ``version``, ``worker_parked``, ``error_len``, ``heartbeat``;
- room for :data:`MAILBOX_IDS` int64 ids and as many float64 rows.

A lookup is one transaction per :data:`MAILBOX_IDS` ids (longer requests
run as consecutive transactions inside one deadline).  **Publish order:**
the host writes the ids and ``n_ids``, then ``req_seq``; the worker
gathers the rows straight into the mailbox (``ndarray.take(out=)``) —
or, if that raised, writes its UTF-8 text over them, cut to fit, and
``error_len`` — writes ``status`` and the watermark's ``version``, then
``reply_seq``.  An end that reads the other's sequence number therefore
reads what was written before it.  The host copies the rows out (a
read-only copy), or raises with the text.

**Memory ordering.**  Publication relies on x86-64 store order (stores
become visible in program order, loads are not reordered with other
loads), as the watermark already does; every word is an aligned 8-byte
store, never torn.  The one reordering x86-64 allows — a load passing
an earlier store — is what parking must rule out, and there both ends
run a store→load fence: an uncontended ``threading.Lock`` round trip,
whose locked instruction orders every earlier store before every later
load.

**Who parks and who rings.**  Both ends spin, then block.  A worker
that has just answered, and a host waiting on a reply, first spin on
the other end's sequence number — a memory read, no system call — for
up to :data:`SPIN_S` (the host for at most what is left of its
deadline).  Spinning burns a CPU, so :func:`spin_window` turns it on
only where the coordinator and every primary worker have a CPU each;
elsewhere the window is 0.  The window rides to each worker as a spawn
argument.

An end that blocks *parks*: it sets its parked word, fences, re-reads
the other end's sequence number and blocks on its pipe only if that has
not moved.  The other end, after publishing, fences and reads the
parked word, and writes a frame (``DOORBELL`` to a worker, ``WAKE`` to
the host) only when it is set.  Each side stores before it loads, so at
least one of them sees the other: a request is never left unseen by a
parked worker.  Even so a parked worker re-reads its mailbox on every
heartbeat-paced wake, so a lost doorbell would cost one idle interval,
never a hang.

**The pipe** carries frames that are a kind byte
(``Connection.send_bytes``), nothing pickled; the host reads only
``WAKE`` and EOF:

- ``DOORBELL`` / ``WAKE`` — the reader re-reads the mailbox;
- ``CRASH`` — hard-exit without replying (an injected ``shard_crash``);
  the host reads EOF;
- ``HANG`` — then float64 seconds; sleep without heartbeating or
  serving (an injected ``shard_hang``);
- ``MUTE`` — stop heartbeating but keep serving (an injected
  ``heartbeat_loss``, the supervisor's false-positive path);
- ``SHUTDOWN`` — clean shutdown.

A worker that sees a new request reads its pipe first, so a control
frame posted before a lookup is acted on before that lookup is served,
as when both went down one pipe.  Each end waits on its pipe with one
``select.poll`` object registered once (``Connection.poll`` builds a
selector per call); a ``poll`` owns no file descriptor.

There is no version message, and an update sends nothing at all — it
writes rows and watermark in place, and the next reply reads both.  The
version a reply carries is read, at reply time, from the host's shared
watermark — the same place and moment the rows come from, so a reply
can never pair fresh rows with an old version or the reverse.

**The drain-before-send rule.**  The host never publishes to a worker
that still owes a reply (one of a call that timed out): it waits for
that reply first, inside the new call's deadline, and drops it.  The
mailbox has one ids area and one rows area, so this is what keeps the
host from overwriting ids the worker has yet to read, and the worker
from overwriting rows under a newer request.

Liveness is the ``heartbeat`` word, bumped on every park and, while
the worker spins, every reply — while idle the pipe poll's timeout
paces the bumps, so a healthy-but-quiet shard still beats and a hung
one visibly does not — plus EOF: a process that dies closes its end of
the connection, which the other end reads at once.
"""

from __future__ import annotations

import math
import os
import secrets
import select
import struct
import threading
import time
from multiprocessing import shared_memory, util
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.formats.csdb import (
    SharedArraySpec,
    attach_segment,
    attach_shared_array,
    unlink_segment,
)
from repro.shard.errors import ShardCrashError, ShardTimeoutError

#: Exit code of an injected shard crash (asserted by the crash test).
SHARD_CRASH_EXIT_CODE = 23

#: Wall seconds between a worker's heartbeat bumps while idle.
HEARTBEAT_INTERVAL_S = 0.02

#: Poll granularity while waiting on a shard reply (fast crash detection).
_POLL_S = 0.02

#: Wall seconds an end spins on the mailbox before it parks: a worker
#: after each reply, the host before each reply.
SPIN_S = 1e-3

#: Ids (and rows) one mailbox transaction carries.
MAILBOX_IDS = 4096

#: What follows the kind byte of a HANG frame: the seconds to sleep.
_SECONDS = struct.Struct("<d")

_DOORBELL, _WAKE, _CRASH, _HANG, _MUTE, _SHUTDOWN = range(6)  # frame kinds
_OK, _ERROR = range(2)  # a reply's status

# The mailbox's int64 words: the host's line, then the worker's.
_REQ_SEQ, _N_IDS, _HOST_PARKED = 0, 1, 2
_REPLY_SEQ, _STATUS, _VERSION, _WORKER_PARKED = 8, 9, 10, 11
_ERROR_LEN, _HEARTBEAT = 12, 13
_N_WORDS = 16

#: Spin iterations between two reads of the pipe and the clock.
_SPIN_CHECK = 32


class _Mailbox:
    """Views of one mailbox segment: ``words`` (a memoryview of int64),
    ``ids`` and ``rows`` (ndarrays of :data:`MAILBOX_IDS` entries) and
    ``text`` (the rows area's bytes, where an error's text goes)."""

    __slots__ = ("segment", "words", "ids", "rows", "text")

    def __init__(self, segment, row_shape: tuple[int, ...]) -> None:
        self.segment = segment
        self.words = segment.buf[: _N_WORDS * 8].cast("q")
        self.ids = np.ndarray(
            MAILBOX_IDS, np.int64, segment.buf, _N_WORDS * 8
        )
        self.rows = np.ndarray(
            (MAILBOX_IDS, *row_shape),
            np.float64,
            segment.buf,
            (_N_WORDS + MAILBOX_IDS) * 8,
        )
        self.text = self.rows.view(np.uint8).reshape(-1)

    @staticmethod
    def size(row_shape: tuple[int, ...]) -> int:
        return (_N_WORDS + MAILBOX_IDS * (1 + math.prod(row_shape))) * 8

    def close(self) -> None:
        """Drop the views, then the mapping."""
        self.words.release()
        self.ids = self.rows = self.text = None
        self.segment.close()


def _input_waiter(conn) -> Callable[[int], list]:
    """``wait(ms)``: one ``select.poll`` on ``conn``'s input, registered
    once; returns the ready events (empty on timeout)."""
    poller = select.poll()
    poller.register(conn.fileno(), select.POLLIN)
    return poller.poll


def _ms(seconds: float) -> int:
    """A poll timeout in whole milliseconds, rounded up (never a spin)."""
    return max(0, math.ceil(seconds * 1e3))


def usable_cpus(cgroup: str = "/sys/fs/cgroup") -> int:
    """The CPUs this process may run on: its affinity mask, capped by a
    CFS quota (``cpu.max``, cgroup v2, or ``cpu/cpu.cfs_quota_us`` over
    ``cpu/cpu.cfs_period_us``, v1) where one is set and readable."""
    try:
        n_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity on this OS
        n_cpus = os.cpu_count() or 1
    root = Path(cgroup)
    try:
        quota, period = (root / "cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota = (root / "cpu" / "cpu.cfs_quota_us").read_text()
            period = (root / "cpu" / "cpu.cfs_period_us").read_text()
        except OSError:
            return n_cpus
    if quota.strip() in ("max", "-1"):
        return n_cpus
    return min(n_cpus, int(quota) // int(period))


def spin_window(n_shards: int, n_cpus: int) -> float:
    """Seconds each end of a shard's transport spins before it parks.

    :data:`SPIN_S` when the coordinator and the primary worker of each
    of ``n_shards`` shards can spin on a CPU of its own
    (``1 + n_shards <= n_cpus``), else 0: a spinner that shares a CPU
    takes it from the process it waits on (on one CPU, a spinning op
    took 11× as long as a blocking one).  Replicas are not counted: a
    worker spins only after a reply, and a replica replies only to a
    hedge, which its primary has stopped answering.
    """
    return SPIN_S if 1 + n_shards <= n_cpus else 0.0


# -- the worker's end -------------------------------------------------------


def shard_main(
    spec: SharedArraySpec,
    row_start: int,
    conn,
    watermark,
    spin_s: float,
    box_name: str,
) -> None:
    """Entry point of one shard process (also used by replicas).

    The worker serves rows ``[row_start, row_start + len(segment))``;
    ``conn`` is its end of the duplex pipe, ``watermark`` the host's
    shared version value, ``spin_s`` its spin window after a reply and
    ``box_name`` its mailbox segment.
    """
    view, segment = attach_shared_array(spec)
    box = _Mailbox(attach_segment(box_name), tuple(spec.shape[1:]))
    words = box.words
    wait = _input_waiter(conn)
    fence = threading.Lock()
    idle_ms = _ms(HEARTBEAT_INTERVAL_S)
    muted = False
    served = 0
    spinning = False
    spin_until = 0.0
    spins = 0
    try:
        while True:
            seq = words[_REQ_SEQ]
            if seq == served:
                if spinning:
                    # The mailbox every round; the pipe and the clock
                    # every _SPIN_CHECK rounds.
                    spins += 1
                    if spins % _SPIN_CHECK:
                        continue
                    spinning = time.monotonic() < spin_until
                    ready = wait(0)
                else:
                    # Park: block on the pipe unless a request slipped
                    # in after the last read.
                    if not muted:
                        words[_HEARTBEAT] += 1
                    words[_WORKER_PARKED] = 1
                    with fence:  # store→load: worker_parked, then req_seq
                        pass
                    ready = words[_REQ_SEQ] == served and wait(idle_ms)
                    words[_WORKER_PARKED] = 0
                if not ready:
                    continue
            elif not wait(0):
                # A new request, and no control frame posted before it.
                n_ids = words[_N_IDS]
                try:
                    view.take(
                        box.ids[:n_ids] - row_start, 0, box.rows[:n_ids]
                    )
                    words[_STATUS] = _OK
                except Exception as exc:  # noqa: BLE001 - forwarded
                    text = f"{type(exc).__name__}: {exc}".encode()
                    text = text[: box.text.size]  # cut to fit
                    box.text[: len(text)] = np.frombuffer(text, np.uint8)
                    words[_ERROR_LEN] = len(text)
                    words[_STATUS] = _ERROR
                words[_VERSION] = watermark.value
                words[_REPLY_SEQ] = served = seq
                with fence:  # store→load: reply_seq, then host_parked
                    pass
                if words[_HOST_PARKED]:
                    try:
                        conn.send_bytes(bytes((_WAKE,)))
                    except OSError:
                        return
                if spin_s:
                    # A spinning worker may not park for a while: beat.
                    if not muted:
                        words[_HEARTBEAT] += 1
                    spinning, spin_until = True, time.monotonic() + spin_s
                continue
            # A frame is waiting: a DOORBELL needs nothing more.
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                return  # the host is gone
            kind = frame[0]
            if kind == _SHUTDOWN:
                return
            if kind == _CRASH:
                os._exit(SHARD_CRASH_EXIT_CODE)
            if kind == _HANG:
                time.sleep(_SECONDS.unpack_from(frame, 1)[0])
            elif kind == _MUTE:
                muted = True
    finally:
        del view
        try:
            box.close()
            segment.close()
        except BufferError:  # pragma: no cover - view still exported
            pass


# -- the host's end ---------------------------------------------------------


class _SentLookup(NamedTuple):
    """The send half of one lookup, handed to the receive half:
    ``req_id`` is the sequence number of the transaction in flight,
    which carries ``ids[start:start + MAILBOX_IDS]``."""

    worker: "_ShardWorker"
    shard_id: int
    replica: int
    req_id: int
    deadline_s: float
    deadline_at: float
    ids: np.ndarray | None = None
    start: int = 0


class _ShardWorker:
    """Owner-side handle of one shard process (primary or replica).

    ``next_req`` is the sequence number of the last request published
    and ``acked`` that of the last reply received; they differ only
    while a call is in flight or after one timed out, and the difference
    is what the worker still owes (see :meth:`send_lookup`).
    """

    __slots__ = (
        "process", "conn", "wait", "spin_s", "row_shape", "next_req",
        "acked", "box", "box_name", "fence",
    )

    def __init__(self, ctx, spec, row_start, watermark, spin_s):
        self.row_shape = tuple(spec.shape[1:])
        self.box_name = f"shard-{os.getpid()}-{secrets.token_hex(4)}-box"
        self.box = _Mailbox(
            shared_memory.SharedMemory(
                name=self.box_name,
                create=True,
                size=_Mailbox.size(self.row_shape),
            ),
            self.row_shape,
        )
        self.conn = child_conn = None
        self.fence = threading.Lock()
        self.spin_s = spin_s
        self.next_req = 0
        self.acked = 0
        try:
            self.conn, child_conn = ctx.Pipe()
            # Processes forked from here on, this worker too, close their
            # copy of the host's end: the host's death is EOF to them.
            util.register_after_fork(self.conn, type(self.conn).close)
            self.wait = _input_waiter(self.conn)
            self.process = ctx.Process(
                target=shard_main,
                args=(
                    spec, row_start, child_conn, watermark, spin_s,
                    self.box_name,
                ),
                daemon=True,
            )
            self.process.start()
        except BaseException:
            if self.conn is not None:
                self.conn.close()
            self._unlink_box()
            raise
        finally:
            # The child holds the only copy of its end from here on, so
            # its death — however it dies — reads as EOF on ours.
            if child_conn is not None:
                child_conn.close()

    def _unlink_box(self) -> None:
        self.box.close()
        unlink_segment(self.box_name)

    def heartbeat(self) -> int:
        """The heartbeat; only while the worker runs (``stop`` closes it)."""
        return self.box.words[_HEARTBEAT]

    # -- unacked control messages ---------------------------------------

    def _post(self, kind: int, payload: bytes = b"") -> None:
        """Send a control frame; a dead worker ignores it."""
        if self.process.is_alive():
            try:
                self.conn.send_bytes(bytes((kind,)) + payload)
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
        """End the process, close the pipe and unlink the mailbox.

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
        self._unlink_box()

    # -- lookups ---------------------------------------------------------

    def send_lookup(
        self,
        shard_id: int,
        replica: int,
        node_ids: np.ndarray,
        deadline_s: float,
    ) -> _SentLookup:
        """Send half of a lookup: publish the first transaction.

        ``shard_id`` and ``replica`` name this worker in the errors the
        call can raise.  The deadline of the call starts here.  A worker
        that still owes the reply of an earlier, timed-out call may still
        read the mailbox's ids or write its rows, so nothing is
        published to it until that reply has arrived and been dropped.

        Raises:
            ShardCrashError: the worker is dead or its pipe is closed.
            ShardTimeoutError: the owed reply did not arrive in time.
        """
        if not self.process.is_alive():
            raise ShardCrashError(
                shard_id,
                f"worker {replica} dead (exit {self.process.exitcode})",
            )
        deadline_at = time.monotonic() + deadline_s
        if self.acked != self.next_req:
            self._await_reply(  # the owed reply, dropped
                _SentLookup(
                    self, shard_id, replica, self.next_req, deadline_s,
                    deadline_at,
                )
            )
        sent = _SentLookup(
            self,
            shard_id,
            replica,
            self.next_req + 1,
            deadline_s,
            deadline_at,
            np.ascontiguousarray(node_ids, dtype=np.int64),
        )
        self._publish(sent)
        return sent

    def _publish(self, sent: _SentLookup) -> None:
        """Publish ``sent``'s transaction, ``sent.ids[sent.start:]`` up
        to :data:`MAILBOX_IDS` of them; ring the worker if it is parked."""
        chunk = sent.ids[sent.start : sent.start + MAILBOX_IDS]
        words = self.box.words
        self.box.ids[: len(chunk)] = chunk
        words[_N_IDS] = len(chunk)
        words[_REQ_SEQ] = self.next_req = sent.req_id
        with self.fence:  # store→load: req_seq, then worker_parked
            pass
        if words[_WORKER_PARKED]:
            self._ring(sent)

    def _ring(self, sent: _SentLookup) -> None:
        """Wake a parked worker: a DOORBELL frame."""
        try:
            self.conn.send_bytes(bytes((_DOORBELL,)))
        except OSError:
            raise self._died(sent) from None

    def finish_lookup(self, sent: _SentLookup) -> tuple[np.ndarray, int]:
        """Receive half of a lookup: the rows and the version they carry.

        The rows are a read-only copy out of the mailbox.  A request
        longer than :data:`MAILBOX_IDS` ids publishes its next
        transaction as each reply arrives, all inside the one deadline.

        Raises:
            ShardCrashError: the worker died (EOF) or reported an error.
            ShardTimeoutError: no reply within the call's deadline; a
                reply that has already arrived is never a timeout.
        """
        n_ids = len(sent.ids)
        rows = None
        while True:
            status, version = self._await_reply(sent)
            if status != _OK:
                text = self.box.text[: self.box.words[_ERROR_LEN]]
                raise ShardCrashError(
                    sent.shard_id, text.tobytes().decode(errors="replace")
                )
            n_chunk = min(MAILBOX_IDS, n_ids - sent.start)
            if n_chunk == n_ids:
                rows = self.box.rows[:n_chunk].copy()
                break
            if rows is None:
                rows = np.empty((n_ids, *self.row_shape))
            rows[sent.start : sent.start + n_chunk] = self.box.rows[:n_chunk]
            if sent.start + n_chunk == n_ids:
                break
            sent = sent._replace(
                req_id=sent.req_id + 1, start=sent.start + n_chunk
            )
            self._publish(sent)
        rows.flags.writeable = False
        return rows, version

    def _died(self, sent: _SentLookup) -> ShardCrashError:
        self.process.join(timeout=_POLL_S)  # EOF can beat the exit status
        return ShardCrashError(
            sent.shard_id,
            f"worker {sent.replica} died mid-call"
            f" (exit {self.process.exitcode})",
        )

    def _read_frame(self, sent: _SentLookup) -> None:
        """Take one frame, a WAKE, off the pipe; EOF is the worker's
        death."""
        try:
            self.conn.recv_bytes()
        except (EOFError, OSError):
            raise self._died(sent) from None

    def _await_reply(self, sent: _SentLookup) -> tuple[int, int]:
        """Wait for the reply to ``sent.req_id``: its (status, version).

        Spins for the window (reading the pipe, for EOF, every
        :data:`_SPIN_CHECK` rounds), then parks.
        """
        words, seq = self.box.words, sent.req_id
        if self.spin_s and words[_REPLY_SEQ] != seq:
            until = min(time.monotonic() + self.spin_s, sent.deadline_at)
            spins = 0
            while words[_REPLY_SEQ] != seq:
                spins += 1
                if spins % _SPIN_CHECK:
                    continue
                if self.wait(0):
                    self._read_frame(sent)
                if time.monotonic() >= until:
                    break
        while words[_REPLY_SEQ] != seq:
            remaining = sent.deadline_at - time.monotonic()
            words[_HOST_PARKED] = 1
            with self.fence:  # store→load: host_parked, then reply_seq
                pass
            ready = words[_REPLY_SEQ] != seq and self.wait(
                _ms(min(_POLL_S, remaining))
            )
            words[_HOST_PARKED] = 0
            if ready:
                self._read_frame(sent)
                continue
            if words[_REPLY_SEQ] == seq:
                break
            if remaining <= 0:
                raise ShardTimeoutError(sent.shard_id, sent.deadline_s)
            if not self.process.is_alive():
                raise self._died(sent)
        self.acked = seq
        return words[_STATUS], words[_VERSION]
