"""In-memory spans recorded from the benchmark's own wrappers.

The traced pass rebinds the public callables each layer exposes (class
methods, and the module attributes their callers resolve, e.g.
``repro.prone.model.randomized_tsvd``) to thin wrappers that append
``[name, start, end, parent, sample, attrs]`` rows to one list.  Nothing
under ``src/`` is edited; :meth:`Recorder.install` and
:meth:`Recorder.remove` put the wrappers in and take them out again.

A span's *self time* is its duration minus the durations of its direct
children.  Only the recording thread of the recording process appends
spans, so children never overlap and the self times of a root's subtree
sum to the root's duration by construction.  Kernels that run on pool
threads or in worker processes are therefore visible at call level only
(the ``parallel.*`` span around them).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

NAME, START, END, PARENT, SAMPLE, ATTRS = range(6)

#: Span name -> the per-layer ledger metric its self time is charged to.
#: Every span name seen under a primary operation is listed (a name that
#: is not counts as the root's own time), so the ledger sums to the root.
LEDGER = {
    "bench.op": "bench.root_self_s",
    "formats.kernel": "formats.kernel_s",
    "formats.build": "formats.build_s",
    "formats.transpose": "formats.transpose_s",
    "core.eata.allocate": "core.eata.allocate_s",
    "core.wofp.plan": "core.wofp.plan_s",
    "core.spmm.multiply": "core.spmm.self_s",
    "parallel.serial": "parallel.dispatch_self_s",
    "parallel.shared": "parallel.dispatch_self_s",
    "parallel.threads": "parallel.dispatch_self_s",
    "prone.tsvd": "prone.tsvd_self_s",
    "prone.chebyshev": "prone.chebyshev_self_s",
    "prone.operators": "prone.operators_s",
    "prone.densify": "prone.densify_s",
    "core.embedding.embed": "core.embedding.self_s",
    "core.embedding.stage.graph_read": "core.embedding.self_s",
    "core.embedding.stage.factorization": "core.embedding.self_s",
    "core.embedding.stage.propagation": "core.embedding.self_s",
    "memsim.checkpoint_append": "memsim.checkpoint_append_op_s",
    "serve.run_trace": "serve.self_s",
    "serve.backend": "serve.backend_self_s",
    "shard.lookup": "shard.lookup_self_s",
    "shard.route_split": "shard.route_split_s",
}
LEDGER_METRICS = tuple(dict.fromkeys(LEDGER.values()))


def _multiply_attrs(engine, matrix, dense, *args, **kwargs):
    shape = getattr(dense, "shape", ())
    return {
        "nnz": int(matrix.nnz),
        "rows": int(matrix.n_rows),
        "d": int(shape[1]) if len(shape) == 2 else 1,
    }


def _lookup_attrs(manager, node_ids, *args, **kwargs):
    return {"rows": len(node_ids)}


def _targets():
    """(owner, attribute, span name, options) for every wrapped callable."""
    import repro.formats.convert as convert
    import repro.prone.model as prone_model
    from repro.core.eata import EntropyAwareAllocator
    from repro.core.embedding import OMeGaEmbedder, PipelineRun
    from repro.core.spmm import SpMMEngine
    from repro.core.wofp import WorkloadPrefetcher
    from repro.formats.csdb import CSDBMatrix
    from repro.memsim.persistence import StageCheckpointStore
    from repro.parallel.scheduler import SimulatedExecutor
    from repro.parallel.shared import SharedMemoryExecutor
    from repro.parallel.threads import ThreadsExecutor
    from repro.serve.backend import EmbeddingBackend
    from repro.serve.server import EmbeddingServer
    from repro.serve.sharded import ShardedEmbeddingBackend
    from repro.shard.ranges import ShardRoutingTable
    from repro.shard.store import EmbeddingShardManager

    return [
        (CSDBMatrix, "spmm_rows", "formats.kernel", {}),
        (CSDBMatrix, "from_csr", "formats.build", {}),
        (CSDBMatrix, "from_coo", "formats.build", {}),
        (convert, "edges_to_csr", "formats.build", {}),
        (CSDBMatrix, "transpose", "formats.transpose", {}),
        (EntropyAwareAllocator, "allocate", "core.eata.allocate", {}),
        (WorkloadPrefetcher, "plan", "core.wofp.plan", {}),
        (SpMMEngine, "multiply", "core.spmm.multiply",
         {"attrs": _multiply_attrs}),
        (SimulatedExecutor, "run_partitions", "parallel.serial", {}),
        (SharedMemoryExecutor, "run_partitions", "parallel.shared", {}),
        (ThreadsExecutor, "run_partitions", "parallel.threads", {}),
        (prone_model, "randomized_tsvd", "prone.tsvd", {}),
        (prone_model, "chebyshev_gaussian_filter", "prone.chebyshev", {}),
        (prone_model, "smf_matrix", "prone.operators", {}),
        (prone_model, "chebyshev_operator", "prone.operators", {}),
        (prone_model, "add_identity", "prone.operators", {}),
        (prone_model, "densify_embedding", "prone.densify", {}),
        (OMeGaEmbedder, "embed_edges", "core.embedding.embed", {}),
        (PipelineRun, "run_next", "core.embedding.stage",
         {"suffix_result": True}),
        (StageCheckpointStore, "append", "memsim.checkpoint_append", {}),
        (EmbeddingServer, "run_trace", "serve.run_trace", {}),
        (ShardedEmbeddingBackend, "serve", "serve.backend", {}),
        (EmbeddingBackend, "serve_cached", "serve.backend", {}),
        (EmbeddingShardManager, "lookup", "shard.lookup",
         {"attrs": _lookup_attrs}),
        (ShardRoutingTable, "split", "shard.route_split", {}),
        (EmbeddingShardManager, "apply_update", "shard.apply_update", {}),
        (EmbeddingShardManager, "checkpoint_all", "shard.checkpoint_all", {}),
    ]


class Recorder:
    """Span list plus the installed wrappers that feed it."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self.enabled = False
        self.sample = -1
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._tid = threading.get_ident()
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _recording(self) -> bool:
        return (
            self.enabled
            and threading.get_ident() == self._tid
            and os.getpid() == self._pid
        )

    def begin(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.sample, attrs]
        )
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the runner itself (the roots)."""
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    @contextmanager
    def recording(self, sample: int):
        """Turn recording on for one sample."""
        self.enabled, self.sample = True, sample
        try:
            yield
        finally:
            self.enabled = False

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name, attrs=None, suffix_result=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording():
                return fn(*args, **kwargs)
            index = self.begin(
                name, attrs(*args, **kwargs) if attrs is not None else None
            )
            try:
                result = fn(*args, **kwargs)
                if suffix_result:
                    self.spans[index][NAME] = f"{name}.{result}"
                return result
            finally:
                self.end(index)

        return wrapper

    def install(self) -> None:
        """Rebind every target to its wrapper (idempotent)."""
        if self._originals:
            return
        for owner, attr, name, options in _targets():
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, **options))
            else:
                wrapped = self._wrap(raw, name, **options)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        """Put every original callable back."""
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals = []

    # -- output ----------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "workload": self.workload,
                    "sample": span[SAMPLE],
                }
                if span[ATTRS]:
                    record["attrs"] = span[ATTRS]
                handle.write(json.dumps(record) + "\n")


def load(path: Path) -> list[list]:
    """Read a spans file back into recorder rows."""
    spans = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        r = json.loads(line)
        spans.append(
            [r["name"], r["start"], r["end"], r["parent"], r["sample"],
             r.get("attrs")]
        )
    return spans


def durations(spans: list[list]) -> list[float]:
    return [s[END] - s[START] for s in spans]


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the part covered by direct children, per span."""
    selfs = durations(spans)
    for span in spans:
        if span[PARENT] >= 0:
            selfs[span[PARENT]] -= span[END] - span[START]
    return selfs


def root_of(spans: list[list]) -> list[int]:
    """Index of the root span of each span's tree (parents come first)."""
    roots = []
    for index, span in enumerate(spans):
        roots.append(index if span[PARENT] < 0 else roots[span[PARENT]])
    return roots


def ledger(spans: list[list], root_name: str = "bench.op") -> dict[str, float]:
    """Total self seconds per ledger metric over the ``root_name`` trees."""
    totals = dict.fromkeys(LEDGER_METRICS, 0.0)
    roots = root_of(spans)
    for span, root, self_s in zip(spans, roots, self_times(spans)):
        if spans[root][NAME] == root_name:
            totals[LEDGER.get(span[NAME], "bench.root_self_s")] += self_s
    return totals
