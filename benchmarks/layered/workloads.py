"""The five workloads: inputs from the seed, timed rounds, output checks.

A workload is set up from ``--seed`` (the seed drives input generation
only; the program receives the generated inputs), then runs closed-loop
*rounds*.  One round is the workload's primary operation, its side
operation and their yardsticks, back to back, so every metric's samples
span the whole run and each yardstick is paired with the operation it
normalises.  Checks run outside the timed regions; a failed check fails
the workload.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from pathlib import Path

import numpy as np
import scipy.sparse

import hostprobe
import spans as sp
import yardstick
from repro.core import ExecBackend, OMeGaConfig, OMeGaEmbedder, ParallelConfig, SpMMEngine
from repro.eval.linkpred import link_prediction_auc
from repro.eval.splits import sample_negative_edges, train_test_edge_split
from repro.formats.convert import csdb_to_scipy, edges_to_csdb
from repro.graphs import rmat_edges
from repro.memsim.clock import VirtualClock
from repro.obs import TelemetrySession
from repro.obs.live import TelemetryStream
from repro.parallel import shutdown_shared_executors, shutdown_threads_executors
from repro.prone.model import ProNEParams, prone_embed
from repro.serve import EmbeddingServer, RequestTrace, ServePolicy
from repro.serve.sharded import ShardedEmbeddingBackend
from repro.shard.store import ShardPolicy
from repro.shard.supervisor import SupervisorPolicy

NPROC = hostprobe.nproc()
N_WORKERS = min(2, NPROC)
N_SHARDS = max(1, min(4, NPROC - 1))

OUT_DIR = Path(__file__).resolve().parent / "out"

EDGE_FACTOR = 16.0
N_THREADS = 8
CAPACITY_SCALE = 512

#: Root span names of the traced pass, by kind of timed call.
ROOTS = {
    "op": "bench.op",
    "side": "bench.side",
    "shared": "bench.arm.shared",
    "threads": "bench.arm.threads",
    "cold": "bench.arm.cold",
    "warm": "bench.arm.warm",
    "arm": "bench.arm",
}


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail(values) -> tuple[str, float] | None:
    """The highest of p75/p90/p95/p99 with >= 10 samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100.0 >= 10:
            return f"p{q}", quantile(values, q)
    return None


class Workload:
    """Shared round bookkeeping; subclasses supply the program calls."""

    name = ""
    #: Rounds run whatever ``--seconds`` says (the sample-count floor):
    #: untraced, in the traced pass (half of them traced), and the fixed
    #: round count of ``--quick``.
    min_rounds = 30
    traced_min_rounds = 4
    quick_rounds = 2
    #: Yardstick repetitions per round: products (sized to >= ~5 % of the
    #: op) and graph builds (>= ~20 % of the side op).
    yard_k = 1
    yard_build_k = 2
    #: Side-op repetitions per sample (a very short op is repeated).
    side_k = 1
    #: Requests (or other work items) in one primary operation.
    work_per_op = 1
    setup_reps = 3

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        self.failures: list[str] = []
        self.attempted = 0
        self.samples: dict[str, list[float]] = {}
        self.traced: dict[str, list[float]] = {}
        self.info: dict = {"n_workers": N_WORKERS, "n_shards": N_SHARDS}
        self.yard_a = self.yard_b = self.yard_coo = None

    # -- hooks -----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def once(self) -> None:
        """One-off quality checks after the last set-up (not repeated)."""

    def round(self, index: int, rec: sp.Recorder | None = None) -> None:
        raise NotImplementedError

    def arms(self, rec: sp.Recorder) -> dict[str, float]:
        """Layer-only arms of the traced pass."""
        return {}

    def teardown(self) -> None:
        self.yard_a = self.yard_b = self.yard_coo = None
        gc.collect()

    def finish_checks(self) -> None:
        """Checks that need the torn-down state (after ``teardown``)."""

    def sim_ms(self) -> float:
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        """Per-layer values read from program results, not from spans."""
        return {}

    # -- helpers ---------------------------------------------------------

    def floor(self, traced: bool) -> int:
        """Rounds a pass always runs."""
        if self.quick:
            return self.quick_rounds * (2 if traced else 1)
        return self.traced_min_rounds if traced else self.min_rounds

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.failures:
            self.failures.append(message)

    def timed(self, kind: str, fn, rec: sp.Recorder | None, sample: int):
        """Run ``fn`` once, timed; inside a root span when traced."""
        self.attempted += 1
        if rec is None:
            start = time.perf_counter()
            out = fn()
            self.samples.setdefault(kind, []).append(
                time.perf_counter() - start
            )
            return out
        with rec.recording(sample), rec.span(ROOTS[kind]):
            start = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - start
        self.traced.setdefault(kind, []).append(elapsed)
        return out

    def build_graph(self, rec, index: int) -> None:
        """The embed/spmm side op: edge list -> CSDB (the graph-read path)."""
        def build():
            for _ in range(self.side_k):
                edges_to_csdb(self.edges, self.n)

        self.timed("side", build, rec, index)

    def set_yardstick(self, edges, adjacency, dim: int) -> None:
        """The plain library forms of the op and of the graph build."""
        self.yard_a = csdb_to_scipy(adjacency)
        self.yard_b = np.random.default_rng(self.seed).standard_normal(
            (adjacency.n_cols, dim)
        )
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        self.yard_coo = (np.ones(len(src)), (src, dst))

    def yard_products(self) -> float:
        """Seconds for ``yard_k`` scipy CSR products on the workload's matrix."""
        start = time.perf_counter()
        for _ in range(self.yard_k):
            self.yard_a @ self.yard_b
        return time.perf_counter() - start

    def yard_builds(self) -> float:
        """Seconds for ``yard_build_k`` scipy COO -> CSR builds of the graph."""
        shape = self.yard_a.shape
        start = time.perf_counter()
        for _ in range(self.yard_build_k):
            scipy.sparse.coo_matrix(self.yard_coo, shape=shape).tocsr()
        return time.perf_counter() - start

    def yard_seconds(self) -> tuple[float, float]:
        """The yardstick, timed now: (for the op, for the side op)."""
        return self.yard_products(), self.yard_builds()

    def yardstick(self, rec, side_seconds: float | None = None) -> None:
        """Time the yardstick and pair it with this round's op and side.

        ``side_seconds`` overrides the last side sample (for a round
        that runs the side op many times).
        """
        for_op, for_side = self.yard_seconds()
        target = self.samples if rec is None else self.traced
        if side_seconds is None:
            side_seconds = target["side"][-1]
        target.setdefault("yard", []).append(for_op)
        target.setdefault("op_rel", []).append(for_op / target["op"][-1])
        target.setdefault("side_rel", []).append(for_side / side_seconds)


class EmbedWorkload(Workload):
    """``OMeGaEmbedder.embed_edges`` on an R-MAT graph (Fig. 12 path)."""

    def __init__(self, seed, quick, name, scale, dim, yard_k, yard_build_k,
                 side_k, auc_floor, min_rounds, setup_reps, tax_pairs):
        super().__init__(seed, quick)
        self.name = name
        self.setup_reps = setup_reps
        self.side_k = side_k
        self.tax_pairs = min(tax_pairs, 2) if quick else tax_pairs
        self.scale = min(scale, 9) if quick else scale
        self.dim = dim
        self.yard_k = yard_k
        self.yard_build_k = yard_build_k
        self.auc_floor = auc_floor
        self.min_rounds = min_rounds
        self.result = None
        self.auc = 0.0

    def setup(self) -> None:
        self.n = 1 << self.scale
        self.edges = rmat_edges(self.scale, EDGE_FACTOR, seed=self.seed)
        self.config = OMeGaConfig(
            n_threads=N_THREADS, dim=self.dim, capacity_scale=CAPACITY_SCALE
        )
        adjacency = edges_to_csdb(self.edges, self.n)
        reference = prone_embed(
            adjacency, ProNEParams(dim=self.dim, seed=self.config.seed)
        )
        self.ref_sha = sha256(reference)
        self.set_yardstick(self.edges, adjacency, self.dim)
        self.info.update(n_nodes=self.n, n_edges=len(self.edges),
                         dim=self.dim, side_k=self.side_k)
        self._check(self._embed())  # warm-up

    def once(self) -> None:
        # Link-prediction AUC on a 10 % held-out split: the embedding is
        # useful, not merely reproducible.
        train, test = train_test_edge_split(self.edges, 0.1, seed=self.seed)
        negatives = sample_negative_edges(
            self.edges, self.n, len(test), seed=self.seed
        )
        embedding = OMeGaEmbedder(self.config).embed_edges(
            train, self.n
        ).embedding
        self.auc = link_prediction_auc(embedding, test, negatives)
        if not self.quick:
            self.check(
                self.auc >= self.auc_floor,
                f"link-prediction AUC {self.auc:.4f} < floor {self.auc_floor}",
            )

    def _embed(self, **telemetry):
        return OMeGaEmbedder(self.config, **telemetry).embed_edges(
            self.edges, self.n
        )

    def _check(self, result) -> None:
        embedding = result.embedding
        self.check(embedding.shape == (self.n, self.dim), "embedding shape")
        self.check(bool(np.isfinite(embedding).all()), "embedding not finite")
        self.check(
            sha256(embedding) == self.ref_sha,
            "embedding differs from prone_embed reference (SHA-256)",
        )
        if self.result is not None:
            self.check(
                result.sim_seconds == self.result.sim_seconds,
                "sim_seconds changed between samples",
            )
        self.result = result

    def round(self, index, rec=None) -> None:
        result = self.timed("op", self._embed, rec, index)
        self.build_graph(rec, index)
        self.yardstick(rec)
        self._check(result)

    def arms(self, rec) -> dict[str, float]:
        if not self.tax_pairs:
            return {}
        # Telemetry tax: a TelemetrySession tracer + metrics registry
        # against the default NullTracer, alternating.
        plain, taxed = [], []
        for _ in range(self.tax_pairs):
            start = time.perf_counter()
            self._embed()
            plain.append(time.perf_counter() - start)
            session = TelemetrySession()
            start = time.perf_counter()
            self._embed(tracer=session.tracer, metrics=session.metrics)
            taxed.append(time.perf_counter() - start)
        return {
            "obs.embed_tax_fraction":
                statistics.median(taxed) / statistics.median(plain) - 1.0
        }

    def teardown(self) -> None:
        self.edges = None
        super().teardown()

    def sim_ms(self) -> float:
        return self.result.sim_seconds * 1e3

    def layer_extras(self) -> dict[str, float]:
        r = self.result
        hits = [m.mean_hit_fraction for m in r.spmm_results]
        return {
            "prone.n_spmm": r.n_spmm,
            "memsim.sim_op_s": r.sim_seconds,
            "memsim.sim_spmm_s": r.spmm_seconds,
            "memsim.sim_serial_s": r.serial_seconds,
            "core.wofp.hit_fraction": sum(hits) / len(hits),
            "bench.quality_auc": self.auc,
        }


class SpmmWorkload(Workload):
    """Repeated ``SpMMEngine.multiply`` on one CSDB matrix (Fig. 16)."""

    ARMS = {
        "op": (ExecBackend.SIMULATED, 1),
        "shared": (ExecBackend.SHARED_MEMORY, N_WORKERS),
        "threads": (ExecBackend.THREADS, N_WORKERS),
    }

    def __init__(self, seed, quick, name, d, yard_k):
        super().__init__(seed, quick)
        self.name = name
        self.d = d
        self.yard_k = yard_k
        self.scale = 10 if quick else 14
        self.result = None
        self.submit_s: list[float] = []
        self.shared_stats: dict[str, float] = {}

    def _engine(self, kind: str) -> SpMMEngine:
        backend, n_workers = self.ARMS[kind]
        return SpMMEngine(
            OMeGaConfig(
                n_threads=N_THREADS,
                dim=self.d,
                capacity_scale=CAPACITY_SCALE,
                parallel=ParallelConfig(backend=backend, n_workers=n_workers),
            )
        )

    def setup(self) -> None:
        self.n = 1 << self.scale
        self.edges = rmat_edges(self.scale, EDGE_FACTOR, seed=self.seed)
        self.a = edges_to_csdb(self.edges, self.n)
        self.set_yardstick(self.edges, self.a, self.d)
        self.b = self.yard_b
        self.engines = {kind: self._engine(kind) for kind in self.ARMS}
        self.info.update(n_nodes=self.n, nnz=self.a.nnz, d=self.d)
        # Correctness reference and one warm-up per arm.
        reference = self.yard_a @ self.b
        self.ref_out = self.engines["op"].multiply(self.a, self.b).output
        # atol from the dtype and scale: sums that nearly cancel have no
        # relative accuracy to speak of.
        self.check(
            np.allclose(
                self.ref_out, reference, rtol=1e-9,
                atol=1e-9 * float(np.abs(reference).max()),
            ),
            "serial output not allclose to the scipy product (rtol 1e-9)",
        )
        for kind in ("shared", "threads"):
            self._check(kind, self.engines[kind].multiply(self.a, self.b))
        self.warm_stats = self._executor_counts()

    def _executor_counts(self) -> tuple[int, int, int]:
        stats = self.engines["shared"].kernel_executor.stats
        return (stats.plans, stats.shared_cache_hits,
                stats.shared_cache_misses)

    def _check(self, kind: str, result) -> None:
        self.check(
            np.array_equal(result.output, self.ref_out),
            f"{self.ARMS[kind][0].value} output not bit-identical to serial",
        )

    def _multiply(self, kind: str, rec, index: int, arm: str | None = None):
        """One timed multiply on ``arm``'s engine, recorded as ``kind``."""
        arm = arm or kind
        engine = self.engines[arm]
        result = self.timed(
            kind, lambda: engine.multiply(self.a, self.b), rec, index
        )
        self._check(arm, result)
        return result

    def round(self, index, rec=None) -> None:
        self.result = self._multiply("op", rec, index)
        self.build_graph(rec, index)
        if rec is not None:
            # The parallel arms run in the traced pass only: on a shared
            # two-core box their run-to-run spread is wider than any
            # bound, so they are per-layer numbers.
            self._multiply("shared", rec, index)
            self.submit_s.append(
                self.engines["shared"].kernel_executor.stats.last_submit_wall_s
            )
            self._multiply("threads", rec, index)
        self.yardstick(rec)

    def arms(self, rec) -> dict[str, float]:
        # Only traced rounds used the pool since its warm-up call.
        calls = max(len(self.traced.get("shared", ())), 1)
        self.shared_stats = {
            f"parallel.shared.{key}": (now - warm) / calls
            for key, now, warm in zip(
                ("plans", "cache_hits", "cache_misses"),
                self._executor_counts(), self.warm_stats,
            )
        }
        # Cold shared-memory call: a fresh pool pays worker start-up and
        # the segment export; the calls after it ride the cache.
        shutdown_shared_executors()
        self.engines["shared"] = self._engine("shared")
        self._multiply("cold", rec, -1, arm="shared")
        for _ in range(3):
            self._multiply("warm", rec, -1, arm="shared")
        return {}

    def teardown(self) -> None:
        self.engines = {}
        self.a = self.b = self.ref_out = self.edges = None
        # A repeated set-up must pay worker start-up again.
        shutdown_shared_executors()
        shutdown_threads_executors()
        super().teardown()

    def sim_ms(self) -> float:
        return self.result.sim_seconds * 1e3

    def layer_extras(self) -> dict[str, float]:
        return {
            "memsim.sim_op_s": self.result.sim_seconds,
            "memsim.sim_spmm_s": self.result.sim_seconds,
            "core.wofp.hit_fraction": self.result.mean_hit_fraction,
            "parallel.shared.submit_ms":
                statistics.median(self.submit_s) * 1e3 if self.submit_s else 0.0,
            **self.shared_stats,
        }


class ServeWorkload(Workload):
    """Trace replay through ``ShardedEmbeddingBackend`` plus row updates."""

    name = "serve_sharded"
    min_rounds = 30
    #: The yardstick has the op's own mix of compute and process wake-ups
    #: (a least-squares fit of segment time on the two parts gave about
    #: half each): 26 scipy products and 100 queue round trips.
    yard_k = 26
    ECHO_TRIPS = 100
    #: For the store's two wall-clock fault detectors (by default a 0.25 s
    #: lookup deadline and 0.5 s of heartbeat silence).  There is no fault
    #: plan, so all they can detect is the host stalling a process, and
    #: that should read as a slow sample, not as a hedged lookup or a
    #: shard restart failing the run (one of 35 runs on a shared VM did).
    STALL_S = 30.0
    UPDATES_PER_ROUND = 20
    UPDATE_ROWS = 64
    DIM = 32

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.scale = 9 if quick else 12
        self.work_per_op = 200 if quick else 1000
        # Rounds pooled into the simulated latencies: the ones every run
        # has, so the result does not depend on the host's speed.
        self.sim_rounds = self.floor(traced=False)
        self.backend = None
        self.echo = None
        self.sim_latencies: list[np.ndarray] = []
        self.sim_pooled_rounds = 0
        self.sim_op_s = 0.0
        self.counts = dict.fromkeys(
            ("submitted", "served", "shed", "deadline_exceeded", "failed"), 0
        )
        self.reports = 0

    def setup(self) -> None:
        self.n = 1 << self.scale
        edges = rmat_edges(self.scale, EDGE_FACTOR, seed=self.seed)
        config = OMeGaConfig(
            n_threads=N_THREADS, dim=self.DIM, capacity_scale=CAPACITY_SCALE
        )
        self.set_yardstick(edges, edges_to_csdb(edges, self.n), self.DIM)
        self.backend = ShardedEmbeddingBackend(
            OMeGaEmbedder(config),
            edges,
            self.n,
            shard_policy=ShardPolicy(
                n_shards=N_SHARDS, checkpoint_interval=200,
                lookup_deadline_s=self.STALL_S,
            ),
            supervisor_policy=SupervisorPolicy(
                heartbeat_timeout_s=self.STALL_S
            ),
        )
        self.backend.warm_up()
        self.per_node = self.backend.compute_cost(1)
        self.policy = ServePolicy.calibrated(8.5 * self.per_node)
        self.echo = yardstick.QueueEcho()
        self.yard_payload = np.arange(16, dtype=np.int64)
        self.update_rng = np.random.default_rng(self.seed + 7919)
        self.info.update(n_nodes=self.n, requests_per_op=self.work_per_op)
        self.warm_digest = self._digest(self._replay(self._trace(0)))  # warm-up

    def once(self) -> None:
        # The warm-up trace replayed again must give the same digest.
        self.check(
            self._digest(self._replay(self._trace(0))) == self.warm_digest,
            "sim summary digest differs across repeats",
        )

    def _trace(self, index: int) -> RequestTrace:
        # The same traces whatever ``--seed`` (which gives the graph, so
        # the table, the per-node cost the trace is scaled by, and the
        # updates).  Queueing at load 0.7 behind the batch requests makes
        # the mean latency of 30 independent segments differ by 7-9 %
        # between trace sets (quartile spread over ten sets; 3 % with 60
        # segments), so it would take hundreds of segments a run for
        # simulated latency to say anything about the program.
        return RequestTrace.synthesize(
            index,
            n_requests=self.work_per_op,
            per_node_cost_s=self.per_node,
            load=0.7,
        )

    def _server(self, stream=None) -> EmbeddingServer:
        return EmbeddingServer(
            self.backend, self.policy, clock=VirtualClock(), stream=stream
        )

    def _replay(self, trace, stream=None):
        return self._server(stream).run_trace(trace)

    @staticmethod
    def _digest(report) -> str:
        payload = json.dumps(report.summary(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def _check_report(self, report) -> None:
        self.check(report.balanced, "ServeReport not balanced")
        self.check(report.failed == 0, f"{report.failed} failed requests")
        self.check(
            sum(r.stale_rows for r in report.responses) == 0,
            "stale rows served",
        )

    def round(self, index, rec=None) -> None:
        trace = self._trace(index)
        server = self._server()
        report = self.timed("op", lambda: server.run_trace(trace), rec, index)
        self.attempted += report.submitted - 1
        shards = self.backend.shards
        for _ in range(self.UPDATES_PER_ROUND):
            ids = self.update_rng.choice(
                self.n, self.UPDATE_ROWS, replace=False
            )
            rows = self.update_rng.standard_normal((self.UPDATE_ROWS, self.DIM))
            self.timed(
                "side", lambda: shards.apply_update(ids, rows), rec, index
            )
            got = shards.lookup(ids)
            self.check(
                got.stale_rows == 0
                and np.array_equal(got.rows, shards.table[ids]),
                "lookup after update does not return the updated rows",
            )
        updates = (self.samples if rec is None else self.traced)["side"]
        self.yardstick(
            rec, statistics.median(updates[-self.UPDATES_PER_ROUND:])
        )
        self._check_report(report)
        self.sim_op_s = report.finished_at_s
        if self.sim_pooled_rounds < self.sim_rounds:
            self.sim_latencies.append(
                report.latencies(("served", "deadline_exceeded"))
            )
            self.sim_pooled_rounds += 1
        if rec is not None:
            self.reports += 1
            for key in self.counts:
                self.counts[key] += getattr(report, key)

    def arms(self, rec) -> dict[str, float]:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        plain, taxed = [], []
        for j in range(1 if self.quick else 3):
            trace = self._trace(10_000 + j)
            start = time.perf_counter()
            self._check_report(self._replay(trace))
            plain.append(time.perf_counter() - start)
            stream = TelemetryStream(OUT_DIR / "serve_stream_tax.jsonl")
            try:
                start = time.perf_counter()
                report = self._replay(trace, stream)
                taxed.append(time.perf_counter() - start)
            finally:
                stream.close()
                self.backend.stream = self.backend.shards.stream = None
            self._check_report(report)
        for _ in range(3):
            self.timed("arm", self.backend.shards.checkpoint_all, rec, -1)
        return {
            "obs.serve_stream_tax_fraction":
                statistics.median(taxed) / statistics.median(plain) - 1.0
        }

    def yard_seconds(self) -> tuple[float, float]:
        """Products plus queue round trips carrying a lookup-sized id batch.

        An update is a local table write and a queue put nobody waits
        for, so the side op is paired with the compute part alone.
        """
        products = self.yard_products()
        trips = self.echo.round_trips(self.ECHO_TRIPS, self.yard_payload)
        return products + trips, products

    def teardown(self) -> None:
        if self.echo is not None:
            self.echo.close()
            self.echo = None
        if self.backend is not None:
            summary = self.backend.shard_summary()
            self.info["bg_checkpoints"] = summary.get("bg_checkpoints", 0)
            self.info["hedged"] = summary.get(
                "hedged_checkpoint", 0
            ) + summary.get("hedged_replica", 0)
            self.info["restarts"] = summary.get("restarts", 0)
            self.backend.close()
            self.backend = None
        super().teardown()

    def finish_checks(self) -> None:
        self.check(self.info.get("hedged", 0) == 0, "hedged lookups")
        self.check(self.info.get("restarts", 0) == 0, "shard restarts")

    def sim_ms(self) -> float:
        # The mean over the pooled segments; the p99 is per-layer.
        return float(np.concatenate(self.sim_latencies).mean()) * 1e3

    def layer_extras(self) -> dict[str, float]:
        n = max(self.reports, 1)
        c = self.counts
        return {
            "memsim.sim_op_s": self.sim_op_s,
            "serve.sim_p99_ms":
                quantile(np.concatenate(self.sim_latencies), 99) * 1e3,
            "serve.served": c["served"] / n,
            "serve.shed": c["shed"] / n,
            "serve.deadline_exceeded": c["deadline_exceeded"] / n,
            "serve.failed": c["failed"] / n,
            "serve.goodput": c["served"] / max(c["submitted"], 1),
            "shard.bg_checkpoints": self.info.get("bg_checkpoints", 0)
            / (len(self.samples["op"]) + len(self.traced["op"])),
            "shard.hedged": self.info.get("hedged", 0),
        }


WORKLOADS = {
    "embed_skewed": lambda seed, quick: EmbedWorkload(
        seed, quick, "embed_skewed", scale=13, dim=32, yard_k=16,
        yard_build_k=2, side_k=1,
        auc_floor=0.83, min_rounds=10, setup_reps=2, tax_pairs=0,
    ),
    "embed_tiny": lambda seed, quick: EmbedWorkload(
        seed, quick, "embed_tiny", scale=10, dim=16, yard_k=80,
        yard_build_k=16, side_k=8,
        auc_floor=0.74, min_rounds=30, setup_reps=3, tax_pairs=8,
    ),
    "spmm_wide": lambda seed, quick: SpmmWorkload(
        seed, quick, "spmm_wide", d=128, yard_k=2
    ),
    "spmm_narrow": lambda seed, quick: SpmmWorkload(
        seed, quick, "spmm_narrow", d=8, yard_k=4
    ),
    "serve_sharded": ServeWorkload,
}
