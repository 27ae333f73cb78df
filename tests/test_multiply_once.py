"""One kernel call and one Eq. 2 evaluation per multiply — no bit changed.

Three things an engine multiply used to redo are pinned here against the
per-call formulation they replaced:

- the serial backend fuses adjacent row ranges into one ``spmm_rows``
  call — traced or not: every backend makes the same kernel calls under
  a real tracer as under the null one, and the partition spans are the
  engine's apportioning of the one measured wall;
- ``SpMMEngine`` charges everything simulated but the fault-driven
  stream terms once per (pattern, d) and replays it into a fresh copy of
  the ledger on every call — pinned call by call and record by record
  (what each call wrote into the one registry) against an engine whose
  cache is emptied before every multiply;
- ``CSDBMatrix`` keeps one kernel-ready CSR view of itself.
"""

from __future__ import annotations

import gc
import json
import math
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExecBackend,
    OMeGaConfig,
    OMeGaEmbedder,
    ParallelConfig,
    SpMMEngine,
)
from repro.core.config import MemoryMode, PlacementScheme
from repro.faults import ASL_LOAD_SITE, FaultEvent, FaultInjector, FaultPlan
from repro.formats import CSDBMatrix, edges_to_csdb
from repro.graphs import rmat_edges
from repro.obs.export import TelemetrySession
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, SpanTracer
from repro.parallel import (
    SimulatedExecutor,
    get_shared_executor,
    get_threads_executor,
    shutdown_shared_executors,
    shutdown_threads_executors,
)
from repro.parallel.threads import THREADS_MIN_WORK

from .test_pattern_once import WriteLog, assert_same_bits

SERIAL = ParallelConfig(backend=ExecBackend.SIMULATED)


@pytest.fixture(scope="module", autouse=True)
def _close_pools():
    yield
    shutdown_shared_executors()
    shutdown_threads_executors()


@pytest.fixture(scope="module")
def matrix() -> CSDBMatrix:
    built = edges_to_csdb(rmat_edges(8, edge_factor=8.0, seed=3), 1 << 8)
    built.nnz_list[:] = np.random.default_rng(3).standard_normal(built.nnz)
    built.mark_mutated()
    return built


class SpmmRowsSpy:
    """Record the row range of every ``CSDBMatrix.spmm_rows`` call.

    The log is a file, so calls made by pool workers forked after the
    patch are seen too.
    """

    def __init__(self, monkeypatch, log) -> None:
        self.log = log
        log.write_text("")
        original = CSDBMatrix.spmm_rows

        def spied(matrix, dense, row_start, row_end, **kwargs):
            with log.open("a") as handle:
                handle.write(f"{row_start} {row_end}\n")
            return original(matrix, dense, row_start, row_end, **kwargs)

        monkeypatch.setattr(CSDBMatrix, "spmm_rows", spied)

    def drain(self) -> list[tuple[int, int]]:
        """The calls logged since the last drain, in file order."""
        lines = self.log.read_text().splitlines()
        self.log.write_text("")
        return [tuple(int(x) for x in line.split()) for line in lines]


# -- (i) fused == per-partition == threads == shared_memory ------------------


def per_partition(matrix, dense, ranges):
    """The dispatch the serial backend had: zero-fill, one call per range."""
    out = np.zeros((matrix.n_rows, np.asarray(dense).shape[1]))
    for row_start, row_end in ranges:
        if row_end > row_start:
            out[matrix.perm[row_start:row_end]] = matrix.spmm_rows(
                dense, row_start, row_end
            )
    return out


def dispatch_arms(matrix, dense, ranges):
    """Every dispatch path's output for the same ranges, by name."""
    arms = {"per_partition": per_partition(matrix, dense, ranges)}
    for name, executor in (
        ("fused", SimulatedExecutor()),
        ("threads", get_threads_executor(2)),
        ("shared_memory", get_shared_executor(2)),
    ):
        arms[name] = executor.run_partitions(matrix, dense, ranges)
    return arms


def assert_arms_agree(matrix, dense, ranges):
    arms = dispatch_arms(matrix, dense, ranges)
    expected = arms.pop("per_partition")
    for name, out in arms.items():
        assert out.tobytes() == expected.tobytes(), name
    covered = np.zeros(matrix.n_rows, dtype=bool)
    for row_start, row_end in ranges:
        covered[matrix.perm[row_start:row_end]] = True
    assert not expected[~covered].any()


RANGE_CASES = {
    "eight_adjacent": lambda n: list(
        zip(range(0, n, n // 8), range(n // 8, n + 1, n // 8))
    ),
    "single_full_range": lambda n: [(0, n)],
    "single_partial_range": lambda n: [(5, n - 5)],
    "gap_in_the_middle": lambda n: [(0, 40), (40, 90), (120, n)],
    "head_and_tail_uncovered": lambda n: [(10, 20), (20, 30)],
    "empty_partitions": lambda n: [(0, 0), (0, 64), (64, 64), (64, n), (n, n)],
    "nothing": lambda n: [],
}


@pytest.mark.parametrize("layout", ("c", "fortran", "float32"))
@pytest.mark.parametrize("d", (1, 7))
@pytest.mark.parametrize("case", sorted(RANGE_CASES))
def test_every_dispatch_path_gives_the_same_bits(matrix, case, d, layout):
    dense = np.random.default_rng(d).standard_normal((matrix.n_cols, d))
    if layout == "fortran":
        dense = np.asfortranarray(dense)
    elif layout == "float32":
        dense = dense.astype(np.float32)
    assert_arms_agree(matrix, dense, RANGE_CASES[case](matrix.n_rows))


@settings(max_examples=25, deadline=None)
@given(
    cuts=st.lists(st.integers(0, 256), max_size=9),
    keep=st.lists(st.booleans(), min_size=10, max_size=10),
    d=st.integers(1, 5),
)
def test_property_fusion_is_invisible_over_range_cuts(matrix, cuts, keep, d):
    # Sorted cut points: repeats give empty ranges, dropped ranges leave
    # gaps, kept neighbours are adjacent and fuse.
    bounds = [0, *sorted(cuts), matrix.n_rows]
    ranges = [
        pair for pair, kept in zip(zip(bounds[:-1], bounds[1:]), keep) if kept
    ]
    dense = np.random.default_rng(d).standard_normal((matrix.n_cols, d))
    assert_arms_agree(matrix, dense, ranges)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vector=st.booleans())
def test_property_spmm_of_a_vector_and_of_one_column(matrix, seed, vector):
    # The shape edges of CSDBMatrix.spmm's gather: a 1-D operand is
    # squeezed back to 1-D, a (n, 1) one stays (n, 1), and either equals
    # the scatter oracle bit for bit.
    column = np.random.default_rng(seed).standard_normal((matrix.n_cols, 1))
    expected = per_partition(matrix, column, [(0, matrix.n_rows)])
    if vector:
        expected = expected[:, 0]
        out = matrix.spmm(column[:, 0])
        assert out.shape == (matrix.n_rows,)
        assert out.tobytes() == expected.tobytes()
    else:
        out = matrix.spmm(column)
        assert out.shape == (matrix.n_rows, 1)
        assert out.tobytes() == expected.tobytes()


def test_fused_dispatch_calls_the_kernel_once_per_run_of_adjacent_ranges(
    matrix, monkeypatch, tmp_path
):
    spy = SpmmRowsSpy(monkeypatch, tmp_path / "calls")
    dense = np.ones((matrix.n_cols, 2))
    SimulatedExecutor().run_partitions(
        matrix, dense, [(0, 10), (10, 30), (30, 30), (30, 50), (60, 70)]
    )
    assert spy.drain() == [(0, 50), (60, 70)]


# -- (ii) kernel calls per engine multiply -----------------------------------


def test_untraced_serial_multiply_is_one_kernel_call(
    matrix, monkeypatch, tmp_path
):
    engine = SpMMEngine(OMeGaConfig(n_threads=8, parallel=SERIAL))
    dense = np.ones((matrix.n_cols, 4))
    engine.multiply(matrix, dense)
    spy = SpmmRowsSpy(monkeypatch, tmp_path / "calls")
    result = engine.multiply(matrix, dense)
    assert spy.drain() == [(0, matrix.n_rows)]
    assert sum(p.n_rows > 0 for p in result.partitions) > 1


BACKENDS = {
    "serial": SERIAL,
    "threads": ParallelConfig(backend=ExecBackend.THREADS, n_workers=2),
    "shared_memory": ParallelConfig(
        backend=ExecBackend.SHARED_MEMORY, n_workers=2
    ),
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_tracer_does_not_change_the_kernel_calls(
    matrix, monkeypatch, tmp_path, backend
):
    # Fresh pools after the patch: forked workers must carry the spy.
    shutdown_shared_executors()
    spy = SpmmRowsSpy(monkeypatch, tmp_path / "calls")
    config = OMeGaConfig(n_threads=8, parallel=BACKENDS[backend])
    dense = np.random.default_rng(9).standard_normal((matrix.n_cols, 4))
    seen = {}
    try:
        for name, tracer in (("null", NULL_TRACER), ("span", SpanTracer())):
            result = SpMMEngine(config, tracer=tracer).multiply(matrix, dense)
            seen[name] = (spy.drain(), result.output)
    finally:
        shutdown_shared_executors()  # its workers outlive the monkeypatch
    (null_calls, null_out), (span_calls, span_out) = seen["null"], seen["span"]
    if backend != "shared_memory":
        # Serial fuses the ranges into one call; threads, under
        # THREADS_MIN_WORK multiply-adds as here, runs that same path
        # (tests/test_threads_blocks.py covers its blocks above it).
        assert matrix.nnz * dense.shape[1] < THREADS_MIN_WORK
        assert null_calls == [(0, matrix.n_rows)]
    else:
        # Pool workers interleave: the calls compare as sorted lists.
        null_calls, span_calls = sorted(null_calls), sorted(span_calls)
        assert null_calls == [
            (p.row_start, p.row_end) for p in result.partitions if p.n_rows
        ]
    assert span_calls == null_calls
    assert_same_bits(span_out, null_out)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_partition_spans_apportion_the_one_measured_wall(matrix, backend):
    tracer = SpanTracer()
    engine = SpMMEngine(
        OMeGaConfig(n_threads=8, parallel=BACKENDS[backend]), tracer=tracer
    )
    dense = np.ones((matrix.n_cols, 4))
    with tracer.span("stage"):
        result = engine.multiply(matrix, dense)
    (spmm,) = tracer.find("spmm")
    spans = tracer.find("spmm_partition")
    dispatched = [p for p in result.partitions if p.n_rows > 0]
    assert len(dispatched) > 1
    assert [
        (s.attributes["row_start"], s.attributes["row_end"],
         s.attributes["rows"], s.attributes["nnz"])
        for s in spans
    ] == [(p.row_start, p.row_end, p.n_rows, p.nnz_count) for p in dispatched]
    for span in spans:
        assert span.attributes["apportioned"] is True
        assert span.sim_seconds == 0.0
        assert span.parent_id == spmm.span_id
        assert span.trace_id == spmm.trace_id
    kernel_wall = spmm.attributes["kernel_wall_seconds"]
    assert kernel_wall == result.kernel_wall_seconds > 0.0
    # The shares sum to the wall to 1e-9; a Span keeps (start, end) on
    # the perf_counter axis, which quantises each one to that clock's ulp.
    quantum = len(spans) * math.ulp(time.perf_counter())
    assert sum(s.wall_seconds for s in spans) == pytest.approx(
        kernel_wall, rel=1e-9, abs=quantum
    )
    walls = {s.attributes["nnz"]: s.wall_seconds for s in spans}
    heavy, light = max(walls), min(walls)
    assert walls[heavy] * light == pytest.approx(
        walls[light] * heavy, rel=1e-3
    )


def test_cost_only_and_full_pass_multiplies_record_no_partition_spans(matrix):
    dense = np.ones((matrix.n_cols, 4))
    for config, compute in (
        (OMeGaConfig(n_threads=8, parallel=SERIAL), False),
        (OMeGaConfig(n_threads=8, parallel=SERIAL, allocation="natural-rr"),
         True),
    ):
        tracer = SpanTracer()
        SpMMEngine(config, tracer=tracer).multiply(
            matrix, dense, compute=compute
        )
        assert len(tracer.find("spmm")) == 1
        assert tracer.find("spmm_partition") == []


# -- (iii) Eq. 2 replay ------------------------------------------------------


def simulated(engine, matrix, dense):
    """Everything simulated a multiply reports: (seconds, per-thread
    seconds, ledger, the metric records it wrote), on an engine built on
    a :class:`WriteLog`."""
    mark = len(engine.metrics.log)
    result = engine.multiply(matrix, dense)
    return (
        result.sim_seconds,
        result.thread_times.tolist(),
        result.trace.to_dict(),
        engine.metrics.records_since(mark),
    )


def observed(engine, matrix, dense):
    """:func:`simulated`, as one ``repr`` string."""
    return repr(simulated(engine, matrix, dense))


ENGINE_CONFIGS = {
    "heterogeneous": {},
    "dram_only": {
        "memory_mode": MemoryMode.DRAM_ONLY, "prefetcher_enabled": False,
        "streaming_enabled": False,
    },
    "pm_only": {
        "memory_mode": MemoryMode.PM_ONLY, "prefetcher_enabled": False,
        "streaming_enabled": False,
    },
    "no_prefetcher": {"prefetcher_enabled": False},
    "interleave": {"placement": PlacementScheme.INTERLEAVE},
    "local": {"placement": PlacementScheme.LOCAL},
    "natural_rr": {"allocation": "natural-rr"},
}


@pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
def test_replayed_cost_equals_a_fresh_evaluation(matrix, name):
    config = OMeGaConfig(n_threads=8, **ENGINE_CONFIGS[name])
    rng = np.random.default_rng(11)
    operands = {d: rng.standard_normal((matrix.n_cols, d)) for d in (40, 32)}
    engine = SpMMEngine(config, metrics=WriteLog())
    # 1st call at d=40, d=32 in between, then the Nth call at d=40.
    seen = [observed(engine, matrix, operands[d]) for d in (40, 32, 40, 40)]
    assert seen[2] == seen[0] and seen[3] == seen[0]
    assert seen[1] != seen[0]
    for d, index in ((40, 0), (32, 1)):
        fresh = SpMMEngine(config, metrics=WriteLog())
        assert observed(fresh, matrix, operands[d]) == seen[index]

    # Faulted arm: a degraded PM tier and a transient load failure between
    # two replays of one plan move the per-call terms and nothing else.
    healthy = simulated(engine, matrix, operands[40])
    engine.faults = FaultInjector(
        FaultPlan(
            events=(
                FaultEvent("pm_degrade", "pm", factor=0.01),
                FaultEvent("transient_load", ASL_LOAD_SITE, count=1),
            )
        )
    )
    faulted = simulated(engine, matrix, operands[40])
    engine.faults = None
    assert observed(engine, matrix, operands[40]) == seen[0]

    def replayed(seen):
        """What a fault must not reach: the cached ledger terms, the
        per-thread seconds and every metric but the stream's own."""
        _, thread_times, ledger, records = seen
        return repr(
            (
                thread_times,
                {
                    kind: {
                        category: value
                        for category, value in entries.items()
                        if category not in ("stream_load", "stream_retry")
                    }
                    for kind, entries in ledger.items()
                },
                [
                    record
                    for record in records
                    if not record["name"].startswith(("asl.", "spmm.sim_seconds"))
                ],
            )
        )

    assert replayed(faulted) == replayed(healthy)
    if config.memory_mode is MemoryMode.HETEROGENEOUS:  # the others stream nothing
        assert faulted[2]["seconds"]["stream_retry"] > 0.0
        assert "stream_retry" not in healthy[2]["seconds"]
        assert faulted[0] > healthy[0]
    else:
        assert faulted == healthy


def test_replay_charges_a_fresh_ledger_each_call(matrix):
    engine = SpMMEngine(OMeGaConfig(n_threads=8))
    dense = np.ones((matrix.n_cols, 4))
    first = engine.multiply(matrix, dense)
    expected = first.trace.to_dict()
    first.trace.charge("get_dense_nnz", 1.0, 1.0)
    first.thread_times[:] = 0.0
    second = engine.multiply(matrix, dense)
    assert second.trace is not first.trace
    assert second.trace.to_dict() == expected


def test_pm_degrade_still_moves_the_stream_term_per_call(matrix):
    config = OMeGaConfig(n_threads=8, capacity_scale=1 << 22)
    dense = np.ones((matrix.n_cols, 32))
    healthy = SpMMEngine(config).multiply(matrix, dense)
    engine = SpMMEngine(config)
    engine.multiply(matrix, dense)  # Eq. 2 is now cached for (matrix, 32)
    engine.faults = FaultInjector(
        FaultPlan(events=(FaultEvent("pm_degrade", "pm", factor=0.01),))
    )
    degraded = engine.multiply(matrix, dense)
    assert (
        degraded.stream_plan.total_load_seconds
        > healthy.stream_plan.total_load_seconds
    )
    assert degraded.trace.seconds("stream_load") > healthy.trace.seconds(
        "stream_load"
    )
    assert degraded.sim_seconds > healthy.sim_seconds
    cached_terms = set(healthy.trace.breakdown()) - {"stream_load"}
    for category in cached_terms:
        assert degraded.trace.seconds(category) == healthy.trace.seconds(category)
    assert np.array_equal(degraded.thread_times, healthy.thread_times)


# -- (iv) the kernel view's lifecycle ----------------------------------------


def fresh_matrix(seed: int = 1) -> CSDBMatrix:
    return edges_to_csdb(rmat_edges(7, edge_factor=6.0, seed=seed), 1 << 7)


def test_the_view_aliases_the_values_and_is_built_once():
    matrix = fresh_matrix()
    view = matrix.kernel_view()
    assert matrix.kernel_view() is view
    assert np.shares_memory(view.data, matrix.nnz_list)
    dense = np.ones((matrix.n_cols, 3))
    matrix.spmm_rows(dense, 0, matrix.n_rows)
    matrix.spmm_rows(dense, 3, 40)
    assert matrix.kernel_view() is view


def test_in_place_value_write_then_mark_mutated_multiplies_the_new_values():
    matrix = fresh_matrix()
    dense = np.random.default_rng(2).standard_normal((matrix.n_cols, 3))
    engine = SpMMEngine(OMeGaConfig(n_threads=4, parallel=SERIAL))
    before = engine.multiply(matrix, dense).output
    stale = matrix.kernel_view()
    matrix.nnz_list[:] = np.random.default_rng(3).standard_normal(matrix.nnz)
    matrix.mark_mutated()
    assert matrix.kernel_view() is not stale
    rebuilt = CSDBMatrix(
        matrix.deg_list, matrix.deg_ind, matrix.col_list,
        matrix.nnz_list.copy(), matrix.perm, matrix.shape,
    )
    after = engine.multiply(matrix, dense).output
    assert not np.array_equal(after, before)
    assert_same_bits(after, rebuilt.spmm(dense))


@pytest.mark.parametrize("multiplied_first", (False, True))
def test_with_values_matches_a_from_scratch_matrix(multiplied_first):
    matrix = fresh_matrix()
    dense = np.random.default_rng(4).standard_normal((matrix.n_cols, 5))
    if multiplied_first:
        matrix.spmm(dense)
    values = np.random.default_rng(5).standard_normal(matrix.nnz)
    derived = matrix.with_values(values)
    scratch = CSDBMatrix(
        matrix.deg_list, matrix.deg_ind, matrix.col_list, values,
        matrix.perm, matrix.shape,
    )
    assert_same_bits(derived.spmm(dense), scratch.spmm(dense))
    assert_same_bits(
        derived.spmm_rows(dense, 7, 90), scratch.spmm_rows(dense, 7, 90)
    )
    if multiplied_first:
        view, parent_view = derived.kernel_view(), matrix.kernel_view()
        assert np.shares_memory(view.indices, parent_view.indices)
        assert np.shares_memory(view.indptr, parent_view.indptr)
        assert np.shares_memory(view.data, derived.nnz_list)
    # The parent still multiplies its own values.
    assert_same_bits(
        matrix.spmm(dense),
        CSDBMatrix(
            matrix.deg_list, matrix.deg_ind, matrix.col_list,
            matrix.nnz_list.copy(), matrix.perm, matrix.shape,
        ).spmm(dense),
    )


def test_from_shared_matrices_multiply_in_pool_workers():
    matrix = fresh_matrix()
    dense = np.random.default_rng(6).standard_normal((matrix.n_cols, 4))
    shared = matrix.to_shared()
    try:
        attached = CSDBMatrix.from_shared(shared.handle)
        assert_same_bits(
            attached.spmm_rows(dense, 0, attached.n_rows),
            matrix.spmm_rows(dense, 0, matrix.n_rows),
        )
        del attached
        gc.collect()
    finally:
        shared.close()
    serial = SpMMEngine(OMeGaConfig(n_threads=4, parallel=SERIAL))
    pooled = SpMMEngine(
        OMeGaConfig(
            n_threads=4,
            parallel=ParallelConfig(
                backend=ExecBackend.SHARED_MEMORY, n_workers=2
            ),
        )
    )
    expected = serial.multiply(matrix, dense).output
    for _ in range(2):  # the second call rides the workers' cached view
        assert_same_bits(pooled.multiply(matrix, dense).output, expected)


def test_the_view_does_not_keep_its_matrix_alive():
    matrix = fresh_matrix()
    engine = SpMMEngine(OMeGaConfig(n_threads=4, parallel=SERIAL))
    engine.multiply(matrix, np.ones((matrix.n_cols, 2)))
    derived = matrix.with_values(matrix.nnz_list * 2.0)
    engine.multiply(derived, np.ones((matrix.n_cols, 2)))
    assert len(engine._plans) == 1  # one pattern
    dead = weakref.ref(matrix)
    del matrix
    gc.collect()
    assert dead() is None
    assert len(engine._plans) == 1  # the sibling still stands on it
    dead = weakref.ref(derived)
    del derived
    gc.collect()
    assert dead() is None
    assert len(engine._plans) == 0


# -- (v) the replay over a run of calls, against a cleared cache -------------


class ClearedCacheEngine(SpMMEngine):
    """The oracle: every multiply allocates, plans, costs and binds anew."""

    def multiply(self, matrix, dense, compute=True):
        self._plans.clear()
        return super().multiply(matrix, dense, compute)


def call_bits(result):
    """Everything simulated one call returns, ``repr``-exact."""
    return repr(
        (
            result.sim_seconds,
            result.thread_times.tolist(),
            result.trace.to_dict(),
            result.stream_plan,
            [repr(p) for p in result.partitions],
        )
    )


def registry_bits(metrics):
    """A registry's records, ``repr``-exact."""
    return repr(metrics.to_records())


def faults():
    return FaultInjector(
        FaultPlan(
            events=(
                FaultEvent("pm_degrade", "pm", factor=0.01),
                FaultEvent("transient_load", ASL_LOAD_SITE, count=1),
            )
        )
    )


@pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
def test_one_registry_over_many_calls_equals_a_cleared_cache(matrix, name):
    config = OMeGaConfig(n_threads=8, **ENGINE_CONFIGS[name])
    patterns = (
        matrix,
        edges_to_csdb(rmat_edges(8, edge_factor=6.0, seed=4), 1 << 8),
    )
    rng = np.random.default_rng(11)
    operands = {d: rng.standard_normal((matrix.n_cols, d)) for d in (40, 32)}
    seen = []
    for cls in (SpMMEngine, ClearedCacheEngine):
        engine = cls(config, metrics=WriteLog())
        calls = [
            call_bits(engine.multiply(pattern, operands[d]))
            for d in (40, 32, 40, 40)
            for pattern in patterns
        ]
        first = registry_bits(engine.metrics)
        assert engine.metrics.value("spmm.calls") == 8.0
        mark = len(engine.metrics.log)
        calls.append(call_bits(engine.multiply(patterns[1], operands[40])))
        engine.faults = faults()
        calls.append(call_bits(engine.multiply(patterns[0], operands[40])))
        last = engine.metrics.records_since(mark)
        seen.append((calls, first, repr(last), registry_bits(engine.metrics)))
        assert engine.metrics.value("spmm.calls") == 10.0
        assert MetricsRegistry.from_records(last).value("spmm.calls") == 2.0
    replayed, fresh = seen
    assert replayed == fresh


def test_an_embeds_telemetry_equals_a_cleared_cache(monkeypatch):
    edges = rmat_edges(10, edge_factor=16.0, seed=1)
    config = OMeGaConfig(n_threads=8, dim=16, capacity_scale=512)

    def telemetry():
        session = TelemetrySession(tracer=SpanTracer(trace_id="oracle"))
        OMeGaEmbedder(
            config, tracer=session.tracer, metrics=session.metrics
        ).embed_edges(edges, 1 << 10)
        return session

    def masked(session):
        """Span and metric records, wall-clock fields masked, as a multiset."""
        records = []
        for record in session.tracer.to_records():
            record["wall_seconds"] = None
            record["attributes"] = {
                key: None if "wall" in key else value
                for key, value in record["attributes"].items()
            }
            records.append(record)
        records += session.metrics.to_records()
        return sorted(json.dumps(record, sort_keys=True) for record in records)

    replayed = masked(telemetry())
    multiply = SpMMEngine.multiply

    def cleared(engine, *args, **kwargs):
        engine._plans.clear()
        return multiply(engine, *args, **kwargs)

    monkeypatch.setattr(SpMMEngine, "multiply", cleared)
    fresh = masked(telemetry())
    assert replayed == fresh
    names = [json.loads(record)["name"] for record in replayed]
    assert names.count("spmm") == 25
    assert names.count("spmm_partition") == 25 * 8
