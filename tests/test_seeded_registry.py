"""A seeded run's metrics registry holds only what the seed determines.

The paper's numbers are functions of the workload and the device model,
and the executors are bit-identical, so the registry a seeded run
exports is too: ``metrics.to_records()``, serialised, is the same bytes

- for a tiny embed run twice on the serial backend and once each on the
  threads and shared-memory backends with 2 workers;
- for ``perfgate.run_suite()`` run twice (embed, a cost-only SpMM and a
  serve replay into one registry).

Wall-clock is typed as wall where it lives (``SpMMResult``, spans,
``ExecutorStats``) and never reaches a registry, so no series is left
out of the comparison by name.
"""

import json

import pytest

from repro.core import ExecBackend, OMeGaConfig, OMeGaEmbedder, ParallelConfig
from repro.graphs import rmat_edges
from repro.obs.metrics import MetricsRegistry
from repro.obs.observatory.perfgate import run_suite
from repro.parallel import shutdown_shared_executors, shutdown_threads_executors

SCALE = 9


@pytest.fixture(scope="module", autouse=True)
def _close_pools():
    yield
    shutdown_shared_executors()
    shutdown_threads_executors()


def _bytes(metrics: MetricsRegistry) -> str:
    return json.dumps(metrics.to_records(), sort_keys=True)


def _embed(backend: ExecBackend) -> str:
    metrics = MetricsRegistry()
    config = OMeGaConfig(
        n_threads=4,
        dim=8,
        parallel=ParallelConfig(backend=backend, n_workers=2),
    )
    OMeGaEmbedder(config, metrics=metrics).embed_edges(
        rmat_edges(SCALE, edge_factor=8.0, seed=1), 1 << SCALE
    )
    return _bytes(metrics)


def test_a_seeded_embed_exports_one_registry_on_every_backend():
    serial = _embed(ExecBackend.SIMULATED)
    assert '"spmm.calls"' in serial
    assert _embed(ExecBackend.SIMULATED) == serial
    assert _embed(ExecBackend.THREADS) == serial
    assert _embed(ExecBackend.SHARED_MEMORY) == serial


def test_the_perf_gate_suite_exports_one_registry():
    first = _bytes(run_suite().session.metrics)
    assert '"serve.submitted"' in first
    assert _bytes(run_suite().session.metrics) == first
