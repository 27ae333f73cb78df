"""Shared fixtures and reporting helpers for the benchmark suite.

Every bench module regenerates one table or figure of the paper: it runs
the experiment (real kernels + simulated time), prints the same
rows/series the paper reports, and persists them under
``benchmarks/results/`` so EXPERIMENTS.md can reference them.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import OMeGaConfig, SpMMEngine
from repro.graphs import Dataset, load_dataset
from repro.obs import TelemetrySession

#: Graphs used by most SpMM-level experiments (Figs. 14-16, Table II).
SPMM_GRAPHS = ("PK", "LJ", "OR", "TW", "TW-2010")
#: All six Table I graphs (end-to-end experiments).
ALL_GRAPHS = ("PK", "LJ", "OR", "TW", "TW-2010", "FR")
#: The paper's thread count and embedding dimension.
N_THREADS = 30
DIM = 32

RESULTS_DIR = Path(__file__).parent / "results"

_dataset_cache: dict[str, Dataset] = {}


def dataset(name: str) -> Dataset:
    """Load (and cache) a Table I analogue."""
    if name not in _dataset_cache:
        _dataset_cache[name] = load_dataset(name)
    return _dataset_cache[name]


def dense_operand(graph: Dataset, dim: int = DIM) -> np.ndarray:
    """Deterministic dense operand for SpMM experiments."""
    return np.random.default_rng(0).standard_normal((graph.n_nodes, dim))


def engine_for(
    graph: Dataset, session: TelemetrySession | None = None, **overrides
) -> SpMMEngine:
    """Engine with the paper's default configuration for a dataset.

    Pass a :func:`telemetry_session` to capture the engine's spans and
    metrics; :func:`save_telemetry` writes them next to the report.
    """
    base = dict(n_threads=N_THREADS, dim=DIM, capacity_scale=graph.scale)
    base.update(overrides)
    return SpMMEngine(
        OMeGaConfig(**base),
        tracer=session.tracer if session else None,
        metrics=session.metrics if session else None,
    )


def telemetry_session(name: str, **meta) -> TelemetrySession:
    """Telemetry session for one bench module's experiment."""
    return TelemetrySession(meta={"benchmark": name, **meta})


def telemetry_path(name: str) -> Path:
    """``benchmarks/results/<name>.telemetry.jsonl`` (directory created)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR / f"{name}.telemetry.jsonl"


def save_telemetry(session: TelemetrySession, name: str) -> Path:
    """Write a finished session to :func:`telemetry_path`.

    A bench whose serve/shard layers put records on the stream while
    they run calls ``session.stream_to(telemetry_path(name))`` up front
    and ``session.close_stream()`` at the end instead.
    """
    return session.save(telemetry_path(name))


def publish_baseline(
    session: TelemetrySession, name: str, store=None
) -> str:
    """Pin a session's telemetry in the baseline store under ``name``.

    Returns the content key.  Stored runs are addressable by name or key
    from ``repro diff`` (e.g. ``repro diff fig7_baseline new.jsonl``),
    so a bench can publish today's numbers and future runs diff against
    them without keeping loose JSONL files around.
    """
    from repro.obs import BaselineStore

    store = store if store is not None else BaselineStore()
    return store.put({"records": session.records()}, name=name)


def write_report(name: str, text: str) -> None:
    """Print a report and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n")


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return runner
