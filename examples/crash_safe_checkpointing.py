"""Crash-safe embedding checkpoints and stage-granular recovery.

The paper (§II-B) uses PM in App-directed mode, where applications get
byte-addressable persistence through flush/fence ordering.  This example
crashes a checkpointed run at both kinds of boundary that discipline
has, and recovers from each:

1. *inside a commit* — a crash between a stage's flush and its
   commit-record flip loses that one WAL record and nothing else: the
   previous run's ``propagation`` record, kept in the log, still holds
   the embedding it committed, and ``resume()`` redoes only the lost
   stage;
2. *between stages* — a seeded fault plan crashes the pipeline right
   after factorization; ``resume()`` recovers the durable stages, redoes
   only the propagation, and the final embedding is bit-identical to an
   uninterrupted run.

Run:  python examples/crash_safe_checkpointing.py
"""

import numpy as np

from repro import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    OMeGaConfig,
    OMeGaEmbedder,
    load_dataset,
)
from repro.memsim import CheckpointedEmbedder
from repro.obs import MetricsRegistry


def main() -> None:
    dataset = load_dataset("PK", scale=2048)
    config = OMeGaConfig(n_threads=8, dim=16, capacity_scale=dataset.scale)
    checkpointed = CheckpointedEmbedder(OMeGaEmbedder(config))

    # -- a crash inside a commit --------------------------------------------

    result = checkpointed.embed_with_checkpoints(
        dataset.edges, dataset.n_nodes
    )
    print(
        f"1. Embedded {dataset.n_nodes:,} nodes in"
        f" {result.sim_seconds * 1e3:.2f} ms simulated;"
        f" {len(checkpointed.wal.stages)} stage checkpoints, the last one"
        f" the commit, took"
        f" {result.checkpoint_seconds * 1e6:.1f} us"
        f" ({checkpointed.wal.fences} fences,"
        f" {checkpointed.wal.durable_bytes / 1024:.0f} KiB flushed)"
    )

    # A second run crashes between the last stage's flush and its
    # commit-record flip: that record is lost, the previous run's
    # propagation record — its committed embedding — is not.
    torn_commit = FaultInjector(
        FaultPlan(
            events=(
                FaultEvent("crash", "propagation", phase="before_commit"),
            )
        )
    )
    try:
        checkpointed.embed_with_checkpoints(
            dataset.edges, dataset.n_nodes, faults=torn_commit
        )
    except InjectedCrash as crash:
        print(f"2. Crash injected during the {crash.site!r} checkpoint!")

    intact = np.array_equal(checkpointed.recover_embedding(), result.embedding)
    retained = checkpointed.wal.records[0]
    print(
        f"3. After restart the WAL recovers {retained.stage!r} checkpoint"
        f" #{retained.sequence} — previous embedding"
        f" {'intact' if intact else 'LOST'};"
        f" durable stages of the crashed run: {checkpointed.wal.stages[1:]}"
    )
    assert intact

    # Only the stage whose record was lost is redone.
    redone = checkpointed.resume(faults=torn_commit)
    assert np.array_equal(redone.embedding, result.embedding)
    print(
        f"4. Resume redid the lost stage alone"
        f" (now at checkpoint #{checkpointed.wal.last().sequence})"
    )

    # -- a crash between stages ---------------------------------------------

    plan = FaultPlan(
        events=(FaultEvent("crash", "factorization"),), seed=11
    )
    metrics = MetricsRegistry()
    embedder = OMeGaEmbedder(config, metrics=metrics)
    staged = CheckpointedEmbedder(embedder)
    injector = FaultInjector(plan, metrics)
    try:
        staged.embed_with_checkpoints(
            dataset.edges, dataset.n_nodes, faults=injector
        )
    except InjectedCrash as crash:
        print(
            f"5. Fault plan crashed the pipeline after {crash.site!r};"
            f" durable stages: {staged.wal.stages}"
        )

    resumed = staged.resume(faults=injector)
    saved = metrics.counter("checkpoint.recovered_sim_seconds").value
    identical = np.array_equal(resumed.embedding, result.embedding)
    print(
        f"6. Resume skipped"
        f" {metrics.counter('checkpoint.recovered_stages').value:.0f}"
        f" stages ({saved * 1e3:.2f} ms of simulated work not redone);"
        f" final embedding"
        f" {'bit-identical' if identical else 'DIFFERS'} to the"
        " uninterrupted run"
    )
    assert identical


if __name__ == "__main__":
    main()
