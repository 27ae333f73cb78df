"""Per-layer metrics of the traced pass, derived from the recorded spans.

Times are per primary operation (totals over the traced ``bench.op``
trees divided by their count) unless the name says otherwise; a layer a
workload never enters reports 0 calls and 0 seconds.  The *ledger*
metrics (``spans.LEDGER_METRICS``) are self times and sum to
``bench.root_s``; the rest are inclusive durations, counts and ratios.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import spans as sp
from spans import ATTRS, NAME, PARENT, SAMPLE


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, workload, probe: dict, untraced_op: list[float],
                  traced_op: list[float]) -> dict[str, float]:
    durs = sp.durations(spans)
    selfs = sp.self_times(spans)
    roots = sp.root_of(spans)
    root_names = [spans[r][NAME] for r in roots]

    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span[NAME]].append(index)

    def pick(name, root=None):
        """Indices of spans called ``name`` (under ``root`` trees only)."""
        return [
            i for i in by_name[name] if root is None or root_names[i] == root
        ]

    def total(name, root=None, values=durs):
        return sum(values[i] for i in pick(name, root))

    ops = pick("bench.op")
    n_ops = max(len(ops), 1)
    m = {k: v / n_ops for k, v in sp.ledger(spans).items()}
    m["bench.root_s"] = sum(durs[i] for i in ops) / n_ops
    m["bench.ledger_sum_s"] = sum(m[k] for k in sp.LEDGER_METRICS)
    m["bench.samples"] = len(ops)
    # The program's own top-level span is the first child of bench.op.
    op_set = set(ops)
    top = [i for i, s in enumerate(spans) if s[PARENT] in op_set]
    m["bench.unattributed_fraction"] = _ratio(
        sum(selfs[i] for i in top), sum(durs[i] for i in top)
    )
    m["bench.trace_overhead_fraction"] = (
        _ratio(_median(traced_op), _median(untraced_op)) - 1.0
        if untraced_op and traced_op else 0.0
    )

    # formats: the kernel, stated against the host's stream bandwidth.
    multiplies = pick("core.spmm.multiply", "bench.op")
    kernel_s = m["formats.kernel_s"] * n_ops
    nnz = sum(spans[i][ATTRS]["nnz"] for i in multiplies)
    computed = sum(
        a["nnz"] * (12 + 8 * a["d"]) + a["rows"] * 8 * a["d"]
        for a in (spans[i][ATTRS] for i in multiplies)
    )
    m["formats.kernel_calls"] = len(pick("formats.kernel", "bench.op")) / n_ops
    m["formats.kernel_nnz"] = nnz / n_ops
    m["formats.kernel_computed_bytes"] = computed / n_ops
    m["formats.kernel_gbps_computed"] = _ratio(computed, kernel_s) / 1e9
    m["formats.kernel_frac_stream"] = _ratio(
        m["formats.kernel_gbps_computed"], probe["stream_copy_gbps"]
    )
    m["formats.build_calls"] = len(pick("formats.build", "bench.op")) / n_ops
    m["formats.setup_build_s"] = total(
        "formats.build", "bench.setup", selfs
    ) + total("formats.transpose", "bench.setup", selfs)

    # core: allocator, prefetcher and engine bookkeeping per call.
    m["core.eata.calls"] = len(pick("core.eata.allocate", "bench.op")) / n_ops
    m["core.wofp.calls"] = len(pick("core.wofp.plan", "bench.op")) / n_ops
    m["core.spmm.calls"] = len(multiplies) / n_ops
    m["core.spmm.overhead_ms_per_call"] = 1e3 * _ratio(
        sum(durs[i] for i in multiplies) - kernel_s, len(multiplies)
    )
    for stage in ("factorization", "propagation"):
        m[f"core.embedding.{stage}_s"] = (
            total(f"core.embedding.stage.{stage}", "bench.op") / n_ops
        )

    # parallel: host time of run_partitions per arm, paired by round.
    by_sample = defaultdict(dict)
    arm_roots = {"serial": "bench.op", "shared": "bench.arm.shared",
                 "threads": "bench.arm.threads"}
    for arm, root in arm_roots.items():
        indices = pick(f"parallel.{arm}", root)
        m[f"parallel.{arm}.call_ms"] = 1e3 * _median([durs[i] for i in indices])
        for i in indices:
            by_sample[spans[i][SAMPLE]].setdefault(arm, durs[i])
    for arm in ("shared", "threads"):
        m[f"parallel.{arm}.speedup"] = _median([
            r["serial"] / r[arm] for r in by_sample.values()
            if "serial" in r and arm in r
        ])
    m["parallel.shared.cold_ms"] = 1e3 * total("parallel.shared", "bench.arm.cold")
    m["parallel.shared.warm_ms"] = 1e3 * _median(
        [durs[i] for i in pick("parallel.shared", "bench.arm.warm")]
    )

    # memsim: WAL appends during set-up (warm-up embed, shard genesis).
    m["memsim.checkpoint_append_s"] = total(
        "memsim.checkpoint_append", "bench.setup"
    )

    # serve / shard: per request and per lookup.
    requests = n_ops * workload.work_per_op
    m["serve.self_us_per_req"] = 1e6 * m["serve.self_s"] * n_ops / requests
    m["serve.backend_us_per_req"] = (
        1e6 * total("serve.backend", "bench.op") / requests
    )
    lookups = pick("shard.lookup", "bench.op")
    lookup_durs = sorted(durs[i] for i in lookups)
    lookup_s = sum(lookup_durs)
    m["shard.lookups"] = len(lookups) / n_ops
    m["shard.lookup_p50_us"] = 1e6 * _median(lookup_durs)
    m["shard.lookup_p99_us"] = 1e6 * (
        lookup_durs[int(0.99 * (len(lookup_durs) - 1))] if lookup_durs else 0.0
    )
    m["shard.rows_per_s"] = _ratio(
        sum(spans[i][ATTRS]["rows"] for i in lookups), lookup_s
    )
    splits = pick("shard.route_split")
    m["shard.route_split_us"] = 1e6 * _ratio(
        sum(durs[i] for i in splits), len(splits)
    )
    m["shard.update_p50_us"] = 1e6 * _median(
        [durs[i] for i in pick("shard.apply_update", "bench.side")]
    )
    m["shard.checkpoint_ms"] = 1e3 * _median(
        [durs[i] for i in pick("shard.checkpoint_all")]
    )

    m["host.nproc"] = probe["nproc"]
    m["host.stream_copy_gbps"] = probe["stream_copy_gbps"]
    m["host.random_gather_gbps"] = probe["random_gather_gbps"]
    m["host.probe_s"] = probe["probe_s"]
    m["bench.n_workers"] = workload.info["n_workers"]
    m["bench.n_shards"] = workload.info["n_shards"]
    return m
