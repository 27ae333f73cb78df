"""Parallel execution: simulated, shared-memory, and thread backends.

Three interchangeable backends implement the :class:`KernelExecutor`
protocol behind the engine's kernel-dispatch seam:

- :class:`SimulatedExecutor` — serial in-process kernels, simulated
  per-thread clocks (the deterministic default);
- :class:`SharedMemoryExecutor` — EaTA partitions executed concurrently
  on worker processes over zero-copy shared-memory views of the CSDB
  arrays, with a persistent warm segment cache and batched plan
  submission, bit-identical to the serial result;
- :class:`ThreadsExecutor` — partitions on a persistent in-process
  thread pool, zero segment copies (the compiled kernel releases the
  GIL), bit-identical to the serial result.

Real backends expose :class:`ExecutorStats` warm-path counters that the
engine folds into its metrics registry.
"""

from repro.parallel.scheduler import (
    ExecutorStats,
    KernelExecutor,
    SimulatedExecutor,
)
from repro.parallel.shared import (
    SharedMemoryExecutor,
    WorkerCrashError,
    get_shared_executor,
    mp_context,
    shutdown_shared_executors,
)
from repro.parallel.stats import ThreadStats, summarize_thread_times
from repro.parallel.threads import (
    ThreadsExecutor,
    get_threads_executor,
    shutdown_threads_executors,
)

__all__ = [
    "ExecutorStats",
    "KernelExecutor",
    "SharedMemoryExecutor",
    "SimulatedExecutor",
    "ThreadStats",
    "ThreadsExecutor",
    "WorkerCrashError",
    "get_shared_executor",
    "get_threads_executor",
    "mp_context",
    "shutdown_shared_executors",
    "shutdown_threads_executors",
    "summarize_thread_times",
]
