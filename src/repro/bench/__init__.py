"""Benchmark harness utilities shared by the ``benchmarks/`` scripts."""

from repro.bench.calibration import (
    CalibrationPoint,
    calibration_report,
    format_report,
)
from repro.bench.harness import (
    format_seconds,
    format_table,
    geometric_mean,
    project_full_scale,
)

__all__ = [
    "CalibrationPoint",
    "calibration_report",
    "format_report",
    "format_seconds",
    "format_table",
    "geometric_mean",
    "project_full_scale",
]
