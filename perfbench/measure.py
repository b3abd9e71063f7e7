"""Shared measurement helpers for the perfbench workloads.

Percentiles, the per-run result record, peak memory, and the output
checks every workload applies outside its timed window.
"""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

#: The pinned telemetry-day regime (the values the what-if benches use).
#: With free day parameters the seed picks the load regime too: seed 0
#: draws a 199-job, 7.5 MW day while seeds 1 and 2 draw 3.9-5.2 k jobs
#: at 19 MW.  Pinned, every seed draws about 1870 jobs at 19 MW.
PINNED_DAY = dict(
    mean_arrival_s=45.0,
    mean_nodes_per_job=300.0,
    mean_runtime_s=2400.0,
    mean_gpu_util=0.7,
)

DAY_S = 86400.0

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def quantile(values, q: float) -> float:
    """The ``q`` quantile of ``values`` (linear interpolation)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, plus its largest reaped child."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


@dataclass
class RunResult:
    """What one workload run reports back to ``run.py``."""

    e2e: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class Ledger:
    """Counts attempted operations and records why any failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: set = set()
        self.problems: list[str] = []

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, op, why: str) -> None:
        """Mark operation ``op`` failed (counted once however many checks)."""
        self.failed.add(op)
        self.problems.append(f"{op}: {why}")


def invariant_failures(result, coupled: bool) -> list[str]:
    """The stress-suite invariant battery applied to one engine result.

    Finite headline metrics, no NaN series, non-negative power, energy
    balance, utilisation in [0, 1] and PUE >= 1, exactly as
    :class:`repro.workloads.stress.StressSuite` checks persisted cells.
    """
    from repro.core.summary import (
        result_metrics,
        result_series_doc,
        series_from_doc,
    )
    from repro.scenarios.artifacts import StoredScenarioResult
    from repro.workloads.stress import _check_cell

    stored = StoredScenarioResult(
        scenario=None,
        metrics_doc=result_metrics(result),
        series=series_from_doc(result_series_doc(result)),
    )
    return _check_cell(stored, SimpleNamespace(with_cooling=coupled))


def result_differences(a, b, rows: int | None = None) -> list[str]:
    """Names of the engine-result series that are not bit-identical.

    ``rows`` compares only the first ``rows`` samples of each series.
    """
    cut = slice(None) if rows is None else slice(0, rows)
    names = [
        "times_s", "system_power_w", "loss_w", "sivoc_loss_w",
        "rectifier_loss_w", "chain_efficiency", "utilization",
        "num_running", "cdu_power_w", "cdu_heat_w",
    ]
    diffs = []
    for name in names:
        x = getattr(a, name)[cut]
        y = getattr(b, name)[cut]
        if x.shape != y.shape or not np.array_equal(x, y, equal_nan=True):
            diffs.append(name)
    if sorted(a.cooling) != sorted(b.cooling):
        diffs.append("cooling keys")
    for key in sorted(set(a.cooling) & set(b.cooling)):
        x = np.asarray(a.cooling[key])[cut]
        y = np.asarray(b.cooling[key])[cut]
        if x.shape != y.shape or not np.array_equal(x, y, equal_nan=True):
            diffs.append(f"cooling.{key}")
    return diffs
