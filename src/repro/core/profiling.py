"""Per-phase wall-clock profiling of the engine hot path.

The coupled main loop spends its time in four places per 15 s trace
quantum — event-driven *scheduling*, the vectorized *power* pipeline,
the *cooling* plant substeps, and *collect*: the result-column row
writes and the downstream consumer (progress callbacks, transports).  A
:class:`PhaseProfiler` attached to a :class:`~repro.core.engine.RapsEngine`
(``engine.profiler = PhaseProfiler()``) accumulates wall time per phase
with near-zero overhead when detached (a single ``is None`` check per
phase), turning "where does the time go?" into a measured answer::

    prof = PhaseProfiler()
    engine.profiler = prof
    engine.run(jobs, 86400.0)
    print(prof.summary())
    json.dumps(prof.as_dict())

The ``repro profile`` CLI verb wraps exactly this and emits the JSON
document, which is what :mod:`benchmarks.test_bench_core` and the
``docs/performance.md`` hot-path map are built from.
"""

from __future__ import annotations

import json
import time
from typing import Any

#: Engine phases in hot-path order (warmup runs once per coupled run).
ENGINE_PHASES = ("warmup", "schedule", "power", "cooling", "collect")


def _is_subphase(name: str) -> bool:
    """A phase named ``parent.child`` (``cooling.advance``) is timed
    inside ``parent``, so totals leave it out."""
    return "." in name


class PhaseProfiler:
    """Accumulates wall time and call counts per named phase.

    Phases are free-form strings; the engine reports
    :data:`ENGINE_PHASES`, the resident plant kernel splits ``cooling``
    into the sub-phases ``cooling.advance`` and ``cooling.records``
    (a dotted name is timed inside its parent, so the attributed total
    leaves it out), and the batched engine adds ``plan``, the
    scenarios' workload building.  The profiler also tracks run wall time
    (between :meth:`begin_run` / :meth:`end_run`) and the engine's step
    and power-evaluation counters, so one document captures both
    *where* the time goes and *how much* work was done.

    The profiler is **re-entrant safe**: one instance may be attached
    across any number of ``run()`` calls.  ``totals``/``counts``/
    ``steps``/``wall_s`` keep accumulating across runs (the historical
    contract), while :attr:`runs` records one document per completed
    run — steps, wall time, power evaluations, and that run's *own*
    phase seconds — so per-run separation is never lost.  ``end_run``
    tolerates engines that never evaluated power (the counter defaults
    to 0, e.g. surrogate-fidelity runs) and being called without a
    matching ``begin_run`` (wall time is then recorded as 0).
    """

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.steps = 0
        self.wall_s = 0.0
        self.power_evals = 0
        #: One record per completed run (appended by :meth:`end_run`).
        self.runs: list[dict[str, Any]] = []
        self._run_t0: float | None = None
        self._run_totals_base: dict[str, float] = {}

    # -- accumulation ------------------------------------------------------------

    def add(self, phase: str, seconds: float) -> None:
        """Record one timed interval for ``phase``."""
        self.totals[phase] = self.totals.get(phase, 0.0) + seconds
        self.counts[phase] = self.counts.get(phase, 0) + 1

    def begin_run(self) -> None:
        self._run_t0 = time.perf_counter()
        self._run_totals_base = dict(self.totals)

    def end_run(self, steps: int, *, power_evals: int = 0) -> None:
        run_wall = 0.0
        if self._run_t0 is not None:
            run_wall = time.perf_counter() - self._run_t0
            self.wall_s += run_wall
            self._run_t0 = None
        self.steps += steps
        self.power_evals += power_evals
        base = self._run_totals_base
        self.runs.append(
            {
                "steps": steps,
                "wall_s": run_wall,
                "power_evals": power_evals,
                "phases": {
                    name: total - base.get(name, 0.0)
                    for name, total in self.totals.items()
                    if total - base.get(name, 0.0) > 0.0
                },
            }
        )
        self._run_totals_base = dict(self.totals)

    @property
    def last_run(self) -> dict[str, Any] | None:
        """The most recently completed run's record, if any."""
        return self.runs[-1] if self.runs else None

    # -- reporting ---------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-compatible profile document."""
        phases = {}
        for name in sorted(self.totals, key=lambda p: -self.totals[p]):
            calls = self.counts[name]
            total = self.totals[name]
            phases[name] = {
                "total_s": round(total, 6),
                "calls": calls,
                "mean_us": round(total / calls * 1e6, 3) if calls else 0.0,
            }
        doc: dict[str, Any] = {
            "phases": phases,
            "steps": self.steps,
            "wall_s": round(self.wall_s, 6),
        }
        if self.wall_s > 0:
            doc["steps_per_s"] = round(self.steps / self.wall_s, 3)
        total_phased = sum(
            total for name, total in self.totals.items()
            if not _is_subphase(name)
        )
        doc["unattributed_s"] = round(max(self.wall_s - total_phased, 0.0), 6)
        doc["power_evals"] = self.power_evals
        doc["runs"] = len(self.runs)
        return doc

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def summary(self) -> str:
        """Aligned text table of the phase breakdown."""
        doc = self.as_dict()
        lines = [f"{'phase':<16} {'total s':>10} {'calls':>8} {'mean us':>10}"]
        lines.append("-" * len(lines[0]))
        for name, row in doc["phases"].items():
            label = f"  {name}" if _is_subphase(name) else name
            lines.append(
                f"{label:<16} {row['total_s']:>10.4f} {row['calls']:>8d} "
                f"{row['mean_us']:>10.1f}"
            )
        lines.append(
            f"steps={doc['steps']} wall={doc['wall_s']:.3f}s "
            f"power_evals={doc['power_evals']}"
        )
        return "\n".join(lines)


__all__ = ["PhaseProfiler", "ENGINE_PHASES"]
