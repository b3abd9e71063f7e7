"""The digital-twin core: the RAPS engine and everything driven by it.

- :mod:`repro.core.engine` — Algorithm 1: the tick loop coupling the
  scheduler, the power model, and the cooling FMU (15 s cadence),
- :mod:`repro.core.replay` — telemetry replay + validation (Finding 8),
- :mod:`repro.core.physical` — the simulated physical twin used to
  produce "measured" telemetry (see DESIGN.md substitutions),
- :mod:`repro.core.whatif` — what-if comparison machinery (smart
  rectifiers, 380 V DC; the scenario *API* lives in
  :mod:`repro.scenarios`),
- :mod:`repro.core.earlystop` — steady-state / divergence predicates
  for ``engine.run(stop_when=...)`` over :class:`StepState` streams,
- :mod:`repro.core.profiling` — per-phase wall-time profiling of the
  engine hot path (``repro profile`` and the BENCH_core trajectory),
- :mod:`repro.core.stats` — output statistics (section III-B5, Table IV),
- :mod:`repro.core.summary` — stable result summarization: the raw
  scalars and JSON documents the campaign artifact store persists,
- :mod:`repro.core.validate` — RMSE/MAE/%-error comparison harness.
"""

from repro.core.earlystop import (
    DivergenceGuard,
    SteadyStateDetector,
    all_of,
    any_of,
)
from repro.core.engine import RapsEngine, SimulationResult, StepState
from repro.core.profiling import ENGINE_PHASES, PhaseProfiler
from repro.core.stats import RunStatistics, DailyStatistics, aggregate_daily
from repro.core.summary import result_metrics, result_series_doc
from repro.core.validate import SeriesComparison, compare_series, percent_error
from repro.core.physical import PhysicalTwin, MeasurementNoise
from repro.core.replay import ReplayValidation, replay_dataset
from repro.core.whatif import ScenarioComparison

__all__ = [
    "RapsEngine",
    "SimulationResult",
    "StepState",
    "PhaseProfiler",
    "ENGINE_PHASES",
    "RunStatistics",
    "DailyStatistics",
    "aggregate_daily",
    "result_metrics",
    "result_series_doc",
    "SeriesComparison",
    "compare_series",
    "percent_error",
    "PhysicalTwin",
    "MeasurementNoise",
    "ReplayValidation",
    "replay_dataset",
    "ScenarioComparison",
    "SteadyStateDetector",
    "DivergenceGuard",
    "any_of",
    "all_of",
]
