"""Stable result summarization for persistence (the artifact contract).

The campaign artifact store (:mod:`repro.scenarios.artifacts`) persists
simulation outcomes as JSON and must reload them *bit-identically*: a
comparison table rendered from a reloaded campaign has to match the one
rendered from the live run, byte for byte.  This module is the single
place that defines what "the summary of a run" means, so the live path
and the persistence path can never drift apart:

- :func:`result_metrics` — the raw headline scalars of one engine run
  (the numbers behind a suite comparison row),
- :func:`result_series` / :func:`result_series_doc` /
  :func:`series_from_doc` — the per-step scalar series as arrays and as
  a JSON-compatible document (Python floats round-trip exactly through
  JSON, so reload is bit-exact),
- :func:`statistics_to_doc` / :func:`statistics_from_doc` — the
  end-of-run :class:`~repro.core.stats.RunStatistics` report,
- :func:`comparison_to_doc` / :func:`comparison_from_doc` — the
  what-if :class:`~repro.core.whatif.ScenarioComparison` deltas.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

import numpy as np

from repro.core.engine import SimulationResult
from repro.core.whatif import ScenarioComparison
from repro.core.stats import RunStatistics
from repro.exceptions import SimulationError

#: Scalar per-step series persisted for every run (cooling series are
#: appended when the run was coupled).
SUMMARY_SERIES = (
    "times_s",
    "system_power_w",
    "loss_w",
    "chain_efficiency",
    "utilization",
    "num_running",
)


def result_metrics(result: SimulationResult | None) -> dict[str, float]:
    """Headline scalars of one run, as plain Python floats.

    These are the raw (unformatted) values behind one row of a suite
    comparison table; missing quantities (e.g. PUE on an uncoupled run)
    are NaN.  Persisting this dict and recomputing the formatted row
    from it is guaranteed to reproduce the live rendering.
    """
    if result is None:
        return {
            "mean_power_mw": math.nan,
            "energy_mwh": math.nan,
            "loss_percent": math.nan,
            "mean_pue": math.nan,
        }
    mean_power_w = result.mean_power_w
    return {
        "mean_power_mw": mean_power_w / 1e6,
        "energy_mwh": result.energy_mwh,
        "loss_percent": (
            result.mean_loss_w / mean_power_w * 100.0
            if mean_power_w
            else math.nan
        ),
        "mean_pue": (
            float(np.mean(result.cooling["pue"]))
            if "pue" in result.cooling
            else math.nan
        ),
    }


def result_series(result: SimulationResult) -> dict[str, np.ndarray]:
    """The persisted per-step scalar series, as arrays.

    Covers the :data:`SUMMARY_SERIES` set plus every 1-D cooling series
    the run recorded (keyed ``cooling.<name>``).
    """
    series = {name: getattr(result, name) for name in SUMMARY_SERIES}
    for name, values in sorted(result.cooling.items()):
        arr = np.asarray(values)
        if arr.ndim == 1:
            series[f"cooling.{name}"] = arr
    return series


def result_series_doc(result: SimulationResult) -> dict[str, list]:
    """Per-step scalar series (:func:`result_series`) as JSON-compatible
    lists.  ``np.ndarray.tolist()`` yields Python floats, which
    serialize to JSON with full round-trip precision.
    """
    return {name: arr.tolist() for name, arr in result_series(result).items()}


def series_from_doc(doc: dict[str, list]) -> dict[str, np.ndarray]:
    """Rebuild the persisted series as arrays, keyed as in the doc.

    ``None`` entries (strict-JSON encoding of NaN, see
    :mod:`repro.scenarios.artifacts`) come back as NaN.
    """
    if not isinstance(doc, dict):
        raise SimulationError("series document must be an object")
    out: dict[str, np.ndarray] = {}
    for name, values in doc.items():
        series = np.asarray(values)
        # A None makes the array object-typed; a numeric series is not.
        if series.dtype == object:
            series = np.asarray([math.nan if v is None else v for v in values])
        out[name] = series
    return out


def fidelity_rows(
    screen: Any, refined: Any, *, metric: str = "mean_pue"
) -> list[dict[str, Any]]:
    """Join screened and refined campaign cells by name on one metric.

    ``screen`` / ``refined`` are suite-result-likes whose entries expose
    ``name`` and ``metrics()`` (live or reloaded).  One row per refined
    cell, in refined order: the surrogate's value, the full-fidelity
    value, and their absolute error — the raw data of a multi-fidelity
    speedup-vs-error report.
    """
    screened = {entry.name: entry.metrics().get(metric, math.nan)
                for entry in screen}
    rows: list[dict[str, Any]] = []
    for entry in refined:
        full_value = float(entry.metrics().get(metric, math.nan))
        screen_value = float(screened.get(entry.name, math.nan))
        error = abs(screen_value - full_value)
        rows.append(
            {
                "cell": entry.name,
                "surrogate": screen_value,
                "full": full_value,
                "abs_error": error,
            }
        )
    return rows


def format_fidelity_table(
    rows: list[dict[str, Any]], *, metric: str = "mean_pue"
) -> str:
    """Render :func:`fidelity_rows` as an aligned terminal table."""
    if not rows:
        return "(no refined cells)"

    def num(value: Any) -> str:
        if not isinstance(value, (int, float)) or math.isnan(value):
            return "-"
        return format(value, ".4f")

    columns = ["cell", "surrogate", "full", "abs error"]
    rendered = [
        [str(r["cell"]), num(r["surrogate"]), num(r["full"]),
         num(r["abs_error"])]
        for r in rows
    ]
    widths = [
        max(len(columns[c]), *(len(row[c]) for row in rendered))
        for c in range(len(columns))
    ]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    rule = "  ".join("-" * w for w in widths)
    lines = [f"metric: {metric} (screen vs refined)", header, rule]
    for row in rendered:
        lines.append(
            "  ".join(
                cell.ljust(w) if i == 0 else cell.rjust(w)
                for i, (cell, w) in enumerate(zip(row, widths))
            )
        )
    return "\n".join(lines)


def statistics_to_doc(stats: RunStatistics) -> dict[str, Any]:
    """JSON-compatible document of the end-of-run report."""
    return dataclasses.asdict(stats)


def statistics_from_doc(doc: dict[str, Any]) -> RunStatistics:
    """Rebuild :class:`RunStatistics` from :func:`statistics_to_doc`."""
    fields = {f.name for f in dataclasses.fields(RunStatistics)}
    unknown = set(doc) - fields
    if unknown:
        raise SimulationError(
            f"unknown statistics fields in artifact: {sorted(unknown)}"
        )
    return RunStatistics(**doc)


def comparison_to_doc(comparison: ScenarioComparison) -> dict[str, Any]:
    """JSON-compatible document of a what-if comparison."""
    return dataclasses.asdict(comparison)


def comparison_from_doc(doc: dict[str, Any]) -> ScenarioComparison:
    """Rebuild :class:`ScenarioComparison` from :func:`comparison_to_doc`."""
    fields = {f.name for f in dataclasses.fields(ScenarioComparison)}
    unknown = set(doc) - fields
    if unknown:
        raise SimulationError(
            f"unknown comparison fields in artifact: {sorted(unknown)}"
        )
    return ScenarioComparison(**doc)


__all__ = [
    "SUMMARY_SERIES",
    "result_metrics",
    "result_series",
    "result_series_doc",
    "fidelity_rows",
    "format_fidelity_table",
    "series_from_doc",
    "statistics_to_doc",
    "statistics_from_doc",
    "comparison_to_doc",
    "comparison_from_doc",
]
