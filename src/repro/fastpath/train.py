"""Training pipeline for fast-path surrogate bundles.

Two data sources, one artifact:

- :func:`fit_bundle` — the paper's L3 strategy verbatim: sample the L4
  models (vectorized power pipeline; warmed-up cooling plant on a
  power × wet-bulb grid) to generate training rows, fit, and stamp
  provenance.  The cooling grid is the expensive part; the power heads
  fit in well under a second on any spec.
- :func:`fit_bundle_from_store` — mine the rows out of a persisted
  :class:`~repro.scenarios.artifacts.CampaignStore` instead of
  re-running the plant: every coupled campaign cell already carries
  ``system_power_w`` and ``cooling.pue`` series plus its scenario's
  wet-bulb, so a finished sweep campaign *is* a cooling-surrogate
  training set.  The power heads are still sampled live (per-node
  utilization features are not persisted), which costs milliseconds.

:func:`default_bundle` memoizes training per (spec, cooling) in
process, so scenario runs that ask for surrogate fidelity without an
explicit bundle train at most once — including inside campaign worker
processes.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.config.schema import SystemSpec
from repro.exceptions import ExaDigiTError
from repro.fastpath.bundle import (
    AUX_HEADS,
    SurrogateBundle,
    make_provenance,
)
from repro.power.system import SystemPowerModel
from repro.scenarios.artifacts import CampaignStore, spec_sha256
from repro.surrogate.models import (
    CoolingSurrogate,
    PowerSurrogate,
    sample_power_training_rows,
)
from repro.surrogate.regression import RidgeRegression


def sample_power_rows(
    spec: SystemSpec, *, n_samples: int = 400, seed: int = 0
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Sample the L4 power pipeline into surrogate training rows.

    Thin validation wrapper over
    :func:`repro.surrogate.models.sample_power_training_rows` — the one
    sampling procedure shared with
    :meth:`PowerSurrogate.fit_from_simulation`, so the power surrogate
    and every :data:`~repro.fastpath.bundle.AUX_HEADS` head are trained
    on mutually consistent rows.
    """
    if n_samples < 32:
        raise ExaDigiTError("need at least 32 power samples")
    return sample_power_training_rows(spec, n_samples=n_samples, seed=seed)


def fit_power_heads(
    spec: SystemSpec,
    *,
    n_samples: int = 400,
    seed: int = 0,
    degree: int = 2,
) -> tuple[PowerSurrogate, dict[str, RidgeRegression]]:
    """Fit the power surrogate plus its auxiliary loss heads."""
    xs, ys = sample_power_rows(spec, n_samples=n_samples, seed=seed)
    power = PowerSurrogate(degree=degree)
    power._fit(xs, ys["system_power_w"])
    x_feat = power.features.transform(xs)
    heads = {
        name: RidgeRegression(power.regressor.alpha).fit(x_feat, ys[name])
        for name in AUX_HEADS
    }
    return power, heads


def default_power_range_w(spec: SystemSpec) -> tuple[float, float]:
    """Cooling-grid power bounds derived from the spec's idle..peak span.

    A margin past both ends keeps real runs inside the interpolative
    domain (idle runs sit a touch below idle-at-the-sample-instant, and
    the clip in :meth:`SurrogateBundle.predict_cooling` handles the
    rest).
    """
    model = SystemPowerModel(spec)
    idle = model.idle_power_w()
    peak = model.peak_power_w()
    return (0.9 * idle, 1.05 * peak)


def fit_bundle(
    spec: SystemSpec,
    *,
    cooling: bool = True,
    power_samples: int = 400,
    power_degree: int = 2,
    cooling_grid: int = 4,
    cooling_degree: int = 2,
    settle_s: float = 3600.0,
    tail_samples: int = 40,
    power_range_w: tuple[float, float] | None = None,
    wetbulb_range_c: tuple[float, float] = (-5.0, 28.0),
    seed: int = 0,
) -> SurrogateBundle:
    """Train a complete bundle by sampling the L4 models.

    ``cooling=False`` skips the (expensive) plant grid and yields a
    power-only bundle, enough for ``with_cooling=False`` scenarios.
    Defaults favor robustness per unit of training time: a 4×4 grid
    with a degree-2 response surface and a spec-derived power range.
    """
    power, heads = fit_power_heads(
        spec, n_samples=power_samples, seed=seed, degree=power_degree
    )
    cooling_model = None
    training: dict[str, Any] = {
        "power_samples": power_samples,
        "power_degree": power_degree,
    }
    if cooling:
        p_range = power_range_w or default_power_range_w(spec)
        cooling_model = CoolingSurrogate.fit_from_simulation(
            spec,
            power_range_w=p_range,
            wetbulb_range_c=wetbulb_range_c,
            grid=cooling_grid,
            settle_s=settle_s,
            tail_samples=tail_samples,
            degree=cooling_degree,
            seed=seed,
        )
        training.update(
            cooling_grid=cooling_grid,
            cooling_degree=cooling_degree,
            settle_s=settle_s,
            power_range_w=list(p_range),
            wetbulb_range_c=list(wetbulb_range_c),
        )
    return SurrogateBundle(
        power=power,
        aux_heads=heads,
        cooling=cooling_model,
        provenance=make_provenance(
            spec, trained_from="simulation", training=training
        ),
    )


def cooling_rows_from_store(
    store: CampaignStore, *, tail_fraction: float = 0.5
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extract (power, wet-bulb, pue, htw-supply) rows from a campaign.

    One row per persisted cell that was run coupled and declares a
    ``wetbulb_c`` field (the synthetic-scenario sweeps of PR 2 qualify).
    Power/PUE/temperature are averaged over the trailing
    ``tail_fraction`` of each cell's series, past the initial plant
    transient.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ExaDigiTError("tail_fraction must be in (0, 1]")
    powers, wetbulbs, pues, temps = [], [], [], []
    pue_cells_without_temp = 0
    for _, cell in sorted(store.completed().items()):
        wb = getattr(cell.scenario, "wetbulb_c", None)
        series = cell.series
        if wb is None or "cooling.pue" not in series:
            continue
        pue = np.asarray(series["cooling.pue"], dtype=np.float64)
        power = np.asarray(series["system_power_w"], dtype=np.float64)
        tail = max(1, int(math.ceil(pue.size * tail_fraction)))
        row_power = float(np.nanmean(power[-tail:]))
        row_pue = float(np.nanmean(pue[-tail:]))
        if not (math.isfinite(row_power) and math.isfinite(row_pue)):
            continue
        if "cooling.htw_supply_temp_c" not in series:
            pue_cells_without_temp += 1
            continue
        temp = np.asarray(
            series["cooling.htw_supply_temp_c"], dtype=np.float64
        )
        row_temp = float(np.nanmean(temp[-tail:]))
        if not math.isfinite(row_temp):
            pue_cells_without_temp += 1
            continue
        powers.append(row_power)
        wetbulbs.append(float(wb))
        pues.append(row_pue)
        temps.append(row_temp)
    if not powers and pue_cells_without_temp:
        raise ExaDigiTError(
            f"campaign {store.path} has {pue_cells_without_temp} coupled "
            "PUE cells but none recorded cooling.htw_supply_temp_c; "
            "re-run the campaign with the current full-fidelity engine, "
            "whose cooling records include it (the cooling surrogate "
            "trains both its PUE and HTW-supply heads)"
        )
    return (
        np.asarray(powers),
        np.asarray(wetbulbs),
        np.asarray(pues),
        np.asarray(temps),
    )


def fit_cooling_from_store(
    store: CampaignStore,
    *,
    degree: int = 2,
    tail_fraction: float = 0.5,
    seed: int = 0,
) -> CoolingSurrogate:
    """Fit a cooling surrogate from persisted campaign cells only."""
    power, wb, pue, temp = cooling_rows_from_store(
        store, tail_fraction=tail_fraction
    )
    if power.size == 0:
        raise ExaDigiTError(
            f"campaign {store.path} has no coupled cells with a wetbulb_c "
            "field; run a coupled synthetic sweep first"
        )
    return CoolingSurrogate.fit_rows(
        power, wb, pue, temp, degree=degree, seed=seed
    )


def fit_bundle_from_store(
    store: CampaignStore,
    *,
    cooling: bool = True,
    power_samples: int = 400,
    power_degree: int = 2,
    cooling_degree: int = 2,
    tail_fraction: float = 0.5,
    seed: int = 0,
) -> SurrogateBundle:
    """Train a bundle from a persisted campaign's artifacts.

    The cooling surrogate comes entirely from ``results.jsonl``; the
    power heads are sampled live against the spec embedded in the
    campaign manifest (cheap, and the per-node features they need are
    not persisted).  A campaign without qualifying coupled cells raises
    unless ``cooling=False`` explicitly asks for a power-only bundle.
    Provenance records the campaign directory and how many cells
    contributed.
    """
    spec = store.system_spec()
    power, heads = fit_power_heads(
        spec, n_samples=power_samples, seed=seed, degree=power_degree
    )
    rows = (
        cooling_rows_from_store(store, tail_fraction=tail_fraction)
        if cooling
        else (np.zeros(0),) * 4
    )
    cooling_model = None
    if rows[0].size:
        cooling_model = CoolingSurrogate.fit_rows(
            *rows, degree=cooling_degree, seed=seed
        )
    elif cooling:
        raise ExaDigiTError(
            f"campaign {store.path} has no coupled cells with a wetbulb_c "
            "field to train the cooling surrogate from; run a coupled "
            "synthetic sweep first, or pass cooling=False for a "
            "power-only bundle"
        )
    return SurrogateBundle(
        power=power,
        aux_heads=heads,
        cooling=cooling_model,
        provenance=make_provenance(
            spec,
            trained_from="campaign",
            training={
                "campaign": str(store.path),
                "campaign_name": store.name,
                "cooling_cells": int(rows[0].size),
                "power_samples": power_samples,
            },
        ),
    )


#: In-process memo of on-demand bundles, keyed by (spec sha, cooling?).
_BUNDLE_CACHE: dict[tuple[str, bool], SurrogateBundle] = {}


def default_bundle(
    spec: SystemSpec, *, cooling: bool = True, **fit_kwargs: Any
) -> SurrogateBundle:
    """The train-on-first-use bundle behind ``fidelity="surrogate"``.

    Memoized per process: a suite or campaign that runs many surrogate
    cells against one spec pays the training cost once (worker
    processes each pay once).  A cached coupled bundle also serves
    power-only requests.
    """
    sha = spec_sha256(spec)
    cached = _BUNDLE_CACHE.get((sha, True))
    if cached is None and not cooling:
        cached = _BUNDLE_CACHE.get((sha, False))
    if cached is None:
        cached = fit_bundle(spec, cooling=cooling, **fit_kwargs)
        _BUNDLE_CACHE[(sha, cooling)] = cached
    return cached


def clear_bundle_cache() -> None:
    """Drop the in-process training memo (tests, retrain-after-edit)."""
    _BUNDLE_CACHE.clear()


__all__ = [
    "sample_power_rows",
    "fit_power_heads",
    "fit_bundle",
    "cooling_rows_from_store",
    "fit_cooling_from_store",
    "fit_bundle_from_store",
    "default_power_range_w",
    "default_bundle",
    "clear_bundle_cache",
]
