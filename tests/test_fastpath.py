"""Fast-path fidelity: surrogate engine, bundles, multi-fidelity campaigns.

Accuracy tolerances here are deliberately loose (the module fixture
trains on a coarse, short-settle grid to keep tier-1 fast); the tight
acceptance numbers live in ``benchmarks/test_bench_fastpath_speedup.py``
with production-grade training.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.exceptions import ExaDigiTError, ScenarioError, SimulationError
from repro.fastpath import (
    MultiFidelityCampaign,
    SurrogateBundle,
    SurrogateEngine,
    fit_bundle,
    fit_bundle_from_store,
)
from repro.fastpath.train import _BUNDLE_CACHE, clear_bundle_cache
from repro.scenarios import (
    Campaign,
    DigitalTwin,
    ExperimentSuite,
    GridSweepScenario,
    Scenario,
    SyntheticScenario,
    WhatIfScenario,
)
from repro.scenarios.artifacts import spec_sha256
from tests.conftest import assert_bitidentical, make_small_spec

DURATION_S = 1800.0


@pytest.fixture(scope="module")
def spec():
    return make_small_spec()


@pytest.fixture(scope="module")
def bundle(spec):
    # Coarse grid + short settle: fast to train, loose-tolerance tests.
    return fit_bundle(
        spec,
        cooling=True,
        cooling_grid=3,
        cooling_degree=2,
        settle_s=900.0,
        tail_samples=20,
    )


@pytest.fixture(scope="module")
def full_outcome(spec):
    return SyntheticScenario(duration_s=DURATION_S, seed=3).run(
        DigitalTwin(spec)
    )


@pytest.fixture(scope="module")
def fast_outcome(spec, bundle):
    twin = DigitalTwin(spec, fidelity="surrogate", surrogates=bundle)
    return SyntheticScenario(duration_s=DURATION_S, seed=3).run(twin)


def _seed_cache(spec, bundle):
    """Pre-train the on-demand cache so worker-free tests stay fast."""
    _BUNDLE_CACHE[(spec_sha256(spec), True)] = bundle


# -- engine protocol -----------------------------------------------------------


def test_surrogate_result_shape_matches_full(full_outcome, fast_outcome):
    full, fast = full_outcome.result, fast_outcome.result
    assert np.array_equal(full.times_s, fast.times_s)
    assert fast.system_power_w.shape == full.system_power_w.shape
    assert fast.cdu_power_w.shape == full.cdu_power_w.shape
    assert set(fast.cooling) == {"pue", "htw_supply_temp_c"}


def test_scheduling_is_exact_across_fidelities(full_outcome, fast_outcome):
    """The surrogate swaps physics, never scheduling."""
    full, fast = full_outcome.result, fast_outcome.result
    assert np.array_equal(full.utilization, fast.utilization)
    assert np.array_equal(full.num_running, fast.num_running)
    assert full.scheduler_stats.completed == fast.scheduler_stats.completed


def test_power_accuracy(full_outcome, fast_outcome):
    full, fast = full_outcome.metrics(), fast_outcome.metrics()
    assert full["mean_power_mw"] > 0
    rel = abs(full["mean_power_mw"] - fast["mean_power_mw"]) / full["mean_power_mw"]
    assert rel < 0.01


def test_pue_accuracy(full_outcome, fast_outcome):
    full, fast = full_outcome.metrics(), fast_outcome.metrics()
    assert math.isfinite(fast["mean_pue"])
    assert abs(full["mean_pue"] - fast["mean_pue"]) < 0.05


def test_iter_steps_streams_stepstates(spec, bundle):
    engine = SurrogateEngine(spec, bundle)
    from repro.scheduler.workloads import synthetic_workload

    jobs = synthetic_workload(spec, 900.0, seed=0)
    steps = list(engine.iter_steps(jobs, 900.0, wetbulb=12.0))
    assert len(steps) == 60
    assert steps[0].index == 0 and steps[-1].time_s == 59 * 15.0
    assert all(math.isfinite(s.pue) for s in steps)


def test_statistics_report_works(fast_outcome):
    report = fast_outcome.statistics.report()
    assert "average power" in report


# -- guard rails ---------------------------------------------------------------


def test_power_only_bundle_rejects_coupled_runs(spec):
    power_only = fit_bundle(spec, cooling=False)
    with pytest.raises(SimulationError, match="no cooling surrogate"):
        SurrogateEngine(spec, power_only, with_cooling=True)
    # Uncoupled is fine and produces NaN-free power.
    engine = SurrogateEngine(spec, power_only, with_cooling=False)
    from repro.scheduler.workloads import synthetic_workload

    result = engine.run(synthetic_workload(spec, 900.0, seed=1), 900.0)
    assert math.isnan(float(np.mean(result.system_power_w))) is False


def test_whatif_rejected_on_surrogate_twin(spec, bundle):
    twin = DigitalTwin(spec, fidelity="surrogate", surrogates=bundle)
    with pytest.raises(ScenarioError, match="fidelity='full'"):
        WhatIfScenario(duration_s=900.0).run(twin)


def test_invalid_fidelity_rejected():
    with pytest.raises(ScenarioError, match="fidelity"):
        SyntheticScenario(fidelity="quantum")
    with pytest.raises(ScenarioError, match="fidelity"):
        DigitalTwin(make_small_spec(), fidelity="quantum")


# -- serialization -------------------------------------------------------------


def test_fidelity_field_round_trips():
    scenario = SyntheticScenario(duration_s=900.0, fidelity="surrogate")
    doc = scenario.to_dict()
    assert doc["fidelity"] == "surrogate"
    assert Scenario.from_dict(doc) == scenario
    # Pre-fidelity documents still load (field defaults to inherit).
    doc.pop("fidelity")
    assert Scenario.from_dict(doc).fidelity == ""


def test_bundle_save_load_round_trip(tmp_path, spec, bundle):
    path = bundle.save(tmp_path / "mini")
    assert path.suffix == ".json"
    reloaded = SurrogateBundle.load(path, spec=spec)
    frac = np.array([0.2, 0.7])
    cpu = np.array([0.4, 0.9])
    gpu = np.array([0.1, 0.8])
    original = bundle.predict_power_features(frac, cpu, gpu)
    restored = reloaded.predict_power_features(frac, cpu, gpu)
    for key, values in original.items():
        assert np.array_equal(values, restored[key]), key
    power = np.array([4.0e5, 6.0e5])
    wb = np.array([10.0, 20.0])
    assert np.array_equal(
        bundle.predict_cooling(power, wb)["pue"],
        reloaded.predict_cooling(power, wb)["pue"],
    )
    prov = reloaded.provenance
    assert prov["spec_sha256"] == spec_sha256(spec)
    assert prov["trained_from"] == "simulation"


def test_bundle_spec_mismatch_rejected(tmp_path, spec, bundle):
    other = make_small_spec(total_nodes=128, num_cdus=1)
    path = bundle.save(tmp_path / "mini")
    with pytest.raises(ExaDigiTError, match="interpolative per system"):
        SurrogateBundle.load(path, spec=other)
    # Engine construction enforces the same provenance check.
    with pytest.raises(ExaDigiTError, match="interpolative per system"):
        SurrogateEngine(other, bundle, with_cooling=False)
    # Explicit override is available but must be asked for.
    loaded = SurrogateBundle.load(path, spec=other, allow_spec_mismatch=True)
    assert loaded.spec_sha == spec_sha256(spec)


# -- training from persisted campaigns ----------------------------------------


def test_fit_from_uncoupled_store_raises_unless_power_only(tmp_path, spec):
    sweep = GridSweepScenario(
        base=SyntheticScenario(duration_s=900.0, with_cooling=False),
        grid={"seed": (0, 1)},
    )
    campaign = Campaign.create(tmp_path / "uncoupled", [sweep], system=spec)
    campaign.run()
    with pytest.raises(ExaDigiTError, match="no coupled cells"):
        fit_bundle_from_store(campaign.store)
    power_only = fit_bundle_from_store(campaign.store, cooling=False)
    assert not power_only.has_cooling


def test_cli_campaign_run_never_nests_plain_campaign_in_multifid(
    tmp_path, monkeypatch, capsys, spec, bundle
):
    """Re-running without --refine-top must resume the MF campaign."""
    from repro.cli import main

    _seed_cache(spec, bundle)
    monkeypatch.chdir(tmp_path)
    mf = MultiFidelityCampaign.create(
        "mf",
        [SyntheticScenario(duration_s=900.0)],
        system=spec,
        top_k=1,
    )
    mf.run()
    rc = main(["campaign", "run", "mf", "--grid", "seed=0,1"])
    capsys.readouterr()
    assert rc == 0
    # No plain-campaign manifest was created inside the MF root.
    assert not (tmp_path / "mf" / "manifest.json").exists()


def test_fit_bundle_from_store(tmp_path, spec):
    sweep = GridSweepScenario(
        base=SyntheticScenario(duration_s=900.0, seed=0),
        grid={"wetbulb_c": (6.0, 14.0, 22.0, 28.0)},
    )
    campaign = Campaign.create(tmp_path / "train-grid", [sweep], system=spec)
    campaign.run()
    store = campaign.store
    trained = fit_bundle_from_store(store, cooling_degree=1)
    assert trained.has_cooling
    assert trained.provenance["trained_from"] == "campaign"
    assert trained.provenance["training"]["cooling_cells"] == 4
    pue = trained.predict_cooling(
        np.array([4.5e5]), np.array([15.0])
    )["pue"]
    assert 1.0 < float(pue[0]) < 2.0
    # And the trained bundle drives a surrogate run of the same system.
    twin = DigitalTwin(spec, fidelity="surrogate", surrogates=trained)
    outcome = SyntheticScenario(duration_s=900.0, seed=5).run(twin)
    assert math.isfinite(outcome.metrics()["mean_pue"])


# -- campaigns on the fast path ------------------------------------------------


def test_surrogate_campaign_resume_bit_identical(tmp_path, spec, bundle):
    sweep = GridSweepScenario(
        base=SyntheticScenario(duration_s=DURATION_S, fidelity="surrogate"),
        grid={"wetbulb_c": (10.0, 20.0), "seed": (0, 1)},
    )
    # One-shot reference.
    ref = Campaign.create(
        tmp_path / "oneshot", [sweep], system=spec, surrogates=bundle
    ).run()
    # Interrupted + resumed campaign.
    campaign = Campaign.create(
        tmp_path / "resumed", [sweep], system=spec, surrogates=bundle
    )
    campaign.run(stop_after=2)
    assert len(campaign.pending()) == 2
    reopened = Campaign.open(tmp_path / "resumed", surrogates=bundle)
    ran: list[str] = []
    merged = reopened.run(progress=lambda s, done, total: ran.append(s.name))
    # Only the two missing cells were simulated on resume.
    assert len(ran) == 2
    assert merged.comparison_table() == ref.comparison_table()
    # Fidelity is part of the persisted cell documents.
    assert all(c.fidelity == "surrogate" for c in reopened.cells)


def test_surrogate_campaign_parallel_uses_shipped_bundle(
    tmp_path, spec, bundle
):
    """Workers rebuild the campaign's bundle — never retrain defaults."""
    clear_bundle_cache()  # a worker retrain would be slow AND different
    try:
        sweep = GridSweepScenario(
            base=SyntheticScenario(duration_s=900.0, fidelity="surrogate"),
            grid={"wetbulb_c": (10.0, 20.0)},
        )
        serial = Campaign.create(
            tmp_path / "serial", [sweep], system=spec, surrogates=bundle
        ).run()
        parallel = Campaign.create(
            tmp_path / "parallel", [sweep], system=spec, surrogates=bundle
        ).run(workers=2)
        assert parallel.comparison_table() == serial.comparison_table()
    finally:
        clear_bundle_cache()


def test_surrogate_twin_suite_parallel_keeps_twin_fidelity(spec, bundle):
    """Worker processes run cells at the twin's fidelity: scenarios that
    do not pin one inherit ``fidelity="surrogate"`` in every worker."""
    twin = DigitalTwin(spec, fidelity="surrogate", surrogates=bundle)
    scenarios = [
        SyntheticScenario(name=f"s{seed}", duration_s=900.0, seed=seed)
        for seed in (1, 2)
    ]
    serial = ExperimentSuite(twin, scenarios).run(workers=1)
    parallel = ExperimentSuite(twin, scenarios).run(workers=2)
    for a, b in zip(parallel, serial):
        assert_bitidentical(a, b, label=f"{a.name} workers=2 vs 1")
    assert parallel.comparison_table() == serial.comparison_table()


def test_multifidelity_campaign_resume(tmp_path, spec, bundle):
    sweep = GridSweepScenario(
        base=SyntheticScenario(duration_s=DURATION_S),
        grid={"wetbulb_c": (8.0, 16.0, 24.0), "seed": (0, 1)},
    )
    mf = MultiFidelityCampaign.create(
        tmp_path / "mf",
        [sweep],
        system=spec,
        top_k=2,
        metric="mean_pue",
        surrogates=bundle,
    )
    partial = mf.run(stop_after=3)
    assert not partial.complete
    assert len(partial.refined) == 0

    reopened = MultiFidelityCampaign.open(tmp_path / "mf", surrogates=bundle)
    result = reopened.run()
    assert result.complete
    assert len(result.refined) == 2
    assert len(result.rows) == 2
    assert all(math.isfinite(r["abs_error"]) for r in result.rows)
    assert math.isfinite(result.mean_abs_error)
    # Screen cells are surrogate fidelity, refined cells full fidelity,
    # joined by name.
    screen_names = {e.name for e in result.screen}
    assert {e.name for e in result.refined} <= screen_names
    refine_cells = reopened.refine_campaign().cells
    assert all(c.fidelity == "full" for c in refine_cells)
    # A further run simulates nothing new and reloads the same report.
    ran: list[str] = []
    again = MultiFidelityCampaign.open(tmp_path / "mf").run(
        progress=lambda s, done, total: ran.append(s.name)
    )
    assert ran == []
    assert again.rows == result.rows
    # load() never simulates and reproduces the rows too.
    assert reopened.load().rows == result.rows


def test_multifidelity_rank_respects_objective(tmp_path, spec, bundle):
    sweep = GridSweepScenario(
        base=SyntheticScenario(duration_s=900.0),
        grid={"wetbulb_c": (6.0, 27.0)},
    )
    mf = MultiFidelityCampaign.create(
        tmp_path / "mf-min",
        [sweep],
        system=spec,
        top_k=1,
        metric="mean_pue",
        objective="min",
        surrogates=bundle,
    )
    result = mf.run()
    assert result.complete
    screened = {e.name: e.metrics()["mean_pue"] for e in result.screen}
    chosen = result.refined[0].name
    assert screened[chosen] == min(screened.values())


def test_multifidelity_refuses_plain_campaign_dir(tmp_path, spec):
    plain = Campaign.create(
        tmp_path / "plain",
        [SyntheticScenario(duration_s=900.0, with_cooling=False)],
        system=spec,
    )
    with pytest.raises(ScenarioError, match="plain campaign"):
        MultiFidelityCampaign.create(
            plain.path,
            [SyntheticScenario(duration_s=900.0)],
            system=spec,
            top_k=1,
        )


def test_default_bundle_cache(spec):
    clear_bundle_cache()
    try:
        twin = DigitalTwin(spec, fidelity="surrogate")
        first = twin.surrogates(cooling=False)
        assert not first.has_cooling
        # Second twin reuses the process-wide memo (same object).
        second = DigitalTwin(spec, fidelity="surrogate").surrogates(
            cooling=False
        )
        assert second is first
    finally:
        clear_bundle_cache()
