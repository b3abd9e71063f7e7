"""Hot-path perf machinery: power evaluation, caches, profiler, CLI.

Covers the engine's one power evaluation per quantum, the per-engine
idle-power memo behind the cooling warmup, the release
of batched lanes when their run ends, the process-local warm-plant cache suite workers attach by default, and the
:class:`~repro.core.profiling.PhaseProfiler` + ``repro profile`` verb.
Every optimization is asserted *behaviorally* (counters moved) and
*semantically* (results bit-identical with the optimization disabled).
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest

import repro.scenarios.suite as suite_mod
from repro.cli import main as cli_main
from repro.core.engine import RapsEngine
from repro.core.profiling import PhaseProfiler
from repro.scenarios import DigitalTwin, ExperimentSuite, SyntheticScenario
from tests.conftest import assert_bitidentical, make_small_spec


class TestPowerEveryQuantum:
    def test_idle_run_evaluates_every_quantum(self, small_spec):
        """With no jobs, a run evaluates power once per quantum and the
        idle power stays constant."""
        engine = RapsEngine(small_spec, with_cooling=False)
        idle = engine.run([], 3600.0)
        assert len(idle.times_s) == 240
        assert engine.power_evals == len(idle.times_s)
        assert np.all(idle.system_power_w == idle.system_power_w[0])

    def test_busy_run_sees_trace_changes(self, small_spec):
        """A varying-utilization workload evaluates power once per
        quantum, and the power follows the traces as they move."""
        engine = RapsEngine(small_spec, with_cooling=False)
        twin = DigitalTwin(small_spec)
        plan = SyntheticScenario(
            duration_s=3600.0, seed=1, with_cooling=False
        ).plan(twin)
        busy = engine.run(plan.jobs, plan.duration_s)
        assert engine.power_evals == len(busy.times_s)
        assert len(np.unique(busy.system_power_w)) > 1


class TestIdlePowerMemo:
    def test_idle_result_computed_once_per_engine(self, small_spec):
        engine = RapsEngine(small_spec)
        assert engine.power._idle is None
        engine.run([], 600.0)
        first = engine.power._idle
        assert first is not None
        engine.run([], 600.0)
        assert engine.power._idle is first  # memo, not recomputed

    def test_run_results_stable_across_reuse(self, small_spec):
        engine = RapsEngine(small_spec)
        r1 = engine.run([], 600.0)
        r2 = engine.run([], 600.0)
        assert_bitidentical(r1, r2, label="engine reuse")



class TestLaneRelease:
    def test_batched_lanes_freed_by_refcount(self, small_spec):
        """A coupled lane's blockage callback refers back to the lane
        from inside its schedule generator; the loop closes those
        generators when the run ends, so plain reference counting frees
        every lane and its recorded steps."""
        from repro.batch.engine import BatchedEngine, _Lane

        twin = DigitalTwin(small_spec)
        scenarios = [
            SyntheticScenario(duration_s=300.0, seed=seed)
            for seed in (0, 1)
        ]
        gc.disable()
        try:
            lanes = [
                _Lane(i, scenario, twin, scenario.plan(twin))
                for i, scenario in enumerate(scenarios)
            ]
            BatchedEngine(scenarios, twin)._run_lanes(list(lanes))
            refs = [weakref.ref(lane) for lane in lanes]
            del lanes
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

class TestSuiteWarmCache:
    def test_worker_entry_point_shares_process_cache(self, small_spec):
        """Two coupled scenarios through the worker entry point: the
        second restores the first's warmed plant."""
        suite_mod._start_worker(DigitalTwin(small_spec).recipe())
        try:
            for seed in (0, 1):
                suite_mod._run_worker_group(
                    [(seed, SyntheticScenario(duration_s=600.0, seed=seed))]
                )
            cache = suite_mod._worker_twin.warm_cache
            assert cache is not None
            stats = cache.stats()
            assert stats["misses"] == 1
            assert stats["hits"] == 1
        finally:
            suite_mod._worker_twin = None

    def test_parallel_coupled_suite_matches_serial_bitwise(self, small_spec):
        """workers=2 with warm workers (the default) stays bit-identical
        to the serial path for coupled scenarios."""
        scenarios = [
            SyntheticScenario(name=f"s{seed}", duration_s=600.0, seed=seed)
            for seed in (0, 1)
        ]
        serial = ExperimentSuite(small_spec, scenarios).run(workers=1)
        parallel = ExperimentSuite(small_spec, scenarios).run(workers=2)
        for a, b in zip(serial, parallel):
            assert_bitidentical(a, b, label="parallel vs serial")


class TestPhaseProfiler:
    def test_engine_phases_recorded(self, small_spec):
        twin = DigitalTwin(small_spec)
        scenario = SyntheticScenario(duration_s=900.0, seed=0)
        profiler = PhaseProfiler()
        engine = RapsEngine(small_spec, profiler=profiler)
        plan = scenario.plan(twin)
        engine.run(plan.jobs, plan.duration_s)
        doc = profiler.as_dict()
        for phase in ("warmup", "schedule", "power", "cooling", "collect"):
            assert phase in doc["phases"], phase
        assert doc["steps"] == 60
        assert doc["phases"]["schedule"]["calls"] == 60
        assert doc["phases"]["warmup"]["calls"] == 1
        assert doc["wall_s"] > 0
        assert doc["unattributed_s"] >= 0
        json.dumps(doc)  # strictly JSON-serializable

    def test_uncoupled_run_has_no_cooling_phase(self, small_spec):
        profiler = PhaseProfiler()
        engine = RapsEngine(
            small_spec, with_cooling=False, profiler=profiler
        )
        engine.run([], 900.0)
        doc = profiler.as_dict()
        assert "cooling" not in doc["phases"]

    def test_summary_renders(self):
        profiler = PhaseProfiler()
        profiler.add("power", 0.25)
        profiler.begin_run()
        profiler.end_run(10, power_evals=4)
        text = profiler.summary()
        assert "power" in text and "steps=10" in text


class TestProfileCli:
    def test_profile_emits_json(self, capsys):
        rc = cli_main(
            ["profile", "--system", "frontier", "--hours", "0.05"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cooling_backend"] == "fused"
        assert doc["phases"]["cooling"]["calls"] == 12
        assert doc["steps"] == 12

    def test_profile_writes_file(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        rc = cli_main(
            [
                "profile",
                "--system",
                "frontier",
                "--hours",
                "0.05",
                "--no-cooling",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["cooling_backend"] is None
        assert "cooling" not in doc["phases"]
        assert "profile written" in capsys.readouterr().out

    def test_profile_repeat_reports_median_and_spread(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        rc = cli_main(
            [
                "profile", "--system", "marconi100", "--hours", "0.05",
                "--no-cooling", "--repeat", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "median s" in text and "runs=3" in text
        doc = json.loads(out.read_text())
        repeat = doc["repeat"]
        assert repeat["runs"] == 3
        assert {"schedule", "power", "collect"} <= set(repeat["phases"])
        for row in [repeat["wall_s"], *repeat["phases"].values()]:
            runs = row["runs_s"]
            assert len(runs) == 3
            assert row["median_s"] == round(sorted(runs)[1], 6)
            assert row["spread_s"] == round(max(runs) - min(runs), 6)
        # The document's own phases are the last run's.
        assert (
            repeat["phases"]["power"]["runs_s"][-1]
            == doc["phases"]["power"]["total_s"]
        )
        assert doc["steps"] == 12

    def test_profile_repeat_default_and_invalid(self, capsys):
        rc = cli_main(
            ["profile", "--system", "marconi100", "--hours", "0.05",
             "--no-cooling"]
        )
        assert rc == 0
        assert "repeat" not in json.loads(capsys.readouterr().out)
        rc = cli_main(["profile", "--system", "marconi100", "--repeat", "0"])
        assert rc == 1
        assert "--repeat must be >= 1" in capsys.readouterr().err

    def test_batched_profile_splits_phases(self, capsys):
        rc = cli_main(
            [
                "profile",
                "--system",
                "marconi100",
                "--hours",
                "0.1",
                "--no-cooling",
                "--mode",
                "batched",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "batched"
        phases = doc["phases"]
        assert phases["power"]["total_s"] > 0.0
        assert phases["schedule"]["calls"] == doc["lane_steps"] == 24
        assert "cooling" not in phases and "warmup" not in phases
        total = sum(row["total_s"] for row in phases.values())
        assert total <= doc["wall_s"]
