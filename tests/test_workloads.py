"""Workload generators: determinism, content addressing, fault injection.

Covers the :mod:`repro.workloads` subsystem end to end: the seeding
idiom every generator draws through, per-kind payload determinism and
JSON/spec-SHA round-trips, generation through a run's workload memo,
fault-event plumbing through the scheduler and both cooling backends
(bit-identity), the grid-signal emissions hooks, dotted sweep paths
over generator fields, trace rendering, and the ``repro workload`` CLI
group.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.config.loader import dump_system
from repro.core.events import EVENT_KINDS, FaultEvent, sort_events
from repro.exceptions import (
    ExaDigiTError,
    PowerModelError,
    ScenarioError,
    SimulationError,
)
from repro.power.emissions import EmissionsModel, GridSignal
from repro.scenarios import (
    DigitalTwin,
    GeneratedScenario,
    GridSweepScenario,
    Scenario,
)
from repro.scenarios.base import WorkloadMemo
from repro.scheduler.engine import SchedulerEngine
from repro.scheduler.job import Job
from repro.scheduler.workloads import synthetic_workload
from repro.seeding import key_word, spawn_rng, spawn_seed
from repro.telemetry import profiles
from repro.telemetry.synthesis import (
    SyntheticTelemetryGenerator,
    WorkloadDayParams,
)
from repro.viz.traces import render_trace
from repro.workloads import (
    GENERATOR_ROLES,
    GENERATOR_TYPES,
    BurstyWorkload,
    DiurnalWorkload,
    FaultInjection,
    GridSignalGenerator,
    HeavyTailWorkload,
    JobMixMorph,
    WeatherYear,
    WorkloadGenerator,
)
from repro.workloads.base import WorkloadError
from tests.conftest import make_small_spec

DURATION_S = 1800.0

#: One representative (non-default-parameter) instance per generator
#: kind, so every registered generator goes through the determinism,
#: round-trip, and content-addressing batteries below.
CASES = {
    "diurnal": lambda seed: DiurnalWorkload(seed=seed, mean_arrival_s=120.0),
    "mmpp": lambda seed: BurstyWorkload(
        seed=seed,
        calm_arrival_s=240.0,
        burst_arrival_s=30.0,
        mean_calm_s=900.0,
        mean_burst_s=600.0,
    ),
    "heavy-tail": lambda seed: HeavyTailWorkload(
        seed=seed, mean_arrival_s=120.0
    ),
    "telemetry-morph": lambda seed: JobMixMorph(
        seed=seed, day_index=2, arrival_scale=1.5
    ),
    "faults": lambda seed: FaultInjection(
        seed=seed,
        node_mtbf_s=400.0,
        mean_outage_s=600.0,
        nodes_per_failure=2,
        cdu_blockage_time_s=300.0,
        cdu_blockage_severity=2.5,
        cdu_clear_time_s=900.0,
    ),
    "weather-year": lambda seed: WeatherYear(seed=seed, day_of_year=200),
    "grid-signal": lambda seed: GridSignalGenerator(seed=seed),
}


@pytest.fixture(scope="module")
def spec():
    return make_small_spec()


def _fingerprint(gen: WorkloadGenerator, spec, duration_s=DURATION_S):
    """A hashable, bit-exact digest of a generator's payload."""
    payload = gen.generate(spec, duration_s)
    if gen.role == "jobs":
        return tuple(
            (
                j.job_id,
                j.name,
                j.nodes_required,
                j.wall_time,
                j.submit_time,
                j.cpu_util.tobytes(),
                j.gpu_util.tobytes(),
            )
            for j in payload
        )
    if gen.role == "events":
        return payload
    if gen.role == "wetbulb":
        return (payload.times.tobytes(), payload.values.tobytes())
    return (
        payload.times_s.tobytes(),
        payload.carbon_intensity_lb_per_mwh.tobytes(),
        payload.price_usd_per_kwh.tobytes(),
    )


def test_cases_cover_registry():
    assert set(CASES) == set(GENERATOR_TYPES)


# -- seeding idiom -------------------------------------------------------------


class TestSeeding:
    def test_int_key_words_pass_through(self):
        assert key_word(5) == 5
        assert key_word(0) == 0

    def test_string_key_words_hash_stably(self):
        # SHA-256 based, so stable across processes and Python versions.
        assert key_word("arrivals") == key_word("arrivals")
        assert key_word("arrivals") != key_word("jobs")

    def test_bad_key_parts_rejected(self):
        with pytest.raises(ExaDigiTError, match="bool"):
            key_word(True)
        with pytest.raises(ExaDigiTError, match=">= 0"):
            key_word(-1)
        with pytest.raises(ExaDigiTError, match="float"):
            key_word(1.5)
        with pytest.raises(ExaDigiTError, match="seed must be an int"):
            spawn_seed(1.5)

    def test_matches_synthesizer_day_stream_bit_for_bit(self):
        # The idiom generalizes the synthesizer's historical per-day
        # child streams; integer keys must reproduce them exactly.
        legacy = np.random.default_rng(
            np.random.SeedSequence(entropy=42, spawn_key=(3,))
        )
        unified = spawn_rng(42, 3)
        assert np.array_equal(legacy.random(64), unified.random(64))

    def test_purpose_keyed_streams_are_independent(self):
        a = spawn_rng(0, "a").random(16)
        b = spawn_rng(0, "b").random(16)
        assert not np.array_equal(a, b)

    def test_synthetic_workload_deterministic(self, spec):
        a = synthetic_workload(spec, 900.0, seed=7)
        b = synthetic_workload(spec, 900.0, seed=7)
        assert [j.submit_time for j in a] == [j.submit_time for j in b]
        assert [j.nodes_required for j in a] == [j.nodes_required for j in b]


# -- fault events --------------------------------------------------------------


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(SimulationError, match=">= 0"):
            FaultEvent(time_s=-1.0, kind="node-down", nodes=(0,))
        with pytest.raises(SimulationError, match="unknown event kind"):
            FaultEvent(time_s=0.0, kind="meteor", nodes=(0,))
        with pytest.raises(SimulationError, match="needs node indices"):
            FaultEvent(time_s=0.0, kind="node-down")
        with pytest.raises(SimulationError, match="severity"):
            FaultEvent(time_s=0.0, kind="cdu-blockage", severity=0.5)
        with pytest.raises(SimulationError, match="node indices"):
            FaultEvent(time_s=0.0, kind="node-up", nodes=(-3,))

    def test_round_trip(self):
        for event in (
            FaultEvent(time_s=60.0, kind="node-down", nodes=(4, 9)),
            FaultEvent(
                time_s=90.0, kind="node-down", nodes=(0,), kill_running=False
            ),
            FaultEvent(
                time_s=120.0, kind="cdu-blockage", cdu_index=1, severity=3.0
            ),
        ):
            assert FaultEvent.from_dict(event.to_dict()) == event

    def test_doc_shape_is_kind_specific(self):
        down = FaultEvent(time_s=0.0, kind="node-down", nodes=(1,)).to_dict()
        assert "cdu_index" not in down and down["nodes"] == [1]
        block = FaultEvent(time_s=0.0, kind="cdu-blockage").to_dict()
        assert "nodes" not in block and block["cdu_index"] == 0

    def test_unknown_fields_rejected(self):
        with pytest.raises(SimulationError, match="unknown event fields"):
            FaultEvent.from_dict({"time_s": 0.0, "kind": "node-up", "x": 1})

    def test_sort_events_orders_by_time_then_kind(self):
        up = FaultEvent(time_s=50.0, kind="node-up", nodes=(0,))
        down = FaultEvent(time_s=50.0, kind="node-down", nodes=(0,))
        late = FaultEvent(time_s=60.0, kind="node-down", nodes=(0,))
        assert sort_events([late, up, down]) == (down, up, late)
        with pytest.raises(SimulationError, match="expected FaultEvent"):
            sort_events([down, "node-up"])


# -- registry / serialization / content addressing -----------------------------


class TestRegistry:
    def test_kinds_and_roles_consistent(self):
        for kind, cls in GENERATOR_TYPES.items():
            assert cls.generator == kind
            assert cls.role in GENERATOR_ROLES

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_param_schema_types_and_defaults(self, kind):
        schema = GENERATOR_TYPES[kind].param_schema()
        assert "seed" in schema
        for info in schema.values():
            assert set(info) == {"type", "default"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkloadError, match="unknown generator kind"):
            WorkloadGenerator.from_dict({"generator": "nope"})

    def test_unknown_parameters_rejected(self):
        with pytest.raises(WorkloadError, match="warp"):
            WorkloadGenerator.from_dict({"generator": "diurnal", "warp": 9})

    def test_mistyped_parameters_rejected(self):
        # A string in a numeric slot must die as a WorkloadError here,
        # not as a TypeError deep inside a generator's validation.
        with pytest.raises(WorkloadError, match="must be float"):
            WorkloadGenerator.from_dict(
                {"generator": "faults", "node_mtbf_s": "3600"}
            )
        with pytest.raises(WorkloadError, match="must be int"):
            WorkloadGenerator.from_dict(
                {"generator": "telemetry-morph", "day_index": 1.5}
            )
        with pytest.raises(WorkloadError, match="must be float"):
            WorkloadGenerator.from_dict(
                {"generator": "diurnal", "amplitude": True}
            )
        # Ints remain welcome in float slots (JSON writes 120, not 120.0).
        gen = WorkloadGenerator.from_dict(
            {"generator": "diurnal", "mean_arrival_s": 120}
        )
        assert gen.mean_arrival_s == 120

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_json_round_trip(self, kind):
        gen = CASES[kind](seed=3)
        assert WorkloadGenerator.from_json(gen.to_json()) == gen

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_spec_sha_stable_under_param_reordering(self, kind):
        gen = CASES[kind](seed=3)
        doc = gen.to_dict()
        reordered = dict(reversed(list(doc.items())))
        assert WorkloadGenerator.from_dict(reordered).spec_sha() == (
            gen.spec_sha()
        )

    def test_spec_sha_sensitive_to_params_and_seed(self):
        base = DiurnalWorkload(seed=3)
        assert base.spec_sha() != DiurnalWorkload(seed=4).spec_sha()
        assert base.spec_sha() != (
            DiurnalWorkload(seed=3, mean_arrival_s=90.0).spec_sha()
        )

    def test_provenance_carries_kind_and_sha(self):
        gen = WeatherYear(seed=5)
        assert gen.provenance() == {
            "generator": "weather-year",
            "spec_sha": gen.spec_sha(),
        }


class TestDeterminism:
    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_identical_recipe_identical_payload(self, kind, spec):
        assert _fingerprint(CASES[kind](seed=3), spec) == _fingerprint(
            CASES[kind](seed=3), spec
        )

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_seed_changes_payload(self, kind, spec):
        assert _fingerprint(CASES[kind](seed=3), spec) != _fingerprint(
            CASES[kind](seed=4), spec
        )

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_duration_must_be_positive(self, kind, spec):
        with pytest.raises(WorkloadError, match="positive"):
            CASES[kind](seed=0).generate(spec, 0.0)

    def test_parameter_validation(self):
        with pytest.raises(WorkloadError, match="amplitude"):
            DiurnalWorkload(amplitude=1.0)
        with pytest.raises(WorkloadError, match="mean_arrival_s"):
            DiurnalWorkload(mean_arrival_s=0.0)
        with pytest.raises(WorkloadError, match="alpha"):
            HeavyTailWorkload(alpha=0.0)
        with pytest.raises(WorkloadError, match="day_index"):
            JobMixMorph(day_index=-1)
        with pytest.raises(WorkloadError, match="day_of_year"):
            WeatherYear(day_of_year=400)
        with pytest.raises(WorkloadError, match="price_swing"):
            GridSignalGenerator(price_swing=1.5)
        with pytest.raises(WorkloadError, match="seed"):
            DiurnalWorkload(seed="zero")


class TestJobMixMorph:
    def test_unit_scales_match_synthesizer_day_params(self, spec):
        # Same seed, same day → the morph's base parameters are the
        # synthesizer's day parameters, drawn from the same child stream.
        morph = JobMixMorph(seed=11, day_index=4)
        synth = SyntheticTelemetryGenerator(spec, seed=11)
        assert morph.day_params() == WorkloadDayParams.draw(synth._day_rng(4))

    def test_scales_morph_the_day(self):
        base = JobMixMorph(seed=11, day_index=4).day_params()
        morphed = JobMixMorph(
            seed=11, day_index=4, arrival_scale=2.0, runtime_scale=0.5
        ).day_params()
        assert morphed.mean_arrival_s == pytest.approx(base.mean_arrival_s / 2)
        assert morphed.mean_runtime_s == pytest.approx(base.mean_runtime_s / 2)


class TestGenerationCache:
    """Generated payloads go through the run's :class:`WorkloadMemo`."""

    def test_jobs_cloned_per_checkout(self, spec):
        memo = WorkloadMemo()
        scenario = GeneratedScenario(
            duration_s=900.0,
            workload=DiurnalWorkload(seed=1, mean_arrival_s=120.0),
        )
        twin = DigitalTwin(spec)
        template = scenario.plan(twin, workloads=memo).jobs
        assert scenario.plan(twin, workloads=memo).jobs is template
        first = memo.checkout(template)
        first[0].recorded_start = 123.0  # engine-style lifecycle mutation
        second = memo.checkout(template)
        assert second[0] is not first[0]
        assert second[0].recorded_start is None
        # Trace arrays are shared read-only state across clones.
        assert second[0].cpu_util is first[0].cpu_util

    def test_immutable_roles_share_payload(self, spec):
        memo = WorkloadMemo()
        twin = DigitalTwin(spec)
        scenario = GeneratedScenario(
            duration_s=900.0,
            workload=DiurnalWorkload(seed=1),
            faults=FaultInjection(seed=2, node_mtbf_s=300.0),
            weather=WeatherYear(seed=1),
            grid=GridSignalGenerator(seed=4),
        )
        first = scenario.plan(twin, workloads=memo)
        again = scenario.plan(twin, workloads=memo)
        assert first.events and again.events is first.events
        assert again.wetbulb is first.wetbulb
        # Without a memo every plan generates its own payload.
        assert scenario.plan(twin).wetbulb is not first.wetbulb


# -- fault-injection content ---------------------------------------------------


class TestFaultInjectionStream:
    def test_stream_sorted_and_bounded(self, spec):
        events = CASES["faults"](seed=3).generate(spec, DURATION_S)
        assert events == sort_events(events)
        assert all(0.0 <= e.time_s < DURATION_S for e in events)
        assert all(e.kind in EVENT_KINDS for e in events)
        downs = [e for e in events if e.kind == "node-down"]
        assert downs, "MTBF 400s over 1800s must produce failures"
        assert all(len(e.nodes) == 2 for e in downs)

    def test_recovery_mirrors_failure_nodes(self, spec):
        events = FaultInjection(
            seed=5, node_mtbf_s=300.0, mean_outage_s=200.0
        ).generate(spec, DURATION_S)
        downs = {e.nodes for e in events if e.kind == "node-down"}
        ups = {e.nodes for e in events if e.kind == "node-up"}
        assert ups <= downs  # every recovery matches an earlier outage

    def test_maintenance_window_is_soft(self, spec):
        gen = FaultInjection(
            seed=0,
            node_mtbf_s=1e12,  # no random failures
            maintenance_start_s=600.0,
            maintenance_s=900.0,
            maintenance_nodes=8,
        )
        events = gen.generate(spec, DURATION_S)
        assert len(events) == 2
        down, up = events
        assert down.kind == "node-down" and not down.kill_running
        assert down.nodes == tuple(range(8))
        assert up == FaultEvent(
            time_s=1500.0, kind="node-up", nodes=tuple(range(8))
        )

    def test_cdu_index_validated_against_spec(self, spec):
        gen = FaultInjection(
            seed=0, cdu_blockage_time_s=60.0, cdu_index=99
        )
        with pytest.raises(WorkloadError, match="cdu_index"):
            gen.generate(spec, DURATION_S)


# -- scheduler fault handling --------------------------------------------------


def _one_job(nodes_required=8, wall_time=600.0) -> Job:
    cpu, gpu = profiles.constant_profile(wall_time, 0.5, 0.5)
    return Job(
        job_id=1,
        name="victim",
        nodes_required=nodes_required,
        wall_time=wall_time,
        cpu_util=cpu,
        gpu_util=gpu,
        submit_time=0.0,
    )


class TestSchedulerFaults:
    def test_fail_nodes_kills_occupants(self):
        engine = SchedulerEngine(32)
        job = _one_job()
        engine.tick(0.0, [job])
        assert engine.num_running == 1
        killed = engine.fail_nodes(np.asarray(job.assigned_nodes[:1]), 10.0)
        assert killed == [job]
        assert engine.stats.killed == 1
        assert engine.num_running == 0
        # The full allocation is released, then the failed node goes down.
        assert engine.allocator.num_down == 1
        assert engine.allocator.num_free == 31

    def test_restore_nodes_recovers_down_subset(self):
        engine = SchedulerEngine(32)
        engine.fail_nodes(np.arange(4), 0.0)
        assert engine.allocator.num_down == 4
        engine.restore_nodes(np.arange(8))  # superset is fine
        assert engine.allocator.num_down == 0

    def test_soft_failure_spares_running_jobs(self):
        engine = SchedulerEngine(32)
        job = _one_job()
        engine.tick(0.0, [job])
        killed = engine.fail_nodes(
            np.arange(32), 10.0, kill_running=False
        )
        assert killed == []
        assert engine.num_running == 1
        # Only the free 24 nodes went down; the job's 8 keep running.
        assert engine.allocator.num_down == 24

    def test_out_of_range_nodes_ignored(self):
        engine = SchedulerEngine(32)
        engine.fail_nodes(np.asarray([-5, 500]), 0.0)
        assert engine.allocator.num_down == 0


# -- generated scenarios and backend bit-identity ------------------------------


def _faulted_scenario(with_cooling=True, cdu_blockage=True):
    return GeneratedScenario(
        name="faulted",
        duration_s=DURATION_S,
        seed=0,
        with_cooling=with_cooling,
        workload=DiurnalWorkload(
            seed=1, mean_arrival_s=90.0, mean_nodes_per_job=32.0
        ),
        faults=FaultInjection(
            seed=2,
            node_mtbf_s=400.0,
            mean_outage_s=600.0,
            nodes_per_failure=4,
            cdu_blockage_time_s=600.0 if cdu_blockage else -1.0,
            cdu_blockage_severity=3.0,
            cdu_clear_time_s=1200.0,
        ),
    )


class TestGeneratedScenario:
    def test_role_mismatch_rejected(self):
        with pytest.raises(ScenarioError, match="jobs"):
            GeneratedScenario(workload=FaultInjection())
        with pytest.raises(ScenarioError, match="WorkloadGenerator"):
            GeneratedScenario(workload="diurnal")

    def test_plan_requires_workload(self, spec):
        with pytest.raises(ScenarioError, match="no workload generator"):
            GeneratedScenario(duration_s=900.0).plan(DigitalTwin(spec))

    def test_json_round_trip_with_all_roles(self):
        scenario = GeneratedScenario(
            duration_s=900.0,
            workload=DiurnalWorkload(seed=1),
            faults=FaultInjection(seed=2),
            weather=WeatherYear(seed=3),
            grid=GridSignalGenerator(seed=4),
        )
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_workload_provenance_by_role_field(self):
        scenario = _faulted_scenario()
        prov = scenario.workload_provenance()
        assert set(prov) == {"workload", "faults"}
        assert prov["workload"]["generator"] == "diurnal"
        assert prov["workload"]["spec_sha"] == (
            scenario.workload.spec_sha()
        )

    def test_grid_signal_roundtrips_through_twin(self, spec):
        twin = DigitalTwin(spec)
        scenario = GeneratedScenario(
            duration_s=900.0,
            workload=DiurnalWorkload(seed=1),
            grid=GridSignalGenerator(seed=4),
        )
        signal = scenario.grid_signal(twin)
        assert isinstance(signal, GridSignal)
        assert GeneratedScenario(
            duration_s=900.0, workload=DiurnalWorkload(seed=1)
        ).grid_signal(twin) is None


class TestBackendBitIdentity:
    def test_faults_identical_on_both_cooling_backends(self, spec):
        # The acceptance bar: one workload with node failures AND a CDU
        # blockage produces bit-identical runs on the fused kernel and
        # the reference object graph.
        scenario = _faulted_scenario()
        fused = scenario.run(DigitalTwin(spec, cooling_backend="fused"))
        ref = scenario.run(DigitalTwin(spec, cooling_backend="reference"))
        assert fused.result.scheduler_stats.killed > 0
        assert fused.result.scheduler_stats.killed == (
            ref.result.scheduler_stats.killed
        )
        np.testing.assert_array_equal(
            fused.result.system_power_w, ref.result.system_power_w
        )
        for key in ref.result.cooling:
            np.testing.assert_array_equal(
                np.asarray(fused.result.cooling[key]),
                np.asarray(ref.result.cooling[key]),
                err_msg=key,
            )

    def test_cdu_blockage_perturbs_cooling(self, spec):
        blocked = _faulted_scenario().run(DigitalTwin(spec))
        clean = _faulted_scenario(cdu_blockage=False).run(DigitalTwin(spec))
        assert not np.array_equal(
            np.asarray(blocked.result.cooling["htw_supply_temp_c"]),
            np.asarray(clean.result.cooling["htw_supply_temp_c"]),
        )


class TestSurrogateFaultScheduling:
    def test_node_faults_schedule_identically_across_fidelities(self, spec):
        # The surrogate swaps physics only: under the same fault stream
        # the scheduling trajectory must match the full engine exactly.
        from repro.fastpath import fit_bundle

        scenario = _faulted_scenario(with_cooling=False, cdu_blockage=False)
        full = scenario.run(DigitalTwin(spec))
        power_only = fit_bundle(spec, cooling=False)
        fast = scenario.run(
            DigitalTwin(spec, fidelity="surrogate", surrogates=power_only)
        )
        assert full.result.scheduler_stats.killed > 0
        assert full.result.scheduler_stats.killed == (
            fast.result.scheduler_stats.killed
        )
        np.testing.assert_array_equal(
            full.result.utilization, fast.result.utilization
        )
        np.testing.assert_array_equal(
            full.result.num_running, fast.result.num_running
        )


# -- emissions with grid signals -----------------------------------------------


class TestGridSignalEmissions:
    def _series(self):
        times = np.arange(0.0, 3600.0 + 1.0, 60.0)
        power = 2.0e7 + 5.0e6 * np.sin(times / 600.0)
        return times, power

    def test_signal_validation(self):
        with pytest.raises(PowerModelError, match="strictly increasing"):
            GridSignal(
                times_s=np.array([0.0, 0.0]),
                carbon_intensity_lb_per_mwh=np.array([1.0, 1.0]),
                price_usd_per_kwh=np.array([0.1, 0.1]),
            )
        with pytest.raises(PowerModelError, match="match the time axis"):
            GridSignal(
                times_s=np.array([0.0, 1.0]),
                carbon_intensity_lb_per_mwh=np.array([1.0]),
                price_usd_per_kwh=np.array([0.1, 0.1]),
            )
        with pytest.raises(PowerModelError, match="non-negative"):
            GridSignal(
                times_s=np.array([0.0, 1.0]),
                carbon_intensity_lb_per_mwh=np.array([1.0, -1.0]),
                price_usd_per_kwh=np.array([0.1, 0.1]),
            )

    def test_interpolation_holds_edges(self):
        signal = GridSignal(
            times_s=np.array([100.0, 200.0]),
            carbon_intensity_lb_per_mwh=np.array([800.0, 900.0]),
            price_usd_per_kwh=np.array([0.08, 0.10]),
        )
        assert signal.intensity_at(np.array([0.0]))[0] == 800.0
        assert signal.intensity_at(np.array([150.0]))[0] == 850.0
        assert signal.price_at(np.array([999.0]))[0] == 0.10

    def test_flat_signal_matches_default_path_bitwise(self, spec):
        # A constant signal at the configured intensity must not change
        # the answer at all: the default flat path stays bit-identical.
        model = EmissionsModel(spec.economics)
        times, power = self._series()
        flat = GridSignal(
            times_s=np.array([0.0, 3600.0]),
            carbon_intensity_lb_per_mwh=np.full(
                2, spec.economics.emission_intensity_lb_per_mwh
            ),
            price_usd_per_kwh=np.full(
                2, spec.economics.electricity_usd_per_kwh
            ),
        )
        assert model.co2_tons_timeseries(times, power) == (
            model.co2_tons_timeseries(times, power, signal=flat)
        )
        assert model.energy_cost_usd_timeseries(times, power) == (
            model.energy_cost_usd_timeseries(times, power, signal=flat)
        )

    def test_signal_cost_matches_manual_trapezoid(self, spec):
        model = EmissionsModel(spec.economics)
        times, power = self._series()
        signal = GridSignalGenerator(seed=9).generate(spec, 3600.0)
        expected = float(
            np.trapezoid(power * signal.price_at(times) / 3.6e6, times)
        )
        assert model.energy_cost_usd_timeseries(
            times, power, signal=signal
        ) == pytest.approx(expected, rel=1e-12)

    def test_profile_and_signal_mutually_exclusive(self, spec):
        model = EmissionsModel(spec.economics)
        times, power = self._series()
        signal = GridSignalGenerator(seed=9).generate(spec, 3600.0)
        with pytest.raises(PowerModelError, match="not both"):
            model.co2_tons_timeseries(
                times,
                power,
                signal=signal,
                hourly_intensity_lb_per_mwh=np.full(24, 850.0),
            )


# -- dotted sweep paths --------------------------------------------------------


class TestDottedSweeps:
    def _sweep(self, grid):
        return GridSweepScenario(
            base=GeneratedScenario(
                duration_s=900.0,
                with_cooling=False,
                workload=DiurnalWorkload(seed=1),
            ),
            grid=grid,
        )

    def test_dotted_paths_reach_generator_fields(self):
        children = self._sweep(
            {"workload.mean_arrival_s": (120.0, 240.0), "seed": (0, 1)}
        ).expand()
        assert len(children) == 4
        assert children[0].workload.mean_arrival_s == 120.0
        assert children[0].seed == 0
        assert children[3].workload.mean_arrival_s == 240.0
        assert "workload.mean_arrival_s=120" in children[0].name
        # The untouched generator fields survive the replacement.
        assert children[0].workload.seed == 1

    def test_unknown_nested_field_rejected(self):
        with pytest.raises(ScenarioError, match="warp"):
            self._sweep({"workload.warp": (1,)}).expand()

    def test_non_parametric_segment_rejected(self):
        with pytest.raises(ScenarioError, match="not a parametric object"):
            self._sweep({"name.length": (1,)}).expand()

    def test_dotted_children_round_trip(self):
        child = self._sweep({"workload.mean_arrival_s": (120.0,)}).expand()[0]
        assert Scenario.from_json(child.to_json()) == child


# -- trace rendering -----------------------------------------------------------


class TestRenderTrace:
    def test_ramp_renders_corner_to_corner(self):
        art = render_trace(
            np.linspace(0.0, 7200.0, 32),
            np.linspace(1.0, 2.0, 32),
            width=16,
            height=5,
            title="ramp",
            unit="x",
        )
        lines = art.splitlines()
        assert lines[0] == "ramp"
        assert lines[1].endswith("*|")  # max in the top-right corner
        assert "|*" in lines[5]  # min in the bottom-left corner
        assert "2 h" in lines[-2] and "[x]" in lines[-1]

    def test_flat_series_renders(self):
        art = render_trace(np.array([0.0, 60.0]), np.array([5.0, 5.0]))
        assert art.count("*") == 72

    def test_bad_inputs_rejected(self):
        with pytest.raises(ExaDigiTError, match="matching 1-D"):
            render_trace(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ExaDigiTError, match="matching 1-D"):
            render_trace(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ExaDigiTError, match="width"):
            render_trace(np.array([0.0, 1.0]), np.array([1.0, 2.0]), width=4)


# -- CLI -----------------------------------------------------------------------


class TestWorkloadCli:
    @pytest.fixture()
    def mini_path(self, tmp_path):
        path = tmp_path / "mini.json"
        dump_system(make_small_spec(), path)
        return path

    def _run(self, capsys, argv, expect=0):
        rc = cli_main(argv)
        out = capsys.readouterr().out
        assert rc == expect
        return out

    def test_list_catalogs_every_generator(self, capsys):
        out = self._run(capsys, ["workload", "list"])
        for kind in GENERATOR_TYPES:
            assert kind in out

    def test_preview_jobs(self, mini_path, capsys):
        out = self._run(
            capsys,
            [
                "workload", "preview", "diurnal",
                "--system", str(mini_path),
                "--hours", "1",
                "--set", "mean_arrival_s=60",
            ],
        )
        assert "spec-sha" in out
        assert "arrivals per bin" in out

    def test_preview_events_and_traces(self, mini_path, capsys):
        out = self._run(
            capsys,
            [
                "workload", "preview", "faults",
                "--system", str(mini_path),
                "--hours", "2",
                "--set", "node_mtbf_s=900",
                "--set", "cdu_blockage_time_s=600",
            ],
        )
        assert "fault events" in out
        # The ;-separated form (same syntax as --grid) works too.
        out = self._run(
            capsys,
            [
                "workload", "preview", "faults",
                "--system", str(mini_path),
                "--hours", "2",
                "--set", "node_mtbf_s=900;cdu_blockage_time_s=600",
            ],
        )
        assert "fault events" in out
        out = self._run(
            capsys,
            ["workload", "preview", "weather-year", "--system",
             str(mini_path), "--hours", "2"],
        )
        assert "wet-bulb temperature" in out
        out = self._run(
            capsys,
            ["workload", "preview", "grid-signal", "--system",
             str(mini_path), "--hours", "2"],
        )
        assert "carbon intensity" in out and "grid price" in out

    def test_preview_unknown_kind_fails(self, mini_path, capsys):
        self._run(
            capsys,
            ["workload", "preview", "nope", "--system", str(mini_path)],
            expect=1,
        )

    def test_preview_bad_set_value_fails_cleanly(self, mini_path, capsys):
        rc = cli_main(
            [
                "workload", "preview", "diurnal",
                "--system", str(mini_path),
                "--set", "mean_arrival_s=abc",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "error:" in captured.err and "mean_arrival_s" in captured.err

    def test_sweep_requires_grid_on_first_run(self, tmp_path, mini_path,
                                              capsys):
        self._run(
            capsys,
            [
                "workload", "sweep", str(tmp_path / "s"),
                "--system", str(mini_path),
            ],
            expect=1,
        )
