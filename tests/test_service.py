"""End-to-end tests of the twin service: a real server on localhost.

One module-scoped :class:`~repro.service.server.TwinServer` (2 spawn
workers, persisted store) backs most tests; jobs run the miniature
256-node spec so full-fidelity cells finish in well under a second.
The slow-marked load test at the bottom drives 32 concurrent clients.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.exceptions import ExaDigiTError
from repro.scenarios import (
    CampaignStore,
    DigitalTwin,
    GridSweepScenario,
    Scenario,
    SyntheticScenario,
)
from repro.scenarios.artifacts import spec_sha256
from repro.service import TwinClient, TwinServer
from repro.viz.export import step_record

from tests.conftest import assert_bitidentical, make_small_spec


@pytest.fixture(scope="module")
def spec():
    return make_small_spec()


@pytest.fixture(scope="module")
def server(spec, tmp_path_factory):
    store = tmp_path_factory.mktemp("service") / "store"
    with TwinServer(spec, workers=2, store=store) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return TwinClient(server.url)


def direct_records(spec, scenario: Scenario) -> list[dict]:
    """The reference stream: step_record per direct iter_steps step."""
    return [step_record(s) for s in scenario.iter_steps(DigitalTwin(spec))]


SCENARIO = SyntheticScenario(duration_s=600.0, with_cooling=False, seed=3)


def test_submit_and_stream_ndjson_bit_identical(spec, client):
    reference = direct_records(spec, SCENARIO)
    job = client.submit(SCENARIO)
    steps = client.steps(job["id"])
    assert_bitidentical(steps, reference, label="ndjson stream")
    assert client.job(job["id"])["state"] == "done"


def test_websocket_stream_matches_and_late_watcher_replays(spec, client):
    reference = direct_records(spec, SCENARIO)
    job = client.submit(SCENARIO)
    client.wait(job["id"])  # finish first: a late watcher still gets all
    assert_bitidentical(
        client.steps(job["id"], transport="ws"),
        reference,
        label="ws stream",
    )
    assert_bitidentical(
        client.steps(job["id"]), reference, label="late watcher replay"
    )


def test_repeat_submission_hits_result_cache(spec, client):
    scenario = SyntheticScenario(
        duration_s=600.0, with_cooling=False, seed=77
    )
    first = client.submit(scenario)
    client.wait(first["id"])
    executed_before = client.health()["counters"]["executed"]
    second = client.submit(scenario)
    assert second["cached"] is True
    assert second["state"] == "done"
    assert client.steps(second["id"]) == client.steps(first["id"])
    assert client.health()["counters"]["executed"] == executed_before
    # use_cache=False forces a fresh simulation of the same key.
    third = client.submit(scenario, use_cache=False)
    assert third["cached"] is False
    assert client.steps(third["id"]) == client.steps(first["id"])


def test_result_endpoint_metrics_match_direct_run(spec, client):
    scenario = SyntheticScenario(
        duration_s=600.0, with_cooling=False, seed=21
    )
    outcome = scenario.run(DigitalTwin(spec))
    job = client.submit(scenario)
    client.wait(job["id"])
    cell = client.result(job["id"])["cell"]
    for key, value in outcome.metrics().items():
        if value == value:  # NaN persists as null; compare finite only
            assert cell["metrics"][key] == value
    assert cell["scenario"] == scenario.to_dict()


def test_sweep_submission_expands_into_jobs(spec, client):
    sweep = GridSweepScenario(
        base=SyntheticScenario(duration_s=300.0, with_cooling=False),
        grid={"seed": (100, 101, 102)},
    )
    jobs = client.submit_all(sweep)
    assert len(jobs) == 3
    for job, cell in zip(jobs, sweep.expand()):
        assert job["name"] == cell.name
        final = client.wait(job["id"])
        assert final["state"] == "done"
        assert_bitidentical(
            client.steps(job["id"]),
            direct_records(spec, cell),
            label=cell.name,
        )


def test_surrogate_fidelity_jobs_run_on_the_fast_path(spec, client):
    scenario = SyntheticScenario(
        duration_s=1800.0,
        with_cooling=False,
        seed=5,
        fidelity="surrogate",
    )
    reference = direct_records(spec, scenario)
    job = client.submit(scenario)
    assert_bitidentical(
        client.steps(job["id"]), reference, label="surrogate job"
    )
    summary = client.job(job["id"])
    assert summary["fidelity"] == "surrogate"


def test_cancel_queued_and_running_jobs(spec, client):
    # Two slow coupled jobs occupy both workers; a third queues.
    blockers = [
        client.submit(
            SyntheticScenario(
                duration_s=7200.0, with_cooling=True, seed=500 + i
            ),
            use_cache=False,
        )
        for i in range(2)
    ]
    queued = client.submit(
        SyntheticScenario(duration_s=7200.0, with_cooling=True, seed=599)
    )
    assert client.cancel(queued["id"])["state"] == "cancelled"
    for blocker in blockers:
        client.cancel(blocker["id"])
        final = client.wait(blocker["id"])
        assert final["state"] in ("cancelled", "done")  # may just finish


def test_worker_crash_requeues_and_watcher_sees_restart(spec, server, client):
    scenario = SyntheticScenario(
        duration_s=7200.0, with_cooling=True, seed=707
    )
    job = client.submit(scenario, use_cache=False)

    docs: list[dict] = []
    watcher = threading.Thread(
        target=lambda: docs.extend(client.watch(job["id"])), daemon=True
    )
    watcher.start()
    deadline = time.time() + 60
    info = client.job(job["id"])
    while time.time() < deadline:
        info = client.job(job["id"])
        if info["state"] == "running" and info["steps"] >= 2:
            break
        time.sleep(0.05)
    assert info["state"] == "running", f"job never ran: {info}"
    server.pool.workers[info["worker"]].process.kill()
    final = client.wait(job["id"])
    assert final["state"] == "done"
    assert final["attempts"] == 2
    watcher.join(timeout=60)
    events = [d["event"] for d in docs if "event" in d]
    assert "restart" in events and events[-1] == "done"
    # After the restart marker the stream is the complete, correct run.
    tail = docs[max(i for i, d in enumerate(docs) if "event" in d and d["event"] == "restart") + 1 : -1]
    assert tail == direct_records(spec, scenario)


def test_disconnecting_watcher_does_not_kill_the_job(spec, client):
    scenario = SyntheticScenario(
        duration_s=3600.0, with_cooling=True, seed=808
    )
    job = client.submit(scenario, use_cache=False)
    stream = client.watch(job["id"])
    next(stream)  # receive at least one record, then hang up mid-run
    stream.close()
    final = client.wait(job["id"])
    assert final["state"] == "done"
    assert_bitidentical(
        client.steps(job["id"]),
        direct_records(spec, scenario),
        label="post-hangup stream",
    )


def test_bad_submissions_are_client_errors(client):
    with pytest.raises(ExaDigiTError, match="unknown scenario kind"):
        client.submit({"kind": "nope"})
    with pytest.raises(ExaDigiTError, match="404"):
        client.job("j999999")
    # result() of a job that is not done is a 409, not a hang.
    slow = client.submit(
        SyntheticScenario(duration_s=7200.0, with_cooling=True, seed=666),
        use_cache=False,
    )
    try:
        with pytest.raises(ExaDigiTError, match="not done"):
            client.result(slow["id"])
    finally:
        client.cancel(slow["id"])
        client.wait(slow["id"])


def test_unknown_whatif_modification_is_a_400(client):
    # Rejected when the scenario is built, so it never reaches a worker
    # or the store.
    with pytest.raises(
        ExaDigiTError, match="-> 400: .*unknown what-if modification"
    ):
        client.submit({"kind": "whatif", "modification": "fusion-power"})


def test_healthz_shape(client):
    doc = client.health()
    assert doc["status"] == "ok"
    assert doc["workers"]["alive"] >= 1
    assert set(doc["counters"]) == {
        "executed",
        "cache_hits",
        "warm_hits",
        "requeues",
        "persist_errors",
        "timeouts",
        "admission_rejected",
        "chaos_injected",
        "stream_resumes",
    }
    assert doc["draining"] is False
    assert doc["breaker"]["state"] == "closed"
    assert "store" in doc


def test_store_is_a_readable_campaign(server, client):
    # Every simulated (non-cached) job landed in the open-ended store.
    store_path = server.store.path
    campaign = CampaignStore.open(store_path)
    assert campaign.open_ended
    done = campaign.completed()
    assert done, "no results persisted"
    table = campaign.load().comparison_table()
    assert "scenario" in table
    keys = {entry.get("key") for entry in campaign.manifest["cells"]}
    assert all(isinstance(k, str) and len(k) == 64 for k in keys)


def test_store_reopen_serves_cache_across_restarts(spec, tmp_path):
    store = tmp_path / "store"
    scenario = SyntheticScenario(
        duration_s=300.0, with_cooling=False, seed=4242
    )
    with TwinServer(spec, workers=1, store=store) as first:
        c = TwinClient(first.url)
        job = c.submit(scenario)
        reference = c.steps(job["id"])
    with TwinServer(spec, workers=1, store=store) as second:
        c = TwinClient(second.url)
        job = c.submit(scenario)
        assert job["cached"] is True
        assert c.steps(job["id"]) == reference
    # A different spec must refuse the store (results not comparable).
    other = make_small_spec(total_nodes=128)
    with pytest.raises(ExaDigiTError, match="recorded for spec"):
        TwinServer(other, workers=1, store=store)


def test_terminal_job_retention_bound(spec, tmp_path):
    with TwinServer(
        spec, workers=1, max_retained_jobs=2, store=tmp_path / "s"
    ) as server:
        c = TwinClient(server.url)
        ids = []
        for i in range(4):
            job = c.submit(
                SyntheticScenario(
                    duration_s=300.0, with_cooling=False, seed=7000 + i
                )
            )
            c.wait(job["id"])
            ids.append(job["id"])
        listed = {j["id"] for j in c.jobs()}
        assert len(listed) == 2  # oldest terminal jobs evicted
        assert ids[-1] in listed
        with pytest.raises(ExaDigiTError, match="404"):
            c.job(ids[0])
        # Evicted jobs still answer by content: a resubmission replays
        # from the result cache without re-simulating.
        again = c.submit(
            SyntheticScenario(
                duration_s=300.0, with_cooling=False, seed=7000
            )
        )
        assert again["cached"] is True


# -- concurrent store appends --------------------------------------------------


def _append_worker(args):
    path, start, count = args
    store = CampaignStore.open(path)
    from repro.scenarios.artifacts import StoredScenarioResult

    for i in range(start, start + count):
        cell = SyntheticScenario(
            name=f"cell-{i}", duration_s=300.0, with_cooling=False, seed=i
        )
        index = store.append_cell(cell, meta={"key": f"k{i}"})
        outcome = StoredScenarioResult(
            scenario=cell, metrics_doc={"mean_power_mw": float(i)}
        )
        store.record(index, outcome, extra={"key": f"k{i}"})
    return count


def test_concurrent_writers_never_tear_the_store(spec, tmp_path):
    path = tmp_path / "concurrent"
    CampaignStore.create_open_ended(path, spec)
    jobs = [(str(path), w * 20, 20) for w in range(4)]
    with ProcessPoolExecutor(max_workers=4) as pool:
        assert sum(pool.map(_append_worker, jobs)) == 80
    store = CampaignStore.open(path)
    assert len(store.cells()) == 80
    # Every results line parses and indices are exactly 0..79 once each.
    with (path / "results.jsonl").open() as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    assert sorted(d["index"] for d in docs) == list(range(80))
    names = {e["name"] for e in store.manifest["cells"]}
    assert len(names) == 80


def test_open_ended_guards(spec, tmp_path):
    frozen = CampaignStore.create(
        tmp_path / "frozen", [SCENARIO], spec
    )
    with pytest.raises(Exception, match="open-ended"):
        frozen.append_cell(SCENARIO)
    assert not frozen.open_ended
    open_store = CampaignStore.create_open_ended(tmp_path / "open", spec)
    assert open_store.open_ended
    assert open_store.provenance["spec_sha256"] == spec_sha256(spec)


# -- batched execution ---------------------------------------------------------


def test_batched_server_sweep_bit_identical(spec, tmp_path):
    """``execution="batched"``: a submitted sweep runs as lanes of one
    vectorized engine on a live server, streaming per-step records that
    are bit-identical to direct ``iter_steps()`` runs of each cell."""
    sweep = GridSweepScenario(
        base=SyntheticScenario(duration_s=600.0, with_cooling=False),
        grid={"seed": (21, 22, 23)},
    )
    cells = sweep.expand()
    references = [direct_records(spec, cell) for cell in cells]
    with TwinServer(
        spec, execution="batched", store=tmp_path / "store"
    ) as server:
        c = TwinClient(server.url)
        assert c.health()["execution"] == "batched"
        jobs = c.submit_all(sweep)
        assert len(jobs) == len(cells)
        for job, reference in zip(jobs, references):
            c.wait(job["id"])
            assert_bitidentical(
                c.steps(job["id"]), reference, label=job["name"]
            )
            assert c.job(job["id"])["state"] == "done"
        # Resubmission replays every cell from the result cache.
        again = c.submit_all(sweep)
        assert all(j["cached"] for j in again)


# -- load smoke (slow tier) ----------------------------------------------------


@pytest.mark.slow
def test_load_smoke_32_concurrent_clients(spec, tmp_path):
    """>=32 clients submit and stream concurrently; every stream is
    bit-identical to a direct iter_steps() run of its scenario."""
    n_clients = 32
    scenarios = [
        SyntheticScenario(duration_s=600.0, with_cooling=False, seed=9000 + i)
        for i in range(n_clients)
    ]
    references = [direct_records(spec, s) for s in scenarios]
    results: list[list[dict] | None] = [None] * n_clients
    errors: list[Exception] = []

    with TwinServer(spec, workers=4, store=tmp_path / "store") as server:
        def drive(i: int) -> None:
            try:
                c = TwinClient(server.url)
                job = c.submit(scenarios[i])
                transport = "ws" if i % 2 else "ndjson"
                results[i] = c.steps(job["id"], transport=transport)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(i,), daemon=True)
            for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        health = TwinClient(server.url).health()

    assert not errors, errors[:3]
    for i in range(n_clients):
        assert results[i] is not None, f"client {i} got no stream"
        assert_bitidentical(
            results[i], references[i], label=f"client {i} stream"
        )
    assert health["counters"]["executed"] == n_clients
    assert health["jobs"]["done"] == n_clients
