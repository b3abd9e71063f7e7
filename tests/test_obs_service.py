"""Telemetry endpoints of a live twin server: /metrics, /statusz,
/healthz degraded states, /console, the flight recorder, and the
``repro top`` CLI.

The happy-path tests share one module-scoped server; the degraded
tests each boot a dedicated single-worker server so killing workers or
deleting the store cannot poison other modules' fixtures.
"""

from __future__ import annotations

import http.client
import time

import pytest

from repro.cli import main as cli_main
from repro.scenarios import SyntheticScenario
from repro.service import TwinClient, TwinServer

from tests.conftest import make_small_spec

SCENARIO = SyntheticScenario(duration_s=600.0, with_cooling=False, seed=9)
#: A job long enough to still be mid-flight when we kill its worker.
LONG_JOB = SyntheticScenario(duration_s=7200.0, with_cooling=True)


@pytest.fixture(scope="module")
def spec():
    return make_small_spec()


@pytest.fixture(scope="module")
def server(spec, tmp_path_factory):
    store = tmp_path_factory.mktemp("obs-service") / "store"
    with TwinServer(spec, workers=2, store=store) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return TwinClient(server.url)


def _get_raw(server, path):
    conn = http.client.HTTPConnection(
        server.host, server.port, timeout=30.0
    )
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type"),
            response.read().decode("utf-8"),
        )
    finally:
        conn.close()


def test_metrics_endpoint_prometheus_text(server, client):
    job = client.submit(SCENARIO)
    client.wait(job["id"])
    status, ctype, body = _get_raw(server, "/metrics")
    assert status == 200
    assert ctype.startswith("text/plain")
    assert "version=0.0.4" in ctype
    assert client.metrics_text() == body
    lines = body.splitlines()
    # Engine counters live in the worker *processes*; the server's own
    # page carries the service-level families.
    assert any(
        l.startswith("# TYPE repro_service_jobs_submitted_total counter")
        for l in lines
    )
    assert any(l.startswith("# TYPE repro_service_queue_depth gauge") for l in lines)
    assert any(
        l.startswith("repro_service_job_seconds_bucket") for l in lines
    )

    def sample(name):
        for l in lines:
            if l.startswith(name + " ") or l.startswith(name + "{"):
                return float(l.rsplit(" ", 1)[1])
        raise AssertionError(f"{name} not exposed")

    assert sample("repro_service_jobs_submitted_total") >= 1
    assert sample("repro_service_workers_alive") == 2
    assert sample("repro_service_steps_streamed_total") >= 1


def test_statusz_shape(server, client):
    doc = client.statusz()
    assert set(doc) >= {
        "server", "time", "url", "jobs_total", "jobs", "metrics", "flight",
    }
    assert doc["url"] == server.url
    assert doc["server"]["status"] == "ok"
    checks = doc["server"]["checks"]
    assert checks["pool"]["ok"] and checks["pool"]["alive"] >= 1
    assert checks["event_loop"]["ok"]
    assert checks["store"]["ok"]
    assert doc["jobs_total"] == len(doc["jobs"]) >= 1
    job = doc["jobs"][-1]
    assert {"id", "state", "kind", "steps", "attempts"} <= set(job)
    assert "repro_service_jobs_submitted_total" in doc["metrics"]
    assert doc["flight"]["capacity"] > 0


def test_console_endpoint_serves_dashboard(server, client):
    status, ctype, body = _get_raw(server, "/console")
    assert status == 200
    assert ctype.startswith("text/html")
    assert "ExaDigiT twin console" in body
    assert "/statusz" in body and "WebSocket" in body
    assert client.console_html() == body


def test_healthz_reports_checks_without_breaking_shape(client):
    doc = client.health()
    assert doc["status"] == "ok"
    assert set(doc["checks"]) == {"pool", "event_loop", "store"}
    # The pre-telemetry health fields must all survive.
    assert {"system", "workers", "queue", "jobs", "counters"} <= set(doc)


def test_top_cli_smoke(server, capsys):
    rc = cli_main(["top", "--url", server.url, "--once"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "twin service" in out
    assert "workers" in out and "flight recorder" in out


def test_metrics_disabled_server_returns_empty_page(spec):
    with TwinServer(spec, workers=1, metrics=False) as srv:
        client = TwinClient(srv.url)
        assert client.metrics_text() == ""
        assert not srv.expose_metrics
        # Health still works without a registry.
        assert client.health()["status"] == "ok"


def test_worker_crash_degrades_pool_and_dumps_flight(spec, tmp_path):
    with TwinServer(
        spec, workers=1, store=tmp_path / "store"
    ) as srv:
        srv.max_worker_respawns = 0
        client = TwinClient(srv.url)
        job = client.submit(LONG_JOB, use_cache=False)
        # Wait for the job to be dispatched and streaming.
        deadline = time.time() + 30.0
        while time.time() < deadline:
            if client.job(job["id"])["state"] == "running":
                break
            time.sleep(0.05)
        srv.pool.workers[0].process.kill()
        deadline = time.time() + 30.0
        while time.time() < deadline:
            doc = client.health()
            if doc["status"] == "degraded":
                break
            time.sleep(0.1)
        assert doc["status"] == "degraded"
        assert not doc["checks"]["pool"]["ok"]
        assert doc["checks"]["pool"]["alive"] == 0
        statusz = client.statusz()
        assert statusz["flight"]["dumps"] >= 1
        dumps = sorted((tmp_path / "store" / "flight").glob("*.jsonl"))
        assert dumps
        assert "worker0-exit" in dumps[0].name
        assert dumps[0].read_text().strip()
        metrics = statusz["metrics"]
        crashes = metrics["repro_service_worker_crashes_total"]["samples"]
        assert crashes[0]["value"] >= 1


def test_store_loss_degrades_health(spec, tmp_path):
    import shutil

    with TwinServer(spec, workers=1, store=tmp_path / "store") as srv:
        client = TwinClient(srv.url)
        assert client.health()["status"] == "ok"
        # The container runs as root, so chmod a-w would not bite;
        # losing the directory entirely is the honest failure mode.
        shutil.rmtree(tmp_path / "store")
        doc = client.health()
        assert doc["status"] == "degraded"
        assert not doc["checks"]["store"]["ok"]
        assert doc["checks"]["store"]["error"]
