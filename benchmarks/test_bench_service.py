"""Twin-service acceptance bench: warm-plant speedup, 32-client load,
and the resilience-instrumentation overhead guard.

Drives a real :class:`~repro.service.server.TwinServer` end to end and
asserts the serving layer's contract:

- **warm-plant cache**: on one worker, the first coupled job pays the
  1800 s cooling warmup; a second, different job with the same warmup
  key restores the cached plant snapshot instead.  Repeat-job latency
  must drop >= 5x (measured client-side, submit -> done).
- **concurrent load**: >= 32 clients submit and stream simultaneously
  (alternating NDJSON / websocket transports) and every stream is
  bit-identical to a direct ``iter_steps()`` run of its scenario.
- **resilience overhead**: the chaos-hardening instrumentation (seq
  numbering, admission checks, breaker accounting, zero-rate chaos
  checks) must cost <= 5 % end to end: an interleaved min-of-rounds
  comparison of a plain server against one with a zero-rate
  :class:`~repro.service.resilience.ChaosPolicy` attached.

Results land in ``benchmarks/BENCH_service.json`` on the shared
baseline protocol (see ``benchmarks/conftest.py``): hardware-free
ratios (warm speedup, overhead ratio) are guarded against the
committed baseline, wall times are tracked as trajectory only.
"""

from __future__ import annotations

import threading
import time

from benchmarks.conftest import (
    bench_json_path,
    check_ratio,
    emit,
    interleaved_minima,
    load_baseline,
    record_trajectory,
)
from repro.scenarios import DigitalTwin, SyntheticScenario
from repro.scenarios.artifacts import git_revision
from repro.service import ChaosPolicy, TwinClient, TwinServer
from repro.viz.export import step_record
from tests.conftest import make_small_spec

_BENCH_JSON = bench_json_path("service")

#: Coupled warm-cache probe: short simulated window, full 1800 s warmup
#: (the warmup is 120 plant macro-steps; the probe window only 20, so
#: latency is warmup-dominated exactly like an interactive steering job).
WARM_HOURS = 300.0 / 3600.0
N_CLIENTS = 32
#: Resilience overhead probe: streaming-heavy uncoupled jobs (the seq
#: and chaos checks sit on the per-step hot paths), interleaved rounds.
OVERHEAD_ROUNDS = 5
OVERHEAD_JOBS = 3
OVERHEAD_BUDGET = 1.05


def _coupled(seed: int) -> SyntheticScenario:
    return SyntheticScenario(
        duration_s=WARM_HOURS * 3600.0, with_cooling=True, seed=seed
    )


def _submit_and_wait(client: TwinClient, scenario) -> float:
    t0 = time.perf_counter()
    job = client.submit(scenario, use_cache=False)
    final = client.wait(job["id"])
    assert final["state"] == "done", final
    return time.perf_counter() - t0


def _stream_round(client: TwinClient, seeds: list[int]) -> float:
    """Wall time to run + fully stream one batch of uncoupled jobs."""
    t0 = time.perf_counter()
    for seed in seeds:
        job = client.submit(
            SyntheticScenario(
                duration_s=3600.0, with_cooling=False, seed=seed
            ),
            use_cache=False,
        )
        client.steps(job["id"])
    return time.perf_counter() - t0


def test_service_warm_cache_and_concurrent_load(frontier, benchmark):
    baseline = load_baseline(_BENCH_JSON)
    results: dict = {"system": frontier.name}

    # --- warm-plant cache on the full Frontier plant (25 CDU loops).
    with TwinServer(frontier, workers=1) as server:
        client = TwinClient(server.url)
        cold_s = _submit_and_wait(client, _coupled(seed=0))
        # Different scenario, same warmup key -> plant restored, not
        # re-stepped; the result cache cannot help (different content).
        warm_s = _submit_and_wait(client, _coupled(seed=1))
        benchmark(lambda: _submit_and_wait(client, _coupled(seed=2)))
        health = client.health()
    speedup = cold_s / warm_s
    results.update(
        {
            "coupled_job_hours": WARM_HOURS,
            "cold_job_wall_s": round(cold_s, 3),
            "warm_job_wall_s": round(warm_s, 3),
            "warm_speedup": round(speedup, 1),
            "warm_hits": health["counters"]["warm_hits"],
        }
    )
    assert health["counters"]["warm_hits"] >= 1
    assert speedup >= 5.0, f"warm speedup only {speedup:.1f}x"
    check_ratio(baseline, "warm_speedup", speedup)

    # --- >= 32 concurrent clients, bit-identical streams (small spec
    # so 32 direct reference runs stay cheap).
    spec = make_small_spec()
    scenarios = [
        SyntheticScenario(duration_s=600.0, with_cooling=False, seed=i)
        for i in range(N_CLIENTS)
    ]
    twin = DigitalTwin(spec)
    references = [
        [step_record(s) for s in sc.iter_steps(twin)] for sc in scenarios
    ]
    streams: list = [None] * N_CLIENTS
    errors: list = []
    t0 = time.perf_counter()
    with TwinServer(spec, workers=4) as server:
        def drive(i: int) -> None:
            try:
                c = TwinClient(server.url)
                job = c.submit(scenarios[i])
                transport = "ws" if i % 2 else "ndjson"
                streams[i] = c.steps(job["id"], transport=transport)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(i,), daemon=True)
            for i in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        load_health = TwinClient(server.url).health()
    load_wall = time.perf_counter() - t0
    assert not errors, errors[:3]
    identical = sum(streams[i] == references[i] for i in range(N_CLIENTS))
    assert identical == N_CLIENTS
    results.update(
        {
            "clients": N_CLIENTS,
            "load_wall_s": round(load_wall, 3),
            "load_steals": load_health["queue"]["steals"],
            "streams_bit_identical": identical,
        }
    )

    # --- resilience instrumentation overhead: plain vs zero-rate
    # chaos, interleaved rounds (shared thermal/noise environment, the
    # first side rotating), min-of-rounds on each side.  Each side walks
    # its own iterator over the same per-round seeds, so both stream the
    # same fresh jobs each round.
    zero_rates = {
        site: 0.0 for site in ("worker_crash", "conn_drop",
                               "store_write", "slow_io", "loop_stall")
    }
    with TwinServer(spec, workers=1) as plain, TwinServer(
        spec, workers=1, chaos=ChaosPolicy(0, zero_rates)
    ) as chaosy:
        plain_client = TwinClient(plain.url)
        chaos_client = TwinClient(chaosy.url)
        _stream_round(plain_client, [9001])  # warm both pools
        _stream_round(chaos_client, [9001])
        rounds = [
            [9100 + round_i * OVERHEAD_JOBS + j for j in range(OVERHEAD_JOBS)]
            for round_i in range(OVERHEAD_ROUNDS)
        ]
        plain_seeds, chaos_seeds = iter(rounds), iter(rounds)
        best = interleaved_minima(
            {
                "plain": lambda: _stream_round(
                    plain_client, next(plain_seeds)
                ),
                "chaos": lambda: _stream_round(
                    chaos_client, next(chaos_seeds)
                ),
            },
            OVERHEAD_ROUNDS,
        )
    overhead = best["chaos"] / best["plain"]
    results.update(
        {
            "resilience_plain_wall_s": round(best["plain"], 3),
            "resilience_chaos_wall_s": round(best["chaos"], 3),
            "resilience_overhead_ratio": round(overhead, 3),
            "git_rev": git_revision(),
        }
    )
    assert overhead <= OVERHEAD_BUDGET, (
        f"resilience instrumentation costs {overhead:.3f}x "
        f"(budget {OVERHEAD_BUDGET}x)"
    )
    check_ratio(
        baseline,
        "resilience_overhead_ratio",
        overhead,
        higher_is_better=False,
    )

    record_trajectory(_BENCH_JSON, results, baseline)

    emit(
        "Twin service - warm cache, concurrent streaming, overhead",
        "\n".join(
            [
                f"cold coupled job   {cold_s:8.2f} s  (1800 s plant warmup)",
                f"warm coupled job   {warm_s:8.2f} s  -> {speedup:.1f}x",
                f"{N_CLIENTS} concurrent clients drained in "
                f"{load_wall:.2f} s ({identical}/{N_CLIENTS} bit-identical)",
                f"resilience overhead (zero-rate chaos vs plain): "
                f"{overhead:.3f}x (budget {OVERHEAD_BUDGET}x)",
            ]
        ),
    )
