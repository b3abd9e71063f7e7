"""``served-mix``: the twin as a service, driven by a closed loop of clients.

A :class:`TwinServer` on Frontier runs in this process with one worker
process and the service defaults otherwise (metrics on, 1 s history
sampling, a persisted store).  Two client threads each submit a 0.5 h
coupled synthetic scenario, stream it over NDJSON until the terminal
event, then submit the next.  Every fourth submission of a client
repeats one of the first :data:`HISTORY` scenarios that client ran, so
the result cache and the stream replay are exercised next to fresh
compute.  That share is a chosen value, not measured traffic: it gives
both paths at least 20 samples a run.

The window runs in rounds of :data:`ROUND` jobs until ``--seconds``
have passed and :data:`MIN_JOBS` jobs completed.  Between rounds both
clients and the worker are idle, and the host probe (see hostclock) is
sampled on every CPU: a probe taken while the server and client threads
run would wait for the interpreter lock.  Each round's timings are
normalised by the samples on either side of it, and each end-to-end
figure is the median over the rounds, so a host slowdown that covers
part of the window moves it only if it covers most rounds.  The cached
latency is the exception: after each round, :data:`IDLE_REPEATS` repeat
submissions are timed one at a time on the idle server.

Each stream is checked as it arrives.  A client keeps the streams of
its first :data:`HISTORY` fresh scenarios, the ones its repeats draw
from and the direct-run check samples; every other stream is reduced
to its length, so the memory held does not grow with the number of
jobs that fit in the window.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

from measure import (
    SETUP_REPEATS,
    Ledger,
    RunResult,
    median,
    peak_rss_mb,
    quantile,
)

CLIENTS = 2
JOB_S = 1800.0
#: Jobs per round: about six repeats, and two or three jobs beyond the
#: round's p90.
ROUND = 25
MIN_JOBS = 150
#: Repeat submissions timed on the idle server after each round.
IDLE_REPEATS = 4
REPEAT_EVERY = 4
#: Fresh scenarios per client whose streams are kept (see above).
HISTORY = 8
DIRECT_SAMPLES = 4
#: The set-up warm-up job's seed, outside the range workload seeds use.
WARMUP_SEED = 1_000_000

#: Served timings are probe-normalised, from samples between rounds.
NORMALISED = True


def _scenario(seed: int):
    from repro.scenarios import SyntheticScenario

    return SyntheticScenario(duration_s=JOB_S, seed=seed, with_cooling=True)


def _run_job(client, scenario) -> dict:
    """Submit one scenario and stream it to its terminal event."""
    from repro.service.protocol import TERMINAL_EVENTS, is_step_record

    submit = time.time()
    summary = client.submit(scenario)
    posted = time.time()
    first = None
    steps: list[dict] = []
    terminal: dict = {}
    for doc in client.watch(summary["id"]):
        if is_step_record(doc):
            if first is None:
                first = time.time()
            steps.append(doc)
        elif doc.get("event") == "restart":
            steps.clear()
        elif doc.get("event") in TERMINAL_EVENTS:
            terminal = doc
            break
    end = time.time()
    return {
        "scenario": scenario,
        "submit": submit,
        "posted": posted,
        "first": first if first is not None else end,
        "end": end,
        "event": terminal.get("event"),
        "job": terminal.get("job", summary),
        "steps": steps,
    }


def _set_up(workdir, k: int):
    """Spec load, server start, worker pool alive, one warm-up job done."""
    from repro.config.frontier import frontier_spec
    from repro.service import TwinClient, TwinServer

    spec = frontier_spec()
    server = TwinServer(spec, workers=1, store=workdir / f"store-{k}")
    server.start_in_thread()
    try:
        job = _run_job(TwinClient(server.url), _scenario(WARMUP_SEED))
        if job["event"] != "done":
            raise RuntimeError(f"warm-up job ended {job['event']}")
    except BaseException:
        server.close()
        raise
    return spec, server


class _Client:
    """One closed-loop client: submit, stream to the end, submit the next."""

    def __init__(self, index: int, url: str, seeds, rng) -> None:
        from repro.service import TwinClient

        self.index = index
        self.client = TwinClient(url, client_id=f"perfbench-{index}")
        self.seeds = seeds
        self.rng = rng
        self.submitted = 0
        #: ``(scenario, steps)`` of this client's first fresh jobs.
        self.kept: list[tuple] = []

    def run_round(self, jobs: list, lock, quota: int) -> None:
        """Run jobs until the round's ``jobs`` list holds ``quota``."""
        while True:
            with lock:
                if len(jobs) >= quota:
                    return
            k = self.submitted
            if k >= len(self.seeds):
                raise RuntimeError(f"client {self.index} ran out of seeds")
            self.submitted += 1
            original = None
            if k % REPEAT_EVERY == REPEAT_EVERY - 1 and self.kept:
                scenario, original = self.kept[
                    int(self.rng.integers(len(self.kept)))
                ]
            else:
                scenario = _scenario(int(self.seeds[k]))
            job = _run_job(self.client, scenario)
            steps = job.pop("steps")
            job["n_steps"] = len(steps)
            job["repeat"] = original is not None
            if original is not None:
                job["same"] = steps == original
            elif len(self.kept) < HISTORY:
                self.kept.append((scenario, steps))
            with lock:
                jobs.append(job)


def _round(pool, clients, clock) -> tuple[list, float, float]:
    """One round of :data:`ROUND` jobs, bracketed by host samples.

    Returns the round's jobs and its ``perf_counter`` start and end.
    """
    jobs: list[dict] = []
    lock = threading.Lock()
    with clock.bracket(every_cpu=True):
        t0 = perf_counter()
        futures = [pool.submit(c.run_round, jobs, lock, ROUND) for c in clients]
        for future in futures:
            future.result()
        t1 = perf_counter()
    return jobs, t0, t1


def _idle_repeats(client, clock) -> list[dict]:
    """Repeat submissions on the idle server, each bracketed by host samples.

    Inside a round a repeat waits for the interpreter lock behind the
    other client's stream, so its latency follows the mix more than the
    cache path.  These take the campaign-resume sensitivity, the
    calibrated kind nearest to them: a short store-answered request run
    in this process.
    """
    from hostclock import sensitivity

    out = []
    for _ in range(IDLE_REPEATS):
        scenario, original = client.kept[
            int(client.rng.integers(len(client.kept)))
        ]
        with clock.bracket():
            t0 = perf_counter()
            job = _run_job(client.client, scenario)
            t1 = perf_counter()
        steps = job.pop("steps")
        job.update(n_steps=len(steps), repeat=True, same=steps == original)
        job["latency_s"] = clock.seconds(t0, t1, sensitivity("campaign-resume"))
        out.append(job)
    return out


def run(args, clock, import_s: float, workdir) -> RunResult:
    from repro.scenarios import DigitalTwin
    from repro.service import TwinClient
    from repro.service.warmcache import WarmStateCache
    from repro.viz.export import step_record

    rng = np.random.default_rng(args.seed)
    seeds = rng.choice(WARMUP_SEED, (CLIENTS, 1000), replace=False)

    build_s = []
    server = None
    for k in range(SETUP_REPEATS):
        if server is not None:
            server.close()
        with clock.bracket(every_cpu=True):
            t0 = perf_counter()
            spec, server = _set_up(workdir, k)
            t1 = perf_counter()
        build_s.append(clock.seconds(t0, t1))
    setup_s = import_s + median(build_s)

    rounds = []  # (jobs, seconds, host scale)
    idle = []
    try:
        admin = TwinClient(server.url)
        before = admin.health()["counters"]
        clients = [
            _Client(i, server.url, seeds[i],
                    np.random.default_rng([args.seed, i]))
            for i in range(CLIENTS)
        ]
        start = time.time()
        with ThreadPoolExecutor(CLIENTS) as pool:
            while True:
                jobs, t0, t1 = _round(pool, clients, clock)
                rounds.append((jobs, t1 - t0, clock.scale(t0, t1)))
                idle.extend(_idle_repeats(clients[0], clock))
                done = sum(len(r[0]) for r in rounds)
                if time.time() - start >= args.seconds and done >= MIN_JOBS:
                    break
        after = admin.health()["counters"]
    finally:
        server.close()
    # The worker has been reaped, so the children's peak includes it.
    peak_mb = peak_rss_mb(children=True)
    jobs = [job for r in rounds for job in r[0]] + idle
    ledger = Ledger()
    ledger.attempt(len(jobs))

    # -- correctness (not timed) -----------------------------------------------
    kept = [pair for c in clients for pair in c.kept]
    twin = DigitalTwin(spec, warm_cache=WarmStateCache())
    for _ in _scenario(WARMUP_SEED).iter_steps(twin):
        pass  # the worker's warm-up job leaves its cache in this state
    direct_s = []
    n_steps = None
    for n in rng.choice(len(kept), min(DIRECT_SAMPLES, len(kept)),
                        replace=False):
        scenario, streamed = kept[int(n)]
        t0 = perf_counter()
        steps = list(scenario.iter_steps(twin))
        direct_s.append(perf_counter() - t0)
        n_steps = len(steps)
        if [step_record(s) for s in steps] != streamed:
            ledger.fail(f"fresh job seed {scenario.seed}",
                        "stream differs from the direct run")
    for n, job in enumerate(jobs):
        if job["event"] != "done":
            ledger.fail(f"job {n}", f"ended {job['event']}")
        if job["n_steps"] != n_steps:
            ledger.fail(f"job {n}", f"{job['n_steps']} of {n_steps} steps")
        if job["repeat"] and not job["same"]:
            ledger.fail(f"job {n}", "repeat differs from its original")
    fresh = [j for j in jobs if not j["job"].get("cached")]

    def per_round(fn) -> float:
        values = [fn(*r) for r in rounds]
        return median([v for v in values if v is not None])

    def latency(q: float, end: str = "end"):
        def fn(round_jobs, seconds, scale):
            return quantile([j[end] - j["submit"] for j in round_jobs], q) / scale
        return per_round(fn)

    def rate(round_jobs, seconds, scale) -> float:
        hours = JOB_S / 3600.0 * sum(
            1 for j in round_jobs if not j["job"].get("cached")
        )
        return hours / seconds * scale

    e2e = {
        "setup_s": setup_s,
        "sim_hours_per_s": per_round(rate),
        "job_latency_p50_s": latency(0.5),
        "job_latency_p90_s": latency(0.9),
        "first_step_p50_s": latency(0.5, end="first"),
        "cached_job_latency_p50_s": median([j["latency_s"] for j in idle]),
        "peak_rss_mb": peak_mb,
    }

    def delta(name: str) -> float:
        return float(after.get(name, 0) - before.get(name, 0))

    queue = [j["job"]["started_at"] - j["job"]["submitted_at"] for j in fresh]
    run_s = [j["job"]["finished_at"] - j["job"]["started_at"] for j in fresh]
    direct_p50 = median(direct_s)
    layers = {
        "service.submit_p50_s": quantile(
            [j["posted"] - j["submit"] for j in jobs], 0.5
        ),
        "service.queue_wait_p50_s": quantile(queue, 0.5),
        "service.queue_wait_p90_s": quantile(queue, 0.9),
        "service.run_p50_s": quantile(run_s, 0.5),
        "service.stream_tail_p50_s": quantile(
            [j["end"] - j["job"]["finished_at"] for j in fresh], 0.5
        ),
        "service.cache_hit_ratio": delta("cache_hits") / len(jobs),
        "service.warm_hit_ratio": (
            delta("warm_hits") / max(delta("executed"), 1)
        ),
        "service.requeues": delta("requeues"),
        "service.persist_errors": delta("persist_errors"),
        "service.direct_run_p50_s": direct_p50,
        "service.serving_tax": quantile(run_s, 0.5) / direct_p50,
        # No span is recorded in this process for served jobs (the
        # worker runs them), so the traced run is the untraced one.
        "trace.overhead": 1.0,
    }
    return RunResult(
        e2e=e2e,
        layers=layers if args.trace else {},
        attempted=ledger.attempted,
        failed=len(ledger.failed),
        problems=ledger.problems,
    )
