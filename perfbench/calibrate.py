"""Fit how strongly each kind of timed work follows the host probe.

Usage, from the root of a checkout::

    python3 perfbench/calibrate.py --rounds 12

Each round runs one unit of every kind back to back: a coupled and an
uncoupled replay of one pinned-regime Frontier day, one fresh 64-lane
Setonix campaign, store-answered resumes of that campaign, and one
served-mix round of jobs.  A :class:`hostclock.HostClock` samples the
probe as the benchmark does for that kind: on its timer during replays
and campaigns, just before and after a resume, and on every CPU just
before and after a served round.  Per kind, the slope of log(work
seconds) on log(probe seconds) is the sensitivity the benchmark divides
by; interleaving the kinds gives every kind the same spread of host
states.

The result goes to ``perfbench/calibration.json``: the slopes, the fit
statistics (slope standard error, correlation, spread before and after
normalisation), every ``[work seconds, probe seconds]`` sample, and the
probe's reference duration, its 5th percentile over the calibration.
Run it again on a new kind of host, or after changing the probe.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

#: Store-answered resumes per round.
RESUMES = 6


def _fit(samples) -> dict:
    work = np.log([w for w, _ in samples])
    host = np.log([f for _, f in samples])
    slope, _ = np.polyfit(host, work, 1)
    residual = work - slope * host
    dof = max(len(samples) - 2, 1)
    spread = float(np.sum((host - host.mean()) ** 2))
    stderr = float(np.sqrt(np.sum((residual - residual.mean()) ** 2) / dof
                           / spread)) if spread > 0 else float("inf")
    clipped = float(min(max(slope, 0.0), 2.0))
    raw = np.exp(work)
    normalised = raw / np.exp(host) ** clipped
    return {
        "slope": round(float(slope), 4),
        "slope_stderr": round(stderr, 4),
        "r": round(float(np.corrcoef(host, work)[0, 1]), 4),
        "probe_range": round(float(np.exp(host.max() - host.min())), 4),
        "cv_raw": round(float(raw.std() / raw.mean()), 4),
        "cv_normalised": round(float(normalised.std() / normalised.mean()), 4),
        "sensitivity": round(clipped, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--out", type=Path, default=HERE / "calibration.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import served
    from hostclock import HostClock
    from lanes import _inputs, _set_up
    from measure import DAY_S, PINNED_DAY
    from repro.config.frontier import frontier_spec
    from repro.core.replay import replay_dataset
    from repro.scenarios import Campaign
    from repro.telemetry.synthesis import (
        SyntheticTelemetryGenerator,
        WorkloadDayParams,
    )

    frontier = frontier_spec()
    day = SyntheticTelemetryGenerator(frontier, seed=0).day(
        0, params=WorkloadDayParams(**PINNED_DAY)
    )
    sweep, wetbulbs, _ = _inputs(0)
    setonix, cache = _set_up(wetbulbs)
    workdir = ROOT / ".perfbench_work" / f"calibrate-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    clock = HostClock(1.0, probe_ref=1.0)  # factor() in probe seconds
    samples: dict[str, list] = {
        "replay-coupled": [], "replay-uncoupled": [],
        "campaign-lanes": [], "campaign-resume": [], "served-mix": [],
    }

    def unit(kind, fn):
        """A unit longer than the timer interval, sampled on the timer."""
        with clock:
            t0 = perf_counter()
            fn()
            t1 = perf_counter()
        samples[kind].append([clock.raw(t0, t1), clock.factor(t0, t1)])

    def short_unit(kind, fn):
        """A unit sampled just before and after."""
        with clock.bracket():
            t0 = perf_counter()
            fn()
            t1 = perf_counter()
        samples[kind].append([clock.raw(t0, t1), clock.factor(t0, t1)])

    _, server = served._set_up(workdir, 0)
    seeds = np.random.default_rng(0).choice(
        served.WARMUP_SEED, (served.CLIENTS, 1000), replace=False
    )
    clients = [
        served._Client(i, server.url, seeds[i], np.random.default_rng(i))
        for i in range(served.CLIENTS)
    ]
    try:
        with ThreadPoolExecutor(served.CLIENTS) as pool:
            for n in range(args.rounds):
                path = workdir / f"campaign-{n}"
                unit("replay-coupled", lambda: replay_dataset(
                    frontier, day, DAY_S, with_cooling=True))
                unit("replay-uncoupled", lambda: replay_dataset(
                    frontier, day, DAY_S, with_cooling=False))
                unit("campaign-lanes", lambda: Campaign.create(
                    path, [sweep], system=setonix, warm_cache=cache,
                ).run(execution="batched"))
                for _ in range(RESUMES):
                    short_unit("campaign-resume", lambda: Campaign.open(
                        path, warm_cache=cache).run(execution="batched"))
                shutil.rmtree(path, ignore_errors=True)
                _, t0, t1 = served._round(pool, clients, clock)
                samples["served-mix"].append(
                    [clock.raw(t0, t1), clock.factor(t0, t1)]
                )
                print(f"round {n}: " + ", ".join(
                    f"{k} {v[-1][0]:.3f} s @ {v[-1][1] * 1e3:.3f} ms"
                    for k, v in samples.items()), file=sys.stderr, flush=True)
    finally:
        server.close()
        shutil.rmtree(workdir, ignore_errors=True)

    fits = {kind: _fit(s) for kind, s in samples.items()}
    doc = {
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "rounds": args.rounds,
        "probe_ref_s": round(float(np.percentile(clock.durations, 5)), 7),
        "sensitivity": {kind: fit["sensitivity"] for kind, fit in fits.items()},
        "fit": fits,
        "samples": {
            kind: [[round(w, 6), round(f, 8)] for w, f in s]
            for kind, s in samples.items()
        },
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for kind, fit in fits.items():
        print(f"{kind}: {fit}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
