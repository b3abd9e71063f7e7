"""Benchmark of the ExaDigiT twin: four seeded workloads, end to end and
layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay-coupled --seed 0 \\
        --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  Progress and failed checks go to standard error.  See
``perfbench/README.md`` for what each workload runs and how each metric
is defined.
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# The package is pure Python in a src layout: running it from source is
# its build.  Spawned service workers inherit this path.
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("replay-coupled", "replay-uncoupled", "campaign-lanes", "served-mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared_metrics() -> tuple[dict, dict]:
    """``{name: unit}`` for the end-to-end and per-layer metrics."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared_metrics()

    import numpy  # noqa: F401  (the package's imports, timed as set-up)
    import repro  # noqa: F401

    imported = perf_counter()
    if args.workload.startswith("replay-"):
        import replays as workload
    elif args.workload == "campaign-lanes":
        import lanes as workload
    else:
        import served as workload
    from hostclock import HostClock, sensitivity

    clock = HostClock(
        sensitivity(args.workload) if workload.NORMALISED else 0.0
    )
    clock.sample_now()
    import_s = clock.seconds(_T0, imported)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = workload.run(args, clock, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    failed_frac = result.failed / max(result.attempted, 1)
    if args.trace:
        values = {
            "failed_frac": failed_frac,
            "host.probe_ms": clock.median_probe_s() * 1e3,
            **result.layers,
        }
        declared = per_layer
    else:
        values = result.e2e
        declared = end_to_end
    missing = sorted(set(end_to_end) - set(result.e2e))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    extra = sorted(set(values) - set(declared))
    if extra:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {extra}")
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
