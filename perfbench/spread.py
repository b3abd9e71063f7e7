"""Run one workload over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload served-mix --seeds 100-109

Each run is the benchmark's own command from ``BENCHMARK.json`` with
``--trace 0`` and the file's ``run_seconds``.  Prints, per end-to-end
metric, the median over the runs and the distance between the first and
third quartiles (``statistics.quantiles(n=4)``) as a share of that
median: the steadiness figure each bound is checked against.  ``--json``
also writes every run's output to a file, so that two sets of runs can
be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    """``"100-109"`` or ``"1,5,9"``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [*bench["command"], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **doc})
        print(f"seed {seed}: correct={doc['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in doc["metrics"].items()),
            file=sys.stderr, flush=True)
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n",
                             encoding="utf-8")
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        mid = statistics.median(values)
        print(f"{args.workload} {metric['name']}: median {mid:.4g} "
              f"{metric['unit']}, IQR/median {(q3 - q1) / mid:.3f} "
              f"(bound {metric['bound']})")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
