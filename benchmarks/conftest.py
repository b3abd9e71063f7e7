"""Shared fixtures and reporting helpers for the reproduction benches.

Each bench module regenerates one table or figure from the paper's
evaluation and asserts its *shape* (who wins, rough magnitudes,
crossovers) while timing a representative kernel with pytest-benchmark.
Set ``REPRO_T4_DAYS`` to lengthen the Table IV campaign (default 6 days;
the paper replays 183).

Benches with a ``BENCH_*.json`` perf trajectory share the baseline
protocol below (:func:`load_baseline` / :func:`check_ratio` /
:func:`record_trajectory`): a missing baseline never skips or weakens a
``-m slow`` run — the bench measures as usual, the ratio guards are
simply vacuous on the very first run, and the file is **self-seeded**
so the next run (and CI) has a bar to clear.  The committed file is the
baseline of record: it is rewritten only on first creation or under
``REPRO_BENCH_UPDATE=1``, so neither a lucky fast run nor a regressed
one can silently ratchet the bar.
"""

from __future__ import annotations

import gc
import json
import os

import pytest

from repro.config.frontier import frontier_spec


_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Machine-independent regression budget on committed guard ratios: a
#: measured ratio more than 20 % worse than the baseline fails.
RATIO_REGRESSION = 1.2


def bench_json_path(name: str) -> str:
    """Absolute path of a ``BENCH_<name>.json`` trajectory file."""
    return os.path.join(_BENCH_DIR, f"BENCH_{name}.json")


def load_baseline(path: str) -> dict | None:
    """The committed baseline doc, or None on a first (seeding) run."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_ratio(
    baseline: dict | None,
    key: str,
    measured: float,
    *,
    higher_is_better: bool = True,
    budget: float = RATIO_REGRESSION,
) -> None:
    """Guard one hardware-independent ratio against the baseline.

    Vacuous when the baseline is missing (first run — the caller then
    seeds it via :func:`record_trajectory`) or lacks ``key`` (older
    baseline schema); never skips the measurement itself.
    """
    if baseline is None:
        return
    committed = baseline.get(key)
    if not committed:
        return
    if higher_is_better:
        assert measured >= committed / budget, (
            f"{key} regressed: {measured:.2f} vs committed "
            f"{committed:.2f} (budget {budget}x)"
        )
    else:
        assert measured <= committed * budget, (
            f"{key} regressed: {measured:.2f} vs committed "
            f"{committed:.2f} (budget {budget}x)"
        )


def record_trajectory(path: str, doc: dict, baseline: dict | None) -> None:
    """Persist the trajectory doc: always on first run, else opt-in.

    Self-seeding keeps CI honest — a fresh checkout's first ``-m slow``
    run both measures and creates the bar later runs are guarded
    against, instead of silently running guard-free forever.
    """
    if baseline is None or os.environ.get("REPRO_BENCH_UPDATE") == "1":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def interleaved_minima(variants: dict, rounds: int) -> dict:
    """Each variant's minimum measurement over ``rounds`` interleaved
    rounds.

    ``variants`` maps a name to a zero-argument callable that runs the
    variant once and returns its measurement (seconds).  Each round runs
    every variant once, after a ``gc.collect()`` per run, rotating which
    goes first (two variants alternate), so drift on a shared host and
    the garbage left by earlier runs fall on every variant alike.
    """
    names = list(variants)
    best = dict.fromkeys(names, float("inf"))
    for r in range(rounds):
        k = r % len(names)
        for name in names[k:] + names[:k]:
            gc.collect()
            best[name] = min(best[name], variants[name]())
    return best


def pytest_collection_modifyitems(items):
    """Every bench is a multi-second-to-minutes run: mark them all slow
    so the default (tier-1) loop skips the benchmark tier.  The hook
    receives the whole session's items, so scope to this directory."""
    for item in items:
        if str(item.fspath).startswith(_BENCH_DIR):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def frontier():
    return frontier_spec()


@pytest.fixture(scope="session")
def t4_days() -> int:
    return int(os.environ.get("REPRO_T4_DAYS", "6"))


def emit(title: str, body: str) -> None:
    """Print a reproduction artifact under a banner (shown with -s)."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
