"""Host-speed calibration: timings in probe-normalised seconds.

The machines this benchmark runs on share their cores with other
tenants and their speed drifts: the same replay reads 6.7 s and then
11.5 s a few minutes later, with CPU time tracking wall time.  No run
length averages out a drift that slow, so the benchmark's timings are
*probe-normalised*: raw seconds divided by ``f ** sensitivity``, where
``f`` is the median duration of a fixed probe sampled while the timed
work ran, over the probe's reference duration.  The probe is about a
millisecond of interpreter work and NumPy calls on node-sized arrays
(three 74 kB arrays, well inside a core's L2 cache), none of it the
program's code.  A slower host slows the probe and the work together,
and the division cancels it; a faster program leaves the probe alone,
so the division keeps the gain.

Work does not slow as much as the probe does.  ``sensitivity`` is the
slope of log(work time) on log(f) over repeated identical units of one
kind of work.  ``calibrate.py`` measures it and writes
``calibration.json`` next to this file: the fitted slope of every unit
kind, every sample the fit used, and the probe's reference duration
(its 5th percentile over the calibration).  :func:`sensitivity` reads
the slopes from there, so the file is the one place they live.  A wrong
slope adds noise, not bias, because the host's state does not depend on
the commit measured.  A sensitivity of 0 leaves timings raw.

While a :class:`HostClock` is entered, a ``SIGALRM`` interval timer takes
one sample in the main thread every ``interval_s``: three probes back to
back, of which the fastest counts (the first one after the program ran
finds its caches cold).  The sample's time is subtracted from every
window it falls in.  The timer only interrupts the main thread, between
bytecodes, and the probe touches none of the program's state.  Work
shorter than the interval, or run on other threads and processes, is
bracketed instead (:meth:`HostClock.bracket`).
"""

from __future__ import annotations

import json
import os
import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from time import perf_counter

import numpy as np

CALIBRATION = Path(__file__).with_name("calibration.json")

_N = 9472  # node-sized arrays, like the engine's per-quantum work
_A = np.linspace(0.0, 1.0, _N)
_IDX = np.arange(_N)[::-1].copy()
_MASK = (np.arange(_N) % 3) == 0
_OUT = np.empty(_N)


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0.0


_SLOTS = [_Slot(i) for i in range(256)]


def probe() -> float:
    """Run the fixed probe once; returns its duration in seconds."""
    t0 = perf_counter()
    acc = 0.0
    table: dict[int, float] = {}
    queue: list[_Slot] = []
    for _ in range(6):
        for slot in _SLOTS:
            slot.value = slot.key * 0.5 + acc
            table[slot.key & 31] = slot.value
            queue.append(slot)
            if len(queue) > 8:
                acc += queue.pop(0).value * 1e-9
    for _ in range(16):
        np.take(_A, _IDX, out=_OUT)
        np.multiply(_OUT, 1.0001, out=_OUT)
        acc += float(np.add.reduce(np.where(_MASK, _OUT, 0.0)))
    return perf_counter() - t0


@lru_cache(maxsize=None)
def _calibration() -> dict:
    if not CALIBRATION.is_file():
        raise RuntimeError(
            f"{CALIBRATION.name} is missing; run perfbench/calibrate.py"
        )
    return json.loads(CALIBRATION.read_text(encoding="utf-8"))


def sensitivity(kind: str) -> float:
    """The calibrated sensitivity of one unit kind (``calibration.json``)."""
    return float(_calibration()["sensitivity"][kind])


def probe_ref_s() -> float:
    """Probe duration that maps to one normalised second."""
    return float(_calibration()["probe_ref_s"])


class HostClock:
    """Samples the probe and turns raw time windows into normalised ones."""

    def __init__(self, sensitivity: float, interval_s: float = 0.25,
                 probe_ref: float | None = None) -> None:
        self.sensitivity = sensitivity
        self.interval_s = interval_s
        self.probe_ref = probe_ref_s() if probe_ref is None else probe_ref
        self.starts: list[float] = []
        self.spent: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._sampling = False

    def _record(self, cpus=None) -> None:
        start = perf_counter()
        if cpus is None:
            duration = min(probe() for _ in range(3))
        else:
            home = os.sched_getaffinity(0)
            per_cpu = []
            try:
                for cpu in cpus:
                    os.sched_setaffinity(0, {cpu})
                    per_cpu.append(min(probe() for _ in range(3)))
            finally:
                os.sched_setaffinity(0, home)
            duration = statistics.geometric_mean(per_cpu)
        self.durations.append(duration)
        self.spent.append(perf_counter() - start)
        self.starts.append(start)

    def _on_alarm(self, signum, frame) -> None:
        if not self._sampling:  # the timer fired inside sample_now
            self._record()

    def sample_now(self, n: int = 5, cpus=None) -> None:
        """Take ``n`` samples back to back (``cpus``: see :meth:`bracket`)."""
        self._sampling = True
        try:
            for _ in range(n):
                self._record(cpus)
        finally:
            self._sampling = False

    @contextmanager
    def bracket(self, every_cpu: bool = False):
        """Sample three times just before and just after a block.

        A unit of work shorter than the timer interval otherwise takes
        its host state from samples up to a second away.  With
        ``every_cpu`` each sample runs the probe on every CPU this
        process may use in turn, pinned to it, and keeps the geometric
        mean: work spread over threads and processes on several cores (a
        served round) sees all of their states.  Those cores are idle
        while a bracket samples.
        """
        cpus = sorted(os.sched_getaffinity(0)) if every_cpu else None
        self.sample_now(3, cpus)
        yield
        self.sample_now(3, cpus)

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """Host slowness over ``[t0, t1]``: median probe / reference.

        Uses the samples taken inside the window; a window with fewer
        than three adds the three nearest on each side, which are the
        ones :meth:`bracket` takes when the caller brackets the window.
        """
        lo = bisect_left(self.starts, t0)
        hi = bisect_right(self.starts, t1)
        if hi - lo < 3:
            lo, hi = max(0, lo - 3), min(len(self.starts), hi + 3)
        if hi <= lo:
            raise RuntimeError("no host probe sampled")
        return statistics.median(self.durations[lo:hi]) / self.probe_ref

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds the samples themselves took inside ``[t0, t1]``."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_right(self.starts, t1)
        return sum(self.spent[lo:hi])

    def raw(self, t0: float, t1: float) -> float:
        """Seconds of work in ``[t0, t1]``, the samples' own time taken out."""
        return t1 - t0 - self.probe_time(t0, t1)

    def scale(self, t0: float, t1: float, sensitivity: float | None = None
              ) -> float:
        """What raw seconds in ``[t0, t1]`` are divided by."""
        s = self.sensitivity if sensitivity is None else sensitivity
        return self.factor(t0, t1) ** s

    def seconds(self, t0: float, t1: float, sensitivity: float | None = None
                ) -> float:
        """Normalised seconds of the work done in ``[t0, t1]``."""
        return self.raw(t0, t1) / self.scale(t0, t1, sensitivity)

    def median_probe_s(self) -> float:
        return statistics.median(self.durations)
