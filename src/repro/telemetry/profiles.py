"""Utilization-trace profiles for synthetic jobs and benchmarks.

The paper's verification suite exercises three reference operating points
(Table III): idle (0 % CPU/GPU), the HPL core phase (79 % GPU / 33 % CPU,
inferred from telemetry), and peak (100 % / 100 %).  Fig. 8 additionally
runs OpenMxP, the mixed-precision benchmark.  This module builds the
per-quantum utilization traces for those workloads plus generic noisy
application profiles used by the synthetic workload generator.

All profiles return ``(cpu_util, gpu_util)`` arrays of equal length with
values in [0, 1], sampled every ``trace_quanta`` seconds.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.exceptions import TelemetryError
from repro.telemetry.schema import TRACE_QUANTA_S

#: HPL core-phase utilizations inferred from telemetry (paper section IV-2).
HPL_GPU_UTIL = 0.79
HPL_CPU_UTIL = 0.33

#: OpenMxP runs the GPUs harder than HPL (mixed-precision tensor kernels).
OPENMXP_GPU_UTIL = 0.92
OPENMXP_CPU_UTIL = 0.25


def _n_quanta(duration_s: float, trace_quanta: float) -> int:
    if duration_s <= 0:
        raise TelemetryError("profile duration must be positive")
    if trace_quanta <= 0:
        raise TelemetryError("trace_quanta must be positive")
    return max(1, int(np.ceil(duration_s / trace_quanta)))


def constant_profile(
    duration_s: float,
    cpu_util: float,
    gpu_util: float,
    trace_quanta: float = TRACE_QUANTA_S,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat utilization for the whole duration (idle/peak verification)."""
    n = _n_quanta(duration_s, trace_quanta)
    return (
        np.full(n, float(np.clip(cpu_util, 0.0, 1.0))),
        np.full(n, float(np.clip(gpu_util, 0.0, 1.0))),
    )


def ramped_profile(
    duration_s: float,
    cpu_util: float,
    gpu_util: float,
    *,
    ramp_s: float = 120.0,
    tail_s: float = 60.0,
    trace_quanta: float = TRACE_QUANTA_S,
) -> tuple[np.ndarray, np.ndarray]:
    """Linear ramp-in, steady plateau, linear ramp-out.

    Models the startup (data load, factorization setup) and teardown
    phases visible in benchmark power traces (paper Fig. 8).
    """
    n = _n_quanta(duration_s, trace_quanta)
    t = (np.arange(n) + 0.5) * trace_quanta
    ramp = np.ones(n)
    if ramp_s > 0:
        ramp = np.minimum(ramp, t / ramp_s)
    if tail_s > 0:
        ramp = np.minimum(ramp, np.maximum(duration_s - t, 0.0) / tail_s)
    ramp = np.clip(ramp, 0.0, 1.0)
    return np.clip(cpu_util * ramp, 0, 1), np.clip(gpu_util * ramp, 0, 1)


def hpl_profile(
    duration_s: float = 5400.0,
    trace_quanta: float = TRACE_QUANTA_S,
) -> tuple[np.ndarray, np.ndarray]:
    """High Performance Linpack trace: ramp to the core phase, then tail.

    The core phase holds the Table III operating point (79 % GPU, 33 %
    CPU); the trailing panel factorizations shrink, so utilization decays
    over the final ~15 % of the run.
    """
    n = _n_quanta(duration_s, trace_quanta)
    t = (np.arange(n) + 0.5) / n  # normalized progress in (0, 1)
    cpu = np.full(n, HPL_CPU_UTIL)
    gpu = np.full(n, HPL_GPU_UTIL)
    # Startup: matrix generation, ~4 % of the run at low GPU load.
    startup = t < 0.04
    cpu[startup] = 0.20
    gpu[startup] = 0.10
    # Tail: trailing updates shrink, utilization decays quadratically.
    tail = t > 0.85
    decay = ((1.0 - t[tail]) / 0.15) ** 2
    gpu[tail] = HPL_GPU_UTIL * (0.35 + 0.65 * decay)
    cpu[tail] = HPL_CPU_UTIL * (0.50 + 0.50 * decay)
    return np.clip(cpu, 0, 1), np.clip(gpu, 0, 1)


def openmxp_profile(
    duration_s: float = 3600.0,
    trace_quanta: float = TRACE_QUANTA_S,
) -> tuple[np.ndarray, np.ndarray]:
    """OpenMxP (mixed-precision HPL) trace: near-saturated GPU core phase."""
    n = _n_quanta(duration_s, trace_quanta)
    t = (np.arange(n) + 0.5) / n
    cpu = np.full(n, OPENMXP_CPU_UTIL)
    gpu = np.full(n, OPENMXP_GPU_UTIL)
    startup = t < 0.05
    cpu[startup] = 0.18
    gpu[startup] = 0.12
    tail = t > 0.9
    decay = (1.0 - t[tail]) / 0.1
    gpu[tail] = OPENMXP_GPU_UTIL * (0.4 + 0.6 * decay)
    cpu[tail] = OPENMXP_CPU_UTIL * (0.5 + 0.5 * decay)
    return np.clip(cpu, 0, 1), np.clip(gpu, 0, 1)


def noisy_application_profile(
    duration_s: float,
    rng: np.random.Generator,
    *,
    cpu_level: float = 0.4,
    gpu_level: float = 0.6,
    noise: float = 0.08,
    correlation: float = 0.9,
    io_phase_prob: float = 0.15,
    trace_quanta: float = TRACE_QUANTA_S,
) -> tuple[np.ndarray, np.ndarray]:
    """Generic application: AR(1)-correlated noise around mean levels.

    Occasionally inserts I/O/checkpoint phases where compute utilization
    dips — the sawtooth pattern typical of production HPC telemetry.
    """
    if not 0.0 <= correlation < 1.0:
        raise TelemetryError("correlation must be in [0, 1)")
    n = _n_quanta(duration_s, trace_quanta)
    # AR(1) noise with stationary std = `noise`: the O(n) recurrence runs
    # on Python floats (the same IEEE double arithmetic as NumPy scalars,
    # at a fraction of the per-element cost), in place in C-double
    # buffers.  A list of n live floats would do as well here but scatter
    # the small objects allocated after it, which slowed replaying the
    # traces by about 2 %.
    eps_c = rng.normal(0.0, noise * np.sqrt(1 - correlation**2), n)
    eps_g = rng.normal(0.0, noise * np.sqrt(1 - correlation**2), n)
    prev_c = float(rng.normal(0.0, noise))
    prev_g = float(rng.normal(0.0, noise))
    corr = float(correlation)
    ar_c = array("d", eps_c.tobytes())
    ar_g = array("d", eps_g.tobytes())
    for i in range(n):
        prev_c = ar_c[i] = corr * prev_c + ar_c[i]
        prev_g = ar_g[i] = corr * prev_g + ar_g[i]
    cpu = cpu_level + np.frombuffer(ar_c)
    gpu = gpu_level + np.frombuffer(ar_g)
    # Checkpoint/IO phases: 1-3 min dips with probability per ~10 min block.
    if io_phase_prob > 0 and n >= 8:
        n_blocks = max(1, n // 40)
        for _ in range(n_blocks):
            if rng.random() < io_phase_prob:
                start = rng.integers(0, n)
                width = int(rng.integers(4, 13))
                sl = slice(start, min(start + width, n))
                cpu[sl] *= 0.5
                gpu[sl] *= 0.15
    return np.clip(cpu, 0.0, 1.0), np.clip(gpu, 0.0, 1.0)


__all__ = [
    "HPL_GPU_UTIL",
    "HPL_CPU_UTIL",
    "OPENMXP_GPU_UTIL",
    "OPENMXP_CPU_UTIL",
    "constant_profile",
    "ramped_profile",
    "hpl_profile",
    "openmxp_profile",
    "noisy_application_profile",
]
