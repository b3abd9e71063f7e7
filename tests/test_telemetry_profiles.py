"""Utilization-profile shapes (HPL, OpenMxP, generic applications)."""

import numpy as np
import pytest

from repro.exceptions import TelemetryError
from repro.telemetry import profiles


class TestConstantProfile:
    def test_length_matches_duration(self):
        cpu, gpu = profiles.constant_profile(150.0, 0.5, 0.5)
        assert cpu.size == gpu.size == 10  # 150 s / 15 s quanta

    def test_values_clipped(self):
        cpu, gpu = profiles.constant_profile(30.0, 1.5, -0.2)
        assert cpu.max() == 1.0
        assert gpu.min() == 0.0

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(TelemetryError):
            profiles.constant_profile(0.0, 0.5, 0.5)


class TestRampedProfile:
    def test_plateau_reaches_target(self):
        cpu, gpu = profiles.ramped_profile(3600.0, 0.4, 0.8)
        mid = slice(cpu.size // 3, 2 * cpu.size // 3)
        np.testing.assert_allclose(cpu[mid], 0.4, atol=1e-9)
        np.testing.assert_allclose(gpu[mid], 0.8, atol=1e-9)

    def test_edges_below_plateau(self):
        cpu, _ = profiles.ramped_profile(3600.0, 0.4, 0.8, ramp_s=600.0)
        assert cpu[0] < 0.4
        assert cpu[-1] < 0.4


class TestHplProfile:
    def test_core_phase_matches_table3_point(self):
        cpu, gpu = profiles.hpl_profile(5400.0)
        # Middle of the run is the core phase: 79 % GPU, 33 % CPU.
        mid = slice(cpu.size // 3, 2 * cpu.size // 3)
        np.testing.assert_allclose(gpu[mid], profiles.HPL_GPU_UTIL)
        np.testing.assert_allclose(cpu[mid], profiles.HPL_CPU_UTIL)

    def test_startup_and_tail_below_core(self):
        cpu, gpu = profiles.hpl_profile(5400.0)
        assert gpu[0] < profiles.HPL_GPU_UTIL
        assert gpu[-1] < profiles.HPL_GPU_UTIL

    def test_tail_monotone_decay(self):
        _, gpu = profiles.hpl_profile(5400.0)
        tail = gpu[int(0.9 * gpu.size):]
        assert np.all(np.diff(tail) <= 1e-12)


class TestOpenMxpProfile:
    def test_gpu_hotter_than_hpl(self):
        _, gpu_hpl = profiles.hpl_profile(3600.0)
        _, gpu_mxp = profiles.openmxp_profile(3600.0)
        assert np.median(gpu_mxp) > np.median(gpu_hpl)

    def test_bounds(self):
        cpu, gpu = profiles.openmxp_profile(3600.0)
        assert cpu.min() >= 0 and cpu.max() <= 1
        assert gpu.min() >= 0 and gpu.max() <= 1


class TestNoisyApplicationProfile:
    def test_reproducible_with_same_seed(self):
        a = profiles.noisy_application_profile(
            3600.0, np.random.default_rng(1)
        )
        b = profiles.noisy_application_profile(
            3600.0, np.random.default_rng(1)
        )
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_mean_near_levels(self):
        rng = np.random.default_rng(2)
        cpu, gpu = profiles.noisy_application_profile(
            86400.0, rng, cpu_level=0.4, gpu_level=0.6, io_phase_prob=0.0
        )
        assert abs(cpu.mean() - 0.4) < 0.05
        assert abs(gpu.mean() - 0.6) < 0.05

    def test_bounds_always_respected(self):
        rng = np.random.default_rng(3)
        cpu, gpu = profiles.noisy_application_profile(
            7200.0, rng, cpu_level=0.95, gpu_level=0.02, noise=0.3
        )
        for trace in (cpu, gpu):
            assert trace.min() >= 0.0
            assert trace.max() <= 1.0

    def test_io_phases_create_dips(self):
        rng = np.random.default_rng(4)
        _, gpu = profiles.noisy_application_profile(
            86400.0, rng, gpu_level=0.8, noise=0.01, io_phase_prob=1.0
        )
        # With forced IO phases, some quanta drop well below the level.
        assert gpu.min() < 0.4

    def test_rejects_bad_correlation(self):
        with pytest.raises(TelemetryError):
            profiles.noisy_application_profile(
                600.0, np.random.default_rng(0), correlation=1.0
            )


def _array_loop_profile(
    duration_s, rng, *, cpu_level=0.4, gpu_level=0.6, noise=0.08,
    correlation=0.9, io_phase_prob=0.15, trace_quanta=15.0,
):
    """The AR(1) recursion as an element-wise loop over NumPy arrays
    (the form the Python-float loop replaced), same draw order."""
    n = max(1, int(np.ceil(duration_s / trace_quanta)))
    eps_c = rng.normal(0.0, noise * np.sqrt(1 - correlation**2), n)
    eps_g = rng.normal(0.0, noise * np.sqrt(1 - correlation**2), n)
    ar_c = np.empty(n)
    ar_g = np.empty(n)
    prev_c = rng.normal(0.0, noise)
    prev_g = rng.normal(0.0, noise)
    for i in range(n):
        prev_c = correlation * prev_c + eps_c[i]
        prev_g = correlation * prev_g + eps_g[i]
        ar_c[i] = prev_c
        ar_g[i] = prev_g
    cpu = cpu_level + ar_c
    gpu = gpu_level + ar_g
    if io_phase_prob > 0 and n >= 8:
        for _ in range(max(1, n // 40)):
            if rng.random() < io_phase_prob:
                start = rng.integers(0, n)
                width = int(rng.integers(4, 13))
                sl = slice(start, min(start + width, n))
                cpu[sl] *= 0.5
                gpu[sl] *= 0.15
    return np.clip(cpu, 0.0, 1.0), np.clip(gpu, 0.0, 1.0)


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
@pytest.mark.parametrize("n", [1, 3, 7, 8, 41, 240, 1000])
@pytest.mark.parametrize("io_phase_prob", [0.15, 1.0])
def test_noisy_profile_bytes_match_array_loop(seed, n, io_phase_prob):
    """Same bytes as the array-loop recursion, and the generator left
    in the same state (n < 8 skips the I/O dips)."""
    kwargs = dict(
        cpu_level=0.3 + 0.05 * (seed % 5),
        noise=0.02 + 0.01 * (seed % 7),
        correlation=0.5 + 0.1 * (seed % 4),
        io_phase_prob=io_phase_prob,
    )
    mine = np.random.default_rng(seed)
    theirs = np.random.default_rng(seed)
    got = profiles.noisy_application_profile(n * 15.0, mine, **kwargs)
    want = _array_loop_profile(n * 15.0, theirs, **kwargs)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert mine.random() == theirs.random()
