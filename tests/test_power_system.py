"""Whole-system power pipeline: topology, aggregation, Table III anchors."""

import numpy as np
import pytest

from repro.config.frontier import frontier_spec
from repro.power.system import PowerResult, SystemPowerModel, SystemTopology


@pytest.fixture(scope="module")
def frontier():
    return frontier_spec()


@pytest.fixture(scope="module")
def model(frontier):
    return SystemPowerModel(frontier)


class TestTopology:
    def test_frontier_counts(self, frontier):
        topo = SystemTopology.from_spec(frontier)
        assert topo.num_nodes == 9472
        assert topo.num_chassis == 592  # 74 racks x 8 chassis
        assert topo.num_racks == 74
        assert topo.num_cdus == 25
        assert topo.rectifiers_per_chassis == 4

    def test_nodes_per_chassis_and_rack(self, frontier):
        topo = SystemTopology.from_spec(frontier)
        per_chassis = np.bincount(topo.chassis_of_node)
        assert np.all(per_chassis == 16)
        per_rack = np.bincount(topo.rack_of_node)
        assert np.all(per_rack == 128)

    def test_last_cdu_gets_short_group(self, frontier):
        # 74 racks over 25 CDUs of 3: the last CDU serves only 2 racks.
        topo = SystemTopology.from_spec(frontier)
        racks_per_cdu = np.bincount(topo.cdu_of_rack, minlength=25)
        assert np.sum(racks_per_cdu) == 74
        assert np.all(racks_per_cdu[:24] == 3)
        assert racks_per_cdu[24] == 2

    def test_chassis_rack_consistency(self, frontier):
        topo = SystemTopology.from_spec(frontier)
        # chassis_of_node composed with rack_of_chassis == rack_of_node.
        np.testing.assert_array_equal(
            topo.rack_of_chassis[topo.chassis_of_node], topo.rack_of_node
        )


class TestTable3Anchors:
    """The paper's RAPS power verification (Table III)."""

    def test_idle_power(self, model):
        # Paper: RAPS predicts 7.24 MW idle (telemetry 7.4, err 2.1 %).
        assert model.idle_power_w() / 1e6 == pytest.approx(7.24, abs=0.05)

    def test_peak_power(self, model):
        # Paper: RAPS predicts 28.2 MW peak (telemetry 27.4, err 3.1 %).
        assert model.peak_power_w() / 1e6 == pytest.approx(28.2, abs=0.1)

    def test_hpl_core_power(self, model):
        # Paper: 9216 nodes at 79 % GPU / 33 % CPU -> 22.3 MW.
        n = model.nodes.total_nodes
        cpu = np.zeros(n)
        gpu = np.zeros(n)
        cpu[:9216] = 0.33
        gpu[:9216] = 0.79
        result = model.evaluate(cpu, gpu)
        assert result.system_power_w / 1e6 == pytest.approx(22.3, abs=0.15)


class TestAggregation:
    def test_rack_power_includes_switches(self, model):
        result = model.evaluate_uniform(0.0, 0.0)
        # Eq. 4: each rack adds 32 x 250 W of switches.
        assert result.switch_power_w == pytest.approx(74 * 8000.0)
        # Per-rack power exceeds the bare switch term.
        assert np.all(result.rack_power_w > 8000.0)

    def test_cdu_sums_match_rack_sums(self, model):
        result = model.evaluate_uniform(0.5, 0.5)
        assert np.sum(result.cdu_power_w) == pytest.approx(
            np.sum(result.rack_power_w)
        )

    def test_system_power_is_racks_plus_pumps(self, model):
        result = model.evaluate_uniform(0.3, 0.7)
        assert result.system_power_w == pytest.approx(
            float(np.sum(result.rack_power_w)) + 25 * 8700.0
        )

    def test_heat_scaled_by_cooling_efficiency(self, model):
        result = model.evaluate_uniform(1.0, 1.0)
        np.testing.assert_allclose(
            result.cdu_heat_w, result.cdu_power_w * 0.945
        )

    def test_energy_balance_of_result(self, model):
        result = model.evaluate_uniform(0.6, 0.6)
        assert result.compute_input_w == pytest.approx(
            result.compute_output_w + result.loss_w
        )
        assert 0.9 < result.chain_efficiency < 0.95

    def test_loss_fraction_band_matches_table4(self, model):
        # Table IV: loss between 6.26 % and 8.36 % of system power.
        for cpu, gpu in ((0.0, 0.0), (0.3, 0.5), (0.5, 0.7), (1.0, 1.0)):
            frac = model.evaluate_uniform(cpu, gpu).loss_fraction
            assert 0.055 < frac < 0.09


class TestFig4Breakdown:
    def test_gpus_dominate(self, model):
        parts = model.breakdown_at_peak()
        assert parts["gpus"] > 0.7 * (
            parts["cpus"]
            + parts["ram"]
            + parts["nvme"]
            + parts["nics"]
            + parts["switches"]
        )
        # GPUs at peak: 9472 x 4 x 560 W = 21.2 MW.
        assert parts["gpus"] / 1e6 == pytest.approx(21.217, abs=0.01)

    def test_breakdown_sums_to_total(self, model):
        parts = model.breakdown_at_peak()
        total = sum(v for k, v in parts.items() if k != "total")
        assert total == pytest.approx(parts["total"], rel=1e-6)

    def test_peak_total_is_28_2mw(self, model):
        assert model.breakdown_at_peak()["total"] / 1e6 == pytest.approx(
            28.2, abs=0.1
        )


class TestMultiPartitionSystem:
    def test_setonix_evaluates(self):
        from repro.config.loader import load_builtin_system

        spec = load_builtin_system("setonix")
        model = SystemPowerModel(spec)
        result = model.evaluate_uniform(1.0, 1.0)
        assert result.system_power_w > 0
        assert result.node_power_w.size == spec.total_nodes
        # CPU-only partition nodes draw less than GPU nodes at peak.
        cpu_nodes = result.node_power_w[: spec.partitions[0].total_nodes]
        gpu_nodes = result.node_power_w[spec.partitions[0].total_nodes:]
        assert cpu_nodes.mean() < gpu_nodes.mean()


def _chain(spec, kind):
    from repro.core.whatif import _make_chain

    return None if kind == "baseline" else _make_chain(spec, kind)


def _slot_lanes(spec, K, seed):
    """K lanes of random per-slot utilizations and node-to-slot maps."""
    rng = np.random.default_rng(seed)
    cpu_rows, gpu_rows, slot_maps = [], [], []
    for _ in range(K):
        slots = int(rng.integers(1, 60))
        cpu_rows.append(rng.random(slots))
        gpu_rows.append(rng.random(slots))
        slot_maps.append(rng.integers(-1, slots, spec.total_nodes))
    return cpu_rows, gpu_rows, slot_maps


class TestOutputSum:
    """``compute_output_w`` is the node-power sum the chain takes, and
    the one gather of node powers and SIVOC inputs has the bits of a
    flat ``take`` from each table."""

    @pytest.mark.parametrize("system", ["frontier", "setonix"])
    @pytest.mark.parametrize(
        "kind", ["baseline", "smart-rectifier", "direct-dc"]
    )
    @pytest.mark.parametrize("K", [1, 3])
    def test_output_is_node_sum_bit_for_bit(self, system, kind, K):
        from repro.config.loader import load_builtin_system

        spec = load_builtin_system(system)
        if system == "setonix":
            assert len(spec.partitions) == 2
        model = SystemPowerModel(spec, chain=_chain(spec, kind))
        lanes = _slot_lanes(spec, K, seed=K)
        results = model.evaluate_lanes(*lanes)
        table, index = model.nodes.slot_table(*lanes)
        sivoc_table = model.chain.sivocs.input_power(table)
        for k, result in enumerate(results):
            node_w = table.ravel().take(index[k])
            sivoc_in = sivoc_table.ravel().take(index[k])
            assert np.array_equal(result.node_power_w, node_w)
            assert result.compute_output_w == float(
                np.sum(result.node_power_w)
            )
            assert result.sivoc_loss_w == float(
                np.sum(sivoc_in) - np.sum(node_w)
            )
        for result in (
            model.idle(),
            model.evaluate_uniform(0.3, 0.8),
            model.evaluate(
                *(np.random.default_rng(7).random((2, spec.total_nodes)))
            ),
        ):
            assert result.compute_output_w == float(
                np.sum(result.node_power_w)
            )
