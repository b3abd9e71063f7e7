"""Node power model: Eq. 3 correctness and vectorization."""

import numpy as np
import pytest

from repro.config.frontier import frontier_spec
from repro.config.schema import NodeSpec, PartitionSpec, RackSpec
from repro.exceptions import PowerModelError
from repro.power.components import NodePowerModel


@pytest.fixture(scope="module")
def model():
    return NodePowerModel(frontier_spec().partitions)


class TestEq3:
    def test_idle_node_is_626w(self, model):
        p = model.uniform_power_w(0.0, 0.0)
        np.testing.assert_allclose(p, 626.0)

    def test_peak_node_is_2704w(self, model):
        p = model.uniform_power_w(1.0, 1.0)
        np.testing.assert_allclose(p, 2704.0)

    def test_hpl_core_point(self, model):
        # CPU 33 %, GPU 79 %: 90+0.33*190 + 4*(88+0.79*472) + 80+74+30.
        p = model.uniform_power_w(0.33, 0.79)
        expected = (90 + 0.33 * 190) + 4 * (88 + 0.79 * 472) + 80 + 74 + 30
        np.testing.assert_allclose(p, expected)

    def test_linear_in_utilization(self, model):
        lo = model.uniform_power_w(0.0, 0.0)[0]
        hi = model.uniform_power_w(1.0, 1.0)[0]
        mid = model.uniform_power_w(0.5, 0.5)[0]
        assert mid == pytest.approx((lo + hi) / 2.0)

    def test_per_node_heterogeneous_utilization(self, model):
        n = model.total_nodes
        cpu = np.zeros(n)
        gpu = np.zeros(n)
        cpu[0] = 1.0
        gpu[0] = 1.0
        p = model.node_power_w(cpu, gpu)
        assert p[0] == pytest.approx(2704.0)
        assert p[1] == pytest.approx(626.0)


class TestValidation:
    def test_rejects_wrong_shape(self, model):
        with pytest.raises(PowerModelError, match="shape"):
            model.node_power_w(np.zeros(10), np.zeros(10))

    def test_rejects_out_of_range(self, model):
        n = model.total_nodes
        bad = np.zeros(n)
        bad[0] = 1.5
        with pytest.raises(PowerModelError, match="\\[0, 1\\]"):
            model.node_power_w(bad, np.zeros(n))

    def test_requires_partitions(self):
        with pytest.raises(PowerModelError):
            NodePowerModel(())


class TestMultiPartition:
    def test_concatenation_order(self):
        gpu_part = PartitionSpec(
            name="gpu", total_nodes=128, node=NodeSpec(), rack=RackSpec()
        )
        cpu_part = PartitionSpec(
            name="cpu",
            total_nodes=128,
            node=NodeSpec(
                gpus_per_node=0, gpu_power_idle_w=0.0, gpu_power_max_w=0.0
            ),
            rack=RackSpec(),
        )
        model = NodePowerModel((gpu_part, cpu_part))
        p = model.uniform_power_w(0.0, 0.0)
        assert p[:128].max() == pytest.approx(626.0)
        assert p[128:].max() == pytest.approx(626.0 - 4 * 88.0)

    def test_idle_max_properties(self, model):
        assert model.idle_node_power_w[0] == pytest.approx(626.0)
        assert model.max_node_power_w[0] == pytest.approx(2704.0)


class TestNanGuard:
    """NaN compares False both ways, so a min/max bound test must be
    written to fail on it; every Eq. 3 form shares that one check."""

    @pytest.fixture(scope="class")
    def system(self):
        from repro.power.system import SystemPowerModel

        return SystemPowerModel(frontier_spec())

    def test_node_form_rejects_nan(self, system):
        n = system.nodes.total_nodes
        cpu = np.zeros(n)
        cpu[17] = np.nan
        with pytest.raises(PowerModelError, match="\\[0, 1\\]"):
            system.evaluate(cpu, np.zeros(n))

    def test_slot_form_rejects_nan(self, system):
        slot_of_node = np.full(system.nodes.total_nodes, -1, dtype=np.int64)
        slot_of_node[:8] = 1
        slot_gpu = np.array([0.2, np.nan, 0.0])
        with pytest.raises(PowerModelError, match="\\[0, 1\\]"):
            system.evaluate(np.zeros(3), slot_gpu, slot_of_node)

    def test_batched_lane_rejects_nan(self):
        from repro.batch.power import BatchedPowerModel

        spec = frontier_spec()
        power = BatchedPowerModel(spec, [None, None])
        n = power.lane_group[0].nodes.total_nodes
        slot_of_node = np.zeros(n, dtype=np.int64)
        ok = np.array([0.5])
        with pytest.raises(PowerModelError, match="\\[0, 1\\]"):
            power.evaluate(
                [0, 1],
                [ok, np.array([np.nan])],
                [ok, ok],
                [slot_of_node, slot_of_node],
            )


class TestBatchedChains:
    """Lanes of one spec under four conversion chains in one
    :class:`BatchedPowerModel`: every lane's result has the bits of the
    serial model with that lane's chain."""

    LANES_PER_CHAIN = 4

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.batch.power import BatchedPowerModel
        from repro.core.whatif import _make_chain
        from repro.power.conversion import ConversionChain
        from repro.power.system import SystemPowerModel

        spec = frontier_spec()
        topo = SystemPowerModel(spec).topology

        def baseline():
            return ConversionChain(
                spec.power.rectifier,
                spec.power.sivoc,
                topo.rectifiers_per_chassis,
                topo.chassis_of_node,
                topo.num_chassis,
            )

        failed = baseline()
        failed.fail_rectifiers(0, 1)
        chains = [
            baseline(),
            failed,
            _make_chain(spec, "smart-rectifier"),
            _make_chain(spec, "direct-dc"),
        ]
        lane_chains = [c for c in chains for _ in range(self.LANES_PER_CHAIN)]
        power = BatchedPowerModel(spec, lane_chains)
        serial = {
            id(c): SystemPowerModel(spec, chain=c) for c in chains
        }
        return spec, lane_chains, power, serial

    @pytest.mark.parametrize("K", [1, 4])
    def test_each_lane_matches_its_serial_chain(self, setup, K):
        spec, lane_chains, power, serial = setup
        n = spec.total_nodes
        rng = np.random.default_rng(K)
        lanes = [
            lane
            for lane in range(len(lane_chains))
            if lane % self.LANES_PER_CHAIN < K
        ]
        slot_maps = [rng.integers(-1, 6, size=n) for _ in lanes]
        cpu_rows = [rng.random(6) for _ in lanes]
        gpu_rows = [rng.random(6) for _ in lanes]
        results = power.evaluate(lanes, cpu_rows, gpu_rows, slot_maps)
        assert len(results) == len(lanes)
        for pos, lane in enumerate(lanes):
            expected = serial[id(lane_chains[lane])].evaluate(
                cpu_rows[pos], gpu_rows[pos], slot_maps[pos]
            )
            got = results[pos]
            for name, value in vars(expected).items():
                np.testing.assert_array_equal(
                    getattr(got, name), value, err_msg=f"lane {lane} {name}"
                )


class TestStackedKernel:
    """The slot-table kernel on Setonix (two partitions): K ragged lanes
    under each of four chains in one :class:`BatchedPowerModel` call give
    every lane the bits of the per-node pipeline, whose Eq. 3 and SIVOC
    curve run on each node's own column."""

    #: Per-lane running-slot counts: a lane with no running slot first.
    SLOTS = (0, 1, 7, 3, 12)

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.batch.power import BatchedPowerModel
        from repro.config.machines import setonix_spec
        from repro.core.whatif import _make_chain
        from repro.power.conversion import ConversionChain
        from repro.power.system import SystemPowerModel

        spec = setonix_spec()
        topo = SystemPowerModel(spec).topology

        def baseline():
            return ConversionChain(
                spec.power.rectifier,
                spec.power.sivoc,
                topo.rectifiers_per_chassis,
                topo.chassis_of_node,
                topo.num_chassis,
            )

        failed = baseline()
        failed.fail_rectifiers(3, 2)
        chains = [
            baseline(),
            failed,
            _make_chain(spec, "smart-rectifier"),
            _make_chain(spec, "direct-dc"),
        ]
        serial = [SystemPowerModel(spec, chain=c) for c in chains]
        lane_chains = [c for c in chains for _ in self.SLOTS]
        power = BatchedPowerModel(spec, lane_chains)
        return spec, chains, serial, power

    def _lanes(self, spec, seed):
        """Ragged (cpu, gpu, slot map) per lane; the last slot of every
        busy lane runs on nodes of both partitions."""
        n = spec.total_nodes
        boundary = spec.partitions[0].total_nodes
        rng = np.random.default_rng(seed)
        lanes = []
        for slots in self.SLOTS:
            slot_of_node = np.full(n, -1, dtype=np.int64)
            if slots:
                busy = rng.random(n) < 0.6
                slot_of_node[busy] = rng.integers(0, slots, size=busy.sum())
                slot_of_node[boundary - 5 : boundary + 5] = slots - 1
            lanes.append((rng.random(slots), rng.random(slots), slot_of_node))
        return lanes

    @staticmethod
    def _assert_same(got, expected, what):
        for name, value in vars(expected).items():
            np.testing.assert_array_equal(
                getattr(got, name), value, err_msg=f"{what} {name}"
            )

    def test_lanes_match_the_per_node_pipeline(self, setup):
        spec, chains, serial, power = setup
        lanes = self._lanes(spec, 0) * len(chains)
        cpu_rows, gpu_rows, slot_maps = zip(*lanes)
        results = power.evaluate(
            list(range(len(lanes))), cpu_rows, gpu_rows, slot_maps
        )
        for lane, (cpu, gpu, slot_of_node) in enumerate(lanes):
            model = serial[lane // len(self.SLOTS)]
            idle = slot_of_node < 0
            node_cpu = np.where(idle, 0.0, np.append(cpu, 0.0)[slot_of_node])
            node_gpu = np.where(idle, 0.0, np.append(gpu, 0.0)[slot_of_node])
            expected = model.evaluate(node_cpu, node_gpu)
            self._assert_same(results[lane], expected, f"lane {lane}")
            # The SIVOC stage on the slot table equals the curve over
            # every node.
            _, sivoc_loss, rect_loss = model.chain.convert(
                results[lane].node_power_w
            )
            assert results[lane].sivoc_loss_w == sivoc_loss
            assert results[lane].rectifier_loss_w == rect_loss

    def test_one_lane_equals_serial_evaluate(self, setup):
        spec, chains, serial, power = setup
        for seed, (cpu, gpu, slot_of_node) in enumerate(self._lanes(spec, 1)):
            for c, model in enumerate(serial):
                lane = c * len(self.SLOTS) + seed
                (got,) = power.evaluate([lane], [cpu], [gpu], [slot_of_node])
                expected = model.evaluate(cpu, gpu, slot_of_node)
                self._assert_same(got, expected, f"lane {lane}")

    def test_node_form_equals_identity_slot_map(self, setup):
        spec, chains, serial, power = setup
        rng = np.random.default_rng(2)
        n = spec.total_nodes
        cpu, gpu = rng.random(n), rng.random(n)
        identity = np.arange(n)
        for model in serial:
            self._assert_same(
                model.evaluate(cpu, gpu),
                model.evaluate(cpu, gpu, identity),
                model.chain.name,
            )

    def test_lanes_own_their_node_power(self, setup):
        spec, chains, serial, power = setup
        lanes = self._lanes(spec, 3)
        cpu_rows, gpu_rows, slot_maps = zip(*lanes)
        results = power.evaluate(
            list(range(len(lanes))), cpu_rows, gpu_rows, slot_maps
        )
        for a, b in zip(results, results[1:]):
            assert not np.shares_memory(a.node_power_w, b.node_power_w)
        for result in results:
            assert result.node_power_w.shape == (spec.total_nodes,)
            assert result.node_power_w.base is None

    def test_misaligned_slot_rows_rejected(self, setup):
        spec, chains, serial, power = setup
        slot_of_node = np.zeros(spec.total_nodes, dtype=np.int64)
        with pytest.raises(PowerModelError, match="align"):
            power.evaluate(
                [0, 1],
                [np.zeros(2), np.zeros(1)],
                [np.zeros(1), np.zeros(2)],
                [slot_of_node, slot_of_node],
            )
