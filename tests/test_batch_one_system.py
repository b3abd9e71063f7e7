"""A batch is one system: the guards.

- :class:`~repro.batch.kernel.BatchedPlantKernel` rows share one plant
  layout and one set of plant constants, so plants with different CDU
  counts, or of one layout but different ``CoolingSpec``, are refused;
- a reference-backend twin's cells run as lanes on the reference plant,
  never on the fused kernel, and equal their solo reference runs; ``repro
  profile --mode batched`` profiles such a twin's lanes, and only
  ``--mode serve`` (whose workers run fused twins) refuses
  ``--cooling-backend reference``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.batch import run_batched
from repro.batch.kernel import BatchedPlantKernel
from repro.cli import main as cli_main
from repro.cooling.plant import CoolingPlant
from repro.exceptions import CoolingModelError
from repro.scenarios import DigitalTwin, SyntheticScenario
from repro.scenarios.generated import GeneratedScenario
from repro.workloads import DiurnalWorkload, FaultInjection
from tests.conftest import assert_bitidentical, make_small_spec


def test_kernel_rejects_mixed_cdu_counts():
    plants = [
        CoolingPlant(make_small_spec(num_cdus=2).cooling),
        CoolingPlant(make_small_spec(total_nodes=96, num_cdus=1).cooling),
    ]
    with pytest.raises(CoolingModelError, match="one plant layout"):
        BatchedPlantKernel(plants)


def test_kernel_rejects_mixed_specs_of_one_layout():
    cooling = make_small_spec(num_cdus=2).cooling
    retuned = dataclasses.replace(
        cooling,
        cdu_hx=dataclasses.replace(
            cooling.cdu_hx, ua_w_per_k=1.5 * cooling.cdu_hx.ua_w_per_k
        ),
    )
    with pytest.raises(CoolingModelError, match="one plant layout"):
        BatchedPlantKernel([CoolingPlant(cooling), CoolingPlant(retuned)])


def test_reference_twin_cells_run_as_lanes(monkeypatch):
    """Three reference-twin cells of mixed durations: two share a
    wet-bulb (one warm group of two lanes), and one has a CDU blockage.
    The batch never steps the fused kernel, and every cell equals its
    solo reference run bit for bit."""

    def no_kernel(*args, **kwargs):
        raise AssertionError("a reference-backend lane stepped the kernel")

    monkeypatch.setattr(BatchedPlantKernel, "advance", no_kernel)
    spec = make_small_spec()
    twin = DigitalTwin(spec, cooling_backend="reference")
    scenarios = [
        SyntheticScenario(
            name="short", duration_s=300.0, seed=3, wetbulb_c=14.0
        ),
        SyntheticScenario(
            name="long", duration_s=600.0, seed=4, wetbulb_c=14.0
        ),
        GeneratedScenario(
            name="blocked",
            duration_s=450.0,
            workload=DiurnalWorkload(seed=3, mean_arrival_s=60.0),
            faults=FaultInjection(
                seed=3,
                node_mtbf_s=1e9,
                cdu_blockage_time_s=200.0,
                cdu_index=1,
                cdu_blockage_severity=3.0,
            ),
            wetbulb_c=18.0,
        ),
    ]
    batched = run_batched(scenarios, twin)
    for scenario, result in zip(scenarios, batched):
        assert_bitidentical(
            result, scenario.run(twin), label=f"reference {scenario.name}"
        )


def test_batched_profile_runs_on_the_reference_backend(capsys):
    rc = cli_main(
        [
            "profile", "--system", "marconi100", "--hours", "0.05",
            "--mode", "batched", "--cooling-backend", "reference",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "batched"
    assert doc["cooling_backend"] == "reference"
    assert doc["lane_steps"] == doc["steps"] > 0


@pytest.mark.parametrize("mode", ["serve"])
def test_fused_only_profiles_reject_reference_backend(mode, capsys):
    rc = cli_main(
        [
            "profile", "--system", "marconi100", "--hours", "0.05",
            "--mode", mode, "--cooling-backend", "reference",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--mode direct" in err
