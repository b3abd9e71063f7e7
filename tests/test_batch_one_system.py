"""A batch is one system on the fused plant kernel: the guards.

- :class:`~repro.batch.kernel.BatchedPlantKernel` rows share one plant
  layout and one set of plant constants, so plants with different CDU
  counts, or of one layout but different ``CoolingSpec``, are refused;
- a reference-backend twin's cells never become lanes (lanes step the
  fused kernel): ``run_batched`` runs them serially, and ``repro
  profile`` refuses ``--cooling-backend reference`` in the modes that
  run lanes (``batched``, and ``serve``, whose workers run lanes).
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.batch.engine as batch_engine
from repro.batch import run_batched
from repro.batch.kernel import BatchedPlantKernel
from repro.cli import main as cli_main
from repro.cooling.plant import CoolingPlant
from repro.exceptions import CoolingModelError
from repro.scenarios import DigitalTwin, SyntheticScenario
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


def test_reference_twin_cell_runs_serially(monkeypatch):
    spec = make_small_spec()
    scenario = SyntheticScenario(
        name="reference-cell", duration_s=600.0, seed=3, wetbulb_c=14.0
    )
    serial = scenario.run(DigitalTwin(spec, cooling_backend="reference"))

    def no_lane(*args, **kwargs):
        raise AssertionError("a reference-backend cell was built as a lane")

    monkeypatch.setattr(batch_engine, "_Lane", no_lane)
    (batched,) = run_batched(
        [scenario], DigitalTwin(spec, cooling_backend="reference")
    )
    assert_bitidentical(batched, serial, label="reference cell")


@pytest.mark.parametrize("mode", ["batched", "serve"])
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
