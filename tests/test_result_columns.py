"""A run's values live in its result columns; a StepState is a row.

Every engine writes each quantum's values once, into the run's result
arrays.  A :class:`~repro.core.engine.StepState` is built from those
columns only for a consumer that streams: ``iter_steps``, a
``progress`` or ``stop_when`` callback, or ``BatchedEngine.run``'s
``on_step``.  A plain run builds none.  The columns also fix the
stored format: counts persist as JSON ints.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.batch.engine import BatchedEngine
from repro.core.engine import StepState
from repro.core.summary import result_series_doc
from repro.fastpath import fit_bundle
from repro.scenarios import DigitalTwin, SyntheticScenario
from tests.conftest import make_small_spec

DURATION_S = 300.0
STEPS = int(DURATION_S // 15)
COUNT_SERIES = (
    "num_running",
    "cooling.num_ct_staged",
    "cooling.num_htwp_staged",
    "cooling.num_ehx_staged",
)


@pytest.fixture(scope="module")
def spec():
    return make_small_spec()


@pytest.fixture(scope="module")
def bundle(spec):
    # The coarse, short-settle grid of test_fastpath.py: fast to train.
    return fit_bundle(
        spec,
        cooling=True,
        cooling_grid=3,
        cooling_degree=2,
        settle_s=900.0,
        tail_samples=20,
    )


@pytest.fixture()
def constructions(monkeypatch):
    """A list that grows by one per StepState built."""
    built = []
    init = StepState.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StepState, "__init__", counting_init)
    return built


def _cells(with_cooling: bool) -> list[SyntheticScenario]:
    return [
        SyntheticScenario(
            name=f"s{seed}", duration_s=DURATION_S, seed=seed,
            with_cooling=with_cooling,
        )
        for seed in (0, 1)
    ]


@pytest.mark.parametrize("with_cooling", [True, False])
@pytest.mark.parametrize(
    "backend, fidelity",
    [("fused", "full"), ("reference", "full"), ("fused", "surrogate")],
)
def test_plain_run_builds_no_step_states(
    spec, bundle, constructions, backend, fidelity, with_cooling
):
    twin = DigitalTwin(
        spec, cooling_backend=backend, fidelity=fidelity, surrogates=bundle
    )
    outcome = _cells(with_cooling)[0].run(twin)
    assert outcome.result.times_s.size == STEPS
    assert bool(outcome.result.cooling) is with_cooling
    assert constructions == []


@pytest.mark.parametrize("with_cooling", [True, False])
def test_batched_run_builds_rows_only_for_on_step(
    spec, constructions, with_cooling
):
    twin = DigitalTwin(spec)
    cells = _cells(with_cooling)
    BatchedEngine(cells, twin).run()
    assert constructions == []
    streamed = []
    BatchedEngine(cells, twin).run(
        on_step=lambda index, step: streamed.append(index)
    )
    assert len(streamed) == len(cells) * STEPS
    assert len(constructions) == len(streamed)


@pytest.mark.parametrize(
    "backend, execution",
    [
        ("fused", "serial"),
        ("fused", "batched"),
        ("reference", "serial"),
        ("reference", "batched"),
    ],
)
def test_persisted_counts_are_json_ints(spec, backend, execution):
    twin = DigitalTwin(spec, cooling_backend=backend)
    cells = _cells(True)
    if execution == "serial":
        outcomes = [cell.run(twin) for cell in cells]
    else:
        outcomes = BatchedEngine(cells, twin).run()
    for outcome in outcomes:
        doc = result_series_doc(outcome.result)
        for name in COUNT_SERIES:
            series = doc[name]
            assert len(series) == STEPS, name
            assert all(type(value) is int for value in series), name
            assert "." not in json.dumps(series), name


def test_sibling_results_own_their_columns(spec):
    """Two lanes that share one electrical run: writing into one lane's
    result series leaves the other's unchanged."""
    twin = DigitalTwin(spec)
    cells = [
        SyntheticScenario(
            name=f"w{wetbulb}", duration_s=DURATION_S, seed=9,
            wetbulb_c=wetbulb,
        )
        for wetbulb in (13.0, 23.0)
    ]
    engine = BatchedEngine(cells, twin)
    a, b = (outcome.result for outcome in engine.run())
    assert engine.shared_lanes == 1
    before = {
        name: getattr(b, name).copy()
        for name in ("system_power_w", "num_running", "cdu_heat_w")
    }
    pue = b.cooling["pue"].copy()
    for name in before:
        getattr(a, name)[:] = -1
    a.cooling["pue"][:] = -1.0
    for name, series in before.items():
        np.testing.assert_array_equal(getattr(b, name), series)
    np.testing.assert_array_equal(b.cooling["pue"], pue)
