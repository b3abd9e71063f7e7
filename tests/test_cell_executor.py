"""The cell executor: every ``execution`` x ``workers`` path of
:func:`~repro.scenarios.suite.run_cells` runs lane groups through
:class:`~repro.batch.engine.BatchedEngine` and equals
``scenario.run(twin)`` bit for bit, and a twin crosses a process
boundary only as its recipe.
"""

from __future__ import annotations

import pytest

from repro.fastpath import fit_bundle
from repro.scenarios import (
    DigitalTwin,
    SweepScenario,
    SyntheticScenario,
    WhatIfScenario,
)
from repro.scenarios.suite import run_cells
from repro.scenarios.twin import rebuild_twin
from tests.conftest import assert_bitidentical, make_small_spec

DUR = 600.0


@pytest.fixture(scope="module")
def twin():
    spec = make_small_spec()
    bundle = fit_bundle(
        spec,
        cooling=True,
        cooling_grid=3,
        cooling_degree=2,
        settle_s=900.0,
        tail_samples=20,
    )
    return DigitalTwin(spec, surrogates=bundle)


def _mixed_cells():
    return list(
        enumerate(
            [
                SyntheticScenario(name="coupled", duration_s=DUR, seed=1),
                SyntheticScenario(
                    name="uncoupled", duration_s=DUR, seed=2, with_cooling=False
                ),
                WhatIfScenario(
                    name="whatif", modification="direct-dc", duration_s=DUR
                ),
                SyntheticScenario(
                    name="surrogate",
                    duration_s=DUR,
                    seed=3,
                    fidelity="surrogate",
                ),
                SweepScenario(
                    name="sweep",
                    base=SyntheticScenario(duration_s=DUR, with_cooling=False),
                    parameter="seed",
                    values=(4, 5),
                ),
            ]
        )
    )


@pytest.fixture(scope="module")
def direct(twin):
    return [scenario.run(twin) for _, scenario in _mixed_cells()]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("execution", ["serial", "batched"])
def test_every_path_equals_direct_run(twin, direct, execution, workers):
    cells = _mixed_cells()
    order: list[int] = []
    got: dict[int, object] = {}

    def on_result(index, scenario, outcome):
        assert scenario is cells[index][1]
        order.append(index)
        got[index] = outcome

    run_cells(
        twin, cells, workers=workers, execution=execution, on_result=on_result
    )
    assert sorted(order) == list(range(len(cells)))
    if workers == 1 and execution == "serial":
        assert order == list(range(len(cells)))
    for index, expected in enumerate(direct):
        assert_bitidentical(
            got[index], expected, label=f"{execution} x{workers} #{index}"
        )


def test_recipe_rebuilds_the_twin():
    spec = make_small_spec()
    bundle = fit_bundle(spec, cooling=False)
    twin = DigitalTwin(
        spec,
        fidelity="surrogate",
        surrogates=bundle,
        cooling_backend="reference",
    )
    rebuilt = rebuild_twin(twin.recipe())
    assert rebuilt.recipe() == twin.recipe()
    assert rebuilt.spec == spec
    assert rebuilt.fidelity == "surrogate"
    assert rebuilt.cooling_backend == "reference"
    assert rebuilt.warm_cache is not None
    # No attached bundle: nothing shipped, a worker trains its own.
    assert DigitalTwin(spec).recipe()[3] is None
