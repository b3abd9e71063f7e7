"""Property-based tests: structural invariants of the batched engine.

Three properties pin down what "batching is only an overhead
eliminator" means:

- **B=1 degeneracy** — a single-lane batch is the serial engine, bit
  for bit, over randomized scenario parameters;
- **permutation invariance** — lane order is an implementation detail:
  any permutation of the same scenario set returns each scenario's
  exact serial result;
- **inert padding** — heterogeneous batches pad narrow lanes to the
  widest plant/node count, and live lanes must not feel the padding
  (nor each other): every lane equals its solo serial run no matter
  which companions share the batch.

Engine runs are orders of magnitude slower than the pure-function
properties in ``test_property_cooling.py``, so example counts are small
and serial references are memoized across examples.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import run_batched
from repro.scenarios import DigitalTwin, SyntheticScenario
from tests.conftest import (
    assert_bitidentical,
    assert_lanes_match_solo,
    batched_lanes,
    make_small_spec,
)

_WIDE = make_small_spec()
_NARROW = make_small_spec(total_nodes=96, num_cdus=1)

#: scenario-name -> serial ScenarioResult, shared across examples (runs
#: are pure functions of (spec, scenario), so memoization is sound).
_SERIAL_CACHE: dict = {}


def _scenario(spec, seed: int, wetbulb: float, coupled: bool, steps: int):
    tag = "w" if spec is _WIDE else "n"
    return SyntheticScenario(
        name=f"{tag}-{seed}-{wetbulb}-{coupled}-{steps}",
        duration_s=steps * 150.0,
        seed=seed,
        wetbulb_c=wetbulb,
        with_cooling=coupled,
    )


def _serial_reference(spec, scenario):
    key = (id(spec), scenario.name)
    if key not in _SERIAL_CACHE:
        _SERIAL_CACHE[key] = scenario.run(DigitalTwin(spec))
    return _SERIAL_CACHE[key]


@given(
    seed=st.integers(0, 1_000_000),
    wetbulb=st.sampled_from([5.0, 12.5, 18.0, 24.0]),
    coupled=st.booleans(),
    steps=st.integers(2, 6),
)
@settings(max_examples=10, deadline=None)
def test_single_lane_batch_is_the_serial_engine(
    seed, wetbulb, coupled, steps
):
    scenario = _scenario(_WIDE, seed, wetbulb, coupled, steps)
    batched = run_batched([scenario], DigitalTwin(_WIDE))[0]
    assert_bitidentical(
        batched,
        _serial_reference(_WIDE, scenario),
        label=f"B=1 {scenario.name}",
    )


_ROSTER = [
    _scenario(_WIDE, seed, wetbulb, coupled, steps)
    for seed, wetbulb, coupled, steps in [
        (0, 12.5, True, 4),
        (1, 18.0, True, 3),
        (2, 24.0, False, 4),
        (3, 5.0, True, 2),
    ]
]


@given(order=st.permutations(range(len(_ROSTER))))
@settings(max_examples=10, deadline=None)
def test_lane_order_is_an_implementation_detail(order):
    scenarios = [_ROSTER[i] for i in order]
    batched = run_batched(scenarios, DigitalTwin(_WIDE))
    for scenario, outcome in zip(scenarios, batched):
        assert_bitidentical(
            outcome,
            _serial_reference(_WIDE, scenario),
            label=f"perm {tuple(order)}: {scenario.name}",
        )


@given(
    narrow_seeds=st.lists(
        st.integers(0, 3), min_size=1, max_size=3, unique=True
    ),
    wide_seed=st.integers(0, 3),
)
@settings(max_examples=8, deadline=None)
def test_padded_lanes_never_perturb_live_lanes(narrow_seeds, wide_seed):
    """A wide lane batched with narrow (padded) companions — and the
    narrow lanes themselves — equal their solo serial runs exactly."""
    lanes = [(_WIDE, _scenario(_WIDE, wide_seed, 15.0, True, 3))] + [
        (_NARROW, _scenario(_NARROW, seed, 15.0, True, 3))
        for seed in narrow_seeds
    ]
    twins = [DigitalTwin(spec) for spec, _ in lanes]
    scenarios = [scenario for _, scenario in lanes]
    batched = run_batched(scenarios, twins=twins)
    for (spec, scenario), outcome in zip(lanes, batched):
        assert_bitidentical(
            outcome,
            _serial_reference(spec, scenario),
            label=f"padded batch: {scenario.name}",
        )


@given(
    steps=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    coupled=st.lists(st.booleans(), min_size=3, max_size=3),
    seed=st.integers(0, 1_000_000),
)
@settings(max_examples=5, deadline=None)
def test_plant_graphs_sync_at_run_end(steps, coupled, seed):
    """Lane state lives in the batched kernel during the run; at its
    end every lane's steps, and every coupled lane's FMU state and
    plant graph, equal the solo serial run's, whatever the lane lengths
    and companions."""
    scenarios = [
        _scenario(_WIDE, seed + i, 18.0, coupled[i], n)
        for i, n in enumerate(steps)
    ]
    twin = DigitalTwin(_WIDE)
    assert_lanes_match_solo(batched_lanes(scenarios, twin), twin)
