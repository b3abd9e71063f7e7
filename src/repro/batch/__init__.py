"""Batched multi-scenario execution: B scenario instances per NumPy call.

The fused cooling kernel (:mod:`repro.cooling.kernel`) flattened one
plant's state into flat arrays; this package gives those arrays a
leading batch axis so *B* independent scenarios advance together.  The
contract is the same one the fused kernel established: **bit-identity**
per lane against the serial engine — batching is an overhead
eliminator, never a different model.

Layout: :class:`~repro.batch.kernel.BatchedPlantKernel` holds B
cooling plants' state in its batch rows for the whole run and advances
them per substep call, :class:`~repro.batch.power.BatchedPowerModel`
evaluates the power pipeline for the changed subset of lanes per macro
step, and :class:`~repro.batch.engine.BatchedEngine` runs whole
scenarios lane-parallel (scheduling stays per-lane Python, the array
math is shared).  Heterogeneous scenarios are lane-aligned by padding
to the max node/CDU count with inert lanes; reductions always slice
the real prefix, so padding never perturbs live lanes.
"""

from repro.batch.engine import BatchedEngine, run_batched

__all__ = ["BatchedEngine", "run_batched"]
