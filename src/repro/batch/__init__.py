"""Batched multi-scenario execution: B scenario instances per NumPy call.

The plant kernel (:mod:`repro.batch.kernel`) holds each plant's CDU
bank as one row of arrays with a leading batch axis, and its facility
half (primary and tower loops) beside it — a per-lane record of Python
floats in a narrow kernel, ``(B,)`` arrays from
:data:`~repro.batch.kernel.STACKED_MIN_LANES` lanes — with every plant
constant held once, so *B* independent scenarios of one system advance
together.  The
contract is **bit-identity** per lane against the serial engine and the
reference plant — batching is an overhead eliminator, never a
different model.

Layout: :class:`~repro.batch.kernel.BatchedPlantKernel` is the one plant
kernel.  A plant stepped on its own is its one-lane case, and the
engines hold their coupled lanes' state in its batch rows for the whole
run.  :class:`~repro.batch.power.BatchedPowerModel` evaluates the power
pipeline for the changed subset of lanes per macro step, and
:class:`~repro.batch.engine.BatchedEngine` runs whole scenarios
lane-parallel (scheduling stays per-run Python, the array math is
shared, and lanes that differ only in weather share one electrical
run).  A batch is one system: every lane runs on the twin's spec, so
lane rows share one width and need no padding.
"""

from repro.batch.engine import BatchedEngine, run_batched

__all__ = ["BatchedEngine", "run_batched"]
