"""Staging state machines for pumps, cooling towers, and heat exchangers.

Paper section III-C5: HTWPs stage up/down on the relative speed of the
running pumps; CTWPs stage on header pressure in concert with speeds;
cooling towers stage on header pressure and the *gradient* of the HTW
supply temperature; EHXs stage on the number of CTs in operation.  The
cross-loop coupling is handled with a delay transfer function
(:class:`DelayedSignal`) as described in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CoolingModelError


class StagingController:
    """Hysteretic up/down staging with dwell times.

    Stages up one unit when the signal stays above ``hi`` for
    ``up_delay_s``; stages down when below ``lo`` for ``down_delay_s``.
    Signals are typically relative pump speeds (stage up when the running
    pumps near their speed ceiling) or header-pressure errors.
    """

    def __init__(
        self,
        *,
        n_min: int,
        n_max: int,
        hi: float,
        lo: float,
        up_delay_s: float = 120.0,
        down_delay_s: float = 600.0,
        n0: int | None = None,
    ) -> None:
        if n_min < 0 or n_max < n_min:
            raise CoolingModelError("invalid staging bounds")
        if lo >= hi:
            raise CoolingModelError("staging requires lo < hi")
        if up_delay_s < 0 or down_delay_s < 0:
            raise CoolingModelError("delays must be >= 0")
        self.n_min = int(n_min)
        self.n_max = int(n_max)
        self.hi = float(hi)
        self.lo = float(lo)
        self.up_delay_s = float(up_delay_s)
        self.down_delay_s = float(down_delay_s)
        self.count = int(n0) if n0 is not None else n_min
        if not self.n_min <= self.count <= self.n_max:
            raise CoolingModelError("n0 outside staging bounds")
        self._above_s = 0.0
        self._below_s = 0.0

    def update(self, signal: float, dt: float) -> int:
        """Advance the dwell timers and return the staged unit count."""
        if dt <= 0:
            raise CoolingModelError("dt must be positive")
        if signal > self.hi:
            self._above_s += dt
            self._below_s = 0.0
        elif signal < self.lo:
            self._below_s += dt
            self._above_s = 0.0
        else:
            self._above_s = 0.0
            self._below_s = 0.0
        if self._above_s >= self.up_delay_s and self.count < self.n_max:
            self.count += 1
            self._above_s = 0.0
        elif self._below_s >= self.down_delay_s and self.count > self.n_min:
            self.count -= 1
            self._below_s = 0.0
        return self.count


class DelayedSignal:
    """First-order lag: the paper's delay transfer function between loops.

    The primary loop's staging decisions see a lagged view of the tower
    loop's state (and vice versa); this models that coupling as
    ``y' = (u - y)/tau`` discretized exactly.
    """

    def __init__(self, tau_s: float, y0: float = 0.0) -> None:
        if tau_s <= 0:
            raise CoolingModelError("tau must be positive")
        self.tau_s = float(tau_s)
        self.y = float(y0)

    def update(self, u: float, dt: float) -> float:
        """Advance the lag by ``dt`` toward input ``u``."""
        if dt <= 0:
            raise CoolingModelError("dt must be positive")
        # float(): y stays a Python float (the fused kernel's type).
        alpha = 1.0 - float(np.exp(-dt / self.tau_s))
        self.y += alpha * (u - self.y)
        return self.y


__all__ = ["StagingController", "DelayedSignal"]
