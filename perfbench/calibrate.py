"""Host-speed calibration for the untraced measured phase.

The development host runs the same code at 1.0-2x its fastest time, in
phases lasting from milliseconds to minutes, so raw wall times of one commit
spread by 0.2-0.4 across runs.  ``Calibrator`` measures the host's speed
while the program runs and divides it out:

- ``install`` rebinds ``network.forward_batch`` and
  ``network.backward_batch`` in every graftcert module to a wrapper that,
  every ``CALIBRATE_EVERY_S`` seconds, first times ``kernel``: a fixed
  pure-Python loop that does not depend on graftcert.  Those two calls run
  all through every workload, so the samples cover each pass evenly.
- A pass's time leaves the kernel time out.  Its normalised time is that
  time x ``REFERENCE_KERNEL_S`` / the pass's median kernel time: seconds at
  the speed at which the kernel takes ``REFERENCE_KERNEL_S``.

``uninstall`` puts every original back.
"""

from __future__ import annotations

import array
import statistics
import time

import numpy as np

from spans import rebind, restore

# calls that run all through every workload's passes
CALIBRATED = {"network": ("forward_batch", "backward_batch")}
CALIBRATE_EVERY_S = 0.02
# the kernel's median seconds at the reference speed: roughly its median on
# the development host (2-vCPU Xeon, Python 3.11) in a quiet period
REFERENCE_KERNEL_S = 250e-6


def kernel() -> int:
    """Fixed pure-Python work whose time tracks the host's current speed."""
    s = 0
    for i in range(3000):
        s += (i * i) % 7
    return s


class Calibrator:
    def __init__(self):
        self.kernel_s = array.array("d")
        # per pass: seconds without kernel time, and reference / host speed
        self.pass_s: list[float] = []
        self.pass_speed: list[float | None] = []
        self._next = 0.0
        self._pass_start = 0.0
        self._pass_first = 0
        self._saved: list = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("calibrator already installed")
        self._saved = rebind(self._wrap, CALIBRATED)

    def uninstall(self) -> None:
        restore(self._saved)

    def _calibrate(self) -> None:
        t0 = time.perf_counter()
        if t0 >= self._next:
            kernel()
            t1 = time.perf_counter()
            self.kernel_s.append(t1 - t0)
            self._next = t1 + CALIBRATE_EVERY_S

    def _wrap(self, name: str, fn):
        calibrate = self._calibrate

        def wrapper(*args, **kwargs):
            calibrate()
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def begin_pass(self) -> None:
        self._pass_first = len(self.kernel_s)
        self._pass_start = time.perf_counter()

    def end_pass(self) -> None:
        ks = self.kernel_s[self._pass_first:]
        seconds = time.perf_counter() - self._pass_start - sum(ks)
        self.pass_s.append(seconds)
        self.pass_speed.append(
            REFERENCE_KERNEL_S / float(np.median(ks)) if ks else None
        )

    def slowdown(self) -> float:
        """Host slowdown over the whole run against the reference speed."""
        if not self.kernel_s:
            return 1.0
        return float(np.median(self.kernel_s)) / REFERENCE_KERNEL_S

    def normalised(self, values: list[float | None]) -> float | None:
        """Median over passes of a per-pass time (None where a pass has
        none) times that pass's speed; None when no pass has both."""
        norm = [v * sp for v, sp in zip(values, self.pass_speed) if v is not None and sp]
        return statistics.median(norm) if norm else None
