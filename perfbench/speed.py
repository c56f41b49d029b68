"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the CPU's speed drifts by tens of percent
over minutes, and the drift is not steal time: process CPU time moves
exactly as wall time does.  A run therefore times a fixed reference
kernel (a pure-Python integer loop that touches no program code and
allocates nothing the garbage collector tracks) between its operations,
and reports every timing at the reference speed::

    factor = (REFERENCE_S / median(nearby kernel times)) ** ELASTICITY
    reported = measured * factor

where "nearby" is the kernel runs around the same operation in a closed
loop, and the whole phase (set-up, or the open loop of ``serve_mixed``)
otherwise.

The kernel stays in the CPU's caches; the analysis does not, and it
slows down more than the kernel does.  Re-analysing the same 20 apps in
one process for 150-200 s, three times, the log of the analysis time
moved with the log of the kernel time at a slope of 1.37-1.45
(correlation 0.95-0.97), hence ``ELASTICITY``.

A change to the program moves its own timings and leaves the kernel's
alone, so it still shows; a machine running 20% slow for the length of a
run no longer does.  Each run prints its median factors beside its
metrics.
"""

from __future__ import annotations

import statistics
import time

#: Loop iterations of one kernel run (about 15 ms on a 2-vCPU VM).
KERNEL_ITERATIONS = 200_000

#: Seconds one kernel run is taken to last at the reference speed.
REFERENCE_S = 0.015

#: How much more than the kernel the program's timings move with the
#: machine's speed (the exponent of the correction; see above).
ELASTICITY = 1.4


def reference_factor(kernel_s: float) -> float:
    """Reference seconds per measured second, given a kernel time."""
    return (REFERENCE_S / kernel_s) ** ELASTICITY


def kernel_seconds() -> float:
    """Time one run of the reference kernel."""
    started = time.perf_counter()
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i * i
    return time.perf_counter() - started


class Speed:
    """Kernel timings collected over one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        """Time the kernel ``times`` times."""
        for _ in range(times):
            self.samples.append(kernel_seconds())

    def factor_at(self, index: int) -> float:
        """The factor for operation ``index`` of a loop that samples the
        kernel once before its first operation and once after each:
        from the samples just before and just after the operation and the
        one before that, so a burst of slowness is corrected where it
        happened."""
        window = self.samples[max(0, index - 1):index + 2]
        return reference_factor(statistics.median(window))

    def factor(self) -> float:
        """Reference seconds per measured second over this run."""
        if not self.samples:
            raise RuntimeError("no kernel samples taken")
        return reference_factor(statistics.median(self.samples))
