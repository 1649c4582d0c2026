"""Host-speed calibration: a fixed pure-Python kernel timed beside the
simulator, so that host time can be reported at one reference speed.

On a shared virtual machine the host's speed drifts by up to about 2x
over minutes (other tenants' load, not the program), and Python code
slows down with it: a run's host time read in a slow phase and in a fast
one differ by far more than any bound.  The benchmark therefore times
:func:`kernel` between simulated points and scales each pass's host time
by how slowly the kernel ran during it::

    reference seconds = host seconds * REFERENCE_S / kernel seconds

The kernel is code of the benchmark's own, never of the simulator, so a
change to the simulator moves the simulator's host time and leaves the
kernel's alone.  It is an interpreter-bound loop.  Of three kernels
timed beside the simulator's points for twelve minutes across host
phases (this loop, a small discrete-event loop of generators on a heap,
and a lock table of dataclass declarations), it tracked the simulator
best: the simulator's windowed host time went as the loop's time to the
power 0.82-0.96, against 0.63-0.82 for the other two, which therefore
over-corrected.  ``REFERENCE_S`` only names the unit: it is about the
loop's time on a 2-vCPU Xeon VM with Python 3.11 in a fast phase.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Kernel seconds on the reference host: the unit of every calibrated time.
REFERENCE_S = 0.025

#: Iterations of the kernel loop, and the sum they must give.
KERNEL_STEPS = 300_000
KERNEL_SUM = 599_998


def kernel() -> int:
    """Bytecode dispatch and small-integer arithmetic, nothing else."""
    total = 0
    for i in range(KERNEL_STEPS):
        total += i * i % 7
    return total


def sample() -> float:
    """Host seconds of one kernel run."""
    start = time.perf_counter()
    total = kernel()
    seconds = time.perf_counter() - start
    if total != KERNEL_SUM:
        raise RuntimeError(f"calibration kernel summed to {total}, not "
                           f"{KERNEL_SUM}")
    return seconds


def slowdown(samples: List[float]) -> float:
    """How much slower than the reference host the kernel ran: the
    median of ``samples`` (a single kernel run can catch an interrupt)
    over ``REFERENCE_S``."""
    return statistics.median(samples) / REFERENCE_S
