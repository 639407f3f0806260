"""Host-speed reference: a fixed kernel timed just before every measurement.

On a shared host the same code runs at speeds up to ~1.8x apart, in
phases of seconds to minutes (another tenant on the sibling hyperthread,
frequency changes); process CPU time swings with it, so it cannot tell a
slow host from slow code.  The benchmark therefore times this kernel,
which never changes with the library, just before each job and each
set-up step, and scales the step's time by ``NOMINAL_S / reference``:
the time the step would take on a host where the kernel takes
``NOMINAL_S``.  A change to the library moves the step's time and not
the kernel's, so it shows in full.

The kernel is interpreted Python: an arithmetic loop, then building and
probing a dict.  Timed next to the four workloads' jobs, it followed them
more closely than a numpy sort + ``unique`` or a cache-missing numpy
gather did, alone or mixed in, even for the numpy-heavy jobs: their time
goes mostly to the interpreter between small array calls.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, TypeVar

T = TypeVar("T")

#: reference time of the kernel that normalised times are expressed at
#: (about what it takes on a 2-vCPU Xeon VM with Python 3.11)
NOMINAL_S = 0.1

_LOOP = 400_000
_KEYS = range(0, 300_000, 3)


def _kernel() -> int:
    total = 0
    for i in range(_LOOP):
        total += i * i % 7
    table = {key: key for key in _KEYS}
    for key in _KEYS:
        total += table.get(key + 1, 0) + table[key]
    return total


def reference_seconds() -> float:
    """Time of one run of the reference kernel on this host, now."""
    gc.collect()  # no collection debt carried into the kernel or the step
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started


def normalise(seconds: float, reference: float) -> float:
    """``seconds`` measured just after a kernel run of ``reference``
    seconds, expressed at the nominal host speed."""
    return seconds * NOMINAL_S / reference


def timed(step: Callable[[], T]) -> tuple[T, float, float]:
    """Run ``step`` right after a reference run; return its result, its
    host seconds and the reference."""
    reference = reference_seconds()
    started = time.perf_counter()
    result = step()
    return result, time.perf_counter() - started, reference
