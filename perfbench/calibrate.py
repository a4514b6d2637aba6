"""The host's speed, measured with a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed for
interpreter-bound code changes by up to 1.7x from one process to the
next and from one minute to the next.  The library's solves, its
scheduling and its serving are all interpreter-bound: a loop of Python
statements around small numpy calls.  So is :func:`reference_work`, a
level-by-level triangular sweep written here, which never changes with
the library.  Its time, sampled throughout a run, gives the run's
*stretch*: how much slower than nominal the host runs just now.
Dividing a measured time by the stretch gives it in *reference seconds*
(the seconds the same run would take on a host that runs
:func:`reference_work` in exactly ``NOMINAL_S``), and multiplying an
offered rate's arrival times by the stretch keeps the offered load fixed
in reference seconds.  A faster library still reads faster: the
reference measures the host, never the program.

Over six processes on a 2-vCPU host, ``solve-deep``'s closed-loop round
over this kernel's time stayed within 17.1-19.0 while each alone ranged
over 1.55x; GrowLocal's scheduling time over it within 217-246.  A
breadth-first walk over Python dicts, tried as a second part of the
kernel, tracked both less well and was dropped.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The reference kernel's seconds on the nominal host, by definition of
#: the reference second (about its time on a 2.1 GHz Xeon 6238T vCPU
#: when that host runs fast).
NOMINAL_S = 0.002

_LEVELS = 400
_WIDTH = 48
_FAN_IN = 4


class _Kernel:
    """A fixed level-by-level triangular sweep: many small numpy calls
    on slices, the shape of the library's hot code."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240601)
        self.n = _LEVELS * _WIDTH
        self.cols = [
            rng.integers(0, max(level * _WIDTH, 1), (_WIDTH, _FAN_IN))
            for level in range(_LEVELS)
        ]
        self.vals = [rng.uniform(-0.1, 0.1, (_WIDTH, _FAN_IN))
                     for _ in range(_LEVELS)]
        self.b = rng.standard_normal(self.n)

    def run(self) -> float:
        x = np.zeros(self.n)
        b = self.b
        for level in range(_LEVELS):
            lo = level * _WIDTH
            rows = slice(lo, lo + _WIDTH)
            sums = (self.vals[level] * x[self.cols[level]]).sum(axis=1)
            x[rows] = (b[rows] - sums) / 2.0
        return float(x[-1])


_KERNEL: _Kernel | None = None


def reference_work() -> float:
    """One run of the reference kernel; returns its seconds."""
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _Kernel()
        _KERNEL.run()
    t0 = time.perf_counter()
    _KERNEL.run()
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-kernel samples taken through a run, between timed work.

    Measured times are divided by the *local* stretch, the median of the
    samples taken next to them, because the host's speed drifts within
    a run as well as between runs."""

    #: Samples in a local median.
    WINDOW = 5

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> float:
        """Time the reference kernel ``n`` times; returns the local
        stretch after them."""
        for _ in range(n):
            self.samples.append(reference_work())
        return self.local()

    def local(self, n: int = WINDOW) -> float:
        """Median of the last ``n`` samples over ``NOMINAL_S``: above 1
        while the host runs slower than nominal."""
        return statistics.median(self.samples[-n:]) / NOMINAL_S

    @property
    def stretch(self) -> float:
        """The whole run's median stretch."""
        return statistics.median(self.samples) / NOMINAL_S
