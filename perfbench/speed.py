"""Speed calibration: what a pass would take at a fixed machine speed.

The benchmark runs on a few cores of a shared host. Other tenants slow
those cores by up to a half, in phases that last from seconds to minutes,
and the slowdown hits CPU time as much as wall time, so no amount of
repetition within one run averages it out. To keep such phases out of the
figures, a fixed calibration mix is timed at operation boundaries while a
pass runs: a pure-Python loop, small-array numpy arithmetic, a sort and a
k-d tree query, the kinds of work delaykit does. Its time over its
reference time (``REFERENCE_S``, the mix's median on the 2-core machine the
baseline was measured on) is the machine's slowdown at that moment. Each
stretch of a pass between two samples is divided by the mean slowdown of
the samples at its two ends; the sum is the pass's calibrated time, in
seconds at the reference speed. Sampling time is left out of both the raw
and the calibrated time.

Workload code calls ``boundary()`` after every operation; it does nothing
unless a ``Meter`` is running.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

# A speed sample is taken at most this often, so sampling costs a few
# percent of a pass.
SAMPLE_EVERY_S = 0.1

_rng = np.random.default_rng(20240607)
_SMALL_A = _rng.standard_normal(22)
_SMALL_B = _rng.standard_normal(22)
_SORT = _rng.standard_normal(100_000)
_SORT_BUF = np.empty_like(_SORT)
_CLOUD = _rng.standard_normal((1_000, 2))


def _python_loop():
    s = 0
    for i in range(20_000):
        s += i * i
    return s


def _small_arrays():
    a = _SMALL_A
    for _ in range(300):
        a = np.tanh(a * 0.5 + _SMALL_B)
    return a


def _sort():
    # in place: a fresh 800 kB result would be a new mapping, and its page
    # faults made this kernel the noisiest of the four
    _SORT_BUF[:] = _SORT
    _SORT_BUF.sort()
    return _SORT_BUF


def _tree_query():
    return cKDTree(_CLOUD).query(_CLOUD, k=4)


KERNELS = (_python_loop, _small_arrays, _sort, _tree_query)
# Median seconds of each kernel on the reference machine (2 cores of a
# shared x86-64 VM, Python 3.11, numpy 2.4, scipy 1.17).
REFERENCE_S = (1.56e-3, 0.87e-3, 0.90e-3, 1.59e-3)


def slowdown() -> float:
    """The machine's current time per unit of work relative to the
    reference: the mean over the kernels of their time over their
    reference time."""
    ratios = []
    for kernel, ref in zip(KERNELS, REFERENCE_S):
        t0 = time.perf_counter()
        kernel()
        ratios.append((time.perf_counter() - t0) / ref)
    return statistics.fmean(ratios)


_active: Meter | None = None


def boundary() -> None:
    """Mark the end of one operation of the running pass, if any."""
    if _active is not None:
        _active.boundary()


class Meter:
    """Raw and calibrated time of the code run inside ``with meter:``.

    ``wall`` is the elapsed time without the speed samples; ``calibrated``
    is the same time with each stretch between two samples divided by
    their mean slowdown; ``sampling`` is the time the samples took.
    """

    def __init__(self, sample=slowdown, clock=time.perf_counter,
                 every_s: float = SAMPLE_EVERY_S):
        self._sample = sample
        self._clock = clock
        self._every = every_s

    def __enter__(self) -> Meter:
        global _active
        self.wall = self.calibrated = self.sampling = 0.0
        self._last = self._take()
        self._mark = self._clock()
        _active = self
        return self

    def __exit__(self, *exc) -> None:
        global _active
        _active = None
        self.boundary(force=True)

    def boundary(self, force: bool = False) -> None:
        now = self._clock()
        if not force and now - self._mark < self._every:
            return
        stretch = now - self._mark
        speed = self._take()
        self.wall += stretch
        self.calibrated += stretch / ((self._last + speed) / 2)
        self._last = speed
        self._mark = self._clock()

    def _take(self) -> float:
        t0 = self._clock()
        speed = self._sample()
        self.sampling += self._clock() - t0
        return speed
