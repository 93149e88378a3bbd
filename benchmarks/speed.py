"""Host speed reference: times are reported at a fixed reference speed.

The benchmark runs on a shared host whose speed drifts by tens of percent
within a minute, for pure-Python and BLAS work alike.  A fixed piece of
reference work that does not touch lrc (small numpy calls plus 32x32 and
128x128 complex matrix products, about 1.2 ms) is therefore timed beside
the program: once before and once after each timed interval, and every
``INTERVAL_CPU_S`` of process CPU time while a ``Sampler`` is active (from a
SIGPROF handler, so inside a pass too).

Each sample gives a speed factor, ``REFERENCE_S`` over the sample's time.
The host switches between fast and slow states every few milliseconds and
drifts over seconds, so one sample says little about the moment it was
taken, but the samples are spread evenly over a pass's CPU time and their
mean is the pass's mean speed.  A pass's own time (reference work left out)
is multiplied by that mean; an instance latency by the mean of the samples
taken during it, or, for an instance too short to hold ``OWN_SAMPLES`` of
them, within ``SMOOTH_S`` around it.  The result is the time the work would take
on a host where the reference work takes ``REFERENCE_S`` (its median on a
2-vCPU Intel Xeon VM with numpy 2 and OpenBLAS pinned to one thread).  The
reference work is the same on every commit, so a change to lrc moves the
reported time in full, while a slow minute of the host moves both and
cancels.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

#: Median time of ``reference_work`` on the reference host.
REFERENCE_S = 0.0012
#: Process CPU time between two reference samples inside a pass.
INTERVAL_CPU_S = 0.025
#: An instance long enough to hold this many samples is scaled by them ...
OWN_SAMPLES = 4
#: ... a shorter one by the samples in a window this wide around it.
SMOOTH_S = 1.0

_rng = np.random.default_rng(0)
_A8 = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_A32 = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))
_A128 = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))


def reference_work() -> None:
    """About 1.2 ms: half small numpy calls, half 32x32 and 128x128 products.

    Of several candidates timed beside the workloads, small numpy calls
    tracked the host's speed for lrc best, dense products next, and a
    pure-Python dict loop worst.
    """
    for _ in range(12):
        m = np.kron(_A8[:2, :2], _A8[:4, :4]) @ _A8
        m.conj().T
    for _ in range(16):
        _A32 @ _A32.conj().T
    _A128 @ _A128


class Sampler:
    """Reference samples taken beside the measured work.

    ``now()`` is a clock that leaves out the time spent on reference work,
    so intervals read from it hold only the program's own time; samples are
    stamped on that clock.
    """

    def __init__(self):
        self.stamps = []
        self.factors = []
        self.excluded = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.excluded += end - start
        self.stamps.append(end - self.excluded)
        self.factors.append(REFERENCE_S / (end - start))

    def now(self) -> float:
        # Read again if a sample ran between the two reads.
        while True:
            excluded = self.excluded
            t = time.perf_counter()
            if excluded == self.excluded:
                return t - excluded

    def _on_prof(self, signum, frame):
        self.sample()

    def measure(self, fn):
        """Run fn with reference samples before, during and after it.

        Returns fn's result and the index of the first of those samples.
        """
        first = len(self.factors)
        self.sample()
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_CPU_S, INTERVAL_CPU_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()
        return result, first

    def mean_factor(self, first: int = 0) -> float:
        """Mean speed factor of the samples from index ``first`` on."""
        taken = self.factors[first:]
        return sum(taken) / len(taken)

    def factor_during(self, begin: float, end: float) -> float:
        """Speed factor of the interval [begin, end] of the ``now()`` clock.

        The mean of the samples taken inside it when there are at least
        OWN_SAMPLES of them; otherwise the mean of the samples within
        SMOOTH_S around its midpoint, or the nearest sample if none is.
        """
        lo = bisect.bisect_left(self.stamps, begin)
        hi = bisect.bisect_right(self.stamps, end)
        if hi - lo < OWN_SAMPLES:
            mid = (begin + end) / 2
            lo = bisect.bisect_left(self.stamps, mid - SMOOTH_S / 2)
            hi = bisect.bisect_right(self.stamps, mid + SMOOTH_S / 2)
        if hi > lo:
            return sum(self.factors[lo:hi]) / (hi - lo)
        i = bisect.bisect_left(self.stamps, begin)
        if i == len(self.stamps) or (i > 0 and begin - self.stamps[i - 1] < self.stamps[i] - begin):
            i -= 1
        return self.factors[i]
