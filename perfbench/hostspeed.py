"""Host-speed adjustment of measured times.

The benchmark's reference machine is a shared VM whose vCPU speed changes
by up to half, in stretches of seconds to minutes, with CPU time equal to
wall time and no steal time to see from inside.  A wall-clock median over
one run then depends on how much of the run fell in a slow stretch.

``SpeedMeter`` samples the speed during every timed interval: a timer
signal runs a fixed probe every ``INTERVAL_S``, and one probe
runs at each end of the interval.  ``end`` returns the interval's wall time
without the probes' own time, and the factor ``NOMINAL_PROBE_S / mean
probe time`` that scales it to the time it would take at the speed where
one probe takes ``NOMINAL_PROBE_S``.  See README.md, "Host-speed
adjustment".
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
PROBE_LOOPS = 2000  # Python arithmetic
PROBE_SMALL_CALLS = 15  # numpy calls on 3 x 3 arrays
PROBE_FACTORS = 4  # LAPACK Cholesky factorizations of PROBE_ORDER x PROBE_ORDER
PROBE_ORDER = 60
NOMINAL_PROBE_S = 450e-6  # about the probe's time when the reference VM runs fast


def make_probe():
    """A function that returns the seconds it took for a fixed amount of work.

    The work mixes what the workloads do: interpreted Python, many small
    numpy calls and BLAS/LAPACK.  On the reference VM each of the three
    alone followed the ops' slowdowns less closely than the mix did.
    numpy is imported here, after the caller has pinned the BLAS threads.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    factor = rng.standard_normal((PROBE_ORDER, PROBE_ORDER))
    spd = factor @ factor.T + PROBE_ORDER * np.eye(PROBE_ORDER)
    small = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 3.0]])
    eye = np.eye(3)

    def probe() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        for _ in range(PROBE_SMALL_CALLS):
            np.linalg.eigvalsh(small @ small.T + 0.1 * eye)
        for _ in range(PROBE_FACTORS):
            np.linalg.cholesky(spd)
        return time.perf_counter() - start

    return probe


class SpeedMeter:
    """Measures the host's speed while it runs; ``begin``/``end`` time intervals.

    The timer runs from construction to ``stop``.  Intervals may nest: each
    is the difference of running totals.  ``begin`` and ``end`` hold the
    timer signal back, so that no probe falls between the clock reading and
    the totals read with it.
    """

    def __init__(self):
        self._probe = make_probe()
        self._probe_sum = 0.0  # seconds measured by all probes
        self._probes = 0
        self._spent = 0.0  # seconds spent in probes, their bookkeeping included
        signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart system calls in C code
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        self._probe_sum += self._probe()
        self._probes += 1
        self._spent += time.perf_counter() - start

    def _totals(self) -> tuple[float, float, float, int]:
        return time.perf_counter(), self._spent, self._probe_sum, self._probes

    def begin(self) -> tuple:
        """Start an interval with a probe of its own; pass the token to ``end``."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            token = self._totals()
            self._sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return token

    def end(self, token) -> tuple[float, float, float]:
        """(wall seconds, seconds without probes, factor to nominal speed) since ``begin``."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._sample()
            now = self._totals()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        wall, spent, probe_sum, probes = (a - b for a, b in zip(now, token))
        return wall, wall - spent, NOMINAL_PROBE_S * probes / probe_sum
