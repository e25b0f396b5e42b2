"""Host-speed probes taken around and inside timed regions.

On a shared host the speed of one CPU flips between a fast and a slow
state (about 1.8x apart) many times a second, and CPU time drifts with
wall time.  A fixed loop of Fraction arithmetic and dict updates, shaped
like hlya's inner loops, drifts the same way.  The probe runs right before
and right after every timed region and, from SIGALRM, every ``INTERVAL_S``
inside one; its cost is taken out of the region's time.  A region's time is
scaled by the mean speed those probes saw (the harmonic mean of their
times) and reported at the probe's reference time, ``REFERENCE_S``.
Probing every 50 ms and using only the region's own probes, repeated
in-process ops spread 2-4% (IQR over median) where the median of a +-2 s
window of probes taken every 0.5 s left them spread 10-26%.  A cli op is
a child process whose start-up the loop does not track, so a second probe
times the start of a bare interpreter between cli ops (see
:func:`calibrated_process`).
"""

import signal
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.0025
SPAWN_REFERENCE_S = 0.05
# Interpreter start plus the stdlib modules hlya imports, and no hlya.
SPAWN_PROBE = "import argparse, dataclasses, fractions, functools, itertools, json"
INTERVAL_S = 0.05
_XS = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(64)]


def probe() -> float:
    """CPU seconds this thread spends on the fixed loop (about 2.5 ms)."""
    t = time.thread_time()
    acc: dict = {}
    for r in range(12):
        for i, x in enumerate(_XS):
            k = (i * 7 + r) % 31
            acc[k] = acc.get(k, 0) + x * _XS[(i + r) % 64]
    return time.thread_time() - t


def spawn_probe() -> float:
    """Wall seconds to start a child interpreter that runs SPAWN_PROBE."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_PROBE], check=True)
    return time.perf_counter() - t


def harmonic_mean(times: list) -> float:
    """The probe time at the mean speed of the given probes."""
    return len(times) / sum(1 / t for t in times)


class Sampler:
    """Times regions one at a time, probing before, inside and after each."""

    def __init__(self):
        self._probes: list = []
        self._probing_s = 0.0  # wall seconds of every probe so far
        self._spent = 0.0
        self._started = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _take(self) -> float:
        """Probe now; returns the wall seconds it took."""
        t = time.perf_counter()
        self._probes.append(probe())
        t = time.perf_counter() - t
        self._probing_s += t
        return t

    def clock(self) -> float:
        """Wall seconds less the time spent probing: a clock for spans."""
        return time.perf_counter() - self._probing_s

    def _tick(self, signum, frame):
        self._spent += self._take()

    def start(self) -> None:
        self._probes = []
        self._take()
        self._spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._started = time.perf_counter()

    def stop(self) -> tuple:
        """(seconds less probe time, probe seconds at the region's speed)."""
        elapsed = time.perf_counter() - self._started
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._take()
        return elapsed - self._spent, harmonic_mean(self._probes)

    def measure(self, fn) -> tuple:
        """(fn(), seconds less probe time, probe seconds)."""
        self.start()
        try:
            result = fn()
        finally:
            timing = self.stop()
        return (result, *timing)


def calibrated(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_S / probe_s


def calibrated_process(seconds: float, probe_s: float, spawn_s: float) -> float:
    """A child process's time: its first spawn_s seconds (interpreter start,
    which the loop probe does not track) scale with the spawn probe, the
    rest with the loop probe."""
    start = min(seconds, spawn_s)
    return start * SPAWN_REFERENCE_S / spawn_s + (seconds - start) * REFERENCE_S / probe_s
