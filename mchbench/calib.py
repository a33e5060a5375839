"""Reference-speed calibration.

The shared 2-vCPU hosts this benchmark runs on change speed by up to 2x
within a fraction of a second (see NOTES.md), so raw wall times of
identical work spread far more than any bound worth setting.  Every timing
is therefore reported at reference speed::

    t_ref = (wall - sampling time) * C_REF / c_now

``c_now`` is the mean time of :func:`spin` -- a fixed mix of integer
arithmetic, dict updates and small-object allocation, the kinds of work the
program's Python loops do -- sampled every :data:`INTERVAL` seconds
*during* the timed region, on the CPU the work runs on.  Readings taken
only right before and after an op were tried first: speed changes faster
than an op lasts, and they left the spread as wide as the raw one.
``C_REF`` is a fixed spin time, about this loop's time on the 2-vCPU host
the benchmark was defined on, so that reference-speed numbers stay
comparable across runs and commits.  Nothing here imports the program.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import time
from typing import Dict, List

#: seconds one :func:`spin` takes at reference speed
C_REF = 0.00020

#: seconds between samples
INTERVAL = 0.01

#: samples that calibrate one timed region (widened to the nearest ones):
#: a 0.2 s window, because fewer samples made short ops noisier than raw
MIN_SAMPLES = 20


class _Cell:
    __slots__ = ("key", "val", "next")

    def __init__(self, key, val, nxt):
        self.key = key
        self.val = val
        self.next = nxt


def spin(n: int = 250) -> int:
    """The calibration loop: ints, a dict and short-lived objects."""
    table = {}
    head = None
    acc = 1
    for i in range(n):
        k = (i * 2654435761) & 0xFFFF
        head = _Cell(k, acc, head if i & 7 else None)
        table[k] = head
        acc = (acc * 33 + k) & 0xFFFFFFFF
        if i & 3 == 0:
            acc ^= table[k].val >> 3
    return acc


class Series:
    """Speed samples over time: ``stamps`` (sample start, perf_counter)
    and ``spins`` (sample duration); calibrates timed regions."""

    def __init__(self, stamps=None, spins=None):
        self.stamps: List[float] = list(stamps or [])
        self.spins: List[float] = list(spins or [])

    def _window(self, t0: float, t1: float):
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.stamps)):
            before = t0 - self.stamps[lo - 1] if lo > 0 else float("inf")
            after = self.stamps[hi] - t1 if hi < len(self.stamps) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return lo, hi

    def c_now(self, t0: float, t1: float) -> float:
        """Mean spin time over ``[t0, t1]`` (at least MIN_SAMPLES samples)."""
        lo, hi = self._window(t0, t1)
        return sum(self.spins[lo:hi]) / (hi - lo)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds of sampling inside ``[t0, t1]``."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        return sum(self.spins[lo:hi])

    def to_ref(self, t0: float, t1: float) -> float:
        """The region ``[t0, t1]`` at reference speed.  The sampler ran on
        the same CPU as the timed work, so its own time is taken out."""
        wall = t1 - t0 - self.spent(t0, t1)
        return wall * C_REF / self.c_now(t0, t1)

    def readings(self) -> List[list]:
        return [[s, d] for s, d in zip(self.stamps, self.spins)]


class Sampler(Series):
    """Samples the speed of the CPU this process's main thread runs on,
    from a ``SIGALRM`` timer, for work done in that thread.

    The handler runs between bytecodes; it times one :func:`spin` with the
    cyclic garbage collector off (a collection would walk whatever the
    program left on the heap and make the reading track heap size instead
    of host speed).  Interval timers are not inherited across ``fork``.
    """

    def __init__(self):
        super().__init__()
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        spin()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.stamps.append(t0)
        self.spins.append(t1 - t0)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._sample(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._previous)


def sample_cpu(cpu: int) -> None:
    """Body of a :class:`CpuSamplers` process: sample ``cpu`` until
    standard input closes, then print the samples as JSON."""
    import json
    import select
    import sys

    os.sched_setaffinity(0, {cpu})
    gc.disable()
    for _ in range(50):                 # a fresh process spins slower at first
        spin()
    print("ready", flush=True)
    stamps, spins = [], []
    while not select.select([sys.stdin], [], [], 0)[0]:
        t0 = time.perf_counter()
        spin()
        stamps.append(t0)
        spins.append(time.perf_counter() - t0)
        time.sleep(INTERVAL)
    json.dump([stamps, spins], sys.stdout)


class CpuSamplers:
    """One sampling process pinned to each CPU, for work that runs in
    other processes: pin each worker to a CPU and calibrate its ops with
    that CPU's :class:`Series`.  The CPUs of a shared host change speed
    independently (their 100 ms speed averages correlate at only ~0.5),
    so a sampler on another CPU misses half of what a worker sees."""

    def __init__(self, cpus):
        self.cpus = list(cpus)
        self._procs = []
        self.series: Dict[int, Series] = {}

    def __enter__(self) -> "CpuSamplers":
        import subprocess
        import sys

        for cpu in self.cpus:
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            self._procs.append((cpu, proc))
        for _cpu, proc in self._procs:
            proc.stdout.readline()      # sampling has started
        return self

    def __exit__(self, *exc) -> None:
        import json

        for cpu, proc in self._procs:
            out, _ = proc.communicate(timeout=30)
            self.series[cpu] = Series(*json.loads(out)) if out else Series()
        self._procs = []


if __name__ == "__main__":
    import sys

    sample_cpu(int(sys.argv[1]))
