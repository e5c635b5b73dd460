"""Host-speed probe: samples how fast the host runs Python while a
repetition runs, so that its wall time can be put on a fixed scale.

The virtual machines this benchmark is run on change speed by up to 1.7x,
both in states that flip within a second and in slow periods of minutes,
and the guest cannot see it: process CPU time equals wall time.  A raw
wall time is then as much a reading of the host as of the program (see
bench/README.md, "Noise").

While a `Probe` runs, a timer signal every `period` seconds interrupts the
program between two bytecodes and times `kernel()`, a fixed pure-Python
loop of the program's kind of work (`Fraction` multiply-adds).  Of the
loops tried, it tracked the program's slowdowns best.  The probes see the host state
the program sees, on the same vCPU and at the same moments.  The
repetition's time on the reference host is

    (wall - time spent in probes) * mean(KERNEL_NOMINAL_S / probe time)

the mean of the host's relative speed over the repetition, sampled
uniformly in wall time.  KERNEL_NOMINAL_S is a fixed constant, about the
kernel's time in the fast state of the 2-vCPU machine the benchmark was
made on, so that a normalised time reads close to the fastest raw times
seen there.  It must never change between two commits that are compared;
the probe lives in the benchmark's files so that a change to the program
cannot move it.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

KERNEL_NOMINAL_S = 350e-6
_VALUES = [Fraction((i * 37) % 19 - 9 or 1, i % 9 + 1) for i in range(64)]


def kernel(n: int = 100) -> Fraction:
    """Exact rational multiply-adds, the program's own kind of work.  The
    collector is off meanwhile, so that no collection of the program's
    objects is charged to a probe."""
    enabled = gc.isenabled()
    gc.disable()
    acc = Fraction(0)
    for i in range(n):
        acc += _VALUES[i & 63] * _VALUES[(i * 7) & 63]
    if enabled:
        gc.enable()
    return acc


class Probe:
    """Times `kernel()` every `period` seconds between start() and stop()."""

    def __init__(self, period: float):
        self.period = period
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> dict:
        """Stop the timer; the probe times, with at least one sample."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # shorter than one period: probe once now
            self._tick(None, None)
            return {"probe_s": 0.0, "speed": KERNEL_NOMINAL_S / self.samples[0]}
        return {
            "probe_s": sum(self.samples),
            "speed": sum(KERNEL_NOMINAL_S / p for p in self.samples)
            / len(self.samples),
        }


def normalised(wall_s: float, probed: dict) -> float:
    """A probed wall time on the reference host's scale."""
    return (wall_s - probed["probe_s"]) * probed["speed"]
