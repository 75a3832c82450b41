"""Machine-speed calibration.

On a shared host the same code runs up to 1.6x slower for stretches of
a second to minutes.  A fixed kernel that executes no dhsieve code is
timed while each trial runs (by `Sampler`, every PERIOD_S seconds) and
after it; the median of those times says how fast the machine ran
during that trial.  Every time the benchmark reports is a *reference
time*: the measured seconds scaled to a machine on which the kernel
takes REF_S seconds,

    reference s = measured s * REF_S / kernel s.

A change to dhsieve cannot move the kernel, so it moves only the
measured seconds.  Raw seconds and kernel times are kept in the run
record next to each scaled figure.
"""

import signal
import time

import numpy as np

REF_S = 0.002   # the kernel's median on a quiet 2-vCPU Xeon (KVM) host
PERIOD_S = 0.25

_LABELS = np.random.default_rng(0).integers(0, 1 << 40, size=4096)
_MATRIX = np.random.default_rng(1).random((32, 32))


def _kernel():
    # interpreter work (int arithmetic, dict stores) plus a little numpy,
    # the same mix as the library's hot loops
    acc, table = 0, {}
    for i in range(6000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
    np.sort(_LABELS)
    float((_MATRIX @ _MATRIX).sum())


def calibrate():
    """Seconds the kernel takes now (median of three runs)."""
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - t0)
    return sorted(runs)[1]


def scaled(seconds, kernel_s):
    """Measured seconds as reference seconds."""
    return seconds * REF_S / kernel_s


class Sampler:
    """While active, times one kernel run every PERIOD_S seconds from a
    SIGALRM handler, so that a long trial is calibrated from inside its
    own span.  The handler runs between bytecodes of the main thread and
    touches no generator; `spent` is its total time, which the caller
    subtracts from what it measures."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
