"""Machine-speed reference: a fixed kernel timed all through a run.

The benchmark runs on a few vCPUs of a shared host.  Other tenants of that
host change how fast this process runs, by up to 2x, in stretches from under
a second to several minutes, with wall time equal to CPU time.  A raw wall
time therefore measures the host as much as the program.

:class:`Sampler` times :func:`kernel` every ``INTERVAL_S`` seconds of wall
time from a ``SIGALRM`` handler, so the samples fall evenly across whatever
the main thread is running, long operations included.  The kernel is the
same kind of work as the library's inner loop (small complex NumPy matrix
products, a 4x4 solve and scalar step control in Python) but uses no code
of ``zndevans``, so a change to the library cannot move it.  Dividing a
pass's wall time by the mean kernel time over that pass removes most of the
host's slowdown; multiplying by ``NOMINAL_S`` expresses the result in
seconds at a fixed reference speed.

The time spent in the handler is tallied in :attr:`Sampler.spent`, so that
callers can take it out of the durations they measure.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Kernel duration that defines the reference speed: normalised seconds are
# wall seconds on a machine where one kernel call takes this long (about the
# kernel's mean duration on a shared 2-vCPU 2.0 GHz Xeon virtual machine).
# Fixed for good, so normalised figures of different commits compare.
NOMINAL_S = 2.0e-3
INTERVAL_S = 0.05  # wall time between samples; the kernel takes a few percent of it
STEPS = 60

_A = (np.arange(16).reshape(4, 4) % 5 + 6.0 * np.eye(4)).astype(complex) * (1 + 0.3j)
_EYE = np.eye(4)


def kernel() -> np.ndarray:
    """A fixed explicit integration of a 4x4 complex linear system."""
    y = np.ones(4, complex)
    h = 1e-3
    for i in range(STEPS):
        k1 = _A @ y
        k2 = _A @ (y + 0.5 * h * k1)
        k3 = np.linalg.solve(_A + i * 1e-3 * _EYE, k2)
        err = float(np.max(np.abs(k1 - k2)))
        y = y + h * (k1 + 2.0 * k2 + k3) / 4.0
        if err > 1e9:  # never true: keeps the branch of a step controller
            h *= 0.5
    return y


class Sampler:
    """Times :func:`kernel` on a wall-clock timer while entered."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in kernel calls, handler included
        self._busy = False
        self._previous = None

    def take(self) -> None:
        """Time one kernel call now (skipped if one is already running)."""
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            dur = time.perf_counter() - t0
        finally:
            self._busy = False
        self.samples.append(dur)
        self.spent += dur

    def _handler(self, signum, frame) -> None:
        self.take()

    def __enter__(self) -> "Sampler":
        kernel()  # first call pays NumPy's lazy set-up; not a sample
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
