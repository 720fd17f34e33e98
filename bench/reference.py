"""A fixed reference computation that gauges the machine's speed during a run.

Other load on a shared host slows everything a run times, in bursts of a
fraction of a second and in stretches of minutes, and a run's median cannot
remove a stretch that covers the whole run.  So while a pass runs, a
`Sampler` interrupts it every PERIOD_S seconds and times a short slice of
this computation, and `run.py` scales the pass's time by how fast the
slices ran (see `run.scaled_pass_time`).  Slices taken inside an operation
are subtracted from its time.

The computation does not import extphase, so no change to the program can
move it.  It resembles the program's own mix: forward-mode dual numbers
with tuple partials in pure Python, differentiated inside a fixed-step
Runge-Kutta loop on small numpy arrays.
"""

import math
import signal
from time import perf_counter

import numpy as np

STEP_S = 6.0e-5
"""Nominal seconds per step of `run`, about its speed on a quiet 2-vCPU Xeon
host; a scaled time is in seconds at this speed."""
PERIOD_S = 0.04    # program time between two slices
SLICE_STEPS = 100  # about 6 ms, so about an eighth of a pass goes to slices


class _Dual:
    __slots__ = ("val", "eps")

    def __init__(self, val, eps):
        self.val = val
        self.eps = eps

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.val + other.val,
                         tuple(a + b for a, b in zip(self.eps, other.eps)))
        return _Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.val * other.val,
                         tuple(a * other.val + self.val * b
                               for a, b in zip(self.eps, other.eps)))
        return _Dual(self.val * other, tuple(a * other for a in self.eps))

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (-1.0) * other


def _sin(x):
    c = math.cos(x.val)
    return _Dual(math.sin(x.val), tuple(c * a for a in x.eps))


def _cos(x):
    s = -math.sin(x.val)
    return _Dual(math.cos(x.val), tuple(s * a for a in x.eps))


def _rhs(y):
    """Hamilton's equations of H = p^2/2 - cos q + q p sin q / 4, by duals."""
    q = _Dual(float(y[0]), (1.0, 0.0))
    p = _Dual(float(y[1]), (0.0, 1.0))
    H = 0.5 * p * p - _cos(q) + 0.25 * q * p * _sin(q)
    dq, dp = H.eps
    return np.array([dp, -dq])


def run(steps):
    """`steps` RK4 steps of the pendulum-like system above; returns the state."""
    y = np.array([0.3, 0.1])
    h = 0.01
    for _ in range(steps):
        k1 = _rhs(y)
        k2 = _rhs(y + 0.5 * h * k1)
        k3 = _rhs(y + 0.5 * h * k2)
        k4 = _rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


class Sampler:
    """Times a slice of `run` every PERIOD_S seconds, from SIGALRM.

    The slices run in the main thread between two bytecodes of whatever is
    running, so nothing runs alongside the program.  The timer is re-armed
    only after a slice ends, so slices never overlap.  `seconds` and `steps`
    accumulate over the sampler's life.
    """

    def __init__(self):
        self.seconds = 0.0
        self.steps = 0

    def _slice(self, signum, frame):
        t0 = perf_counter()
        run(SLICE_STEPS)
        self.seconds += perf_counter() - t0
        self.steps += SLICE_STEPS
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
