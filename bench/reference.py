"""A fixed reference computation, sampled while the stages run.

On a shared virtual machine the speed of one core changes all the time.
Timed side by side, a sparse complex LU, a dense product and a loop of
interpreted arithmetic slowed down and sped up together by up to a
third, from one second to the next, and their medians over 30-second
windows moved between 0.75 and 1.07 of the overall median.  The two
cores drifted independently of each other.  Repetition inside one run
averages the fast part away but not the slow part, so wall times of
one commit spread by a fifth from run to run.

The sampler therefore times this reference on the same core, in the
same process, every PERIOD seconds while a stage runs, from a timer
signal: Python runs the handler between bytecodes of the main thread,
so a sample waits for a long native call to return but never runs
inside one.  The time spent sampling is taken out of the stage's time.
``total_ref`` is a pass's time divided by the mean reading during it,
which cancels most of the speed of the core over the same seconds.  Over
ten seeds per workload on a 2-vCPU virtual machine, the spread of the
run medians (quartile distance over median) went from 9.2%, 6.6% and
21% for wall time to 4.2%, 2.6% and 6.4% for ``total_ref``, on
stabilize-200, bode-60 and simulate-120.  The program still varies
more than the reference: in a fast minute, simulate passes took 0.65 of
their median while the reference took 0.85.

The reference is the package's dominant operation done by scipy
directly: a sparse LU of a complex shifted saddle-point matrix and one
solve.  Of the parts tried (this LU, a dense product, interpreted
arithmetic, a solve with a larger stored LU and a 16 MB sum) it tracked
simulate passes best, alone or combined.  Its inputs are fixed: it
never changes with the seed or with the package.
"""

import contextlib
import signal
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import inputs

GRID = 28
# Seconds between samples; one sample takes about 4 ms.
PERIOD = 0.2


class Reference:
    """The reference computation: fixed inputs, one timed call."""

    def __init__(self):
        p = inputs.grid_system(GRID, 0)
        self._saddle = sp.bmat([[1j * p.M - p.A, p.G], [p.G.T, None]], format="csc")
        self._rhs = np.ones(self._saddle.shape[0], dtype=complex)

    def seconds(self):
        start = time.perf_counter()
        splu(self._saddle).solve(self._rhs)
        return time.perf_counter() - start


class Clock:
    """What one timed interval measured: seconds without sampling, and readings."""

    def __init__(self):
        self.seconds = 0.0
        self.spent = 0.0  # seconds taken by the samples
        self.readings = []


class Sampler:
    """Samples the reference from SIGALRM while a ``timing`` block runs."""

    def __init__(self, period=PERIOD):
        self.period = period
        self.reference = Reference()
        for _ in range(3):  # warm caches and the allocator before the first stage
            self.reference.seconds()

    def _sample(self, clock):
        start = time.perf_counter()
        clock.readings.append(self.reference.seconds())
        clock.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def timing(self):
        """Times the block; its Clock excludes the samples taken inside it."""
        clock = Clock()
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._sample(clock))
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield clock
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            clock.seconds = time.perf_counter() - start - clock.spent
            # A signal still pending now finds the previous handler; when that
            # is the default action, Python discards it.
            signal.signal(signal.SIGALRM, previous)
            if not clock.readings:  # a block shorter than the period
                self._sample(clock)


@contextlib.contextmanager
def unsampled():
    """Times the block without sampling, for passes that are traced."""
    clock = Clock()
    start = time.perf_counter()
    try:
        yield clock
    finally:
        clock.seconds = time.perf_counter() - start
