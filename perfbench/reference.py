"""Machine-speed references that the end-to-end times are scaled by.

The benchmark's machine is shared: other tenants slow it by up to 1.8x, for
stretches of seconds to minutes, so even the fastest of many runs of an input
reads differently from one run of the benchmark to the next.  Two fixed references, which no change
to srq can move, are timed alongside the workload:

- ``kernel``: about a millisecond of slotted-object quaternion products in
  plain Python, much like srq's own hot path, for the in-process times;
- ``start``: a bare ``python -c pass`` process, for the CLI calls.

Each timed operation is followed by its reference, and an input's time is
reported as ``median(run / paired reference) * nominal``, in the unit of the
raw time: what it would take on a machine where the kernel takes
``KERNEL_NOMINAL_S`` and an interpreter start takes ``START_NOMINAL_S``.
On the benchmark's 2-vCPU host, under load that doubled raw ``run_all``
times, five runs of one seed gave throughputs within about 1% of each other.
"""

from __future__ import annotations

import subprocess
import sys
import time

#: The scale's definition: a reference machine's kernel and start-up times.
KERNEL_NOMINAL_S = 1.0e-3
START_NOMINAL_S = 40.0e-3
KERNEL_PRODUCTS = 1500

clock = time.perf_counter


class _Q:
    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w, x, y, z):
        self.w, self.x, self.y, self.z = w, x, y, z

    def __mul__(a, b):
        return _Q(a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                  a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                  a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                  a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w)


def kernel():
    """The in-process reference; returns a value so the work cannot be skipped."""
    start, step = _Q(0.5, 0.1, -0.2, 0.3), _Q(0.9, -0.1, 0.05, 0.2)
    q, total = start, 0.0
    for n in range(KERNEL_PRODUCTS):
        q = q * step
        total += q.w
        if n % 50 == 49:
            q = start
    return total


class Reference:
    """Times the reference paired with each timed operation.

    ``kind`` is ``"kernel"`` (a block of kernels as long as the operation)
    or ``"start"`` (one interpreter start).  Pairing each operation with its
    own reference, run right after it, makes both see the same load.
    """

    def __init__(self, kind, env, cwd):
        self.kind, self.env, self.cwd = kind, env, cwd
        self.nominal = KERNEL_NOMINAL_S if kind == "kernel" else START_NOMINAL_S

    def pair(self, seconds):
        """The reference time paired with an operation that took ``seconds``."""
        return block(seconds) if self.kind == "kernel" else self.start()

    def start(self):
        began = clock()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.cwd,
                       check=True, capture_output=True, timeout=60)
        return clock() - began


def block(seconds):
    """Per-kernel time of a block of kernels at least ``seconds`` long."""
    count, began = 0, clock()
    while True:
        kernel()
        count += 1
        elapsed = clock() - began
        if elapsed >= seconds:
            return elapsed / count
