"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared host the speed of one core drifts by 30-50% from minute to
minute, and swings faster than that: a stage timed at two moments of one
run can differ by 1.5x.  The benchmark therefore times this kernel right
before and right after every stage sample and reports the sample as

    wall seconds * REFERENCE_NOMINAL_S / (mean of the two kernel times)

i.e. in seconds of a host running the kernel in REFERENCE_NOMINAL_S.  The
drift cancels because both were timed within a fraction of a second of
each other; a change of the program does not, because the kernel shares no
code with typespace, only the interpreter and numpy.

Interpreted code and memory traffic do not slow down by the same factor
when the host gets busy, so the kernel spends about half its time on each:
dict counting, per-row updates of small vectors and SVDs of thin matrices
(like ingest and train), and filling and summing a fresh 8 MB array (like
save, load and the eval tasks' scans).  Normalizing by either half alone
left 1.5-2x the run-to-run spread on the stages of the other kind.
"""

from __future__ import annotations

import time

import numpy as np

# Typical kernel time on the machine that took the committed baseline; it
# only sets the scale, so normalized timings read as seconds on that host.
REFERENCE_NOMINAL_S = 0.021

_WORDS = [f"w{i}" for i in range(997)]
_TOKENS = [_WORDS[(i * 7919) % 997] for i in range(24_000)]
_RNG = np.random.default_rng(0)
_ROWS = _RNG.normal(size=(64, 20))
_THIN = [_RNG.normal(size=(50, 3)) for _ in range(8)]
_SRC = np.arange(1_000_000, dtype=np.float64)


def reference_kernel() -> float:
    """Run the kernel once and return its wall time in seconds."""
    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    for tok in _TOKENS:
        counts[tok] = counts.get(tok, 0) + 1
    v = np.zeros(20)
    acc = np.ones(20)
    for i in range(1200):
        g = _ROWS[i & 63]
        acc += g * g
        v -= 0.01 * g / np.sqrt(acc)
    for m in _THIN * 8:
        np.linalg.svd(m, full_matrices=False)
    for _ in range(6):
        block = np.empty_like(_SRC)
        np.copyto(block, _SRC)
        block.sum()
        del block
    return time.perf_counter() - t0


class HostClock:
    """Times a call and brackets it with the reference kernel.  The kernel
    run after one call also serves as the one before the next, until
    `reset` says untimed work came in between."""

    def __init__(self):
        self._last: float | None = None

    def reset(self) -> None:
        self._last = None

    def measure(self, fn):
        """Returns (fn's result, its wall seconds, the mean of the
        reference kernel's times before and after it)."""
        before = self._last if self._last is not None else reference_kernel()
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        self._last = reference_kernel()
        return out, wall, (before + self._last) / 2
