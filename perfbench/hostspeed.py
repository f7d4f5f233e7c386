"""A fixed reference loop that tracks the host's speed for interpreted code.

On the shared 2-core machine the figures were taken on, the same Python loop
runs anywhere from 1.9 to 4.0 us per query within a few minutes, and CPU
time moves with wall time, so the slowdown is the core's speed and not time
stolen from the process.  Over 15 s windows the scalar ``ix.lce`` time
varied by 18-24% (quartile distance over median) while its ratio to this
loop, timed next to it in the same process, varied by 1-2%.

The serving process times this loop between query rounds; the scalar
per-call times of each round are then scaled by REFERENCE_NS over the loop's
time around that round.  The result reads in nanoseconds at the host speed
where the loop takes REFERENCE_NS.  The loop never touches lcex, so a change
to the program moves the scaled figure exactly as much as the raw one.
"""

from __future__ import annotations

import time

# The loop's time on the reference machine in its fast state; a fixed scale,
# never to be re-measured, so that figures stay comparable across commits.
REFERENCE_NS = 5_000_000

_DATA = list(range(4096))
_TABLE = {k: 7 * k for k in range(512)}


def _step(a: int, b: int) -> int:
    x = _DATA[a] ^ _DATA[b]
    return _TABLE[x & 511] + (x >> 3)


def reference_ns() -> int:
    """Time one pass of the reference loop: calls, list and dict lookups and
    integer arithmetic, the mix a scalar LCE query executes."""
    step = _step
    acc = 0
    start = time.perf_counter_ns()
    for k in range(20_000):
        acc += step(k & 4095, (k * 31) & 4095)
    elapsed = time.perf_counter_ns() - start
    if acc != 41_679_228:
        raise AssertionError("reference loop computed a wrong sum")
    return elapsed
