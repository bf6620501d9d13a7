"""Times at a reference host speed, through an interleaved CPU kernel.

The benchmark is meant to run on shared virtual machines whose speed
is not constant.  On the 2-vCPU VM it was built on, a fixed
pure-Python loop ran at one of two speeds, up to twice apart, from one
second to the next, and seven runs of the same ``service``
seed gave raw p50 latencies with a quartile spread of 14% of their
median.  Raw wall-clock figures from two sets of runs disagree by more
than any useful regression bound.

So the runner calls a fixed pure-Python kernel between documents and
reports every time at the reference speed::

    reported = measured * REFERENCE_NS / mean(kernel before, kernel after)

A program change that makes a document slower moves the reported time;
a slow spell of the host moves the kernel too and cancels out.  On
those seven runs the spread of the reported p50 fell to 3%, and that
of the throughput from 17% to 2%.  The runner prints the raw
wall-clock figures beside the scaled ones.
"""

from __future__ import annotations

import time

#: Roughly the kernel's time on the reference host, a 2-vCPU x86-64
#: virtual machine running CPython 3.11.7, in its fast state.  It only
#: sets the scale: every reported time is proportional to it.
REFERENCE_NS = 2_000_000


def kernel() -> int:
    """A fixed amount of interpreter work: integer arithmetic and a dict."""
    total = 0
    table = {}
    for i in range(25_000):
        total += i * i % 7
        table[i & 255] = total
    return total


def timed_kernel() -> int:
    """Nanoseconds one kernel run takes right now."""
    started = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - started


def factor(before_ns: int, after_ns: int) -> float:
    """The scale of a time measured between two kernel runs."""
    return 2.0 * REFERENCE_NS / (before_ns + after_ns)
