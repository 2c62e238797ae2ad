"""Host-speed calibration: a fixed reference load, timed beside every pass.

The benchmark runs on a share of a machine whose speed drifts: the same
code reads up to 1.6x slower in one minute than in another, with CPU time
tracking wall time, so it is the processor that is slower, not the
scheduler taking it away.  A fixed reference load slows in the same
phases.  Timing it between the passes and rescaling each pass to a host on
which the load takes :data:`NOMINAL_S` seconds cancels most of the drift;
what is left moves with the program.

The reference load never calls the program, so a change to the program
cannot move it.  Kinds of work do not slow alike, so the load mixes, in
about equal parts, the three kinds the workloads do: interpreter work,
many NumPy calls on small arrays, and NumPy passes over large ones.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["NOMINAL_S", "measure", "reference_load"]

#: Seconds one reference load takes on the nominal host: about its median
#: on the 2-CPU machine the benchmark was written on, so that rescaled
#: times read close to that machine's seconds.
NOMINAL_S = 0.13
#: Reference loads per measurement.
REPEATS = 3

_clock = time.perf_counter
_SMALL = np.random.default_rng(1).integers(0, 64, 2048, dtype=np.int64)
_LARGE = np.random.default_rng(2).integers(0, 1 << 20, 1 << 18, dtype=np.int64)
_ORDER = np.random.default_rng(3).permutation(_LARGE.size)


def _interpreter() -> int:
    """Dicts, tuples, small ints, strings and calls."""
    table = {}
    total = 0
    for i in range(80_000):
        key = (i * 7919) % 1009, i & 7
        table[key] = table.get(key, 0) + i
        total += len(str(i)) + _mix(i)
    return total + len(sorted(table.items()))


def _mix(value: int) -> int:
    return (value ^ (value >> 3)) & 15


def _small_arrays() -> int:
    """Many NumPy calls on arrays of a few thousand elements, like the
    simulation kernels on a ring of that size."""
    values = _SMALL
    total = 0
    for _ in range(1_600):
        shifted = np.roll(values, 1)
        ahead = (shifted - values) % 64
        values = np.where(ahead == 1, shifted, values)
        total += int(np.count_nonzero(ahead))
    return total


def _large_arrays() -> int:
    """Sort, unique, gathers and elementwise passes over arrays of a few
    megabytes, like the exact checker's frontier expansion and dedup."""
    values = _LARGE
    ordered = np.sort(values)
    distinct = np.unique(values[: values.size // 2])
    mixed = (values * 3 + 1) % 7 + values[_ORDER]
    return int(ordered[-1]) + int(distinct.size) + int(mixed.sum() & 0xFFFF)


def reference_load() -> int:
    """One run of the reference load; returns a checksum of its results."""
    return _interpreter() + _small_arrays() + _large_arrays()


def measure() -> float:
    """Seconds of one reference load now, averaged over :data:`REPEATS`."""
    start = _clock()
    for _ in range(REPEATS):
        reference_load()
    return (_clock() - start) / REPEATS
