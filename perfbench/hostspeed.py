"""How slow the host runs right now, from a fixed reference computation.

The benchmark's host is a few cores of a shared machine.  Its neighbours
slow it down in spells of seconds to minutes, by up to 1.6x, in CPU time
as well as in wall time and with no steal time to account for it, so a
run that falls into a spell reads slow however long it is.  :func:`slowdown` times a small fixed mix of the
kinds of work the program does (interpreter loops, many small numpy
calls, a streaming pass and a random gather over an array larger than
the caches) and divides each part by its time on a quiet host.  A timed
region divided by the mean slowdown just before and just after it reads
as seconds on that quiet host.

The reference is the benchmark's own code and does not change with the
program, so only the host's state is divided out, never a change of the
program.  The division is not
exact: the spells differ in kind, and interpreter-bound code slows more
under them than code that streams through large arrays.  A change that
moves work from one kind to the other therefore shifts its normalised
time a little on a loaded host, in the direction its wall time there
would go.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(0)
_BIG = _RNG.random(1 << 21)  # 16 MiB of float64
_IDX = _RNG.integers(0, _BIG.size, 1 << 18)
_SMALL = _RNG.random(64)


def _interpreter() -> None:
    table = {}
    total = 0
    for i in range(20000):
        total += i * i % 7
        table[i & 1023] = total


def _small_arrays() -> None:
    a = _SMALL
    for _ in range(1500):
        a = np.sqrt(a * 1.0001 + 1.0)


def _stream() -> None:
    a = _BIG * 1.0001
    a += 1.0
    a.sum()


def _gather() -> None:
    _BIG[_IDX].sum()
    _BIG[_IDX[::-1]].sum()


#: Each part of the reference with its time in seconds on a quiet host
#: (a 2-core Xeon at 2.1 GHz: the fastest of many repetitions there).
PARTS = (
    (_interpreter, 2.1e-3),
    (_small_arrays, 2.3e-3),
    (_stream, 2.9e-3),
    (_gather, 2.0e-3),
)

#: Repetitions of each part; the median of them is taken.  Longer
#: samples were tried around the 7 s jobs of HD-map: the host changes
#: within the job, so they tracked it no better and made its spread
#: worse.
REPS = 3


def slowdown() -> float:
    """The host's current slowdown: 1.0 on a quiet host, above it when
    neighbours load it.  Takes about 30 ms."""
    ratios = []
    for part, nominal in PARTS:
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
        ratios.append(statistics.median(times) / nominal)
    return statistics.mean(ratios)


def timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), wall seconds, slowdown over the call)``,
    the slowdown being the mean of one taken just before the call and
    one just after it."""
    before = slowdown()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    return out, wall, (before + slowdown()) / 2
