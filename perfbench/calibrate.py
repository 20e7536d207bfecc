"""Host-speed references for normalising wall-clock measurements.

The shared hosts this benchmark was tuned on alternate between fast and
slow phases lasting tens of seconds, in which memory-heavy Python runs up
to 2x slower.  :func:`reference_seconds` times a fixed workload that does
not depend on the repository but has the simulator's access pattern (a
heap of timed events over slotted objects, dict lookups, list appends,
small sorts).  A wall time measured between two reference timings is
rescaled to a host on which the reference takes :data:`NOMINAL_S`::

    normalised = measured * NOMINAL_S / mean(reference before, after)

:class:`SlicedClock` applies the same rescaling slice by slice inside
one long measurement, so a phase change mid-session is tracked.

Set-up times are import-bound, and that reference tracks them poorly.
They are rescaled instead by :func:`reference_spawn_seconds`, a fresh
interpreter importing standard-library modules, timed just before each
set-up (:func:`normalised_setups`).
"""

from __future__ import annotations

import bisect
import heapq
import random
import subprocess
import sys
import time
from typing import Callable

#: Reference duration the normalised wall metrics are expressed against.
NOMINAL_S = 0.1
#: Wall seconds between reference timings inside a :class:`SlicedClock`.
SLICE_S = 0.5
#: Reference spawn duration the normalised set-up times are expressed against.
NOMINAL_SPAWN_S = 0.1

_SPAWN_REFERENCE = (
    "import argparse, asyncio, dataclasses, heapq, http.client, json, "
    "random, statistics, subprocess, typing; print('ready', flush=True)"
)


class _Obj:
    __slots__ = ("key", "hits", "times")

    def __init__(self, key: int):
        self.key = key
        self.hits = 0
        self.times: list[float] = []


def _reference_work() -> int:
    rng = random.Random(7)
    objs = [_Obj(i) for i in range(20000)]
    index = {obj.key: obj for obj in objs}
    heap = [(rng.random(), i) for i in range(5000)]
    heapq.heapify(heap)
    for step in range(60000):
        t, i = heapq.heappop(heap)
        obj = index[(i * 7919 + step) % 20000]
        obj.hits += 1
        obj.times.append(t)
        if len(obj.times) > 8:
            obj.times = sorted(obj.times)[4:]
        heapq.heappush(heap, (t + rng.random(), i))
    return sum(obj.hits for obj in objs)


def reference_seconds() -> float:
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


class HostSpeed:
    """Brackets measurements with reference timings.

    Each :meth:`factor` call closes an interval: it returns
    ``NOMINAL_S / mean(reference before, reference after)``, and the
    closing reference opens the next interval.
    """

    def __init__(self) -> None:
        self._last = reference_seconds()

    def factor(self) -> float:
        now = reference_seconds()
        value = NOMINAL_S / ((self._last + now) / 2.0)
        self._last = now
        return value


class SlicedClock:
    """Wall time rescaled slice by slice by a :class:`HostSpeed`.

    :meth:`tick` is cheap and meant to be called often: once the current
    slice is :data:`SLICE_S` old it calls :meth:`cut`, which closes the
    slice, times the reference and opens the next slice.  The reference's
    own run time belongs to no slice.  :meth:`normalise` maps a
    ``time.perf_counter()`` stamp taken inside a slice to normalised
    seconds since the clock started; :attr:`elapsed` is the normalised
    length of the closed slices.
    """

    def __init__(self, host: HostSpeed) -> None:
        self._host = host
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._offsets: list[float] = []
        self._factors: list[float] = []
        self.elapsed = 0.0
        self._open = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._open >= SLICE_S:
            self.cut()

    def cut(self) -> None:
        end = time.perf_counter()
        factor = self._host.factor()
        self._starts.append(self._open)
        self._ends.append(end)
        self._offsets.append(self.elapsed)
        self._factors.append(factor)
        self.elapsed += (end - self._open) * factor
        self._open = time.perf_counter()

    def normalise(self, stamp: float) -> float:
        i = bisect.bisect_left(self._ends, stamp)
        return self._offsets[i] + (stamp - self._starts[i]) * self._factors[i]


def reference_spawn_seconds() -> float:
    """Spawn until ready of an interpreter importing the standard library."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SPAWN_REFERENCE], stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"reference spawn failed: {line!r}")
    return elapsed


def normalised_setups(setup: Callable[[], float], samples: int) -> list[float]:
    """``samples`` runs of ``setup`` (which returns its own seconds), each
    rescaled by a reference spawn timed just before it:
    ``measured * NOMINAL_SPAWN_S / reference``."""
    times = []
    for _ in range(samples):
        reference = reference_spawn_seconds()
        times.append(setup() * NOMINAL_SPAWN_S / reference)
    return times
