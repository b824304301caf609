"""Host speed, measured by a fixed reference kernel, to take host drift out of
the end-to-end times.

The host a run lands on does not hold its speed: the same pure-Python loop
can take a third longer in one second than in the next, in spells that last
from seconds to minutes, and the process's own CPU time moves with it.  So
the timed loop runs a short probe of this kernel every ``PROBE_EVERY_S`` and
each op's CPU time is scaled by how fast the kernel ran around that op:

    scaled = off_cpu + cpu * REFERENCE_MS / probe_ms

``probe_ms`` is the mean of the probes taken just before and just after the
op, and ``off_cpu`` (wall time minus process CPU time: sleeping,
waiting on sockets) is kept as measured.  A scaled time is the time the op
would have taken on a host where the kernel runs in ``REFERENCE_MS``.  The
kernel is part of the benchmark, not of the program, so a change to the
program moves scaled times as much as raw ones.

The kernel does interpreter work of the kind the program's hot paths do:
hashing and comparing tuples of frozensets in a breadth-first search, as the
checker's product search does.  Of several kernels tried, this one tracked the
program's own slow and fast spells most closely.
"""
from __future__ import annotations

import gc
import time
from bisect import bisect_left, bisect_right

REFERENCE_MS = 2.5  # about the kernel's median time on the host the benchmark was tuned on
PROBE_EVERY_S = 0.05

_ATOMS = tuple(f"atom_{i}" for i in range(12))
_WORDS = " ".join(f"w{i}x" for i in range(64))


def kernel() -> int:
    """A breadth-first search over (set of atoms, state) pairs, the shape of
    an automaton product search, then some string work."""
    start = (frozenset(), 0)
    seen = {start}
    frontier = [start]
    edges = 0
    while frontier and len(seen) < 600:
        following = []
        for literals, state in frontier:
            for atom in _ATOMS[: 4 + state % 5]:
                node = (
                    literals ^ {atom} if len(literals) < 4 else frozenset((atom,)),
                    (state * 7 + len(atom)) % 97,
                )
                edges += 1
                if node not in seen:
                    seen.add(node)
                    following.append(node)
        frontier = following
    return edges + len(_WORDS.replace("x", "y").split())


def probe_ms() -> float:
    """One kernel call's time on this thread's CPU clock, in ms.  The
    collector is off for the call, so the probe never starts a collection
    that would scan the program's heap; everything it allocates is freed
    when it returns."""
    gc.disable()
    try:
        t0 = time.thread_time_ns()
        kernel()
        return (time.thread_time_ns() - t0) / 1e6
    finally:
        gc.enable()


class Probes:
    """Probes taken at times on the ``time.perf_counter`` clock."""

    def __init__(self):
        self.times: list[float] = []
        self.ms: list[float] = []

    def take(self) -> None:
        at = time.perf_counter()
        self.ms.append(probe_ms())
        self.times.append(at)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S

    def speed_ms(self, start: float, end: float) -> float:
        """Mean of the last probe before the interval and the first after it."""
        before = bisect_right(self.times, start)
        after = bisect_left(self.times, end)
        near = self.ms[max(0, before - 1) : before] + self.ms[after : after + 1]
        return sum(near) / len(near)

    def scale(self, start: float, end: float, cpu_s: float) -> float:
        """The interval's time, its CPU part scaled to the reference speed."""
        wall = end - start
        cpu = min(cpu_s, wall)
        return (wall - cpu) + cpu * REFERENCE_MS / self.speed_ms(start, end)
