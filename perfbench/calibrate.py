"""Host-speed calibration.

On a shared VM the same code runs up to ~x1.6 slower for seconds to
minutes at a time, so two runs of one commit can differ by more than a
regression bound.  :func:`reference_loop` is a fixed piece of stdlib
Python, unrelated to the program, that slows with the host.  A
:class:`Calibration` times it between the workload's operations and
scales the workload's times by ``NOMINAL_S / mean(loop time)``: what
they would read on a host where the loop takes exactly ``NOMINAL_S``.
A change to the program cannot move the loop, so it moves the scaled
times exactly as much as the raw ones.
"""

from __future__ import annotations

import gc
import time

#: About the loop's mean time on the reference host, a 2 GHz Xeon vCPU
#: of a shared VM, while that runs fast.
NOMINAL_S = 0.0020


class _Node:
    __slots__ = ("key", "weight", "links")

    def __init__(self, key, weight) -> None:
        self.key = key
        self.weight = weight
        self.links = []


def reference_loop() -> int:
    """Object-heavy stdlib work in the simulator's style: small
    objects, tuple-keyed dicts, sorting, float sums and formatting."""
    nodes = [_Node((i % 7, i % 11, i), i * 0.5) for i in range(2000)]
    table = {}
    for node in nodes:
        table.setdefault(node.key[:2], []).append(node)
    for group in table.values():
        for a, b in zip(group, group[1:]):
            a.links.append(b)
    order = sorted(nodes, key=lambda n: (-len(n.links), n.weight))
    total = 0.0
    for node in order:
        total += node.weight * (1 + len(node.links))
    text = ",".join(f"{n.key[2]}:{n.weight:.2f}" for n in order[::3])
    return len(text) + int(total)


class Calibration:
    """Loop times taken through one run.

    Each vCPU of the reference host also toggles between its fast and
    slow state every second or so, so one short sample lands in one
    state.  The run's loop time is therefore the mean over many loops
    spread through the run like the workload's own operations.  Where
    operations are short, a loop timed right beside each one scales it
    instead, at the same host speed; a longer one is scaled by the loops
    timed around it.
    """

    SAMPLE_S = 0.15

    def __init__(self) -> None:
        self.loops = 0
        self.seconds = 0.0

    def loop(self) -> float:
        """Time one loop, with garbage collection off so only the
        host's speed, not the program's heap, sets its time."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_loop()
            elapsed = time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        self.loops += 1
        self.seconds += elapsed
        return elapsed

    def sample(self, seconds: float = SAMPLE_S) -> None:
        """Time loops for ``seconds``."""
        gc.collect()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.loop()

    def mark(self) -> tuple[int, float]:
        """A point to measure loops from (see :meth:`scale`)."""
        return self.loops, self.seconds

    def scale(self, since=(0, 0.0)) -> float:
        """Factor from host seconds to reference seconds, from the mean
        time of the loops timed since the ``since`` mark (by default
        all of the run's loops)."""
        loops, seconds = since
        return NOMINAL_S * (self.loops - loops) / (self.seconds - seconds)
