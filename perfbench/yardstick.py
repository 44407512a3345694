"""A yardstick: a fixed task outside ``repro`` that says how fast the box runs now.

The speed of a shared virtual machine drifts by up to 2x over minutes,
far more than the changes the benchmark must resolve.  So the harness
reads the yardstick around everything it times and scales each time to
reference seconds: the time it would have taken while the yardstick ran
in ``REF_S``.  The task is interpreted Python, an integer loop and heap
churn over tuples as in an event loop, and imports nothing, so it can
run before the program is imported.
"""

import heapq
from time import perf_counter

#: The yardstick's time at the reference speed: a round number near its
#: reading on a 2-vCPU Xeon virtual machine.  It only scales the results.
REF_S = 0.025


def yardstick() -> float:
    """Seconds for the task: the faster of two tries, so one interruption
    does not count."""
    tries = []
    for _ in range(2):
        start = perf_counter()
        sum(i * i % 7 for i in range(200_000))
        heap: list[tuple[float, int]] = []
        for i in range(10_000):
            heapq.heappush(heap, (float(i * 7919 % 10_007), i))
        while heap:
            heapq.heappop(heap)
        tries.append(perf_counter() - start)
    return min(tries)


def ref_seconds(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two yardstick readings, in reference seconds."""
    return seconds * 2 * REF_S / (before + after)
