"""Reference kernel: fixed pure-Python work that tracks the host's speed.

On a shared host the speed of one CPU drifts by tens of percent over seconds
and minutes, as other tenants come and go on the same core. A run times this
kernel between ops, outside the ops' timed regions, and scales each op's
time by REFERENCE_NS / (the kernel's time around that op). The result is the
time the op would take on a host where the kernel takes REFERENCE_NS. The
kernel does not use the package, so no change to the program moves it; a
slower program still reads slower.

The kernel is built from what the package's hot paths do: recursive
evaluation of small boolean trees over a dict of values, with tuple
allocation and function calls.
"""

from __future__ import annotations

import time

# One kernel run took 0.2 to 0.5 ms of thread CPU time on a 2-vCPU shared
# VM (Python 3.11.7), depending on the load of other tenants; reported
# times are scaled to a host where it takes 0.4 ms.
REFERENCE_NS = 400_000
# A run samples the kernel each time this much op time has passed since the
# last sample, and at least once per pass.
SAMPLE_EVERY_NS = 20_000_000
# A sample is the median of this many back-to-back kernel runs, so that one
# interrupt does not make a sample.
RUNS_PER_SAMPLE = 3

_VALUES = {i: (i * 7) % 3 == 0 for i in range(50)}


def _evaluate(tree) -> bool:
    if isinstance(tree, int):
        return _VALUES[tree]
    op = tree[0]
    if op == "not":
        return not _evaluate(tree[1])
    if op == "and":
        return _evaluate(tree[1]) and _evaluate(tree[2])
    return _evaluate(tree[1]) or _evaluate(tree[2])


def kernel() -> int:
    trees = [("and", i, ("or", i + 1, ("not", i + 2))) for i in range(40)]
    return sum(_evaluate(tree) for _ in range(20) for tree in trees)


def sample() -> int:
    """Thread CPU time of one kernel run in ns, median of a few."""
    times = []
    for _ in range(RUNS_PER_SAMPLE):
        start = time.thread_time_ns()
        kernel()
        times.append(time.thread_time_ns() - start)
    return sorted(times)[len(times) // 2]


def scale(raw: list, marks: list[tuple[int, int]]) -> list[float]:
    """Scale raw op times to the reference host.

    ``marks`` are (ops before the sample, sample ns), starting at op 0 and
    ending after the last op. The ops between two samples run at the mean
    of the two.
    """
    out: list[float] = []
    for (a, before), (b, after) in zip(marks, marks[1:]):
        factor = 2 * REFERENCE_NS / (before + after)
        out.extend(v * factor for v in raw[a:b])
    return out
