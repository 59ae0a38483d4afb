"""Machine-speed calibration for the end-to-end times.

The shared machines this benchmark runs on switch between a fast and a
slow state, about 1.5x apart, for tens of seconds at a time, so two runs
of identical work can differ by half.  A fixed pure-Python kernel (BFS
sweeps over a fixed digraph, the same kind of interpreter work as the
library's max-flow) is timed before and after every solver call.  Each
call's wall time is then rescaled to reference seconds: the time it would
have taken had the kernel taken ``REFERENCE_S``.  Raw wall times stay in
the report next to the rescaled ones.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter

#: Kernel time that defines the reference speed (a fast state of a
#: 2-vCPU x86 cloud sandbox running CPython 3.11).
REFERENCE_S = 0.004

_N = 400
_ADJ = []
_state = 12345
for _u in range(_N):
    _row = []
    for _ in range(4):
        _state = (_state * 1103515245 + 12345) % 2**31
        _row.append(_state % _N)
    _ADJ.append(_row)


def _kernel(sweeps=48):
    total = 0
    for s in range(sweeps):
        level = [-1] * _N
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in _ADJ[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        total += sum(level)
    return total


def kernel_time() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def to_reference(elapsed: float, before: float, after: float) -> float:
    """Rescale a wall time measured between two kernel timings."""
    return elapsed * REFERENCE_S * 2 / (before + after)
