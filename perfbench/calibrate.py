"""The host-speed probe: a fixed pure-Python kernel timed during a pass.

On a shared host a core can run at about half its speed for minutes at a
time, whatever the program does; no floor over passes escapes that.  So
``one_pass.py`` runs :func:`kernel` among the program's segments, at the
same places in every pass, and reports each run's time; that time is
taken out of every segment.  ``run.py`` takes the floor of each probe
over a run's passes, as it does for each segment of the program, and
divides the program's floors by the mean probe floor: a slow stretch
that slows the program and the kernel alike cancels out.  Multiplied by
``REFERENCE_S``, the result is in seconds at the host's full speed.

The kernel is independent of the program and does the kind of work the
simulator's hot path does: per-switch queues, a route table memoised in
a dict, a least-loaded pick among candidate outputs, and an occasional
small numpy reduction.  It takes about as long as one switch's
allocation in a 16x16 HyperX, so its floors escape slow moments as
often as the program's segments do.
"""

from __future__ import annotations

import numpy as np

#: The kernel's fastest time on a 2-core x86 (Xeon) container at full
#: speed.  The time metrics are in seconds at that speed.
REFERENCE_S = 0.0008

_SWITCHES = 64

# The kernel's state, made once and reset in place: the kernel allocates
# no object the garbage collector tracks, so it neither triggers a
# collection nor moves the program's own collections.
_QUEUES: list[list[int]] = [[] for _ in range(_SWITCHES)]
_ROUTES: dict[int, int] = {}
_LOAD = np.zeros(_SWITCHES)


def kernel(n: int = 900) -> int:
    """A fixed amount of queue, dict and small-array work."""
    queues, routes, load = _QUEUES, _ROUTES, _LOAD
    for queue in queues:
        queue.clear()
    routes.clear()
    load.fill(0.0)
    state = 12345
    for i in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        sw = state % _SWITCHES
        queue = queues[sw]
        queue.append((state >> 6) % _SWITCHES)
        key = sw * _SWITCHES + queue[0]
        first = routes.get(key)
        if first is None:
            first = routes[key] = (sw + key) % _SWITCHES
        best, best_len = first, len(queues[first])
        for k in range(1, 4):
            out = (first + k) % _SWITCHES
            if len(queues[out]) < best_len:
                best, best_len = out, len(queues[out])
        if len(queue) > 3:
            dst = queue.pop(0)
            if dst % 4:
                queues[best].append(dst)
        if i % 32 == 0:
            load[sw] += 1.0
            load.argmax()
    return len(routes)
