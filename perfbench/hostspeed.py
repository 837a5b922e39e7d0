"""Host-speed probe: a fixed stdlib-only loop timed next to every item.

The shared VM the benchmark was sized on changes speed in phases: the
same pure-Python loop takes up to 60% longer in a slow phase than in a
fast one, in phases of seconds that drift over minutes, and every timed
item slows with it.  The benchmark runs ``probe()`` just before each item
(campaign, ``run_sessions`` call, job submission) and scales that item's
time by ``NOMINAL_S`` over the probes around it, so a reported time reads
as the item's time on the host at its nominal speed.

The probe touches nothing of the program under test.  It is timed in CPU
time of the calling thread, so waiting for the GIL (the job service runs
a thread in the same process) or for a CPU does not count, and it
allocates no objects the cyclic garbage collector tracks beyond one dict.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from measure import median

#: CPU seconds ``probe()`` takes on a 2-vCPU Xeon VM (2.1 GHz) in its fast
#: phase.  A scaled time is ``raw * NOMINAL_S / local probe time``.
NOMINAL_S = 0.0018

#: Probes on each side of an item whose median is the item's local probe.
NEIGHBOURS = 3

_LOOPS = 12000


def probe() -> float:
    """CPU time of one fixed dict-and-integer loop on this thread."""
    start = time.thread_time()
    table = {}
    for i in range(_LOOPS):
        table[i % 997] = table.get(i % 991, 0) + i
    return time.thread_time() - start


def scales(probes: Sequence[float]) -> List[float]:
    """Scale factor per probe: ``NOMINAL_S`` over the median of its neighbourhood.

    The neighbourhood is the probe itself and up to ``NEIGHBOURS`` probes
    on each side, clipped at the ends of the run.
    """
    out = []
    for index in range(len(probes)):
        window = probes[max(0, index - NEIGHBOURS):index + NEIGHBOURS + 1]
        out.append(NOMINAL_S / median(window))
    return out
