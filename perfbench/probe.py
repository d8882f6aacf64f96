"""Host-speed probe: a fixed token-passing loop timed next to every timed call.

The benchmark runs on shared hosts whose speed shifts by up to 2x within
seconds and between minutes, with no hardware counters to count work
instead of time. The probe is a small, fixed workload shaped like the
threaded engine: four OS threads pass one token around a ring through
``threading.Event`` hand-offs, each doing a few dictionary updates while
it holds the token. It is timed right before and right after each timed
call, on the same CPU, and the call's wall time is scaled by
``REF_S / probe`` (see :func:`scaled`), so that a stretch in which the
host runs everything slower moves the probe with the call and cancels.

The probe is part of the benchmark and shares no code with the library,
so a change to the library moves the scaled times exactly as it moves
the wall times.
"""

from __future__ import annotations

import threading
import time

#: The probe's time on an idle host (2-vCPU Intel Xeon, Python 3.11.7);
#: a scaled time reads as the wall time on that host at that speed.
REF_S = 0.008

_THREADS, _HOPS, _WORK = 4, 400, 40


def probe() -> float:
    """Wall time of one fixed token ring: ``_HOPS`` hand-offs in all."""
    events = [threading.Event() for _ in range(_THREADS)]
    hops = [0]

    def rank(i: int) -> None:
        mine, nxt, d = events[i], events[(i + 1) % _THREADS], {}
        while True:
            mine.wait()
            mine.clear()
            if hops[0] >= _HOPS:
                nxt.set()
                return
            hops[0] += 1
            for j in range(_WORK):
                d[j] = d.get(j, 0) + j * hops[0]
            nxt.set()

    threads = [threading.Thread(target=rank, args=(i,)) for i in range(_THREADS)]
    for t in threads:
        t.start()
    t0 = time.perf_counter()
    events[0].set()
    for t in threads:
        t.join()
    return time.perf_counter() - t0


def scaled(wall_s: float, probe_s: float) -> float:
    """``wall_s`` at the reference host speed, given the probe's time
    (mean of the probes before and after the call) at the call."""
    return wall_s * REF_S / probe_s
