"""Golden pin over the fault layer's hash-derived random streams.

Every fate the simulator draws is a pure function of the plan seed and
a counter (see docs/fault_model.md, "Determinism"). These digests fix
the streams bit for bit: message fates, put fates and corrupt words,
churn crash times, the RMA slot checksum, and chaos plan sampling. A
change to how a draw is computed (caching a label fold, inlining the
mixer, moving a helper) must leave every digest unchanged; a digest
that moves means some run's virtual clocks and trace moved with it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.harness.chaos import sample_plan
from repro.matching.rma import slot_checksum
from repro.mpisim.faults import ChurnPlan, FaultPlan

FATE_STREAM_SHA256 = "59553b697c86b92f27012d9c06a848df27e007129468662b99d20f88bd7a4735"
CHAOS_SAMPLE_SHA256 = "52353a65cd5fb17c09ff7ec886c3bd77c10196ae655ca1692bd4d72007972383"


def _fate_stream_lines():
    msg = FaultPlan(seed=20190520, drop_rate=0.12, dup_rate=0.09,
                    delay_rate=0.25, delay_min=1e-6, delay_max=40e-6)
    for index in range(5000):
        src, dst = index % 7, (3 * index + 1) % 11
        f = msg.message_fate(src, dst, index)
        yield f"m {src} {dst} {index} {f.copies} {f.delays!r}"

    rma = FaultPlan(seed=77, rma_drop_rate=0.15, rma_corrupt_rate=0.2)
    for index in range(2000):
        origin = index % 5
        # Targets reach the fault layer as numpy-derived ids in the RMA
        # backend, so the pin draws with both python and numpy ints.
        target = np.int64((index * 7) % 13) if index % 2 else (index * 7) % 13
        fate = rma.put_fate(origin, target, index)
        pos, mask = rma.corrupt_word(origin, target, index, 1 + index % 9)
        yield f"p {origin} {int(target)} {index} {fate} {pos} {mask}"

    churn = ChurnPlan(mtbf=3e-4, horizon=4e-3, seed=9)
    for rank in range(4):
        yield f"c {rank} {churn.events_for(rank)!r}"

    for ctx_id in (0, 1, 9, -1, -17, np.int64(3), np.int64(-4)):
        for x in (0, 5, -1, -(2**40), 2**62, np.int64(-7), np.int64(12)):
            for y in (0, 1, -3, np.int64(2**40), np.int64(-1)):
                yield f"s {int(ctx_id)} {int(x)} {int(y)} {slot_checksum(ctx_id, x, y)}"


def _chaos_sample_lines():
    for seed in (1, 2, 7):
        for index in range(12):
            for backend in ("nsr", "nsr-agg", "rma", "ncl"):
                yield repr(sample_plan(seed, index, 8, backend, 1e-3))
            plan = sample_plan(seed, index, 4, "ncl", 1e-3, churn=True)
            yield repr(plan)
            yield repr(plan.churn_plan.events_for(index % 4))


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_fate_stream_pin():
    assert _digest(_fate_stream_lines()) == FATE_STREAM_SHA256


def test_chaos_sample_pin():
    assert _digest(_chaos_sample_lines()) == CHAOS_SAMPLE_SHA256
