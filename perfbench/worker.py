"""The workload process: runs matching runs on request and checks them.

``run.py`` starts this file with ``src`` on ``PYTHONPATH`` and talks to
it in JSON lines: one request on stdin, one reply on the protocol
stream (the original stdout; anything the library prints goes to
stderr). The first reply, sent once every import is done, marks the end
of set-up. Requests:

* ``prepare`` — build the workload's graphs from the seed, their oracle
  matchings and fault plans; untimed.
* ``generate`` — rebuild one graph (timed), as a user would per point.
* ``run`` — one ``api.run`` on one backend (timed), then the checks.
* ``trace`` — install the span tracer for every later ``run``.
* ``exit`` — reply with the peak resident memory and stop.

Untraced, each timed call is bracketed by two host-speed probes
(``probe.py``) and the reply carries their mean as ``probe_s``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import networkx
import numpy as np
import scipy

from repro import api
from repro.graph.distribution import partition_graph
from repro.graph.generators import rgg_graph, rmat_graph
from repro.graph.partition_stats import (
    ghost_stats_from_parts,
    process_graph_stats_from_parts,
)
from repro.matching.config import RunConfig
from repro.matching.serial import locally_dominant_matching, matching_weight
from repro.matching.verify import check_matching_valid
from repro.mpisim.checkpoint import CheckpointConfig
from repro.mpisim.errors import RankFailure
from repro.mpisim.faults import FaultPlan, NicDegradation
from probe import probe
from tracer import Tracer, install

BACKENDS = ("nsr", "nsr-agg", "rma", "ncl", "mbp")
CRASHES = 3  #: healed rank crashes per ncl run on the faults workload

#: name -> (graph recipe, its size parameter, simulated ranks, faults,
#: graph instances). Passes cycle through a seed's instances, so one
#: run's medians average over several graphs (and fault plans) of the
#: same family instead of following one graph's iteration count (or one
#: fault plan's retransmissions); each workload has as many as let every
#: instance repeat within a run.
WORKLOADS = {
    "rmat-dense": ("rmat", 9, 128, False, 2),
    "rgg-sparse": ("rgg", 1000, 32, False, 4),
    "rmat-faults": ("rmat", 8, 16, True, 8),
}


def build_graph(recipe: str, size: int, seed: int):
    if recipe == "rmat":
        return rmat_graph(size, seed=seed)
    return rgg_graph(size, target_avg_degree=8, seed=seed)


def fault_configs(g, nprocs: int, seed: int) -> dict[str, RunConfig]:
    """One fault class per backend, sized from fault-free runs.

    The fault-free runs are untimed and use the vector engine, which is
    bit-identical to the default engine in virtual time. ncl's crashes
    are placed here rather than drawn from a ``FaultPlan.churn`` stream:
    churn starts at virtual time 0, and a crash before the first
    coordinated cut cannot be rolled back (``RecoveryFailed``). ncl can
    only cut at iteration boundaries, so crash ``k`` falls at a seeded
    point between the fault-free run's cuts ``k + 1`` and ``k + 2``.
    """
    t_mbp = api.run(g, nprocs, "mbp", config=RunConfig(engine="vector")).makespan
    t_ncl = api.run(g, nprocs, "ncl", config=RunConfig(engine="vector")).makespan
    ckpt = CheckpointConfig(interval=t_ncl / 32)
    api.run(g, nprocs, "ncl", config=RunConfig(engine="vector", checkpoint=ckpt))
    cut_at = []
    while (snap := ckpt.store.at_epoch(len(cut_at))) is not None:
        cut_at.append(max(r["clock"] for r in snap.state()["ranks"]))
    if len(cut_at) < CRASHES + 2:
        raise ValueError(f"ncl took {len(cut_at)} cuts; {CRASHES + 2} needed")
    rng = np.random.default_rng([seed, 0xC7A5])
    ranks = rng.choice(nprocs, CRASHES, replace=False)
    crashes = {
        int(r): float(cut_at[k + 1] + u * (cut_at[k + 2] - cut_at[k + 1]))
        for k, (r, u) in enumerate(zip(ranks, rng.uniform(0.2, 0.8, CRASHES)))
    }
    msg = RunConfig(faults=FaultPlan(
        seed=seed, drop_rate=0.05, dup_rate=0.025, delay_rate=0.05))
    slow = tuple(
        NicDegradation(rank=r, t_start=0.25 * t_mbp, t_end=0.75 * t_mbp,
                       factor=4.0)
        for r in range(0, nprocs, 8)
    )
    return {
        "nsr": msg,
        "nsr-agg": msg,
        "rma": RunConfig(faults=FaultPlan(
            seed=seed, rma_drop_rate=0.05, rma_corrupt_rate=0.02)),
        "ncl": RunConfig(
            faults=FaultPlan(seed=seed, crashes=crashes),
            checkpoint=CheckpointConfig(interval=ckpt.interval),
            spares=CRASHES,
        ),
        "mbp": RunConfig(faults=FaultPlan(seed=seed, degradations=slow)),
    }


def mean_probe(before: float | None, after: float | None) -> float | None:
    return None if before is None else (before + after) / 2


def error_name(exc: BaseException) -> str:
    if isinstance(exc, RankFailure) and exc.__cause__ is not None:
        return f"RankFailure({type(exc.__cause__).__name__})"
    return type(exc).__name__


def fingerprint(res) -> list:
    """The simulated outcome; identical on every repetition."""
    eng = res.engine
    rec = res.recovery or {}
    return [
        res.makespan, eng.total_ops, eng.scheduler_switches,
        res.total_messages(),
        res.counters.p2p.total_bytes() + res.counters.rma.total_bytes()
        + res.counters.ncl.total_bytes(),
        sorted(res.fault_totals().items()), rec.get("recoveries", 0),
    ]


class Instance:
    """One graph of a workload, with its oracle and run configurations."""

    def __init__(self, workload: str, seed: int):
        recipe, size, nprocs, faults, _ = WORKLOADS[workload]
        self.seed = seed
        self.graph = build_graph(recipe, size, seed)
        self.oracle = locally_dominant_matching(self.graph).mate
        self.oracle_weight = matching_weight(self.graph, self.oracle)
        self.configs = (fault_configs(self.graph, nprocs, seed) if faults
                        else dict.fromkeys(BACKENDS, RunConfig()))
        parts = partition_graph(self.graph, nprocs)
        g = self.graph
        self.stats = {
            "vertices": g.num_vertices,
            "edges": g.num_edges,
            "ghost_edges": ghost_stats_from_parts(parts).total - g.num_edges,
            "proc_degree_max": process_graph_stats_from_parts(parts).dmax,
        }


class Workload:
    def __init__(self, root: Path):
        self.root = root
        self.tracer = None

    def prepare(self, workload: str, seed: int) -> dict:
        """Build the workload's graph instances; instance ``i`` of seed
        ``s`` is generated from seed ``k * s + i`` for ``k`` instances."""
        recipe, size, nprocs, _, k = WORKLOADS[workload]
        self.name, self.recipe, self.size, self.nprocs = (
            workload, recipe, size, nprocs)
        self.instances = [Instance(workload, k * seed + i) for i in range(k)]
        self.inst = self.instances[0]
        self.graph = self.inst.graph
        return {"nprocs": nprocs,
                "instances": [inst.stats for inst in self.instances]}

    def host_probe(self) -> float | None:
        """The host-speed probe's time, or None while traced."""
        return probe() if self.tracer is None else None

    def generate(self, instance: int) -> dict:
        """Rebuild one instance's graph, as a user would per point."""
        inst = self.instances[instance]
        p0 = self.host_probe()
        t0 = time.perf_counter()
        g = build_graph(self.recipe, self.size, inst.seed)
        gen_s = time.perf_counter() - t0
        probe_s = mean_probe(p0, self.host_probe())
        same = (np.array_equal(g.xadj, inst.graph.xadj)
                and np.array_equal(g.adjncy, inst.graph.adjncy))
        self.inst, self.graph = inst, g
        return {"gen_s": gen_s, "probe_s": probe_s, "same": bool(same)}

    def check(self, rec) -> str | None:
        mate, inst = rec.result.mate, self.inst
        try:
            check_matching_valid(self.graph, mate)
        except AssertionError as exc:
            return f"invalid matching: {exc}"
        if not np.array_equal(mate, inst.oracle):
            diff = int(np.count_nonzero(mate != inst.oracle))
            return f"mate differs from the oracle at {diff} vertices"
        if rec.weight != inst.oracle_weight:
            return f"weight {rec.weight!r} != oracle {inst.oracle_weight!r}"
        return None

    def run(self, backend: str) -> dict:
        tr = self.tracer
        if tr is not None:
            tr.reset()
        cfg = self.inst.configs[backend]
        p0 = self.host_probe()
        t0 = time.perf_counter()
        try:
            rec = api.run(self.graph, self.nprocs, backend, config=cfg,
                          keep_result=True)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            return {"wall_s": time.perf_counter() - t0,
                    "error": f"{error_name(exc)}: {exc}"}
        wall = time.perf_counter() - t0
        probe_s = mean_probe(p0, self.host_probe())
        res = rec.result
        # The tracer's totals first: the calls below are traced too.
        layers = self.layer_record(res) if tr is not None else None
        out = {
            "wall_s": wall,
            "probe_s": probe_s,
            "error": None,
            "check": self.check(rec),
            "fp": fingerprint(res),
            "sim": {"makespan_s": res.makespan, "messages": rec.messages,
                    "bytes": rec.bytes_moved, "iterations": res.iterations},
        }
        if tr is not None:
            out["layers"] = layers
            self.write_spans(backend)
        return out

    def layer_record(self, res) -> dict:
        """Raw per-layer numbers of the run just traced."""
        tr = self.tracer
        self_s, calls = tr.layer_totals()
        rc_sends, _ = tr.by_name("ReliableChannel.send_g")
        creates, create_s = tr.by_name("RankContext.dist_graph_create_adjacent_g")
        rebuilds, rebuild_s = tr.by_name("RankContext.shrink_rebuild_topology_g")
        cuts, _ = tr.by_name("Engine._take_checkpoint")
        _, partition_s = tr.by_name("partition_graph")
        c = res.counters
        tot = c.total
        fault = res.fault_totals()
        return {
            "self_s": self_s,
            "calls": calls,
            "engine_wall": tr.engine_wall,
            "switches": res.engine.scheduler_switches,
            "ops": res.engine.total_ops,
            "partition_s": partition_s,
            "topology_creates": creates + rebuilds,
            "topology_create_s": create_s + rebuild_s,
            "probe_calls": tr.probe_calls,
            "probe_hits": tr.probe_hits,
            "p2p_messages": c.p2p.total_messages(),
            "p2p_bytes": c.p2p.total_bytes(),
            "ncl_messages": c.ncl.total_messages(),
            "rma_puts": int(tot("puts")),
            "rma_flushes": int(tot("flushes")),
            "rma_bytes": c.rma.total_bytes(),
            "agg_coalesced": int(tot("agg_msgs_coalesced")),
            "agg_batches": int(tot("agg_batches")),
            "agg_delivered": int(tot("agg_msgs_delivered")),
            "retransmits": fault["retransmits"],
            "dup_suppressed": fault["dup_suppressed"],
            "put_retries": fault["put_retries"],
            "agg_batch_retries": fault["agg_batch_retries"],
            "rc_sends": rc_sends,
            "cuts": cuts,
            "recoveries": (res.recovery or {}).get("recoveries", 0),
        }

    def write_spans(self, backend: str) -> None:
        tr = self.tracer
        out = self.root / ".bench_out" / "spans"
        out.mkdir(parents=True, exist_ok=True)
        cols = {k: np.frombuffer(v, dtype=v.typecode) if len(v) else np.array([])
                for k, v in tr.columns().items()}
        np.savez(out / f"{self.name}-{self.inst.seed}-{backend}.npz",
                 names=np.array(tr.names), layers=np.array(tr.layer_of), **cols)

    def install_tracer(self) -> dict:
        self.tracer = Tracer(threaded=RunConfig().engine == "threaded")
        install(self.tracer)
        return {}


def main() -> None:
    # The simulator runs one rank at a time, so one CPU is all it can use.
    # Pinning keeps the threaded engine's token hand-offs on one core;
    # left to the OS, hand-offs between cores make run times bimodal.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr  # keep the protocol stream clean
    cfg = RunConfig()
    root = Path(__file__).resolve().parents[1]
    hello = {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "networkx": networkx.__version__,
        "engine": cfg.engine, "scheduler": cfg.scheduler, "cpu": cpu,
    }
    proto.write(json.dumps(hello) + "\n")
    proto.flush()
    wl = Workload(root)
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "prepare":
            reply = wl.prepare(req["workload"], req["seed"])
        elif op == "generate":
            reply = wl.generate(req["instance"])
        elif op == "run":
            reply = wl.run(req["backend"])
        elif op == "trace":
            reply = wl.install_tracer()
        elif op == "exit":
            kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            proto.write(json.dumps({"maxrss_kb": kb}) + "\n")
            proto.flush()
            return
        else:
            raise ValueError(f"unknown request {op!r}")
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


if __name__ == "__main__":
    main()
