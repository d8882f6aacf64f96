"""Span tracer for the benchmark's traced run.

The library is left unchanged: :func:`install` replaces the public
functions and methods of each simulator layer, at run time and inside the
workload process only, with wrappers that record one span per call.

A span has a name, a start, an end and a parent span; spans of one
``api.run`` are kept in memory (columnar arrays) and written out by the
caller when the run ends. A span's self time is its duration minus the
part its child spans cover; a layer's self time is the sum over its
spans.

Two properties of the simulator shape the clocks:

* Time a rank spends parked is not its layer's time. Under the threaded
  engine a blocking primitive waits inside the call while other ranks
  run, so spans there read the per-thread CPU clock. Under the generator
  engines a rank is a generator stepped by the scheduler; its clock
  advances only while it holds the execution token, so each resumption
  of a ``_g`` generator is timed and the parked gaps are not.
* Span stacks are kept per rank, not per OS thread: the coroutine and
  vector engines run every rank on one thread. The rank holding the
  token is taken from the scheduler's token hand-off
  (``Engine._switch_to``); code outside any rank runs on the
  scheduler's stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

#: Layer of each ``RankContext`` method that is not point-to-point.
_CONTEXT_LAYERS = {
    "coll": (
        "barrier", "allreduce", "bcast", "gather", "allgather", "alltoall",
        "agree", "agree_gather", "shrink_rebuild_topology", "revoke_topology",
        "dist_graph_create_adjacent",
    ),
    "rma": ("win_allocate", "win_allocate_survivor"),
    "agg": ("aggregator", "send_init", "waitall"),
    "machine": ("compute",),
    "instr": ("alloc", "free", "counters", "prof_stage", "prof_iteration"),
    "faults": ("failed_ranks", "is_failed"),
    "checkpoint": (
        "checkpoint_tick", "register_checkpoint_provider", "resume_app_state",
        "reissue_parked_wait",
    ),
}

#: Layer of each ``Engine`` method that is not the scheduler's own. The
#: two private entries are where the engine takes a coordinated cut and
#: rolls back after a crash; neither has a public entry point.
_ENGINE_LAYERS = {
    "p2p": ("post_message", "queue_of", "clock_of"),
    "machine": ("charge_compute", "charge_comm"),
    "instr": ("trace_event", "rank_counters"),
    "coll": ("new_scope_id", "next_coll_key", "coll_ops", "shared_object"),
    "rma": ("note_put", "flush_window", "next_put_index"),
    "faults": (
        "failure_wake_potential", "consume_failure_notifications",
        "crashed_at", "crashed_at_live", "revoke_scope", "scope_revocation",
    ),
    "checkpoint": (
        "checkpoint_tick", "register_checkpoint_provider", "_take_checkpoint",
    ),
    "recovery": ("_perform_recovery", "recovery_report"),
}

#: (module, layer) for every module whose public classes and functions
#: are traced wholesale.
_MODULE_LAYERS = (
    ("repro.mpisim.message", "p2p"),
    ("repro.mpisim.collectives", "coll"),
    ("repro.mpisim.topology", "coll"),
    ("repro.mpisim.window", "rma"),
    ("repro.mpisim.aggregate", "agg"),
    ("repro.mpisim.machine", "machine"),
    ("repro.mpisim.counters", "instr"),
    ("repro.mpisim.tracing", "instr"),
    ("repro.mpisim.faults", "faults"),
    ("repro.mpisim.checkpoint", "checkpoint"),
    ("repro.matching.reliable", "reliable"),
    ("repro.matching.state", "matching"),
    ("repro.matching.nsr", "matching"),
    ("repro.matching.nsr_agg", "matching"),
    ("repro.matching.rma", "matching"),
    ("repro.matching.ncl", "matching"),
    ("repro.matching.mbp", "matching"),
)

#: Single functions: (module, name, layer). ``run_matching`` calls them
#: between partitioning and assembling the result.
_FUNCTIONS = (
    ("repro.graph.distribution", "partition_graph", "graph"),
    ("repro.matching.driver", "matching_rank_main", "matching"),
    ("repro.matching.verify", "assemble_global_mate", "post"),
    ("repro.matching.verify", "restrict_mate_to_survivors", "post"),
    ("repro.matching.serial", "matching_weight", "post"),
)

#: Layers whose spans run inside ``Engine.run``; the others (partition,
#: post-processing) run before or after it.
ENGINE_LAYERS = (
    "engine", "p2p", "coll", "rma", "agg", "machine", "instr", "matching",
    "faults", "reliable", "checkpoint", "recovery",
)
LAYERS = ENGINE_LAYERS + ("graph", "post")

_SCHED = -1  #: span-stack key of the scheduler (no rank holds the token)


class Tracer:
    """Per-rank span stacks, span storage and per-name totals."""

    def __init__(self, threaded: bool):
        self.threaded = threaded
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.current = _SCHED
        # generator engines: token time accumulated per stack key
        self._held: dict[int, float] = {}
        self._resumed_at = time.perf_counter()
        self.reset()

    def name_id(self, layer: str, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def reset(self) -> None:
        """Forget the previous run's spans and totals."""
        self._stacks: dict[int, list] = {}
        self.parent = array("i")
        self.rank = array("i")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count: list[int] = []
        self.incl: list[float] = []
        self.self_t: list[float] = []
        self.engine_wall = 0.0
        self.run_span = -1
        self.probe_calls = 0
        self.probe_hits = 0

    # -- clocks --------------------------------------------------------
    def clock(self, key: int) -> float:
        if self.threaded:
            return time.thread_time()
        held = self._held.get(key, 0.0)
        if key == self.current:
            held += time.perf_counter() - self._resumed_at
        return held

    def handoff(self, key: int) -> int:
        """Give the token to ``key``; returns the previous holder."""
        prev = self.current
        if not self.threaded:
            now = time.perf_counter()
            self._held[prev] = self._held.get(prev, 0.0) + now - self._resumed_at
            self._resumed_at = now
        self.current = key
        return prev

    # -- spans ---------------------------------------------------------
    def enter(self, nid: int):
        key = self.current
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
        t0 = self.clock(key)
        idx = len(self.name)
        self.parent.append(stack[-1][0] if stack else self.run_span)
        self.rank.append(key)
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t0)
        frame = [idx, t0, 0.0, nid]
        stack.append(frame)
        return stack, key, frame

    def exit(self, token) -> None:
        stack, key, frame = token
        t1 = self.clock(key)
        idx, t0, children, nid = frame
        if stack[-1] is frame:
            stack.pop()
        else:  # unwound out of order (teardown); keep the other frames
            stack.remove(frame)
        dur = t1 - t0
        self.end[idx] = t1
        n = len(self.count)
        if nid >= n:
            grow = nid + 1 - n
            self.count.extend([0] * grow)
            self.incl.extend([0.0] * grow)
            self.self_t.extend([0.0] * grow)
        self.count[nid] += 1
        self.incl[nid] += dur
        self.self_t[nid] += dur - children
        if stack:
            stack[-1][2] += dur

    # -- results -------------------------------------------------------
    def by_name(self, name: str) -> tuple[int, float]:
        """(calls, inclusive seconds) of one traced function."""
        nid = self._ids.get(name)
        if nid is None or nid >= len(self.count):
            return 0, 0.0
        return self.count[nid], self.incl[nid]

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self seconds, calls) per layer for the current run."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for nid, n in enumerate(self.count):
            layer = self.layer_of[nid]
            self_s[layer] += self.self_t[nid]
            calls[layer] += n
        return self_s, calls

    def columns(self) -> dict[str, array]:
        return {"parent": self.parent, "rank": self.rank, "name": self.name,
                "start": self.start, "end": self.end}


def _span_wrapper(tracer: Tracer, nid: int, fn):
    """``fn`` recording one span per call (per generator run)."""
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            token = tracer.enter(nid)
            try:
                return (yield from fn(*args, **kwargs))
            finally:
                tracer.exit(token)
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = tracer.enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(token)
    return traced


def _probe_counter(tracer: Tracer, fn):
    """Count iprobes and the ones that found a message."""
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def counted_gen(*args, **kwargs):
            hdr = yield from fn(*args, **kwargs)
            tracer.probe_calls += 1
            tracer.probe_hits += hdr is not None
            return hdr
        return counted_gen

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        hdr = fn(*args, **kwargs)
        tracer.probe_calls += 1
        tracer.probe_hits += hdr is not None
        return hdr
    return counted


def _rebind(old, new) -> None:
    """Point every ``repro`` module's reference to ``old`` at ``new``
    (covers ``from module import name`` in other modules)."""
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("repro") or mod is None:
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def _wrap_class(tracer: Tracer, cls, layer_for) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("__"):
            continue
        layer = layer_for(attr)
        if layer is None:
            continue
        kind = type(raw)
        fn = raw.__func__ if kind in (staticmethod, classmethod) else raw
        if not inspect.isfunction(fn):
            continue  # properties, constants
        wrapped = _span_wrapper(
            tracer, tracer.name_id(layer, f"{cls.__name__}.{attr}"), fn)
        if attr == "iprobe_g" and cls.__name__ == "RankContext":
            wrapped = _probe_counter(tracer, wrapped)
        setattr(cls, attr, kind(wrapped) if fn is not raw else wrapped)


def install(tracer: Tracer) -> None:
    """Trace every layer in this process (cannot be undone)."""
    # Imported here: run.py imports this module for its layer names in a
    # process that never imports repro.
    from repro.mpisim.context import RankContext
    from repro.mpisim.engine import Engine

    def context_layer(attr):
        if attr.startswith("_"):
            return None
        base = attr[:-2] if attr.endswith("_g") else attr
        for layer, names in _CONTEXT_LAYERS.items():
            if base in names:
                return layer
        return "p2p"

    engine_private = {n for ns in _ENGINE_LAYERS.values() for n in ns
                      if n.startswith("_")}

    def engine_layer(attr):
        if attr.startswith("_") and attr not in engine_private:
            return None
        if attr == "run":
            return None  # wrapped below with its wall clock
        for layer, names in _ENGINE_LAYERS.items():
            if attr in names:
                return layer
        return "engine"

    _wrap_class(tracer, RankContext, context_layer)
    _wrap_class(tracer, Engine, engine_layer)

    for modname, layer in _MODULE_LAYERS:
        mod = importlib.import_module(modname)
        for attr, val in list(vars(mod).items()):
            if getattr(val, "__module__", None) != modname or attr.startswith("_"):
                continue
            if inspect.isclass(val):
                _wrap_class(tracer, val, lambda a, layer=layer:
                            None if a.startswith("_") else layer)
            elif inspect.isfunction(val):
                _rebind(val, _span_wrapper(
                    tracer, tracer.name_id(layer, f"{modname}.{attr}"), val))

    for modname, attr, layer in _FUNCTIONS:
        fn = getattr(importlib.import_module(modname), attr)
        _rebind(fn, _span_wrapper(tracer, tracer.name_id(layer, attr), fn))

    run_nid = tracer.name_id("engine", "Engine.run")
    orig_run = Engine.run

    @functools.wraps(orig_run)
    def traced_run(self, *args, **kwargs):
        t0 = time.perf_counter()
        token = tracer.enter(run_nid)
        outer, tracer.run_span = tracer.run_span, token[2][0]
        try:
            return orig_run(self, *args, **kwargs)
        finally:
            tracer.exit(token)
            tracer.run_span = outer
            tracer.engine_wall += time.perf_counter() - t0

    Engine.run = traced_run

    orig_switch = Engine._switch_to

    @functools.wraps(orig_switch)
    def traced_switch(self, rs):
        prev = tracer.handoff(rs.rank)
        try:
            return orig_switch(self, rs)
        finally:
            tracer.handoff(prev)

    Engine._switch_to = traced_switch
