"""Wall-clock benchmark of real matching runs, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload rgg-sparse --seed 1 --seconds 55 --trace 0

One closed-loop client: a single workload process runs one
``repro.api.run`` at a time, each backend in turn, and the next starts
when the previous one returns. A *pass* is graph generation plus one run
per backend, i.e. one figure point. Passes repeat until ``--seconds`` is
spent. Every run is checked against the serial locally-dominant
matching and against the first repetition's simulated fingerprint.

``--trace 0`` prints the end-to-end metrics. Their times are scaled to a
reference host speed by a probe timed next to each call (``probe.py``);
the raw wall-time medians are printed beside them. ``--trace 1`` runs one
untraced pass, then traced passes, and prints the per-layer metrics
(see ``perfbench/WHY.md``). The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import probe, scaled
from tracer import ENGINE_LAYERS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rmat-dense", "rgg-sparse", "rmat-faults")
BACKENDS = ("nsr", "nsr-agg", "rma", "ncl", "mbp")
SETUPS = 5  #: workload-process starts per invocation; setup_s is their median
BUDGET_S = {"start": 60.0, "prepare": 60.0, "generate": 30.0, "run": 60.0,
            "traced": 120.0, "exit": 30.0}
#: Past this many seconds after start no further run begins and every
#: request's budget is cut to what is left, so a hanging program still
#: ends the benchmark within three minutes.
DEADLINE_S = 150.0


class RunTimeout(Exception):
    """A request outlived its wall budget; the worker was killed."""


class WorkerDied(Exception):
    """The workload process exited without answering."""


class Worker:
    """One workload process, spoken to in JSON lines."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if k != "REPRO_ENGINE"}
        env["PYTHONPATH"] = str(ROOT / "src")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
        )
        self._buf = b""
        self.hello = self._reply(BUDGET_S["start"])
        self.setup_s = time.perf_counter() - t0

    def call(self, budget: str, **request) -> dict:
        try:
            self.proc.stdin.write(json.dumps(request).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerDied(self.kill()) from None
        left = self.deadline - time.monotonic()
        return self._reply(max(min(BUDGET_S[budget], left), 1.0))

    def _reply(self, budget: float) -> dict:
        deadline = time.monotonic() + budget
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                self.kill()
                raise RunTimeout(f"no reply within {budget:g} s")
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise WorkerDied(self.kill())
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def kill(self) -> str:
        if self.proc.poll() is None:
            self.proc.kill()
        code = self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            f.close()
        return f"worker exited with code {code}"

    def close(self) -> int:
        """Stop the process; returns its peak resident memory in kB."""
        kb = self.call("exit", op="exit")["maxrss_kb"]
        self.proc.wait(timeout=BUDGET_S["exit"])
        self.kill()
        return kb


class Bench:
    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failures: list[str] = []
        self.first_fp: dict[tuple[int, str], list] = {}
        self.rss_kb = 0
        self.worker: Worker | None = None
        self.traced = False
        self.deadline = time.monotonic() + DEADLINE_S

    # -- the workload process ------------------------------------------
    def start(self) -> None:
        self.worker = w = Worker(self.deadline)
        self.prep = w.call("prepare", op="prepare",
                           workload=self.args.workload, seed=self.args.seed)
        if self.traced:
            w.call("prepare", op="trace")

    def restart(self, instance: int) -> None:
        """Replace a killed workload process, on the same graph; leaves
        none once the deadline has passed or the new one fails too."""
        self.worker = None
        if time.monotonic() > self.deadline:
            return
        try:
            self.start()
            self.worker.call("generate", op="generate", instance=instance)
        except (RunTimeout, WorkerDied):
            self.worker = None

    def setup(self, times: int) -> list[tuple[float, float]]:
        """Start the workload process ``times`` times, keeping the last;
        returns each start's wall time and the mean of the host-speed
        probes run before and after it."""
        setups: list[tuple[float, float]] = []
        for i in range(times):
            p0 = probe()
            if i < times - 1:
                w = Worker(self.deadline)
                self.rss_kb = max(self.rss_kb, w.close())
            else:
                self.start()
                w = self.worker
            setups.append((w.setup_s, (p0 + probe()) / 2))
        return setups

    def finish(self) -> None:
        if self.worker is not None:
            self.rss_kb = max(self.rss_kb, self.worker.close())
            self.worker = None

    # -- one pass ------------------------------------------------------
    def fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")
        print(f"  FAILED {label}: {why}", flush=True)

    def one_pass(self, label: str, instance: int) -> dict:
        """Graph generation plus one run per backend."""
        rec: dict = {"runs": {}, "instance": instance}
        gen = self.worker.call("generate", op="generate", instance=instance)
        if not gen["same"]:
            raise RuntimeError("graph generation is not deterministic")
        rec["gen_s"] = sweep = gen["gen_s"]
        sweep_ref = scaled(gen["gen_s"], gen["probe_s"]) if not self.traced else 0.0
        for b in BACKENDS:
            self.attempted += 1
            tag = f"{label} {b}"
            if self.worker is None:
                self.fail(tag, "not started: workload process lost near "
                          f"the {DEADLINE_S:g} s deadline")
                continue
            try:
                out = self.worker.call("traced" if self.traced else "run",
                                       op="run", backend=b)
            except (RunTimeout, WorkerDied) as exc:
                self.fail(tag, f"{type(exc).__name__}: {exc}")
                sweep += BUDGET_S["traced" if self.traced else "run"]
                sweep_ref += BUDGET_S["traced" if self.traced else "run"]
                self.restart(instance)
                continue
            sweep += out["wall_s"]
            if out.get("probe_s") is not None:
                out["ref_s"] = scaled(out["wall_s"], out["probe_s"])
                sweep_ref += out["ref_s"]
            why = out.get("error") or out.get("check")
            if why is None:
                fp = self.first_fp.setdefault((instance, b), out["fp"])
                if out["fp"] != fp:
                    why = f"fingerprint {out['fp']} != first repetition {fp}"
            print(f"  {tag:<22} {out['wall_s']:8.3f} s"
                  f"  {'ok' if why is None else ''}", flush=True)
            if why is not None:
                self.fail(tag, why)
                continue
            rec["runs"][b] = out
        rec["sweep_s"], rec["sweep_ref_s"] = sweep, sweep_ref
        return rec

    def passes(self, seconds: float, label: str, cycle: bool) -> list[dict]:
        """Repeat passes while another one fits into ``seconds``; with
        ``cycle``, pass ``i`` uses graph instance ``i`` modulo their
        number, else always instance 0."""
        t0 = time.monotonic()
        recs: list[dict] = []
        while True:
            n = len(recs)
            inst = n % len(self.prep["instances"]) if cycle else 0
            recs.append(self.one_pass(f"{label} {n + 1}", inst))
            took = (time.monotonic() - t0) / len(recs)
            if (time.monotonic() - t0 + took > seconds
                    or self.worker is None):
                return recs


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10  # samples at or below the reported one
    q = 100.0 * k / n
    return q, sorted(values)[k - 1]


def end_to_end(recs: list[dict], setups: list[tuple[float, float]],
               rss_kb: int):
    """Times scaled to the reference host speed, and per time metric
    the raw wall times it came from."""
    m = {
        "setup_s": (statistics.median(scaled(*s) for s in setups), "s"),
        "sweep_s": (statistics.median(r["sweep_ref_s"] for r in recs), "s"),
    }
    walls = {"setup_s": [s[0] for s in setups],
             "sweep_s": [r["sweep_s"] for r in recs]}
    samples = {}
    for b in BACKENDS:
        runs = [r["runs"][b] for r in recs if b in r["runs"]]
        samples[b] = [out["ref_s"] for out in runs]
        walls[f"run_s.{b}"] = [out["wall_s"] for out in runs]
        if runs:
            m[f"run_s.{b}"] = (statistics.median(samples[b]), "s")
    m["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return m, samples, walls


def per_layer(rec: dict, prep: dict, untraced_sweep: float) -> dict:
    """Per-layer metrics of one traced pass."""
    runs = rec["runs"]
    graph = prep["instances"][rec["instance"]]
    lay = {b: out["layers"] for b, out in runs.items()}

    def tot(key: str) -> float:
        return sum(v[key] for v in lay.values())

    def self_s(layer: str) -> float:
        return sum(v["self_s"][layer] for v in lay.values())

    def calls(layer: str) -> int:
        return sum(v["calls"][layer] for v in lay.values())

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    run_s = tot("engine_wall")
    m = {
        "graph.generate_s": (rec["gen_s"], "s"),
        "graph.partition_s": (tot("partition_s"), "s"),
        "graph.ghost_edges": (graph["ghost_edges"], "count"),
        "graph.proc_degree_max": (graph["proc_degree_max"], "count"),
        "engine.run_s": (run_s, "s"),
        "engine.sched_self_s": (self_s("engine"), "s"),
        "engine.switches": (tot("switches"), "count"),
        "engine.ops": (tot("ops"), "count"),
        "engine.events_per_s": (ratio(tot("ops"), run_s), "1/s"),
        "engine.us_per_switch": (1e6 * ratio(self_s("engine"), tot("switches")),
                                 "us"),
        "p2p.calls": (calls("p2p"), "count"),
        "p2p.self_s": (self_s("p2p"), "s"),
        "p2p.messages": (tot("p2p_messages"), "count"),
        "p2p.bytes": (tot("p2p_bytes"), "bytes"),
        "p2p.probe_hit_ratio": (ratio(tot("probe_hits"), tot("probe_calls")),
                                "ratio"),
        "coll.calls": (calls("coll"), "count"),
        "coll.self_s": (self_s("coll"), "s"),
        "coll.messages": (tot("ncl_messages"), "count"),
        "topology.creates": (tot("topology_creates"), "count"),
        "topology.create_s": (tot("topology_create_s"), "s"),
        "rma.puts": (tot("rma_puts"), "count"),
        "rma.flushes": (tot("rma_flushes"), "count"),
        "rma.bytes": (tot("rma_bytes"), "bytes"),
        "rma.self_s": (self_s("rma"), "s"),
        "agg.coalesced": (tot("agg_coalesced"), "count"),
        "agg.batches": (tot("agg_batches"), "count"),
        "agg.coalesce_ratio": (ratio(tot("agg_coalesced"), tot("agg_batches")),
                               "ratio"),
        "agg.self_s": (self_s("agg"), "s"),
        "agg.undelivered": (tot("agg_coalesced") - tot("agg_delivered"),
                            "count"),
        "machine.calls": (calls("machine"), "count"),
        "machine.self_s": (self_s("machine"), "s"),
        "instr.calls": (calls("instr"), "count"),
        "instr.self_s": (self_s("instr"), "s"),
        "post.self_s": (self_s("post"), "s"),
        "faults.retransmits": (tot("retransmits"), "count"),
        "faults.dup_suppressed": (tot("dup_suppressed"), "count"),
        "faults.put_retries": (tot("put_retries"), "count"),
        "faults.agg_batch_retries": (tot("agg_batch_retries"), "count"),
        "reliable.self_s": (self_s("reliable"), "s"),
        "reliable.useful_ratio": (
            ratio(tot("rc_sends"), tot("rc_sends") + tot("retransmits")),
            "ratio"),
        "checkpoint.cuts": (tot("cuts"), "count"),
        "checkpoint.self_s": (self_s("checkpoint"), "s"),
        "recovery.recoveries": (tot("recoveries"), "count"),
        "recovery.self_s": (self_s("recovery"), "s"),
    }
    for b, out in runs.items():
        m[f"matching.self_s.{b}"] = (out["layers"]["self_s"]["matching"], "s")
        m[f"matching.iterations.{b}"] = (out["sim"]["iterations"], "count")
    for b, out in runs.items():
        m[f"sim.makespan_s.{b}"] = (out["sim"]["makespan_s"], "s")
        m[f"sim.messages.{b}"] = (out["sim"]["messages"], "count")
        m[f"sim.bytes.{b}"] = (out["sim"]["bytes"], "bytes")
    m["trace.overhead_ratio"] = (ratio(rec["sweep_s"], untraced_sweep), "ratio")
    m["trace.unattributed_s"] = (
        run_s - sum(self_s(layer) for layer in ENGINE_LAYERS), "s")
    return m


def layer_table(rec: dict) -> None:
    """Each backend's self time per layer and its share of the run."""
    print("self time per layer (s, share of the traced run's wall time)")
    print(f"  {'layer':<11}" + "".join(f"{b:>17}" for b in rec["runs"]))
    for layer in LAYERS + ("unattributed",):
        row = f"  {layer:<11}"
        for out in rec["runs"].values():
            lay = out["layers"]
            if layer == "unattributed":
                s = lay["engine_wall"] - sum(lay["self_s"][x] for x in ENGINE_LAYERS)
            else:
                s = lay["self_s"][layer]
            row += f"{s:10.3f} {100 * s / out['wall_s']:5.1f}%"
        print(row)


def median_metrics(passes: list[dict]) -> dict:
    out = {}
    for name, (_, unit) in passes[0].items():
        out[name] = (statistics.median(p[name][0] for p in passes), unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # The host-speed probes of the set-up run here; share the workload
    # process's CPU (it pins itself to the highest one).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    bench = Bench(args)
    try:
        setups = bench.setup(1 if args.trace else SETUPS)
        hello, prep = bench.worker.hello, bench.prep
        print(f"# workload {args.workload} seed {args.seed} seconds "
              f"{args.seconds:g} trace {args.trace}")
        print(f"# python {hello['python']} numpy {hello['numpy']} scipy "
              f"{hello['scipy']} networkx {hello['networkx']} nproc {nproc} "
              f"engine {hello['engine']} scheduler {hello['scheduler']} "
              f"pinned to cpu {hello['cpu']}")
        for i, st in enumerate(prep["instances"]):
            print(f"# graph {i}: {st['vertices']} vertices {st['edges']} edges,"
                  f" P={prep['nprocs']}, {st['ghost_edges']} cross edges, "
                  f"process-graph degree max {st['proc_degree_max']}")
        if args.trace:
            base = bench.one_pass("untraced", 0)
            traced = []
            if bench.worker is not None:
                bench.traced = True
                bench.worker.call("prepare", op="trace")
                traced = bench.passes(max(args.seconds - base["sweep_s"], 0.0),
                                      "traced", cycle=False)
            bench.finish()
            done = [r for r in traced if len(r["runs"]) == len(BACKENDS)]
            metrics = {}
            if done:
                layer_table(done[0])
                metrics = median_metrics(
                    [per_layer(r, prep, base["sweep_s"]) for r in done])
        else:
            recs = bench.passes(args.seconds, "pass", cycle=True)
            bench.finish()
            metrics, samples, walls = end_to_end(recs, setups, bench.rss_kb)
    finally:
        if bench.worker is not None:
            bench.worker.kill()

    print(f"{'metric':<28}{'value':>16}  unit")
    for name, (value, unit) in metrics.items():
        extra = ""
        b = name.partition(".")[2]
        if not args.trace and name in walls:
            extra = f"   wall median {statistics.median(walls[name]):.4f}"
        if not args.trace and name.startswith("run_s."):
            tail = tail_percentile(samples[b])
            extra += (f", n={len(samples[b])}, " + (
                "no percentile has 10 samples beyond it" if tail is None
                else f"p{tail[0]:.0f}={tail[1]:.4f}"))
        print(f"{name:<28}{value:>16.6g}  {unit}{extra}")
    failed = len(bench.failures)
    print(f"{'fail_ratio':<28}{failed / max(bench.attempted, 1):>16.6g}  ratio"
          f"   ({failed} of {bench.attempted} runs)")
    for f in bench.failures:
        print(f"# failed {f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
