"""The measurement loop shared by every workload.

Untraced runs (``trace=False``) time passes over the workload's units —
generations for ``gen``, simulator episodes for the fleets — until the
run's seconds are spent (the first pass always completes), and report
the end-to-end metrics, timed in CPU seconds at reference speed (see
``measure.SpeedReference``).  Traced runs alternate an untraced pass with a
traced pass over the same units, check that both produce identical
outputs, and report the per-layer metrics from the traced passes.
Neither times the program's own event trace: the fleets check its
digest on untimed replays at the end of a traced run.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from repro.perf.speed import calibrate

from turbobench import gen
from turbobench.fleets import WORKLOADS as FLEETS
from turbobench.layers import LAYER_NAMES, all_targets, missing_sites
from turbobench.measure import RunLog, median, peak_rss_mb
from turbobench.tracer import Tracer

WORKLOADS = {"gen": gen.GenWorkload, **FLEETS}
SETUP_REPEATS = 3

#: name -> (unit, better).  ``gen_*`` metrics are the token-level view
#: and ``sim_*`` the request-level view; each workload reports every
#: metric on its own clock (see README.md, "End-to-end metrics").
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("1", "higher"),
    "gen_tok_s": ("tok/s", "higher"),
    "gen_ttft_p50_ms": ("ms", "lower"),
    "gen_itl_p50_ms": ("ms", "lower"),
    "gen_itl_p99_ms": ("ms", "lower"),
    "gen_logit_kl": ("nats", "lower"),
    "sim_req_s": ("req/s", "higher"),
    "sim_ttft_p50_s": ("s", "lower"),
    "sim_ttft_p99_s": ("s", "lower"),
    "sim_tpot_p99_ms": ("ms", "lower"),
    "sim_goodput_rps": ("req/s", "higher"),
    "sim_useful_ratio": ("1", "higher"),
}

#: Per-layer counters beyond ``<layer>.calls`` and ``<layer>.self_s``.
LAYER_EXTRAS: Dict[str, Tuple[str, str]] = {
    "core.prefill.tokens": ("count", "higher"),
    "core.decode.tokens": ("count", "higher"),
    "core.kvcache.flushes": ("count", "lower"),
    "core.kvcache.kv_bytes_ratio": ("1", "lower"),
    "quant.integer_gemm.int_ops": ("count", "lower"),
    "sas.softmax.elements": ("count", "lower"),
    "cluster.simulator.events": ("count", "lower"),
    "sim.kernel.scheduled": ("count", "lower"),
    "sim.kernel.fired": ("count", "lower"),
    "sim.kernel.cancelled": ("count", "lower"),
    "serving.engine.mean_batch": ("1", "higher"),
    "serving.engine.queue_wait_p50_s": ("s", "lower"),
    "serving.engine.queue_wait_p99_s": ("s", "lower"),
    "serving.allocator.peak_utilization": ("1", "higher"),
    "serving.allocator.fragmentation": ("1", "lower"),
    "serving.allocator.preemptions": ("count", "lower"),
    "prefix.pool.hit_ratio": ("1", "higher"),
    "prefix.pool.cow_copies": ("count", "lower"),
    "prefix.pool.evictions": ("count", "lower"),
    "migrate.payload.bytes_shipped": ("B", "lower"),
    "migrate.payload.intact_first_try_ratio": ("1", "higher"),
    "migrate.payload.drops": ("count", "lower"),
    "migrate.payload.corruptions": ("count", "lower"),
    "migrate.payload.salvage_tokens": ("count", "lower"),
    "recover.snapshot.bytes": ("B", "lower"),
    "recover.snapshot.usable_ratio": ("1", "higher"),
    "recover.snapshot.warm_restarts": ("count", "higher"),
    "recover.wal.records": ("count", "lower"),
    "core.serialization.bytes": ("B", "lower"),
    "overload.admit_ratio": ("1", "higher"),
    "overload.defers": ("count", "lower"),
    "overload.rejects": ("count", "lower"),
    "overload.brownout_tokens": ("count", "lower"),
    "cluster.faults.crashes": ("count", "lower"),
    "cluster.faults.retries": ("count", "lower"),
    "cluster.faults.wasted_tokens": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

PER_LAYER: Dict[str, Tuple[str, str]] = {}
for _layer in LAYER_NAMES:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
PER_LAYER.update(LAYER_EXTRAS)


class Runner:
    """One run of one workload: passes, checks and bookkeeping."""

    def __init__(self, workload, log: RunLog):
        self.w = workload
        self.log = log

    def unit(self, i: int, runs, phase: str, reference=None) -> None:
        """Run unit ``i`` once; compare it with ``reference`` when given,
        else run the unit's known-answer checks."""
        ph = self.log.phase(phase)
        size = self.w.unit_size(i)
        ph.attempted += size
        try:
            out = self.w.run_unit(i)
        except Exception as exc:  # a unit that raises is a failed unit
            ph.failed += size
            self.log.check("no_exceptions", False)
            self.log.notes.setdefault("errors", []).append(f"{phase}[{i}]: {exc!r}")
            return
        if reference is None:
            ok = self.w.check_unit(self.log, i, out)
        else:
            ok = self.log.check(f"{phase}.replays_first_pass", out.same_output(reference))
        if ok:
            ph.refused += self.w.refused(out)
        else:
            ph.failed += size
        # Repeats keep only their timings: holding every repeat's
        # per-request records would slow the collector pass by pass.
        runs.setdefault(i, []).append(out if reference is None else out.timings())

    def reference(self, runs, i: int):
        return runs[i][0] if runs.get(i) else None

    def untraced(self, seconds: float) -> Dict[int, List[object]]:
        runs: Dict[int, List[object]] = {}
        start = perf_counter()
        n_pass = 0
        while not n_pass or perf_counter() - start < seconds:
            for i in range(self.w.n_units):
                if n_pass and not self.w.whole_passes and perf_counter() - start >= seconds:
                    break
                self.unit(i, runs, "untraced", self.reference(runs, i) if n_pass else None)
            n_pass += 1
            self.log.probe(calibrate)
        self.log.notes["passes"] = n_pass
        return runs

    def traced(self, seconds: float, out_dir: Path, tag: str):
        """Alternate untraced and traced passes; returns the untraced
        outcomes and one tracer per traced pass."""
        runs: Dict[int, List[object]] = {}
        traced_runs: Dict[int, List[object]] = {}
        walls: Dict[str, List[float]] = {"untraced": [], "traced": []}
        tracers: List[Tracer] = []
        begin = perf_counter()
        # Start another pair of passes only if it should end in time.
        while not tracers or (perf_counter() - begin) * (1 + 1 / len(tracers)) <= seconds:
            first = not tracers
            start = perf_counter()
            for i in range(self.w.n_units):
                self.unit(i, runs, "untraced", None if first else self.reference(runs, i))
            walls["untraced"].append(perf_counter() - start)
            tracer = Tracer()
            tracer.install(all_targets())
            start = perf_counter()
            try:
                for i in range(self.w.n_units):
                    self.unit(i, traced_runs, "traced", self.reference(runs, i))
            finally:
                tracer.uninstall()
            walls["traced"].append(perf_counter() - start)
            tracers.append(tracer)
            self.log.probe(calibrate)
        self.log.notes.update({
            "passes": len(tracers),
            "spans_kept": len(tracers[0].spans),
            "spans_dropped": tracers[0].dropped_spans,
        })
        self.log.check("trace.binding_sites", not missing_sites(tracers[0]))
        self.log.notes["missing_sites"] = missing_sites(tracers[0])
        self.log.check(
            "trace.calls_repeat",
            all(t.spec_calls == tracers[0].spec_calls for t in tracers),
        )
        self.w.cross_check(self.log, tracers[0], runs)
        self.w.trace_replay(self.log, runs, Tracer())
        write_spans(tracers[0], out_dir / f"spans-{tag}.jsonl.gz")
        return runs, tracers, walls


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for sid, parent, layer, name, start, end in tracer.spans:
            fh.write(json.dumps([sid, parent, layer, name, start, end]) + "\n")


def layer_metrics(workload, runs, tracers: List[Tracer], walls) -> Dict[str, float]:
    first = tracers[0]
    out: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.calls"] = first.layers[layer][0]
        out[f"{layer}.self_s"] = median([t.layers[layer][1] for t in tracers])
    c = first.counts
    steps = c["serving.engine.steps"]
    offered = c["overload.offered"]
    out.update({
        "core.prefill.tokens": c["core.prefill.tokens"],
        "core.kvcache.flushes": c["core.kvcache.flushes"],
        "quant.integer_gemm.int_ops": c["quant.integer_gemm.int_ops"],
        "sas.softmax.elements": c["sas.softmax.elements"],
        "serving.engine.mean_batch": c["serving.engine.batch_sum"] / steps if steps else 0.0,
        "serving.allocator.peak_utilization": c["serving.allocator.peak_utilization"],
        "serving.allocator.fragmentation": (
            c["serving.allocator.fragmentation_sum"] / steps if steps else 0.0
        ),
        "recover.wal.records": float(first.spec_calls["repro.recover.wal:WriteAheadLog.append"]),
        "core.serialization.bytes": c["core.serialization.bytes"],
        "overload.admit_ratio": c["overload.accepts"] / offered if offered else 0.0,
        "overload.defers": c["overload.defers"],
        "overload.rejects": c["overload.rejects"],
        "trace.wall_s": median(walls["traced"]),
        "trace.untraced_wall_s": median(walls["untraced"]),
        "trace.overhead_s": median(walls["traced"]) - median(walls["untraced"]),
    })
    out.update(workload.layer_counts(runs))
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER}


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_span: Tuple[float, float],
    out_dir: Path,
    short: bool = False,
) -> Tuple[dict, dict]:
    """One benchmark run; returns ``(result line, conditions)``.
    ``import_span`` is the interval of ``measure.clock`` the imports took."""
    log = RunLog()
    workload = WORKLOADS[name](seed, short=short)
    ref = workload.ref
    setups = []
    runner = Runner(workload, log)
    # Set-up and the untraced passes are timed at reference speed; the
    # traced run reports wall-clock spans, so no probe runs inside them.
    with ref.sampling():
        # The first probe stands for the speed the imports ran at.
        import_s = ref.scale(*import_span)
        for _ in range(SETUP_REPEATS):
            start = ref.now()
            workload.setup()
            setups.append(ref.scale(start, ref.now()))
        log.probe(calibrate)
        if not trace:
            runs = runner.untraced(seconds)
    if trace:
        runs, tracers, walls = runner.traced(seconds, out_dir, f"{name}-seed{seed}")
        values = layer_metrics(workload, runs, tracers, walls)
        table = PER_LAYER
        log.notes["tracing_overhead_s"] = values["trace.overhead_s"]
    else:
        values = workload.end_to_end(runs, log)
        table = END_TO_END
    workload.final_checks(log)
    kl = gen.quality_kl()
    log.check("quality.kl_positive", kl > 0.0)
    log.check("quality.kl_bound", kl <= gen.KL_MAX)
    log.probe(calibrate)
    totals = log.totals()
    values["setup_s"] = import_s + median(setups)
    values.update({
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": 1.0 - (totals["failed"] + totals["refused"]) / totals["attempted"],
        "gen_logit_kl": kl,
    })
    log.notes.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "import_s": import_s, "setup_repeats_s": setups, "gen_logit_kl": kl,
        "speed_probe_s": workload.ref.summary(),
    })
    result = {
        "correct": log.correct,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {k: {"value": values[k], "unit": table[k][0]} for k in table},
    }
    return result, log.conditions()
