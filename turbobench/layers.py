"""The layers the traced run attributes wall time to.

A layer is a module path under ``src/repro``; its boundary is the set of
public callables listed for it.  Hooks add work counters measured where
the work happens (from call arguments and results).  ``EXPECTED_SITES``
names modules that import a function by name: the tracer must find and
patch each of them, or the run fails its coverage check.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from turbobench.tracer import Target, Tracer


def _int_ops(tracer: Tracer, args, kwargs, result) -> None:
    # (..., m, k) @ (..., k, n): one multiply and one add per product term.
    a = args[0]
    tracer.counts["quant.integer_gemm.int_ops"] += 2.0 * result.size * a.shape[-1]


def _sas_elements(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["sas.softmax.elements"] += args[1].size


def _prefill_tokens(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["core.prefill.tokens"] += args[0].shape[1]


def _flush(tracer: Tracer, args, kwargs, result) -> None:
    # A block appended while a decode step is open is a buffer flush;
    # prefill appends its own blocks outside any decode step.
    if tracer.open["core.decode"]:
        tracer.counts["core.kvcache.flushes"] += 1


def _serialized_bytes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["core.serialization.bytes"] += sum(a.nbytes for a in result.values())


def _admission(tracer: Tracer, args, kwargs, result) -> None:
    verdict = result[0].value
    tracer.counts["overload.offered"] += 1
    tracer.counts[f"overload.{verdict}s"] += 1


def _engine_step(tracer: Tracer, args, kwargs, result) -> None:
    engine = args[0]
    alloc = engine.allocator
    c = tracer.counts
    c["serving.engine.steps"] += 1
    c["serving.engine.batch_sum"] += len(engine.running)
    c["serving.allocator.peak_utilization"] = max(
        c["serving.allocator.peak_utilization"], alloc.utilization
    )
    c["serving.allocator.fragmentation_sum"] += alloc.internal_fragmentation


#: layer -> traced callables (``module:qualname``), in report order.
LAYERS: List[Tuple[str, List[Target]]] = []


def _layer(name: str, *specs) -> None:
    targets = []
    for spec in specs:
        hook = None
        if isinstance(spec, tuple):
            spec, hook = spec
        targets.append(Target(name, spec, hook))
    LAYERS.append((name, targets))


_layer("models.transformer",
       "repro.models.transformer:TransformerLM.prefill",
       "repro.models.transformer:TransformerLM.decode_step")
_layer("quant.weights", "repro.quant.weights:DenseLinear.__call__")
_layer("fp.formats", "repro.fp.formats:fp16_matmul")
_layer("core.prefill", ("repro.core.prefill:turbo_prefill", _prefill_tokens))
_layer("core.decode", "repro.core.decode:turbo_decode_step")
_layer("core.kvcache",
       ("repro.core.kvcache:QuantizedKVCache.append_block", _flush),
       "repro.core.kvcache:QuantizedKVCache.iter_decompressed")
_layer("core.buffer", "repro.core.buffer:DecodeBuffer.append")
_layer("quant.progressive",
       "repro.quant.progressive:pq_compress",
       "repro.quant.progressive:pq_decompress_to_int8")
_layer("quant.integer_gemm", ("repro.quant.integer_gemm:int_matmul", _int_ops))
_layer("sas.softmax", ("repro.sas.softmax:SAS.__call__", _sas_elements))
_layer("cluster.simulator", "repro.cluster.simulator:ClusterSimulator.run")
_layer("cluster.router",
       "repro.cluster.router:RoundRobinRouter.choose",
       "repro.cluster.router:LeastOutstandingTokensRouter.choose",
       "repro.cluster.router:LeastKVPressureRouter.choose",
       "repro.cluster.router:SessionAffinityRouter.choose")
_layer("sim.kernel",
       "repro.sim.kernel:EventScheduler.schedule",
       "repro.sim.kernel:EventScheduler.pop",
       "repro.sim.kernel:EventScheduler.pop_batch",
       "repro.sim.kernel:EventScheduler.cancel")
_layer("serving.engine",
       ("repro.serving.engine:ServingEngine.step", _engine_step),
       "repro.serving.engine:ServingEngine.decode_steps",
       "repro.serving.engine:ServingEngine.submit_record")
_layer("perf.tp",
       "repro.perf.tp:tp_step_latency",
       "repro.perf.tp:decode_step_latency_batch")
_layer("serving.allocator",
       "repro.serving.allocator:PagedKVAllocator.grow",
       "repro.serving.allocator:PagedKVAllocator.decode_commit",
       "repro.serving.allocator:PagedKVAllocator.bulk_grow",
       "repro.serving.allocator:PagedKVAllocator.release")
_layer("prefix.pool",
       "repro.prefix.pool:PrefixPool.probe",
       "repro.prefix.pool:PrefixPool.acquire",
       "repro.prefix.pool:PrefixPool.release",
       "repro.prefix.pool:PrefixPool.evict_under_pressure",
       "repro.prefix.pool:PrefixPool.refcount_snapshot")
_layer("migrate.payload",
       "repro.migrate.payload:build_payload",
       "repro.migrate.payload:receive_payload")
_layer("recover.snapshot",
       "repro.recover.snapshot:take_snapshot",
       "repro.recover.snapshot:verify_snapshot")
_layer("recover.wal",
       "repro.recover.wal:WriteAheadLog.append",
       "repro.recover.wal:WriteAheadLog.truncate")
_layer("core.serialization",
       ("repro.core.serialization:state_to_arrays", _serialized_bytes),
       "repro.core.serialization:state_digest",
       "repro.core.serialization:state_from_arrays",
       "repro.core.serialization:salvage_state")
_layer("overload",
       ("repro.overload.admission:AdmissionController.decide", _admission),
       "repro.overload.brownout:BrownoutController.observe")
_layer("cluster.faults",
       "repro.cluster.faults:FaultInjector.schedule",
       "repro.cluster.faults:FaultInjector.migration_roll")
_layer("cluster.metrics", "repro.cluster.metrics:summarize_cluster")

LAYER_NAMES = [name for name, _ in LAYERS]

#: Modules that bind a traced function by name (``from x import f``).
EXPECTED_SITES: Dict[str, Tuple[str, ...]] = {
    "repro.quant.integer_gemm:int_matmul": (
        "repro.core.prefill", "repro.core.decode", "repro.guard.numerics",
        "repro.quant.weights",
    ),
    "repro.fp.formats:fp16_matmul": ("repro.quant.weights", "repro.core.prefill"),
    "repro.core.prefill:turbo_prefill": ("repro.core.turbo",),
    "repro.core.decode:turbo_decode_step": ("repro.core.turbo",),
    "repro.perf.tp:tp_step_latency": ("repro.serving.engine",),
    "repro.perf.tp:decode_step_latency_batch": ("repro.serving.engine",),
    "repro.core.serialization:state_to_arrays": (
        "repro.migrate.payload", "repro.recover.snapshot",
    ),
    "repro.core.serialization:state_digest": ("repro.recover.snapshot",),
    "repro.core.serialization:state_from_arrays": (
        "repro.migrate.payload", "repro.recover.snapshot",
    ),
    "repro.core.serialization:salvage_state": (
        "repro.migrate.payload", "repro.recover.snapshot",
    ),
    "repro.migrate.payload:build_payload": ("repro.cluster.simulator",),
    "repro.migrate.payload:receive_payload": ("repro.cluster.simulator",),
    "repro.recover.snapshot:take_snapshot": ("repro.cluster.simulator",),
    "repro.recover.snapshot:verify_snapshot": ("repro.cluster.simulator",),
    "repro.quant.progressive:pq_decompress_to_int8": ("repro.core.decode",),
    "repro.cluster.metrics:summarize_cluster": ("repro.cluster.simulator",),
}


def all_targets() -> List[Target]:
    return [t for _, targets in LAYERS for t in targets]


def missing_sites(tracer: Tracer) -> List[str]:
    """``spec@module`` pairs the tracer failed to patch."""
    missing = []
    for spec, modules in EXPECTED_SITES.items():
        found = set(tracer.sites.get(spec, ()))
        missing += [f"{spec}@{m}" for m in modules if m not in found]
    return missing
