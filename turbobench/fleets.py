"""``fleet_decode`` and ``fleet_churn``: the cluster simulator.

A fleet run is made of episodes: independent ``ClusterSimulator.run``
calls over seeded request streams.  The first pass over the episodes
gives the simulated outcomes; later passes only add host-time samples,
and each must replay the first pass exactly.  Timed passes run with the
program's event trace off; the trace digest is checked on untimed
replays in the traced run.

* ``fleet_decode`` — 4 unified replicas, ``least_kv`` routing, every
  feature off.  Open-loop Poisson arrivals at 32 req/s (the simulated
  knee of this geometry), prompts 128-2048 and generations 128-1024
  tokens, 1500 requests per episode.  Host time goes to the engine, the
  cost model and the allocator; no numeric kernel or feature layer runs.
* ``fleet_churn`` — 4 unified replicas with ``least_kv`` routing, the
  prefix cache and chunked prefill (256), Zipf-shared prompt prefixes
  from 40 tenants with short generations (32-256 tokens) and a 5x
  arrival surge, crashes, snapshots every 1.5 s with some corrupted at
  rest, admission control and brownout.  The surge is sized so
  admission defers and rejects a real share of the offered requests.
  This is the only workload that runs ``prefix``, ``recover``,
  ``overload``, ``cluster.faults`` and ``core.serialization``.  It does
  not run the disaggregated fleet and its KV migrations (``migrate``)
  yet: see README.md, "Known defect".
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster import ClusterConfig, ClusterSimulator, FaultConfig
from repro.cluster.metrics import ClusterMetrics
from repro.harness.disagg import FAULT_SCHEDULE
from repro.overload import AdmissionConfig, BrownoutConfig
from repro.perf.attention_costs import METHODS
from repro.perf.speed import MODEL
from repro.prefix import PrefixCacheConfig
from repro.recover import RecoverConfig
from repro.serving import poisson_workload, zipf_shared_workload
from repro.serving.engine import EngineConfig
from repro.serving.metrics import SLO
from repro.serving.request import Request, RequestRecord, RequestStatus
from repro.sim.trace import TraceSink, canonical_line

from turbobench.layers import all_targets
from turbobench.measure import RunLog, SpeedReference, close, median, percentile

METHOD = METHODS["turbo_mixed"]
REFUSED = (RequestStatus.FAILED, RequestStatus.REJECTED, RequestStatus.SHED)


class DigestSink(TraceSink):
    """Streams the canonical trace into a blake2b digest (the same bytes
    :func:`repro.sim.trace.trace_digest` hashes) and counts records by
    action and by event kind."""

    def __init__(self) -> None:
        super().__init__()
        self._hash = hashlib.blake2b(digest_size=16)
        self.actions: Counter = Counter()
        self.marks: Counter = Counter()

    def _write(self, record) -> None:
        self._hash.update(canonical_line(record).encode("utf-8"))
        self._hash.update(b"\n")
        action = record["action"]
        self.actions[(record["clock"] == "cluster", action)] += 1
        if action == "mark":
            self.marks[record["ev"]] += 1

    def digest(self) -> str:
        return self._hash.hexdigest()


def outcome_digest(records: Sequence[RequestRecord]) -> str:
    """Digest of every request's final state and timestamps."""
    h = hashlib.blake2b(digest_size=16)
    for r in sorted(records, key=lambda r: r.request.request_id):
        h.update(repr((
            r.request.request_id, r.status.value, r.generated, r.first_token_at,
            r.finished_at, r.wasted_prefill_tokens, r.wasted_decode_tokens,
        )).encode("utf-8"))
    return h.hexdigest()


@dataclass
class Episode:
    metrics: ClusterMetrics
    #: Seconds at reference speed (see measure.SpeedReference).
    wall: float
    outcome: str
    records: List[RequestRecord]
    pool_problems: List[str]
    evictions: int
    #: Set only on replays with the event trace digested.
    trace_digest: Optional[str] = None
    actions: Counter = field(default_factory=Counter)
    marks: Counter = field(default_factory=Counter)

    def same_output(self, other: "Episode") -> bool:
        return self.outcome == other.outcome and self.metrics == other.metrics

    def timings(self) -> "Episode":
        """This episode without its per-request detail."""
        return dataclasses.replace(self, records=[])


def _surge(requests: List[Request], phases) -> List[Request]:
    """Re-time unit-rate Poisson arrivals onto a piecewise-constant rate
    (an exact inhomogeneous Poisson process by time change).  Arrivals
    past the last phase continue at its rate, so every request is kept
    and an episode's request count does not depend on the seed."""
    out = []
    for r in requests:
        u, t0, used = r.arrival_time, 0.0, 0.0
        for duration, rate in phases:
            if u <= used + duration * rate:
                break
            used += duration * rate
            t0 += duration
        else:
            t0 -= duration
            used -= duration * rate
        out.append(dataclasses.replace(r, arrival_time=t0 + (u - used) / rate))
    return out


class FleetWorkload:
    """Shared episode machinery; subclasses define streams and configs."""

    name = ""
    episodes = 0
    whole_passes = False

    def __init__(self, seed: int, short: bool = False):
        self.seed = seed
        self.short = short
        self.ref = SpeedReference()

    def setup(self) -> None:
        seq = np.random.SeedSequence([self.seed, self.tag])
        self.streams: List[List[Request]] = []
        self.configs: List[ClusterConfig] = []
        for episode, child in enumerate(seq.spawn(self.episodes)):
            self.streams.append(self.stream(np.random.default_rng(child)))
            self.configs.append(self.config(episode))

    @property
    def n_units(self) -> int:
        return self.episodes

    def unit_size(self, i: int) -> int:
        return len(self.streams[i])

    def window(self, i: int) -> float:
        arrivals = [r.arrival_time for r in self.streams[i]]
        return max(arrivals) - min(arrivals)

    def run_unit(self, i: int, digest: bool = False) -> Episode:
        """One episode, timed with the event trace off; ``digest=True``
        streams the trace into a digest instead (for untimed replays)."""
        sink = DigestSink() if digest else None
        start = self.ref.now()
        sim = ClusterSimulator(MODEL, METHOD, self.configs[i], trace=sink)
        metrics = sim.run(self.streams[i])
        wall = self.ref.scale(start, self.ref.now())
        records = [rec for r in sim.replicas for rec in r.records.values()]
        records += list(sim.failed.values()) + list(sim.rejected.values())
        pools = [r.engine.prefix_pool for r in sim.replicas if r.engine.prefix_pool is not None]
        problems = [p for pool in pools for p in pool.check_invariants()]
        ep = Episode(
            metrics=metrics, wall=wall, outcome=outcome_digest(records), records=records,
            pool_problems=problems, evictions=sum(p.evicted_blocks for p in pools),
        )
        if sink is not None:
            ep.trace_digest, ep.actions, ep.marks = sink.digest(), sink.actions, sink.marks
        return ep

    def trace_replay(self, log: RunLog, runs: Dict[int, List[Episode]], tracer) -> None:
        """Replay every episode with its event trace digested, once plain
        and once under ``tracer``: both must write the same trace and
        reproduce the first pass.  Encoding the trace costs host time, so
        this runs outside the timed passes."""
        self.replays = []
        for i in range(self.episodes):
            plain = self.run_unit(i, digest=True)
            tracer.install(all_targets())
            try:
                traced = self.run_unit(i, digest=True)
            finally:
                tracer.uninstall()
            log.check("trace.same_digest", plain.trace_digest == traced.trace_digest)
            log.check(
                "trace.replays_first_pass",
                plain.same_output(runs[i][0]) and traced.same_output(runs[i][0]),
            )
            self.replays.append(plain)

    def refused(self, ep: Episode) -> int:
        return sum(1 for r in ep.records if r.status in REFUSED)

    def check_unit(self, log: RunLog, i: int, ep: Episode) -> bool:
        """Known answers: the benchmark knows every request it submitted,
        its generation length and the SLO, so it can account for each one
        and recompute the reported percentiles and goodput itself."""
        stream = self.streams[i]
        m = ep.metrics
        slo = self.configs[i].slo
        ids = sorted(r.request.request_id for r in ep.records)
        ok = log.check("fleet.every_request_once", ids == sorted(r.request_id for r in stream))
        ok &= log.check(
            "fleet.conservation",
            m.completed + m.failed + m.rejected + m.shed == len(stream) == m.total,
        )
        finished = [r for r in ep.records if r.status is RequestStatus.FINISHED]
        ok &= log.check(
            "fleet.finished_generated_gen_len",
            all(r.generated == r.request.gen_len for r in finished),
        )
        ok &= log.check(
            "fleet.timestamps_ordered",
            all(
                r.request.arrival_time <= r.first_token_at <= r.finished_at
                for r in finished
            ),
        )
        ok &= log.check("fleet.prefix_invariants", not ep.pool_problems)
        ttft, tpot = self._latencies(finished)
        good = self._good(finished, slo)
        ok &= log.check(
            "fleet.own_reducer_matches",
            close(percentile(ttft, 50), m.p50_ttft)
            and close(percentile(ttft, 99), m.p99_ttft)
            and close(percentile(tpot, 99), m.p99_tpot)
            and close(good / m.makespan, m.goodput_rps)
            and close(good / len(stream), m.slo_attainment),
        )
        if self.all_complete:
            ok &= log.check("fleet.all_complete", len(finished) == len(stream))
        return ok

    @classmethod
    def _good(cls, finished: Sequence[RequestRecord], slo: SLO) -> int:
        ttft, tpot = cls._latencies(finished)
        return sum(1 for a, b in zip(ttft, tpot) if a <= slo.ttft_s and b <= slo.tpot_s)

    @staticmethod
    def _latencies(finished: Sequence[RequestRecord]):
        ttft = [r.first_token_at - r.request.arrival_time for r in finished]
        tpot = [
            (r.finished_at - r.first_token_at) / (r.request.gen_len - 1)
            if r.request.gen_len > 1
            else 0.0
            for r in finished
        ]
        return ttft, tpot

    # -- metrics ------------------------------------------------------------
    def end_to_end(self, runs: Dict[int, List[Episode]], log: RunLog) -> Dict[str, float]:
        first = [runs[i][0] for i in sorted(runs)]
        records = [r for ep in first for r in ep.records]
        finished = [r for r in records if r.status is RequestStatus.FINISHED]
        ttft, tpot = self._latencies(finished)
        good = sum(
            self._good([r for r in runs[i][0].records if r.status is RequestStatus.FINISHED],
                       self.configs[i].slo)
            for i in sorted(runs)
        )
        walls = [median([ep.wall for ep in runs[i]]) for i in sorted(runs)]
        useful = sum(r.request.prompt_len + r.request.gen_len for r in finished)
        wasted = sum(r.wasted_prefill_tokens + r.wasted_decode_tokens for r in records)
        log.samples.update(
            {"episodes": len(first), "episode_runs": sum(len(v) for v in runs.values()),
             "requests": len(records), "ttft": len(ttft), "tpot": len(tpot)}
        )
        return {
            "gen_tok_s": sum(r.request.gen_len for r in finished) / sum(walls),
            "gen_ttft_p50_ms": percentile(ttft, 50) * 1e3,
            "gen_itl_p50_ms": percentile(tpot, 50) * 1e3,
            "gen_itl_p99_ms": percentile(tpot, 99) * 1e3,
            "sim_req_s": len(records) / sum(walls),
            "sim_ttft_p50_s": percentile(ttft, 50),
            "sim_ttft_p99_s": percentile(ttft, 99),
            "sim_tpot_p99_ms": percentile(tpot, 99) * 1e3,
            # Per second of offered traffic (first to last arrival, an
            # input), not of makespan, which a single late fault stretches.
            "sim_goodput_rps": good / sum(self.window(i) for i in sorted(runs)),
            "sim_useful_ratio": useful / (useful + wasted),
        }

    def final_checks(self, log: RunLog) -> None:
        pass

    # -- traced run ---------------------------------------------------------
    def layer_counts(self, runs: Dict[int, List[Episode]]) -> Dict[str, float]:
        first = [runs[i][0] for i in sorted(runs)]
        records = [r for ep in first for r in ep.records]
        ms = [ep.metrics for ep in first]
        actions: Counter = sum((ep.actions for ep in self.replays), Counter())
        marks: Counter = sum((ep.marks for ep in self.replays), Counter())
        waits = [r.admitted_at - r.request.arrival_time for r in records if r.admitted_at is not None]
        lookup = sum(r.prefix_lookup_tokens for r in records)
        migrated = [r for r in records if r.migrations]
        restores = marks["warm_restore"] + marks["cold_restore"]
        return {
            "cluster.simulator.events": float(actions[(True, "fire")]),
            "sim.kernel.scheduled": float(actions[(True, "schedule")] + actions[(False, "schedule")]),
            "sim.kernel.fired": float(actions[(True, "fire")] + actions[(False, "fire")]),
            "sim.kernel.cancelled": float(actions[(True, "cancel")] + actions[(False, "cancel")]),
            "serving.engine.queue_wait_p50_s": percentile(waits, 50) if waits else 0.0,
            "serving.engine.queue_wait_p99_s": percentile(waits, 99) if waits else 0.0,
            "serving.allocator.preemptions": float(sum(m.preemptions for m in ms)),
            "prefix.pool.hit_ratio": sum(r.prefix_hit_tokens for r in records) / lookup if lookup else 0.0,
            "prefix.pool.cow_copies": float(sum(m.cow_copies for m in ms)),
            "prefix.pool.evictions": float(sum(ep.evictions for ep in first)),
            "migrate.payload.bytes_shipped": float(sum(m.migrated_bytes for m in ms)),
            "migrate.payload.intact_first_try_ratio": (
                sum(1 for r in migrated if r.migration_retries == 0 and r.salvage_recomputed_tokens == 0)
                / len(migrated) if migrated else 0.0
            ),
            "migrate.payload.drops": float(sum(m.migration_drops for m in ms)),
            "migrate.payload.corruptions": float(sum(m.migration_corruptions for m in ms)),
            "migrate.payload.salvage_tokens": float(sum(m.salvage_recomputed_tokens for m in ms)),
            "recover.snapshot.bytes": float(sum(m.snapshot_bytes for m in ms)),
            "recover.snapshot.usable_ratio": marks["warm_restore"] / restores if restores else 0.0,
            "recover.snapshot.warm_restarts": float(sum(m.warm_restarts for m in ms)),
            "overload.brownout_tokens": float(sum(m.brownout_tokens for m in ms)),
            "cluster.faults.crashes": float(sum(m.crashes for m in ms)),
            "cluster.faults.retries": float(sum(m.retries for m in ms)),
            "cluster.faults.wasted_tokens": float(
                sum(m.wasted_prefill_tokens + m.wasted_decode_tokens for m in ms)
            ),
        }

    def cross_check(self, log: RunLog, tracer, runs) -> None:
        """Span counts of one traced pass against the program's counters."""
        calls = tracer.spec_calls
        ms = [runs[i][0].metrics for i in sorted(runs)]
        log.check("trace.run_spans", calls["repro.cluster.simulator:ClusterSimulator.run"] == len(ms))
        log.check("trace.summary_spans", calls["repro.cluster.metrics:summarize_cluster"] == len(ms))
        log.check(
            "trace.snapshot_spans",
            calls["repro.recover.snapshot:take_snapshot"] == sum(m.snapshots_taken for m in ms),
        )
        # The simulator builds a real payload only for a corrupted
        # arrival, to run the checksum and salvage path on it.
        log.check(
            "trace.payload_spans",
            calls["repro.migrate.payload:build_payload"] == sum(m.migration_corruptions for m in ms),
        )


class FleetDecode(FleetWorkload):
    name = "fleet_decode"
    tag = 1
    episodes = 4
    all_complete = True

    def stream(self, rng: np.random.Generator) -> List[Request]:
        n = 300 if self.short else 1500
        return poisson_workload(
            n, arrival_rate=32.0, prompt_range=(128, 2048), gen_range=(128, 1024), rng=rng,
        )

    def config(self, episode: int) -> ClusterConfig:
        return ClusterConfig(n_replicas=4, policy="least_kv")


#: Base rate, a 5x surge, base rate again: (seconds, requests/s).
CHURN_PHASES = ((6.0, 12.0), (5.0, 60.0), (6.0, 12.0))
CHURN_SLO = SLO(ttft_s=2.0, tpot_s=0.1)
#: Fault and at-rest corruption schedules are fixed per episode index
#: (as the harnesses fix theirs) while the traffic is seeded: the count
#: and timing of crashes would otherwise swing the tail metrics from
#: seed to seed more than any code change should be allowed to.
CHURN_FAULT_SEED = FAULT_SCHEDULE.seed
CHURN_RECOVER_SEED = 11


class FleetChurn(FleetWorkload):
    name = "fleet_churn"
    tag = 2
    #: Twelve episodes: at six, the pooled TTFT p50 (on the steep edge
    #: where queueing starts) moved by 0.12-0.24 of its median from seed
    #: to seed.
    episodes = 12
    all_complete = False

    def stream(self, rng: np.random.Generator) -> List[Request]:
        phases = CHURN_PHASES
        if self.short:
            phases = tuple((d / 4, r) for d, r in phases)
        unit = zipf_shared_workload(
            int(sum(d * r for d, r in phases)), arrival_rate=1.0, n_tenants=40,
            zipf_s=2.0, gen_range=(32, 256), rng=rng,
        )
        return _surge(unit, phases)

    def config(self, episode: int) -> ClusterConfig:
        # A unified fleet: the disaggregated one (2 prefill + 2 decode
        # replicas with KV migration faults) waits for the engine fix in
        # README.md, "Known defect".  ``least_kv`` rather than
        # ``affinity`` routing: affinity piles the hottest tenants onto
        # one replica, and the TTFT p50 then doubled between seeds.
        # Crashes are frequent and short, so each episode sees several
        # and their effect averages out.
        return ClusterConfig(
            n_replicas=4,
            policy="least_kv",
            slo=CHURN_SLO,
            engine=EngineConfig(
                prefill_chunk=256,
                prefix=PrefixCacheConfig(),
                brownout=BrownoutConfig(delay_scale_s=0.5, kv_scale=1.5, cooldown_s=6.0),
            ),
            faults=FaultConfig(
                seed=CHURN_FAULT_SEED + episode,
                crash_rate=0.3,
                crash_downtime_s=0.25,
                max_retries=FAULT_SCHEDULE.max_retries,
                horizon_pad_s=2.0,
            ),
            # Sized so the surge's token demand (~50k tok/s) overruns the
            # bucket: a few percent of requests are rejected, more deferred.
            admission=AdmissionConfig(
                rate_tokens_per_s=36_000.0, burst_tokens=30_000.0, max_queue_depth=48,
            ),
            recover=RecoverConfig(
                snapshot_interval_s=1.5, keep_epochs=2, corrupt_rate=0.3,
                seed=CHURN_RECOVER_SEED + episode,
            ),
        )


WORKLOADS = {w.name: w for w in (FleetDecode, FleetChurn)}
