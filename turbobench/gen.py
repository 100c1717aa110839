"""``gen``: greedy generation through the bit-exact kernel stack.

One client in a closed loop: the next prompt is sent when the previous
generation has finished.  Prompts sit on a three-rung ladder (about 32,
256 and 1024 tokens; a pass sends five prompts, three of them on the
middle rung, in seeded order, with seeded lengths within 1% of each
rung and seeded token ids), and each generates 128-160 tokens, so
every generation crosses the 64-token decode-buffer flush at least
twice.  Fixed rungs keep the latency distribution the same from seed to
seed; the seed changes the tokens, the order and the exact lengths.

This workload runs ``models``, ``quant``, ``fp``, ``core`` and ``sas``
and none of the simulator layers.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.baselines.fp16_cache import FP16Attention
from repro.core.config import TurboConfig
from repro.core.turbo import TurboAttention
from repro.models.config import MODEL_PRESETS
from repro.models.generation import forced_decode, generate, logit_divergence
from repro.models.transformer import TransformerLM
from repro.tasks.datasets import TASK_PRESETS
from repro.tasks.recall import evaluate_backend

from turbobench.measure import RunLog, SpeedReference, median, percentile

MODEL = MODEL_PRESETS["llama3ish"]
#: One pass: the middle rung three times, so the TTFT median (which the middle
#: rung's samples hold) rests on two prefills per pass, not one.
RUNGS = (32, 256, 256, 256, 1024)
GEN_RANGE = (128, 160)
#: Generous deadlines: a healthy generation meets both, so goodput here
#: only drops when a generation is slower than any expected noise.
SLO_TTFT_S = 4.0
SLO_TPOT_S = 0.1

#: Known answers.  On the seeded ``gsm8k_like`` recall task an exact
#: cache scores 1.0 by construction and mixed-precision Turbo scores
#: 0.99-1.0 on most seeds, down to 0.93 on a few (seeds 0-339: 3% score
#: below 0.97, the lowest 0.934); below RECALL_MIN the compressed cache
#: has lost facts.
RECALL_MIN = 0.90
#: Teacher-forced KL(FP16 || Turbo) on the quality probe.  It is a
#: lossy cache, so the KL is strictly positive; the probe measures
#: about 0.3 nats, and above KL_MAX the kernels have lost precision.
KL_MAX = 0.6
#: The quality probe is one fixed prompt, not a seeded one: the KL of a
#: ~100-token generation moves by +-15% from prompt to prompt, which
#: would hide any change of the kernels' numerics behind input noise.
PROBE_SEED = 20240917
PROBE_PROMPT = 64
PROBE_TOKENS = 80


def turbo_attention() -> TurboAttention:
    return TurboAttention(TurboConfig(mixed_precision=True))


@dataclass
class Generation:
    tokens: Tuple[int, ...]
    #: Durations in seconds at reference speed (see measure.SpeedReference).
    ttft: float
    gaps: List[float]
    wall: float
    finite: bool
    #: Stored KV bytes over what FP16 would store for the same tensors.
    kv_ratio: float

    def same_output(self, other: "Generation") -> bool:
        return self.tokens == other.tokens

    def timings(self) -> "Generation":
        """Every field is needed for the metrics."""
        return self


def kv_bytes_ratio(model: TransformerLM) -> float:
    stored = fp16 = 0
    for state in model.kv_states:
        stored += state.storage_bits
        fp16 += 16 * 2 * state.seq_len * state.cache.n_heads * state.cache.head_dim
    return stored / fp16


def timed_generate(
    model: TransformerLM, ids: np.ndarray, n_tokens: int, ref: SpeedReference
) -> Generation:
    """Greedy generation timed per token through the model's public API,
    at the reference speed of ``ref``."""
    model.reset()
    start = ref.now()
    logits = model.prefill(ids)[-1]
    token = int(np.argmax(logits))
    first = prev = ref.now()
    finite = bool(np.isfinite(logits).all())
    tokens = [token]
    spans = []
    for _ in range(n_tokens - 1):
        logits = model.decode_step(token)
        token = int(np.argmax(logits))
        now = ref.now()
        spans.append((prev, now))
        prev = now
        finite = finite and bool(np.isfinite(logits).all())
        tokens.append(token)
    ttft = ref.scale(start, first)
    gaps = [ref.scale(a, b) for a, b in spans]
    return Generation(
        tokens=tuple(tokens), ttft=ttft, gaps=gaps, wall=ttft + sum(gaps),
        finite=finite, kv_ratio=kv_bytes_ratio(model),
    )


@functools.lru_cache(maxsize=1)
def quality_kl() -> float:
    """Teacher-forced KL(FP16 || Turbo) on the Turbo model's own greedy
    trajectory of the fixed probe prompt (computed once per process)."""
    ids = np.random.default_rng(PROBE_SEED).integers(0, MODEL.vocab_size, PROBE_PROMPT)
    turbo = generate(TransformerLM(MODEL, turbo_attention), ids, PROBE_TOKENS, keep_logits=True)
    ref = forced_decode(TransformerLM(MODEL, FP16Attention), ids, turbo.tokens, keep_logits=True)
    return logit_divergence(ref.logits, turbo.logits)


class GenWorkload:
    name = "gen"
    #: Finish every pass once started, so the run holds whole ladders and
    #: the TTFT median is always taken from the middle rung's samples,
    #: not from whichever rung a partial pass happened to repeat.
    whole_passes = True

    def __init__(self, seed: int, short: bool = False):
        self.seed = seed
        #: Short mode (self-test) keeps the ladder but generates fewer
        #: tokens; the checks are the same.
        self.short = short
        self.ref = SpeedReference()

    def setup(self) -> None:
        self.model = TransformerLM(MODEL, turbo_attention)
        rng = np.random.default_rng([self.seed, 0])
        lo, hi = (16, 24) if self.short else GEN_RANGE
        self.prompts: List[Tuple[np.ndarray, int]] = []
        for rung in rng.permutation(RUNGS):
            # Within 1%: a 1054-token prefill (+3%) measured 15% slower
            # than a 996-token one (-3%), and the 1024 rung's two prefills
            # are all the TTFT p99 of a run rests on.
            n = int(round(rung * rng.uniform(0.99, 1.01)))
            ids = rng.integers(0, MODEL.vocab_size, n)
            self.prompts.append((ids, int(rng.integers(lo, hi + 1))))

    @property
    def n_units(self) -> int:
        return len(self.prompts)

    def run_unit(self, i: int) -> Generation:
        ids, n_tokens = self.prompts[i]
        return timed_generate(self.model, ids, n_tokens, self.ref)

    def unit_size(self, i: int) -> int:
        return 1

    def check_unit(self, log: RunLog, i: int, g: Generation) -> bool:
        ok = log.check("gen.length", len(g.tokens) == self.prompts[i][1])
        ok &= log.check("gen.finite_logits", g.finite)
        ok &= log.check("gen.token_range", all(0 <= t < MODEL.vocab_size for t in g.tokens))
        return ok

    def refused(self, g: Generation) -> int:
        return 0

    # -- metrics ------------------------------------------------------------
    def end_to_end(self, runs: Dict[int, List[Generation]], log: RunLog) -> Dict[str, float]:
        gens = [g for i in sorted(runs) for g in runs[i]]
        ttfts = [g.ttft for g in gens]
        gaps = [gap for g in gens for gap in g.gaps]
        tpots = [(g.wall - g.ttft) / len(g.gaps) for g in gens]
        # One wall time per prompt (the median of its repeats), so a
        # single slow repeat does not move the throughput.
        walls = [median([g.wall for g in runs[i]]) for i in sorted(runs)]
        tokens = sum(len(runs[i][0].tokens) for i in sorted(runs))
        met = [g.ttft <= SLO_TTFT_S and tpot <= SLO_TPOT_S for g, tpot in zip(gens, tpots)]
        req_s = len(walls) / sum(walls)
        log.samples.update(
            {"generations": len(gens), "ttft": len(ttfts), "itl_gaps": len(gaps)}
        )
        return {
            "gen_tok_s": tokens / sum(walls),
            "gen_ttft_p50_ms": percentile(ttfts, 50) * 1e3,
            "gen_itl_p50_ms": percentile(gaps, 50) * 1e3,
            "gen_itl_p99_ms": percentile(gaps, 99) * 1e3,
            "sim_req_s": req_s,
            "sim_ttft_p50_s": percentile(ttfts, 50),
            "sim_ttft_p99_s": percentile(ttfts, 99),
            "sim_tpot_p99_ms": percentile(tpots, 99) * 1e3,
            "sim_goodput_rps": req_s * sum(met) / len(met),
            # Every generated token is returned: nothing is recomputed.
            "sim_useful_ratio": 1.0,
        }

    def final_checks(self, log: RunLog) -> None:
        """Known-answer quality checks on the seeded recall task."""
        task = dataclasses.replace(TASK_PRESETS["gsm8k_like"], seed=self.seed)
        if self.short:
            task = dataclasses.replace(task, n_hops=32)
        turbo = evaluate_backend(turbo_attention, task, MODEL).accuracy
        fp16 = evaluate_backend(FP16Attention, task, MODEL).accuracy
        log.notes["recall"] = {"turbo_mixed": turbo, "fp16": fp16, "min": RECALL_MIN}
        log.check("gen.recall_turbo", turbo >= RECALL_MIN)
        log.check("gen.recall_fp16_exact", fp16 == 1.0)

    # -- traced run ---------------------------------------------------------
    def trace_replay(self, log: RunLog, runs, tracer) -> None:
        """Generation writes no event trace; traced and untraced tokens
        are compared pass by pass."""

    def layer_counts(self, runs: Dict[int, List[Generation]]) -> Dict[str, float]:
        first = [runs[i][0] for i in sorted(runs)]
        return {
            "core.decode.tokens": float(sum(len(g.gaps) for g in first)),
            "core.kvcache.kv_bytes_ratio": float(np.mean([g.kv_ratio for g in first])),
        }

    def cross_check(self, log: RunLog, tracer, runs) -> None:
        """Span counts of one traced pass against the program's outputs."""
        calls = {layer: totals[0] for layer, totals in tracer.layers.items()}
        first = [runs[i][0] for i in sorted(runs)]
        decode_tokens = sum(len(g.gaps) for g in first)
        log.check("trace.decode_spans", calls["core.decode"] == decode_tokens * MODEL.n_layers)
        log.check("trace.prefill_spans", calls["core.prefill"] == len(first) * MODEL.n_layers)
        log.check("trace.model_spans", calls["models.transformer"] == sum(len(g.tokens) for g in first))
