"""Golden model-level logits: speed work never moves a number.

Each case runs a seeded prompt through :class:`TransformerLM` (prefill)
and then ``DECODE_STEPS`` greedy decode steps, and hashes every logit
row bit for bit with blake2b.  The prompt is shorter than one decode
buffer, so the run crosses two buffer flushes and decodes against
freshly compressed cache blocks as well as the buffer.  The digests
were recorded before the weight-operand and cache-block memo work, so
they pin that both are exact on the whole stack (projections, FFN,
TurboAttention prefill/decode, FP16 attention).

To refresh after an *intended* numeric change, run this file as a
script and paste the printed table into ``GOLDEN``.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines.fp16_cache import FP16Attention
from repro.core.config import TurboConfig
from repro.core.turbo import TurboAttention
from repro.models.config import MODEL_PRESETS
from repro.models.transformer import TransformerLM

PROMPT_TOKENS = 40
DECODE_STEPS = 90

BACKENDS = {
    "turbo_mixed": lambda: TurboAttention(TurboConfig(mixed_precision=True)),
    "fp16": FP16Attention,
}

GOLDEN = {
    ("llama3ish", "fp16"): "4fd646995cae50cbc0c04f5fcaee65b7",
    ("llama3ish", "turbo_mixed"): "7ad5da455b796330bb91cdaabade51af",
    ("qwen2ish", "fp16"): "d51f53581fca02987a652fceefc225c3",
    ("qwen2ish", "turbo_mixed"): "378fdfe78798e793147a3b66b08fbb5d",
    ("phi3ish", "fp16"): "c4ed457dbee70b0b8fd6e8c3f7c65644",
    ("phi3ish", "turbo_mixed"): "bae714e83c3691a5650e4f780b1841f1",
}


def logits_digest(preset: str, backend: str) -> str:
    config = MODEL_PRESETS[preset]
    model = TransformerLM(config, BACKENDS[backend])
    ids = np.random.default_rng([config.seed, 7]).integers(
        0, config.vocab_size, PROMPT_TOKENS
    )
    h = hashlib.blake2b(digest_size=16)
    logits = model.prefill(ids)
    h.update(np.ascontiguousarray(logits, dtype=np.float64).tobytes())
    token = int(np.argmax(logits[-1]))
    for _ in range(DECODE_STEPS):
        step = model.decode_step(token)
        h.update(np.ascontiguousarray(step, dtype=np.float64).tobytes())
        token = int(np.argmax(step))
    return h.hexdigest()


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("preset", ["llama3ish", "qwen2ish", "phi3ish"])
def test_logits_match_golden_digest(preset, backend):
    assert logits_digest(preset, backend) == GOLDEN[(preset, backend)]


if __name__ == "__main__":
    for preset in ["llama3ish", "qwen2ish", "phi3ish"]:
        for backend in sorted(BACKENDS):
            print(f'    ({preset!r}, {backend!r}): "{logits_digest(preset, backend)}",')
