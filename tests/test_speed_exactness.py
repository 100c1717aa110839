"""The vectorized decode cost model is bit-identical to the scalar one.

:func:`repro.perf.tp.decode_step_latency_batch` prices a whole array of
context lengths at once so the serving engine can advance homogeneous
decode stretches in bulk; it mirrors :func:`repro.perf.tp.tp_step_latency`
expression by expression.  These tests pin that every lane equals the
scalar call exactly (``==``, no tolerance) across methods, tensor-parallel
degrees, batch sizes, context lengths and GPUs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.perf.attention_costs import METHODS
from repro.perf.e2e import ModelGeometry
from repro.perf.gpu import A100_80GB, H100_80GB
from repro.perf.speed import MODEL as SPEED_MODEL
from repro.perf.tp import decode_step_latency_batch, tp_step_latency

MODELS = {"phi3_medium": ModelGeometry.phi3_medium(), "speed": SPEED_MODEL}
GPUS = {"a100": A100_80GB, "h100": H100_80GB}


def _assert_lanes_match_scalar(method, model, batch, kv_lens, tp, gpu):
    lanes = decode_step_latency_batch(method, model, batch, kv_lens, tp=tp, gpu=gpu)
    assert lanes.dtype == np.float64 and lanes.shape == (len(kv_lens),)
    for kv, lane in zip(kv_lens, lanes):
        scalar = tp_step_latency(method, model, batch, 1, kv, prefill=False, tp=tp, gpu=gpu)
        assert lane == scalar, (method.name, batch, kv, tp, lane, scalar)


@settings(max_examples=150, deadline=None)
@given(
    method=st.sampled_from(sorted(METHODS)),
    model=st.sampled_from(sorted(MODELS)),
    gpu=st.sampled_from(sorted(GPUS)),
    tp=st.integers(min_value=1, max_value=8),
    batch=st.integers(min_value=1, max_value=64),
    kv_lens=st.lists(st.integers(min_value=1, max_value=32768), min_size=1, max_size=12),
)
def test_batch_latency_equals_scalar(method, model, gpu, tp, batch, kv_lens):
    _assert_lanes_match_scalar(
        METHODS[method], MODELS[model], batch, kv_lens, tp, GPUS[gpu]
    )


@pytest.mark.parametrize("tp", [1, 2, 3, 8])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_every_method_kind_on_a_context_ladder(method, tp):
    # Powers of two and their neighbours, 1 .. 32k: every kind's branch
    # (turbo, fp16, dequant with and without the low-rank term).
    ladder = sorted({max(1, 2**e + o) for e in range(16) for o in (-1, 0, 1)})
    for batch in (1, 7, 64):
        _assert_lanes_match_scalar(
            METHODS[method], SPEED_MODEL, batch, ladder, tp, A100_80GB
        )
