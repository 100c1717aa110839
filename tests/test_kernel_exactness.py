"""Bit-exactness of the vectorized kernels against loop oracles.

The PR that batched the tile/span iteration promised *zero* numeric
drift: every fast path must produce byte-identical floats to the naive
per-tile / per-span loop it replaced.  These tests pin that promise with
``np.array_equal`` (no tolerances) across the axes that select different
code paths: guard on/off, KV storage widths, GQA grouping, SAS on/off,
ragged tile shapes, the bulk decode API vs the scalar step loop, and the
per-block INT8 memo vs fresh decompression.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import TurboConfig
from repro.core.decode import (
    _attend_spans,
    _exp_fn,
    _gather_spans,
    _quantize_query,
    turbo_decode_step,
    turbo_decode_steps,
)
from repro.core.prefill import turbo_prefill
from repro.core.serialization import state_digest, state_from_arrays, state_to_arrays
from repro.core.turbo import TurboKVState
from repro.guard import GuardConfig
from repro.quant.integer_gemm import int_matmul

from tests._reference_kernels import (
    naive_int_matmul,
    reference_decode_attend,
    reference_prefill_attention,
)


def _qkv(rng, hq, hkv, n, d):
    return (
        rng.standard_normal((hq, n, d)),
        rng.standard_normal((hkv, n, d)),
        rng.standard_normal((hkv, n, d)),
    )


def test_int_matmul_matches_int64_oracle():
    # The BLAS float64 shortcut must equal the naive integer product for
    # every in-range operand, including the +/-127 extremes.
    rng = np.random.default_rng(3)
    a = rng.integers(-127, 128, size=(7, 33, 65), dtype=np.int8)
    b = rng.integers(-127, 128, size=(7, 65, 41), dtype=np.int8)
    assert np.array_equal(int_matmul(a, b), naive_int_matmul(a, b))


@pytest.mark.parametrize("hq,hkv", [(8, 2), (4, 4)])
@pytest.mark.parametrize("kv_bits", [2, 4, 8])
def test_prefill_matches_loop_oracle(hq, hkv, kv_bits):
    rng = np.random.default_rng(hq * 100 + kv_bits)
    q, k, v = _qkv(rng, hq, hkv, 300, 64)
    config = TurboConfig()
    bits = np.full(hkv, kv_bits, dtype=np.int32)
    res = turbo_prefill(q, k, v, config, bits)
    ref_out, ref_lse = reference_prefill_attention(q, k, v, config)
    assert np.array_equal(res.output, ref_out)
    assert np.array_equal(res.lse, ref_lse)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"use_sas": False},
        {"block_q": 48, "block_k": 56, "buffer_size": 64},
    ],
    ids=["nosas", "ragged"],
)
def test_prefill_matches_loop_oracle_variants(kwargs):
    rng = np.random.default_rng(17)
    q, k, v = _qkv(rng, 8, 2, 250, 64)
    config = TurboConfig(**kwargs)
    bits = np.full(2, 4, dtype=np.int32)
    res = turbo_prefill(q, k, v, config, bits)
    ref_out, ref_lse = reference_prefill_attention(q, k, v, config)
    assert np.array_equal(res.output, ref_out)
    assert np.array_equal(res.lse, ref_lse)


def test_prefill_noncausal_matches_loop_oracle():
    rng = np.random.default_rng(23)
    q, k, v = _qkv(rng, 8, 2, 192, 64)
    config = TurboConfig()
    bits = np.full(2, 4, dtype=np.int32)
    res = turbo_prefill(q, k, v, config, bits, causal=False)
    ref_out, ref_lse = reference_prefill_attention(q, k, v, config, causal=False)
    assert np.array_equal(res.output, ref_out)
    assert np.array_equal(res.lse, ref_lse)


def test_prefill_guard_on_equals_off_on_clean_inputs():
    # The guard path keeps the per-tile loop; on clean inputs (nothing
    # trips) it must agree with the batched guard-free path bit for bit.
    rng = np.random.default_rng(5)
    q, k, v = _qkv(rng, 8, 2, 200, 64)
    config = TurboConfig()
    bits = np.full(2, 4, dtype=np.int32)
    fast = turbo_prefill(q, k, v, config, bits)
    guarded = turbo_prefill(q, k, v, config, bits, guard=GuardConfig())
    assert np.array_equal(fast.output, guarded.output)
    assert np.array_equal(fast.lse, guarded.lse)
    assert guarded.report is not None and guarded.report.fallback_tiles == 0


@pytest.mark.parametrize("hq,hkv", [(8, 2), (4, 4)])
@pytest.mark.parametrize("kv_bits", [2, 4, 8])
def test_decode_step_matches_span_oracle(hq, hkv, kv_bits):
    rng = np.random.default_rng(hq * 10 + kv_bits)
    q, k, v = _qkv(rng, hq, hkv, 256, 64)
    config = TurboConfig()
    bits = np.full(hkv, kv_bits, dtype=np.int32)
    res = turbo_prefill(q, k, v, config, bits)
    cache, buffer = res.cache, res.buffer
    for _ in range(5):
        q_t = rng.standard_normal((hq, 64))
        k_t = rng.standard_normal((hkv, 64))
        v_t = rng.standard_normal((hkv, 64))
        out = turbo_decode_step(q_t, k_t, v_t, cache, buffer, config)
        # The step just appended (k_t, v_t); the oracle sees the same
        # spans the kernel attended over.
        spans = _gather_spans(cache, buffer)
        ref_out, _ref_lse = reference_decode_attend(spans, q_t, hkv, config)
        assert np.array_equal(out, ref_out)


def test_decode_bulk_equals_scalar_loop():
    # The multi-token bulk API must be indistinguishable from calling
    # the scalar step in a loop: same outputs, same end cache/buffer.
    rng = np.random.default_rng(9)
    hq, hkv, d, steps = 8, 2, 64, 150
    q, k, v = _qkv(rng, hq, hkv, 200, d)
    config = TurboConfig()
    bits = np.full(hkv, 4, dtype=np.int32)
    res_a = turbo_prefill(q, k, v, config, bits)
    res_b = turbo_prefill(q, k, v, config, bits)
    qs = rng.standard_normal((steps, hq, d))
    ks = rng.standard_normal((steps, hkv, d))
    vs = rng.standard_normal((steps, hkv, d))

    bulk = turbo_decode_steps(qs, ks, vs, res_a.cache, res_a.buffer, config)
    scalar = np.stack(
        [
            turbo_decode_step(qs[t], ks[t], vs[t], res_b.cache, res_b.buffer, config)
            for t in range(steps)
        ]
    )
    assert np.array_equal(bulk, scalar)
    for (ka, va, ksa, vsa, la), (kb, vb, ksb, vsb, lb) in zip(
        res_a.cache.iter_decompressed(), res_b.cache.iter_decompressed()
    ):
        assert np.array_equal(ka, kb) and np.array_equal(va, vb)
        assert np.array_equal(ksa, ksb) and np.array_equal(vsa, vsb)
        assert la == lb
    assert np.array_equal(res_a.buffer.codes()[0], res_b.buffer.codes()[0])
    assert np.array_equal(res_a.buffer.codes()[1], res_b.buffer.codes()[1])


def test_decode_bulk_guarded_equals_scalar():
    # With a guard every step screens its inputs and spans and one report
    # collects the counters; outputs must still equal the scalar loop.
    rng = np.random.default_rng(13)
    hq, hkv, d, steps = 8, 2, 64, 12
    q, k, v = _qkv(rng, hq, hkv, 128, d)
    config = TurboConfig()
    bits = np.full(hkv, 4, dtype=np.int32)
    res_a = turbo_prefill(q, k, v, config, bits)
    res_b = turbo_prefill(q, k, v, config, bits)
    qs = rng.standard_normal((steps, hq, d))
    ks = rng.standard_normal((steps, hkv, d))
    vs = rng.standard_normal((steps, hkv, d))
    bulk = turbo_decode_steps(
        qs, ks, vs, res_a.cache, res_a.buffer, config, guard=GuardConfig()
    )
    scalar = np.stack(
        [
            turbo_decode_step(
                qs[t], ks[t], vs[t], res_b.cache, res_b.buffer, config,
                guard=GuardConfig(),
            )
            for t in range(steps)
        ]
    )
    assert np.array_equal(bulk, scalar)


# -- per-block INT8 memo ------------------------------------------------------


def _fresh_spans(cache, buffer):
    """The step's spans decompressed from the compressed blocks right now,
    bypassing the memo."""
    spans = [(k8, v8, ks, vs) for k8, v8, ks, vs, _len in cache.iter_decompressed()]
    buf_k, buf_v = buffer.codes()
    if buf_k.shape[-2] > 0:
        spans.append((buf_k, buf_v, buffer.k_scale, buffer.v_scale))
    return spans


def _reference_step(cache, buffer, q_t, config):
    """``_attend_spans`` over freshly decompressed spans, after the step
    has staged its token."""
    hkv = cache.n_heads
    hq, d = q_t.shape
    g = hq // hkv
    qc, q_scale = _quantize_query(q_t, hkv, g, d, config.int8_max_code)
    out, _lse = _attend_spans(
        _fresh_spans(cache, buffer), qc, q_scale, config, _exp_fn(config),
        1.0 / np.sqrt(d), hkv, g, d,
    )
    return out.reshape(hq, d)


def _decode_against_fresh(res, config, rng, steps, hq, on_step=None):
    cache, buffer = res.cache, res.buffer
    hkv, d = cache.n_heads, cache.head_dim
    for t in range(steps):
        if on_step is not None:
            on_step(t, cache)
        q_t = rng.standard_normal((hq, d))
        out = turbo_decode_step(
            q_t, rng.standard_normal((hkv, d)), rng.standard_normal((hkv, d)),
            cache, buffer, config,
        )
        assert np.array_equal(out, _reference_step(cache, buffer, q_t, config))


def _assert_memo_matches_blocks(cache):
    for block, (k8, v8, _ks, _vs, _len) in zip(cache.blocks, cache.iter_decompressed()):
        assert block.int8_views is not None
        assert np.array_equal(block.int8_views[0], k8)
        assert np.array_equal(block.int8_views[1], v8)
        assert not block.int8_views[0].flags.writeable


def test_decode_step_memo_equals_fresh_decompression_across_flushes():
    rng = np.random.default_rng(31)
    hq, hkv, d = 8, 2, 64
    config = TurboConfig()
    q, k, v = _qkv(rng, hq, hkv, 100, d)
    res = turbo_prefill(q, k, v, config, np.array([2, 4], dtype=np.int32))
    first = res.cache.blocks[0]
    _decode_against_fresh(res, config, rng, steps=100, hq=hq)
    # 100 prompt tokens = 1 block + 36 buffered; 100 steps flush twice.
    assert len(res.cache.blocks) == 3
    _assert_memo_matches_blocks(res.cache)
    # The first block was decompressed once and its views reused since.
    views = first.int8_views
    turbo_decode_step(
        rng.standard_normal((hq, d)), rng.standard_normal((hkv, d)),
        rng.standard_normal((hkv, d)), res.cache, res.buffer, config,
    )
    assert res.cache.blocks[0].int8_views is views


def test_decode_step_memo_with_mid_run_width_escalation():
    rng = np.random.default_rng(37)
    hq, hkv, d = 8, 4, 32
    config = TurboConfig()
    q, k, v = _qkv(rng, hq, hkv, 70, d)
    res = turbo_prefill(q, k, v, config, np.array([2, 2, 4, 4], dtype=np.int32))
    widths = {20: [8, 2, 4, 8], 90: [4, 8, 2, 4]}

    def escalate(t, cache):
        if t in widths:
            cache.set_head_bits(np.array(widths[t], dtype=np.int32))

    _decode_against_fresh(res, config, rng, steps=140, hq=hq, on_step=escalate)
    stored = {tuple(b.k.bits.reshape(-1)) for b in res.cache.blocks}
    assert stored == {(2, 2, 4, 4), (8, 2, 4, 8), (4, 8, 2, 4)}
    _assert_memo_matches_blocks(res.cache)


def _state_after_decode(seed, steps):
    rng = np.random.default_rng(seed)
    hq, hkv, d = 8, 2, 64
    config = TurboConfig()
    q, k, v = _qkv(rng, hq, hkv, 150, d)
    bits = np.array([2, 4], dtype=np.int32)
    res = turbo_prefill(q, k, v, config, bits)
    turbo_decode_steps(
        rng.standard_normal((steps, hq, d)), rng.standard_normal((steps, hkv, d)),
        rng.standard_normal((steps, hkv, d)), res.cache, res.buffer, config,
    )
    state = TurboKVState(cache=res.cache, buffer=res.buffer, head_bits=bits)
    return state, config, rng


def test_restored_cache_decodes_identically():
    state, config, rng = _state_after_decode(41, steps=30)
    assert all(b.int8_views is not None for b in state.cache.blocks)
    restored = state_from_arrays(state_to_arrays(state))
    assert all(b.int8_views is None for b in restored.cache.blocks)
    steps = 80
    qs = rng.standard_normal((steps, 8, 64))
    ks = rng.standard_normal((steps, 2, 64))
    vs = rng.standard_normal((steps, 2, 64))
    a = turbo_decode_steps(qs, ks, vs, state.cache, state.buffer, config)
    b = turbo_decode_steps(qs, ks, vs, restored.cache, restored.buffer, config)
    assert np.array_equal(a, b)
    _assert_memo_matches_blocks(restored.cache)


def test_memo_is_invisible_to_serialization_equality_and_storage():
    state, _config, _rng = _state_after_decode(43, steps=0)
    cache = state.cache
    assert all(b.int8_views is None for b in cache.blocks)
    arrays_before = state_to_arrays(state)
    digest_before = state_digest(arrays_before)
    bits_before = (cache.storage_bits, state.storage_bits)
    reprs_before = [repr(b) for b in cache.blocks]

    _gather_spans(cache, state.buffer)  # populates every block's memo
    assert all(b.int8_views is not None for b in cache.blocks)

    arrays_after = state_to_arrays(state)
    assert sorted(arrays_after) == sorted(arrays_before)
    for key in arrays_before:
        assert np.array_equal(arrays_after[key], arrays_before[key]), key
    assert state_digest(arrays_after) == digest_before
    assert (cache.storage_bits, state.storage_bits) == bits_before
    assert [repr(b) for b in cache.blocks] == reprs_before
    for block in cache.blocks:
        assert "int8_views" not in repr(block)
        bare = dataclasses.replace(block)  # same payload, empty memo
        assert bare.int8_views is None and bare == block
