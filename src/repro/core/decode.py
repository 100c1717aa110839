"""TurboAttention decode kernel (paper Algorithm 2).

One autoregressive step: the new token's K/V are staged into the INT8
buffer (frozen universal scale, outliers clamped), the query is quantized
to INT8, and attention streams over

1. every progressive cache block — decompressed *to INT8* with pure integer
   arithmetic (``q1 = q2 * s_int + z_int``) the first time a step reads
   it, then reused from the block's memo — and
2. the current buffer contents, which are already INT8.

All score and output MatMuls are integer GEMMs; exponentiation is SAS.
After the attention, a full buffer is flushed into the cache (progressive
compression), so the number of cached FP16 bytes is always zero — the
property that distinguishes TurboAttention from KIVI/GEAR's FP16 residual
windows.

:func:`turbo_decode_step_split_k` is the FlashDecoding-composed variant:
cache blocks are partitioned into splits, each split runs the same integer
inner loop independently, and the partial ``(output, logsumexp)`` pairs
merge exactly (see :mod:`repro.attention.split_k`) — demonstrating the
paper's claim that TurboAttention slots into existing attention
schedulers.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.attention.split_k import merge_partials
from repro.core.buffer import DecodeBuffer
from repro.core.config import TurboConfig
from repro.core.kvcache import CacheBlock, QuantizedKVCache
from repro.guard.escalation import PrecisionEscalator
from repro.guard.numerics import check_finite_tile, check_scale, guarded_int_matmul
from repro.guard.report import GuardConfig, GuardReport
from repro.quant.integer_gemm import int_matmul
from repro.quant.progressive import pq_decompress_to_int8
from repro.sas.softmax import shared_sas

__all__ = ["turbo_decode_step", "turbo_decode_steps", "turbo_decode_step_split_k"]

Span = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_INT32_MAX = np.iinfo(np.int32).max


def _exp_fn(config: TurboConfig) -> Callable[[np.ndarray], np.ndarray]:
    if config.use_sas:
        return shared_sas(config.sas)
    return lambda x: np.where(np.isfinite(x), np.exp(np.minimum(x, 0.0)), 0.0)


def _quantize_query(q_t: np.ndarray, hkv: int, g: int, d: int, mc: int):
    qg = np.asarray(q_t, dtype=np.float64).reshape(hkv, g, 1, d)
    q_absmax = np.maximum(np.abs(qg).max(axis=(-2, -1), keepdims=True), 1e-12)
    q_scale = q_absmax / float(mc)
    qc = np.clip(np.rint(qg / q_scale), -mc, mc).astype(np.int8)
    return qc, q_scale


def _attend_spans(
    spans: Sequence[Span],
    qc: np.ndarray,
    q_scale: np.ndarray,
    config: TurboConfig,
    exp: Callable[[np.ndarray], np.ndarray],
    scale: float,
    hkv: int,
    g: int,
    d: int,
    guard: Optional[GuardConfig] = None,
    report: Optional[GuardReport] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run Algorithm 2's integer inner loop over a list of INT8 spans.

    Returns the normalized partial output ``(hkv, g, 1, d)`` and its
    logsumexp ``(hkv, g, 1)`` — the mergeable split-K contract.

    The unguarded integer path dispatches to
    :func:`_attend_spans_batched`, which produces bit-identical results
    from whole-history GEMMs instead of a per-span loop; the span loop
    below remains the reference (and the guard/ablation path, which needs
    per-span scale screening and FP16 MatMuls).
    """
    if (
        guard is None
        and config.quantize_matmuls
        and len(spans) > 0
        and qc.shape[-2] == 1
    ):
        batched = _attend_spans_batched(
            spans, qc, q_scale, config, exp, scale, hkv, g, d
        )
        if batched is not None:
            return batched
    mc = config.int8_max_code

    def _imatmul(a, b, where):
        if guard is not None:
            return guarded_int_matmul(a, b, where, guard, report)
        return int_matmul(a, b)

    m = np.full((hkv, g, 1), -np.inf)
    l = np.zeros((hkv, g, 1))
    acc = np.zeros((hkv, g, 1, d))
    for i, (k_codes, v_codes, k_scale, v_scale) in enumerate(spans):
        if guard is not None:
            # A restored/corrupted span can carry degenerate scales; the
            # codes themselves are integers and cannot be non-finite.
            k_scale = check_scale(k_scale, f"decode span {i} k scale", guard, report)
            v_scale = check_scale(v_scale, f"decode span {i} v scale", guard, report)
        s_tile = (
            q_scale
            * np.reshape(k_scale, (hkv, 1, 1, 1))
            * _imatmul(
                qc, np.swapaxes(k_codes, -1, -2)[:, None, :, :], f"decode qk span {i}"
            )
        ) * scale
        m_new = np.maximum(m, s_tile.max(axis=-1))
        with np.errstate(invalid="ignore"):
            corr = exp(m - m_new)
        corr = np.where(np.isfinite(m), corr, 0.0)
        p = exp(s_tile - m_new[..., None])
        l = corr * l + p.sum(axis=-1)
        if config.quantize_matmuls:
            p_absmax = np.maximum(np.abs(p).max(axis=(-2, -1), keepdims=True), 1e-12)
            p_scale = p_absmax / float(mc)
            pc = np.clip(np.rint(p / p_scale), -mc, mc).astype(np.int8)
            pv = (
                p_scale
                * np.reshape(v_scale, (hkv, 1, 1, 1))
                * _imatmul(pc, v_codes[:, None, :, :], f"decode pv span {i}")
            )
        else:
            pv = p @ (
                v_codes.astype(np.float64) * np.reshape(v_scale, (hkv, 1, 1))
            )[:, None, :, :]
        acc = corr[..., None] * acc + pv
        m = m_new
    safe_l = np.where(l > 0, l, 1.0)
    out = acc / safe_l[..., None]
    lse = np.where(l > 0, m + np.log(safe_l), -np.inf)
    return out, lse


def _attend_spans_batched(
    spans: Sequence[Span],
    qc: np.ndarray,
    q_scale: np.ndarray,
    config: TurboConfig,
    exp: Callable[[np.ndarray], np.ndarray],
    scale: float,
    hkv: int,
    g: int,
    d: int,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Flattened Algorithm 2 inner loop: one QK GEMM and one segmented PV
    reduction over the concatenated history, bit-identical to the span
    loop in :func:`_attend_spans`.

    Why identical: integer GEMM columns are independent, so slicing one
    concatenated product equals per-span products; ``max`` is exact in
    any order, so segmented ``maximum.reduceat`` + ``maximum.accumulate``
    reproduces the running-max trajectory; the exponential and the
    quantizer are element-wise, so one batched call over the row equals
    per-span calls; and the ``l``/``acc`` online-softmax folds keep the
    original per-span recursion (floats are order-sensitive there — each
    span's probability sum still uses the same pairwise ``.sum`` on the
    same-length slice).  Returns ``None`` when a worst-case accumulator
    bound cannot be certified int32-safe — the caller's loop (and its
    per-span overflow policy) then runs instead.
    """
    mc = config.int8_max_code
    nseg = len(spans)
    lens = np.array([s[0].shape[-2] for s in spans], dtype=np.int64)
    starts = np.zeros(nseg, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    k_all = np.concatenate([s[0] for s in spans], axis=-2)
    v_all = np.concatenate([s[1] for s in spans], axis=-2)
    # The scalar loop's overflow guard triggers per span; bail to it when
    # the batched bound (which is only ever looser) cannot rule overflow
    # out, so the policy fires with the scalar path's exact semantics.
    k_amax = int(np.max(np.abs(k_all), initial=0))
    v_amax = int(np.max(np.abs(v_all), initial=0))
    q_amax = int(np.max(np.abs(qc), initial=0))
    if q_amax * k_amax * d > _INT32_MAX or mc * v_amax * int(lens.max()) > _INT32_MAX:
        return None

    gemm = int_matmul(qc, np.swapaxes(k_all, -1, -2)[:, None, :, :])
    qk_scale = q_scale * np.stack(
        [np.reshape(s[2], (hkv, 1, 1)) for s in spans], axis=-1
    ).reshape(hkv, 1, 1, nseg)
    s_row = (np.repeat(qk_scale, lens, axis=-1) * gemm) * scale

    # Segmented max: ``max`` returns one of its inputs, so any grouping is
    # exact.  Uniform spans (the common case — cache blocks share one
    # block size) reshape to a dense axis; ragged histories fall back to
    # reduceat.
    uniform = bool((lens == lens[0]).all())
    if uniform:
        seg_view = s_row.reshape(hkv, g, 1, nseg, int(lens[0]))
        smax = seg_view.max(axis=-1)
    else:
        smax = np.maximum.reduceat(s_row, starts, axis=-1)
    m_new = np.maximum.accumulate(smax, axis=-1)
    m_prev = np.concatenate(
        [np.full((hkv, g, 1, 1), -np.inf), m_new[..., :-1]], axis=-1
    )
    with np.errstate(invalid="ignore"):
        corr_all = exp(m_prev - m_new)
    corr_all = np.where(np.isfinite(m_prev), corr_all, 0.0)
    p = exp(s_row - np.repeat(m_new, lens, axis=-1))

    abs_p = np.abs(p)
    if uniform:
        seg_absmax = abs_p.reshape(hkv, g, 1, nseg, int(lens[0])).max(axis=-1)
    else:
        seg_absmax = np.maximum.reduceat(abs_p, starts, axis=-1)
    p_absmax = np.maximum(seg_absmax, 1e-12)
    p_scale = p_absmax / float(mc)
    pc = np.clip(np.rint(p / np.repeat(p_scale, lens, axis=-1)), -mc, mc).astype(
        np.int8
    )
    # Segmented PV, one integer GEMM per history: the int32 headroom
    # check above certifies every product and partial sum is an exactly
    # representable float64 integer, so BLAS dgemm over the codes *is*
    # the per-span integer GEMM result (see repro.quant.integer_gemm).
    pcf = pc.astype(np.float64)[:, :, 0, :]
    vf = v_all.astype(np.float64)
    if uniform:
        length = int(lens[0])
        pv_seg = (
            pcf.reshape(hkv, g, nseg, 1, length)
            @ vf.reshape(hkv, nseg, length, d)[:, None, :, :, :]
        )[:, :, :, 0, :]
    else:
        pv_seg = np.empty((hkv, g, nseg, d), dtype=np.float64)
        for j in range(nseg):
            sl = slice(starts[j], starts[j] + lens[j])
            pv_seg[:, :, j, :] = (pcf[:, :, None, sl] @ vf[:, None, sl, :])[
                :, :, 0, :
            ]

    l = np.zeros((hkv, g, 1))
    acc = np.zeros((hkv, g, 1, d))
    for j in range(nseg):
        sl = slice(starts[j], starts[j] + lens[j])
        corr = corr_all[..., j]
        l = corr * l + p[..., sl].sum(axis=-1)
        pv = p_scale[..., j : j + 1] * np.reshape(
            spans[j][3], (hkv, 1, 1, 1)
        ) * pv_seg[:, :, j : j + 1, :]
        acc = corr[..., None] * acc + pv
    safe_l = np.where(l > 0, l, 1.0)
    out = acc / safe_l[..., None]
    lse = np.where(l > 0, m_new[..., -1] + np.log(safe_l), -np.inf)
    return out, lse


def _block_span(block: CacheBlock) -> Span:
    """A cache block's INT8 span, decompressed the first time a step
    attends over the block and memoized on it: blocks are immutable once
    appended, so their INT8 view never changes."""
    if block.int8_views is None:
        k8 = pq_decompress_to_int8(block.k)
        v8 = pq_decompress_to_int8(block.v)
        k8.setflags(write=False)
        v8.setflags(write=False)
        block.int8_views = (k8, v8)
    k8, v8 = block.int8_views
    return k8, v8, block.k.float_scale, block.v.float_scale


def _gather_spans(cache: QuantizedKVCache, buffer: DecodeBuffer) -> List[Span]:
    spans = [_block_span(block) for block in cache.blocks]
    buf_k, buf_v = buffer.codes()
    if buf_k.shape[-2] > 0:
        spans.append((buf_k, buf_v, buffer.k_scale, buffer.v_scale))
    return spans


def _flush_full_buffer(
    cache: QuantizedKVCache,
    buffer: DecodeBuffer,
    escalator: Optional[PrecisionEscalator],
    report: Optional[GuardReport],
) -> None:
    """Flush the buffer into a cache block, consulting the escalator.

    With an escalator, the flushed block's saturation stats update the
    per-head bit assignments *before* the block is compressed — the block
    that triggered escalation is already stored at the wider width — and
    clamp-hot heads regrow the frozen scale at this (empty-buffer)
    boundary.
    """
    if escalator is None:
        cache.append_block(*buffer.drain())
        return
    k_codes, v_codes, k_sc, v_sc = buffer.drain()
    decision = escalator.observe_flush(
        k_codes, v_codes, k_sc, v_sc, buffer.last_clamp_fraction, report
    )
    if decision.changed:
        cache.set_head_bits(decision.head_bits)
    cache.append_block(k_codes, v_codes, k_sc, v_sc)
    if decision.clamp_hot.any():
        grew = buffer.grow_scale(decision.clamp_hot)
        if grew and report is not None:
            report.scale_regrows += grew
            report.record(f"scale_regrow:{grew} heads")


def _prepare_step(
    q_t: np.ndarray,
    k_t: np.ndarray,
    v_t: np.ndarray,
    cache: QuantizedKVCache,
    buffer: DecodeBuffer,
    config: TurboConfig,
    scale: Optional[float],
    guard: Optional[GuardConfig] = None,
    report: Optional[GuardReport] = None,
    escalator: Optional[PrecisionEscalator] = None,
):
    q_t = np.asarray(q_t, dtype=np.float64)
    hq, d = q_t.shape
    hkv = cache.n_heads
    if hq % hkv != 0:
        raise ValueError(f"q_heads {hq} not a multiple of kv_heads {hkv}")
    g = hq // hkv
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    wants_fallback = False
    if guard is not None:
        q_t, fb_q = check_finite_tile(q_t, "decode q_t", guard, report)
        k_t, fb_k = check_finite_tile(
            np.asarray(k_t, dtype=np.float64), "decode k_t", guard, report
        )
        v_t, fb_v = check_finite_tile(
            np.asarray(v_t, dtype=np.float64), "decode v_t", guard, report
        )
        wants_fallback = fb_q or fb_k or fb_v
    if buffer.is_full:
        _flush_full_buffer(cache, buffer, escalator, report)
    buffer.append(k_t, v_t)
    qc, q_scale = _quantize_query(q_t, hkv, g, d, config.int8_max_code)
    return qc, q_scale, scale, hq, hkv, g, d, q_t, wants_fallback


def _reference_step_from_spans(
    spans: Sequence[Span],
    q_t: np.ndarray,
    scale: float,
    hkv: int,
    g: int,
    d: int,
) -> np.ndarray:
    """FP16-reference decode: dequantize every span and run exact softmax
    attention — the fallback path for a guard-flagged step.

    The cache stores only codes + scales, so ``codes * scale`` *is* the
    reference-precision view of the history; what this path removes is the
    integer score/output arithmetic and SAS for the poisoned step.
    """
    k_f = np.concatenate(
        [c.astype(np.float64) * np.reshape(s, (hkv, 1, 1)) for c, _, s, _ in spans],
        axis=-2,
    )
    v_f = np.concatenate(
        [c.astype(np.float64) * np.reshape(s, (hkv, 1, 1)) for _, c, _, s in spans],
        axis=-2,
    )
    qg = q_t.reshape(hkv, g, 1, d)
    s = (qg @ np.swapaxes(k_f, -1, -2)[:, None, :, :]) * scale
    m = s.max(axis=-1, keepdims=True)
    p = np.exp(s - m)
    p = p / p.sum(axis=-1, keepdims=True)
    return p @ v_f[:, None, :, :]


def turbo_decode_step(
    q_t: np.ndarray,
    k_t: np.ndarray,
    v_t: np.ndarray,
    cache: QuantizedKVCache,
    buffer: DecodeBuffer,
    config: TurboConfig,
    scale: Optional[float] = None,
    guard: Optional[GuardConfig] = None,
    report: Optional[GuardReport] = None,
    escalator: Optional[PrecisionEscalator] = None,
) -> np.ndarray:
    """One decode step.

    Parameters
    ----------
    q_t:
        Query for the new token, shape ``(q_heads, head_dim)``.
    k_t, v_t:
        The new token's key/value, shape ``(kv_heads, head_dim)``; staged
        into the buffer before attention so the token attends to itself.
    cache, buffer:
        State produced by :func:`repro.core.prefill.turbo_prefill` (and
        mutated by previous decode steps).
    config:
        Kernel hyper-parameters.
    scale:
        Score scale, default ``1/sqrt(head_dim)``.
    guard:
        Optional numerics guard: step inputs are screened for NaN/Inf,
        span scales for degeneracy, and the integer GEMMs get the
        recoverable overflow guard.  Under the ``fallback`` policy a
        poisoned step reruns through the FP16 reference path over the
        dequantized history.
    report:
        Counter sink (created automatically when ``guard`` is given).
    escalator:
        Optional adaptive-precision escalator consulted at every buffer
        flush (see :mod:`repro.guard.escalation`).

    Returns
    -------
    Attention output for the token, shape ``(q_heads, head_dim)``.
    """
    if guard is not None and report is None:
        report = GuardReport()
    qc, q_scale, scale, hq, hkv, g, d, q_f, wants_fallback = _prepare_step(
        q_t, k_t, v_t, cache, buffer, config, scale, guard, report, escalator
    )
    spans = _gather_spans(cache, buffer)
    if wants_fallback:
        report.fallback_steps += 1
        report.record("fallback_step:decode")
        out = _reference_step_from_spans(spans, q_f, scale, hkv, g, d)
        return out.reshape(hq, d)
    exp = _exp_fn(config)
    out, _lse = _attend_spans(
        spans, qc, q_scale, config, exp, scale, hkv, g, d, guard, report
    )
    return out.reshape(hq, d)


def turbo_decode_steps(
    qs: np.ndarray,
    ks: np.ndarray,
    vs: np.ndarray,
    cache: QuantizedKVCache,
    buffer: DecodeBuffer,
    config: TurboConfig,
    scale: Optional[float] = None,
    guard: Optional[GuardConfig] = None,
    report: Optional[GuardReport] = None,
    escalator: Optional[PrecisionEscalator] = None,
) -> np.ndarray:
    """Decode a run of tokens, one :func:`turbo_decode_step` per token.

    ``qs``/``ks``/``vs`` have shapes ``(steps, q_heads, head_dim)`` and
    ``(steps, kv_heads, head_dim)``; row ``t`` of the ``(steps, q_heads,
    head_dim)`` result is step ``t``'s output.  With a guard, one report
    collects every step's counters.
    """
    qs = np.asarray(qs, dtype=np.float64)
    ks = np.asarray(ks, dtype=np.float64)
    vs = np.asarray(vs, dtype=np.float64)
    steps = qs.shape[0]
    if ks.shape[0] != steps or vs.shape[0] != steps:
        raise ValueError("qs/ks/vs must carry the same number of tokens")
    if guard is not None and report is None:
        report = GuardReport()
    out = np.zeros(qs.shape, dtype=np.float64)
    for t in range(steps):
        out[t] = turbo_decode_step(
            qs[t], ks[t], vs[t], cache, buffer, config,
            scale=scale, guard=guard, report=report, escalator=escalator,
        )
    return out


def turbo_decode_step_split_k(
    q_t: np.ndarray,
    k_t: np.ndarray,
    v_t: np.ndarray,
    cache: QuantizedKVCache,
    buffer: DecodeBuffer,
    config: TurboConfig,
    n_splits: int = 4,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Split-K decode: the cache's spans are partitioned across
    ``n_splits`` independent workers whose partials merge exactly.

    Identical output (up to float addition order) to
    :func:`turbo_decode_step`; exists to demonstrate — and test — that the
    quantized path composes with FlashDecoding-style scheduling.
    """
    if n_splits < 1:
        raise ValueError("n_splits must be >= 1")
    qc, q_scale, scale, hq, hkv, g, d, _q_f, _fb = _prepare_step(
        q_t, k_t, v_t, cache, buffer, config, scale
    )
    exp = _exp_fn(config)
    spans = _gather_spans(cache, buffer)
    n_splits = min(n_splits, len(spans))
    bounds = np.linspace(0, len(spans), n_splits + 1, dtype=int)
    outs, lses = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo:
            continue
        out, lse = _attend_spans(
            spans[lo:hi], qc, q_scale, config, exp, scale, hkv, g, d
        )
        outs.append(out)
        lses.append(lse)
    merged, _ = merge_partials(outs, lses)
    return merged.reshape(hq, d)
