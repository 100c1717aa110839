"""Weight(-and-activation) quantizers for the composition study (Table 5).

The paper's Appendix E shows TurboAttention composing with linear-layer
quantization schemes: LLM.int8() and QServe's W4A8.  These operate on the
projection/FFN weights — orthogonal to the attention-side quantization — so
we implement faithful simplified versions over the NumPy transformer
substrate:

* :class:`LLMInt8Linear` — per-output-channel symmetric INT8 weights with
  mixed-precision decomposition: input features whose activation magnitude
  exceeds a threshold are processed in FP16 (Dettmers et al., 2022).
* :class:`QServeW4A8Linear` — progressive W4A8: weights stored INT4
  (per-channel asymmetric over INT8 symmetric codes, exactly the
  progressive scheme of :mod:`repro.quant.progressive`), activations
  quantized per-token to INT8 at call time.
* :class:`DenseLinear` — the FP16 reference.

All three expose ``__call__(x) -> y`` and ``storage_bits`` so the model
substrate can swap them in and the memory model can account for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.fp.formats import fp16_matmul, fp16_operand, quantize_to_format, FP16
from repro.quant.integer_gemm import int_matmul
from repro.quant.progressive import pq_compress, pq_decompress_to_int8
from repro.quant.schemes import quantize_symmetric, symmetric_scale

__all__ = ["DenseLinear", "LLMInt8Linear", "QServeW4A8Linear", "make_linear"]


@dataclass
class DenseLinear:
    """FP16 dense linear layer ``y = x @ W`` (weights stored FP16).

    The weight is rounded once, at construction, into the FP16-exact
    float32 operand the MMA consumes (:func:`fp16_operand`); a call rounds
    only the activation.  That is bit-identical to
    ``fp16_matmul(x, W)`` because the stored array already holds exactly
    the FP16 bits ``fp16_matmul`` would derive from ``W`` on every call.
    """

    weight: np.ndarray  # (in_features, out_features), float32, FP16-exact

    def __post_init__(self) -> None:
        self.weight = fp16_operand(self.weight)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return (fp16_operand(x) @ self.weight).astype(np.float64)

    @property
    def storage_bits(self) -> int:
        return int(np.prod(self.weight.shape)) * 16


class LLMInt8Linear:
    """LLM.int8()-style linear layer.

    Weights are quantized symmetrically per output channel to INT8.  At call
    time, input feature columns whose magnitude exceeds
    ``outlier_threshold`` anywhere in the batch are routed through an FP16
    side path using the original weights; the remainder runs as an INT8
    integer GEMM with per-token activation scales.
    """

    def __init__(self, weight: np.ndarray, outlier_threshold: float = 6.0):
        self.outlier_threshold = float(outlier_threshold)
        self._weight_fp16 = quantize_to_format(weight, FP16)
        # Per-output-channel symmetric INT8 (axis 0 reduces over input dim).
        self.w_codes, self.w_scale = quantize_symmetric(self._weight_fp16, bits=8, axis=0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(-1, x.shape[-1])
        col_max = np.abs(flat).max(axis=0)
        outliers = col_max > self.outlier_threshold
        y = np.zeros((flat.shape[0], self.w_codes.shape[1]), dtype=np.float64)
        if np.any(~outliers):
            sub = flat[:, ~outliers]
            a_codes, a_scale = quantize_symmetric(sub, bits=8, axis=-1)
            acc = int_matmul(a_codes, self.w_codes[~outliers, :]).astype(np.float64)
            y += a_scale * self.w_scale * acc
        if np.any(outliers):
            y += fp16_matmul(flat[:, outliers], self._weight_fp16[outliers, :])
        return y.reshape(x.shape[:-1] + (self.w_codes.shape[1],))

    @property
    def storage_bits(self) -> int:
        n = int(np.prod(self.w_codes.shape))
        return n * 8 + int(np.prod(self.w_scale.shape)) * 16


class QServeW4A8Linear:
    """QServe-style W4A8 linear layer with progressive weight storage.

    Weights: INT8 symmetric per output channel, then progressive INT4
    asymmetric per channel group (integer scales/zeros) — dequantized to
    INT8 codes once at load (QServe fuses this into the GEMM prologue).
    Activations: per-token symmetric INT8 at call time.
    """

    def __init__(self, weight: np.ndarray, group_size: int = 128):
        w_fp16 = quantize_to_format(weight, FP16)
        w8_codes, w_scale = quantize_symmetric(w_fp16, bits=8, axis=0)
        self.w_scale = w_scale
        # Progressive stage 2 over input-dim groups: treat the input axis as
        # the "token" axis of pq_compress.
        in_features = w8_codes.shape[0]
        gs = min(group_size, in_features)
        pad = (-in_features) % gs
        padded = np.pad(w8_codes, ((0, pad), (0, 0))) if pad else w8_codes
        grouped = padded.reshape(-1, gs, padded.shape[1])
        self._block = pq_compress(grouped, bits=4, float_scale=w_scale, token_axis=-2)
        w8_hat = pq_decompress_to_int8(self._block).reshape(padded.shape)
        self.w_codes = w8_hat[:in_features, :].astype(np.int8)
        self._in_features = in_features

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        a_codes, a_scale = quantize_symmetric(x, bits=8, axis=-1)
        acc = int_matmul(a_codes, self.w_codes).astype(np.float64)
        return a_scale * self.w_scale * acc

    @property
    def storage_bits(self) -> int:
        return self._block.storage_bits + int(np.prod(np.shape(self.w_scale))) * 16


def make_linear(weight: np.ndarray, scheme: str = "fp16", **kwargs):
    """Factory mapping a scheme name to a linear-layer implementation."""
    if scheme == "fp16":
        return DenseLinear(weight)
    if scheme == "llm_int8":
        return LLMInt8Linear(weight, **kwargs)
    if scheme == "qserve_w4a8":
        return QServeW4A8Linear(weight, **kwargs)
    raise ValueError(f"unknown linear quantization scheme: {scheme!r}")
