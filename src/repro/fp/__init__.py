"""Low-precision floating-point emulation.

GPUs execute the attention MatMuls in FP16 (tensor cores, FP32 accumulate)
and — in stock FlashAttention — the exponentiation in FP32 (CUDA cores).
This subpackage emulates those storage formats on top of float64 NumPy so
the rest of the library can reason about precision without GPU hardware.
"""

from repro.fp.formats import (
    FloatFormat,
    FP16,
    BF16,
    FP32,
    quantize_to_format,
    fp16_operand,
    fp16_matmul,
)
from repro.fp.fp8 import FP8_E4M3, FP8_E5M2, quantize_fp8, fp8_matmul

__all__ = [
    "FloatFormat",
    "FP16",
    "BF16",
    "FP32",
    "quantize_to_format",
    "fp16_operand",
    "fp16_matmul",
    "FP8_E4M3",
    "FP8_E5M2",
    "quantize_fp8",
    "fp8_matmul",
]
