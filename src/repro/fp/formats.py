"""Floating-point storage-format emulation.

The library stores "FP16" tensors as float32/float64 arrays that have been
rounded through ``np.float16`` (round-to-nearest-even), matching what a GPU
register holds after a half-precision load.  BF16 is emulated by truncating
the float32 mantissa to 7 bits, which is the hardware behaviour of
round-to-nearest for bfloat16 conversion units.

MatMuls that model tensor-core MMA instructions round *inputs* to the
storage format but accumulate in float32, which is how A100 HMMA behaves.
:func:`fp16_operand` is that input rounding on its own: it returns the
float32 array the MMA multiplies, so an operand that never changes (a
weight) can be rounded once and reused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FloatFormat",
    "FP16",
    "BF16",
    "FP32",
    "quantize_to_format",
    "fp16_operand",
    "fp16_matmul",
]


@dataclass(frozen=True)
class FloatFormat:
    """Description of an IEEE-like floating-point storage format.

    Attributes
    ----------
    name:
        Human-readable name ("fp16", "bf16", "fp32").
    exponent_bits:
        Width of the exponent field.
    mantissa_bits:
        Width of the stored (explicit) mantissa field.
    bytes:
        Storage size in bytes, used by the performance model.
    """

    name: str
    exponent_bits: int
    mantissa_bits: int
    bytes: int

    @property
    def max_value(self) -> float:
        """Largest finite representable magnitude."""
        if self.name == "fp16":
            return float(np.finfo(np.float16).max)
        if self.name == "bf16":
            # Same exponent range as fp32, 8-bit significand precision.
            return float(np.finfo(np.float32).max)
        return float(np.finfo(np.float32).max)

    @property
    def eps(self) -> float:
        """Machine epsilon (unit roundoff * 2) of the format."""
        return 2.0 ** (-self.mantissa_bits)


FP16 = FloatFormat(name="fp16", exponent_bits=5, mantissa_bits=10, bytes=2)
BF16 = FloatFormat(name="bf16", exponent_bits=8, mantissa_bits=7, bytes=2)
FP32 = FloatFormat(name="fp32", exponent_bits=8, mantissa_bits=23, bytes=4)


def _round_bf16(x: np.ndarray) -> np.ndarray:
    """Round float32 values to bfloat16 precision (round-to-nearest-even)."""
    x32 = np.asarray(x, dtype=np.float32)
    bits = x32.view(np.uint32)
    # Round-to-nearest-even on the low 16 bits.
    rounding_bias = ((bits >> 16) & 1).astype(np.uint32) + np.uint32(0x7FFF)
    rounded = (bits + rounding_bias) & np.uint32(0xFFFF0000)
    return rounded.view(np.float32).astype(np.float64)


def quantize_to_format(x: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """Round ``x`` through the storage format ``fmt`` and return float64.

    This models a store-then-load round trip: the values are exactly
    representable in ``fmt`` but all downstream arithmetic stays in NumPy's
    native double precision so quantization effects are isolated to the
    rounding itself.
    """
    x = np.asarray(x, dtype=np.float64)
    if fmt.name == "fp32":
        return x.astype(np.float32).astype(np.float64)
    if fmt.name == "fp16":
        return x.astype(np.float16).astype(np.float64)
    if fmt.name == "bf16":
        return _round_bf16(x)
    raise ValueError(f"unknown float format: {fmt.name!r}")


def fp16_operand(x: np.ndarray) -> np.ndarray:
    """Store ``x`` as FP16 and load it as the float32 MMA operand.

    Every FP16 value (subnormals and +/-inf included) is exact in float32,
    so the returned array holds exactly the FP16 bits; values past the
    FP16 range become +/-inf, as a half-precision store makes them.
    """
    return np.asarray(x, dtype=np.float64).astype(np.float16).astype(np.float32)


def fp16_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor-core-style half-precision MatMul.

    Inputs are rounded to FP16; the product accumulates in float32, which is
    the numeric behaviour of A100/H100 HMMA instructions (and what both
    FlashAttention and our TurboAttention kernels assume).
    """
    return (fp16_operand(a) @ fp16_operand(b)).astype(np.float64)
