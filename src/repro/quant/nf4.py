"""NF4 blockwise quantization (the QLoRA weight format).

QLoRA stores frozen base weights as 4-bit NormalFloat (NF4) codes with a
per-block absmax scale, and dequantizes them on the fly inside every
forward pass. This module reimplements that scheme:

* :data:`NF4_CODEBOOK` — the 16 NF4 levels (quantiles of a standard
  normal, normalized to [-1, 1]) from Dettmers et al., 2023.
* :func:`quantize` / :class:`QuantizedTensor` — blockwise encode with
  packed 4-bit codes (two codes per byte) plus per-block scales.
* :meth:`QuantizedTensor.dequantize` — exact decode used by the
  quantized-linear layer; this is the operation that shows up as the
  ``*_dequant`` kernels of the paper's Fig. 6. Each packed byte holds two
  codes, so the decode is one ``np.take`` from a 256-row table of level
  pairs (:data:`_NF4_PAIRS`) and one in-place multiply by the block
  scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

# The 16 NormalFloat-4 levels from the QLoRA paper (bitsandbytes values).
NF4_CODEBOOK = np.array(
    [
        -1.0,
        -0.6961928009986877,
        -0.5250730514526367,
        -0.39491748809814453,
        -0.28444138169288635,
        -0.18477343022823334,
        -0.09105003625154495,
        0.0,
        0.07958029955625534,
        0.16093020141124725,
        0.24611230194568634,
        0.33791524171829224,
        0.44070982933044434,
        0.5626170039176941,
        0.7229568362236023,
        1.0,
    ],
    dtype=np.float64,
)

# Decision boundaries (midpoints) for nearest-level encoding via searchsorted.
_NF4_BOUNDARIES = (NF4_CODEBOOK[1:] + NF4_CODEBOOK[:-1]) / 2.0

# Row ``byte`` holds the levels of its high and low nibble, in that order.
_BYTES = np.arange(256)
_NF4_PAIRS = np.stack([NF4_CODEBOOK[_BYTES >> 4], NF4_CODEBOOK[_BYTES & 0x0F]], axis=1)

DEFAULT_BLOCK_SIZE = 64


@dataclass
class QuantizedTensor:
    """A 4-bit NF4-encoded tensor with per-block absmax scales.

    Attributes
    ----------
    packed:
        uint8 array with two 4-bit codes per byte (high nibble first).
    scales:
        float32 per-block absmax scale factors.
    shape:
        Original (unquantized) shape.
    block_size:
        Elements per quantization block.
    """

    packed: np.ndarray
    scales: np.ndarray
    shape: Tuple[int, ...]
    block_size: int = DEFAULT_BLOCK_SIZE

    @property
    def num_elements(self) -> int:
        return int(np.prod(self.shape))

    @property
    def nominal_bytes(self) -> int:
        """Storage cost: 0.5 bytes/element plus fp32 scale per block."""
        return self.packed.nbytes + self.scales.nbytes

    def dequantize(self, dtype=np.float64) -> np.ndarray:
        """Decode back to floating point (the QLoRA forward-pass dequant)."""
        values = np.take(_NF4_PAIRS, self.packed, axis=0).reshape(-1, self.block_size)
        values *= self.scales[:, None]  # float32 scales widen exactly to float64
        return values.reshape(-1)[: self.num_elements].reshape(self.shape).astype(dtype, copy=False)


def _ceil_to(n: int, multiple: int) -> int:
    return ((n + multiple - 1) // multiple) * multiple


def quantize(weight: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> QuantizedTensor:
    """Encode ``weight`` as blockwise NF4.

    Each block of ``block_size`` consecutive elements is scaled by its
    absolute maximum and mapped to the nearest NF4 level.
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    flat = np.asarray(weight, dtype=np.float64).reshape(-1)
    n = flat.size
    padded = _ceil_to(n, block_size)
    buffer = np.zeros(padded, dtype=np.float64)
    buffer[:n] = flat
    blocks = buffer.reshape(-1, block_size)

    scales = np.abs(blocks).max(axis=1)
    scales = np.where(scales == 0.0, 1.0, scales)  # all-zero blocks decode to 0
    normalized = blocks / scales[:, None]
    codes = np.searchsorted(_NF4_BOUNDARIES, normalized.reshape(-1)).astype(np.uint8)

    packed = (codes[0::2] << 4) | codes[1::2]
    return QuantizedTensor(
        packed=packed,
        scales=scales.astype(np.float32),
        shape=tuple(np.asarray(weight).shape),
        block_size=block_size,
    )


def quantization_error(weight: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> float:
    """RMS round-trip error, normalized by the RMS of the input."""
    qt = quantize(weight, block_size=block_size)
    reconstructed = qt.dequantize()
    rms = float(np.sqrt(np.mean(np.asarray(weight, dtype=np.float64) ** 2)))
    if rms == 0.0:
        return 0.0
    return float(np.sqrt(np.mean((reconstructed - weight) ** 2))) / rms
