"""Linear projections: dense, NF4-quantized (frozen), and LoRA-wrapped.

These three classes are the building blocks of the paper's two fine-tuning
regimes:

* BlackMamba full fine-tuning → plain :class:`Linear` everywhere.
* Mixtral QLoRA → :class:`QuantizedLinear` frozen base weights that are
  dequantized on every forward (the Fig. 6 ``*_dequant`` kernels), with
  :class:`LoRALinear` adapters adding the trainable low-rank path.

Both base classes hand :class:`LoRALinear` their weight as a dense tensor
through ``dense_weight``, so one path serves either base: the weight, the
input and the adapter go to :func:`~repro.tensor.ops.lora_linear`, one
autograd node per projection.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..quant import QuantizedTensor, quantize
from ..rng import resolve_rng
from ..tensor import Tensor, ops
from .module import Module, Parameter


def _kaiming_scale(fan_in: int) -> float:
    return float(1.0 / np.sqrt(fan_in))


class Linear(Module):
    """``y = x @ W^T + b`` with Kaiming-uniform style initialization."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        scale = _kaiming_scale(in_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(rng.uniform(-scale, scale, (out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def dense_weight(self, dtype=None) -> Tensor:
        """The ``(out, in)`` weight parameter itself, as :class:`LoRALinear`
        reads it; ``dtype`` only matters to a quantized base's decode."""
        return self.weight

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class QuantizedLinear(Module):
    """A frozen linear layer whose weight lives in NF4 and is dequantized per call.

    Mirrors QLoRA semantics: the 4-bit base weight receives no gradient;
    activations flow through the dequantized matrix, so gradients still
    propagate to the layer *input* (needed by LoRA adapters upstream).
    """

    def __init__(self, in_features: int, out_features: int, weight: np.ndarray, block_size: int = 64) -> None:
        super().__init__()
        if weight.shape != (out_features, in_features):
            raise ValueError(f"weight shape {weight.shape} != ({out_features}, {in_features})")
        self.in_features = in_features
        self.out_features = out_features
        self.quantized: QuantizedTensor = quantize(weight, block_size=block_size)
        self.dequant_calls = 0  # profiling hook: counts Fig. 6 dequant kernel launches

    @classmethod
    def from_linear(cls, linear: Linear, block_size: int = 64) -> "QuantizedLinear":
        if linear.bias is not None:
            raise ValueError("QuantizedLinear does not support bias")
        return cls(linear.in_features, linear.out_features, linear.weight.data, block_size=block_size)

    def dense_weight(self, dtype=np.float64) -> Tensor:
        """The decoded ``(out, in)`` weight: one dequant kernel launch."""
        self.dequant_calls += 1
        return Tensor(self.quantized.dequantize(dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.dense_weight(x.dtype).T

    def __repr__(self) -> str:
        return f"QuantizedLinear(in={self.in_features}, out={self.out_features}, nf4)"


class LoRALinear(Module):
    """Low-Rank Adaptation around a frozen base projection.

    ``y = base(x) + (alpha / r) * (x @ A^T) @ B^T`` where ``A`` (r x in) is
    Gaussian-initialized and ``B`` (out x r) starts at zero so the adapter
    is a no-op at step 0 (Hu et al., 2021). The base is a
    :class:`QuantizedLinear` or an unbiased :class:`Linear`; either way
    the forward is one :func:`~repro.tensor.ops.lora_linear` node.
    """

    def __init__(
        self,
        base: Module,
        rank: int = 16,
        alpha: float = 16.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if rank <= 0:
            raise ValueError(f"LoRA rank must be positive, got {rank}")
        if getattr(base, "bias", None) is not None:
            raise ValueError("LoRALinear does not support a biased base")
        rng = resolve_rng(rng)
        in_features = base.in_features
        out_features = base.out_features
        self.base = base
        self.rank = rank
        self.alpha = alpha
        self.scaling = alpha / rank
        self.lora_a = Parameter(rng.standard_normal((rank, in_features)) * (1.0 / np.sqrt(in_features)))
        self.lora_b = Parameter(np.zeros((out_features, rank)))
        # The base weights never train under LoRA.
        self.base.freeze()

    @property
    def in_features(self) -> int:
        return self.base.in_features

    @property
    def out_features(self) -> int:
        return self.base.out_features

    def forward(self, x: Tensor) -> Tensor:
        weight = self.base.dense_weight(x.dtype)
        return ops.lora_linear(x, weight, self.lora_a, self.lora_b, self.scaling)

    def num_adapter_parameters(self) -> int:
        return self.lora_a.size + self.lora_b.size

    def merged_weight(self) -> np.ndarray:
        """Return base + adapter as a dense matrix (for analysis only)."""
        if isinstance(self.base, QuantizedLinear):
            base_w = self.base.quantized.dequantize()
        else:
            base_w = self.base.weight.data
        return base_w + self.scaling * (self.lora_b.data @ self.lora_a.data)

    def __repr__(self) -> str:
        return f"LoRALinear(r={self.rank}, alpha={self.alpha}, base={self.base!r})"
