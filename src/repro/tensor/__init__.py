"""Numpy-backed reverse-mode autodiff engine (training substrate S1).

Public surface::

    from repro.tensor import Tensor, ops, no_grad, checkpoint

The engine implements everything the paper's fine-tuning stack needs:
broadcast-aware arithmetic, batched matmul, the usual activations,
softmax/log-softmax, gather/scatter primitives for embeddings and MoE
token routing, the fused selective scan of Mamba layers (``ops.ssm_scan``),
and gradient checkpointing.
"""

from .checkpoint import checkpoint
from .core import DEFAULT_DTYPE, Function, Tensor, ones, randn, tensor, unbroadcast, zeros
from .grad_mode import enable_grad, is_grad_enabled, no_grad, set_grad_enabled
from . import ops

__all__ = [
    "DEFAULT_DTYPE",
    "Function",
    "Tensor",
    "checkpoint",
    "enable_grad",
    "is_grad_enabled",
    "no_grad",
    "ones",
    "ops",
    "randn",
    "set_grad_enabled",
    "tensor",
    "unbroadcast",
    "zeros",
]
