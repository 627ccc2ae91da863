"""Mixture-of-Experts layer — an executable version of the paper's Fig. 12.

The pseudocode in the paper:

1. hidden states go to the router, which produces router logits;
2. logits determine the top-k experts per token;
3. tokens are grouped and dispatched to their assigned experts;
4. expert outputs are combined, weighted by the (renormalized) gate
   probabilities.

Dense fine-tuning sets ``top_k = num_experts`` (all experts active);
sparse fine-tuning uses ``top_k = 2`` of 8, matching the paper's setup.

Dispatch is grouped. One stable argsort of the ``(token, slot)`` expert
choices puts every expert's tokens in one contiguous block, in ascending
token order, so each expert sees the same rows the per-expert
``np.nonzero`` scan would give it. All gate weights come out of one
gather, all expert outputs are weighted by one multiply, and one
:func:`~repro.tensor.ops.scatter_rows` folds each token's ``k`` weighted
rows onto 0.0 in ascending expert order. That is the order in which
accumulating one expert at a time adds them, so outputs and gradients are
the same bit for bit.

The layer tracks per-expert token counts for the Fig. 11 load-imbalance
study and exposes a Switch-style auxiliary load-balancing loss used when
"pre-training" the tiny models into a balanced routing state.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..tensor import Tensor, ops
from ..tensor.grad_mode import is_grad_enabled
from .module import Module, ModuleList
from .router import TopKRouter


class MoELayer(Module):
    """Top-k routed mixture of expert FFNs over ``(batch, length, dim)``."""

    def __init__(
        self,
        dim: int,
        num_experts: int,
        top_k: int,
        expert_factory: Callable[[], Module],
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.dim = dim
        self.num_experts = num_experts
        self.top_k = top_k
        self.router = TopKRouter(dim, num_experts, top_k, rng=rng)
        self.experts = ModuleList([expert_factory() for _ in range(num_experts)])
        # Profiling / characterization hooks.
        self.last_expert_counts: Optional[np.ndarray] = None
        self.cumulative_expert_counts = np.zeros(num_experts, dtype=np.int64)
        self.aux_loss: Optional[Tensor] = None
        self.track_aux_loss = False

    @property
    def sparsity(self) -> float:
        """Fraction of experts active per token (paper's sparsity knob)."""
        return self.top_k / self.num_experts

    def set_top_k(self, top_k: int) -> None:
        """Switch between dense (k = E) and sparse (k < E) fine-tuning."""
        if not 1 <= top_k <= self.num_experts:
            raise ValueError(f"top_k={top_k} out of range [1, {self.num_experts}]")
        self.top_k = top_k
        self.router.top_k = top_k

    def reset_load_statistics(self) -> None:
        self.last_expert_counts = None
        self.cumulative_expert_counts = np.zeros(self.num_experts, dtype=np.int64)

    def forward(self, x: Tensor) -> Tensor:
        batch, length, dim = x.shape
        num_tokens = batch * length
        flat = x.reshape(num_tokens, dim)

        decision = self.router(flat)
        # Under gradient checkpointing the block body executes twice (once
        # recording-free, once during recomputation). Count routing stats on
        # exactly one of those executions: the grad-enabled one while
        # training, or any execution in eval mode.
        if is_grad_enabled() or not self.training:
            self.last_expert_counts = decision.expert_counts
            self.cumulative_expert_counts += decision.expert_counts
        if self.track_aux_loss:
            self.aux_loss = self._load_balancing_loss(decision)

        if num_tokens == 0:
            return (flat * 0.0).reshape(batch, length, dim)

        # Group the (token, slot) choices by expert; the stable sort keeps
        # each expert's tokens ascending.
        choices = decision.expert_indices.reshape(-1)
        order = np.argsort(choices, kind="stable")
        token_ids = order // decision.expert_indices.shape[1]
        expert_ids = choices[order]
        ends = np.cumsum(decision.expert_counts)
        outputs = []
        for expert, start, end in zip(self.experts, ends - decision.expert_counts, ends):
            if end > start:
                outputs.append(expert(ops.take_rows(flat, token_ids[start:end])))

        gates = ops.take_rows(
            decision.gates_full.reshape(num_tokens * self.num_experts, 1),
            token_ids * self.num_experts + expert_ids,
        )
        weighted = ops.concat(outputs, axis=0) * gates
        combined = ops.scatter_rows(weighted, token_ids, num_tokens)
        return combined.reshape(batch, length, dim)

    def _load_balancing_loss(self, decision) -> Tensor:
        """Switch-Transformer auxiliary loss: E * sum_e f_e * P_e.

        ``f_e`` is the fraction of tokens dispatched to expert ``e`` (data)
        and ``P_e`` the mean router probability (differentiable). Minimized
        when routing is uniform.
        """
        num_tokens = max(1, int(decision.expert_counts.sum() // self.top_k))
        fractions = decision.expert_counts.astype(np.float64) / (num_tokens * self.top_k)
        mean_probs = decision.router_probs.mean(axis=0)
        return (mean_probs * Tensor(fractions)).sum() * float(self.num_experts)

    def __repr__(self) -> str:
        return (
            f"MoELayer(dim={self.dim}, experts={self.num_experts}, "
            f"top_k={self.top_k}, sparsity={self.sparsity:.3f})"
        )
