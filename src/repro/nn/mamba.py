"""Selective state-space (Mamba) mixer.

BlackMamba replaces attention with Mamba layers (Gu & Dao, 2024). This is
a faithful small-scale implementation of the selective SSM:

1. ``in_proj`` expands the model dim to an inner dim and a gate path.
2. A short causal depthwise convolution plus SiLU shapes the inner signal.
3. ``x_proj``/``dt_proj`` produce the input-dependent step size ``delta``
   and the state matrices ``B_t`` and ``C_t`` (the *selective* part).
4. One :func:`~repro.tensor.ops.ssm_scan` op, named after the simulator's
   kernel, discretizes, runs the diagonal recurrence
   ``h_t = exp(delta_t * A) h_{t-1} + delta_t B_t x_t`` and contracts the
   state with ``C_t``.
5. A skip ``D`` path is added, the result is gated by ``silu(z)``, and
   ``out_proj`` projects back to the model dim.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..rng import resolve_rng
from ..tensor import Tensor, ops
from .conv import CausalDepthwiseConv1d
from .linear import Linear
from .module import Module, Parameter


class MambaMixer(Module):
    """Selective SSM token mixer over ``(batch, length, dim)`` inputs."""

    def __init__(
        self,
        dim: int,
        state_dim: int = 8,
        expand: int = 2,
        conv_kernel: int = 4,
        dt_rank: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        self.dim = dim
        self.state_dim = state_dim
        self.inner_dim = expand * dim
        self.dt_rank = dt_rank if dt_rank is not None else max(1, dim // 8)

        self.in_proj = Linear(dim, 2 * self.inner_dim, rng=rng)
        self.conv = CausalDepthwiseConv1d(self.inner_dim, kernel_size=conv_kernel, rng=rng)
        self.x_proj = Linear(self.inner_dim, self.dt_rank + 2 * state_dim, rng=rng)
        self.dt_proj = Linear(self.dt_rank, self.inner_dim, bias=True, rng=rng)
        self.out_proj = Linear(self.inner_dim, dim, rng=rng)
        # S4D-real initialization: A_n = -(n+1), stored as log magnitude.
        a_init = np.tile(np.arange(1, state_dim + 1, dtype=np.float64), (self.inner_dim, 1))
        self.a_log = Parameter(np.log(a_init))
        self.d_skip = Parameter(np.ones(self.inner_dim))

    def forward(self, x: Tensor) -> Tensor:
        inner = self.inner_dim
        state = self.state_dim

        projected = self.in_proj(x)
        u = projected[:, :, :inner]
        z = projected[:, :, inner:]

        u = ops.silu(self.conv(u))

        params = self.x_proj(u)
        dt_raw = params[:, :, : self.dt_rank]
        b_t = params[:, :, self.dt_rank : self.dt_rank + state]
        c_t = params[:, :, self.dt_rank + state :]
        delta = ops.softplus(self.dt_proj(dt_raw))  # (batch, length, inner)

        # Discretize, run the recurrence and contract with C_t in one op;
        # A = -exp(a_log) keeps every mode decaying.
        a_matrix = -ops.exp(self.a_log)  # (inner, state)
        y = ops.ssm_scan(u, delta, a_matrix, b_t, c_t) + u * self.d_skip

        gated = y * ops.silu(z)
        return self.out_proj(gated)

    def __repr__(self) -> str:
        return (
            f"MambaMixer(dim={self.dim}, inner={self.inner_dim}, "
            f"state={self.state_dim}, dt_rank={self.dt_rank})"
        )
