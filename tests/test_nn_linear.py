"""Tests for Linear / QuantizedLinear / LoRALinear."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, ops


def composite_forward(lora, x):
    """The LoRA forward as separate tensor ops, the graph the fused
    ``ops.lora_linear`` node replaces."""
    base = lora.base
    if isinstance(base, nn.QuantizedLinear):
        frozen = x @ Tensor(base.quantized.dequantize(dtype=x.dtype)).T
    else:
        frozen = x @ base.weight.T
    return frozen + ((x @ lora.lora_a.T) @ lora.lora_b.T) * lora.scaling


def forward_backward_bits(forward, module, x_data, x_trains=True):
    """Output, input-gradient and parameter-gradient bytes of one step."""
    module.zero_grad()
    x = Tensor(x_data, requires_grad=x_trains)
    out = forward(x)
    out.backward(np.random.default_rng(3).standard_normal(out.shape))
    grads = [p.grad.tobytes() for p in module.parameters() if p.requires_grad]
    return out.data.tobytes(), None if x.grad is None else x.grad.tobytes(), grads


class TestLinear:
    def test_shapes(self, rng):
        layer = nn.Linear(5, 7, rng=rng)
        out = layer(Tensor(rng.standard_normal((3, 5))))
        assert out.shape == (3, 7)

    def test_bias(self, rng):
        layer = nn.Linear(4, 2, bias=True, rng=rng)
        layer.weight.data[:] = 0.0
        layer.bias.data[:] = [1.0, -1.0]
        out = layer(Tensor(rng.standard_normal((2, 4))))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]] * 2)

    def test_matches_manual_matmul(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        x = rng.standard_normal((2, 4))
        np.testing.assert_allclose(layer(Tensor(x)).data, x @ layer.weight.data.T)

    def test_batched_3d_input(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 5, 4))))
        assert out.shape == (2, 5, 3)


class TestQuantizedLinear:
    def test_close_to_dense_forward(self, rng):
        dense = nn.Linear(16, 8, rng=rng)
        quantized = nn.QuantizedLinear.from_linear(dense)
        x = Tensor(rng.standard_normal((4, 16)))
        np.testing.assert_allclose(quantized(x).data, dense(x).data, atol=0.5, rtol=0.3)

    def test_has_no_trainable_parameters(self, rng):
        quantized = nn.QuantizedLinear.from_linear(nn.Linear(8, 8, rng=rng))
        assert list(quantized.parameters()) == []

    def test_gradient_flows_to_input(self, rng):
        quantized = nn.QuantizedLinear.from_linear(nn.Linear(8, 4, rng=rng))
        x = Tensor(rng.standard_normal((2, 8)), requires_grad=True)
        quantized(x).sum().backward()
        assert x.grad is not None

    def test_counts_dequant_calls(self, rng):
        quantized = nn.QuantizedLinear.from_linear(nn.Linear(8, 4, rng=rng))
        x = Tensor(rng.standard_normal((2, 8)))
        quantized(x)
        quantized(x)
        assert quantized.dequant_calls == 2

    def test_rejects_bias(self, rng):
        with pytest.raises(ValueError):
            nn.QuantizedLinear.from_linear(nn.Linear(4, 4, bias=True, rng=rng))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            nn.QuantizedLinear(4, 4, np.ones((3, 4)))


class TestLoRALinear:
    def test_noop_at_initialization(self, rng):
        base = nn.Linear(6, 4, rng=rng)
        expected = base(Tensor(np.eye(6)))
        lora = nn.LoRALinear(base, rank=2, rng=rng)
        np.testing.assert_allclose(lora(Tensor(np.eye(6))).data, expected.data)

    def test_base_frozen_adapters_trainable(self, rng):
        lora = nn.LoRALinear(nn.Linear(6, 4, rng=rng), rank=2, rng=rng)
        trainable = {n for n, p in lora.named_parameters() if p.requires_grad}
        assert trainable == {"lora_a", "lora_b"}

    def test_adapter_param_count(self, rng):
        lora = nn.LoRALinear(nn.Linear(6, 4, rng=rng), rank=3, rng=rng)
        assert lora.num_adapter_parameters() == 3 * 6 + 4 * 3

    def test_merged_weight_matches_forward(self, rng):
        lora = nn.LoRALinear(nn.Linear(5, 3, rng=rng), rank=2, rng=rng)
        lora.lora_b.data[:] = rng.standard_normal(lora.lora_b.shape)
        x = rng.standard_normal((2, 5))
        np.testing.assert_allclose(
            lora(Tensor(x)).data, x @ lora.merged_weight().T, rtol=1e-9
        )

    def test_invalid_rank(self, rng):
        with pytest.raises(ValueError):
            nn.LoRALinear(nn.Linear(4, 4, rng=rng), rank=0)

    def test_rejects_biased_base(self, rng):
        with pytest.raises(ValueError):
            nn.LoRALinear(nn.Linear(4, 4, bias=True, rng=rng))

    def test_over_quantized_base(self, rng):
        base = nn.QuantizedLinear.from_linear(nn.Linear(8, 4, rng=rng))
        lora = nn.LoRALinear(base, rank=2, rng=rng)
        x = Tensor(rng.standard_normal((2, 8)), requires_grad=True)
        lora(x).sum().backward()
        assert lora.lora_a.grad is not None or lora.lora_b.grad is not None

    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("x_shape", [(3, 8), (2, 3, 8)])
    @pytest.mark.parametrize("x_trains", [True, False])
    def test_fused_forward_matches_composite_bit_for_bit(self, rng, quantized, x_shape, x_trains):
        base = nn.Linear(8, 5, rng=rng)
        lora = nn.LoRALinear(nn.QuantizedLinear.from_linear(base) if quantized else base, rank=2, rng=rng)
        lora.lora_b.data[:] = rng.standard_normal(lora.lora_b.shape)
        x = rng.standard_normal(x_shape)
        fused = forward_backward_bits(lora, lora, x, x_trains)
        assert fused == forward_backward_bits(lambda t: composite_forward(lora, t), lora, x, x_trains)
        assert len(fused[2]) == 2 and (fused[1] is not None) == x_trains

    def test_one_dequant_per_forward(self, rng):
        lora = nn.LoRALinear(nn.QuantizedLinear.from_linear(nn.Linear(8, 4, rng=rng)), rank=2, rng=rng)
        x = Tensor(rng.standard_normal((2, 8)), requires_grad=True)
        lora(x).sum().backward()
        lora(x)
        assert lora.base.dequant_calls == 2

    def test_swiglu_expert_matches_composite_bit_for_bit(self, rng):
        """w1 and w3 share the expert input, whose gradient must gather the
        four paths in the composite's order."""
        expert = nn.SwiGLUExpert(8, 12, quantize=True, lora_rank=3, rng=rng)
        for lora in (expert.w1, expert.w3, expert.w2):
            lora.lora_b.data[:] = rng.standard_normal(lora.lora_b.shape)

        def composite(x):
            gate = ops.silu(composite_forward(expert.w1, x))
            return composite_forward(expert.w2, gate * composite_forward(expert.w3, x))

        x = rng.standard_normal((2, 4, 8))
        assert forward_backward_bits(expert, expert, x) == forward_backward_bits(composite, expert, x)
