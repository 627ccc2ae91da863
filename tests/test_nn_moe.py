"""Tests for the MoE layer, router and experts (the paper's Fig. 12)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.tensor import Tensor, checkpoint, ops
from repro.tensor.grad_mode import is_grad_enabled


def make_moe(rng, dim=6, experts=4, top_k=2, expert_type="swiglu"):
    factory = {
        "swiglu": lambda: nn.SwiGLUExpert(dim, 2 * dim, rng=rng),
        "gelu": lambda: nn.GeluExpert(dim, 2 * dim, rng=rng),
    }[expert_type]
    return nn.MoELayer(dim, experts, top_k, factory, rng=rng)


class TestExperts:
    def test_swiglu_has_three_matrices(self, rng):
        expert = nn.SwiGLUExpert(4, 8, rng=rng)
        names = {n for n, _ in expert.named_parameters()}
        assert {"w1.weight", "w2.weight", "w3.weight"} <= names

    def test_gelu_has_two_matrices(self, rng):
        expert = nn.GeluExpert(4, 8, rng=rng)
        names = {n for n, _ in expert.named_parameters()}
        assert names == {"w1.weight", "w2.weight"}

    def test_describe_mentions_architecture(self):
        assert "W3" in nn.SwiGLUExpert.describe()
        assert "gelu" in nn.GeluExpert.describe()

    def test_swiglu_matches_reference(self, rng):
        expert = nn.SwiGLUExpert(4, 8, rng=rng)
        x = rng.standard_normal((3, 4))
        w1, w2, w3 = expert.w1.weight.data, expert.w2.weight.data, expert.w3.weight.data
        gate = x @ w1.T
        silu = gate / (1 + np.exp(-gate))
        expected = (silu * (x @ w3.T)) @ w2.T
        np.testing.assert_allclose(expert(Tensor(x)).data, expected, rtol=1e-9)

    def test_quantized_lora_expert_trains_adapters_only(self, rng):
        expert = nn.SwiGLUExpert(4, 8, quantize=True, lora_rank=2, rng=rng)
        trainable = [n for n, p in expert.named_parameters() if p.requires_grad]
        assert all("lora_" in n for n in trainable) and trainable


class TestRouter:
    def test_top_k_selection_count(self, rng):
        router = nn.TopKRouter(6, 4, 2, rng=rng)
        decision = router(Tensor(rng.standard_normal((10, 6))))
        assert decision.expert_indices.shape == (10, 2)

    def test_gates_sum_to_one_on_selected(self, rng):
        router = nn.TopKRouter(6, 4, 2, rng=rng)
        decision = router(Tensor(rng.standard_normal((10, 6))))
        np.testing.assert_allclose(decision.gates_full.data.sum(axis=-1), 1.0, rtol=1e-9)

    def test_gates_zero_on_unselected(self, rng):
        router = nn.TopKRouter(6, 4, 2, rng=rng)
        decision = router(Tensor(rng.standard_normal((10, 6))))
        selected = np.zeros((10, 4), dtype=bool)
        np.put_along_axis(selected, decision.expert_indices, True, axis=-1)
        assert np.all(decision.gates_full.data[~selected] == 0.0)

    def test_counts_conserve_tokens(self, rng):
        router = nn.TopKRouter(6, 4, 3, rng=rng)
        decision = router(Tensor(rng.standard_normal((10, 6))))
        assert decision.expert_counts.sum() == 10 * 3

    def test_selects_argmax_expert(self, rng):
        router = nn.TopKRouter(4, 4, 1, rng=rng)
        x = Tensor(rng.standard_normal((5, 4)))
        decision = router(x)
        logits = x.data @ router.gate.weight.data.T
        np.testing.assert_array_equal(decision.expert_indices[:, 0], logits.argmax(-1))

    def test_invalid_top_k(self, rng):
        with pytest.raises(ValueError):
            nn.TopKRouter(4, 4, 5, rng=rng)

    def test_gates_differentiable(self, rng):
        router = nn.TopKRouter(6, 4, 2, rng=rng)
        x = Tensor(rng.standard_normal((10, 6)), requires_grad=True)
        decision = router(x)
        decision.gates_full.sum().backward()
        assert router.gate.weight.grad is not None


class TestMoELayer:
    def test_output_shape(self, rng):
        moe = make_moe(rng)
        out = moe(Tensor(rng.standard_normal((2, 5, 6))))
        assert out.shape == (2, 5, 6)

    def test_dense_equals_weighted_sum_of_all_experts(self, rng):
        """With top_k == num_experts the MoE equals softmax-weighted experts."""
        moe = make_moe(rng, top_k=4)
        x = Tensor(rng.standard_normal((1, 3, 6)))
        out = moe(x).data
        flat = x.data.reshape(3, 6)
        logits = flat @ moe.router.gate.weight.data.T
        probs = np.exp(logits - logits.max(-1, keepdims=True))
        probs /= probs.sum(-1, keepdims=True)
        expected = np.zeros_like(flat)
        for e, expert in enumerate(moe.experts):
            expected += probs[:, e : e + 1] * expert(Tensor(flat)).data
        np.testing.assert_allclose(out.reshape(3, 6), expected, rtol=1e-8)

    def test_sparsity_property(self, rng):
        moe = make_moe(rng, experts=8, top_k=2)
        assert moe.sparsity == pytest.approx(0.25)
        moe.set_top_k(8)
        assert moe.sparsity == pytest.approx(1.0)

    def test_set_top_k_validates(self, rng):
        moe = make_moe(rng)
        with pytest.raises(ValueError):
            moe.set_top_k(9)

    def test_expert_counts_tracked(self, rng):
        moe = make_moe(rng)
        moe(Tensor(rng.standard_normal((2, 5, 6))))
        assert moe.last_expert_counts.sum() == 2 * 5 * 2  # tokens * top_k
        assert moe.cumulative_expert_counts.sum() == 20

    def test_reset_load_statistics(self, rng):
        moe = make_moe(rng)
        moe(Tensor(rng.standard_normal((2, 5, 6))))
        moe.reset_load_statistics()
        assert moe.cumulative_expert_counts.sum() == 0

    def test_aux_loss_minimal_when_balanced(self, rng):
        """The Switch aux loss is ~1.0 under perfectly uniform routing."""
        moe = make_moe(rng, experts=4, top_k=4)  # dense: every expert used
        moe.track_aux_loss = True
        moe(Tensor(rng.standard_normal((4, 8, 6))))
        assert moe.aux_loss.item() == pytest.approx(1.0, abs=0.3)

    def test_gradients_reach_used_experts(self, rng):
        moe = make_moe(rng, experts=4, top_k=4)
        x = Tensor(rng.standard_normal((2, 6, 6)), requires_grad=True)
        (moe(x) ** 2).sum().backward()
        for e, expert in enumerate(moe.experts):
            assert expert.w1.weight.grad is not None, f"expert {e} unused in dense mode"

    def test_grad_check_through_routing(self, rng, fd):
        moe = make_moe(rng)
        x = Tensor(rng.standard_normal((1, 4, 6)), requires_grad=True)
        (moe(x) ** 2).sum().backward()
        from repro.tensor import no_grad

        def loss():
            with no_grad():
                return (moe(Tensor(x.data)) ** 2).sum().item()

        index = (0, 2, 3)
        numeric = fd(loss, x.data, index)
        assert x.grad[index] == pytest.approx(numeric, rel=1e-3, abs=1e-5)

    def test_gelu_expert_variant(self, rng):
        moe = make_moe(rng, expert_type="gelu")
        out = moe(Tensor(rng.standard_normal((2, 4, 6))))
        assert out.shape == (2, 4, 6)


@settings(max_examples=25, deadline=None)
@given(
    tokens=st.integers(1, 12),
    experts=st.integers(2, 8),
    data=st.integers(0, 10_000),
)
def test_routing_conservation_property(tokens, experts, data):
    """Every token is assigned to exactly top_k experts and gate mass is 1."""
    rng = np.random.default_rng(data)
    top_k = int(rng.integers(1, experts + 1))
    router = nn.TopKRouter(5, experts, top_k, rng=rng)
    decision = router(Tensor(rng.standard_normal((tokens, 5))))
    # Conservation of assignments.
    assert decision.expert_counts.sum() == tokens * top_k
    # Each token's selected experts are distinct.
    for row in decision.expert_indices:
        assert len(set(row.tolist())) == top_k
    # Gate mass conservation.
    np.testing.assert_allclose(decision.gates_full.data.sum(axis=-1), 1.0, rtol=1e-8)


# ---------------------------------------------------------------------------
# Grouped dispatch vs the per-expert loop it replaced
# ---------------------------------------------------------------------------


def per_expert_forward(moe, x):
    """The MoE forward as a loop over experts: select each expert's tokens
    with ``np.nonzero``, run it, and scatter its gated rows into a full-size
    contribution that is added to the running total. The grouped dispatch
    must reproduce it bit for bit."""
    batch, length, dim = x.shape
    num_tokens = batch * length
    flat = x.reshape(num_tokens, dim)
    decision = moe.router(flat)
    if is_grad_enabled() or not moe.training:
        moe.last_expert_counts = decision.expert_counts
        moe.cumulative_expert_counts += decision.expert_counts
    combined = None
    for expert_id, expert in enumerate(moe.experts):
        token_ids = np.nonzero((decision.expert_indices == expert_id).any(axis=-1))[0]
        if token_ids.size == 0:
            continue
        expert_out = expert(ops.take_rows(flat, token_ids))
        gate = decision.gates_full[token_ids, expert_id].reshape(token_ids.size, 1)
        contribution = ops.scatter_rows(expert_out * gate, token_ids, num_tokens)
        combined = contribution if combined is None else combined + contribution
    return combined.reshape(batch, length, dim)


def assert_same_bits(actual, expected, what):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape, what
    assert np.array_equal(actual, expected), what
    assert actual.tobytes() == expected.tobytes(), f"{what}: signed zeros differ"


def skew_router(moe):
    """Route every token to experts 0..k (never to the rest) by giving those
    experts large logits on all-positive inputs."""
    weight = moe.router.gate.weight.data
    weight[:] = -np.abs(weight)
    weight[: moe.top_k + 1] = np.abs(weight[: moe.top_k + 1]) + 1.0


MOE_CASES = {
    "k2": dict(experts=4, top_k=2),
    "dense": dict(experts=4, top_k=4),
    "k3_gelu": dict(experts=8, top_k=3, expert_type="gelu"),
    "idle_experts": dict(experts=8, top_k=2, skew=True),
    "qlora_checkpoint": dict(experts=4, top_k=3, qlora=True),
}


@pytest.mark.parametrize("case", sorted(MOE_CASES))
def test_grouped_dispatch_matches_per_expert_loop_bit_for_bit(case):
    spec = dict(MOE_CASES[case])
    skew = spec.pop("skew", False)
    qlora = spec.pop("qlora", False)
    results = []
    for forward in (per_expert_forward, nn.MoELayer.forward):
        rng = np.random.default_rng(7)
        if qlora:
            moe = nn.MoELayer(6, spec["experts"], spec["top_k"], lambda: nn.SwiGLUExpert(
                6, 12, quantize=True, lora_rank=2, rng=rng), rng=rng)
            for expert in moe.experts:  # LoRA B starts at zero: make the adapters live
                for proj in (expert.w1, expert.w2, expert.w3):
                    proj.lora_b.data[:] = rng.standard_normal(proj.lora_b.shape)
        else:
            moe = make_moe(rng, **spec)
        data = rng.standard_normal((3, 7, 6))
        if skew:
            skew_router(moe)
            data = np.abs(data)
        x = Tensor(data, requires_grad=True)
        upstream = Tensor(rng.standard_normal((3, 7, 6)))

        def run(t, moe=moe, forward=forward):
            return forward(moe, t)

        for _ in range(2):  # twice, so cumulative counts differ from the last ones
            out = checkpoint(run, x) if qlora else run(x)
            (out * upstream).sum().backward()
        grads = {name: p.grad for name, p in moe.named_parameters() if p.requires_grad}
        results.append((out.data, x.grad, grads, moe.last_expert_counts,
                        moe.cumulative_expert_counts))

    (ref_out, ref_dx, ref_grads, ref_last, ref_total), (out, dx, grads, last, total) = results
    if skew:
        assert (last == 0).any(), "the skewed router should leave some experts idle"
    assert_same_bits(out, ref_out, "output")
    assert_same_bits(dx, ref_dx, "x.grad")
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        if ref_grads[name] is None:
            assert grad is None, name
        else:
            assert_same_bits(grad, ref_grads[name], name)
    np.testing.assert_array_equal(last, ref_last)
    np.testing.assert_array_equal(total, ref_total)
