"""Gradient correctness of every op, checked against finite differences."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, ops


def check_grad(build, arrays, tol=1e-4, eps=1e-6):
    """Compare autograd gradients of ``build(*tensors).sum()`` against
    central finite differences at a few random positions of each input."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    loss = (out * out).sum()
    loss.backward()

    rng = np.random.default_rng(0)
    for t in tensors:
        flat_indices = rng.choice(t.size, size=min(4, t.size), replace=False)
        for flat in flat_indices:
            index = np.unravel_index(flat, t.shape)
            original = t.data[index]

            def value_at(v):
                t.data[index] = v
                with no_grad():
                    o = build(*tensors)
                    result = (o * o).sum().item()
                t.data[index] = original
                return result

            numeric = (value_at(original + eps) - value_at(original - eps)) / (2 * eps)
            assert t.grad[index] == pytest.approx(numeric, abs=tol, rel=tol), (
                f"grad mismatch at {index}: {t.grad[index]} vs {numeric}"
            )


RNG = np.random.default_rng(99)
A23 = RNG.standard_normal((2, 3))
B23 = RNG.standard_normal((2, 3))
POS23 = RNG.uniform(0.5, 2.0, (2, 3))


class TestBinaryOps:
    def test_add(self):
        check_grad(lambda a, b: a + b, [A23, B23])

    def test_add_broadcast(self):
        check_grad(lambda a, b: a + b, [A23, RNG.standard_normal((3,))])

    def test_sub(self):
        check_grad(lambda a, b: a - b, [A23, B23])

    def test_mul(self):
        check_grad(lambda a, b: a * b, [A23, B23])

    def test_mul_broadcast_column(self):
        check_grad(lambda a, b: a * b, [A23, RNG.standard_normal((2, 1))])

    def test_div(self):
        check_grad(lambda a, b: a / b, [A23, POS23])

    def test_scalar_rhs(self):
        check_grad(lambda a: a * 3.0 + 1.0, [A23])

    def test_scalar_lhs(self):
        check_grad(lambda a: 2.0 - a, [A23])

    def test_rdiv(self):
        check_grad(lambda a: 1.0 / a, [POS23])

    def test_pow(self):
        check_grad(lambda a: a**3, [POS23])

    def test_neg(self):
        check_grad(lambda a: -a, [A23])


class TestMatmul:
    def test_2d(self):
        check_grad(lambda a, b: a @ b, [RNG.standard_normal((3, 4)), RNG.standard_normal((4, 2))])

    def test_batched(self):
        check_grad(
            lambda a, b: a @ b,
            [RNG.standard_normal((2, 3, 4)), RNG.standard_normal((2, 4, 2))],
        )

    def test_broadcast_batch(self):
        check_grad(
            lambda a, b: a @ b,
            [RNG.standard_normal((2, 3, 4)), RNG.standard_normal((4, 2))],
        )

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            ops.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


class TestUnaryOps:
    @pytest.mark.parametrize(
        "fn",
        [ops.exp, ops.tanh, ops.sigmoid, ops.relu, ops.gelu, ops.silu, ops.softplus, ops.abs],
        ids=["exp", "tanh", "sigmoid", "relu", "gelu", "silu", "softplus", "abs"],
    )
    def test_elementwise_grads(self, fn):
        # Shift away from relu/abs kinks for finite differences.
        data = RNG.standard_normal((2, 3)) + 0.3
        check_grad(lambda a: fn(a), [data])

    def test_log(self):
        check_grad(lambda a: ops.log(a), [POS23])

    def test_sqrt(self):
        check_grad(lambda a: ops.sqrt(a), [POS23])

    def test_sigmoid_range(self):
        out = ops.sigmoid(Tensor(RNG.standard_normal((50,)) * 5))
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_gelu_matches_reference_at_zero(self):
        assert ops.gelu(Tensor([0.0])).data[0] == pytest.approx(0.0)

    def test_gelu_cube_matches_pow_form(self):
        """``a * a * a`` is within an ulp of ``a**3``; where ``1 + tanh``
        cancels, in the far negative tail, the outputs are ~0 and the
        absolute tolerance takes over."""
        a = np.random.default_rng(3).standard_normal(100_000) * 2
        pow_form = 0.5 * a * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (a + 0.044715 * a**3)))
        np.testing.assert_allclose(ops.gelu(Tensor(a)).data, pow_form, rtol=1e-15, atol=1e-15)

    def test_silu_matches_x_times_sigmoid(self):
        x = RNG.standard_normal((10,))
        np.testing.assert_allclose(
            ops.silu(Tensor(x)).data, x / (1 + np.exp(-x)), rtol=1e-12
        )


class TestSoftmaxAndReductions:
    def test_softmax_rows_sum_to_one(self):
        out = ops.softmax(Tensor(RNG.standard_normal((4, 7))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), rtol=1e-12)

    def test_softmax_grad(self):
        check_grad(lambda a: ops.softmax(a, axis=-1), [A23])

    def test_softmax_stability_large_values(self):
        out = ops.softmax(Tensor(np.array([[1000.0, 1000.0]])), axis=-1)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_grad(self):
        check_grad(lambda a: ops.log_softmax(a, axis=-1), [A23])

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(RNG.standard_normal((3, 5)))
        np.testing.assert_allclose(
            ops.log_softmax(x).data, np.log(ops.softmax(x).data), rtol=1e-10
        )

    def test_sum_axis_grads(self):
        check_grad(lambda a: ops.sum(a, axis=0), [A23])
        check_grad(lambda a: ops.sum(a, axis=1, keepdims=True), [A23])
        check_grad(lambda a: ops.sum(a), [A23])

    def test_mean_grads(self):
        check_grad(lambda a: ops.mean(a, axis=-1), [A23])
        check_grad(lambda a: ops.mean(a), [A23])

    def test_mean_value(self):
        assert ops.mean(Tensor([1.0, 2.0, 3.0])).item() == pytest.approx(2.0)

    def test_max_grad_routes_to_argmax(self):
        a = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        ops.max(a, axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.0, 1.0, 0.0]])

    def test_max_ties_split_evenly(self):
        a = Tensor(np.array([[3.0, 3.0]]), requires_grad=True)
        ops.max(a, axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.5, 0.5]])

    @pytest.mark.parametrize("keepdims", [True, False])
    @pytest.mark.parametrize("axis", [None, 1, -1, -3])
    @pytest.mark.parametrize("method", [False, True])
    def test_max_matches_numpy(self, axis, keepdims, method):
        """Values, shapes and gradients of ``max`` agree with numpy for every
        axis form, through ``ops.max`` and ``Tensor.max``."""
        data = RNG.standard_normal((2, 3, 4))
        data[1, 2, :2] = data.max() + 1.0  # a tie, shared by two elements
        expected = data.max(axis=axis, keepdims=keepdims)
        upstream = RNG.standard_normal(expected.shape)
        a = Tensor(data, requires_grad=True)
        out = a.max(axis=axis, keepdims=keepdims) if method else ops.max(a, axis=axis, keepdims=keepdims)
        assert out.shape == expected.shape
        np.testing.assert_array_equal(out.data, expected)
        (out * Tensor(upstream)).sum().backward()
        hits = data == data.max(axis=axis, keepdims=True)
        share = upstream.reshape(data.max(axis=axis, keepdims=True).shape) / hits.sum(axis=axis, keepdims=True)
        np.testing.assert_allclose(a.grad, hits * share, rtol=1e-12)


class TestShapeOps:
    def test_reshape_grad(self):
        check_grad(lambda a: ops.reshape(a, (3, 2)), [A23])

    def test_transpose_grad(self):
        check_grad(lambda a: ops.transpose(a), [A23])

    def test_transpose_axes_grad(self):
        check_grad(lambda a: ops.transpose(a, (1, 0, 2)), [RNG.standard_normal((2, 3, 4))])

    def test_getitem_slice_grad(self):
        check_grad(lambda a: a[0:1, 1:], [A23])

    def test_getitem_int_array(self):
        a = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2])
        out = a[idx]
        out.sum().backward()
        assert a.grad[2, 0] == pytest.approx(2.0)  # row 2 used twice
        assert a.grad[1, 0] == pytest.approx(0.0)

    def test_pad_grad(self):
        check_grad(lambda a: ops.pad(a, [(1, 0), (0, 2)]), [A23])

    def test_concat_grad(self):
        check_grad(lambda a, b: ops.concat([a, b], axis=1), [A23, B23])

    def test_stack_shapes(self):
        out = ops.stack([Tensor(A23), Tensor(B23)], axis=0)
        assert out.shape == (2, 2, 3)


class TestGatherScatter:
    def test_embedding_grad_scatter_adds(self):
        w = Tensor(RNG.standard_normal((6, 4)), requires_grad=True)
        ids = np.array([[1, 1], [3, 0]])
        ops.embedding(w, ids).sum().backward()
        assert w.grad[1].sum() == pytest.approx(8.0)  # used twice x dim 4
        assert w.grad[2].sum() == pytest.approx(0.0)

    def test_take_rows_grad(self):
        a = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
        ops.take_rows(a, np.array([4, 4, 1])).sum().backward()
        assert a.grad[4, 0] == pytest.approx(2.0)

    def test_scatter_rows_forward_accumulates(self):
        src = Tensor(np.ones((3, 2)))
        out = ops.scatter_rows(src, np.array([0, 0, 2]), 4)
        np.testing.assert_allclose(out.data, [[2, 2], [0, 0], [1, 1], [0, 0]])

    def test_scatter_rows_grad(self):
        src = Tensor(np.ones((3, 2)), requires_grad=True)
        out = ops.scatter_rows(src, np.array([0, 0, 2]), 4)
        (out * Tensor(np.arange(8.0).reshape(4, 2))).sum().backward()
        np.testing.assert_allclose(src.grad, [[0, 1], [0, 1], [4, 5]])

    def test_take_then_scatter_roundtrip_identity_grad(self):
        a = Tensor(RNG.standard_normal((4, 2)), requires_grad=True)
        idx = np.array([0, 1, 2, 3])
        out = ops.scatter_rows(ops.take_rows(a, idx), idx, 4)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((4, 2)))


class TestWhereDropout:
    def test_where_selects(self):
        cond = np.array([[True, False, True]])
        out = ops.where(cond, Tensor([[1.0, 1.0, 1.0]]), Tensor([[2.0, 2.0, 2.0]]))
        np.testing.assert_allclose(out.data, [[1.0, 2.0, 1.0]])

    def test_where_grad_masks(self):
        a = Tensor(np.ones((1, 3)), requires_grad=True)
        b = Tensor(np.ones((1, 3)), requires_grad=True)
        cond = np.array([[True, False, True]])
        ops.where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [[1.0, 0.0, 1.0]])
        np.testing.assert_allclose(b.grad, [[0.0, 1.0, 0.0]])

    def test_dropout_eval_is_identity(self):
        x = Tensor(RNG.standard_normal((10,)))
        out = ops.dropout(x, 0.5, np.random.default_rng(0), training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_scales_survivors(self):
        x = Tensor(np.ones(10000))
        out = ops.dropout(x, 0.25, np.random.default_rng(0), training=True)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            ops.dropout(Tensor([1.0]), 1.0, np.random.default_rng(0))


def scan_inputs(batch=2, length=6, inner=3, state=2, rng=RNG):
    """``(u, delta, a, b, c)`` as the mixer feeds them: delta > 0, a < 0."""
    return [
        rng.standard_normal((batch, length, inner)),
        rng.uniform(0.1, 1.0, (batch, length, inner)),
        -rng.uniform(0.5, 2.0, (inner, state)),
        rng.standard_normal((batch, length, state)),
        rng.standard_normal((batch, length, state)),
    ]


class TestSsmScan:
    def test_matches_naive_recurrence(self):
        u, delta, a, b, c = scan_inputs()
        out = ops.ssm_scan(*map(Tensor, (u, delta, a, b, c))).data
        h = np.zeros((2, 3, 2))
        for t in range(6):
            decay = np.exp(delta[:, t, :, None] * a)
            h = decay * h + delta[:, t, :, None] * b[:, t, None, :] * u[:, t, :, None]
            np.testing.assert_allclose(out[:, t], (h * c[:, t, None, :]).sum(-1), rtol=1e-12)

    def test_grads(self):
        check_grad(lambda u, d, a, b, c: ops.ssm_scan(u, d, a, b, c), scan_inputs(length=5))

    def test_shape_mismatch_raises(self):
        good = [(1, 2, 3), (1, 2, 3), (3, 2), (1, 2, 2), (1, 2, 2)]
        bad = {1: (1, 2, 4), 2: (4, 2), 3: (1, 2, 3), 4: (1, 3, 2)}  # input index -> wrong shape
        for position, shape in bad.items():
            shapes = good[:position] + [shape] + good[position + 1 :]
            with pytest.raises(ValueError):
                ops.ssm_scan(*(Tensor(np.ones(s)) for s in shapes))
        with pytest.raises(ValueError):  # no batch axis
            ops.ssm_scan(*(Tensor(np.ones(s[1:] if len(s) == 3 else s)) for s in good))

    def test_zero_decay_is_identity(self):
        """exp(delta * a) underflows to 0: the state is just this step's drive."""
        u, delta, a, b, c = scan_inputs()
        out = ops.ssm_scan(*map(Tensor, (u, delta, np.full_like(a, -1e5), b, c))).data
        np.testing.assert_allclose(out, delta * u * (b * c).sum(-1, keepdims=True), rtol=1e-12)

    @pytest.mark.parametrize("trained", [(0,), (1, 2), (3,), (4,), (0, 1, 2, 3)])
    def test_frozen_inputs_get_no_grad(self, trained):
        arrays = scan_inputs()
        full = [Tensor(x, requires_grad=True) for x in arrays]
        ops.ssm_scan(*full).sum().backward()
        tensors = [Tensor(x, requires_grad=i in trained) for i, x in enumerate(arrays)]
        out = ops.ssm_scan(*tensors)
        grads = out._ctx.backward(np.ones(out.shape))
        for i, grad in enumerate(grads):
            if i in trained:
                np.testing.assert_allclose(grad, full[i].grad, rtol=1e-12)
            else:
                assert grad is None

    def test_mixer_under_checkpoint_matches_reference(self, ssm_reference):
        from repro.nn import MambaMixer
        from repro.tensor import checkpoint

        def reference_forward(mixer, x):
            inner, state, rank = mixer.inner_dim, mixer.state_dim, mixer.dt_rank
            projected = mixer.in_proj(x)
            u = ops.silu(mixer.conv(projected[:, :, :inner]))
            params = mixer.x_proj(u)
            delta = ops.softplus(mixer.dt_proj(params[:, :, :rank]))
            b, c = params[:, :, rank : rank + state], params[:, :, rank + state :]
            y = ssm_reference(u, delta, -ops.exp(mixer.a_log), b, c) + u * mixer.d_skip
            return mixer.out_proj(y * ops.silu(projected[:, :, inner:]))

        mixer = MambaMixer(8, state_dim=3, rng=np.random.default_rng(5))
        x_data = RNG.standard_normal((2, 6, 8))
        grad_out = RNG.standard_normal((2, 6, 8))
        results = []
        for run in (lambda x: checkpoint(mixer, x), lambda x: reference_forward(mixer, x)):
            mixer.zero_grad()
            x = Tensor(x_data, requires_grad=True)
            out = run(x)
            out.backward(grad_out)
            results.append([out.data, x.grad] + [p.grad.copy() for p in mixer.parameters()])
        for fused, composite in zip(*results):
            np.testing.assert_allclose(fused, composite, rtol=1e-12, atol=1e-14)
