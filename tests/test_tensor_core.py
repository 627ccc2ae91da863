"""Tests for the autograd engine core (Tensor, backward mechanics)."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, ones, randn, tensor, unbroadcast, zeros
from repro.tensor import is_grad_enabled, set_grad_enabled, enable_grad


class TestTensorConstruction:
    def test_wraps_numpy_array(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6

    def test_int_data_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert np.issubdtype(t.dtype, np.floating)

    def test_nested_tensor_unwrapped(self):
        inner = Tensor([1.0, 2.0])
        outer = Tensor(inner)
        assert np.array_equal(outer.data, inner.data)

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad

    def test_item_on_scalar(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)

    def test_item_on_multi_element_raises_clear_error(self):
        with pytest.raises(ValueError, match=r"item\(\) requires a 1-element tensor"):
            Tensor([1.0, 2.0]).item()
        with pytest.raises(ValueError, match=r"got shape \(2, 2\)"):
            Tensor([[1.0, 2.0], [3.0, 4.0]]).item()

    def test_factories(self):
        assert zeros((2, 2)).data.sum() == 0
        assert ones((2, 2)).data.sum() == 4
        r = randn((3, 3), rng=np.random.default_rng(0), scale=0.5)
        assert r.shape == (3, 3)
        assert tensor([1.0]).shape == (1,)

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))


class TestBackwardMechanics:
    def test_scalar_backward_seeds_ones(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        (a * a).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0, 6.0])

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_nonscalar_needs_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_explicit_grad_vector(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(a.grad, [3.0, 30.0])

    @pytest.mark.parametrize("shape", [(3, 2), (2, 2), (6,)], ids=["transposed", "wrong-size", "flat"])
    def test_misshaped_grad_raises(self, shape):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a * 2.0
        with pytest.raises(ValueError, match=r"\(2, 3\)") as info:
            out.backward(np.ones(shape))
        assert str(shape) in str(info.value)
        assert a.grad is None

    def test_grad_accumulates_across_backwards(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        (a * 2).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_diamond_graph_accumulates_once_per_path(self):
        a = Tensor([3.0], requires_grad=True)
        b = a * 2
        c = a * 5
        (b + c).sum().backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_reused_tensor_in_one_expression(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a * a).sum().backward()  # d/da a^3 = 3a^2
        np.testing.assert_allclose(a.grad, [12.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_deep_chain_no_recursion_error(self):
        a = Tensor([1.0], requires_grad=True)
        x = a
        for _ in range(3000):
            x = x + 1.0
        x.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])


class TestGradMode:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2
        assert not b.requires_grad
        assert b._ctx is None

    def test_nesting_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with enable_grad():
                assert is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_set_grad_enabled(self):
        set_grad_enabled(False)
        try:
            assert not is_grad_enabled()
        finally:
            set_grad_enabled(True)


class TestUnbroadcast:
    def test_identity_when_same_shape(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)).shape == (2, 3)

    def test_sums_leading_axis(self):
        g = np.ones((4, 2, 3))
        out = unbroadcast(g, (2, 3))
        np.testing.assert_allclose(out, np.full((2, 3), 4.0))

    def test_sums_size_one_axis(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (2, 1))
        np.testing.assert_allclose(out, np.full((2, 1), 3.0))

    def test_scalar_target(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, ())
        assert out == pytest.approx(6.0)
