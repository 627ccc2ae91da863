"""Property-based tests (hypothesis) on autograd engine invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.tensor import Tensor, ops, unbroadcast

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
small_shape = st.tuples(st.integers(1, 4), st.integers(1, 4))


def small_array(shape=None):
    return arrays(np.float64, shape if shape is not None else small_shape, elements=finite)


@st.composite
def array_pair(draw):
    """Two arrays sharing one shape."""
    shape = draw(small_shape)
    x = draw(arrays(np.float64, shape, elements=finite))
    y = draw(arrays(np.float64, shape, elements=finite))
    return x, y


@settings(max_examples=40, deadline=None)
@given(small_array(), st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_backward_linearity_in_output_grad(data, scale):
    """grad(scale * L) == scale * grad(L)."""
    a = Tensor(data, requires_grad=True)
    (a * a).sum().backward()
    base = a.grad.copy()
    a.zero_grad()
    ((a * a).sum() * scale).backward()
    np.testing.assert_allclose(a.grad, scale * base, rtol=1e-8, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(small_array())
def test_softmax_is_probability_distribution(data):
    out = ops.softmax(Tensor(data), axis=-1).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-9)


@settings(max_examples=40, deadline=None)
@given(small_array())
def test_softmax_shift_invariance(data):
    a = ops.softmax(Tensor(data), axis=-1).data
    b = ops.softmax(Tensor(data + 7.5), axis=-1).data
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(array_pair())
def test_add_commutes(pair):
    x, y = pair
    np.testing.assert_allclose((Tensor(x) + Tensor(y)).data, (Tensor(y) + Tensor(x)).data)


@settings(max_examples=40, deadline=None)
@given(small_array())
def test_double_negation(x):
    np.testing.assert_allclose((-(-Tensor(x))).data, x)


scan_dims = st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 5), st.integers(1, 4))


@st.composite
def scan_inputs(draw):
    """``(u, delta, a, b, c)`` for ``ops.ssm_scan``: delta > 0 and a < 0,
    as the Mamba mixer feeds it, so every decay lies in (0, 1)."""
    batch, length, inner, state = draw(scan_dims)
    unit = st.floats(min_value=-1, max_value=1, allow_subnormal=False)
    return (
        draw(arrays(np.float64, (batch, length, inner), elements=unit)),
        draw(arrays(np.float64, (batch, length, inner), elements=st.floats(min_value=0.05, max_value=3))),
        draw(arrays(np.float64, (inner, state), elements=st.floats(min_value=-3, max_value=-0.02))),
        draw(arrays(np.float64, (batch, length, state), elements=unit)),
        draw(arrays(np.float64, (batch, length, state), elements=unit)),
    )


@settings(max_examples=40, deadline=None)
@given(scan_inputs(), st.integers(0, 2**32 - 1))
def test_ssm_scan_matches_composite(ssm_reference, inputs, seed):
    """The fused op and the op-by-op composite agree on the output and on
    all five gradients."""
    grad_out = np.random.default_rng(seed).standard_normal(inputs[0].shape)
    results = []
    for fn in (ops.ssm_scan, ssm_reference):
        tensors = [Tensor(x, requires_grad=True) for x in inputs]
        out = fn(*tensors)
        out.backward(grad_out)
        results.append([out.data] + [t.grad for t in tensors])
    for fused, composite in zip(*results):
        # Sums taken in another order differ in the last bits of the
        # largest term, and by a subnormal step where products underflow.
        atol = 1e-12 * np.abs(composite).max(initial=0.0) + np.finfo(np.float64).tiny
        np.testing.assert_allclose(fused, composite, rtol=1e-12, atol=atol)


@settings(max_examples=30, deadline=None)
@given(scan_inputs())
def test_scan_bounded_by_geometric_sum(inputs):
    """With |drive| <= m and decay <= r < 1, |h_t| <= m / (1 - r), so
    |y_t| <= state * max|c| * m / (1 - r)."""
    u, delta, a, b, c = inputs
    out = ops.ssm_scan(*map(Tensor, inputs)).data
    max_decay = np.exp(delta[..., None] * a).max()
    max_drive = np.abs(delta[..., None] * b[:, :, None, :] * u[..., None]).max()
    bound = a.shape[1] * np.abs(c).max() * max_drive / (1.0 - max_decay)
    assert np.all(np.abs(out) <= bound * (1 + 1e-9) + 1e-12)


@settings(max_examples=40, deadline=None)
@given(small_array())
def test_unbroadcast_then_sum_preserves_total(grad):
    """Summed gradient mass is preserved when unbroadcasting to (1, n)."""
    target_shape = (1, grad.shape[1])
    reduced = unbroadcast(grad.copy(), target_shape)
    np.testing.assert_allclose(reduced.sum(), grad.sum(), rtol=1e-9)


@settings(max_examples=30, deadline=None)
@given(array_pair())
def test_mul_gradient_symmetry(pair):
    """d(x*y)/dx == y and d(x*y)/dy == x under a sum loss."""
    x, y = pair
    a = Tensor(x, requires_grad=True)
    b = Tensor(y, requires_grad=True)
    (a * b).sum().backward()
    np.testing.assert_allclose(a.grad, y, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(b.grad, x, rtol=1e-9, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_scatter_take_adjointness(n_rows, n_take):
    """<take(A, idx), B> == <A, scatter(B, idx)> (gather/scatter are adjoint)."""
    rng = np.random.default_rng(n_rows * 7 + n_take)
    a = rng.standard_normal((n_rows, 3))
    b = rng.standard_normal((n_take, 3))
    idx = rng.integers(0, n_rows, size=n_take)
    lhs = (ops.take_rows(Tensor(a), idx).data * b).sum()
    rhs = (a * ops.scatter_rows(Tensor(b), idx, n_rows).data).sum()
    assert abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# Engine fast paths: each must give exactly what the general path gives
# ---------------------------------------------------------------------------

from hypothesis.extra.numpy import basic_indices, mutually_broadcastable_shapes  # noqa: E402

from repro.tensor.ops import Add, Div, MatMul, Mul, Sub, Where  # noqa: E402

nonzero = st.one_of(st.floats(0.5, 4.0), st.floats(-4.0, -0.5))


def same_bits(actual, expected):
    return (actual.shape == expected.shape and actual.dtype == expected.dtype
            and actual.tobytes() == expected.tobytes())


@st.composite
def frozen_operand_case(draw):
    """(op, operand arrays, extra raw args, index of the frozen operand)."""
    op = draw(st.sampled_from([Add, Sub, Mul, Div, MatMul, Where]))
    if op is MatMul:
        batch = draw(mutually_broadcastable_shapes(num_shapes=2, max_dims=2, max_side=3))
        m, k, n = draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))
        shapes = (batch.input_shapes[0] + (m, k), batch.input_shapes[1] + (k, n))
        extra_shapes = ()
    else:
        count = 3 if op is Where else 2
        drawn = draw(mutually_broadcastable_shapes(num_shapes=count, max_dims=3, max_side=3))
        shapes, extra_shapes = drawn.input_shapes[:2], drawn.input_shapes[2:]
    a = draw(arrays(np.float64, shapes[0], elements=finite))
    b = draw(arrays(np.float64, shapes[1], elements=nonzero if op is Div else finite))
    extra = tuple(draw(arrays(np.bool_, shape)) for shape in extra_shapes)
    return op, (a, b), extra, draw(st.integers(0, 1))


@settings(max_examples=80, deadline=None)
@given(frozen_operand_case(), st.integers(0, 2**16))
def test_frozen_operand_gets_no_gradient(case, seed):
    """A frozen operand's slot is None; the trainable operand's gradient is
    bit-identical to the one computed when both operands train."""
    op, arrays_, extra, frozen = case

    def grads(requires):
        tensors = [Tensor(x, requires_grad=r) for x, r in zip(arrays_, requires)]
        out = op.apply(*tensors, *extra)
        upstream = np.random.default_rng(seed).standard_normal(out.shape)
        return out._ctx.backward(upstream)

    both = grads((True, True))
    one = grads(tuple(i != frozen for i in range(2)))
    trainable = 1 - frozen
    assert one[frozen] is None
    assert same_bits(one[trainable], both[trainable])


@st.composite
def basic_index_case(draw):
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple))
    index = draw(basic_indices(shape, allow_newaxis=True, allow_ellipsis=True))
    return shape, index


@settings(max_examples=120, deadline=None)
@given(basic_index_case(), st.integers(0, 2**16))
def test_basic_index_backward_matches_add_at(case, seed):
    """Negative-step slices, negative ints, None, Ellipsis and mixed tuples:
    the in-place backward equals the ``np.add.at`` scatter, signed zeros too."""
    shape, index = case
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal(shape), requires_grad=True)
    out = ops.getitem(a, index)
    upstream = rng.standard_normal(out.shape)
    upstream[rng.random(out.shape) < 0.3] = -0.0
    out.backward(upstream)
    expected = np.zeros(shape)
    np.add.at(expected, index, upstream)
    assert same_bits(a.grad, expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 8), st.booleans(), st.integers(0, 2**16))
def test_repeated_and_masked_indices_accumulate(rows, picks, use_mask, seed):
    """Advanced indices may select an element twice; their gradient still
    accumulates every selection, through GetItem and TakeRows alike."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((rows, 3))
    if use_mask:
        index = rng.random(rows) < 0.6
    else:
        index = rng.integers(-rows, rows, size=picks)
    expected = None
    for gather in (ops.getitem, ops.take_rows):
        if use_mask and gather is ops.take_rows:
            continue
        a = Tensor(data, requires_grad=True)
        out = gather(a, index)
        upstream = np.random.default_rng(seed + 1).standard_normal(out.shape)
        out.backward(upstream)
        expected = np.zeros_like(data)
        np.add.at(expected, index, upstream)
        assert same_bits(a.grad, expected)


@st.composite
def combine_case(draw):
    """Source rows and their output rows: either the MoE layout (every row
    exactly ``k`` times, grouped by expert) or arbitrary repeats and gaps."""
    num_rows = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        k = draw(st.integers(1, 4))
        experts = np.argsort(rng.random((num_rows, k + 2)), axis=1)[:, :k].reshape(-1)
        idx = np.argsort(experts, kind="stable") // k
    else:
        idx = rng.integers(0, num_rows, size=draw(st.integers(0, 12)))
    src = rng.standard_normal((idx.size, 3))
    src[rng.random(src.shape) < 0.4] = -0.0
    return src, idx, num_rows


@settings(max_examples=100, deadline=None)
@given(combine_case())
def test_combine_matches_add_at_with_signed_zeros(case):
    src, idx, num_rows = case
    out = ops.scatter_rows(Tensor(src), idx, num_rows)
    expected = np.zeros((num_rows, 3))
    np.add.at(expected, idx, src)
    assert same_bits(out.data, expected)
