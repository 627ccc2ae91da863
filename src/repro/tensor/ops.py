"""Differentiable operations for the autograd engine.

Every public function here takes and returns :class:`~repro.tensor.core.Tensor`
objects. Operand coercion happens in the thin functional wrappers so that the
:class:`Function` subclasses can assume every differentiable operand is a
tensor; constants become non-grad tensors, and integer index arrays stay raw
numpy (they are data, not differentiable inputs).

The binary arithmetic ops, :class:`MatMul` and :class:`Where` read
``needs_input_grad`` and return ``None`` for a frozen operand rather than
computing its gradient; ``a.T @ grad`` for a frozen weight is as costly as
the gradient that is kept.

Gather backwards scatter-add with ``np.add.at`` only where an element can be
selected twice. :class:`GetItem` with a basic index (ints, slices, ``None``,
``Ellipsis``) and :class:`TakeRows` with distinct rows add in place;
advanced ``GetItem`` indices and :class:`Embedding` ids keep ``np.add.at``.
:class:`ScatterRows`, the MoE combine, folds rows level by level with no
``np.add.at`` at all. Every path adds onto 0.0 in the order ``np.add.at``
would, so the results match it bit for bit, signed zeros included.

:class:`SsmScan` (``ssm_scan``) is the Mamba mixer's state-space core as
one op with a hand-written backward, the counterpart of the GPU
simulator's ``ssm_scan`` kernel: discretization, the diagonal recurrence
and the contraction with ``C`` in one node instead of a dozen.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple, Union

import numpy as np

from .core import Function, Tensor, unbroadcast

Axis = Optional[Union[int, Tuple[int, ...]]]


def _as_tensor(value: Any) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=float))


def _as_index(value: Any) -> np.ndarray:
    data = value.data if isinstance(value, Tensor) else value
    return np.asarray(data)


# ---------------------------------------------------------------------------
# Pointwise binary arithmetic
# ---------------------------------------------------------------------------


class Add(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a.shape, b.shape)
        return a + b

    def backward(self, grad_out: np.ndarray):
        a_shape, b_shape = self.saved
        need_a, need_b = self.needs_input_grad
        return (
            unbroadcast(grad_out, a_shape) if need_a else None,
            unbroadcast(grad_out, b_shape) if need_b else None,
        )


class Sub(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a.shape, b.shape)
        return a - b

    def backward(self, grad_out: np.ndarray):
        a_shape, b_shape = self.saved
        need_a, need_b = self.needs_input_grad
        return (
            unbroadcast(grad_out, a_shape) if need_a else None,
            unbroadcast(-grad_out, b_shape) if need_b else None,
        )


class Mul(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a * b

    def backward(self, grad_out: np.ndarray):
        a, b = self.saved
        need_a, need_b = self.needs_input_grad
        return (
            unbroadcast(grad_out * b, a.shape) if need_a else None,
            unbroadcast(grad_out * a, b.shape) if need_b else None,
        )


class Div(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a / b

    def backward(self, grad_out: np.ndarray):
        a, b = self.saved
        need_a, need_b = self.needs_input_grad
        grad_a = unbroadcast(grad_out / b, a.shape) if need_a else None
        grad_b = unbroadcast(-grad_out * a / (b * b), b.shape) if need_b else None
        return grad_a, grad_b


class Neg(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        return -a

    def backward(self, grad_out: np.ndarray):
        return (-grad_out,)


class Pow(Function):
    def forward(self, a: np.ndarray, exponent: float) -> np.ndarray:
        self.save_for_backward(a, exponent)
        return a**exponent

    def backward(self, grad_out: np.ndarray):
        a, exponent = self.saved
        return (grad_out * exponent * a ** (exponent - 1),)


class MatMul(Function):
    """Batched matrix multiply over the trailing two axes."""

    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError("matmul requires operands with at least 2 dimensions")
        self.save_for_backward(a, b)
        return a @ b

    def backward(self, grad_out: np.ndarray):
        a, b = self.saved
        need_a, need_b = self.needs_input_grad
        grad_a = unbroadcast(grad_out @ np.swapaxes(b, -1, -2), a.shape) if need_a else None
        grad_b = unbroadcast(np.swapaxes(a, -1, -2) @ grad_out, b.shape) if need_b else None
        return grad_a, grad_b


# ---------------------------------------------------------------------------
# Pointwise unary functions
# ---------------------------------------------------------------------------


class Identity(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        return a.copy()

    def backward(self, grad_out: np.ndarray):
        return (grad_out,)


class Exp(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad_out: np.ndarray):
        (out,) = self.saved
        return (grad_out * out,)


class Log(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.save_for_backward(a)
        return np.log(a)

    def backward(self, grad_out: np.ndarray):
        (a,) = self.saved
        return (grad_out / a,)


class Sqrt(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.sqrt(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad_out: np.ndarray):
        (out,) = self.saved
        return (grad_out / (2.0 * out),)


class Tanh(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.tanh(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad_out: np.ndarray):
        (out,) = self.saved
        return (grad_out * (1.0 - out * out),)


class Sigmoid(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-a))
        self.save_for_backward(out)
        return out

    def backward(self, grad_out: np.ndarray):
        (out,) = self.saved
        return (grad_out * out * (1.0 - out),)


class Relu(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.save_for_backward(a > 0)
        return np.maximum(a, 0.0)

    def backward(self, grad_out: np.ndarray):
        (mask,) = self.saved
        return (grad_out * mask,)


class Abs(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.save_for_backward(np.sign(a))
        return np.abs(a)

    def backward(self, grad_out: np.ndarray):
        (sign,) = self.saved
        return (grad_out * sign,)


_GELU_C = np.sqrt(2.0 / np.pi)


class Gelu(Function):
    """GELU with the tanh approximation (matches common GPU kernels)."""

    def forward(self, a: np.ndarray) -> np.ndarray:
        inner = _GELU_C * (a + 0.044715 * (a * a * a))  # libm pow is ~50x slower
        t = np.tanh(inner)
        self.save_for_backward(a, t)
        return 0.5 * a * (1.0 + t)

    def backward(self, grad_out: np.ndarray):
        a, t = self.saved
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * a**2)
        grad = 0.5 * (1.0 + t) + 0.5 * a * (1.0 - t * t) * d_inner
        return (grad_out * grad,)


class Silu(Function):
    """SiLU / Swish: the activation inside Mixtral's SwiGLU experts."""

    def forward(self, a: np.ndarray) -> np.ndarray:
        sig = 1.0 / (1.0 + np.exp(-a))
        self.save_for_backward(a, sig)
        return a * sig

    def backward(self, grad_out: np.ndarray):
        a, sig = self.saved
        return (grad_out * (sig + a * sig * (1.0 - sig)),)


class Softplus(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.save_for_backward(a)
        return np.logaddexp(0.0, a)

    def backward(self, grad_out: np.ndarray):
        (a,) = self.saved
        return (grad_out / (1.0 + np.exp(-a)),)


# ---------------------------------------------------------------------------
# Normalizing / reducing operations
# ---------------------------------------------------------------------------


class Softmax(Function):
    def forward(self, a: np.ndarray, axis: int = -1) -> np.ndarray:
        shifted = a - a.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)
        self.save_for_backward(out, axis)
        return out

    def backward(self, grad_out: np.ndarray):
        out, axis = self.saved
        inner = (grad_out * out).sum(axis=axis, keepdims=True)
        return (out * (grad_out - inner),)


class LogSoftmax(Function):
    def forward(self, a: np.ndarray, axis: int = -1) -> np.ndarray:
        shifted = a - a.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - log_z
        self.save_for_backward(np.exp(out), axis)
        return out

    def backward(self, grad_out: np.ndarray):
        softmax_out, axis = self.saved
        return (grad_out - softmax_out * grad_out.sum(axis=axis, keepdims=True),)


class Sum(Function):
    def forward(self, a: np.ndarray, axis: Axis = None, keepdims: bool = False) -> np.ndarray:
        self.save_for_backward(a.shape, axis, keepdims)
        return a.sum(axis=axis, keepdims=keepdims)

    def backward(self, grad_out: np.ndarray):
        shape, axis, keepdims = self.saved
        grad = np.asarray(grad_out)
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            for ax in sorted(a % len(shape) for a in axes):
                grad = np.expand_dims(grad, ax)
        return (np.broadcast_to(grad, shape).copy(),)


class Mean(Function):
    def forward(self, a: np.ndarray, axis: Axis = None, keepdims: bool = False) -> np.ndarray:
        self.save_for_backward(a.shape, axis, keepdims)
        return a.mean(axis=axis, keepdims=keepdims)

    def backward(self, grad_out: np.ndarray):
        shape, axis, keepdims = self.saved
        if axis is None:
            count = int(np.prod(shape))
            axes: Tuple[int, ...] = tuple(range(len(shape)))
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            axes = tuple(a % len(shape) for a in axes)
            count = int(np.prod([shape[a] for a in axes]))
        grad = np.asarray(grad_out)
        if not keepdims:
            for ax in sorted(axes):
                grad = np.expand_dims(grad, ax)
        return (np.broadcast_to(grad, shape).copy() / count,)


class Max(Function):
    """Maximum over ``axis`` (all axes when None); ties share the gradient."""

    def forward(self, a: np.ndarray, axis: Optional[int] = None, keepdims: bool = False) -> np.ndarray:
        out = a.max(axis=axis, keepdims=True)
        mask = a == out
        counts = mask.sum(axis=axis, keepdims=True)
        self.save_for_backward(mask, counts)
        return out if keepdims else np.squeeze(out, axis=axis)

    def backward(self, grad_out: np.ndarray):
        mask, counts = self.saved
        return (mask * np.reshape(grad_out, counts.shape) / counts,)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


class Reshape(Function):
    def forward(self, a: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
        self.save_for_backward(a.shape)
        return a.reshape(shape)

    def backward(self, grad_out: np.ndarray):
        (shape,) = self.saved
        return (grad_out.reshape(shape),)


class Transpose(Function):
    def forward(self, a: np.ndarray, axes: Optional[Tuple[int, ...]] = None) -> np.ndarray:
        if axes is None:
            axes = tuple(reversed(range(a.ndim)))
        self.save_for_backward(axes)
        return np.transpose(a, axes)

    def backward(self, grad_out: np.ndarray):
        (axes,) = self.saved
        inverse = np.argsort(axes)
        return (np.transpose(grad_out, inverse),)


def _is_basic_index(index: Any) -> bool:
    """True for an index of ints, slices, ``None`` and ``Ellipsis`` only:
    such an index selects every element at most once."""
    for item in index if isinstance(index, tuple) else (index,):
        if item is None or item is Ellipsis or isinstance(item, slice):
            continue
        if isinstance(item, (int, np.integer)) and not isinstance(item, bool):
            continue
        return False
    return True


class GetItem(Function):
    """``a[index]``. The backward adds in place for a basic index and keeps
    ``np.add.at`` for advanced ones, whose elements may repeat."""

    def forward(self, a: np.ndarray, index: Any) -> np.ndarray:
        self.save_for_backward(a.shape, a.dtype, index)
        return a[index]

    def backward(self, grad_out: np.ndarray):
        shape, dtype, index = self.saved
        grad = np.zeros(shape, dtype=dtype)
        if _is_basic_index(index):
            grad[index] += grad_out
        else:
            np.add.at(grad, index, grad_out)
        return (grad,)


class Pad(Function):
    """Constant (zero) padding, used by the causal depthwise convolution."""

    def forward(self, a: np.ndarray, pad_width: Tuple[Tuple[int, int], ...]) -> np.ndarray:
        self.save_for_backward(pad_width, a.shape)
        return np.pad(a, pad_width)

    def backward(self, grad_out: np.ndarray):
        pad_width, shape = self.saved
        slices = tuple(slice(lo, lo + dim) for (lo, _hi), dim in zip(pad_width, shape))
        return (grad_out[slices],)


class Concat(Function):
    def forward(self, *arrays: np.ndarray, axis: int = 0) -> np.ndarray:
        self.save_for_backward(axis, [a.shape[axis] for a in arrays])
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad_out: np.ndarray):
        axis, sizes = self.saved
        grads = []
        start = 0
        for size in sizes:
            index = [slice(None)] * grad_out.ndim
            index[axis] = slice(start, start + size)
            grads.append(grad_out[tuple(index)])
            start += size
        return tuple(grads)


# ---------------------------------------------------------------------------
# Gather / scatter — the primitives behind embeddings and MoE routing
# ---------------------------------------------------------------------------


class Embedding(Function):
    """Row gather ``weight[ids]`` with scatter-add backward."""

    def forward(self, weight: np.ndarray, ids: np.ndarray) -> np.ndarray:
        self.save_for_backward(weight.shape, weight.dtype, ids)
        return weight[ids]

    def backward(self, grad_out: np.ndarray):
        shape, dtype, ids = self.saved
        grad = np.zeros(shape, dtype=dtype)
        flat_ids = ids.reshape(-1)
        np.add.at(grad, flat_ids, grad_out.reshape(flat_ids.shape[0], shape[-1]))
        return (grad,)


class TakeRows(Function):
    """Select rows of a 2-D tensor — dispatching tokens to an expert.

    The backward adds in place when no row is taken twice (one ``bincount``
    checks) and falls back to ``np.add.at`` when rows repeat.
    """

    def forward(self, a: np.ndarray, idx: np.ndarray) -> np.ndarray:
        self.save_for_backward(a.shape, a.dtype, idx)
        return a[idx]

    def backward(self, grad_out: np.ndarray):
        shape, dtype, idx = self.saved
        grad = np.zeros(shape, dtype=dtype)
        rows = idx.reshape(-1) % shape[0]  # numpy's negative rows, made positive
        if np.bincount(rows).max(initial=0) <= 1:
            grad[idx] += grad_out
        else:
            np.add.at(grad, idx, grad_out)
        return (grad,)


class ScatterRows(Function):
    """``out[idx[i]] += src[i]`` into ``num_rows`` zero rows — combining expert outputs.

    Each output row folds its source rows onto 0.0 in ascending source
    order, the order ``np.add.at`` uses, so the two agree bit for bit,
    signed zeros included. One stable argsort of ``idx`` lays the fold out
    in levels: level ``j`` holds the ``j``-th source row of every output
    row. The MoE layer gives every token exactly ``k`` rows, so its combine
    is ``k`` levels of one gather and one contiguous add each.
    """

    def forward(self, src: np.ndarray, idx: np.ndarray, num_rows: int) -> np.ndarray:
        self.save_for_backward(idx)
        out = np.zeros((num_rows,) + src.shape[1:], dtype=src.dtype)
        counts = np.bincount(idx, minlength=num_rows)
        if counts.size > num_rows:
            raise IndexError(f"row {counts.size - 1} is out of bounds for {num_rows} rows")
        order = np.argsort(idx, kind="stable")
        starts = np.cumsum(counts) - counts
        for level in range(counts.max(initial=0)):
            rows = counts > level
            if rows.all():
                out += src[order[starts + level]]
            else:
                out[rows] += src[order[starts[rows] + level]]
        return out

    def backward(self, grad_out: np.ndarray):
        (idx,) = self.saved
        return (grad_out[idx],)


class Where(Function):
    def forward(self, a: np.ndarray, b: np.ndarray, condition: np.ndarray) -> np.ndarray:
        self.save_for_backward(condition, a.shape, b.shape)
        return np.where(condition, a, b)

    def backward(self, grad_out: np.ndarray):
        condition, a_shape, b_shape = self.saved
        need_a, need_b = self.needs_input_grad
        grad_a = unbroadcast(np.where(condition, grad_out, 0.0), a_shape) if need_a else None
        grad_b = unbroadcast(np.where(condition, 0.0, grad_out), b_shape) if need_b else None
        return grad_a, grad_b


class Dropout(Function):
    def forward(self, a: np.ndarray, mask: np.ndarray, scale: float) -> np.ndarray:
        self.save_for_backward(mask, scale)
        return a * mask * scale

    def backward(self, grad_out: np.ndarray):
        mask, scale = self.saved
        return (grad_out * mask * scale,)


# ---------------------------------------------------------------------------
# Selective scan — the state-space core of the Mamba mixer
# ---------------------------------------------------------------------------


def _time_major(x: np.ndarray) -> np.ndarray:
    """``(batch, length, ...)`` as a ``(length, batch, ...)`` view."""
    return x.swapaxes(0, 1)


def _batch_major(x: np.ndarray) -> np.ndarray:
    """A contiguous ``(batch, length, ...)`` copy of a time-major array."""
    return np.ascontiguousarray(x.swapaxes(0, 1))


class SsmScan(Function):
    """Mamba's selective scan (Gu & Dao, 2023) as one op: ``ssm_scan``.

    With ``u`` and ``delta`` of shape ``(batch, length, inner)``, ``a`` of
    shape ``(inner, state)`` and ``b``, ``c`` of shape
    ``(batch, length, state)``, it computes::

        decay_t = exp(delta_t[:, None] * a)
        drive_t = (delta_t[:, None] * b_t[None, :]) * u_t[:, None]
        h_t     = decay_t * h_{t-1} + drive_t        (h_{-1} = 0)
        y_t     = h_t @ c_t

    and returns ``y`` of shape ``(batch, length, inner)``. ``decay``,
    ``drive`` and ``h`` are formed with the same products, associated the
    same way, as separate autograd ops would form them, so ``h`` matches
    that composite bit for bit; ``y`` sums over ``state`` in BLAS order.

    The four-axis arrays are laid out ``(length, batch, state, inner)``.
    Every step of the recurrence is then one contiguous block, and every
    broadcast runs along the wide ``inner`` axis rather than the narrow
    ``state`` one. The backward runs the adjoint recurrence in reverse
    time, ``g_t = c_t * gy_t + decay_{t+1} * g_{t+1}``, and contracts
    ``g`` into every input gradient with matmuls, save the two that keep
    the ``inner`` axis on every operand, which are ``einsum`` calls.
    """

    def forward(
        self, u: np.ndarray, delta: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray
    ) -> np.ndarray:
        if u.ndim != 3 or delta.shape != u.shape:
            raise ValueError(f"u {u.shape} and delta {delta.shape} must both be (batch, length, inner)")
        if a.ndim != 2 or a.shape[0] != u.shape[2]:
            raise ValueError(f"a {a.shape} must be (inner, state) with inner={u.shape[2]}")
        if b.shape != u.shape[:2] + a.shape[1:] or c.shape != b.shape:
            raise ValueError(f"b {b.shape} and c {c.shape} must be {u.shape[:2] + a.shape[1:]}")
        delta_t = _time_major(delta)[:, :, None, :]
        decay = delta_t * np.ascontiguousarray(a.T)
        np.exp(decay, out=decay)
        h = delta_t * _time_major(b)[..., None]
        h *= _time_major(u)[:, :, None, :]
        step = np.empty_like(h[0])
        for t in range(1, h.shape[0]):
            np.multiply(decay[t], h[t - 1], out=step)
            h[t] += step
        self.save_for_backward(u, delta, a, b, c, decay, h)
        return _batch_major((_time_major(c)[:, :, None, :] @ h)[:, :, 0])

    def backward(self, grad_out: np.ndarray):
        u, delta, a, b, c, decay, h = self.saved
        need_u, need_delta, need_a, need_b, need_c = self.needs_input_grad
        length, batch, state, inner = h.shape
        gy = _time_major(grad_out)
        grad_c = _batch_major((h @ gy[..., None])[..., 0]) if need_c else None
        if not (need_u or need_delta or need_a or need_b):
            return None, None, None, None, grad_c

        adjoint = _time_major(c)[..., None] * gy[:, :, None, :]
        step = np.empty_like(adjoint[0])
        for t in range(length - 2, -1, -1):
            np.multiply(decay[t + 1], adjoint[t + 1], out=step)
            adjoint[t] += step
        # d(loss)/d(drive) is the adjoint; drive = delta * b * u.
        w = (_time_major(b)[:, :, None, :] @ adjoint)[:, :, 0]  # sum over state of adjoint * b
        delta_t, u_t = _time_major(delta), _time_major(u)
        grad_u = _batch_major(w * delta_t) if need_u else None
        grad_b = _batch_major((adjoint @ (delta_t * u_t)[..., None])[..., 0]) if need_b else None
        grad_delta = grad_a = None
        if need_delta or need_a:
            # d(loss)/d(delta * a) = adjoint_t * h_{t-1} * decay_t; zero at t = 0.
            grad_z = adjoint[1:]
            grad_z *= h[:-1]
            grad_z *= decay[1:]
            grad_z = grad_z.reshape(-1, state, inner)
            if need_delta:
                from_decay = np.einsum("knd,dn->kd", grad_z, a).reshape(length - 1, batch, inner)
                grad_delta = w * u_t
                grad_delta[1:] += from_decay
                grad_delta = _batch_major(grad_delta)
            if need_a:
                grad_a = np.einsum("knd,kd->dn", grad_z, delta_t[1:].reshape(-1, inner))
        return grad_u, grad_delta, grad_a, grad_b, grad_c


# ---------------------------------------------------------------------------
# Functional wrappers
# ---------------------------------------------------------------------------


def identity(a: Tensor) -> Tensor:
    return Identity.apply(_as_tensor(a))


def add(a, b) -> Tensor:
    return Add.apply(_as_tensor(a), _as_tensor(b))


def sub(a, b) -> Tensor:
    return Sub.apply(_as_tensor(a), _as_tensor(b))


def mul(a, b) -> Tensor:
    return Mul.apply(_as_tensor(a), _as_tensor(b))


def div(a, b) -> Tensor:
    return Div.apply(_as_tensor(a), _as_tensor(b))


def neg(a) -> Tensor:
    return Neg.apply(_as_tensor(a))


def pow(a, exponent: float) -> Tensor:  # noqa: A001 - mirrors numpy naming
    return Pow.apply(_as_tensor(a), float(exponent))


def matmul(a, b) -> Tensor:
    return MatMul.apply(_as_tensor(a), _as_tensor(b))


def exp(a) -> Tensor:
    return Exp.apply(_as_tensor(a))


def log(a) -> Tensor:
    return Log.apply(_as_tensor(a))


def sqrt(a) -> Tensor:
    return Sqrt.apply(_as_tensor(a))


def tanh(a) -> Tensor:
    return Tanh.apply(_as_tensor(a))


def sigmoid(a) -> Tensor:
    return Sigmoid.apply(_as_tensor(a))


def relu(a) -> Tensor:
    return Relu.apply(_as_tensor(a))


def abs(a) -> Tensor:  # noqa: A001 - mirrors numpy naming
    return Abs.apply(_as_tensor(a))


def gelu(a) -> Tensor:
    return Gelu.apply(_as_tensor(a))


def silu(a) -> Tensor:
    return Silu.apply(_as_tensor(a))


def softplus(a) -> Tensor:
    return Softplus.apply(_as_tensor(a))


def softmax(a, axis: int = -1) -> Tensor:
    return Softmax.apply(_as_tensor(a), axis=axis)


def log_softmax(a, axis: int = -1) -> Tensor:
    return LogSoftmax.apply(_as_tensor(a), axis=axis)


def sum(a, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return Sum.apply(_as_tensor(a), axis=axis, keepdims=keepdims)


def mean(a, axis: Axis = None, keepdims: bool = False) -> Tensor:
    return Mean.apply(_as_tensor(a), axis=axis, keepdims=keepdims)


def max(a, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return Max.apply(_as_tensor(a), axis=axis, keepdims=keepdims)


def reshape(a, shape: Sequence[int]) -> Tensor:
    return Reshape.apply(_as_tensor(a), tuple(shape))


def transpose(a, axes: Optional[Sequence[int]] = None) -> Tensor:
    return Transpose.apply(_as_tensor(a), tuple(axes) if axes is not None else None)


def getitem(a, index: Any) -> Tensor:
    if isinstance(index, Tensor):
        index = index.data.astype(np.int64)
    return GetItem.apply(_as_tensor(a), index)


def pad(a, pad_width: Sequence[Tuple[int, int]]) -> Tensor:
    return Pad.apply(_as_tensor(a), tuple(tuple(p) for p in pad_width))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    return Concat.apply(*[_as_tensor(t) for t in tensors], axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    expanded = []
    for t in tensors:
        t = _as_tensor(t)
        new_shape = list(t.shape)
        new_shape.insert(axis if axis >= 0 else len(new_shape) + axis + 1, 1)
        expanded.append(reshape(t, new_shape))
    return concat(expanded, axis=axis)


def embedding(weight: Tensor, ids) -> Tensor:
    return Embedding.apply(_as_tensor(weight), _as_index(ids).astype(np.int64))


def take_rows(a: Tensor, idx) -> Tensor:
    return TakeRows.apply(_as_tensor(a), _as_index(idx).astype(np.int64))


def scatter_rows(src: Tensor, idx, num_rows: int) -> Tensor:
    return ScatterRows.apply(_as_tensor(src), _as_index(idx).astype(np.int64), int(num_rows))


def where(condition, a, b) -> Tensor:
    return Where.apply(_as_tensor(a), _as_tensor(b), _as_index(condition).astype(bool))


def dropout(a: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    if not training or p <= 0.0:
        return _as_tensor(a)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    mask = (rng.random(a.shape) >= p).astype(a.dtype if isinstance(a, Tensor) else float)
    return Dropout.apply(_as_tensor(a), mask, 1.0 / (1.0 - p))


def ssm_scan(u, delta, a, b, c) -> Tensor:
    return SsmScan.apply(_as_tensor(u), _as_tensor(delta), _as_tensor(a), _as_tensor(b), _as_tensor(c))
