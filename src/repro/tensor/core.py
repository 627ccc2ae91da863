"""Core reverse-mode automatic differentiation engine.

This module provides the two central abstractions of the training
substrate:

* :class:`Tensor` — a numpy-backed array that optionally records the
  operation that produced it.
* :class:`Function` — the base class for differentiable operations. Each
  subclass implements a ``forward`` over raw numpy arrays and a
  ``backward`` that maps the output gradient to input gradients.

When :meth:`Function.apply` records a node it also stores
``needs_input_grad`` on the node: one flag per tensor argument (PyTorch's
name), True when that argument requires grad. A ``backward`` may return
``None`` for an input whose flag is False instead of computing a gradient
nobody reads, as the arithmetic and matmul ops in :mod:`repro.tensor.ops`
do for frozen operands such as dequantized NF4 weights.

The design follows the classic define-by-run approach: running an
operation on tensors builds a DAG; calling :meth:`Tensor.backward`
topologically sorts the DAG and accumulates gradients into every leaf with
``requires_grad=True``.

Only the machinery lives here. Concrete operations are defined in
:mod:`repro.tensor.ops` and re-exported from the package root.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple, Union

import numpy as np

from ..rng import resolve_rng
from .grad_mode import is_grad_enabled

DEFAULT_DTYPE = np.float64

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches ``shape``.

    Numpy broadcasting can expand an operand along leading axes and along
    axes of size one; the corresponding gradient must be summed back over
    those axes to respect the chain rule.
    """
    if grad.shape == shape:
        return grad
    # Sum away the extra leading dimensions introduced by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size one.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Function:
    """Base class for differentiable operations.

    Subclasses implement :meth:`forward` (numpy in, numpy out) and
    :meth:`backward` (output gradient in, per-parent gradients out). The
    :meth:`apply` classmethod is the public entry point: it unwraps tensor
    arguments, runs the forward pass, and attaches the node to the graph
    when gradient recording is active.
    """

    def __init__(self) -> None:
        self.parents: Tuple[Tensor, ...] = ()
        self.needs_input_grad: Tuple[bool, ...] = ()
        self.saved: Tuple[Any, ...] = ()

    def save_for_backward(self, *items: Any) -> None:
        """Stash arrays or metadata needed by :meth:`backward`."""
        self.saved = items

    def forward(self, *args: Any, **kwargs: Any) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
        raise NotImplementedError

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any) -> "Tensor":
        ctx = cls()
        raw_args = []
        parents = []
        needs = []
        for arg in args:
            if isinstance(arg, Tensor):
                parents.append(arg)
                needs.append(arg.requires_grad)
                raw_args.append(arg.data)
            else:
                raw_args.append(arg)
        out_data = ctx.forward(*raw_args, **kwargs)
        requires = any(needs) and is_grad_enabled()
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            ctx.parents = tuple(parents)
            ctx.needs_input_grad = tuple(needs)
            out._ctx = ctx
        return out

    def parent_index(self, tensor_position: int) -> int:
        """Map a positional argument index to the parents tuple index."""
        return tensor_position


class Tensor:
    """A numpy array with an optional autograd history.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array. Floating point data keeps
        its dtype; other dtypes are converted to the engine default
        (float64) unless ``dtype`` is given.
    requires_grad:
        When True, gradients accumulate into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_ctx", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype: Optional[np.dtype] = None,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = data if type(data) is np.ndarray else np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype.kind != "f":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._ctx: Optional[Function] = None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a 1-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a view of the data cut off from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        return ops.identity(self)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones for scalar outputs, matching the
        convention that ``loss.backward()`` computes d(loss)/d(leaf). A
        supplied ``grad`` must have exactly this tensor's shape.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"grad shape {grad.shape} does not match output shape {self.data.shape}")

        order = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._ctx is None:
                # Leaf tensor: accumulate.
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            ctx = node._ctx
            if ctx is None:
                continue
            parent_grads = ctx.backward(node_grad)
            if not isinstance(parent_grads, tuple):
                parent_grads = (parent_grads,)
            if len(parent_grads) != len(ctx.parents):
                raise RuntimeError(
                    f"{type(ctx).__name__}.backward returned {len(parent_grads)} grads "
                    f"for {len(ctx.parents)} parents"
                )
            for parent, pgrad in zip(ctx.parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                pgrad = np.asarray(pgrad)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    # ------------------------------------------------------------------
    # Operator overloads (definitions live in repro.tensor.ops, bound once
    # at the bottom of this module)
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        return ops.add(self, other)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return ops.add(self, other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return ops.sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return ops.sub(other, self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return ops.mul(self, other)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return ops.mul(self, other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return ops.div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return ops.div(other, self)

    def __neg__(self) -> "Tensor":
        return ops.neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        return ops.pow(self, exponent)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return ops.matmul(self, other)

    def __getitem__(self, index: Any) -> "Tensor":
        return ops.getitem(self, index)

    # Reductions / shape ops -------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        return ops.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return ops.max(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return ops.transpose(self, axes if axes else None)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    # Elementwise convenience -------------------------------------------------
    def exp(self) -> "Tensor":
        return ops.exp(self)

    def log(self) -> "Tensor":
        return ops.log(self)

    def sqrt(self) -> "Tensor":
        return ops.sqrt(self)

    def tanh(self) -> "Tensor":
        return ops.tanh(self)

    def sigmoid(self) -> "Tensor":
        return ops.sigmoid(self)

    def relu(self) -> "Tensor":
        return ops.relu(self)

    def abs(self) -> "Tensor":
        return ops.abs(self)

    def softmax(self, axis: int = -1) -> "Tensor":
        return ops.softmax(self, axis=axis)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        return ops.log_softmax(self, axis=axis)


def _topological_order(root: Tensor) -> list[Tensor]:
    """Return tensors reachable from ``root`` in reverse-topological order."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if node._ctx is not None:
            for parent in node._ctx.parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
    order.reverse()
    return order


def tensor(data: ArrayLike, requires_grad: bool = False, dtype: Optional[np.dtype] = None) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def zeros(shape: Sequence[int], requires_grad: bool = False, dtype: np.dtype = DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape: Sequence[int], requires_grad: bool = False, dtype: np.dtype = DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def randn(
    shape: Sequence[int],
    rng: Optional[np.random.Generator] = None,
    scale: float = 1.0,
    requires_grad: bool = False,
    dtype: np.dtype = DEFAULT_DTYPE,
) -> Tensor:
    """Gaussian tensor; an explicit ``rng`` decorrelates call sites — the
    default is the repo-wide seeded fallback (:func:`repro.rng.resolve_rng`)."""
    rng = resolve_rng(rng)
    return Tensor((rng.standard_normal(shape) * scale).astype(dtype), requires_grad=requires_grad)


# ``ops`` subclasses Function and builds Tensors, so it can only be imported
# once both exist; binding it here saves the operator overloads an import
# lookup per call.
from . import ops  # noqa: E402
