"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` records every operation as it is built, so the node list is
topologically ordered by construction.  ``backward`` walks that list in
reverse and accumulates exact gradients, summing over fan-out, and consumes
the graph as it goes: once the sweep has passed an op node, that node's
values, gradient and pullback are released, so afterwards only leaves keep
values and gradients.  Read any op output you need before calling it.
Values are float32 when given as float32 and float64
otherwise; an op keeps the dtype of its inputs (a plain-number operand
takes the dtype of the tensor it meets), and a gradient has the dtype of
its tensor.  Every op is deterministic, so identical inputs give
bitwise-identical forward and backward results.

Every tensor points at its tape and the tape lists every tensor, so a tape
is a reference cycle.  Use it as a context manager to drop the node list on
exit: the tensors are then freed as soon as the caller lets go of them,
without waiting for a garbage-collector pass.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """A node in the computation graph: cached values plus backward hooks."""

    __slots__ = ("values", "grad", "parents", "op", "tape", "requires_grad", "_bwd", "__weakref__")

    def __init__(self, values, tape, parents=(), op="leaf", requires_grad=False, bwd=None):
        values = np.asarray(values)
        if values.dtype != np.float32:
            values = values.astype(np.float64, copy=False)
        self.values = values
        self.grad: Optional[np.ndarray] = None
        self.parents = tuple(parents)
        self.op = op
        self.tape = tape
        self.requires_grad = requires_grad
        self._bwd = bwd

    @property
    def shape(self):
        return self.values.shape

    def accumulate(self, g: np.ndarray) -> None:
        # ``g`` may alias another node's array, so it is never updated in place
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.values.shape})"


class Tape:
    """Ordered op record; create leaves with :meth:`var` / :meth:`const`."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def _record(self, t: Tensor) -> Tensor:
        self.nodes.append(t)
        return t

    def var(self, values, name="var") -> Tensor:
        """A differentiable leaf (parameter or input we want gradients for)."""
        return self._record(Tensor(values, self, op=name, requires_grad=True))

    def const(self, values) -> Tensor:
        """A non-differentiable leaf."""
        return self._record(Tensor(values, self, op="const"))

    def __enter__(self) -> "Tape":
        return self

    def __exit__(self, *exc) -> None:
        self.nodes.clear()


def backward(tape: Tape, out: Tensor) -> None:
    """Populate ``.grad`` on every leaf ``out`` depends on, releasing the graph.

    ``out`` must be scalar (size one).  Gradients accumulate over fan-out in
    fixed reverse-recording order.  Every op node from ``out`` back (one
    with parents) has its ``values``, ``grad`` and pullback set to None once
    the sweep passes it, whether or not a gradient reached it: a pullback
    reads only its parents, which come earlier on the tape, so nothing reads
    a node after that.  Leaves keep their values and gradients.
    """
    if out.values.size != 1:
        raise ValueError(f"backward needs a scalar output, got shape {out.values.shape}")
    if out.tape is not tape:
        raise ValueError("output tensor does not belong to this tape")
    out.grad = np.ones_like(out.values)
    seen = False
    for node in reversed(tape.nodes):
        if node is out:
            seen = True
        if not seen or not node.parents:
            continue
        if node.grad is not None and node._bwd is not None:
            node._bwd(node.grad)
        node.values = node.grad = node._bwd = None


def _wrap(*xs) -> list[Tensor]:
    """The operands as tensors.  A non-tensor becomes a constant in the dtype of
    the first tensor operand: a float64 constant would promote a float32 graph."""
    like = next((x for x in xs if isinstance(x, Tensor)), None)
    if like is None:
        raise TypeError("at least one operand must be a Tensor")
    dtype = like.values.dtype
    return [x if isinstance(x, Tensor) else like.tape.const(np.asarray(x, dtype=dtype))
            for x in xs]


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def node(op: str, values, parents: tuple[Tensor, ...], bwd) -> Tensor:
    """Record an op's output.  ``bwd(g)`` receives the gradient of ``values``
    and accumulates into each parent that requires a gradient; it is kept
    only when one does.  Ops written outside this module use it too."""
    tape = parents[0].tape
    requires_grad = any(p.requires_grad for p in parents)
    t = Tensor(values, tape, parents=parents, op=op,
               requires_grad=requires_grad, bwd=bwd if requires_grad else None)
    return tape._record(t)


def add(a, b) -> Tensor:
    a, b = _wrap(a, b)
    out_values = a.values + b.values

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.values.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.values.shape))

    return node("add", out_values, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _wrap(a, b)
    out_values = a.values - b.values

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.values.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.values.shape))

    return node("sub", out_values, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _wrap(a, b)
    out_values = a.values * b.values

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.values, a.values.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.values, b.values.shape))

    return node("mul", out_values, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = _wrap(a, b)
    out_values = a.values / b.values

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g / b.values, a.values.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g * a.values / (b.values * b.values), b.values.shape))

    return node("div", out_values, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            a.accumulate(-g)

    return node("neg", -a.values, (a,), bwd)


def matmul(a, b) -> Tensor:
    """Matrix product; 2D or batched with identical leading dims."""
    a, b = _wrap(a, b)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ShapeError(f"matmul needs >=2D operands, got {a.values.shape} and {b.values.shape}")
    if a.values.shape[-1] != b.values.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.values.shape} vs {b.values.shape}")
    if a.values.ndim > 2 and b.values.ndim > 2 and a.values.shape[:-2] != b.values.shape[:-2]:
        raise ShapeError(f"matmul batch dims differ: {a.values.shape} vs {b.values.shape}")
    out_values = a.values @ b.values

    def bwd(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.values, -1, -2)
            a.accumulate(_unbroadcast(ga, a.values.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.values, -1, -2) @ g
            b.accumulate(_unbroadcast(gb, b.values.shape))

    return node("matmul", out_values, (a, b), bwd)


def times_lrelu_derivative(x: np.ndarray, mask: np.ndarray, slope: float) -> np.ndarray:
    """``x`` times the leaky-ReLU derivative of the bool mask ``pre >= 0``
    (1 where it is set, else ``slope``), as one new array in ``x``'s dtype.

    Bitwise equal to ``x * (mask * (1 - slope) + slope)``.  The derivative is
    built here and not kept, so a layer stores one byte per element for it;
    ``np.where`` or a masked multiply would be about 10x slower.
    """
    out = mask.astype(x.dtype)
    out *= 1.0 - slope
    out += slope
    out *= x
    return out


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, act: str,
                  slope: float) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """``act(x @ w + b)``, tanh and linear written into the one new array
    ``x @ w``, lrelu into a second one; x, w and b are only read.  Returns
    it and, for lrelu, the bool mask ``pre >= 0`` of the pre-activation
    (None otherwise)."""
    z = x @ w
    z += b
    mask = None
    if act == "tanh":
        np.tanh(z, out=z)
    elif act == "lrelu":
        mask = z >= 0.0
        z = times_lrelu_derivative(z, mask, slope)
    elif act != "linear":
        raise ValueError(f"unknown activation {act!r}")
    return z, mask


def linear(x, w, b, act: str = "linear", slope: float = 0.2) -> tuple[Tensor, Optional[np.ndarray]]:
    """Dense layer ``act(x @ w + b)`` as one node; ``act`` is tanh, lrelu or linear.

    Returns the output and, for lrelu, its bool mask ``pre >= 0`` (None
    otherwise), which input gradients built as tape ops reuse through
    ``lrelu_scale``.
    """
    x, w, b = _wrap(x, w, b)
    if (x.values.ndim != 2 or w.values.ndim != 2 or x.values.shape[1] != w.values.shape[0]
            or b.values.shape != w.values.shape[1:]):
        raise ShapeError(f"linear shapes disagree: x {x.values.shape}, w {w.values.shape}, "
                         f"b {b.values.shape}")
    z, mask = dense_forward(x.values, w.values, b.values, act, slope)

    def bwd(g):
        if act == "tanh":
            g = g * (1.0 - z * z)
        elif mask is not None:
            g = times_lrelu_derivative(g, mask, slope)
        if x.requires_grad:
            x.accumulate(g @ w.values.T)
        if w.requires_grad:
            w.accumulate(x.values.T @ g)
        if b.requires_grad:
            b.accumulate(g.sum(axis=0))

    return node("linear", z, (x, w, b), bwd), mask


def lrelu_scale(a: Tensor, mask: np.ndarray, slope: float) -> Tensor:
    """``a`` times the leaky-ReLU derivative of the bool mask ``mask`` (see
    ``times_lrelu_derivative``), in ``a``'s dtype.  The op is linear in
    ``a``, so its pullback is the same product."""
    def bwd(g):
        if a.requires_grad:
            a.accumulate(times_lrelu_derivative(g, mask, slope))

    return node("lrelu_scale", times_lrelu_derivative(a.values, mask, slope), (a,), bwd)


def astype(a: Tensor, dtype) -> Tensor:
    """``a`` in another float dtype; its gradient flows back in ``a``'s dtype.
    Returns ``a`` itself when it already has that dtype."""
    if a.values.dtype == dtype:
        return a

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g.astype(a.values.dtype))

    return node("astype", a.values.astype(dtype), (a,), bwd)


def square(a: Tensor) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * 2.0 * a.values)

    return node("square", a.values * a.values, (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root; the subgradient at 0 is taken as 0."""
    out_values = np.sqrt(a.values)

    def bwd(g):
        if a.requires_grad:
            safe = np.where(out_values > 0.0, out_values, 1.0)
            a.accumulate(np.where(out_values > 0.0, g * 0.5 / safe, 0.0))

    return node("sqrt", out_values, (a,), bwd)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_values = a.values.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if not a.requires_grad:
            return
        if axis is None:
            a.accumulate(np.broadcast_to(g, a.values.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate(np.broadcast_to(g, a.values.shape).copy())

    return node("sum", out_values, (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.values.size if axis is None else a.values.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.values.shape))

    return node("reshape", a.values.reshape(shape), (a,), bwd)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            a.accumulate(np.swapaxes(g, ax1, ax2))

    return node("swapaxes", np.swapaxes(a.values, ax1, ax2), (a,), bwd)


def transpose2d(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose2d needs a 2D tensor, got {a.values.shape}")
    return swapaxes(a, 0, 1)


def _is_basic_index(key) -> bool:
    """True for ints, slices, ``...`` and ``None``: each element is picked at most once."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in parts)


def getitem(a: Tensor, key) -> Tensor:
    out_values = a.values[key]
    basic = _is_basic_index(key)

    def bwd(g):
        if a.requires_grad:
            full = np.zeros_like(a.values)
            if basic:
                full[key] = g
            else:
                np.add.at(full, key, g)
            a.accumulate(full)

    return node("getitem", out_values, (a,), bwd)


def concat(xs: Sequence[Tensor], axis: int = -1) -> Tensor:
    xs = _wrap(*xs)
    out_values = np.concatenate([x.values for x in xs], axis=axis)
    sizes = [x.values.shape[axis] for x in xs]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        g = np.moveaxis(g, axis, 0)
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            if x.requires_grad:
                x.accumulate(np.moveaxis(g[lo:hi], 0, axis))

    return node("concat", out_values, tuple(xs), bwd)


def stack(xs: Sequence[Tensor], axis: int = 0) -> Tensor:
    shaped = []
    for x in xs:
        shp = list(x.values.shape)
        shp.insert(axis if axis >= 0 else len(shp) + 1 + axis, 1)
        shaped.append(reshape(x, tuple(shp)))
    return concat(shaped, axis=axis)
