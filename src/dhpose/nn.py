"""Fully connected nets on the autodiff tape, their input-gradient
pullback, the Adam optimizer, and checkpoint serialization.

The dense layer's chain rule is written once, in numpy: ``dense_forward``
is a layer's forward pass and ``mlp_vjp`` pulls a gradient back through a
net.  A net's pass on the tape (``mlp_apply``) is one node whose pullback
is ``mlp_vjp`` plus each layer's weight and bias gradient.

A gradient penalty needs d(|grad_x D|)/d(params), i.e. gradients of a
gradient.  For lrelu and linear layers that is closed-form numpy: the
derivative of each layer is its bool mask, which does not move with the
weights.  ``mlp_trace`` runs a net keeping only what the input gradient
reads, ``mlp_vjp`` pulls an upstream gradient back to the input and keeps
each layer's operand, and ``mlp_vjp_pullback`` takes a gradient of that
input gradient back to each layer's weight gradient.  The critics' penalty
(``gan.penalty``) is one tape node built on them.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tape, Tensor
from .textio import ParseError, Record, decode

ACTIVATIONS = ("tanh", "lrelu", "linear")
LRELU_SLOPE = 0.2
# dtype of every net's weights, so of Adam's moments and of each pass through
# a net (its input is cast to the weights' dtype); geometry stays float64
COMPUTE_DTYPE = np.float32


@dataclass
class LayerSpec:
    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)
    act: str = "linear"

    def __post_init__(self):
        if self.act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.act!r}; expected one of {ACTIVATIONS}")
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ShapeError(f"layer shapes disagree: w {self.w.shape}, b {self.b.shape}")


@dataclass
class Mlp:
    layers: list[LayerSpec]

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].w.shape[1]


def mlp_init(sizes: Sequence[int], acts: Sequence[str], rng: np.random.Generator) -> Mlp:
    """Layers sized ``sizes[i] -> sizes[i+1]`` with scaled-normal weights,
    drawn in float64 and rounded to ``COMPUTE_DTYPE``."""
    if len(acts) != len(sizes) - 1:
        raise ValueError(f"need {len(sizes) - 1} activations, got {len(acts)}")
    layers = []
    for fan_in, fan_out, act in zip(sizes[:-1], sizes[1:], acts):
        w = (rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)).astype(COMPUTE_DTYPE)
        layers.append(LayerSpec(w=w, b=np.zeros(fan_out, COMPUTE_DTYPE), act=act))
    return Mlp(layers)


def times_lrelu_derivative(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``x`` times the leaky-ReLU derivative of the bool mask ``pre >= 0``
    (1 where it is set, else ``LRELU_SLOPE``), as one new array in ``x``'s
    dtype: bitwise ``x * (mask * (1 - LRELU_SLOPE) + LRELU_SLOPE)``.  The
    derivative is built here and not kept, so a layer stores one byte per
    element for it; ``np.where`` or a masked multiply would be about 10x
    slower.
    """
    out = mask.astype(x.dtype)
    out *= 1.0 - LRELU_SLOPE
    out += LRELU_SLOPE
    out *= x
    return out


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                  act: str) -> tuple[np.ndarray, Optional[np.ndarray]]:
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
        z = times_lrelu_derivative(z, mask)
    elif act != "linear":
        raise ValueError(f"unknown activation {act!r}")
    return z, mask


def _as_input(net: Mlp, x) -> np.ndarray:
    h = np.asarray(x, dtype=net.layers[0].w.dtype)
    if h.ndim != 2 or h.shape[1] != net.in_dim:
        raise ShapeError(f"input {h.shape} does not match first layer "
                         f"({net.in_dim} features expected)")
    return h


def mlp_eval(net: Mlp, x) -> np.ndarray:
    """Plain numpy forward pass (inference path, no tape) with the input
    cast to the weights' dtype."""
    h = _as_input(net, x)
    for layer in net.layers:
        h, _ = dense_forward(h, layer.w, layer.b, layer.act)
    return h


def mlp_trace(net: Mlp, x) -> tuple[np.ndarray, list]:
    """``mlp_eval`` keeping, per layer, what ``mlp_vjp`` reads: the lrelu
    layer's bool mask ``pre >= 0``, the tanh layer's output, None for a
    linear layer.  Every other activation is dropped once the next layer
    has read it."""
    h = _as_input(net, x)
    trace = []
    for layer in net.layers:
        h, mask = dense_forward(h, layer.w, layer.b, layer.act)
        trace.append(h if layer.act == "tanh" else mask)
    return h, trace


def mlp_leaves(tape: Tape, net: Mlp) -> list:
    """Each layer's ``(w, b)`` as differentiable leaves on the tape, in layer
    order, whose values are the layer's arrays themselves."""
    return [(tape.var(layer.w), tape.var(layer.b)) for layer in net.layers]


def mlp_apply(net: Mlp, x, tape: Tape, params: Optional[list] = None) -> Tensor:
    """Forward pass of ``x``, a tensor (cast to the weights' dtype) or a
    numpy input (a constant in that dtype), as one tape node whose parents
    are ``x`` and the leaves of ``params``, the ``mlp_leaves`` list of
    ``net`` (None: no leaves, the weights are constants).

    The node keeps each layer's input and what ``mlp_vjp`` reads.  Its
    pullback runs ``mlp_vjp`` and accumulates ``input.T @ operand`` into
    each ``w`` and ``operand.sum(0)`` into each ``b`` that needs a gradient;
    it forms the input's gradient only when ``x`` needs one.
    """
    dtype = net.layers[0].w.dtype
    x = ad.astype(x, dtype) if isinstance(x, Tensor) else tape.const(np.asarray(x, dtype))
    h = _as_input(net, x.values)
    params = params or []
    if params and len(params) != len(net.layers):
        raise ShapeError(f"{len(params)} leaf pairs for {len(net.layers)} layers")
    inputs, trace = [], []
    for layer in net.layers:
        inputs.append(h)
        h, mask = dense_forward(h, layer.w, layer.b, layer.act)
        trace.append(h if layer.act == "tanh" else mask)

    def bwd(g):
        g, operands = mlp_vjp(net, trace, g, x.requires_grad)
        for (w, b), layer_in, operand in zip(params, inputs, operands):
            if w.requires_grad:
                w.accumulate(layer_in.T @ operand)
            if b.requires_grad:
                b.accumulate(operand.sum(axis=0))
        if x.requires_grad:
            x.accumulate(g)

    return ad.node("mlp", h, (x, *(leaf for pair in params for leaf in pair)), bwd)


def mlp_vjp(net: Mlp, trace: list, upstream: np.ndarray,
            input_grad: bool = True) -> tuple[Optional[np.ndarray], list]:
    """Pull ``upstream`` (batch, out_dim) back through ``net`` at the
    ``mlp_trace`` forward pass ``trace``: numpy, in the weights' dtype.

    Returns d(upstream . out)/dx, (batch, in_dim), or None when not
    ``input_grad``, and each layer's operand, in layer order: the gradient
    at the layer's output times its activation derivative, which the layer
    multiplies by ``w.T`` and ``mlp_vjp_pullback`` reads.
    """
    g, operands = upstream, []
    for k in reversed(range(len(net.layers))):
        layer = net.layers[k]
        if layer.act == "tanh":
            g = g * (1.0 - trace[k] * trace[k])
        elif layer.act == "lrelu":
            g = times_lrelu_derivative(g, trace[k])
        operands.append(g)
        g = g @ layer.w.T if k or input_grad else None
    return g, operands[::-1]


def mlp_vjp_pullback(net: Mlp, trace: list, operands: list,
                     g: np.ndarray) -> tuple[list, np.ndarray]:
    """Pull ``g``, a gradient of ``mlp_vjp``'s input gradient, back through
    it: each layer's weight gradient (the biases get none) and the gradient
    of its ``upstream``.  Each operand and mask is released from its list
    once its layer is done.

    Exact for lrelu and linear layers only, whose derivative does not move
    with the weights; a tanh layer raises ValueError.
    """
    grads = []
    for k, layer in enumerate(net.layers):
        if layer.act not in ("lrelu", "linear"):
            raise ValueError(f"layer {k} is {layer.act}: its derivative moves with the weights")
        grads.append((operands[k].T @ g).T)
        g = g @ layer.w
        if layer.act == "lrelu":
            g = times_lrelu_derivative(g, trace[k])
        operands[k] = trace[k] = None
    return grads, g


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float = 1e-4
    step: int = 0
    m: list = field(default_factory=list)  # moments, in the order of the parameters
    v: list = field(default_factory=list)


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray]) -> list[np.ndarray]:
    """One Adam update; returns new parameter arrays, in order.  The
    moments take the parameters' dtype, as do the gradients of a training
    step, which are used as they are."""
    if len(grads) != len(params) or len(state.m) not in (0, len(params)):
        raise ShapeError(f"{len(params)} parameters, {len(grads)} gradients and "
                         f"{len(state.m)} moments do not match")
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    state.step += 1
    t = state.step
    new = []
    for i, (p, g, m, v) in enumerate(zip(params, grads, state.m, state.v)):
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter "
                             f"{i} shape {p.shape}")
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        new.append(p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
    return new


def adam_update(state: AdamState, nets, leaves) -> None:
    """Adam on the weights of ``nets`` with the gradients of their
    ``mlp_leaves`` lists, both in order; binds the new arrays into the layers."""
    layers = [layer for net in nets for layer in net.layers]
    new = adam_step(state, [a for layer in layers for a in (layer.w, layer.b)],
                    [t.grad for net_leaves in leaves for pair in net_leaves for t in pair])
    for layer, w, b in zip(layers, new[::2], new[1::2]):
        layer.w, layer.b = w, b


# --------------------------------------------------------------------------
# Checkpoints: text header (layer shapes, activation tags, seed) followed by
# a flat little-endian float32 blob in header order.

def save_checkpoint(path, nets: dict[str, Mlp], seed: int,
                    extra: Optional[dict[str, str]] = None) -> None:
    header = io.StringIO()
    header.write("dhpose-checkpoint v1\n")
    header.write(f"seed {seed}\n")
    for key, value in (extra or {}).items():
        header.write(f"meta {key} {value}\n")
    blobs = []
    for name, net in nets.items():
        header.write(f"net {name} layers {len(net.layers)}\n")
        for i, layer in enumerate(net.layers):
            header.write(f"layer {name} {i} {layer.w.shape[0]} {layer.w.shape[1]} {layer.act}\n")
            blobs.append(layer.w.astype("<f4").ravel())
            blobs.append(layer.b.astype("<f4").ravel())
    blob = np.concatenate(blobs) if blobs else np.empty(0, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode())
        fh.write(f"binary {blob.nbytes}\n".encode())
        fh.write(blob.tobytes())


def load_checkpoint(path) -> tuple[dict[str, Mlp], int, dict[str, Record]]:
    """Nets, seed and the ``meta`` lines by key, as ``Record``s to read with
    ``Record.fields``; a header line that is blank or malformed raises
    ``ParseError`` (a ``meta`` value keeps any ``#``), as do ``layer`` lines
    that do not form their net: each follows its ``net`` line, numbered by
    position, reading what the layer before it emits, as many as the ``net``
    line says, and a blob shorter than the ``binary`` line says."""
    with open(path, "rb") as fh:
        magic = decode(path, fh.readline(), 1).strip()
        if magic != "dhpose-checkpoint v1":
            raise ParseError(path, 1, f"not a checkpoint file: {magic!r}")
        seed = 0
        extra: dict[str, Record] = {}
        # by net: the layer count and line of its net line, and (in, out, act) per layer
        specs: dict[str, tuple[int, Record, list[tuple[int, int, str]]]] = {}
        nbytes = net = None
        for lineno, raw in enumerate(iter(fh.readline, b""), start=2):
            rec = Record(path, lineno, decode(path, raw, lineno).split())
            kind = rec.tokens[0] if rec.tokens else ""
            if kind == "seed":
                seed = rec.fields("seed", int)[1]
            elif kind == "meta" and len(rec.tokens) > 1:
                extra[rec.tokens[1]] = rec
            elif kind == "net":
                _, net, _, count = rec.fields("net", str, "layers", int)
                if net in specs:
                    raise rec.error(f"net {net!r} is declared twice")
                if count < 1:
                    raise rec.error(f"net {net!r} needs at least one layer, got {count}")
                specs[net] = (count, rec, [])
            elif kind == "layer":
                _, name, index, fan_in, fan_out, act = rec.fields("layer", str, int, int, int, str)
                if act not in ACTIVATIONS:
                    raise rec.error(f"unknown activation {act!r}")
                if min(fan_in, fan_out) < 1:
                    raise rec.error(f"layer sizes must be positive, got {fan_in} x {fan_out}")
                if name != net:
                    raise rec.error(f"a layer of net {name!r} outside that net's lines")
                layers = specs[net][2]
                if index != len(layers):
                    raise rec.error(f"layer {index} of net {net!r} is its layer {len(layers)}")
                if layers and fan_in != layers[-1][1]:
                    raise rec.error(f"layer {index} of net {net!r} reads {fan_in} values; "
                                    f"layer {index - 1} emits {layers[-1][1]}")
                layers.append((fan_in, fan_out, act))
            elif kind == "binary":
                nbytes = rec.fields("binary", int)[1]
                break
            else:
                raise rec.error(f"bad checkpoint header line {raw!r}")
        if nbytes is None:
            raise ParseError(path, None, "checkpoint has no binary section")
        for name, (count, net_rec, layers) in specs.items():
            if len(layers) != count:
                raise net_rec.error(f"net {name!r} has {len(layers)} layer lines, not {count}")
        need = 4 * sum(fan_in * fan_out + fan_out
                       for _, _, layers in specs.values() for fan_in, fan_out, _ in layers)
        if need != nbytes:
            raise rec.error(f"the layer lines need {need} bytes, this line says {nbytes}")
        payload = fh.read(nbytes)
        if len(payload) != nbytes:
            raise rec.error(f"binary payload truncated: expected {nbytes} bytes, "
                            f"got {len(payload)}")
        blob = np.frombuffer(payload, dtype="<f4").astype(COMPUTE_DTYPE)
    nets: dict[str, Mlp] = {}
    pos = 0
    for name, (_, _, layers) in specs.items():
        nets[name] = Mlp([])
        for fan_in, fan_out, act in layers:
            w = blob[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out)
            pos += fan_in * fan_out
            b = blob[pos:pos + fan_out]
            pos += fan_out
            nets[name].layers.append(LayerSpec(w=w, b=b, act=act))
    return nets, seed, extra
