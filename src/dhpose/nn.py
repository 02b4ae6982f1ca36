"""Fully connected nets on the autodiff tape, their input-gradient
pullback, the Adam optimizer, and checkpoint serialization.

A gradient penalty needs d(|grad_x D|)/d(params), i.e. gradients of a
gradient.  Rather than a higher-order tape, ``mlp_vjp`` builds the input
gradient *as tape operations* (transposed weight products and activation
derivatives), so one ordinary backward pass differentiates it; the critics'
penalty (``gan._penalty``) is built on it.
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


def mlp_eval(net: Mlp, x) -> np.ndarray:
    """Plain numpy forward pass (inference path, no tape) with the input
    cast to the weights' dtype."""
    h = np.asarray(x, dtype=net.layers[0].w.dtype)
    if h.ndim != 2 or h.shape[1] != net.in_dim:
        raise ShapeError(f"input {h.shape} does not match first layer "
                         f"({net.in_dim} features expected)")
    for layer in net.layers:
        h, _ = ad.dense_forward(h, layer.w, layer.b, layer.act, LRELU_SLOPE)
    return h


def mlp_leaves(tape: Tape, net: Mlp, var: bool = True) -> list:
    """Each layer's ``(w, b)`` on the tape, in layer order: differentiable
    leaves, or constants when not ``var``, whose values are the layer's
    arrays themselves."""
    leaf = tape.var if var else tape.const
    return [(leaf(layer.w), leaf(layer.b)) for layer in net.layers]


def mlp_apply(net: Mlp, x, tape: Tape, params: Optional[list] = None) -> tuple[Tensor, list]:
    """Forward pass of ``x``, a tensor or a numpy input (a constant in the
    weights' dtype), with the ``mlp_leaves`` list ``params`` (by default the
    weights as constants), returning the output and a per-layer trace.

    Each layer is one ``ad.linear`` node.  The trace holds ``(w, h, act,
    mask)`` per layer, ``mask`` being the lrelu layer's bool mask ``pre >=
    0`` (None for other activations), so the analytic input gradient can
    reuse them.  ``mlp_vjp`` must read the trace before ``ad.backward``
    releases its nodes.
    """
    if not isinstance(x, Tensor):
        x = tape.const(np.asarray(x, net.layers[0].w.dtype))
    if x.values.ndim != 2 or x.values.shape[1] != net.in_dim:
        raise ShapeError(f"input {x.values.shape} does not match first layer "
                         f"({net.in_dim} features expected)")
    if params is None:
        params = mlp_leaves(tape, net, var=False)
    trace = []
    h = x
    for (w, b), layer in zip(params, net.layers, strict=True):
        h, mask = ad.linear(h, w, b, layer.act, LRELU_SLOPE)
        trace.append((w, h, layer.act, mask))
    return h, trace


def mlp_vjp(trace: list, upstream: Tensor) -> Tensor:
    """Pull ``upstream`` back through a recorded forward trace, as tape ops.

    Returns d(upstream . out)/dx with shape (batch, in_dim).  Only tanh and
    leaky-relu hidden activations admit the double-backprop construction.
    An lrelu layer's derivative is one ``ad.lrelu_scale`` node, which keeps
    the layer's bool mask rather than a float copy of it.
    """
    g = upstream
    for w, h, act, mask in reversed(trace):
        if act == "tanh":
            g = ad.mul(g, ad.sub(1.0, ad.square(h)))
        elif act == "lrelu":
            g = ad.lrelu_scale(g, mask, LRELU_SLOPE)
        elif act != "linear":
            raise ValueError(f"activation {act!r} does not support double backprop")
        g = ad.matmul(g, ad.transpose2d(w))
    return g


@dataclass
class AdamState:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        new.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
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


def load_checkpoint(path) -> tuple[dict[str, Mlp], int, dict[str, str]]:
    """Nets, seed and ``meta`` values; a header line that is blank or
    malformed raises ``ParseError`` (a ``meta`` value keeps any ``#``)."""
    with open(path, "rb") as fh:
        magic = decode(path, fh.readline(), 1).strip()
        if magic != "dhpose-checkpoint v1":
            raise ParseError(path, 1, f"not a checkpoint file: {magic!r}")
        seed = 0
        extra: dict[str, str] = {}
        specs: list[tuple[str, int, int, str]] = []  # (net, in, out, act)
        nbytes = None
        for lineno, raw in enumerate(iter(fh.readline, b""), start=2):
            rec = Record(path, lineno, decode(path, raw, lineno).split())
            kind = rec.tokens[0] if rec.tokens else ""
            if kind == "seed":
                seed = rec.fields("seed", int)[1]
            elif kind == "meta" and len(rec.tokens) > 1:
                extra[rec.tokens[1]] = " ".join(rec.tokens[2:])
            elif kind == "net":
                rec.fields("net", str, "layers", int)
            elif kind == "layer":
                _, name, _, fan_in, fan_out, act = rec.fields("layer", str, int, int, int, str)
                if act not in ACTIVATIONS:
                    raise rec.error(f"unknown activation {act!r}")
                specs.append((name, fan_in, fan_out, act))
            elif kind == "binary":
                nbytes = rec.fields("binary", int)[1]
                break
            else:
                raise rec.error(f"bad checkpoint header line {raw!r}")
        if nbytes is None:
            raise ParseError(path, None, "checkpoint has no binary section")
        need = 4 * sum(fan_in * fan_out + fan_out for _, fan_in, fan_out, _ in specs)
        if need != nbytes:
            raise rec.error(f"the layer lines need {need} bytes, this line says {nbytes}")
        payload = fh.read(nbytes)
        if len(payload) != nbytes:
            raise ValueError(f"{path}: checkpoint blob truncated: header says {nbytes} bytes, "
                             f"file holds {len(payload)}")
        blob = np.frombuffer(payload, dtype="<f4").astype(COMPUTE_DTYPE)
    nets: dict[str, Mlp] = {}
    pos = 0
    for name, fan_in, fan_out, act in specs:
        w = blob[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        b = blob[pos:pos + fan_out]
        pos += fan_out
        nets.setdefault(name, Mlp([])).layers.append(LayerSpec(w=w, b=b, act=act))
    return nets, seed, extra
