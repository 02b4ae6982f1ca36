"""Independent reference implementations used only as test oracles.

Deliberately naive: scalar python loops, textbook formulas, no sharing with
the package's vectorized code paths.
"""

import copy
import dataclasses
import math

import numpy as np


def dh_ref(a, d, alpha, theta):
    """Link transform written out entry by entry."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    ct, st = math.cos(theta), math.sin(theta)
    m = np.eye(4)
    m[0, 0] = ct
    m[0, 1] = -st
    m[0, 2] = 0.0
    m[0, 3] = a
    m[1, 0] = st * ca
    m[1, 1] = ct * ca
    m[1, 2] = -sa
    m[1, 3] = -d * sa
    m[2, 0] = st * sa
    m[2, 1] = ct * sa
    m[2, 2] = ca
    m[2, 3] = d * ca
    return m


def rot_x_ref(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)


def rot_y_ref(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)


def rot_z_ref(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)


def resolved_rows(topology, params, bi):
    """``(a, d, alpha, theta)`` of each row of branch ``bi``: its rest
    values plus the deltas of ``params`` that the row's variable slots name."""
    rows = []
    for r, row in enumerate(topology.branches[bi].rows):
        a, d, alpha, theta = row.a, row.d, row.alpha, row.theta
        tid = topology.param_index.get((bi, r, "theta"))
        if tid is not None:
            theta = theta + params[tid]
        aid = topology.param_index.get((bi, r, "a"))
        if aid is not None:
            a = a + params[aid]
        did = topology.param_index.get((bi, r, "d"))
        if did is not None:
            d = d + params[did]
        rows.append((a, d, alpha, theta))
    return rows


def fk_naive(topology, params, g):
    """Matrix-chain forward kinematics, one joint at a time."""
    params = np.asarray(params, dtype=float)
    g = np.asarray(g, dtype=float)
    rot = rot_x_ref(g[0]) @ rot_y_ref(g[1]) @ rot_z_ref(g[2])
    kps = np.zeros((topology.keypoint_count, 3))
    for bi, branch in enumerate(topology.branches):
        cum = []
        current = np.eye(4)
        for a, d, alpha, theta in resolved_rows(topology, params, bi):
            current = np.dot(current, dh_ref(a, d, alpha, theta))
            cum.append(current.copy())
        for row_idx, kp in branch.keypoint_map:
            x, y, z = cum[row_idx][0, 3], cum[row_idx][1, 3], cum[row_idx][2, 3]
            kps[kp] = rot @ np.array([x, y, z]) + g[3:6]
    return kps


def param_rest_ref(topology):
    """Rest value per canonical id: 0 for angles, rest bone length for lengths."""
    rest = np.zeros(len(topology.param_names))
    for (b, r, fld), pid in topology.param_index.items():
        if topology.param_kinds[pid] == "length":
            rest[pid] = getattr(topology.branches[b].rows[r], fld)
    return rest


def central_difference(f, x, h=1e-6):
    """Gradient of scalar f at x (flat array), one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(xf.size):
        old = xf[i]
        xf[i] = old + h
        hi = f(x)
        xf[i] = old - h
        lo = f(x)
        xf[i] = old
        flat[i] = (hi - lo) / (2 * h)
    return grad


def float64_copy(model):
    """A copy of an ``nn.Mlp``, a critic or a generator whose layers hold
    float64 copies of its weights: the precision finite differences need,
    which the float32 weights of training are too coarse for."""
    from dhpose import nn

    if isinstance(model, nn.Mlp):
        return nn.Mlp([nn.LayerSpec(layer.w.astype(np.float64), layer.b.astype(np.float64),
                                    layer.act) for layer in model.layers])
    if hasattr(model, "nets"):
        return type(model)(**{name: float64_copy(net) for name, net in model.nets().items()})
    return dataclasses.replace(model, net=float64_copy(model.net))


def weights(*nets) -> list:
    """The weight arrays of ``nets`` by position: nets in order, then layer
    order, ``w`` then ``b``."""
    return [a for net in nets for layer in net.layers for a in (layer.w, layer.b)]


def weight_slots(nets: dict, leaves: dict) -> list:
    """``((net name, layer index, "w" or "b"), weight array, leaf)`` for every
    weight of ``nets``, given their ``nn.mlp_leaves`` lists under the same names."""
    return [((name, i, field), getattr(layer, field), leaf)
            for name, net in nets.items()
            for i, (layer, pair) in enumerate(zip(net.layers, leaves[name], strict=True))
            for field, leaf in zip("wb", pair)]


def replaced(nets: dict, slot, values) -> dict:
    """A deep copy of ``nets`` with the weight array at ``slot`` set to ``values``."""
    nets = copy.deepcopy(nets)
    name, i, field = slot
    setattr(nets[name].layers[i], field, values)
    return nets


def record_line_ref(provenance, seq, frame, values):
    """One dataset text row from a ``RowBlock`` row's provenance code, ids
    and 85 values, each real formatted on its own to 13 significant digits."""
    return (f"{('real', 'synthetic')[provenance]} {seq} {frame} "
            + " ".join(f"{v:.13g}" for v in values))


def group_sequences_ref(rows, frames):
    """Video training arrays from a ``RowBlock``: sequences by id, frames by index."""
    by_seq = {}
    for i, seq_id in enumerate(rows.sequence_id.tolist()):
        by_seq.setdefault(seq_id, []).append(i)
    seqs3, seqs2, cams = [], [], []
    for seq_id in sorted(by_seq):
        group = sorted(by_seq[seq_id], key=lambda i: rows.frame_index[i])
        if len(group) < frames:
            continue
        group = group[:frames]
        seqs3.append(np.stack([rows.values[i, 5:53].reshape(16, 3) for i in group]))
        seqs2.append(np.stack([rows.values[i, 53:85].reshape(16, 2) for i in group]))
        cams.append(rows.values[group[0], 0:5])
    return np.stack(seqs3), np.stack(seqs2), np.stack(cams)


def leaky_relu_mask_ref(z, slope=0.2):
    """The leaky-ReLU derivative as one expression: 1 where z >= 0, else slope."""
    return (z >= 0.0) * (1.0 - slope) + slope


def dense_ref(x, w, b, act, slope=0.2):
    """One dense layer act(x @ w + b) in the inputs' dtype, each step writing
    a fresh array."""
    z = x @ w + b
    if act == "tanh":
        return np.tanh(z)
    if act == "lrelu":
        return z * leaky_relu_mask_ref(z, slope).astype(z.dtype)
    return z


def generate_ref(gen, z):
    """The generator pipeline with a float64 copy of its net: ``mlp_eval``,
    then the package's split and squash, FK and projection.

    A float64 reference for finite differences, which the float32 net of
    ``gan.generate`` is too coarse for; it shares the package's geometry
    on purpose and is no independent check of it."""
    from dhpose import autodiff as ad
    from dhpose import gan, nn
    from dhpose.camera import project_pose
    from dhpose.skeleton import forward_kinematics_batch

    raw = nn.mlp_eval(float64_copy(gen.net), z)
    with ad.Tape() as tape:
        params, globals_ = (x.values for x in gan._split_raw(gen, tape.const(raw)))
    pose3d = forward_kinematics_batch(gen.topology, params, globals_)
    if gen.mode == "video":
        params, globals_, pose3d = (x.reshape(raw.shape[0], gen.frames, *x.shape[1:])
                                    for x in (params, globals_, pose3d))
    return gan.GenOutput(params=params, globals_=globals_, pose3d=pose3d,
                         pose2d=project_pose(pose3d, gen.camera))


def linear_frame_critic(weight, n_pairs=14):
    """A frame critic of one linear layer per net whose weights are all 0
    except ``weight`` from the first x3d input into the first encoder channel
    and from that channel into the head.  Its input gradient is weight^2 on
    that one input and 0 on every other, so its gradient penalty is
    alpha * (weight^2 - 1)^2: exactly alpha for weight 0, exactly 0 for 1."""
    from dhpose import gan, nn

    def layer(fan_in):
        return nn.Mlp([nn.LayerSpec(np.zeros((fan_in, 1)), np.zeros(1), "linear")])

    critic = gan.FrameCritic(enc3d=layer(48), enc_cos=layer(n_pairs), enc2d=layer(32),
                             head=layer(3))
    critic.enc3d.layers[0].w[0, 0] = weight
    critic.head.layers[0].w[0, 0] = weight
    return critic
