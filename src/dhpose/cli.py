"""Command-line surface.

Subcommands: fk, validate, project, features, synth, train, export-video,
selftest.  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import constraints as ct
from . import dataset as ds
from . import gan
from . import skeleton as sk
from .__main__ import BLAS_THREAD_VARS
from .camera import CameraIntrinsics, DepthViolationError, default_camera, project_pose
from .features import adjacent_bone_pairs
from .textio import ParseError, records

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; the CLI contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _load_params_file(path, topology) -> np.ndarray:
    """48 whitespace-separated deltas, any number to a line (line rules in
    ``textio``): degrees for angles, meters for lengths."""
    values, line_no = [], None
    for rec in records(Path(path).read_bytes().splitlines(), path):
        values += rec.fields(*[float] * len(rec.tokens))
        line_no = rec.line_no
    if len(values) != sk.N_PARAMS:  # named at the last line with values, if any
        raise ParseError(path, line_no, f"expected {sk.N_PARAMS} values, found {len(values)}")
    params = np.asarray(values)
    angle = np.array([k == "angle" for k in topology.param_kinds])
    params[angle] = np.deg2rad(params[angle])
    return params


def _parse_camera(spec: str) -> CameraIntrinsics:
    parts = [float(t) for t in spec.split(",")]
    if len(parts) != 5:
        raise ValueError(f"camera must be fx,fy,cx,cy,z_min; got {spec!r}")
    return CameraIntrinsics.from_array(parts)


def _parse_global(spec: str) -> sk.GlobalTransform:
    parts = [float(t) for t in spec.split(",")]
    if len(parts) != 6:
        raise ValueError(f"global transform must be rx,ry,rz,tx,ty,tz; got {spec!r}")
    return sk.GlobalTransform(*np.deg2rad(parts[:3]), *parts[3:])


def _topology_from(args) -> sk.SkeletonTopology:
    return sk.load_topology(args.topology) if args.topology else sk.default_topology()


def _table_from(args) -> ct.ConstraintTable:
    return ct.load_constraint_table(args.constraints) if args.constraints \
        else ct.default_constraint_table()


def _print_pose(pose, topology, fh=None):
    fh = fh or sys.stdout
    for kp, name in enumerate(topology.keypoint_names):
        x, y, z = pose[kp]
        fh.write(f"keypoint {kp} {name} {x:.13g} {y:.13g} {z:.13g}\n")


def _untrained_generator(seed, mode, frames, topology, table):
    cfg = gan.TrainConfig(mode=mode, frames=frames if mode == "video" else 1, seed=seed)
    return gan.build_generator(cfg, np.random.default_rng(seed), topology, table)


def _generator_from(args, topology, table):
    if getattr(args, "checkpoint", None):
        return gan.load_generator(args.checkpoint, topology, table)
    return _untrained_generator(args.seed, args.mode, getattr(args, "frames", 1),
                                topology, table)


def cmd_fk(args) -> int:
    topology = _topology_from(args)
    params = _load_params_file(args.params, topology) if args.params else np.zeros(sk.N_PARAMS)
    g = _parse_global(args.transform) if args.transform else sk.GlobalTransform.identity()
    _print_pose(sk.forward_kinematics(topology, params, g), topology)
    return EXIT_OK


def cmd_validate(args) -> int:
    topology = _topology_from(args)
    table = _table_from(args)
    params = _load_params_file(args.params, topology)
    report = ct.validate_params(params, table)
    if report.ok:
        print("ok: all 48 parameters within bounds")
        return EXIT_OK
    for v in report.violations:
        print(str(v))
    return EXIT_DATA


def cmd_project(args) -> int:
    pose = sk.load_rest_pose(args.pose)
    cam = _parse_camera(args.camera) if args.camera else default_camera()
    uv = project_pose(pose, cam)
    for kp, (u, v) in enumerate(uv):
        print(f"keypoint {kp} {u:.9g} {v:.9g}")
    return EXIT_OK


def cmd_features(args) -> int:
    topology = _topology_from(args)
    rows = ds.RowBlock.concat(block.take(block.sequence_id == args.sequence)
                              for block in ds.iter_blocks(args.data, topology))
    if not len(rows):
        raise ValueError(f"{args.data}: no records with sequence id {args.sequence}")
    cams, seq3d, seq2d = rows.take(np.argsort(rows.frame_index, kind="stable")).columns()
    streams = gan.feature_batch(seq3d[None], seq2d[None], CameraIntrinsics.from_array(cams[0]),
                                adjacent_bone_pairs(topology), video=True)
    motion = {k: streams[k][0] for k in gan.MOTION_STREAMS}
    sums = {"diff3d": motion["diff3d"].reshape(-1, 3).sum(axis=0),
            "cosdiff": motion["cosdiff"].sum(keepdims=True),
            "root2d": motion["root2d"].reshape(-1, 2).sum(axis=0)}

    def row(values):
        return " ".join(f"{v:.9g}" for v in values)

    out = ["# dhpose critic streams v1", f"frames {len(seq3d)} pairs {streams['xcos'].shape[1]}"]
    out += [f"sum {k} {row(v)}" for k, v in sums.items()]
    out += [f"{name} {t} {row(v)}" for name in gan.FRAME_STREAMS
            for t, v in enumerate(streams[name])]
    out += [f"{k} {row(v)}" for k, v in motion.items()]
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


def cmd_synth(args) -> int:
    topology = _topology_from(args)
    table = _table_from(args)
    gen = _generator_from(args, topology, table)
    mode = gen.mode
    summary = ds.synthesize_dataset(gen, args.count, mode, args.seed, args.out,
                                    fmt=args.format, batch=args.batch)
    print(f"wrote {summary.records} records to {summary.path} "
          f"({summary.violations} violations, {summary.resampled} resampled, "
          f"{summary.seconds:.2f} s)")
    return EXIT_OK if summary.violations == 0 else EXIT_DATA


def cmd_train(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = gan.TrainConfig.from_json(fh.read(), args.config)
    else:
        cfg = gan.TrainConfig(mode=args.mode, frames=args.frames if args.mode == "video" else 1,
                              epochs=args.epochs, seed=args.seed,
                              batch_size=args.batch, beta_epoch=min(4, args.epochs))
    if args.out:
        cfg.out_dir = args.out
    cfg.validate()
    topology = _topology_from(args)
    table = _table_from(args)
    if args.data:
        data = ds.real_data_from_dataset(args.data, cfg.mode, cfg.frames)
    else:
        data = ds.make_band_corpus(args.band_count, cfg.seed, topology, table,
                                   mode=cfg.mode, frames=cfg.frames)
    state = gan.init_train_state(cfg, topology, table)
    out_dir = cfg.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    # the bits of a run depend on BLAS's thread count (see dhpose.__main__)
    blas_threads = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    with open(metrics_path, "a") as log:
        for _ in range(cfg.epochs):
            metrics = gan.train_epoch(state, data, synth_dir=out_dir)
            metrics["blas_threads"] = blas_threads
            log.write(json.dumps(metrics) + "\n")
            log.flush()
            print(f"epoch {metrics['epoch']}: gamma={metrics['gamma']} "
                  f"d_gap={metrics['d_gap']:.4f} penalty={metrics['penalty']:.4f} "
                  f"violations={metrics['violations']}")
    gan.save_generator(state.gen, os.path.join(out_dir, "gen.ckpt"), cfg.seed,
                       {"blas_threads": json.dumps(blas_threads, separators=(",", ":"))})
    print(f"metrics: {metrics_path}; checkpoint: {os.path.join(out_dir, 'gen.ckpt')}")
    return EXIT_OK


def cmd_export_video(args) -> int:
    topology = _topology_from(args)
    table = _table_from(args)
    if args.checkpoint:
        gen = gan.load_generator(args.checkpoint, topology, table)
        if gen.mode != "video":
            raise ValueError("checkpoint is a single-frame model; video export needs sequences")
    else:
        gen = _untrained_generator(args.seed, "video", args.frames, topology, table)
    z = gan.sample_latent(1, gen.net.in_dim, np.random.default_rng(args.seed))
    out = gan.generate(gen, z)
    ds.export_skeleton_video(out.pose3d[0], args.out, topology)
    print(f"wrote {out.pose3d.shape[1]}-frame skeleton video to {args.out}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    failures = []

    def check(name, fn):
        try:
            fn()
            print(f"ok - {name}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures.append(name)
            print(f"FAIL - {name}: {exc}")

    topology = _topology_from(args)
    table = _table_from(args)
    rng = np.random.default_rng(args.seed)

    def naive_fk(params, globals_):
        kps = np.zeros((topology.keypoint_count, 3))
        for bi, br in enumerate(topology.branches):
            rows = []
            for r, row in enumerate(br.rows):
                # a plain record: a resolved link length may be negative, which DhRow rejects
                dh = {f: getattr(row, f) for f in ("a", "d", "alpha", "theta")}
                for f in ("a", "d", "theta"):
                    if (bi, r, f) in topology.param_index:
                        dh[f] += params[topology.param_index[(bi, r, f)]]
                rows.append(SimpleNamespace(**dh))
            frames = sk.compose_chain(rows)
            for row_idx, kp in br.keypoint_map:
                kps[kp] = frames[row_idx][:3, 3]
        return kps @ sk.rotation_xyz(*globals_[:3]).T + globals_[3:]

    def t_rest():
        ref = sk.default_rest_pose()
        got = sk.rest_pose(topology)
        assert np.max(np.abs(got - ref)) < 1e-9, "rest pose differs from the shipped file"

    def t_fk_oracle():
        p = rng.uniform(-1, 1, (100, 48))
        g = rng.uniform(-1, 1, (100, 6))
        fast = sk.forward_kinematics_batch(topology, p, g)
        for i in range(100):
            assert np.max(np.abs(fast[i] - naive_fk(p[i], g[i]))) < 1e-9

    def t_rigidity():
        p = rng.uniform(-1, 1, (100, 48))
        p[:, 33:] = 0.0
        g = np.zeros((100, 6))
        poses = sk.forward_kinematics_batch(topology, p, g)
        lengths = sk.bone_lengths(topology, poses)
        assert np.max(np.abs(lengths - lengths[0])) < 1e-9, "bone lengths drifted"

    def t_squash():
        raw = rng.standard_normal((10000, 48))
        sq = ct.squash_params(raw, table)
        assert ct.count_violations(sq, table) == 0

    def t_telescoping():
        seq = rng.normal(size=(7, 16, 3))
        streams = gan.feature_batch(seq[None], rng.normal(size=(1, 7, 16, 2)), default_camera(),
                                    adjacent_bone_pairs(topology), video=True)
        total = streams["diff3d"].reshape(-1, 3).sum(axis=0)
        brute = sum(seq[t, i] - seq[t - 1, i] for t in range(1, 7) for i in range(16))
        assert np.max(np.abs(total - brute)) < 1e-12

    def t_gradcheck():
        from . import autodiff as ad
        from . import nn
        net = nn.mlp_init([4, 8, 1], ["tanh", "linear"], np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 4))
        tape = ad.Tape()
        leaves = nn.mlp_leaves(tape, net)
        out = ad.mean(nn.mlp_apply(net, tape.const(x), tape, leaves)[0])
        ad.backward(tape, out)
        w = net.layers[0].w
        h = 1e-6
        w2 = w.copy()
        w2[0, 0] += h
        net2 = nn.Mlp([nn.LayerSpec(w2, net.layers[0].b, "tanh"), net.layers[1]])
        w3 = w.copy()
        w3[0, 0] -= h
        net3 = nn.Mlp([nn.LayerSpec(w3, net.layers[0].b, "tanh"), net.layers[1]])
        fd = (nn.mlp_eval(net2, x).mean() - nn.mlp_eval(net3, x).mean()) / (2 * h)
        got = leaves[0][0].grad[0, 0]
        assert abs(fd - got) < 1e-5 * max(1.0, abs(fd))

    def t_synth_determinism():
        with tempfile.TemporaryDirectory() as tmp:
            gen = _untrained_generator(args.seed, "single", 1, topology, table)
            p1 = os.path.join(tmp, "a.txt")
            p2 = os.path.join(tmp, "b.txt")
            ds.synthesize_dataset(gen, 200, "single", args.seed, p1)
            ds.synthesize_dataset(gen, 200, "single", args.seed, p2)
            assert open(p1, "rb").read() == open(p2, "rb").read(), "files differ"
            cams, pose3d, pose2d = ds.load_dataset(p1, topology).columns()
            assert np.all(cams == gen.camera.as_array()), "camera rows differ"
            uv = project_pose(pose3d, gen.camera)
            assert np.max(np.abs(uv - pose2d)) < 1e-6, "projection inconsistency"

    check("rest pose matches shipped file", t_rest)
    check("forward kinematics vs naive oracle", t_fk_oracle)
    check("bone-length invariance", t_rigidity)
    check("constraint squash soundness", t_squash)
    check("trajectory telescoping", t_telescoping)
    check("autodiff finite-difference spot check", t_gradcheck)
    check("synthesis determinism and projection consistency", t_synth_determinism)
    return EXIT_OK if not failures else EXIT_DATA


def build_parser() -> _Parser:
    parser = _Parser(prog="dhpose", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--config", default=None, help="JSON training config")
    common.add_argument("--topology", default=None, help="topology table file")
    common.add_argument("--constraints", default=None, help="constraint table file")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("fk", parents=[common], help="forward kinematics of a parameter file")
    p.add_argument("--params", default=None, help="48 deltas (degrees/meters); zeros if omitted")
    p.add_argument("--transform", default=None, help="global rx,ry,rz (deg), tx,ty,tz (m)")
    p.set_defaults(fn=cmd_fk)

    p = sub.add_parser("validate", parents=[common], help="check a parameter file against bounds")
    p.add_argument("--params", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("project", parents=[common], help="project a pose file to pixels")
    p.add_argument("--pose", required=True, help="keypoint file as written by fk")
    p.add_argument("--camera", default=None, help="fx,fy,cx,cy,z_min")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("features", parents=[common], help="dump critic features of a sequence")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--sequence", type=int, default=0)
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("synth", parents=[common], help="synthesize a 2D-3D pair dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("single", "video"), default="single")
    p.add_argument("--frames", type=int, default=9)
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--batch", type=int, default=2048)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", parents=[common], help="adversarial training")
    p.add_argument("--data", default=None, help="dataset file; stand-in corpus if omitted")
    p.add_argument("--band-count", type=int, default=256)
    p.add_argument("--mode", choices=("single", "video"), default="single")
    p.add_argument("--frames", type=int, default=9)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("export-video", parents=[common], help="write a skeleton video file")
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=9)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(fn=cmd_export_video)

    p = sub.add_parser("selftest", parents=[common], help="run the built-in oracle checks")
    p.set_defaults(fn=cmd_selftest)
    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not getattr(args, "fn", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (ValueError, OSError, DepthViolationError, gan.TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
