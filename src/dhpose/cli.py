"""Command-line surface.

Subcommands: fk, validate, project, features, synth, train, export-video.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import constraints as ct
from . import dataset as ds
from . import gan
from . import skeleton as sk
from .__main__ import BLAS_THREAD_VARS
from .camera import CameraIntrinsics, DepthViolationError, default_camera, project_pose
from .features import adjacent_bone_pairs
from .textio import ParseError, Record, records

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


def _option_numbers(option: str, spec: str, count: int) -> list[float]:
    """``count`` comma-separated numbers of ``option``, by the number rule of
    the file readers (``textio.Record.fields``); a bad one raises ParseError
    naming the option."""
    return Record(option, None, [t.strip() for t in spec.split(",")]).fields(*[float] * count)


def _parse_camera(spec: str) -> CameraIntrinsics:
    return CameraIntrinsics.from_array(_option_numbers("--camera", spec, 5))


def _parse_global(spec: str) -> sk.GlobalTransform:
    parts = _option_numbers("--transform", spec, 6)
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
    ds.check_mode(mode, frames)
    cfg = gan.TrainConfig(mode=mode, frames=frames, seed=seed)
    return gan.build_generator(cfg, np.random.default_rng(seed), topology, table)


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
                                adjacent_bone_pairs(topology))
    motion = {k: streams[k][0] for k in gan.MOTION_STREAMS if k in streams}  # none at 1 frame
    sums = {"diff3d": motion["diff3d"].reshape(-1, 3).sum(axis=0),
            "cosdiff": motion["cosdiff"].sum(keepdims=True),
            "root2d": motion["root2d"].reshape(-1, 2).sum(axis=0)} if motion else {}

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
    if args.checkpoint:
        gen = gan.load_generator(args.checkpoint, topology, table)
    else:
        gen = _untrained_generator(args.seed, args.mode, args.frames, topology, table)
    summary = ds.synthesize_dataset(gen, args.count, gen.mode, args.seed, args.out,
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
        cfg = gan.TrainConfig(mode=args.mode, frames=args.frames, epochs=args.epochs,
                              seed=args.seed, batch_size=args.batch,
                              beta_epoch=min(4, args.epochs))
    cfg.validate()
    topology = _topology_from(args)
    table = _table_from(args)
    if args.data:
        data = ds.real_data_from_dataset(args.data, cfg.frames)
    else:
        data = ds.make_band_corpus(args.band_count, cfg.seed, topology, table,
                                   mode=cfg.mode, frames=cfg.frames)
    state = gan.init_train_state(cfg, topology, table)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    # the bits of a run depend on BLAS's thread count (see dhpose.__main__)
    blas_threads = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    with open(metrics_path, "a") as log:
        for _ in range(cfg.epochs):
            try:
                metrics = gan.train_epoch(state, data, synth_dir=out_dir)
            except gan.TrainingDivergedError as exc:
                with open(os.path.join(out_dir, "diverged.json"), "w") as fh:
                    json.dump(exc.snapshot, fh, indent=2)
                raise
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
        if gen.frames < 2:
            raise ValueError("checkpoint is a single-frame model; video export needs sequences")
    else:
        gen = _untrained_generator(args.seed, "video", args.frames, topology, table)
    z = gan.sample_latent(1, gen.net.in_dim, np.random.default_rng(args.seed))
    out = gan.generate(gen, z)
    ds.export_skeleton_video(out.pose3d[0], args.out, topology)
    print(f"wrote {out.pose3d.shape[1]}-frame skeleton video to {args.out}")
    return EXIT_OK


# Per subcommand: each option that fixes others, and their defaults without
# it.  Given both, the fixed option would be ignored: that is a usage error.
_FIXED_BY = {"train": [("config", dict(mode="single", frames=None, epochs=2,
                                        batch=gan.TrainConfig.batch_size, seed=0)),
                       ("data", dict(band_count=256))],
             "synth": [("checkpoint", dict(mode="single", frames=None))],
             "export-video": [("checkpoint", dict(frames=None))]}


def build_parser() -> _Parser:
    """Each subcommand takes only the options it reads."""
    parser = _Parser(prog="dhpose", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def command(name, fn, summary, *, topology=True, constraints=False):
        p = sub.add_parser(name, help=summary)
        if topology:
            p.add_argument("--topology", default=None, help="topology table file")
        if constraints:
            p.add_argument("--constraints", default=None, help="constraint table file")
        p.set_defaults(fn=fn)
        return p

    p = command("fk", cmd_fk, "forward kinematics of a parameter file")
    p.add_argument("--params", default=None, help="48 deltas (degrees/meters); zeros if omitted")
    p.add_argument("--transform", default=None, help="global rx,ry,rz (deg), tx,ty,tz (m)")

    p = command("validate", cmd_validate, "check a parameter file against bounds",
                constraints=True)
    p.add_argument("--params", required=True)

    p = command("project", cmd_project, "project a pose file to pixels", topology=False)
    p.add_argument("--pose", required=True, help="keypoint file as written by fk")
    p.add_argument("--camera", default=None, help="fx,fy,cx,cy,z_min")

    p = command("features", cmd_features, "dump critic features of a sequence")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--sequence", type=int, default=0)

    p = command("synth", cmd_synth, "synthesize a 2D-3D pair dataset", constraints=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("single", "video"), default=None)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--batch", type=int, default=2048)
    p.add_argument("--checkpoint", default=None)

    p = command("train", cmd_train, "adversarial training", constraints=True)
    p.add_argument("--config", default=None, help="JSON training config")
    p.add_argument("--data", default=None, help="dataset file; stand-in corpus if omitted")
    p.add_argument("--band-count", type=int, default=None)
    p.add_argument("--mode", choices=("single", "video"), default=None)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = command("export-video", cmd_export_video, "write a skeleton video file",
                constraints=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--checkpoint", default=None)

    return parser


def _parse(parser: _Parser, argv) -> argparse.Namespace:
    """Parse ``argv``, then reject an option given with the one that fixes it
    (``_FIXED_BY``), fill in the defaults of the others and resolve T."""
    args = parser.parse_args(argv)
    for owner, defaults in _FIXED_BY.get(args.command, []):
        given = [f"--{name.replace('_', '-')}" for name in defaults
                 if getattr(args, name) is not None]
        if given and getattr(args, owner):
            parser.error(f"{', '.join(given)} cannot be combined with --{owner}, which fixes "
                         f"{'it' if len(given) == 1 else 'them'}")
        for name, value in defaults.items():
            if getattr(args, name) is None:
                setattr(args, name, value)
    if "frames" in vars(args):
        try:
            args.frames = ds.resolve_frames(getattr(args, "mode", "video"), args.frames)
        except ValueError as exc:
            parser.error(f"--frames: {exc}")
    return args


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = _parse(parser, argv)
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
