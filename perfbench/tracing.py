"""Spans around the public functions of each dhpose layer, recorded from outside.

A wrapper replaces a function on the module attribute its caller looks the
name up through (``gan.forward_kinematics_batch``, ``nn.adam_step``,
``ad.backward``, ...).  The wrappers are installed only while a traced phase
runs and are removed afterwards, so untraced code runs the original
functions.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from dhpose import autodiff, camera, dataset, gan, nn

# The eight layers a span name can start with; anything else is the
# benchmark's own bookkeeping.
LAYERS = ("skeleton", "constraints", "camera", "features", "autodiff", "nn", "gan", "dataset")

ROOT = "perfbench.phase"   # one timed phase of an operation
WALK = "perfbench.tape_walk"  # the benchmark reading tape sizes; not program work


def _synth_name(args, kwargs) -> str:
    fmt = kwargs.get("fmt", args[5] if len(args) > 5 else "text")
    return f"dataset.synthesize.{fmt}"


# (module, attribute, span name).  A name may be a function of the call's
# arguments.  Each attribute is the one the caller resolves at call time:
# gan imports forward_kinematics_batch, count_violations and joint_cosines by
# name; gan.generate imports camera.project_pose inside the function; train_epoch
# imports dataset.synthesize_dataset inside the function.
TARGETS = (
    (gan, "forward_kinematics_batch", "skeleton.fk"),
    (gan, "_fk_tape", "gan.fk_tape"),
    (gan, "_split_raw", "constraints.squash"),
    (gan, "count_violations", "constraints.count_violations"),
    (dataset, "count_violations", "constraints.count_violations"),
    (camera, "project_pose", "camera.project"),
    (dataset, "project_pose", "camera.project"),
    (gan, "joint_cosines", "features.joint_cosines"),
    (gan, "frame_streams", "gan.frame_streams"),
    (gan, "motion_streams", "gan.motion_streams"),
    (nn, "mlp_eval", "nn.mlp_eval"),
    (nn, "mlp_apply", "nn.mlp_apply"),
    (nn, "mlp_vjp", "nn.mlp_vjp"),
    (nn, "adam_step", "nn.adam_step"),
    (autodiff, "backward", "autodiff.backward"),
    (gan, "generate_poses", "gan.generate_poses"),
    (gan, "generate_on_tape", "gan.generate_on_tape"),
    (gan, "frame_score", "gan.frame_score"),
    (gan, "frame_penalty", "gan.frame_penalty"),
    (gan, "motion_score", "gan.motion_score"),
    (gan, "motion_penalty", "gan.motion_penalty"),
    (gan, "critic_loss", "gan.critic_loss"),
    (gan, "critic_update", "gan.critic_update"),
    (gan, "generator_update", "gan.generator_update"),
    (gan, "train_epoch", "gan.train_epoch"),
    (dataset, "synthesize_dataset", _synth_name),
    (dataset, "real_data_from_dataset", "dataset.load_text"),
)

SPAN_NAMES = (
    "skeleton.fk", "gan.fk_tape", "constraints.squash", "constraints.count_violations",
    "camera.project", "features.joint_cosines", "gan.frame_streams", "gan.motion_streams",
    "nn.mlp_eval", "nn.mlp_apply", "nn.mlp_vjp", "nn.adam_step", "autodiff.backward",
    "gan.generate_poses", "gan.generate_on_tape", "gan.frame_score", "gan.frame_penalty",
    "gan.motion_score", "gan.motion_penalty", "gan.critic_loss", "gan.critic_update",
    "gan.generator_update", "gan.train_epoch", "dataset.synthesize.text",
    "dataset.synthesize.binary", "dataset.load_text",
)


class Tracer:
    """Span and count recorder for the traced phases of one run."""

    def __init__(self):
        self.spans: list = []       # [name, start_ns, end_ns, parent index or -1]
        self._stack: list[int] = []
        self._saved: list = []
        self.poses = 0
        self.tape_nodes_max = 0
        self.tape_bytes_max = 0
        self.synth_records = 0
        self.synth_resampled = 0
        self.bytes_written = 0
        self.bytes_read = 0

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._count(fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, args, kwargs, result) -> None:
        name = fn.__name__
        if name == "forward_kinematics_batch":
            self.poses += len(args[1])
        elif name == "backward":
            idx = self._open(WALK)
            self._measure_tape(args[0])
            self._close(idx)
        elif name == "synthesize_dataset":
            self.synth_records += result.records
            self.synth_resampled += result.resampled
            self.bytes_written += os.path.getsize(result.path)
        elif name == "real_data_from_dataset":
            self.bytes_read += os.path.getsize(args[0])

    def _measure_tape(self, tape) -> None:
        # bytes of the arrays the tape's nodes own; views share their base's memory
        total = 0
        for node in tape.nodes:
            for arr in (node.values, node.grad):
                if arr is not None and arr.flags.owndata:
                    total += arr.nbytes
        self.tape_nodes_max = max(self.tape_nodes_max, len(tape.nodes))
        self.tape_bytes_max = max(self.tape_bytes_max, total)

    @contextmanager
    def phase(self):
        """Install the wrappers and record one root span around the block."""
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)
            while self._saved:
                module, attr, fn = self._saved.pop()
                setattr(module, attr, fn)

    def self_times_ns(self) -> list[int]:
        """Per span: its duration minus the time its direct children cover."""
        self_ns = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        return self_ns

    def summary(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit) per traced operation, plus layer shares of wall time."""
        incl = defaultdict(int)
        excl = defaultdict(int)
        calls = defaultdict(int)
        for (name, start, end, _), own in zip(self.spans, self.self_times_ns()):
            incl[name] += end - start
            excl[name] += own
            calls[name] += 1
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = (incl[name] / 1e9 / ops, "s")
            out[f"{name}.self_s"] = (excl[name] / 1e9 / ops, "s")
            out[f"{name}.calls"] = (calls[name] / ops, "count")
        # program wall time: the timed phases, less the benchmark's tape walks
        wall = incl[ROOT] - incl[WALK]
        for layer in LAYERS:
            share = sum(v for k, v in excl.items() if k.split(".", 1)[0] == layer)
            out[f"share.{layer}"] = (share / wall, "fraction")
        out["share.unattributed"] = (excl[ROOT] / wall, "fraction")
        attempts = self.synth_records + self.synth_resampled
        out.update({
            "skeleton.fk.poses": (self.poses / ops, "count"),
            "autodiff.tape_nodes.max": (self.tape_nodes_max, "count"),
            "autodiff.tape_mb.max": (self.tape_bytes_max / 2 ** 20, "MB"),
            "dataset.bytes_written": (self.bytes_written / ops, "bytes"),
            "dataset.bytes_read": (self.bytes_read / ops, "bytes"),
            "dataset.synth_accept_ratio": (self.synth_records / attempts if attempts else 0.0,
                                           "fraction"),
        })
        return out

    def write(self, path, header: dict) -> None:
        """JSON lines: a header, then one span per line with its parent's id."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
