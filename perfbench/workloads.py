"""The two benchmark workloads, driving dhpose's public API as its CLI does.

Each workload has:

- ``build``: builds the state from the seed; returns a fingerprint of it,
  equal for equal seeds, in this process or another.
- ``warm_up``: the untimed operations that come before the first measured
  one; returns their failed output checks.
- ``op``: one measured operation.  Returns its failed output checks, its
  phase rates as ``{name: (work, seconds)}``, and the times of its parts as
  ``{part: [seconds, ...]}``.  A step is ``STEP_PARTS[part]`` of each part
  and consumes ``step_samples`` samples; ``samples_per_s`` is read from
  each operation's parts at their fastest, against the ``REFERENCE`` kernel.
- ``replay``: after the measured operations, the first of them run again
  from a same-seed state, to show that same-seed runs agree bitwise.

Failed output checks are lists of messages.  Only the blocks inside
``clock.phase(...)`` are timed; the checks run outside them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import os
import pickle
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from dhpose import dataset, gan

PROJECTION_TOL_PX = 1e-6


class Clock:
    """Times the measured phases of one operation, traced when a tracer is given."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            with self.tracer.phase() if self.tracer else nullcontext():
                yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class _StatePickler(pickle.Pickler):
    """Pickles a dataclass without the fields its equality ignores, such as
    the FK cache a topology fills on first use."""

    def reducer_override(self, obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return type(obj), tuple(getattr(obj, f.name) for f in dataclasses.fields(obj)
                                    if f.compare)
        return NotImplemented


def _object_digest(obj) -> str:
    buf = io.BytesIO()
    _StatePickler(buf).dump(obj)
    return hashlib.sha256(buf.getvalue()).hexdigest()


# --------------------------------------------------------------------------
# Training

class TrainWorkload:
    """Video-mode epochs of ``gan.train_epoch`` with end-of-epoch synthesis, as ``dhpose train``.

    The sizes are ``dhpose train``'s defaults (``--band-count 256 --batch 64``,
    so four generator steps an epoch) in video mode with T=9.  One operation
    is one epoch.  ``beta_epoch`` is 1, its least value: the warm-up epoch 0
    runs without the motion critic, and every measured epoch runs with it.
    A step is one generator step: ``critic_steps`` critic parts (a
    minibatch draw, which generates the fakes, and a critic update), then
    one generator part (the generator update); it consumes batch x critic
    steps sequences.  The parts are timed by marking each return from
    ``gan.critic_update`` and ``gan.generator_update``.
    """

    STEP_PARTS = {"critic": 5, "generator": 1}
    REFERENCE = "blas"  # the kind of reference kernel whose speed tracks this workload's

    def __init__(self, seed: int, workdir: str, quick: bool):
        self.cfg_args = dict(mode="video", frames=9, batch_size=4 if quick else 64,
                             critic_steps=5, seed=seed, epochs=1_000_000, beta_epoch=1)
        self.count = 8 if quick else 256
        self.step_samples = self.cfg_args["batch_size"] * self.cfg_args["critic_steps"]
        self.seed = seed
        self.workdir = workdir
        self.state = None
        self.data = None
        self.snapshot = None  # the pickled state before the first measured epoch
        self.first = None  # fingerprint of the first measured epoch

    def build(self, clock: Clock) -> str:
        with clock.phase("build"):
            cfg = gan.TrainConfig(**self.cfg_args)
            cfg.validate()
            self.data = dataset.make_band_corpus(self.count, self.seed, mode=cfg.mode,
                                                 frames=cfg.frames)
            self.state = gan.init_train_state(cfg)
        return _object_digest((self.data, self.state))

    def warm_up(self) -> list[str]:
        return self._epoch(Clock())[0]

    def op(self, clock: Clock):
        if self.snapshot is None:
            self.snapshot = pickle.dumps(self.state)
        failures, metrics, marks = self._epoch(clock)
        if metrics is None:
            return failures, {}, {}
        if self.first is None:
            self.first = self._epoch_fingerprint(metrics)
        work = (self.step_samples * metrics["steps"], clock.seconds["train"])
        parts = {"critic": [], "generator": []}
        for (_, start), (part, end) in zip(marks, marks[1:]):
            parts[part].append(end - start)
        return failures, {"train_samples_per_s": work}, parts

    def replay(self) -> list[str]:
        """Run the first measured epoch again from the state saved before it."""
        self.state = None  # the measured state's memory is not needed any more
        self.state = pickle.loads(self.snapshot)
        self.workdir = os.path.join(self.workdir, "replay")
        failures, metrics, _ = self._epoch(Clock())
        if metrics is not None and self._epoch_fingerprint(metrics) != self.first:
            failures.append(f"epoch {metrics['epoch']} differs when run again from the same state")
        return failures

    @staticmethod
    def _epoch_fingerprint(metrics: dict):
        fields = sorted((k, v) for k, v in metrics.items() if k != "synth_path")
        return repr(fields), _digest(metrics["synth_path"])

    def _epoch(self, clock: Clock) -> tuple[list[str], dict | None, list]:
        """One epoch: its failed checks, its metrics, and its marks: the time
        it started, then the part and time of each update's return."""
        marks = []
        originals = {"critic": gan.critic_update, "generator": gan.generator_update}

        def marked(part, update):
            def run(*args, **kwargs):
                result = update(*args, **kwargs)
                marks.append((part, time.perf_counter()))
                return result
            return run

        gan.critic_update = marked("critic", originals["critic"])
        gan.generator_update = marked("generator", originals["generator"])
        try:
            with clock.phase("train"):
                marks.append(("start", time.perf_counter()))
                metrics = gan.train_epoch(self.state, self.data, synth_dir=self.workdir)
        except gan.TrainingDivergedError as exc:
            return [f"training diverged: {exc}"], None, []
        finally:
            gan.critic_update = originals["critic"]
            gan.generator_update = originals["generator"]
        failures = []
        for key in ("d_gap", "penalty", "gen_loss", "motion_gap", "motion_penalty"):
            if not math.isfinite(metrics[key]):
                failures.append(f"epoch {metrics['epoch']}: {key} = {metrics[key]}")
        if metrics["violations"] != 0:
            failures.append(f"epoch {metrics['epoch']}: {metrics['violations']} violations")
        return failures, metrics, marks


# --------------------------------------------------------------------------
# Synthesis and reload

def _parse_text(path) -> np.ndarray:
    """The numeric fields of a text dataset, parsed independently of dhpose."""
    return np.loadtxt(path, skiprows=1, usecols=range(3, 88), ndmin=2)


def _binary_rows(path, count: int) -> np.ndarray:
    with open(path, "rb") as fh:
        fh.readline()
        fh.readline()
        return np.frombuffer(fh.read(), dtype="<f4").reshape(count, 88)


class SynthWorkload:
    """``synthesize_dataset`` to binary and to text, then the ``train --data`` reload.

    One operation, and its one step, is one cycle over ``count`` records:
    write binary, write text, reload the text through
    ``real_data_from_dataset``; these are the step's three parts.  Each
    cycle draws its latents from its own seed, derived from the workload
    seed.
    """

    STEP_PARTS = {"binary": 1, "text": 1, "load": 1}
    REFERENCE = "text"

    def __init__(self, seed: int, workdir: str, quick: bool):
        self.seed = seed
        self.count = 256 if quick else 4096
        self.step_samples = self.count
        self.workdir = workdir
        self.gen = None
        self.cycle = 0
        self.first = None  # file digests of the first measured cycle

    def _cycle_seed(self, cycle: int) -> int:
        return int(np.random.SeedSequence([self.seed, cycle]).generate_state(1)[0])

    def _paths(self) -> tuple[str, str]:
        return (os.path.join(self.workdir, "synth.bin"), os.path.join(self.workdir, "synth.txt"))

    def _build(self) -> None:
        cfg = gan.TrainConfig(mode="single", frames=1, seed=self.seed)
        self.gen = gan.build_generator(cfg, np.random.default_rng(self.seed))

    def build(self, clock: Clock) -> str:
        with clock.phase("build"):
            self._build()
        return _object_digest(self.gen)

    def warm_up(self) -> list[str]:
        return []

    def op(self, clock: Clock):
        self.cycle += 1
        failures = self._cycle(clock, self.cycle)
        if self.first is None:
            self.first = tuple(map(_digest, self._paths()))
        n, s = self.count, clock.seconds
        return failures, {
            "synth_binary_rec_per_s": (n, s["binary"]),
            "synth_text_rec_per_s": (n, s["text"]),
            "load_text_rec_per_s": (n, s["load"]),
        }, {part: [s[part]] for part in self.STEP_PARTS}

    def replay(self) -> list[str]:
        """Write the first measured cycle again with a generator built anew from the seed."""
        self._build()
        self.workdir = os.path.join(self.workdir, "replay")
        os.makedirs(self.workdir, exist_ok=True)
        failures = self._cycle(Clock(), 1)
        if tuple(map(_digest, self._paths())) != self.first:
            failures.append("cycle 1 writes different files when run again from the same seed")
        return failures

    def _cycle(self, clock: Clock, cycle: int) -> list[str]:
        seed, n = self._cycle_seed(cycle), self.count
        bin_path, text_path = self._paths()
        with clock.phase("binary"):
            s_bin = dataset.synthesize_dataset(self.gen, n, "single", seed, bin_path,
                                               fmt="binary")
        with clock.phase("text"):
            s_text = dataset.synthesize_dataset(self.gen, n, "single", seed, text_path,
                                                fmt="text")
        try:
            with clock.phase("load"):
                data = dataset.real_data_from_dataset(text_path)
        except ValueError as exc:  # DatasetParseError is a ValueError
            return [f"cycle {cycle}: reload failed: {exc}"]
        return self._check(cycle, s_bin, s_text, data)

    def _check(self, cycle, s_bin, s_text, data) -> list[str]:
        failures = []
        tag = f"cycle {cycle}"
        bin_path, text_path = self._paths()
        for fmt, summary in (("binary", s_bin), ("text", s_text)):
            if summary.violations != 0:
                failures.append(f"{tag}: {fmt} synthesis reports {summary.violations} violations")
            if summary.records != self.count:
                failures.append(f"{tag}: {fmt} synthesis wrote {summary.records} records")
        if len(data) != self.count:
            return failures + [f"{tag}: reloaded {len(data)} records, wrote {self.count}"]
        fields = _parse_text(text_path)
        # the loader returns exactly the values the file holds
        if not (np.array_equal(data.cams, fields[:, 0:5])
                and np.array_equal(data.pose3d.reshape(-1, 48), fields[:, 5:53])
                and np.array_equal(data.pose2d.reshape(-1, 32), fields[:, 53:85])):
            failures.append(f"{tag}: reloaded arrays differ from the text file")
        # 2D poses agree with the written 3D poses re-projected by the pinhole model
        fx, fy, cx, cy = (data.cams[:, i:i + 1] for i in range(4))
        p3 = data.pose3d
        u = fx * p3[..., 0] / p3[..., 2] + cx
        v = fy * p3[..., 1] / p3[..., 2] + cy
        err = max(np.max(np.abs(u - data.pose2d[..., 0])), np.max(np.abs(v - data.pose2d[..., 1])))
        if not err <= PROJECTION_TOL_PX:
            failures.append(f"{tag}: 2D/3D projection differs by {err:.3g} px")
        # the binary file holds the same records, rounded to float32
        rows = _binary_rows(bin_path, self.count).astype(np.float64)
        text32 = fields.astype(np.float32).astype(np.float64)
        ulp = np.spacing(np.abs(text32).astype(np.float32)).astype(np.float64)
        if not (np.all(rows[:, 0] == 1.0) and np.array_equal(rows[:, 1], np.arange(self.count))
                and np.all(np.abs(rows[:, 3:] - text32) <= ulp)):
            failures.append(f"{tag}: binary and text datasets disagree")
        return failures
