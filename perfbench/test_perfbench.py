"""Tests of the benchmark itself: metric names and units, span arithmetic,
and that the output checks catch a corrupted result.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Clock, SynthWorkload, TrainWorkload  # noqa: E402

from dhpose import dataset, gan  # noqa: E402


def _run(workload: str, trace: int, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "9001",
                           "--seconds", "0.5", "--trace", str(trace), "--quick"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_emits_every_metric_with_its_unit(workload, trace, section):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0.0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("synth-io", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_times_are_non_negative_and_fit_in_wall_time(tmp_path):
    tracer = Tracer()
    wl = TrainWorkload(3, str(tmp_path), quick=True)
    wl.build(Clock())
    assert wl.warm_up() == []
    generator_update = gan.generator_update
    clock = Clock(tracer)
    failures, _, parts = wl.op(clock)
    assert failures == []
    # two generator steps of five critic updates each
    assert {k: len(v) for k, v in parts.items()} == {"critic": 10, "generator": 2}
    assert all(t > 0 for times in parts.values() for t in times)
    self_ns = tracer.self_times_ns()
    assert min(self_ns) >= 0
    wall_ns = sum(end - start for name, start, end, parent in tracer.spans if parent < 0)
    assert sum(self_ns) == wall_ns
    assert wall_ns <= clock.seconds["train"] * 1e9
    shares = tracer.summary(1)
    assert sum(v for k, (v, _) in shares.items() if k.startswith("share.")) <= 1.0 + 1e-9
    assert shares["gan.motion_streams.calls"][0] > 0
    assert shares["autodiff.tape_nodes.max"][0] > 0
    # wrappers are gone once the phase ends
    assert not hasattr(gan.train_epoch, "__wrapped__")
    assert gan.generator_update is generator_update


def _flip_digit_in_text_output(monkeypatch, only_seed=None):
    """Corrupt every text file synthesis writes, or only those it writes from ``only_seed``."""
    original = dataset.synthesize_dataset

    def corrupting(gen, count, mode, seed, path, fmt="text", batch=2048):
        summary = original(gen, count, mode, seed, path, fmt=fmt, batch=batch)
        if fmt == "text" and only_seed in (None, seed):
            raw = bytearray(Path(path).read_bytes())
            # the first decimal of a value inside the first record's 3D pose; a
            # flip in the 13th significant digit would be within float32 and
            # projection tolerance, so no check could tell it from rounding
            pos = raw.index(b".", raw.index(b"\n") + 200) + 1
            raw[pos] = ord("1") if raw[pos] != ord("1") else ord("2")
            Path(path).write_bytes(bytes(raw))
        return summary

    monkeypatch.setattr(dataset, "synthesize_dataset", corrupting)


def test_flipped_byte_in_the_text_file_is_a_failure(tmp_path, monkeypatch):
    wl = SynthWorkload(5, str(tmp_path), quick=True)
    wl.build(Clock())
    assert wl.op(Clock())[0] == []
    _flip_digit_in_text_output(monkeypatch)
    failures, _, _ = wl.op(Clock())
    assert failures


def test_corrupted_run_reports_a_nonzero_error_rate(tmp_path, monkeypatch):
    # corrupt the first measured cycle, and its replay the same way
    _flip_digit_in_text_output(monkeypatch, only_seed=SynthWorkload(4, "", True)._cycle_seed(1))
    args = run.parse_args(["--workload", "synth-io", "--seed", "4", "--seconds", "0.2",
                           "--trace", "1", "--quick"])
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    counter, metrics = run.run(args, str(tmp_path), {})
    assert counter.failed == 2  # cycle 1 and its replay
    assert metrics["error_rate"]["value"] > 0


def test_run_that_fails_every_operation_ends_with_failures(tmp_path, monkeypatch):
    _flip_digit_in_text_output(monkeypatch)
    args = run.parse_args(["--workload", "synth-io", "--seed", "4", "--seconds", "0.5",
                           "--trace", "0", "--quick"])
    counter, metrics = run.run(args, str(tmp_path), {})
    assert counter.failed >= run.MIN_OPS  # every operation
    assert metrics == {}


def test_replay_catches_a_run_that_is_not_repeatable(tmp_path, monkeypatch):
    wl = TrainWorkload(6, str(tmp_path), quick=True)
    wl.build(Clock())
    assert wl.warm_up() == []
    assert wl.op(Clock())[0] == []
    original = gan.train_epoch

    def drifting(state, data, synth_dir=None):
        metrics = original(state, data, synth_dir=synth_dir)
        return {**metrics, "d_gap": metrics["d_gap"] + 1e-12}

    monkeypatch.setattr(gan, "train_epoch", drifting)
    assert wl.replay()


def test_constraint_violation_in_training_is_a_failure(tmp_path, monkeypatch):
    original = gan.train_epoch

    def violating(state, data, synth_dir=None):
        metrics = original(state, data, synth_dir=synth_dir)
        return {**metrics, "violations": 1}

    wl = TrainWorkload(2, str(tmp_path), quick=True)
    wl.build(Clock())
    assert wl.warm_up() == []
    monkeypatch.setattr(gan, "train_epoch", violating)
    failures, _, _ = wl.op(Clock())
    assert failures


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_fresh_process_builds_the_same_state(tmp_path, workload):
    args = run.parse_args(["--workload", workload, "--seed", "12", "--seconds", "0", "--quick"])
    fingerprint = run.make_workload(args, str(tmp_path)).build(Clock())
    failures, sample = run.setup_sample(args, fingerprint)
    assert failures == [] and min(sample) > 0  # set-up and reference kernel seconds
    failures, sample = run.setup_sample(args, "another state")
    assert failures and sample is None
