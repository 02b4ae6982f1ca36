"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload train-video --seed 1 --seconds 45 --trace 0

Run from the repository root.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("train-video", "synth-io")
# Set-ups timed in a run: this process's own, and fresh processes that only
# import and build, started one after another before the warm-up, while this
# process is still small.
SETUP_SAMPLES = 8
# Operations every run makes, however short --seconds is.  peak_rss_mb is
# read after exactly this many, so that it does not depend on how many
# operations the machine's speed let into the run.
MIN_OPS = 3
# One BLAS thread: the matrices are small, and on a shared two-core machine a
# second thread made a 256x256 matmul both slower and less steady.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RATES = ("train_samples_per_s", "synth_binary_rec_per_s", "synth_text_rec_per_s",
         "load_text_rec_per_s")
SETUP_TIMEOUT_S = 30
# Each reference kernel's time at the reference speed, and how often it
# runs in a row after a set-up or an operation.  See reference_seconds.
REF_KERNEL_S = {"blas": 0.005, "text": 0.2}
REF_REPEATS = {"blas": 20, "text": 1}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="small inputs, for testing the benchmark itself")
    p.add_argument("--setup-only", action="store_true",
                   help="import and build only; print the set-up time and the state's fingerprint")
    return p.parse_args(argv)


def import_dhpose():
    """Import dhpose from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "dhpose" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dhpose sources at {src}")
    sys.path.insert(0, str(src))
    import dhpose
    if Path(dhpose.__file__).resolve().parent != (src / "dhpose").resolve():
        sys.exit(f"perfbench: imported dhpose from {dhpose.__file__}, not from {src}")


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick, "git_rev": git_rev(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "nproc": os.cpu_count(), "blas_threads": {k: os.environ[k] for k in BLAS_VARS},
            "loadavg": os.getloadavg()}


def make_workload(args, workdir):
    from workloads import SynthWorkload, TrainWorkload

    if args.workload == "synth-io":
        return SynthWorkload(args.seed, workdir, args.quick)
    return TrainWorkload(args.seed, workdir, args.quick)


class Counter:
    """Attempted and failed output checks; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, failures: list[str]) -> bool:
        self.attempted += 1
        for msg in failures:
            print(f"perfbench: check failed: {msg}", file=sys.stderr)
        self.failed += bool(failures)
        return not failures


def guarded(fn, *args) -> tuple[list[str], object]:
    """Run one step of a workload: (its exception as a failed check, or none; its result)."""
    try:
        return [], fn(*args)
    except Exception:  # noqa: BLE001 - report it and count it as a failure
        return [traceback.format_exc()], None


def reference_seconds(kind: str) -> float:
    """Fastest of ``REF_REPEATS[kind]`` runs of a fixed reference kernel.

    Each kind stands for one kind of work in dhpose, whose speeds drift
    apart on a shared machine:

    - ``blas`` (about 5 ms): a dense layer's forward pass and weight
      gradient at the video critic's sizes, like a training step;
    - ``text`` (about 0.2 s): formats 2048 records of 85 floats as dataset
      text does and parses them back, like a text write and reload, with a
      like working set; interpreter-bound, like the imports of a set-up.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    if kind == "blas":
        x = rng.standard_normal((576, 256))
        w = rng.standard_normal((256, 256)) / 16.0
    else:
        rows = rng.standard_normal((2048, 85)).tolist()
    best = float("inf")
    for _ in range(REF_REPEATS[kind]):
        t0 = time.perf_counter()
        if kind == "blas":
            h = np.tanh(x @ w)
            x.T @ (h * (1.0 - h * h))
        else:
            text = "\n".join(" ".join(f"{v:.13g}" for v in row) for row in rows)
            sum(float(v) for v in text.split())
        best = min(best, time.perf_counter() - t0)
    return best


def setup_sample(args, fingerprint) -> tuple[list[str], tuple[float, float] | None]:
    """Time the import and build of this workload in a fresh process:
    (failed checks, (set-up seconds, reference kernel seconds right after))."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True)
        child = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        return [f"set-up in a fresh process failed: {exc}"], None
    if child["fingerprint"] != fingerprint:
        return ["a fresh process builds a different state from the same seed"], None
    return [], (child["setup_s"], child["ref_s"])


def run(args, workdir, env: dict) -> tuple[Counter, dict]:
    from tracing import Tracer
    from workloads import Clock

    counter = Counter()
    workload = make_workload(args, workdir)
    errors, fingerprint = guarded(workload.build, Clock())
    counter.record(errors)
    # set-up time: from process start to a built state
    setup_times = [(time.perf_counter() - T_START, reference_seconds("text"))]
    if fingerprint is None:
        return counter, {}
    for _ in range(SETUP_SAMPLES - 1):
        errors, sample = setup_sample(args, fingerprint)
        if counter.record(errors):
            setup_times.append(sample)
    errors, failures = guarded(workload.warm_up)
    if not counter.record(errors or failures):
        return counter, {}

    tracer = Tracer() if args.trace else None
    plain, traced = [], []  # (rates, parts, reference seconds) of each passed operation
    attempts = 0
    peak_rss_mb = None
    deadline = time.perf_counter() + args.seconds
    while attempts < MIN_OPS or time.perf_counter() < deadline:
        # the traced run alternates untraced and traced operations
        use_tracer = tracer is not None and attempts % 2 == 1
        errors, result = guarded(workload.op, Clock(tracer if use_tracer else None))
        failures, rates, parts = result if result else (errors, {}, {})
        attempts += 1
        if attempts == MIN_OPS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB
        if counter.record(failures):
            # the reference kernel, untimed by the operation, right after it
            ref = reference_seconds(workload.REFERENCE)
            (traced if use_tracer else plain).append((rates, parts, ref))
        elif not rates:
            break  # the operation raised or diverged; its state cannot be trusted further
    errors, failures = guarded(workload.replay)
    counter.record(errors or failures)

    if not plain or (tracer and not traced) or peak_rss_mb is None:
        return counter, {}

    ref_kernel_s = REF_KERNEL_S[workload.REFERENCE]

    def step_seconds(parts):
        """A step made of the operation's parts at their fastest."""
        return sum(count * min(parts[part]) for part, count in workload.STEP_PARTS.items())

    def step_rate(ops):
        """Median over operations of the step rate at the reference speed,
        by the kernel run right after each operation."""
        return statistics.median(workload.step_samples * ref / (step_seconds(parts) * ref_kernel_s)
                                 for _, parts, ref in ops)

    def rate(ops, key):
        return statistics.median(rates[key][0] / rates[key][1] for rates, _, _ in ops)

    # each set-up at the reference speed, by the kernel run right after it
    setup_s = statistics.median(t * REF_KERNEL_S["text"] / ref for t, ref in setup_times)
    print("raw " + json.dumps({
        "setup_s": [t for t, _ in setup_times], "setup_ref_s": [ref for _, ref in setup_times],
        "step_s": [step_seconds(parts) for _, parts, _ in plain],
        "ref_s": [ref for _, _, ref in plain]}))
    if not tracer:
        metrics = {
            "setup_s": (setup_s, "s"),
            "samples_per_s": (step_rate(plain), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_rate": (1.0 - counter.failed / counter.attempted, "fraction"),
        }
    else:
        metrics = tracer.summary(len(traced))
        for key in RATES:
            metrics[key] = (rate(plain, key) if key in plain[0][0] else 0.0, "1/s")
        traced_rate = step_rate(traced)
        metrics["trace.samples_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead"] = (1.0 - traced_rate / step_rate(plain), "fraction")
        metrics["error_rate"] = (counter.failed / counter.attempted, "fraction")
        metrics["ref_kernel_s"] = (statistics.median(ref for _, _, ref in plain), "s")
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl", env)
    return counter, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def setup_only(args) -> int:
    """Build the workload's state in this process and report how long it took."""
    from workloads import Clock

    fingerprint = make_workload(args, str(OUT_DIR)).build(Clock())  # a build writes no file
    setup_s = time.perf_counter() - T_START
    print(json.dumps({"setup_s": setup_s,
                      "ref_s": reference_seconds("text"),
                      "fingerprint": fingerprint}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:  # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    import_dhpose()
    sys.path.insert(0, str(BENCH_DIR))
    if args.setup_only:
        return setup_only(args)
    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as workdir:
        counter, metrics = run(args, workdir, env)
    if not metrics:
        print("perfbench: no operation passed its checks", file=sys.stderr)
    print(json.dumps({"correct": counter.failed == 0 and bool(metrics),
                      "attempted": counter.attempted, "failed": counter.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
