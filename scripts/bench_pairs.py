#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and summarize them.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload train-video --seeds 8101-8110 --runs runs.jsonl
    python3 scripts/bench_pairs.py --summarize runs.jsonl --out BENCH_abc1234.json

The first form runs ``perfbench/run.py --workload W --seed N --seconds S
--trace 0`` from each checkout's root, once per seed and side, the parent
first on even pairs and the change first on odd ones, and appends each
run's result line to ``--runs`` (a run already there is not repeated).  The
second form reads one or more such files and writes, per workload and side,
each end-to-end metric's median, quartiles and pair count, how many pairs
the change won on each metric, and the operations attempted and failed.  A
workload with fewer than two complete pairs (a file read mid-run) has no
quartiles: its entry holds only its pair count and their seeds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_pairs(args) -> None:
    runs = Path(args.runs)
    done = set()
    if runs.exists():
        done = {(r["workload"], r["seed"], r["side"])
                for r in map(json.loads, runs.read_text().splitlines())}
    for i, seed in enumerate(seed_range(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            if (args.workload, seed, side) in done:
                continue
            root = Path(getattr(args, side)).resolve()
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            record = {"workload": args.workload, "seed": seed, "side": side, "pair": i,
                      "first": order[0], "result": result}
            with runs.open("a") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{args.workload} seed {seed} {side}: "
                  f"{'failed to run' if result is None else result['metrics']}", flush=True)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(paths: list[str]) -> dict:
    records = [json.loads(line) for p in paths for line in Path(p).read_text().splitlines()]
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        by_seed = {}
        for r in records:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = {s: sides for s, sides in by_seed.items()
                 if sides.get("parent") and sides.get("change")}
        entry = out[workload] = {"pairs": len(pairs), "seeds": sorted(pairs)}
        if len(pairs) < 2:
            continue
        for side in ("parent", "change"):
            results = [pairs[s][side] for s in sorted(pairs)]
            entry[side] = {
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "all_correct": all(r["correct"] for r in results),
                "metrics": {name: {**quartiles([r["metrics"][name]["value"] for r in results]),
                                   "unit": results[0]["metrics"][name]["unit"]}
                            for name in BETTER},
            }
        wins = {}
        for name, better in BETTER.items():
            sign = 1 if better == "higher" else -1
            wins[name] = sum(sign * (sides["change"]["metrics"][name]["value"]
                                     - sides["parent"]["metrics"][name]["value"]) > 0
                             for sides in pairs.values())
        entry["change_better_pairs"] = wins
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--workload")
    p.add_argument("--seeds", help="first-last, inclusive")
    p.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    p.add_argument("--runs", help="JSON-lines file the runs are appended to")
    p.add_argument("--summarize", nargs="+", metavar="RUNS")
    p.add_argument("--out", help="summary file (default: standard output)")
    args = p.parse_args()
    if args.summarize:
        text = json.dumps({"quantile_method": "statistics.quantiles(n=4, method='inclusive')",
                           "workloads": summarize(args.summarize)}, indent=2)
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)
        return 0
    if not all((args.parent, args.change, args.workload, args.seeds, args.runs)):
        p.error("running pairs needs --parent, --change, --workload, --seeds and --runs")
    run_pairs(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
