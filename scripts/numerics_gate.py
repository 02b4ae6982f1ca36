#!/usr/bin/env python3
"""Paired numerics gate for a change that alters training numerics.

    python3 scripts/numerics_gate.py --parent ../parent --change . --seeds 21-30 --epochs 4

Runs ``scripts/same_seed_digest.py --seed S --epochs E`` from each checkout
(with ``PYTHONPATH=src``) for every seed, and the change's first seed a
second time.  For each metric of ``METRICS`` and each epoch it prints
sigma, the parent's sample standard deviation over the seeds, and the
largest and the median paired |change - parent| / sigma, then PASS or FAIL:

- every seed's |change - parent| <= 0.5 sigma, for each metric and epoch
  whose parent values are not all equal (the others are skipped);
- the median of all those |change - parent| / sigma <= 0.05;
- ``violations`` is 0 in every epoch of every change run;
- the change prints identical lines on its two runs of the first seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from bench_pairs import seed_range

METRICS = ("d_gap", "gen_loss", "penalty", "motion_gap", "motion_penalty")
MAX_SHIFT = 0.5     # sigma, for every seed
MAX_MEDIAN = 0.05   # sigma, over every seed, metric and epoch compared


@dataclass
class Row:
    metric: str
    epoch: int
    sigma: float
    max_shift: float     # in sigma
    median_shift: float  # in sigma


@dataclass
class Verdict:
    rows: list           # one Row per metric and epoch compared
    skipped: list        # (metric, epoch) whose parent values are all equal
    median_shift: float  # over every seed of every row, in sigma
    failures: list       # one line per broken rule

    @property
    def passed(self) -> bool:
        return not self.failures


def parse_digest(text: str) -> list[dict]:
    """``same_seed_digest.py`` output to one metrics dict per epoch, in order,
    with the epoch file's hash under "sha256" and, from a version that prints
    one, the training state's under "state"."""
    epochs = []
    for line in text.splitlines():
        head, sep, body = line.partition(" metrics ")
        tok = head.split()
        if (not sep or len(tok) not in (4, 6) or tok[0] != "epoch" or tok[2] != "sha256"
                or tok[4:5] not in ([], ["state"])):
            raise ValueError(f"not a digest line: {line!r}")
        if int(tok[1]) != len(epochs):
            raise ValueError(f"epoch {tok[1]} out of order: {line!r}")
        epoch = {**json.loads(body), "sha256": tok[3]}
        if len(tok) == 6:
            epoch["state"] = tok[5]
        epochs.append(epoch)
    return epochs


def verdict(parent: dict[int, list[dict]], change: dict[int, list[dict]]) -> Verdict:
    """The gate's rules applied to parsed runs keyed by seed (see module doc)."""
    if sorted(parent) != sorted(change) or len(parent) < 2:
        raise ValueError(f"need the same two or more seeds on both sides, got "
                         f"{sorted(parent)} and {sorted(change)}")
    seeds = sorted(parent)
    n_epochs = {len(runs[s]) for runs in (parent, change) for s in seeds}
    if len(n_epochs) != 1:
        raise ValueError(f"runs differ in their number of epochs: {sorted(n_epochs)}")
    epochs = n_epochs.pop()
    rows, skipped, shifts, failures = [], [], [], []
    for metric in METRICS:
        for epoch in range(epochs):
            base = [parent[s][epoch][metric] for s in seeds]
            if len(set(base)) == 1:
                skipped.append((metric, epoch))
                continue
            sigma = statistics.stdev(base)
            rel = [abs(change[s][epoch][metric] - b) / sigma for s, b in zip(seeds, base)]
            rows.append(Row(metric, epoch, sigma, max(rel), statistics.median(rel)))
            shifts.extend(rel)
            for s, r in zip(seeds, rel):
                if r > MAX_SHIFT:
                    failures.append(f"{metric} epoch {epoch} seed {s}: shift {r:.3g} sigma "
                                    f"> {MAX_SHIFT}")
    median = statistics.median(shifts) if shifts else 0.0
    if median > MAX_MEDIAN:
        failures.append(f"median shift {median:.3g} sigma > {MAX_MEDIAN}")
    for s in seeds:
        for epoch, m in enumerate(change[s]):
            if m["violations"] != 0:
                failures.append(f"violations {m['violations']} in epoch {epoch} of seed {s}")
    return Verdict(rows, skipped, median, failures)


def run_digest(root: Path, seed: int, epochs: int) -> str:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "scripts/same_seed_digest.py", "--seed", str(seed),
                           "--epochs", str(epochs)], cwd=root, env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--seeds", default="21-30", help="first-last, inclusive")
    p.add_argument("--epochs", type=int, default=4)
    args = p.parse_args()
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    seeds = seed_range(args.seeds)
    runs = {side: {} for side in roots}
    for seed in seeds:
        for side, root in roots.items():
            runs[side][seed] = parse_digest(run_digest(root, seed, args.epochs))
            print(f"ran {side} seed {seed}", file=sys.stderr, flush=True)
    repeat = parse_digest(run_digest(roots["change"], seeds[0], args.epochs))
    v = verdict(runs["parent"], runs["change"])
    if repeat != runs["change"][seeds[0]]:
        v.failures.append(f"the change's two runs of seed {seeds[0]} differ")
    same = sum(runs["parent"][s][e]["sha256"] == runs["change"][s][e]["sha256"]
               for s in seeds for e in range(args.epochs))
    print(f"{'metric':<15}{'epoch':>6}{'sigma':>12}{'max |d|/sigma':>15}{'median |d|/sigma':>18}")
    for r in v.rows:
        print(f"{r.metric:<15}{r.epoch:>6}{r.sigma:>12.5g}{r.max_shift:>15.3g}"
              f"{r.median_shift:>18.3g}")
    for metric, epoch in v.skipped:
        print(f"{metric:<15}{epoch:>6}  skipped: equal parent values on every seed")
    print(f"median |d|/sigma over all rows: {v.median_shift:.3g}; "
          f"epoch files equal to the parent's: {same} of {len(seeds) * args.epochs}")
    for line in v.failures:
        print(f"FAIL: {line}")
    print("PASS" if v.passed else "FAIL")
    return 0 if v.passed else 1


if __name__ == "__main__":
    sys.exit(main())
