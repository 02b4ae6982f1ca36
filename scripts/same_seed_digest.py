#!/usr/bin/env python3
"""Print a digest of each training epoch, to compare same-seed runs of two versions.

Trains the video configuration the benchmark's train-video workload uses
(video mode, T=9, batch 64, a 256-sequence band corpus, motion critic from
epoch 1) through the public API, and prints one line per epoch: the sha256
of the epoch's synthesized ``epoch_NNN.txt`` and the epoch's metrics as
sorted JSON (without the file path).  Two versions that train identically
print identical lines.  BLAS runs on one thread, as in the benchmark.
``dhpose`` is imported from this checkout's ``src/`` (``checkout.py``).

Usage: python scripts/same_seed_digest.py --seed 11 --epochs 2
"""

import argparse
import hashlib
import json
import tempfile

from checkout import import_dhpose

import_dhpose()
from dhpose.dataset import make_band_corpus  # noqa: E402
from dhpose.gan import TrainConfig, init_train_state, train_epoch  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--epochs", type=int, default=2)
    args = ap.parse_args()
    cfg = TrainConfig(mode="video", frames=9, batch_size=64, critic_steps=5,
                      seed=args.seed, epochs=args.epochs, beta_epoch=1)
    data = make_band_corpus(256, args.seed, mode=cfg.mode, frames=cfg.frames)
    state = init_train_state(cfg)
    with tempfile.TemporaryDirectory() as out_dir:
        for _ in range(args.epochs):
            metrics = train_epoch(state, data, synth_dir=out_dir)
            with open(metrics.pop("synth_path"), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"epoch {metrics['epoch']} sha256 {digest} "
                  f"metrics {json.dumps(metrics, sort_keys=True)}")


if __name__ == "__main__":
    main()
