#!/usr/bin/env python3
"""Print the heap peak of each training phase, measured with ``tracemalloc``.

Trains the video configuration the benchmark's train-video workload uses
(video mode, T=9, batch 64, a 256-sequence band corpus, motion critic from
epoch 1): epoch 0 warms up, epoch 1 is measured.  For each phase it prints
the number of calls and, as the maximum over its calls, the heap peak above
the heap at the call's start and the absolute heap peak (everything traced
from before the corpus is built).  The phases are the critic step, the
generator step, the end-of-epoch log (one ``critic_loss`` call), and the
end-of-epoch synthesis; only the outermost call is measured, so the
``critic_loss`` of a critic step is part of that step.
BLAS runs on one thread, as in the benchmark.  ``dhpose`` is imported from
this checkout's ``src/`` (``checkout.py``).

Usage: python scripts/heap_by_phase.py --seed 4501
"""

import argparse
import tempfile
import tracemalloc

from checkout import import_dhpose

import_dhpose()
from dhpose import dataset, gan  # noqa: E402

# (module, attribute): each is patched by module attribute, as perfbench does
PHASES = ((gan, "critic_update"), (gan, "generator_update"), (gan, "critic_loss"),
          (dataset, "synthesize_dataset"))
MB = 2 ** 20


class HeapByPhase:
    """Heap peaks of the outermost phase calls; a nested call is not measured,
    since resetting the peak inside a phase would lose the outer one's."""

    def __init__(self):
        self.stats = {attr: [0, 0, 0] for _, attr in PHASES}  # calls, above start, absolute
        self.depth = 0
        self.peak = 0  # the heap peak over the whole measured run

    def wrap(self, fn, attr):
        def measured(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
            self.peak = max(self.peak, peak)
            tracemalloc.reset_peak()
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                peak = tracemalloc.get_traced_memory()[1]
                stat = self.stats[attr]
                stat[0] += 1
                stat[1] = max(stat[1], peak - current)
                stat[2] = max(stat[2], peak)
                self.peak = max(self.peak, peak)

        return measured


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, default=256, help="sequences in the corpus")
    ap.add_argument("--batch", type=int, default=64)
    ap.add_argument("--frames", type=int, default=9)
    args = ap.parse_args()
    cfg = gan.TrainConfig(mode="video", frames=args.frames, batch_size=args.batch,
                          critic_steps=5, seed=args.seed, epochs=2, beta_epoch=1)
    tracemalloc.start()
    data = dataset.make_band_corpus(args.count, args.seed, mode=cfg.mode, frames=cfg.frames)
    state = gan.init_train_state(cfg)
    meter = HeapByPhase()
    with tempfile.TemporaryDirectory() as out_dir:
        gan.train_epoch(state, data, synth_dir=out_dir)  # warm-up, motion critic off
        saved = [(module, attr, getattr(module, attr)) for module, attr in PHASES]
        for module, attr, fn in saved:
            setattr(module, attr, meter.wrap(fn, attr))
        try:
            tracemalloc.reset_peak()
            gan.train_epoch(state, data, synth_dir=out_dir)
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
    meter.peak = max(meter.peak, tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
    print(f"heap by phase, seed {args.seed}, video T={args.frames}, batch {args.batch}, "
          f"{args.count} sequences, epoch 1 (MB)")
    print(f"{'phase':<20} {'calls':>5} {'above start':>12} {'absolute':>9}")
    for attr, (calls, above, absolute) in meter.stats.items():
        print(f"{attr:<20} {calls:>5} {above / MB:>12.1f} {absolute / MB:>9.1f}")
    print(f"{'epoch 1':<20} {'':>5} {'':>12} {meter.peak / MB:>9.1f}")


if __name__ == "__main__":
    main()
