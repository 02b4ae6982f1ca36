#!/usr/bin/env python3
"""Write a stand-in "real" training corpus sampled from a narrow parameter band.

No mocap data involved: poses come from the skeleton model itself, jittered
around the mid-range configuration, so the file is free to redistribute and
deterministic under the seed.

Usage: python scripts/make_smoke_corpus.py --count 2048 --seed 0 --out smoke.txt
"""

import argparse

from checkout import import_dhpose

import_dhpose()
from dhpose.dataset import make_band_corpus, resolve_frames, rows_of, save_dataset  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=2048)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("single", "video"), default="single")
    ap.add_argument("--frames", type=int, default=None, help="video mode only; default 9")
    ap.add_argument("--band", type=float, default=0.05,
                    help="band width as a fraction of each constraint range")
    args = ap.parse_args()
    try:
        data = make_band_corpus(args.count, args.seed, mode=args.mode,
                                frames=resolve_frames(args.mode, args.frames), band=args.band)
    except ValueError as exc:
        ap.error(str(exc))
    rows = rows_of(data, provenance="real")
    save_dataset(rows, args.out)
    print(f"wrote {len(rows)} real records to {args.out}")


if __name__ == "__main__":
    main()
