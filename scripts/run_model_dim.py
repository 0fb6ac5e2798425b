#!/usr/bin/env python3
"""Dimension upper bounds for hole-avoiding orbits of an expanding interval map,
over a grid of hole radii, with a direct box-count comparison.

Example:
    python3 scripts/run_model_dim.py --model doubling --x0 0.125 --out-dir out
"""

import argparse
import math
from pathlib import Path

import numpy as np

from sftbounds import exceptional_dimension_bound, pruned_word_count
from sftbounds.io import load_model, write_csv, write_json


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="doubling")
    parser.add_argument("--x0", type=float, default=0.125)
    parser.add_argument("--delta-min", type=float, default=0.01)
    parser.add_argument("--delta-max", type=float, default=0.35)
    parser.add_argument("--points", type=int, default=10)
    parser.add_argument("--box-depth", type=int, default=20)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args()

    model = load_model(args.model)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for delta in np.geomspace(args.delta_min, args.delta_max, args.points):
        rep = exceptional_dimension_bound(model, args.x0, float(delta))
        cover = rep.cover
        n = max(args.box_depth, cover.depth)
        count = pruned_word_count(rep.pruned, n)
        # no orbit survives when no word does; `bound` is 0 there too
        box = math.log(count) / (n * math.log(model.theta0)) if count else 0.0
        rows.append([cover.delta, cover.depth, len(cover.inner), rep.outer_measure,
                     rep.bound, box, not cover.inner])
        print(f"delta={cover.delta:.4f} depth={cover.depth} inner={len(cover.inner):3d} "
              f"bound={rep.bound:.5f} box_count={box:.5f}")
    write_csv(out / "model_dim.csv",
              ["delta", "depth", "inner_count", "outer_measure", "bound",
               "box_count_estimate", "trivial"], list(zip(*rows)))
    write_json(out / "model_dim_summary.json", {
        "model": args.model,
        "x0": args.x0,
        "points": args.points,
        "monotone": all(a[4] >= b[4] - 1e-9 for a, b in zip(rows, rows[1:])),
    })


if __name__ == "__main__":
    main()
