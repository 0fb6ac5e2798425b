#!/usr/bin/env python3
"""Sweep the integral-discrepancy bound over sampled (measure, function) pairs
on a few standard shifts and report the observed ratios and gap exponents.

Example:
    python3 scripts/run_verify_scan.py --samples 2000 --seed 0 --out-dir out
"""

import argparse
from pathlib import Path

from sftbounds import full_shift, golden_mean_shift, ratio_scan, transition_matrix
from sftbounds.cli import verify_table
from sftbounds.io import write_csv, write_json

SYSTEMS = {
    "full2": full_shift(2),
    "golden": golden_mean_shift(),
    "full3": full_shift(3),
    "wide3": transition_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--depth", type=int, default=2)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for name, A in SYSTEMS.items():
        scan = ratio_scan(A, samples=args.samples, seed=args.seed, depth=args.depth)
        write_csv(out / f"verify_{name}.csv", *verify_table(scan))
        summary[name] = {
            "max_ratio": scan.max_ratio,
            "slope": scan.slope,
            "c_hat": scan.decay.c_hat,
            "C": scan.decay.C,
            "rho": scan.decay.rho,
            "all_hold": scan.all_hold,
        }
        print(f"{name:8s} max_ratio={scan.max_ratio:.4f} slope={scan.slope:.3f} "
              f"c_hat={scan.decay.c_hat:.4g} all_hold={scan.all_hold}")
    write_json(out / "verify_summary.json", summary)


if __name__ == "__main__":
    main()
