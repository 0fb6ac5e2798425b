#!/usr/bin/env python3
"""Scan every hole word up to a depth on the standard shifts: survivor entropy,
per-hole constants, and the fitted family constant for the gap lower bound.

Example:
    python3 scripts/run_hole_scan.py --max-depth 5 --out-dir out
"""

import argparse
from pathlib import Path

from sftbounds import full_shift, golden_mean_shift, hole_family_scan
from sftbounds.cli import hole_table
from sftbounds.io import write_csv, write_json
from sftbounds.sft import word_str

SYSTEMS = {
    "full2": full_shift(2),
    "golden": golden_mean_shift(),
    "full3": full_shift(3),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-depth", type=int, default=5)
    parser.add_argument("--theta", type=float, default=2.0)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for name, A in SYSTEMS.items():
        scan = hole_family_scan(A, args.max_depth, theta=args.theta)
        write_csv(out / f"holes_{name}.csv", *hole_table(A, scan))
        summary[name] = {
            "fitted_c": scan.fitted_c,
            "argmin_word": word_str(scan.argmin_word, A.size),
            "holes": len(scan.depth),
            "monotonicity_violations": len(scan.monotonicity_violations),
        }
        print(f"{name:8s} fitted_c={scan.fitted_c:.4f} "
              f"argmin={word_str(scan.argmin_word, A.size)} holes={len(scan.depth)}")
    write_json(out / "holes_summary.json", summary)


if __name__ == "__main__":
    main()
