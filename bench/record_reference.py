#!/usr/bin/env python3
"""Record the `verify` rows of every scan pool seed as the reference that
later passes are checked against (reference/scan.npz). Run once, from the
root of the repository, on the library version the reference should pin:

    PYTHONPATH=src python3 bench/record_reference.py
"""

import contextlib
import csv
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from checks import VERIFY_FIELDS
from workloads import SCAN_POOL, Inputs

BENCH = Path(__file__).resolve().parent


def main() -> int:
    from sftbounds.cli import main as cli_main

    arrays = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        inputs = Inputs("scan", 0, Path(tmp) / "inputs")
        for pool_seed in SCAN_POOL:
            for name, argv in inputs.scan_invocations(pool_seed):
                if not name.startswith("verify-"):
                    continue
                out = Path(tmp) / f"{pool_seed}-{name}.json"
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli_main(argv + ["--out", str(out)])
                if status != 0:
                    print(f"{name} at pool seed {pool_seed} exited {status}", file=sys.stderr)
                    return 1
                with open(out.with_suffix(".csv"), newline="") as fh:
                    rows = list(csv.DictReader(fh))
                arrays[f"{pool_seed}/{name}"] = np.array(
                    [[float(r[f]) for f in VERIFY_FIELDS] for r in rows])
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=BENCH.parent).stdout.strip()
    np.savez_compressed(BENCH / "reference" / "scan.npz", **arrays, recorded_at=np.array(commit))
    print(f"recorded {len(arrays)} invocations at {commit or 'an unknown commit'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
