import os
import subprocess
import sys
from pathlib import Path

import pytest

from sftbounds.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, out_dir):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args, "--out-dir", str(out_dir)],
                   env=env, check=True, capture_output=True, timeout=120)


def cli_header(tmp_path, *argv):
    out = tmp_path / "cli.json"
    assert main([*argv, "--out", str(out)]) == 0
    return out.with_suffix(".csv").read_text().splitlines()[0]


@pytest.fixture()
def golden_path(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text('{"size": 2, "rows": [[1, 1], [1, 0]]}')
    return path


def test_verify_scan_script(tmp_path, capsys, golden_path):
    run_script("run_verify_scan.py", "--samples", "5", out_dir=tmp_path / "out")
    header = cli_header(tmp_path, "verify", "--matrix", str(golden_path), "--samples", "5")
    for name in ("full2", "golden", "full3", "wide3"):
        assert (tmp_path / "out" / f"verify_{name}.csv").read_text().splitlines()[0] == header
    assert (tmp_path / "out" / "verify_summary.json").exists()


def test_hole_scan_script(tmp_path, capsys, golden_path):
    run_script("run_hole_scan.py", "--max-depth", "2", out_dir=tmp_path / "out")
    header = cli_header(tmp_path, "hole", "--matrix", str(golden_path), "--max-hole-depth", "1")
    assert header == "word,depth,delta,hole_measure,survivor_lambda,gap,per_hole_c,dim"
    for name in ("full2", "golden", "full3"):
        assert (tmp_path / "out" / f"holes_{name}.csv").read_text().splitlines()[0] == header
    assert (tmp_path / "out" / "holes_summary.json").exists()


def test_model_dim_script(tmp_path):
    run_script("run_model_dim.py", "--points", "2", "--box-depth", "12", out_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "model_dim.csv").read_text().splitlines()
    assert len(lines) == 3
    assert (tmp_path / "out" / "model_dim_summary.json").exists()


def test_model_dim_script_empty_survivor_set(tmp_path):
    # the largest hole empties the pruned survivor set: its box count is 0, like its bound
    run_script("run_model_dim.py", "--model", "golden", "--x0", "0.3", "--delta-min", "0.003",
               out_dir=tmp_path / "out")
    last = (tmp_path / "out" / "model_dim.csv").read_text().splitlines()[-1].split(",")
    assert last[4] == last[5] == "0.0"
