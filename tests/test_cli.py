import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sftbounds
from helpers import PHI
from sftbounds import cli, decay_estimate, golden_mean_shift, perron_eigendata, transfer
from sftbounds.cli import main
from sftbounds.errors import ConvergenceError


@pytest.fixture()
def golden_path(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"size": 2, "rows": [[1, 1], [1, 0]]}))
    return path


@pytest.fixture()
def full2_path(tmp_path):
    path = tmp_path / "full2.json"
    path.write_text(json.dumps({"size": 2, "rows": [[1, 1], [1, 1]]}))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_analyze_golden(capsys, golden_path):
    code, report = run(capsys, "analyze", "--matrix", str(golden_path))
    assert code == 0
    assert abs(report["lambda"] - 1.6180339887) <= 1e-9
    assert abs(report["h_parry"] - 0.4812118) <= 1e-6
    assert report["primitive"] is True


def test_verify_full_shift(capsys, full2_path, tmp_path):
    out = tmp_path / "scan.json"
    code, report = run(
        capsys, "verify", "--matrix", str(full2_path), "--samples", "100",
        "--seed", "0", "--depth", "1", "--out", str(out),
    )
    assert code == 0
    assert report["all_hold"] is True
    assert report["max_ratio"] <= report["c_hat"]
    assert out.exists() and out.with_suffix(".csv").exists()


def test_verify_csv_bytes_deterministic(capsys, full2_path, tmp_path):
    args = ["verify", "--matrix", str(full2_path), "--samples", "60", "--seed", "4", "--depth", "2"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
    ja = json.loads(a.read_text())
    jb = json.loads(b.read_text())
    ja.pop("meta")
    jb.pop("meta")
    assert ja == jb


def test_hole_command(capsys, full2_path):
    code, report = run(capsys, "hole", "--matrix", str(full2_path), "--max-hole-depth", "3")
    assert code == 0
    assert report["fitted_c"] > 0
    row = next(h for h in report["holes"] if h["word"] == "11")
    assert abs(row["survivor_lambda"] - PHI) <= 1e-7
    assert abs(row["dim"] - math.log(PHI) / math.log(2)) <= 1e-7


def test_hole_golden_depth7_exits_zero(capsys, golden_path):
    # Golden hole 100101 once got radius 1.6 and a false monotonicity violation.
    code, report = run(capsys, "hole", "--matrix", str(golden_path), "--max-hole-depth", "7")
    assert code == 0
    assert report["monotonicity_violations"] == []
    row = next(h for h in report["holes"] if h["word"] == "100101")
    assert abs(row["survivor_lambda"] - 1.5754491412403955) <= 1e-12


def test_model_dim_command(capsys):
    code, report = run(
        capsys, "model-dim", "--model", "doubling", "--x0", "0.125", "--delta", "0.125",
    )
    assert code == 0
    assert abs(report["bound"] - math.log(PHI) / math.log(2)) <= 1e-7
    assert report["inner_count"] == 4


def test_pinsker_command(capsys):
    code, report = run(capsys, "pinsker", "--samples", "300", "--seed", "1")
    assert code == 0
    assert report["violations"] == 0


def test_entropy_command(capsys, golden_path):
    code, report = run(capsys, "entropy", "--matrix", str(golden_path), "--samples", "25")
    assert code == 0
    assert report["max_information_discrepancy"] <= 1e-9
    assert report["max_gap_identity_discrepancy"] <= 1e-9


def test_transfer_decay_command(capsys, golden_path):
    code, report = run(capsys, "transfer-decay", "--matrix", str(golden_path), "--depth", "1")
    assert code == 0
    assert abs(report["rho"] - 1 / PHI**2) <= 1e-9


def test_transfer_decay_c_hat_is_the_certificate_property(capsys, golden_path, tmp_path):
    out = tmp_path / "decay.json"
    code, report = run(capsys, "transfer-decay", "--matrix", str(golden_path), "--depth", "2",
                       "--out", str(out))
    assert code == 0
    A = golden_mean_shift()
    est = decay_estimate(A, perron_eigendata(A), 2)
    assert report["c_hat"] == est.c_hat
    assert report["tail"] == est.tail
    lines = out.with_suffix(".csv").read_text().splitlines()
    assert lines[0] == "step,bound"
    assert len(lines) == 1 + len(est.steps)


def test_malformed_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["analyze", "--matrix", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "malformed JSON" in captured.err


_GOLDEN_BRANCH = {"domain": [0.0, 0.5], "slope": 2.0, "intercept": 0.0}


@pytest.mark.parametrize("command, payload", [
    ("analyze", {"rows": [[1, 1], [1]]}),
    ("analyze", {"size": "x", "rows": [[1, 1], [1, 0]]}),
    ("model-dim", {"branches": [_GOLDEN_BRANCH,
                                {"domain": [0.5, 0.75], "slope": "x", "intercept": -1.0}]}),
    ("model-dim", {"branches": 3}),
], ids=["ragged-rows", "size-not-int", "slope-not-number", "branches-not-list"])
def test_malformed_contents_exit_two(capsys, tmp_path, command, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    flag = ["--matrix", str(path)] if command == "analyze" else ["--model", str(path), "--x0", "0.3"]
    code = main([command, *flag])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_non_primitive_matrix_exits_two(capsys, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"size": 2, "rows": [[0, 1], [1, 0]]}))
    code = main(["verify", "--matrix", str(path), "--samples", "5"])
    assert code == 2
    assert "primitive" in capsys.readouterr().err


def test_missing_file_exits_two(capsys, tmp_path):
    code = main(["analyze", "--matrix", str(tmp_path / "absent.json")])
    assert code == 2


def test_bad_samples_exits_two(capsys, golden_path):
    code = main(["verify", "--matrix", str(golden_path), "--samples", "0"])
    assert code == 2
    assert "samples" in capsys.readouterr().err


@pytest.mark.parametrize("matrix, argv", [
    ("golden", ["transfer-decay", "--depth", "30"]),
    ("full2", ["verify", "--depth", "8", "--samples", "2"]),
], ids=["transfer-decay", "verify"])
def test_deep_certificate_builds_no_depth_operator(capsys, monkeypatch, request, matrix, argv):
    # golden depth 30 has 2.2 million words; the certificate reads the 2 x 2 depth-1 operator
    def refuse(*args):
        raise AssertionError("the certificate built a depth-k operator")

    monkeypatch.setattr(transfer, "transfer_matrix", refuse)
    path = request.getfixturevalue(f"{matrix}_path")
    code, report = run(capsys, *argv, "--matrix", str(path))
    assert code == 0
    assert math.isfinite(report["c_hat"])


def test_infinite_theta_exits_two(capsys, full2_path):
    code = main(["hole", "--matrix", str(full2_path), "--theta", "inf"])
    assert code == 2
    assert "theta" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_bad_tol_exits_two(capsys, golden_path, tol):
    code = main(["entropy", "--matrix", str(golden_path), "--samples", "2", "--tol", tol])
    assert code == 2
    assert "tol" in capsys.readouterr().err


def test_import_leaves_scipy_special_out():
    probe = "import sys, sftbounds; print('scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(sftbounds.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_convergence_error_exits_three(capsys, monkeypatch, golden_path):
    def stall(config):
        raise ConvergenceError("iteration stalled", residual=0.5)

    monkeypatch.setitem(cli._COMMANDS, "analyze", stall)
    code = main(["analyze", "--matrix", str(golden_path)])
    assert code == 3
    assert "numerical error: iteration stalled" in capsys.readouterr().err


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 8.00 GiB"), "Unable to allocate 8.00 GiB"),
    (MemoryError(), "out of memory"),
])
def test_memory_error_exits_four(capsys, monkeypatch, golden_path, exc, message):
    def exhaust(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "analyze", exhaust)
    code = main(["analyze", "--matrix", str(golden_path)])
    assert code == 4
    assert f"resource error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "--matrix", "m.json", "--theta", "3"],
    ["entropy", "--matrix", "m.json", "--depth", "2"],
    ["pinsker", "--theta", "3"],
    ["transfer-decay", "--matrix", "m.json", "--samples", "5"],
    ["verify", "--matrix", "m.json", "--x0", "0.3"],
    ["hole", "--matrix", "m.json", "--seed", "1"],
    ["model-dim", "--model", "doubling", "--matrix", "m.json"],
    ["transfer-decay", "--matrix", "m.json", "--theta", "3"],
    ["verify", "--matrix", "m.json", "--theta", "3"],
])
def test_unread_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_hole_json_is_strict_with_null_gap(capsys, golden_path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    code = main(["hole", "--matrix", str(golden_path), "--max-hole-depth", "1"])
    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 0
    # forbidding 0 in the golden mean shift leaves no orbit: the gap is infinite
    assert next(h for h in report["holes"] if h["word"] == "0")["gap"] is None
    assert report["meta"]["seed"] is None
