import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sftbounds
from helpers import PHI, random_primitive_matrices
from sftbounds import (
    bounds, cli, decay_estimate, golden_mean_shift, measures, perron_eigendata, sft, transfer,
)
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


def hole_rows(out):
    """The rows of the CSV beside a `hole --out` summary, keyed by word."""
    with open(out.with_suffix(".csv"), newline="") as fh:
        return {row["word"]: row for row in csv.DictReader(fh)}


def test_hole_command(capsys, full2_path, tmp_path):
    out = tmp_path / "hole.json"
    code, report = run(capsys, "hole", "--matrix", str(full2_path), "--max-hole-depth", "3",
                       "--out", str(out))
    assert code == 0
    assert report["fitted_c"] > 0
    row = hole_rows(out)["11"]
    assert abs(float(row["survivor_lambda"]) - PHI) <= 1e-7
    assert abs(float(row["dim"]) - math.log(PHI) / math.log(2)) <= 1e-7


def test_hole_stdout_json_equals_out_file(capsys, full2_path, tmp_path):
    out = tmp_path / "hole.json"
    assert main(["hole", "--matrix", str(full2_path), "--max-hole-depth", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_hole_golden_depth7_exits_zero(capsys, golden_path, tmp_path):
    # Golden hole 100101 once got radius 1.6 and a false monotonicity violation.
    out = tmp_path / "hole.json"
    code, report = run(capsys, "hole", "--matrix", str(golden_path), "--max-hole-depth", "7",
                       "--out", str(out))
    assert code == 0
    assert report["monotonicity_violations"] == []
    row = hole_rows(out)["100101"]
    assert abs(float(row["survivor_lambda"]) - 1.5754491412403955) <= 1e-12


@pytest.mark.parametrize("matrix", [[[1, 1], [1, 1]], [[1, 1], [1, 0]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]]],
                         ids=["full2", "golden", "wide3"])
def test_hole_csv_dim_is_log_radius_over_log_theta(capsys, tmp_path, matrix):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": matrix}))
    out = tmp_path / "hole.json"
    assert main(["hole", "--matrix", str(path), "--max-hole-depth", "4", "--theta", "3",
                 "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "holes" not in report
    rows = hole_rows(out)
    # forbidding 0 in the golden mean shift leaves no orbit
    assert (rows["0"]["survivor_lambda"] == "0.0") == (matrix == [[1, 1], [1, 0]])
    for r in rows.values():
        lam = float(r["survivor_lambda"])
        if lam > 0.0:
            assert abs(float(r["dim"]) - math.log(lam) / math.log(3)) <= 1e-15
        else:
            assert r["dim"] == "0.0"


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


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "3", "--depth", "1"],
    ["transfer-decay", "--depth", "3"],
], ids=["verify", "transfer-decay"])
@pytest.mark.parametrize("matrix", ["full65", "random100"])
def test_large_alphabets_run(capsys, tmp_path, matrix, argv):
    # no ceiling on the alphabet: the s x s operators of a 65-symbol full
    # shift and of a random 100-symbol primitive matrix are solved densely
    A = np.ones((65, 65), dtype=int) if matrix == "full65" else random_primitive_matrices(1, (100,), 5)[0].array
    path = tmp_path / f"{matrix}.json"
    path.write_text(json.dumps({"rows": A.tolist()}))
    code, report = run(capsys, *argv, "--matrix", str(path))
    assert code == 0
    if matrix == "full65" and argv[0] == "transfer-decay":
        # M10 = 0 on a full shift: steps (1, 1, 1) and no tail
        assert abs(report["c_hat"] - 3 * math.sqrt(2)) <= 1e-12


@pytest.mark.parametrize("samples, status", [(1, 0), (4, 0), (5, 2)])
def test_verify_sizes_the_family_kernels_it_builds(capsys, tmp_path, samples, status):
    # verify solves samples + min(samples, 5) * 8 kernels of 494**2 values:
    # 9 and 36 of them fit under the value ceiling, 45 do not
    path = tmp_path / "full494.json"
    path.write_text(json.dumps({"rows": [[1] * 494] * 494}))
    code = main(["verify", "--matrix", str(path), "--samples", str(samples), "--depth", "1"])
    assert code == status
    if status:
        assert "45 kernels on 494 symbols" in capsys.readouterr().err


def test_malformed_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["analyze", "--matrix", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "malformed JSON" in captured.err


_GOLDEN_BRANCH = {"domain": [0.0, 0.5], "slope": 2.0, "intercept": 0.0}


@pytest.mark.parametrize("command, payload, message", [
    ("analyze", {"rows": [[1, 1], [1]]}, "malformed contents"),
    ("analyze", {"size": "x", "rows": [[1, 1], [1, 0]]}, "malformed contents"),
    ("model-dim", {"branches": [_GOLDEN_BRANCH,
                                {"domain": [0.5, 0.75], "slope": "x", "intercept": -1.0}]},
     "malformed contents"),
    ("model-dim", {"branches": 3}, "malformed contents"),
    ("model-dim", {"branches": [_GOLDEN_BRANCH, {"domain": [0.5, 0.75], "intercept": -1.0}]},
     "malformed contents ('slope')"),
    ("analyze", [[1, 1], [1, 0]], "expected a JSON object at top level"),
    ("analyze", {"size": 2}, "missing 'rows'"),
    ("analyze", {"size": 3, "rows": [[1, 1], [1, 0]]}, "'size' is 3 but 2 rows given"),
    ("model-dim", {"circle": True}, "missing 'branches'"),
    ("model-dim", {"branches": [_GOLDEN_BRANCH]}, "need at least two branches"),
    ("model-dim", {"branches": [{"domain": [-0.5, 0.5], "slope": 2.0, "intercept": 1.0},
                                {"domain": [0.5, 1.0], "slope": 2.0, "intercept": -1.0}]},
     "is not a subinterval of [0, 1]"),
    ("model-dim", {"branches": [{"domain": [0.0, 0.5], "slope": 3.0, "intercept": 0.0},
                                {"domain": [0.5, 1.0], "slope": 2.0, "intercept": -1.0}]},
     "leaves [0, 1]"),
    ("model-dim", {"branches": [_GOLDEN_BRANCH,
                                {"domain": [0.4, 0.9], "slope": 2.0, "intercept": -0.8}]},
     "branch domains overlap"),
], ids=["ragged-rows", "size-not-int", "slope-not-number", "branches-not-list", "slope-missing",
        "top-level-array", "rows-missing", "size-mismatch", "branches-missing", "one-branch",
        "domain-outside", "image-outside", "domains-overlap"])
def test_malformed_contents_exit_two(capsys, tmp_path, command, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    flag = ["--matrix", str(path)] if command == "analyze" else ["--model", str(path), "--x0", "0.3"]
    code = main([command, *flag])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


def test_library_key_error_is_not_an_input_error(capsys, monkeypatch, golden_path):
    # a KeyError from inside the library is a fault, not bad input: it must not exit 2
    def fault(args):
        raise KeyError("dictionary is empty")

    monkeypatch.setitem(cli._COMMANDS, "analyze", (fault, cli._COMMANDS["analyze"][1]))
    with pytest.raises(KeyError, match="dictionary is empty"):
        main(["analyze", "--matrix", str(golden_path)])
    assert "input error" not in capsys.readouterr().err


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


def test_zero_depth_exits_two(capsys, golden_path):
    code = main(["verify", "--matrix", str(golden_path), "--depth", "0"])
    assert code == 2
    assert capsys.readouterr().err == "input error: depth must be at least 1, got 0\n"


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


@pytest.mark.parametrize("depth", ["30", "100"])
def test_verify_past_word_ceiling_exits_two(capsys, monkeypatch, full2_path, depth):
    # 2^30 words would ask for 8 GiB of function values; 2^100 is no array at all
    def refuse(*args):
        raise AssertionError("measures were sampled before the word ceiling check")

    monkeypatch.setattr(bounds, "dirichlet_kernels", refuse)
    code = main(["verify", "--matrix", str(full2_path), "--depth", depth, "--samples", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "exceeds the ceiling" in err


def test_verify_past_value_ceiling_exits_two_at_once(capsys, monkeypatch, full2_path, tmp_path):
    # 262144 words are under the word ceiling, but 1000 functions on them
    # would draw 2.6e8 values (2 GiB)
    def refuse(*args):
        raise AssertionError("values were drawn before the value ceiling check")

    monkeypatch.setattr(measures, "_generators", refuse)
    out = tmp_path / "v.json"
    started = time.perf_counter()
    code = main(["verify", "--matrix", str(full2_path), "--depth", "18", "--samples", "1000",
                 "--out", str(out)])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "262144000 values exceeds the ceiling" in err
    assert not out.exists() and not out.with_suffix(".csv").exists()


@pytest.mark.parametrize("depth", [20, 22, 23])
def test_verify_past_word_array_size_exits_two(capsys, monkeypatch, full2_path, depth):
    # 2^depth words are under the word ceiling, but their array's 2^depth *
    # depth entries are not (704 MiB at depth 22): no array of that depth is built
    built = []
    real = sft._word_array_cached

    def counting(A, k):
        built.append(k)
        return real(A, k)

    monkeypatch.setattr(sft, "_word_array_cached", counting)
    code = main(["verify", "--matrix", str(full2_path), "--depth", str(depth), "--samples", "1"])
    assert code == 2
    assert depth not in built
    assert capsys.readouterr().err == (
        f"input error: {2**depth} admissible words of length {depth}: "
        f"{2**depth * depth} entries exceeds the ceiling 10000000\n")


@pytest.mark.parametrize("command", ["verify", "entropy", "pinsker"])
def test_negative_seed_exits_two(capsys, golden_path, tmp_path, command):
    out = tmp_path / "s.json"
    matrix = [] if command == "pinsker" else ["--matrix", str(golden_path)]
    code = main([command, *matrix, "--samples", "3", "--seed", "-1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "input error: seed must be nonnegative, got -1\n"
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_infinite_theta_exits_two(capsys, full2_path):
    code = main(["hole", "--matrix", str(full2_path), "--theta", "inf"])
    assert code == 2
    assert "theta" in capsys.readouterr().err


@pytest.mark.parametrize("theta, depth", [("1e80", 3), ("1e20", 8)])
def test_underflowing_hole_scale_exits_two(capsys, full2_path, tmp_path, theta, depth):
    # delta**2 * measure**2 falls below the smallest normal double, so some
    # per-hole constant gap / (delta**2 * measure**2) would not be finite.
    out = tmp_path / "h.json"
    code = main(["hole", "--matrix", str(full2_path), "--theta", theta,
                 "--max-hole-depth", str(depth), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"theta {float(theta)!r} is too large" in err and "Traceback" not in err
    assert not out.exists() and not out.with_suffix(".csv").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_bad_tol_exits_two(capsys, golden_path, tol):
    code = main(["entropy", "--matrix", str(golden_path), "--samples", "2", "--tol", tol])
    assert code == 2
    assert "tol" in capsys.readouterr().err


def run_python(probe):
    """stdout of `python -c probe` in a fresh interpreter that imports this sftbounds."""
    env = {**os.environ, "PYTHONPATH": str(Path(sftbounds.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip()


def test_parser_is_built_once_and_survives_a_usage_error(capsys, full2_path):
    argv = ["verify", "--matrix", str(full2_path), "--samples", "8", "--seed", "4"]
    summaries = []
    for call in range(2):
        assert main(argv) == 0
        summaries.append(json.loads(capsys.readouterr().out))
        summaries[-1].pop("meta")
        if call == 0:
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--matrix", str(full2_path), "--max-hole-depth", "2"])
            assert exc.value.code == 2
            assert "--max-hole-depth" in capsys.readouterr().err
    assert summaries[0] == summaries[1]
    assert cli.build_parser() is cli.build_parser()


def test_parser_is_not_built_at_import():
    assert run_python("import sftbounds.cli as c; print(c.build_parser.cache_info().currsize)") == "0"


def test_import_leaves_scipy_special_out():
    probe = "import sys, sftbounds.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_python(probe) == "[]"


def test_import_leaves_statistics_out():
    assert run_python("import sys, sftbounds.cli; print('statistics' in sys.modules)") == "False"


def test_scan_pipelines_import_no_numpy_module_after_setup(tmp_path, golden_path):
    # A module numpy loads lazily on first use would be timed with the work.
    runs = [
        ["verify", "--matrix", str(golden_path), "--samples", "20", "--depth", "2"],
        ["entropy", "--matrix", str(golden_path), "--samples", "5"],
        ["transfer-decay", "--matrix", str(golden_path), "--depth", "3"],
    ]
    for i, argv in enumerate(runs):
        argv += ["--out", str(tmp_path / f"run{i}.json")]
    probe = (
        "import contextlib, io, sys\n"
        "from sftbounds.cli import main\n"
        "before = set(sys.modules)\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'numpy'))\n"
    )
    assert run_python(probe) == "[]"


def test_cli_runs_with_scipy_blocked(tmp_path, golden_path, full2_path):
    # A None entry in sys.modules makes every `import scipy...` raise ImportError.
    runs = [
        ["verify", "--matrix", str(full2_path), "--samples", "20", "--depth", "2"],
        ["entropy", "--matrix", str(golden_path), "--samples", "5"],
        ["transfer-decay", "--matrix", str(golden_path), "--depth", "3"],
        ["hole", "--matrix", str(golden_path), "--max-hole-depth", "4"],
        ["model-dim", "--model", "doubling", "--x0", "0.125", "--delta", "0.01"],
    ]
    for i, argv in enumerate(runs):
        argv += ["--out", str(tmp_path / f"run{i}.json")]
    probe = (
        "import contextlib, io, sys; sys.modules['scipy'] = None\n"
        "from sftbounds.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(code)\n"
    )
    assert run_python(probe).split() == ["0"] * len(runs)


def test_convergence_error_exits_three(capsys, monkeypatch, golden_path):
    def stall(config):
        raise ConvergenceError("iteration stalled", residual=0.5)

    monkeypatch.setitem(cli._COMMANDS, "analyze", (stall, cli._COMMANDS["analyze"][1]))
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

    monkeypatch.setitem(cli._COMMANDS, "analyze", (exhaust, cli._COMMANDS["analyze"][1]))
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


def test_hole_json_is_strict_with_null_gap(capsys, golden_path, tmp_path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    out = tmp_path / "hole.json"
    code = main(["hole", "--matrix", str(golden_path), "--max-hole-depth", "1", "--out", str(out)])
    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 0
    # forbidding 0 in the golden mean shift leaves no orbit: the gap is infinite
    assert hole_rows(out)["0"]["gap"] == "inf"
    assert report["meta"]["seed"] is None


def test_write_json_is_strict_with_null_for_non_finite(tmp_path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    path = tmp_path / "summary.json"
    sftbounds.io.write_json(path, {"a": math.nan, "b": [math.inf]})
    assert json.loads(path.read_text(), parse_constant=reject) == {"a": None, "b": [None]}


PIN_MATRICES = {
    "golden": [[1, 1], [1, 0]],
    "full3": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    "wide3": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
}
# argv (a PIN_MATRICES key stands for its file), then the sha256 of the CSV
# body and of the JSON summary without `meta`, dumped with sorted keys.
OUTPUT_PINS = {
    "hole": (["hole", "--matrix", "golden", "--max-hole-depth", "6"],
             "e55ffca8675b2e2fb267c9ced4c3762bf292573aca36bd610948db14cf788a81",
             "48ca36cfa193fe41a6986b66112c8944ff896625dea2a30c22b8e3c60075e677"),
    "model-dim": (["model-dim", "--model", "doubling", "--x0", "0.125", "--delta", "1e-3"],
                  "a0b749ee2b64d3fc7c20791889a47479391c97db452c500d07460570620b5e6f",
                  "1f7e6f1a9ca871bd5615e743d84281257e0eea244f4d444fbf970beed4d8a879"),
    "transfer-decay": (["transfer-decay", "--matrix", "golden", "--depth", "8"],
                       "d787177dc7107f9585687afd482a1a984249f8c56b6b09bc30ad5e74b566a846",
                       "7a08122f104de6366c535334b5b3845731b2994a984451d5b1bfc5e4c0cb6fc5"),
    "analyze": (["analyze", "--matrix", "golden", "--depth", "4"],
                "813b7b657ad6229b3b92a90dbf59b3058ff598d0bd349d4abf9a28e330b9fff9",
                "1f2b20997ebc158b8b46459f44d6820f9e9c9a175c65540b252df75e60684855"),
    "entropy": (["entropy", "--matrix", "full3", "--samples", "20"],
                "479b4368cf7bcf607eed3c1c49bb4531f6f3df414f17f7cef314e9e37bf14662",
                "237e561430330a1b664ac3fbfe7f1d1ad0e4447a58983aad98487e43b5001b2a"),
    "verify": (["verify", "--matrix", "wide3", "--depth", "3", "--samples", "20"],
               "21a98b72a1cee92a6b4f708eb92f419d0556490c72f75dcf1ad5aaf0010e7f3a",
               "029dbcff10fc2a52397cbc96156ee77989f12fdc53e8bb5f189bdf7731a40cd9"),
    "pinsker": (["pinsker", "--samples", "50"],
                "7adfdd9a9dd1cc9012e4ed04e8f63cd5a75d5a011064f02c14a1b2f5fce5d8ec",
                "4bc73d1b68838d831efb2c69f9d1db4233bb5cf8e4a6c8a9105dad9d8ee119b0"),
}


@pytest.mark.parametrize("command", OUTPUT_PINS)
def test_cli_outputs_are_pinned(capsys, tmp_path, command):
    argv, csv_sha, json_sha = OUTPUT_PINS[command]
    for name, rows in PIN_MATRICES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"rows": rows}))
    argv = [str(tmp_path / f"{a}.json") if a in PIN_MATRICES else a for a in argv]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    summary = json.loads(text)
    # the pin hashes values; the file text must also be json.dumps' own
    assert text == json.dumps(summary, indent=2, sort_keys=True) + "\n"
    summary.pop("meta")
    assert hashlib.sha256(out.with_suffix(".csv").read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest() == json_sha
