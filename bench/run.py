#!/usr/bin/env python3
"""Benchmark of the sftbounds CLI pipelines, run from the root of a checkout:

    python3 bench/run.py --workload scan --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py and README.md): `scan` (sampled-measure
verification), `holes` (many small pruned graphs), `model_dim` (few huge
pruned graphs and ball covers). Each pass runs in a fresh interpreter
(one_pass.py) and calls `sftbounds.cli.main` once per invocation; passes
repeat until --seconds is used up. With --trace 0 the last stdout line holds
the end-to-end metrics (medians over passes); with --trace 1 every other
pass is traced and it holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import Tally, check_holes, check_model_dim, check_scan
from workloads import HOLES, SCAN_POOL, WORKLOADS, Inputs, scan_schedule
from tracer import COUNTER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
LIMIT_S = 150.0  # a run, checks included, must end well within 180 s
PASS_TIMEOUT_S = 120.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
TRACED = (
    "measures.stationary_vector", "measures.sample_markov", "measures.cylinder_measure_vector",
    "measures.integrate", "measures.entropy", "measures.markov_measure",
    "transfer.lip_seminorm", "transfer.decay_estimate", "transfer.transfer_matrix",
    "bounds.ratio_scan", "bounds.effective_bound_verify", "bounds.gap_identity_check",
    "sft.word_count", "sft.enumerate_words",
    "spectral.perron_eigendata", "spectral.power_iteration", "spectral.subdominant_modulus",
    "holes.prune_words", "holes.hole_family_scan",
    "models.ball_to_cylinders", "models.cylinder_interval", "models.exceptional_dimension_bound",
    "io.write_csv", "io.write_json", "cli.main",
)
CALL_COUNTS = (
    "measures.stationary_vector", "measures.cylinder_measure_vector", "transfer.lip_seminorm",
    "sft.word_count", "holes.prune_words", "models.cylinder_interval",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in the order BENCHMARK.json lists them."""
    units = {f"{name}.self_s": "s" for name in TRACED}
    units.update({f"{name}.calls": "count" for name in CALL_COUNTS})
    units.update(COUNTER_UNITS)
    units.update({"trace.errors": "count", "trace.self_coverage": "ratio",
                  "trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = str(min(2, os.cpu_count() or 1))
    return env


def run_pass(spec: dict, path: Path, deadline_s: float) -> dict:
    path.write_text(json.dumps(spec))
    started = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "one_pass.py"), str(path)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=max(1.0, min(PASS_TIMEOUT_S, deadline_s)),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = perf_counter() - started
    result["stderr"] = proc.stderr[-2000:]
    return result


def csv_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def check_passes(workload: str, inputs: Inputs, passes: list[dict], work: Path) -> Tally:
    """Check every pass. Passes with the same inputs must write byte-identical
    CSVs; a repeat that does is given the verdict of the first."""
    tally = Tally()
    first: dict = {}
    reference = np.load(BENCH / "reference" / "scan.npz") if workload == "scan" else None
    for i, result in enumerate(passes):
        out_dir = work / f"pass{i}"
        key = result["pool_seed"]
        outputs = (csv_bytes(out_dir), [r["status"] for r in result["runs"]])
        if key in first:
            j, seen, verdict = first[key]
            if outputs == seen:
                tally.attempted += verdict.attempted
                tally.failed += verdict.failed
                continue
            tally.mismatches.append(f"pass {i} outputs differ from pass {j} on the same inputs")
        one = Tally()
        runs = result["runs"]
        if workload == "scan":
            check_scan(one, out_dir, runs, reference, key)
        elif workload == "holes":
            matrices = {name: inputs.matrices[key_] for name, key_, _ in HOLES}
            check_holes(one, out_dir, runs, matrices, {name: d for name, _, d in HOLES})
        else:
            check_model_dim(one, out_dir, runs, inputs.models, inputs.balls)
        first.setdefault(key, (i, outputs, one))
        tally.attempted += one.attempted
        tally.failed += one.failed
        tally.failures += [f"pass {i}: {f}" for f in one.failures]
        tally.mismatches += [f"pass {i}: {m}" for m in one.mismatches]
    return tally


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else ref
    return ref


def environment(seed: int, passes: list[dict]) -> dict:
    mem_total = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_total = line.split(":", 1)[1].strip()
    except OSError:
        pass
    env = dict(passes[0]["env"])
    env.update({
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "openblas_num_threads_env": child_env()["OPENBLAS_NUM_THREADS"],
        "mem_total": mem_total,
        "git_commit": git_commit(),
        "workload_seed": seed,
    })
    return env


def pass_wall(result: dict) -> float:
    return sum(r["seconds"] for r in result["runs"])


def robust(passes: list[dict], value) -> float:
    """Mean over input groups (scan pool seeds; one group otherwise) of the
    median over the group's passes, so that every run weighs the same inputs
    alike however many passes each got."""
    groups: dict = {}
    for p in passes:
        groups.setdefault(p["pool_seed"], []).append(value(p))
    return statistics.fmean(statistics.median(g) for g in groups.values())


def robust_wall(passes: list[dict]) -> float:
    """Pass wall time, as the sum over invocations of each one's robust time:
    the jitter of one invocation is then not carried into the others."""
    return sum(robust(passes, lambda p, i=i: p["runs"][i]["seconds"])
               for i in range(len(passes[0]["runs"])))


def end_to_end(passes: list[dict]) -> dict[str, float]:
    return {
        "wall_s": robust_wall(passes),
        "setup_s": robust(passes, lambda p: p["setup_s"]),
        "peak_rss_mib": robust(passes, lambda p: p["peak_rss_mib"]),
    }


def _layer_values(p: dict) -> dict[str, float]:
    functions, counters = p["trace"]["functions"], p["trace"]["counters"]
    zero = [0, 0.0, 0]
    out = {f"{name}.self_s": functions.get(name, zero)[1] for name in TRACED}
    out.update({f"{name}.calls": functions.get(name, zero)[0] for name in CALL_COUNTS})
    out.update({name: counters[name] for name in COUNTER_UNITS})
    out["trace.errors"] = sum(f[2] for f in functions.values())
    out["trace.self_coverage"] = sum(f[1] for f in functions.values()) / pass_wall(p)
    return out


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if "trace" in p]
    plain = [p for p in passes if "trace" not in p]
    for p in traced:
        p["layers"] = _layer_values(p)
    metrics = {name: robust(traced, lambda p, n=name: p["layers"][n]) for name in traced[0]["layers"]}
    metrics["trace.wall_s"] = robust_wall(traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - robust_wall(plain)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sftbounds" / "__init__.py").is_file():
        print(f"no sftbounds sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    started = perf_counter()
    work = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = Inputs(args.workload, args.seed, work / "inputs")
        # An unmeasured first pass compiles the package bytecode and lets the
        # machine back the pass's memory: the first pass after idling runs
        # about 10% slower on model_dim.
        first_seed = scan_schedule(args.seed, 1, False)[0] if args.workload == "scan" else None
        run_pass(dict(inputs.spec(first_seed), trace=False, out_dir=str(work / "warm")),
                 work / "warm.json", LIMIT_S)

        paired = bool(args.trace)
        if args.workload == "scan":  # cover the pool and see a pool seed twice
            min_passes = 2 * len(SCAN_POOL) if paired else len(SCAN_POOL) + 1
        else:
            min_passes = MIN_PASSES + paired
        measure_start = perf_counter()
        passes: list[dict] = []
        while True:
            i = len(passes)
            elapsed = perf_counter() - measure_start
            typical = statistics.median(p["elapsed_s"] for p in passes) if passes else 0.0
            if i >= min_passes and elapsed + typical > args.seconds:
                break
            if i > 0 and perf_counter() - started + 2 * typical > LIMIT_S:
                break
            pool_seed = scan_schedule(args.seed, i + 1, paired)[i] if args.workload == "scan" else None
            spec = dict(inputs.spec(pool_seed), trace=paired and i % 2 == 0, out_dir=str(work / f"pass{i}"))
            result = run_pass(spec, work / f"pass{i}.json", LIMIT_S - (perf_counter() - started))
            result["pool_seed"] = pool_seed
            passes.append(result)

        tally = check_passes(args.workload, inputs, passes, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed, passes)
    if args.trace:
        units = per_layer_units()
        values = per_layer(passes)
    else:
        units = END_TO_END
        values = end_to_end(passes)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "passes": passes, "metrics": metrics,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures, "mismatches": tally.mismatches,
    }
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))

    for line in tally.failures[:10] + tally.mismatches[:10]:
        print(line, file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {len(passes)} passes, {tally.failed}/{tally.attempted} checks failed, "
          f"{len(tally.mismatches)} contract mismatches")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
