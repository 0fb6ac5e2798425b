"""Batch CLI: one subcommand per verification pipeline, JSON summaries plus CSV
detail tables, reproducible under a fixed seed.

Exit status: 0 success, 1 a verified inequality failed, 2 input error,
3 a numerical solver failed to converge.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io
from .bounds import gap_identity_check, pinsker_verify, ratio_scan
from .errors import ConvergenceError, InputError, VerificationError
from .holes import describe_hole, hole_family_scan
from .measures import (
    cylinder_measure,
    entropy,
    information_mean,
    parry_measure,
    sample_markov,
)
from .models import cylinder_interval, exceptional_dimension_bound
from .sft import MetricParams, enumerate_words, word_str
from .spectral import perron_eigendata
from .transfer import decay_estimate, lip_seminorm, mean_zero_probes, supnorm

PINSKER_DIMS = range(2, 9)


@dataclass(frozen=True)
class RunConfig:
    command: str
    matrix_path: str | None = None
    model_path: str | None = None
    theta: float = 2.0
    depth: int = 2
    samples: int = 1000
    seed: int = 0
    tolerance: float = 1e-9
    output_path: str | None = None
    max_hole_depth: int = 3
    x0: float = 0.0
    delta: float = 0.125

    def __post_init__(self):
        if self.theta <= 1.0:
            raise InputError(f"theta must exceed 1, got {self.theta}")
        if self.samples < 1:
            raise InputError(f"samples must be at least 1, got {self.samples}")
        if self.depth < 1:
            raise InputError(f"depth must be at least 1, got {self.depth}")


def _require(value, flag: str):
    if value is None:
        raise InputError(f"this command requires {flag}")
    return value


def _emit(config: RunConfig, summary: dict, header=None, rows=None) -> None:
    payload = dict(summary)
    payload["meta"] = {
        "command": config.command,
        "seed": config.seed,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if config.output_path:
        out = Path(config.output_path)
        io.write_json(out, payload)
        if header is not None:
            io.write_csv(out.with_suffix(".csv"), header, rows or [])


def _cmd_analyze(config: RunConfig) -> int:
    A = io.load_matrix(_require(config.matrix_path, "--matrix"))
    eig = perron_eigendata(A)
    m = parry_measure(A, eig)
    words = enumerate_words(A, config.depth)
    rows = [[word_str(w, A.size), cylinder_measure(m, w)] for w in words]
    summary = {
        "size": A.size,
        "irreducible": A.irreducible,
        "primitive": A.primitive,
        "diagonal_ones": A.diagonal_ones,
        "lambda": eig.lam,
        "h_parry": entropy(m),
        "log_lambda": float(np.log(eig.lam)),
        "u": [float(x) for x in eig.u],
        "v": [float(x) for x in eig.v],
        "stationary": [float(x) for x in m.stationary],
        "transition": [[float(x) for x in row] for row in m.transition],
        "word_counts": {str(k): len(enumerate_words(A, k)) for k in range(1, config.depth + 1)},
    }
    _emit(config, summary, ["word", "parry_measure"], rows)
    return 0


def _cmd_entropy(config: RunConfig) -> int:
    A = io.load_matrix(_require(config.matrix_path, "--matrix"))
    eig = perron_eigendata(A)
    log_lam = float(np.log(eig.lam))
    master = np.random.default_rng(config.seed)
    seeds = master.integers(0, 2**63 - 1, size=config.samples)
    rows = []
    worst_info = 0.0
    worst_gap = 0.0
    for i in range(config.samples):
        mu = sample_markov(A, int(seeds[i]))
        h = entropy(mu)
        info = information_mean(mu, eig)
        ident = gap_identity_check(mu, eig)
        worst_info = max(worst_info, abs(info - log_lam))
        worst_gap = max(worst_gap, ident.discrepancy)
        rows.append([i, h, log_lam - h, info, abs(info - log_lam), ident.discrepancy])
    summary = {
        "lambda": eig.lam,
        "log_lambda": log_lam,
        "h_parry": entropy(parry_measure(A, eig)),
        "samples": config.samples,
        "max_information_discrepancy": worst_info,
        "max_gap_identity_discrepancy": worst_gap,
        "tolerance": config.tolerance,
    }
    header = ["sample_id", "entropy", "gap", "information_mean",
              "information_discrepancy", "gap_identity_discrepancy"]
    _emit(config, summary, header, rows)
    return 0 if max(worst_info, worst_gap) <= config.tolerance else 1


def _cmd_pinsker(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    rows = []
    total_violations = 0
    for dim in PINSKER_DIMS:
        p = rng.dirichlet(np.ones(dim), size=config.samples)
        q = rng.dirichlet(np.ones(dim), size=config.samples)
        violations = 0
        max_l1 = 0.0
        min_slack = np.inf
        for pi, qi in zip(p, q):
            res = pinsker_verify(pi, qi)
            if not res.holds:
                violations += 1
            max_l1 = max(max_l1, res.l1)
            min_slack = min(min_slack, res.bound - res.l1)
        total_violations += violations
        rows.append([dim, config.samples, violations, max_l1, float(min_slack)])
    summary = {
        "dimensions": list(PINSKER_DIMS),
        "samples_per_dimension": config.samples,
        "violations": total_violations,
    }
    _emit(config, summary, ["dimension", "samples", "violations", "max_l1", "min_slack"], rows)
    return 0 if total_violations == 0 else 1


def _cmd_transfer_decay(config: RunConfig) -> int:
    A = io.load_matrix(_require(config.matrix_path, "--matrix"))
    eig = perron_eigendata(A)
    params = MetricParams(config.theta)
    est = decay_estimate(A, eig, config.depth, mode="spectral", params=params)
    rows = []
    for g, w in zip(mean_zero_probes(A, eig, config.depth),
                    enumerate_words(A, config.depth)):
        rows.append([word_str(w, A.size), lip_seminorm(g, params), supnorm(g)])
    summary = {
        "C": est.C,
        "rho": est.rho,
        "source": est.source,
        "depth": est.depth,
        "theta": est.theta,
        "c_hat": float(np.sqrt(2.0)) * est.C / (1.0 - est.rho),
    }
    _emit(config, summary, ["probe_word", "seminorm", "supnorm"], rows)
    return 0


def _cmd_verify(config: RunConfig) -> int:
    A = io.load_matrix(_require(config.matrix_path, "--matrix"))
    params = MetricParams(config.theta)
    scan = ratio_scan(A, config.samples, config.seed, depth=config.depth, params=params)
    rows = [[r.sample_id, r.gap, r.lhs, r.seminorm, r.ratio, r.holds] for r in scan.rows]
    summary = {
        "max_ratio": scan.max_ratio,
        "argmax_id": scan.argmax_id,
        "slope": scan.slope,
        "c_hat": scan.c_hat,
        "C": scan.C,
        "rho": scan.rho,
        "samples": config.samples,
        "all_hold": scan.all_hold,
    }
    _emit(config, summary, ["sample_id", "gap", "lhs", "seminorm", "ratio", "holds"], rows)
    return 0 if scan.all_hold else 1


def _cmd_hole(config: RunConfig) -> int:
    A = io.load_matrix(_require(config.matrix_path, "--matrix"))
    params = MetricParams(config.theta)
    scan = hole_family_scan(A, config.max_hole_depth, params=params)
    rows = [
        [word_str(r.word, A.size), r.depth, r.delta, r.measure,
         r.survivor_lambda, r.gap, r.per_hole_c]
        for r in scan.rows
    ]
    log_theta = float(np.log(params.theta))
    holes = []
    for r in scan.rows:
        entry = describe_hole(A, r)
        entry["dim"] = float(np.log(r.survivor_lambda) / log_theta) if r.survivor_lambda > 0 else 0.0
        holes.append(entry)
    summary = {
        "fitted_c": scan.fitted_c,
        "argmin_word": word_str(scan.argmin_word, A.size),
        "log_lambda": scan.log_lambda,
        "theta": scan.theta,
        "monotonicity_violations": [
            [word_str(a, A.size), word_str(b, A.size)]
            for a, b in scan.monotonicity_violations
        ],
        "holes": holes,
    }
    header = ["word", "depth", "delta", "hole_measure", "survivor_lambda", "gap", "per_hole_c"]
    _emit(config, summary, header, rows)
    ok = scan.fitted_c > 0 and not scan.monotonicity_violations
    return 0 if ok else 1


def _cmd_model_dim(config: RunConfig) -> int:
    model = io.load_model(_require(config.model_path, "--model"))
    eig = perron_eigendata(model.transition)
    report = exceptional_dimension_bound(model, config.x0, config.delta, eig=eig)
    m = parry_measure(model.transition, eig)
    s = model.transition.size
    rows = []
    for role, words in (("inner", report.inner), ("outer", report.outer)):
        for w in words:
            ci = cylinder_interval(model, w)
            rows.append([word_str(w, s), role, ci.lo, ci.hi, cylinder_measure(m, w)])
    summary = {
        "x0": report.x0,
        "delta": report.delta,
        "depth": report.depth,
        "inner_count": len(report.inner),
        "outer_count": len(report.outer),
        "outer_measure": report.outer_measure,
        "survivor_lambda": report.survivor_lambda,
        "h_plus": report.h_plus if np.isfinite(report.h_plus) else None,
        "bound": report.bound,
        "implied_c": report.implied_c if np.isfinite(report.implied_c) else None,
        "shape_bound": report.shape_bound,
        "trivial": report.trivial,
        "theta0": model.theta0,
        "Theta": model.cap_theta,
        "log_lambda": float(np.log(eig.lam)),
    }
    _emit(config, summary, ["word", "role", "interval_lo", "interval_hi", "parry_measure"], rows)
    return 0 if report.h_plus <= float(np.log(eig.lam)) + 1e-12 else 1


_COMMANDS = {
    "analyze": _cmd_analyze,
    "entropy": _cmd_entropy,
    "pinsker": _cmd_pinsker,
    "transfer-decay": _cmd_transfer_decay,
    "verify": _cmd_verify,
    "hole": _cmd_hole,
    "model-dim": _cmd_model_dim,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sftbounds",
        description="Entropy gaps, transfer-operator decay, and dimension bounds "
        "for subshifts of finite type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "Perron data, Parry measure, and cylinder measures of a matrix"),
        ("entropy", "entropy and information-function identities on sampled measures"),
        ("pinsker", "total-variation versus divergence inequality on sampled pairs"),
        ("transfer-decay", "decay certificate (C, rho) for the transfer operator"),
        ("verify", "integral-discrepancy bound on sampled (measure, function) pairs"),
        ("hole", "survivor entropy and dimension data for every hole up to a depth"),
        ("model-dim", "dimension bound for a metric hole in an expanding interval map"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--matrix", help="path to a transition-matrix JSON file")
        p.add_argument("--model", help="model preset name or path to a model JSON file")
        p.add_argument("--theta", type=float, default=2.0)
        p.add_argument("--depth", type=int, default=2)
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--out", help="summary JSON path; detail CSV lands beside it")
        p.add_argument("--max-hole-depth", type=int, default=3)
        p.add_argument("--x0", type=float, default=0.0)
        p.add_argument("--delta", type=float, default=0.125)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        matrix_path=args.matrix,
        model_path=args.model,
        theta=args.theta,
        depth=args.depth,
        samples=args.samples,
        seed=args.seed,
        tolerance=args.tol,
        output_path=args.out,
        max_hole_depth=args.max_hole_depth,
        x0=args.x0,
        delta=args.delta,
    )


def execute(config: RunConfig) -> int:
    """Dispatch a RunConfig; returns the process exit status."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise InputError(f"unknown command {config.command!r}")
    return handler(config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        return execute(config)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (InputError, FileNotFoundError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical error: {exc} (residual {exc.residual})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
