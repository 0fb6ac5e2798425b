"""Batch CLI: one subcommand per verification pipeline, JSON summaries plus CSV
detail tables, reproducible under a fixed seed.

Each subcommand accepts only the flags its handler reads (`_COMMANDS`); any
other flag is a usage error. Non-finite floats in a JSON summary are written
as null.

Exit status: 0 success, 1 a verified inequality failed, 2 input error,
3 a numerical solver failed to converge, 4 out of memory.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import io
from .bounds import ScanSummary, gap_identity_check, pinsker_verify, ratio_scan
from .errors import ConvergenceError, InputError, VerificationError
from .holes import HoleFamilyScan, hole_family_scan
from .measures import (
    _check_kernels,
    cylinder_measure_vector,
    entropy,
    information_mean,
    sample_markov_batch,
)
from .models import exceptional_dimension_bound
from .sft import TransitionMatrix, _check_ceiling, word_array, word_count, word_str, word_strs
from .spectral import perron_eigendata
from .transfer import decay_estimate

PINSKER_DIMS = range(2, 9)


# Every flag, declared once: its add_argument keywords.
_FLAGS = {
    "--matrix": {"required": True, "help": "path to a transition-matrix JSON file"},
    "--model": {"required": True, "help": "model preset name or path to a model JSON file"},
    "--theta": {"type": float, "default": 2.0},
    "--depth": {"type": int, "default": 2},
    "--samples": {"type": int, "default": 1000},
    "--seed": {"type": int, "default": 0},
    "--tol": {"type": float, "default": 1e-9},
    "--max-hole-depth": {"type": int, "default": 3},
    "--x0": {"type": float, "default": 0.0},
    "--delta": {"type": float, "default": 0.125},
    "--out": {"help": "summary JSON path; detail CSV lands beside it"},
}


def _emit(args: argparse.Namespace, summary: dict, header: list[str], columns: list) -> None:
    meta = {
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    text = io.json_text({**summary, "meta": meta})
    print(text)
    if args.out:
        out = Path(args.out)
        out.write_text(text + "\n")
        io.write_csv(out.with_suffix(".csv"), header, columns)


def verify_table(scan: ScanSummary) -> tuple[list[str], list]:
    """Header and columns of the `verify` detail CSV."""
    header = ["sample_id", "gap", "lhs", "seminorm", "ratio", "holds"]
    report = scan.report
    return header, [range(len(report.ratio)), *(getattr(report, name) for name in header[1:])]


def hole_table(A: TransitionMatrix, scan: HoleFamilyScan) -> tuple[list[str], list]:
    """Header and columns of the `hole` detail CSV, the one table of per-hole
    rows: the scan's columns, then `dim`, log survivor_lambda / log theta
    (0.0 where nothing survives)."""
    header = ["word", "depth", "delta", "hole_measure", "survivor_lambda", "gap", "per_hole_c", "dim"]
    lam = scan.survivor_lambda
    dim = np.zeros(len(lam))
    alive = lam > 0
    dim[alive] = np.log(lam[alive]) / float(np.log(scan.theta))
    columns = [word_strs(scan.words, A.size), scan.depth, scan.delta, scan.measure,
               lam, scan.gap, scan.per_hole_c, dim]
    return header, columns


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Perron data, Parry measure, and cylinder measures of a matrix"""
    A = io.load_matrix(args.matrix)
    eig = perron_eigendata(A)
    words = word_strs(word_array(A, args.depth), A.size)
    measures = cylinder_measure_vector(eig.parry, args.depth)
    summary = {
        "size": A.size,
        "irreducible": A.irreducible,
        "primitive": A.primitive,
        "diagonal_ones": A.diagonal_ones,
        "lambda": eig.lam,
        "h_parry": entropy(eig.parry),
        "log_lambda": float(np.log(eig.lam)),
        "u": [float(x) for x in eig.u],
        "v": [float(x) for x in eig.v],
        "stationary": [float(x) for x in eig.parry.stationary],
        "transition": [[float(x) for x in row] for row in eig.parry.transition],
        "word_counts": {str(k): word_count(A, k) for k in range(1, args.depth + 1)},
    }
    _emit(args, summary, ["word", "parry_measure"], [words, measures])
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    """entropy and information-function identities on sampled measures"""
    A = io.load_matrix(args.matrix)
    eig = perron_eigendata(A)
    log_lam = float(np.log(eig.lam))
    _check_kernels(A, args.samples)
    master = np.random.default_rng(args.seed)
    seeds = master.integers(0, 2**63 - 1, size=args.samples)
    mu = sample_markov_batch(A, seeds)
    h = entropy(mu)
    info = information_mean(mu, eig)
    info_error = np.abs(info - log_lam)
    gap_error = gap_identity_check(mu, eig).discrepancy
    columns = [range(args.samples), h, log_lam - h, info, info_error, gap_error]
    # max over 0 and each sample in turn, as a running max takes it
    worst_info = max([0.0, *info_error.tolist()])
    worst_gap = max([0.0, *gap_error.tolist()])
    summary = {
        "lambda": eig.lam,
        "log_lambda": log_lam,
        "h_parry": entropy(eig.parry),
        "samples": args.samples,
        "max_information_discrepancy": worst_info,
        "max_gap_identity_discrepancy": worst_gap,
        "tolerance": args.tol,
    }
    header = ["sample_id", "entropy", "gap", "information_mean",
              "information_discrepancy", "gap_identity_discrepancy"]
    _emit(args, summary, header, columns)
    return 0 if max(worst_info, worst_gap) <= args.tol else 1


def _cmd_pinsker(args: argparse.Namespace) -> int:
    """total-variation versus divergence inequality on sampled pairs"""
    n = args.samples * max(PINSKER_DIMS)
    _check_ceiling(n, "{} samples of dimension {}: {} values", args.samples, max(PINSKER_DIMS), n)
    rng = np.random.default_rng(args.seed)
    rows = []
    total_violations = 0
    for dim in PINSKER_DIMS:
        p = rng.dirichlet(np.ones(dim), size=args.samples)
        q = rng.dirichlet(np.ones(dim), size=args.samples)
        res = pinsker_verify(p, q)
        violations = int(np.count_nonzero(~res.holds))
        total_violations += violations
        rows.append([dim, args.samples, violations, float(res.l1.max()),
                     float((res.bound - res.l1).min())])
    summary = {
        "dimensions": list(PINSKER_DIMS),
        "samples_per_dimension": args.samples,
        "violations": total_violations,
    }
    header = ["dimension", "samples", "violations", "max_l1", "min_slack"]
    _emit(args, summary, header, list(zip(*rows)))
    return 0 if total_violations == 0 else 1


def _cmd_transfer_decay(args: argparse.Namespace) -> int:
    """proven decay certificate: per-step bounds and tail for the transfer operator"""
    A = io.load_matrix(args.matrix)
    est = decay_estimate(perron_eigendata(A), args.depth)
    summary = {
        "C": est.C,
        "rho": est.rho,
        "depth": est.depth,
        "tail": est.tail,
        "c_hat": est.c_hat,
    }
    _emit(args, summary, ["step", "bound"], [range(len(est.steps)), est.steps])
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """integral-discrepancy bound on sampled (measure, function) pairs"""
    A = io.load_matrix(args.matrix)
    scan = ratio_scan(A, args.samples, args.seed, depth=args.depth)
    summary = {
        "max_ratio": scan.max_ratio,
        "argmax_id": scan.argmax_id,
        "slope": scan.slope,
        "c_hat": scan.decay.c_hat,
        "C": scan.decay.C,
        "rho": scan.decay.rho,
        "samples": args.samples,
        "all_hold": scan.all_hold,
    }
    _emit(args, summary, *verify_table(scan))
    return 0 if scan.all_hold else 1


def _cmd_hole(args: argparse.Namespace) -> int:
    """survivor entropy and dimension data for every hole up to a depth"""
    A = io.load_matrix(args.matrix)
    scan = hole_family_scan(A, args.max_hole_depth, theta=args.theta)
    summary = {
        "fitted_c": scan.fitted_c,
        "argmin_word": word_str(scan.argmin_word, A.size),
        "log_lambda": scan.log_lambda,
        "theta": scan.theta,
        "monotonicity_violations": [
            [word_str(a, A.size), word_str(b, A.size)]
            for a, b in scan.monotonicity_violations
        ],
    }
    _emit(args, summary, *hole_table(A, scan))
    ok = scan.fitted_c > 0 and not scan.monotonicity_violations
    return 0 if ok else 1


def _cmd_model_dim(args: argparse.Namespace) -> int:
    """dimension bound for a metric hole in an expanding interval map"""
    model = io.load_model(args.model)
    report = exceptional_dimension_bound(model, args.x0, args.delta)
    cover = report.cover
    cells = cover.cells
    columns = [[word_str(c.word, model.transition.size) for c in cells],
               ["inner"] * len(cover.inner) + ["outer"] * len(cover.outer),
               [c.lo for c in cells], [c.hi for c in cells], report.cell_measures]
    summary = {
        "x0": cover.x0,
        "delta": cover.delta,
        "depth": cover.depth,
        "inner_count": len(cover.inner),
        "outer_count": len(cover.outer),
        "outer_measure": report.outer_measure,
        "survivor_lambda": report.pruned.survivor_lambda,
        "h_plus": report.h_plus,
        "bound": report.bound,
        "trivial": not cover.inner,
        "theta0": model.theta0,
        "Theta": model.cap_theta,
        "log_lambda": report.log_lambda,
    }
    header = ["word", "role", "interval_lo", "interval_hi", "parry_measure"]
    _emit(args, summary, header, columns)
    return 0 if report.h_plus <= report.log_lambda + 1e-12 else 1


# Each subcommand's handler and the flags it reads, besides --out.
_COMMANDS = {
    "analyze": (_cmd_analyze, ("--matrix", "--depth")),
    "entropy": (_cmd_entropy, ("--matrix", "--samples", "--seed", "--tol")),
    "pinsker": (_cmd_pinsker, ("--samples", "--seed")),
    "transfer-decay": (_cmd_transfer_decay, ("--matrix", "--depth")),
    "verify": (_cmd_verify, ("--matrix", "--depth", "--samples", "--seed")),
    "hole": (_cmd_hole, ("--matrix", "--theta", "--max-hole-depth")),
    "model-dim": (_cmd_model_dim, ("--model", "--x0", "--delta")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared for the life of the
    process: callers parse with it and never add to it."""
    parser = argparse.ArgumentParser(
        prog="sftbounds",
        description="Entropy gaps, transfer-operator decay, and dimension bounds "
        "for subshifts of finite type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        for flag in flags + ("--out",):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    given = vars(args)  # a flag the subcommand lacks passes its check
    try:
        if given.get("samples", 1) < 1:
            raise InputError(f"samples must be at least 1, got {args.samples}")
        if given.get("seed", 0) < 0:
            raise InputError(f"seed must be nonnegative, got {args.seed}")
        if given.get("depth", 1) < 1:
            raise InputError(f"depth must be at least 1, got {args.depth}")
        tol = given.get("tol", 1.0)
        if not (math.isfinite(tol) and tol > 0.0):
            raise InputError(f"tol must be finite and positive, got {tol}")
        return _COMMANDS[args.command][0](args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (InputError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical error: {exc} (residual {exc.residual})", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
