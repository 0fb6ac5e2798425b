"""Output checks of one pass, run outside the timed region and sharing no code
with sftbounds.

Two kinds of result:
- `attempted`/`failed` count independent checks of what the program claims:
  every exit status, every `holds` flag of `verify`, every survivor radius
  against an eigensolve of an independently built pruned graph, and the
  inner/outer property of every ball cover.
- `mismatches` break the behaviour contract instead: `verify` rows that
  differ from the rows recorded from the unmodified library by more than
  1e-12, or outputs that are missing or malformed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import eigs

REF_TOL = 1e-12
RADIUS_TOL = 1e-9
DENSE_LIMIT = 64
ENDPOINT_TOL = 1e-12
COVER_MARGIN = 1e-9  # clear of the library's endpoint tolerance, so no ties


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _parse(word: str) -> tuple[int, ...]:
    return tuple(int(c) for c in word)


def block_words(rows, k: int) -> np.ndarray:
    """Admissible k-words of a 0/1 matrix as an (n, k) array, lexicographic."""
    A = np.asarray(rows, dtype=bool)
    W = np.arange(len(A)).reshape(-1, 1)
    for _ in range(k - 1):
        parent, sym = np.nonzero(A[W[:, -1]])
        W = np.column_stack([W[parent], sym])
    return W


def pruned_graph(rows, k: int, forbidden) -> csr_matrix:
    """k-block graph without the states of the length-k `forbidden` words:
    a -> b when b = a[1:] + c and a[-1] -> c is allowed."""
    A = np.asarray(rows, dtype=bool)
    s = len(A)
    weights = s ** np.arange(k - 1, -1, -1)
    W = block_words(rows, k)
    code = W @ weights
    banned = [int(np.dot(w, weights)) for w in forbidden]
    keep = ~np.isin(code, banned)
    W, code = W[keep], code[keep]
    n = len(code)
    src, sym = np.nonzero(A[W[:, -1]])
    nxt = (code[src] % s ** (k - 1)) * s + sym
    dst = np.minimum(np.searchsorted(code, nxt), max(n - 1, 0))
    ok = code[dst] == nxt if n else np.zeros(0, dtype=bool)
    return csr_matrix((np.ones(int(ok.sum())), (src[ok], dst[ok])), shape=(n, n))


def spectral_radius(M: csr_matrix) -> float:
    """Dense eigensolve up to DENSE_LIMIT states, ARPACK (k=1) above."""
    n = M.shape[0]
    if n == 0:
        return 0.0
    if n <= DENSE_LIMIT:
        return float(np.max(np.abs(np.linalg.eigvals(M.toarray()))))
    vals = eigs(M, k=1, which="LM", v0=np.ones(n), return_eigenvectors=False)
    return float(np.abs(vals[0]))


def _status(tally: Tally, run: dict) -> None:
    tally.check(run["status"] == 0, f"{run['name']}: exit status {run['status']}")


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REF_TOL * max(1.0, abs(b))


VERIFY_FIELDS = ("gap", "lhs", "seminorm", "ratio")


def check_scan(tally: Tally, out_dir: Path, runs: list[dict], reference, pool_seed: int) -> None:
    for run in runs:
        _status(tally, run)
        name = run["name"]
        if not name.startswith("verify-"):
            continue
        path = out_dir / f"{name}.csv"
        if not path.exists():
            tally.mismatches.append(f"{name}: no CSV written")
            continue
        rows = read_csv(path)
        ref = reference[f"{pool_seed}/{name}"]
        if len(rows) != len(ref):
            tally.mismatches.append(f"{name}: {len(rows)} rows, reference has {len(ref)}")
            continue
        for row, expected in zip(rows, ref):
            tally.check(row["holds"] == "true", f"{name} sample {row['sample_id']}: holds=false")
            got = [float(row[f]) for f in VERIFY_FIELDS]
            if not all(_close(a, b) for a, b in zip(got, expected)):
                tally.mismatches.append(
                    f"{name} sample {row['sample_id']}: {got} != reference {list(expected)}")


def check_holes(tally: Tally, out_dir: Path, runs: list[dict], matrices: dict, max_depth: dict) -> None:
    for run in runs:
        _status(tally, run)
        name = run["name"]
        path = out_dir / f"{name}.csv"
        if not path.exists():
            tally.mismatches.append(f"{name}: no CSV written")
            continue
        rows = read_csv(path)
        matrix = matrices[name]
        expected = sum(len(block_words(matrix, k)) for k in range(1, max_depth[name] + 1))
        if len(rows) != expected:
            tally.mismatches.append(f"{name}: {len(rows)} hole rows, expected {expected}")
        for row in rows:
            w = _parse(row["word"])
            truth = spectral_radius(pruned_graph(matrix, len(w), [w]))
            got = float(row["survivor_lambda"])
            tally.check(abs(got - truth) <= RADIUS_TOL,
                        f"{name} hole {row['word']}: survivor_lambda {got!r}, eigensolve {truth!r}")


def ball_segments(x0: float, delta: float, circle: bool) -> list[tuple[float, float]]:
    lo, hi = x0 - delta, x0 + delta
    if not circle:
        return [(max(lo, 0.0), min(hi, 1.0))]
    if lo < 0.0:
        return [(0.0, hi), (lo + 1.0, 1.0)]
    if hi > 1.0:
        return [(lo, 1.0), (0.0, hi - 1.0)]
    return [(lo, hi)]


def cylinder_intervals(branches, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[lo, hi] of the cylinder of each word (row of W): the points whose
    first len(word) visits follow the word, by pulling the last branch domain
    back through the earlier branches."""
    B = np.asarray(branches, dtype=float)  # rows (lo, hi, slope, intercept)
    lo, hi = B[W[:, -1], 0], B[W[:, -1], 1]
    for col in range(W.shape[1] - 2, -1, -1):
        d_lo, d_hi, slope, c = B[W[:, col]].T
        a, b = (lo - c) / slope, (hi - c) / slope
        lo, hi = np.maximum(np.minimum(a, b), d_lo), np.minimum(np.maximum(a, b), d_hi)
    return lo, hi


def _overlap(lo, hi, segments) -> np.ndarray:
    return np.max([np.minimum(hi, b) - np.maximum(lo, a) for a, b in segments], axis=0)


def _inside(lo, hi, segments, tol: float) -> np.ndarray:
    return np.any([(a - tol <= lo) & (hi <= b + tol) for a, b in segments], axis=0)


def check_model_dim(tally: Tally, out_dir: Path, runs: list[dict], models: dict, balls: dict) -> None:
    for run in runs:
        _status(tally, run)
        name = run["name"]
        summary_path, csv_path = out_dir / f"{name}.json", out_dir / f"{name}.csv"
        if not (summary_path.exists() and csv_path.exists()):
            tally.mismatches.append(f"{name}: no summary or CSV written")
            continue
        summary = json.loads(summary_path.read_text())
        rows = read_csv(csv_path)
        branches, matrix, circle = models[name]
        x0, delta = balls[name]
        segments = ball_segments(x0, delta, circle)
        depth = int(summary["depth"])
        W = block_words(matrix, depth)
        lo, hi = cylinder_intervals(branches, W)
        index = {tuple(int(x) for x in w): i for i, w in enumerate(W)}
        roles: dict[str, set] = {"inner": set(), "outer": set()}
        for r in rows:
            w = _parse(r["word"])
            roles[r["role"]].add(w)
            i = index.get(w)
            ok = i is not None and _close(float(r["interval_lo"]), lo[i]) and _close(float(r["interval_hi"]), hi[i])
            tally.check(ok, f"{name}: {r['role']} word {r['word']} has interval "
                            f"[{r['interval_lo']}, {r['interval_hi']}], not its cylinder")
            if ok and r["role"] == "inner":
                tally.check(bool(_inside(lo[i], hi[i], segments, ENDPOINT_TOL)),
                            f"{name}: inner cylinder {r['word']} leaves the ball")
            elif ok:
                tally.check(bool(_overlap(lo[i], hi[i], segments) > 0.0),
                            f"{name}: outer cylinder {r['word']} misses the ball")
        # every cylinder clearly inside (meeting) the ball must be inner (outer)
        words = [tuple(int(x) for x in w) for w in W]
        inside = _inside(lo, hi, segments, -COVER_MARGIN)
        meets = _overlap(lo, hi, segments) > COVER_MARGIN
        tally.check(all(words[i] in roles["inner"] for i in np.flatnonzero(inside)),
                    f"{name}: a cylinder inside the ball is missing from the inner cover")
        tally.check(all(words[i] in roles["outer"] for i in np.flatnonzero(meets)),
                    f"{name}: a cylinder meeting the ball is missing from the outer cover")
        inner = sorted(roles["inner"])
        graph = pruned_graph(matrix, depth, inner) if inner else pruned_graph(matrix, 1, [])
        truth = spectral_radius(graph)
        got = float(summary["survivor_lambda"])
        tally.check(abs(got - truth) <= RADIUS_TOL,
                    f"{name}: survivor_lambda {got!r}, eigensolve {truth!r}")
