"""Forbidden-cylinder holes: higher-block pruning, survivor entropy as a spectral
radius, and dimension upper bounds for the set of orbits avoiding the hole.

A cylinder of a depth-k word is exactly the theta-metric ball of radius
theta**-k about any of its points, so symbolic holes are cylinders.

The pruned k-block graph is stored as a successor table (each state has at
most one successor per symbol), never as a dense float matrix. Its spectral
radius comes from a power iteration over all strongly connected components at
once; each component stops on the width of its own Collatz-Wielandt bracket,
a proven enclosure of the Perron root (Lind-Marcus, Symbolic Dynamics and
Coding, Ch. 4). The components come from `sft._strong_components`, a numpy
forward-backward colouring of the same table, so no sparse-matrix library is
needed.

A hole scan never builds a block table. The sequences that avoid one word w
of depth k are the paths of w's prefix automaton: a state is (l, a), with l the
length of the longest suffix of the block read so far that is a prefix of w
(at most k - 1) and a its last symbol, so there are k + s - 1 states, and
symbol c moves along the Knuth-Morris-Pratt transition. Mapping each state of
the k-block graph minus w onto its (l, a) is an exact lumping: every symbol
leads states of one class into one class, each cycle of the automaton lifts to
a cycle of the block graph (after k symbols a block state is its last k
symbols), and an edge from a state on a cycle stays in its strongly connected
component exactly when its image does. So each component on a cycle iterates
on the same bits, in the same order, on both graphs, states on no cycle give 0
on both, and the radii are bit-identical to `higher_block_prune`. The scan
stacks the automata of a depth's words, up to HOLE_CHUNK_STATES automaton
states at a time, into one block-diagonal table and solves it in a single
batched iteration; a word's radius is the max over its block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError
from .measures import cylinder_measure_vector, parry_measure
from .sft import (
    MetricParams,
    TransitionMatrix,
    Word,
    _path_count,
    _strong_components,
    is_admissible,
    word_array,
    word_codes,
)
from .spectral import perron_eigendata

PRUNE_STATE_CEILING = 50_000
# Most automaton states one batched solve in hole_family_scan stacks (a word
# of depth k has k + s - 1); it bounds that solve's working set.
HOLE_CHUNK_STATES = 4096


@dataclass(frozen=True)
class PrunedSystem:
    """Higher-block presentation on k-words with the forbidden states removed.

    `states` are the surviving k-words in lexicographic order. The read-only
    `(len(states), size)` table `successors` is the whole graph: entry [i, c] is
    the index of state `states[i][1:] + (c,)`, or -1 when there is none.
    `survivor_lambda` is its spectral radius, 0.0 when no orbit survives.
    `matrix` is the dense read-only int8 adjacency, built on first use.
    """

    block_length: int
    states: tuple[Word, ...]
    successors: np.ndarray
    survivor_lambda: float

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        n = len(self.states)
        mat = np.zeros((n, n), dtype=np.int8)
        rows, cols = np.nonzero(self.successors >= 0)
        mat[rows, self.successors[rows, cols]] = 1
        mat.setflags(write=False)
        return mat


def _component_radii(succ: np.ndarray, tol: float = 1e-13, max_iter: int = 100_000) -> np.ndarray:
    """Perron root of the strongly connected component of each state of a
    successor table's graph (0 for a state on no cycle).

    Every component is iterated at once. On a component with adjacency M,
    y = (M + I) x is one gather per symbol, and M + I is primitive there
    whatever the period of M. For positive x the Collatz-Wielandt bracket
    min(y/x) <= lambda + 1 <= max(y/x) over the component holds and shrinks
    to a point. A component stops at the first step its bracket width is at
    most tol * max(y/x), with the midpoint minus 1, and leaves the iteration;
    the others go on with x = y / max(y/x). Each component thus takes the
    same steps, and ends on the same bits, as when iterated alone.
    """
    n = succ.shape[0]
    if n == 0:
        return np.zeros(0)
    labels = _strong_components(succ)
    ncomp = int(labels.max()) + 1
    # Sorted by component, the active states form one run per component.
    # Edges that leave a component, like the -1 padding, gather the zero kept
    # at the end of the iterate. Each symbol's targets are one contiguous
    # column, so the gathers read them in order.
    order = np.argsort(labels, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    nxt = succ[order]
    sub = np.where((nxt >= 0) & (labels[nxt] == labels[order, None]), pos[nxt], -1)
    cols = [np.ascontiguousarray(c) for c in sub.T]
    comp = np.arange(ncomp)  # the active components, in run order
    sizes = np.bincount(labels, minlength=ncomp)
    starts = np.cumsum(sizes) - sizes
    radii = np.empty(ncomp)
    x = np.ones(n + 1)
    x[-1] = 0.0
    for _ in range(max_iter):
        y = x[cols[0]]
        for c in cols[1:]:
            y += x[c]
        y += x[:-1]
        ratio = y / x[:-1]
        lo = np.minimum.reduceat(ratio, starts)
        hi = np.maximum.reduceat(ratio, starts)
        done = hi - lo <= tol * hi
        radii[comp[done]] = 0.5 * (lo[done] + hi[done]) - 1.0
        if done.all():
            return radii[labels]
        y /= np.repeat(hi, sizes)
        if done.any():
            alive = np.repeat(~done, sizes)
            # Whole components leave, so live states point only at live ones.
            renumber = np.append(np.cumsum(alive) - 1, -1)
            cols = [renumber[c[alive]] for c in cols]
            y = y[alive]
            comp, sizes = comp[~done], sizes[~done]
            starts = np.cumsum(sizes) - sizes
            x = np.empty(len(y) + 1)
            x[-1] = 0.0
        x[:-1] = y
    raise ConvergenceError(
        f"spectral radius iteration stalled on {len(comp)} of {ncomp} components",
        residual=float((hi - lo)[~done].max()),
    )


def prune_words(A: TransitionMatrix, words, block_length: int | None = None) -> PrunedSystem:
    """Forbid the cylinders of `words` via the k-block presentation.

    States are admissible k-words minus those starting with a forbidden word;
    a -> b is allowed when the windows overlap in k-1 symbols. With no words
    this is the plain k-block presentation (block_length then required).
    Refused when there are more than PRUNE_STATE_CEILING admissible k-words.
    """
    forb = [tuple(w) for w in words]
    for w in forb:
        if not is_admissible(A, w):
            raise InputError(f"forbidden word {w} is not admissible")
    if block_length is None:
        if not forb:
            raise InputError("block_length is required when no words are pruned")
        block_length = max(len(w) for w in forb)
    k = block_length
    if k < 1:
        raise InputError(f"block length must be at least 1, got {k}")
    if any(len(w) > k for w in forb):
        raise InputError("forbidden words longer than the block length")
    s = A.size
    codes = word_codes(A, k, ceiling=PRUNE_STATE_CEILING)
    weights = s ** np.arange(k - 1, -1, -1)
    keep = np.ones(len(codes), dtype=bool)
    for w in forb:
        keep &= codes // weights[len(w) - 1] != np.dot(w, weights[k - len(w):])
    states = tuple(map(tuple, word_array(A, k, PRUNE_STATE_CEILING)[keep].tolist()))
    codes = codes[keep]
    # Successor of a by c is a[1:] + c; a -1 sentinel marks codes not found.
    targets = (codes % s ** (k - 1) * s)[:, None] + np.arange(s)
    pos = np.searchsorted(codes, targets)
    found = (np.append(codes, -1)[pos] == targets) & (A.array[codes % s] == 1)
    succ = np.where(found, pos, -1)
    succ.setflags(write=False)
    radius = float(_component_radii(succ).max(initial=0.0))
    return PrunedSystem(k, states, succ, radius)


def _hole_radii(A: TransitionMatrix, words: np.ndarray) -> np.ndarray:
    """Entry i: the spectral radius of A's sequences that avoid the word
    `words[i]`, one row per word of a common depth k, from its prefix
    automaton (see the module docstring).

    States (0, a) come first, in symbol order, then l = 1..k-1. Symbol c leads
    from (l, a) to (delta(l, c), c), delta the Knuth-Morris-Pratt transition,
    with no edge when A[a, c] = 0 or delta(l, c) = k. The automata of up to
    HOLE_CHUNK_STATES states' worth of words are built only when their chunk
    is solved.
    """
    n, k = words.shape
    s = A.size
    q = k + s - 1
    length = np.concatenate([np.zeros(s, dtype=np.intp), np.arange(1, k)])
    sym = np.arange(s)
    m = max(1, HOLE_CHUNK_STATES // q)
    out = []
    for first in range(0, n, m):
        w = words[first:first + m]
        rows = np.arange(len(w))
        # KMP: delta[i, l, c] for l < k; border is the longest proper border
        # of w[:l], so delta(l, c) = delta(border, c) unless c = w[l].
        delta = np.zeros((len(w), k, s), dtype=np.intp)
        delta[rows, 0, w[:, 0]] = 1
        border = np.zeros(len(w), dtype=np.intp)
        for ell in range(1, k):
            delta[:, ell] = delta[rows, border]
            delta[rows, ell, w[:, ell]] = ell + 1
            border = delta[rows, border, w[:, ell]]
        # State j of a word is (length[j], last[:, j]).
        last = np.concatenate([np.broadcast_to(sym, (len(w), s)), w[:, :k - 1]], axis=1)
        step = delta[:, length]
        target = np.where(step == 0, sym, s - 1 + step) + q * rows[:, None, None]
        table = np.where((step < k) & (A.array[last] == 1), target, -1)
        out.append(_component_radii(table.reshape(-1, s)).reshape(len(w), q).max(axis=1))
    return np.concatenate(out)


def higher_block_prune(A: TransitionMatrix, w) -> PrunedSystem:
    """Remove the single state of `w` from its own block presentation."""
    return prune_words(A, [tuple(w)])


def survivor_entropy(ps: PrunedSystem) -> float:
    """log of the pruned spectral radius; -inf when nothing survives."""
    if ps.survivor_lambda <= 0.0:
        return float("-inf")
    return float(np.log(ps.survivor_lambda))


def pruned_word_count(ps: PrunedSystem, n: int) -> int:
    """Exact number of admissible n-symbol words avoiding the pruned cylinders.

    An n-word corresponds to a path on n - k + 1 block states, so n >= k.
    Integer arithmetic throughout.
    """
    k = ps.block_length
    if n < k:
        raise InputError(f"need n >= block length {k}, got {n}")
    return _path_count(ps.successors, n - k)


def dim_upper_bound(h: float, log_lambda: float, dim_m: float, log_theta_cap: float) -> float:
    """dim_m - (log_lambda - h) / log_theta_cap.

    In pure symbolic mode pass dim_m = log_lambda / log(theta) and
    log_theta_cap = log(theta), which reduces to h / log(theta).
    """
    if log_theta_cap <= 0.0:
        raise InputError(f"log of the expansion cap must be positive, got {log_theta_cap}")
    if h > log_lambda + 1e-12:
        raise InputError(f"survivor entropy {h} exceeds log lambda {log_lambda}")
    return dim_m - (log_lambda - h) / log_theta_cap


@dataclass(frozen=True)
class HoleRow:
    word: Word
    depth: int
    delta: float
    measure: float
    survivor_lambda: float
    gap: float
    per_hole_c: float


@dataclass(frozen=True)
class HoleFamilyScan:
    rows: tuple[HoleRow, ...]
    fitted_c: float
    argmin_word: Word
    monotonicity_violations: tuple[tuple[Word, Word], ...]
    log_lambda: float
    theta: float


def hole_family_scan(
    A: TransitionMatrix,
    max_depth: int,
    params: MetricParams = MetricParams(),
) -> HoleFamilyScan:
    """Prune every admissible hole word up to max_depth; report per-hole entropy
    gaps, the largest c with gap >= c * delta^2 * measure^2 across the family,
    and any extension-monotonicity violations (none expected: forbidding an
    extension removes less)."""
    if max_depth < 1:
        raise InputError(f"max depth must be at least 1, got {max_depth}")
    # Counts never decrease with depth (every word has a successor): refuse the
    # deepest word array before any shallower depth is solved.
    word_codes(A, max_depth, ceiling=PRUNE_STATE_CEILING)
    eig = perron_eigendata(A)
    m = parry_measure(A, eig)
    log_lam = float(np.log(eig.lam))
    outdegree = A.array.sum(axis=1)
    rows = []
    violations = []
    for k in range(1, max_depth + 1):
        words = word_array(A, k, PRUNE_STATE_CEILING)
        radii = _hole_radii(A, words)
        measures = cylinder_measure_vector(m, k).tolist()
        start = len(rows)
        for w, lam, meas in zip(map(tuple, words.tolist()), radii.tolist(), measures):
            gap = log_lam - float(np.log(lam)) if lam > 0.0 else math.inf
            delta = params.theta ** (-k)
            rows.append(HoleRow(w, k, delta, meas, lam, gap, gap / (delta**2 * meas**2)))
        if k > 1:
            # The extensions of each depth-(k-1) word are contiguous rows of
            # this depth's lexicographic array, in ascending last symbol.
            parent = np.repeat(np.arange(len(up_radii)), outdegree[up_last])
            for i in np.flatnonzero(radii < up_radii[parent] - 1e-10).tolist():
                violations.append((rows[up_start + parent[i]].word, rows[start + i].word))
        up_start, up_last, up_radii = start, words[:, -1], radii
    fitted_c = min(r.per_hole_c for r in rows)
    argmin = min(rows, key=lambda r: r.per_hole_c).word
    return HoleFamilyScan(tuple(rows), fitted_c, argmin, tuple(violations),
                          log_lam, params.theta)
