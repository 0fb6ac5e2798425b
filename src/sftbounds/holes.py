"""Forbidden-cylinder holes: pruning on suffix automata, survivor entropy as a
spectral radius, and the entropy gaps of every hole word up to a depth.

A cylinder of a depth-k word is exactly the theta-metric ball of radius
theta**-k about any of its points, so symbolic holes are cylinders.

Forbidding a set F of words is done on the Aho-Corasick automaton of F (Aho and
Corasick, CACM 1975), never on a block table. Its states are the one-symbol
words and the nonempty proper prefixes of the words of F, less those that
contain a word of F; a state is the longest such suffix of the sequence read
so far. Symbol c leads state p to the longest such suffix of p + (c,), and
there is no edge where A forbids the last symbol of p -> c or where p + (c,)
ends in a word of F. For one word of length k this is the Knuth-Morris-Pratt
prefix automaton, with s + k - 2 states.

Each k-block state (k at least the longest word of F) maps onto the state its
k symbols lead to; this lumping is exact (Lind-Marcus, Symbolic Dynamics and
Coding, Ch. 2-4). Every symbol leads states of one class into one class. Each
cycle of the automaton lifts to a cycle of the block graph, since after k
symbols a block state is its last k symbols. An edge from a state on a cycle
stays in its strongly connected component exactly when its image does. So each
component on a cycle runs the same iteration on the same bits, in the same
symbol order, on both graphs; min and max over a component do not depend on
how its states are numbered; states on no cycle give 0 on both; and the radii
are bit-identical to the block table's.

The successor table (each state has at most one successor per symbol) is the
whole graph; no dense float matrix is built. Its spectral radius comes from a
power iteration over all strongly connected components at once; a component's
radius is read when the width of its own Collatz-Wielandt bracket, a proven
enclosure of the Perron root, is small enough (Lind-Marcus, Ch. 4). The
components come from `sft._strong_components`, a numpy forward-backward
colouring of the same table, so no sparse-matrix library is needed.

One builder, `_automata`, makes the automata of a batch of word sets as one
block-diagonal table. `prune_words` passes one set; a hole scan passes one
set per hole word, stacking the words of every depth, up to HOLE_CHUNK_STATES
automaton states at a time, and solves each stack in a single batched
iteration; a word's radius is the max over its block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InputError
from .measures import cylinder_measure_vector
from .sft import (
    TransitionMatrix,
    Word,
    _check_ceiling,
    _path_count,
    _strong_components,
    is_admissible,
    prefix_rows,
    word_array,
    word_count,
)
from .spectral import perron_eigendata

# Most automaton states prune_words builds, and most hole words of one depth.
PRUNE_STATE_CEILING = 50_000
# Most automaton states one batched solve in hole_family_scan stacks (a word
# of depth k has s + k - 2); it bounds that solve's working set.
HOLE_CHUNK_STATES = 4096
# Relative Collatz-Wielandt bracket width at which a spectral radius is read.
RADIUS_TOL = 1e-13
# Most steps the radius iteration runs before ConvergenceError.
RADIUS_MAX_ITER = 100_000


@dataclass(frozen=True)
class PrunedSystem:
    """The suffix automaton of a forbidden word set (see the module docstring).

    The read-only `(n, size)` table `successors` is the whole graph: entry
    [i, c] is the state symbol c leads state i to, or -1 when there is none.
    `survivor_lambda` is its spectral radius, 0.0 when no orbit survives.
    State i's word is the word of state `parents[i]` (none when -1) followed
    by `symbols[i]`. `states`, those words by length and then in lexicographic
    order (so the one-symbol states come first), and `matrix`, the dense
    read-only int8 adjacency, are built on first use.
    """

    successors: np.ndarray
    survivor_lambda: float
    parents: np.ndarray
    symbols: np.ndarray

    @functools.cached_property
    def states(self) -> tuple[Word, ...]:
        words: list[Word] = []
        for p, c in zip(self.parents.tolist(), self.symbols.tolist()):
            words.append((words[p] if p >= 0 else ()) + (c,))
        return tuple(words)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        n = len(self.successors)
        mat = np.zeros((n, n), dtype=np.int8)
        rows, cols = np.nonzero(self.successors >= 0)
        mat[rows, self.successors[rows, cols]] = 1
        mat.setflags(write=False)
        return mat


def _component_radii(succ: np.ndarray) -> np.ndarray:
    """Perron root of the strongly connected component of each state of a
    successor table's graph (0 for a state on no cycle).

    Every component is iterated at once. On a component with adjacency M,
    y = (M + I) x is one gather per symbol, and M + I is primitive there
    whatever the period of M. For positive x the Collatz-Wielandt bracket
    min(y/x) <= lambda + 1 <= max(y/x) over the component holds and shrinks
    to a point. Each step sets x = y / max(y/x). A component's radius is the
    midpoint minus 1 at the first step its bracket width is at most
    RADIUS_TOL * max(y/x); it keeps stepping, unread, until every bracket has
    closed. No edge joins two components, so each takes the same steps, and
    ends on the same bits, as when iterated alone.
    """
    n = succ.shape[0]
    if n == 0:
        return np.zeros(0)
    labels = _strong_components(succ)
    ncomp = int(labels.max()) + 1
    # Sorted by component, the states form one run per component. Edges that
    # leave a component, like the -1 padding, gather the zero kept at the end
    # of the iterate. Each symbol's targets are one contiguous column, so the
    # gathers read them in order.
    order = np.argsort(labels, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    nxt = succ[order]
    sub = np.where((nxt >= 0) & (labels[nxt] == labels[order, None]), pos[nxt], -1)
    cols = [np.ascontiguousarray(c) for c in sub.T]
    sizes = np.bincount(labels, minlength=ncomp)
    starts = np.cumsum(sizes) - sizes
    radii = np.empty(ncomp)
    unread = np.ones(ncomp, dtype=bool)
    x = np.ones(n + 1)
    x[-1] = 0.0
    for _ in range(RADIUS_MAX_ITER):
        y = x[cols[0]]
        for c in cols[1:]:
            y += x[c]
        y += x[:-1]
        ratio = y / x[:-1]
        lo = np.minimum.reduceat(ratio, starts)
        hi = np.maximum.reduceat(ratio, starts)
        closing = unread & (hi - lo <= RADIUS_TOL * hi)
        if closing.any():
            radii[closing] = 0.5 * (lo[closing] + hi[closing]) - 1.0
            unread &= ~closing
            if not unread.any():
                return radii[labels]
        np.divide(y, np.repeat(hi, sizes), out=x[:-1])
    raise ConvergenceError(
        f"spectral radius iteration stalled on {np.count_nonzero(unread)} of {ncomp} components",
        residual=float((hi - lo)[unread].max()),
    )


def _automata(A: TransitionMatrix, words: np.ndarray, owner: np.ndarray, sets: int):
    """The suffix automata of `sets` forbidden-word sets as one block-diagonal
    successor table (see the module docstring).

    Row i of `words` is a word of set owner[i] (owner ascending), padded with -1
    past its end. Returns the table and, per state, its set, its parent (the
    state of its word less the last symbol; -1 for a one-symbol state) and its
    last symbol. States come by set, then by length, then in lexicographic
    order.

    The trie is built one depth at a time, with a root per set whose children
    are all s symbols. A node's failure link, its longest proper suffix in the
    trie, is the transition of its parent's failure link on its symbol; a
    node's transition on c is its child on c, else its failure link's. Both
    look only at shallower nodes, which are done. A node is dead when it
    contains a forbidden word: when it is one, or its parent or its failure
    link is dead.
    """
    s = A.size
    lengths = np.count_nonzero(words >= 0, axis=1)
    total = sets * (1 + s) + int(np.maximum(lengths - 1, 0).sum())
    parent = np.empty(total, dtype=np.intp)
    sym = np.empty(total, dtype=np.intp)
    own = np.empty(total, dtype=np.intp)
    fail = np.empty(total, dtype=np.intp)
    dead = np.zeros(total, dtype=bool)
    delta = np.empty((total, s), dtype=np.intp)
    roots = np.arange(sets)
    lo, hi = sets, sets * (1 + s)  # the nodes of the current depth
    delta[:lo] = lo + roots[:, None] * s + np.arange(s)
    parent[lo:hi] = fail[lo:hi] = own[lo:hi] = np.repeat(roots, s)
    sym[lo:hi] = np.tile(np.arange(s), sets)
    node = lo + owner * s + words[:, 0]  # each word's node at the current depth
    dead[node[lengths == 1]] = True
    for d in range(2, int(lengths.max(initial=1)) + 1):
        rows = np.flatnonzero(lengths >= d)
        keys, inv = np.unique(node[rows] * s + words[rows, d - 1], return_inverse=True)
        new = np.arange(hi, hi + len(keys))
        par, c = keys // s, keys % s
        child = np.full((hi - lo, s), -1, dtype=np.intp)
        child[par - lo, c] = new
        delta[lo:hi] = np.where(child >= 0, child, delta[fail[lo:hi]])
        parent[new], sym[new], own[new] = par, c, own[par]
        fail[new] = delta[fail[par], c]
        dead[new] = dead[par] | dead[fail[new]]
        node[rows] = new[inv]
        dead[node[rows[lengths[rows] == d]]] = True
        lo, hi = hi, hi + len(keys)
    delta[lo:hi] = delta[fail[lo:hi]]
    alive = np.flatnonzero(~dead[sets:hi]) + sets
    order = alive[np.argsort(own[alive], kind="stable")]
    renumber = np.full(hi, -1, dtype=np.intp)
    renumber[order] = np.arange(len(order))
    succ = np.where(A.array[sym[order]] == 1, renumber[delta[order]], -1)
    return succ, own[order], renumber[parent[order]], sym[order]


def prune_words(A: TransitionMatrix, words) -> PrunedSystem:
    """Forbid the cylinders of `words` on their suffix automaton.

    With no words this is A's own graph on the one-symbol states. Refused when
    the automaton could have more than PRUNE_STATE_CEILING states.
    """
    forb = [tuple(w) for w in words]
    for w in forb:
        if not is_admissible(A, w):
            raise InputError(f"forbidden word {w} is not admissible")
    bound = A.size + sum(len(w) - 1 for w in forb)
    _check_ceiling(bound, "{} automaton states", bound, ceiling=PRUNE_STATE_CEILING)
    padded = np.full((len(forb), max(map(len, forb), default=1)), -1, dtype=np.intp)
    for i, w in enumerate(forb):
        padded[i, :len(w)] = w
    succ, _, parents, symbols = _automata(A, padded, np.zeros(len(forb), dtype=np.intp), 1)
    for a in (succ, parents, symbols):
        a.setflags(write=False)
    return PrunedSystem(succ, float(_component_radii(succ).max(initial=0.0)), parents, symbols)


def _hole_radii(A: TransitionMatrix, words: np.ndarray) -> np.ndarray:
    """Entry i: the spectral radius of A's sequences that avoid the word
    `words[i]` (a row padded with -1 past its end), from its own automaton.

    The automata of up to HOLE_CHUNK_STATES states' worth of consecutive words
    are built, stacked and solved at once; a chunk's table is built only when
    it is solved.
    """
    n = len(words)
    sizes = np.count_nonzero(words >= 0, axis=1) + A.size - 2
    ends = np.cumsum(sizes)
    out = np.zeros(n)
    first = 0
    while first < n:
        stop = int(np.searchsorted(ends, ends[first] - sizes[first] + HOLE_CHUNK_STATES, "right"))
        stop = max(stop, first + 1)
        succ, owner, _, _ = _automata(A, words[first:stop], np.arange(stop - first), stop - first)
        np.maximum.at(out[first:stop], owner, _component_radii(succ))
        first = stop
    return out


def survivor_entropy(ps: PrunedSystem) -> float:
    """log of the pruned spectral radius; -inf when nothing survives."""
    if ps.survivor_lambda <= 0.0:
        return float("-inf")
    return float(np.log(ps.survivor_lambda))


def pruned_word_count(ps: PrunedSystem, n: int) -> int:
    """Exact number of admissible n-symbol words avoiding the pruned cylinders:
    the paths of n - 1 steps from the one-symbol states, which come first.
    Integer arithmetic throughout.
    """
    if n < 1:
        raise InputError(f"word length must be at least 1, got {n}")
    ones = int(np.count_nonzero(ps.parents < 0))
    return int(_path_count(ps.successors, n - 1)[:ones].sum())


class HoleFamilyScan(NamedTuple):
    """Every admissible hole word up to a depth, as read-only columns aligned
    row by row: the words by depth and then in lexicographic order, as an
    (n, max_depth) int array padded with -1 past each word's end; each
    word's depth, radius delta = theta**-depth, Parry measure, survivor
    radius, entropy gap (inf when nothing survives) and per-hole constant
    gap / (delta**2 * measure**2)."""

    words: np.ndarray
    depth: np.ndarray
    delta: np.ndarray
    measure: np.ndarray
    survivor_lambda: np.ndarray
    gap: np.ndarray
    per_hole_c: np.ndarray
    fitted_c: float
    argmin_word: Word
    monotonicity_violations: tuple[tuple[Word, Word], ...]
    log_lambda: float
    theta: float


def hole_family_scan(
    A: TransitionMatrix,
    max_depth: int,
    theta: float = 2.0,
) -> HoleFamilyScan:
    """Prune every admissible hole word up to max_depth; report per-hole entropy
    gaps, the largest c with gap >= c * delta^2 * measure^2 across the family
    (the first minimising word), and any extension-monotonicity violations
    (none expected: forbidding an extension removes less), in row order.
    Refuses a theta of the word metric theta**-(common prefix length) that
    is not finite and above 1, or for which delta^2 * measure^2 underflows so
    far that a finite gap would get a non-finite per-hole constant, or, before
    any word array is built, more than WORD_CEILING automaton successor entries."""
    if not (math.isfinite(theta) and theta > 1.0):
        raise InputError(f"theta must be finite and exceed 1, got {theta}")
    if max_depth < 1:
        raise InputError(f"max depth must be at least 1, got {max_depth}")
    # Counts never decrease with depth (every word has a successor): refuse the
    # deepest depth's words before any word array is built.
    n = word_count(A, max_depth)
    _check_ceiling(n, "{} admissible words of length {}", n, max_depth, ceiling=PRUNE_STATE_CEILING)
    # The work: a depth-k word's automaton has s + k - 2 states of s successors.
    entries = sum(word_count(A, k) * (A.size + k - 2) * A.size for k in range(1, max_depth + 1))
    _check_ceiling(entries, "hole automata with {} successor entries", entries)
    eig = perron_eigendata(A)
    log_lam = float(np.log(eig.lam))
    arrays = [word_array(A, k) for k in range(1, max_depth + 1)]
    counts = [len(w) for w in arrays]
    words = np.concatenate([
        np.pad(w, ((0, 0), (0, max_depth - k)), constant_values=-1) for k, w in enumerate(arrays, 1)
    ])
    lam = _hole_radii(A, words)
    depth = np.repeat(np.arange(1, max_depth + 1), counts)
    deltas = [theta ** (-k) for k in range(1, max_depth + 1)]
    delta = np.repeat(deltas, counts)
    measure = np.concatenate([cylinder_measure_vector(eig.parry, k) for k in range(1, max_depth + 1)])
    gap = np.full(len(lam), math.inf)
    alive = lam > 0.0
    gap[alive] = log_lam - np.log(lam[alive])
    # gap / (delta**2 * measure**2) with Python's float **, the C pow, whose
    # square is not always the correctly rounded x * x that numpy would take.
    squares = np.array([x ** 2 for x in measure.tolist()])
    scale = np.repeat([d ** 2 for d in deltas], counts) * squares
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        per_hole_c = gap / scale
    lost = np.flatnonzero(np.isfinite(gap) & ~np.isfinite(per_hole_c))
    if len(lost):
        i = int(lost[0])
        raise InputError(
            f"theta {theta} is too large for depth {int(depth[i])}: delta**2 * measure**2 "
            f"= {float(scale[i])!r} for hole {_word(words, i)}, so its per-hole constant is not finite")
    # Each row's parent is its prefix, a row of the block one depth up.
    starts = np.cumsum(counts) - counts
    parent = np.concatenate([np.full(counts[0], -1)] + [
        start + prefix_rows(A, k) for k, start in enumerate(starts[:-1], 2)
    ])
    bad = np.flatnonzero((parent >= 0) & (lam < lam[parent] - 1e-10))
    violations = tuple((_word(words, parent[i]), _word(words, i)) for i in bad.tolist())
    argmin = int(np.argmin(per_hole_c))
    columns = (words, depth, delta, measure, lam, gap, per_hole_c)
    for a in columns:
        a.setflags(write=False)
    return HoleFamilyScan(*columns, float(per_hole_c[argmin]), _word(words, argmin), violations,
                          log_lam, theta)


def _word(words: np.ndarray, i: int) -> Word:
    """Row i of a -1-padded word array as a tuple."""
    row = words[i]
    return tuple(row[row >= 0].tolist())
