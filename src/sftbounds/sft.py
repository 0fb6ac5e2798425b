"""One-sided subshifts of finite type: transition matrices and admissible words.

Everything is finite and exact: a word of length k stands for the cylinder of
sequences extending it, and all downstream quantities depend on finitely many
coordinates only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CeilingError, InputError

Word = tuple[int, ...]

# Default cap on the words an enumeration may produce, the entries of a word
# array (words times length) and the values of a function stack (samples times words).
WORD_CEILING = 10_000_000


@dataclass(frozen=True)
class TransitionMatrix:
    """0/1 adjacency matrix over symbols 0..size-1, plus its structure flags.

    Instances are immutable and hashable; build them with :func:`transition_matrix`,
    which validates the entries and computes the flags.
    """

    rows: tuple[tuple[int, ...], ...]
    irreducible: bool
    primitive: bool
    diagonal_ones: bool

    @property
    def size(self) -> int:
        return len(self.rows)

    @functools.cached_property
    def array(self) -> np.ndarray:
        arr = np.array(self.rows, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    @functools.cached_property
    def successor_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(j for j, a in enumerate(row) if a) for row in self.rows
        )

    @functools.cached_property
    def predecessor_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(i for i in range(self.size) if self.rows[i][j])
            for j in range(self.size)
        )


def _wielandt_bound(s: int) -> int:
    # primitivity index of a primitive s x s matrix is at most s^2 - 2s + 2
    return s * s - 2 * s + 2


def _is_primitive(arr: np.ndarray) -> bool:
    # Repeated boolean squaring; once some power is strictly positive it stays
    # positive (no zero rows), so testing at the first power >= the bound suffices.
    bound = _wielandt_bound(arr.shape[0])
    power = (arr > 0).astype(np.int64)
    n = 1
    while True:
        if (power > 0).all():
            return True
        if n >= bound:
            return False
        power = ((power @ power) > 0).astype(np.int64)
        n *= 2


def transition_matrix(entries) -> TransitionMatrix:
    """Validate a 0/1 matrix and build an immutable TransitionMatrix with its
    structure flags.

    Raises
    ------
    InputError
        for non-square input, size < 2, entries outside {0, 1}, or an all-zero
        row or column (a symbol with no continuation or no predecessor).
    """
    arr = np.asarray(entries)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"transition matrix must be square, got shape {arr.shape}")
    s = int(arr.shape[0])
    if s < 2:
        raise InputError(f"alphabet size must be at least 2, got {s}")
    if not np.isin(arr, (0, 1)).all():
        raise InputError("transition matrix entries must all be 0 or 1")
    arr = arr.astype(np.int64)
    row_sums = arr.sum(axis=1)
    if (row_sums == 0).any():
        i = int(np.argmin(row_sums))
        raise InputError(f"row {i} is all zeros: symbol {i} has no admissible continuation")
    col_sums = arr.sum(axis=0)
    if (col_sums == 0).any():
        j = int(np.argmin(col_sums))
        raise InputError(f"column {j} is all zeros: symbol {j} has no admissible predecessor")
    irreducible = bool((_strong_components(np.where(arr > 0, np.arange(s), -1)) == 0).all())
    primitive = irreducible and _is_primitive(arr)
    diagonal_ones = bool((np.diag(arr) == 1).all())
    return TransitionMatrix(tuple(map(tuple, arr.tolist())), irreducible, primitive, diagonal_ones)


def full_shift(s: int) -> TransitionMatrix:
    """All-ones transition matrix on s symbols."""
    return transition_matrix(np.ones((s, s), dtype=int))


def golden_mean_shift() -> TransitionMatrix:
    """The two-symbol shift forbidding the factor 11."""
    return transition_matrix([[1, 1], [1, 0]])


def is_admissible(A: TransitionMatrix, word) -> bool:
    if len(word) == 0:
        return False
    if any(not (0 <= int(c) < A.size) for c in word):
        return False
    return all(A.rows[a][b] == 1 for a, b in zip(word, word[1:]))


def _path_count(succ: np.ndarray, steps: int) -> np.ndarray:
    """Exact number of paths of `steps` edges from each state of a successor
    table, as Python ints: entry [i, c] of `succ` is a successor of state i, or
    -1 for none. The -1 padding gathers the zero kept at the end of the counts."""
    counts = np.ones(succ.shape[0] + 1, dtype=object)
    counts[-1] = 0
    for _ in range(steps):
        counts[:-1] = counts[succ].sum(axis=1)
    return counts[:-1]


def _strong_components(succ: np.ndarray) -> np.ndarray:
    """Strongly connected component of each state of a successor table's graph
    (entry [i, c] of `succ` a successor of state i, or -1 for none), numbered
    0.. in order of their least state.

    Forward-backward colouring (Fleischer, Hendrickson and Pinar, "On
    identifying strongly connected components in parallel", 2000), all
    components of a round at once. Forward, f[u] is the least state reachable
    from u: min-label propagation over successors, with the pointer jump
    f = f[f], sound because f[u] is itself reachable from u. The states with
    f == r all reach r, and the component of r is those that r reaches inside
    that class: the states whose least in-class ancestor, by the same
    propagation backward over in-class edges, is r. Those components are
    removed and the rest goes round again.
    """
    n = succ.shape[0]
    root = np.empty(n, dtype=np.int64)  # least state of each state's component
    alive = np.arange(n)  # the open states, ascending, so local order is global order
    cols = [np.ascontiguousarray(c) for c in succ.T]
    while len(alive):
        local = np.arange(len(alive))
        f = np.append(local, len(alive))  # the -1 padding gathers this sentinel
        while True:
            g = f[:-1].copy()
            for c in cols:
                np.minimum(g, f[c], out=g)
            g = g[g]
            if (g == f[:-1]).all():
                break
            f[:-1] = g
        f = f[:-1]
        src, dst = np.tile(local, len(cols)), np.concatenate(cols)
        inside = (dst >= 0) & (f[src] == f[dst])
        src, dst = src[inside], dst[inside]
        b = local
        while True:
            g = b.copy()
            np.minimum.at(g, dst, b[src])
            g = g[g]
            if (g == b).all():
                break
            b = g
        done = b == f
        root[alive[done]] = alive[f[done]]
        # Edges into finished states become -1 padding, like the padding itself.
        renumber = np.append(np.where(done, -1, np.cumsum(~done) - 1), -1)
        cols = [renumber[c[~done]] for c in cols]
        alive = alive[~done]
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def word_count(A: TransitionMatrix, k: int) -> int:
    """Exact number of admissible k-words: the paths of k-1 steps on A."""
    if k < 1:
        raise InputError(f"word length must be at least 1, got {k}")
    return _word_count_cached(A, k)


@functools.lru_cache(maxsize=512)
def _word_count_cached(A: TransitionMatrix, k: int) -> int:
    return int(_path_count(np.where(A.array > 0, np.arange(A.size), -1), k - 1).sum())


def _check_ceiling(entries: int, what: str, ceiling: int = WORD_CEILING) -> None:
    """Refuse `what`, a request for `entries` words or values, with
    CeilingError when they pass `ceiling`; called before anything is allocated."""
    if entries > ceiling:
        raise CeilingError(f"{what} exceeds the ceiling {ceiling}")


def word_array(A: TransitionMatrix, k: int) -> np.ndarray:
    """All admissible k-words as the rows of a cached read-only (n, k) array, in
    lexicographic order; the one word layout the library reads. Refused, before
    anything is allocated, when n or n * k exceeds WORD_CEILING."""
    n = word_count(A, k)
    _check_ceiling(n, f"{n} admissible words of length {k}")
    _check_ceiling(n * k, f"{n} admissible words of length {k}: {n * k} entries")
    return _word_array_cached(A, k)


# The cached word arrays, least recently used first: WORD_CEILING entries at most.
_WORD_ARRAYS: dict[tuple[TransitionMatrix, int], np.ndarray] = {}


def _word_array_cached(A: TransitionMatrix, k: int) -> np.ndarray:
    W = _WORD_ARRAYS.pop((A, k), None)
    if W is None:
        held = sum(w.size for w in _WORD_ARRAYS.values()) + word_count(A, k) * k
        while held > WORD_CEILING and _WORD_ARRAYS:
            held -= _WORD_ARRAYS.pop(next(iter(_WORD_ARRAYS))).size
        # Each row is followed by its successors in ascending order, so extending
        # a lexicographic array keeps it lexicographic.
        W = np.arange(A.size)[:, None]
        for _ in range(k - 1):
            parent, sym = np.nonzero(A.array[W[:, -1]])
            W = np.column_stack([W[parent], sym])
        W.setflags(write=False)
    _WORD_ARRAYS[(A, k)] = W
    return W


def prefix_rows(A: TransitionMatrix, k: int) -> np.ndarray:
    """The row in `word_array(A, k - 1)` of the (k-1)-prefix of each row of
    `word_array(A, k)`, for k >= 2: each row extends its prefix, in order."""
    return np.nonzero(A.array[word_array(A, k - 1)[:, -1]])[0]


def enumerate_words(A: TransitionMatrix, k: int) -> tuple[Word, ...]:
    """All admissible words of length k, in lexicographic order: the rows of
    `word_array` as tuples. Refused when their count exceeds WORD_CEILING."""
    return tuple(map(tuple, word_array(A, k).tolist()))


def word_row(A: TransitionMatrix, word) -> int:
    """The row of `word` in `word_array(A, len(word))`, or -1, by bisection
    over its sorted columns; refused where `word_array` refuses."""
    W = word_array(A, len(word))
    lo, hi = 0, len(W)
    for t, c in enumerate(word):
        column = W[lo:hi, t]
        lo, hi = lo + int(np.searchsorted(column, c)), lo + int(np.searchsorted(column, c, "right"))
    return lo if lo < hi else -1


def predecessors(A: TransitionMatrix, j: int) -> tuple[int, ...]:
    """Symbols i with an allowed transition i -> j."""
    if not 0 <= j < A.size:
        raise InputError(f"symbol {j} out of range 0..{A.size - 1}")
    return A.predecessor_sets[j]


def _separator(size: int) -> str:
    """What stands between the symbols of a written word: nothing for
    alphabets up to 10 symbols, a dot otherwise."""
    return "" if size <= 10 else "."


def word_str(word, size: int) -> str:
    """Render a word: its symbols in decimal, joined by `_separator(size)`."""
    return _separator(size).join(str(int(c)) for c in word)


def word_strs(words: np.ndarray, size: int) -> list[str]:
    """`word_str` of each row of an int array of words, padded with -1 past
    each word's end, built a symbol column at a time."""
    first = np.array([word_str((c,), size) for c in range(size)])
    rest = np.array([_separator(size) + t for t in first.tolist()] + [""])  # -1 reads ""
    out = first[words[:, 0]]
    for column in words.T[1:]:
        out = np.char.add(out, rest[column])
    return out.tolist()
