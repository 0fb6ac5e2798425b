"""One-sided subshifts of finite type: transition matrices, admissible words, the theta metric.

Everything is finite and exact: a word of length k stands for the cylinder of
sequences extending it, and all downstream quantities depend on finitely many
coordinates only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import CeilingError, InputError

Word = tuple[int, ...]

# Default cap on the number of words any single enumeration may produce.
WORD_CEILING = 10_000_000


@dataclass(frozen=True)
class StructureFlags:
    irreducible: bool
    primitive: bool
    diagonal_ones: bool


@dataclass(frozen=True)
class MetricParams:
    """Word metric d(x, y) = theta ** -t with t the length of the common prefix."""

    theta: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta > 1.0):
            raise InputError(f"theta must be finite and exceed 1, got {self.theta}")


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


def validate_structure(entries) -> StructureFlags:
    """Validate a 0/1 transition matrix and report its structure flags.

    Raises
    ------
    InputError
        for non-square input, size < 2, entries outside {0, 1}, or an all-zero
        row or column (a symbol with no continuation or no predecessor).
    """
    if isinstance(entries, TransitionMatrix):
        arr = np.asarray(entries.array)
    else:
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
    n_comp, _ = connected_components(csr_matrix(arr), directed=True, connection="strong")
    irreducible = bool(n_comp == 1)
    primitive = irreducible and _is_primitive(arr)
    diagonal_ones = bool((np.diag(arr) == 1).all())
    return StructureFlags(irreducible, primitive, diagonal_ones)


def transition_matrix(entries) -> TransitionMatrix:
    """Validate entries and build an immutable TransitionMatrix with flags."""
    flags = validate_structure(entries)
    arr = np.asarray(entries, dtype=np.int64)
    rows = tuple(tuple(int(x) for x in row) for row in arr)
    return TransitionMatrix(rows, flags.irreducible, flags.primitive, flags.diagonal_ones)


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


def _int_matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    n = len(x)
    return [
        [sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def word_count(A: TransitionMatrix, k: int) -> int:
    """Exact number of admissible k-words: the entry sum of A**(k-1), in integers."""
    if k < 1:
        raise InputError(f"word length must be at least 1, got {k}")
    return _word_count_cached(A, k)


@functools.lru_cache(maxsize=512)
def _word_count_cached(A: TransitionMatrix, k: int) -> int:
    if k == 1:
        return A.size
    base = [[int(x) for x in row] for row in A.rows]
    result = None
    power = base
    e = k - 1
    while e:
        if e & 1:
            result = power if result is None else _int_matmul(result, power)
        e >>= 1
        if e:
            power = _int_matmul(power, power)
    return sum(sum(row) for row in result)


@functools.lru_cache(maxsize=512)
def _enumerate_cached(A: TransitionMatrix, k: int) -> tuple[Word, ...]:
    succ = A.successor_sets
    out: list[Word] = []

    def extend(prefix: Word):
        if len(prefix) == k:
            out.append(prefix)
            return
        for j in succ[prefix[-1]]:
            extend(prefix + (j,))

    for i in range(A.size):
        extend((i,))
    return tuple(out)


def enumerate_words(A: TransitionMatrix, k: int, ceiling: int = WORD_CEILING) -> tuple[Word, ...]:
    """All admissible words of length k, in lexicographic order.

    The count equals the entry sum of A**(k-1); enumeration is refused when that
    count exceeds `ceiling`.
    """
    n = word_count(A, k)
    if n > ceiling:
        raise CeilingError(
            f"{n} admissible words of length {k} exceeds the ceiling {ceiling}"
        )
    return _enumerate_cached(A, k)


@functools.lru_cache(maxsize=512)
def word_index(A: TransitionMatrix, k: int) -> dict[Word, int]:
    return {w: i for i, w in enumerate(_enumerate_cached(A, k))}


def predecessors(A: TransitionMatrix, j: int) -> tuple[int, ...]:
    """Symbols i with an allowed transition i -> j."""
    if not 0 <= j < A.size:
        raise InputError(f"symbol {j} out of range 0..{A.size - 1}")
    return A.predecessor_sets[j]


def metric_distance(x, y, params: MetricParams) -> float:
    """theta ** -t where t is the agreement length of the two words.

    Words must have equal length L; identical words get t = L.
    """
    if len(x) != len(y):
        raise InputError(f"words must have equal length, got {len(x)} and {len(y)}")
    t = 0
    for a, b in zip(x, y):
        if a != b:
            break
        t += 1
    return params.theta ** (-t)


def word_str(word, size: int) -> str:
    """Render a word: digit string for alphabets up to 10, dot-separated otherwise."""
    if size <= 10:
        return "".join(str(int(c)) for c in word)
    return ".".join(str(int(c)) for c in word)


def parse_word(text: str, size: int) -> Word:
    if size <= 10 and "." not in text:
        symbols = tuple(int(c) for c in text.strip())
    else:
        symbols = tuple(int(part) for part in text.strip().split("."))
    if not symbols:
        raise InputError("empty word")
    if any(not (0 <= c < size) for c in symbols):
        raise InputError(f"word {text!r} has symbols outside 0..{size - 1}")
    return symbols
