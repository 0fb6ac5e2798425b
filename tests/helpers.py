"""Independent oracles and generators shared by the test modules.

The oracles here deliberately avoid the library's own code paths: brute-force
enumeration over symbol tuples, exact integer matrix powers, and closed forms.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from sftbounds import InputError, TransitionMatrix, transition_matrix

PHI = (1 + math.sqrt(5)) / 2


def brute_words(A: TransitionMatrix, k: int) -> list[tuple[int, ...]]:
    """All admissible k-words by filtering every tuple in the product alphabet."""
    out = []
    for cand in itertools.product(range(A.size), repeat=k):
        if all(A.rows[a][b] == 1 for a, b in zip(cand, cand[1:])):
            out.append(cand)
    return out


def brute_avoid_count(A: TransitionMatrix, forbidden: tuple[int, ...], n: int) -> int:
    """Admissible n-words without `forbidden` as a factor, by full enumeration."""
    f = tuple(forbidden)
    count = 0
    for cand in itertools.product(range(A.size), repeat=n):
        if any(A.rows[a][b] == 0 for a, b in zip(cand, cand[1:])):
            continue
        if any(cand[i : i + len(f)] == f for i in range(n - len(f) + 1)):
            continue
        count += 1
    return count


def dp_avoid_count(A: TransitionMatrix, forbidden: tuple[int, ...], n: int) -> int:
    """Admissible n-words without `forbidden` as a factor, by a window DP.

    State = last min(len(forbidden), n) - 1 symbols plus the incoming symbol;
    exact integer arithmetic.
    """
    f = tuple(forbidden)
    k = len(f)
    if n < k:
        return sum(1 for _ in brute_words(A, n))
    # states: admissible (k-1)-windows (or single symbols when k == 1)
    if k == 1:
        states = [(i,) for i in range(A.size) if (i,) != f]
        counts = {s: 1 for s in states}
        for _ in range(n - 1):
            new = {s: 0 for s in states}
            for s, c in counts.items():
                for j in range(A.size):
                    if A.rows[s[0]][j] and (j,) != f:
                        new[(j,)] += c
            counts = new
        return sum(counts.values())
    windows = brute_words(A, k - 1) if k > 1 else [()]
    counts = {w: 1 for w in windows}
    for _ in range(n - (k - 1)):
        new = {w: 0 for w in windows}
        for w, c in counts.items():
            for j in range(A.size):
                if not A.rows[w[-1]][j]:
                    continue
                if w + (j,) == f:
                    continue
                new[w[1:] + (j,)] += c
        counts = new
    return sum(counts.values())


def suffix_automaton(A: TransitionMatrix, forbidden) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """States and dense 0/1 adjacency of the automaton of A's sequences that
    avoid every word of `forbidden`, by tuple suffix search.

    States are the one-symbol words and the proper prefixes of forbidden
    words, less those with a forbidden factor, by length then lexicographic.
    Symbol c leads p to the longest state that is a suffix of p + (c,), with
    no edge where A forbids p[-1] -> c or p + (c,) ends in a forbidden word.
    """
    forb = {tuple(f) for f in forbidden}

    def clean(w):
        return not any(w[i:j] in forb for i in range(len(w)) for j in range(i + 1, len(w) + 1))

    cands = {(a,) for a in range(A.size)} | {f[:j] for f in forb for j in range(1, len(f))}
    states = sorted((w for w in cands if clean(w)), key=lambda w: (len(w), w))
    index = {w: i for i, w in enumerate(states)}
    mat = np.zeros((len(states), len(states)), dtype=np.int8)
    for p in states:
        for c in range(A.size):
            t = p + (c,)
            if A.rows[p[-1]][c] and not any(t[i:] in forb for i in range(len(t))):
                mat[index[p], index[next(t[i:] for i in range(len(t)) if t[i:] in index)]] = 1
    return states, mat


def random_primitive_matrices(count: int, sizes, seed: int) -> list[TransitionMatrix]:
    """Seeded stream of primitive 0/1 matrices with the given size choices."""
    rng = np.random.default_rng(seed)
    found: list[TransitionMatrix] = []
    while len(found) < count:
        s = int(rng.choice(list(sizes)))
        arr = (rng.random((s, s)) < 0.6).astype(int)
        try:
            A = transition_matrix(arr)
        except InputError:
            continue
        if A.primitive:
            found.append(A)
    return found


def bernoulli_entropy(p: float) -> float:
    terms = 0.0
    for x in (p, 1.0 - p):
        if x > 0:
            terms -= x * math.log(x)
    return terms
