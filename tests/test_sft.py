import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from helpers import brute_words, random_primitive_matrices
from sftbounds import (
    CeilingError,
    InputError,
    enumerate_words,
    full_shift,
    golden_mean_shift,
    hole_family_scan,
    is_admissible,
    predecessors,
    transition_matrix,
    word_array,
    word_count,
    word_str,
)
from sftbounds import sft
from sftbounds.sft import WORD_CEILING, _strong_components, prefix_rows, word_row, word_strs

GOLDEN = golden_mean_shift()
FULL2 = full_shift(2)


def test_full_shift_flags():
    flags = transition_matrix([[1, 1], [1, 1]])
    assert flags.irreducible and flags.primitive and flags.diagonal_ones


def test_golden_mean_flags():
    flags = transition_matrix([[1, 1], [1, 0]])
    assert flags.irreducible
    assert flags.primitive  # A^2 is strictly positive
    assert not flags.diagonal_ones


def test_period_two_cycle_not_primitive():
    flags = transition_matrix([[0, 1], [1, 0]])
    assert flags.irreducible
    assert not flags.primitive


def test_rejects_entries_outside_zero_one():
    with pytest.raises(InputError, match="0 or 1"):
        transition_matrix([[1, 2], [1, 1]])


def test_rejects_zero_row_distinctly():
    with pytest.raises(InputError, match="row 1"):
        transition_matrix([[1, 1], [0, 0]])


def test_rejects_zero_column_distinctly():
    with pytest.raises(InputError, match="column 1"):
        transition_matrix([[1, 0], [1, 0]])


def test_rejects_singleton_alphabet():
    with pytest.raises(InputError, match="at least 2"):
        transition_matrix([[1]])


def test_rejects_non_square():
    with pytest.raises(InputError, match="square"):
        transition_matrix([[1, 1, 0], [1, 1, 0]])


def test_full2_depth3_enumeration():
    words = enumerate_words(FULL2, 3)
    assert len(words) == 8
    assert words == tuple(sorted(brute_words(FULL2, 3)))


def test_golden_depth3_enumeration():
    words = enumerate_words(GOLDEN, 3)
    # oracle: filter all 2^3 tuples for the factor 11
    expected = tuple(sorted(brute_words(GOLDEN, 3)))
    assert words == expected
    assert [word_str(w, 2) for w in words] == ["000", "001", "010", "100", "101"]


def test_golden_depth2_count_is_entry_sum():
    assert word_count(GOLDEN, 2) == 3  # sum of entries of A
    assert len(enumerate_words(GOLDEN, 2)) == 3


def test_count_matches_integer_matrix_power():
    for A in random_primitive_matrices(4, (2, 3), seed=11):
        arr = np.array(A.rows, dtype=object)
        power = None
        for k in range(1, 7):
            if k == 1:
                expected = A.size
            else:
                power = arr if power is None else power @ arr
                expected = int(power.sum())
            assert word_count(A, k) == expected
            assert len(enumerate_words(A, k)) == expected


def test_exhaustive_cross_check_small_alphabets():
    mats = [FULL2, GOLDEN, full_shift(3)] + random_primitive_matrices(2, (3,), seed=5)
    for A in mats:
        for k in range(1, 7):
            assert set(enumerate_words(A, k)) == set(brute_words(A, k))
            assert all(is_admissible(A, w) for w in enumerate_words(A, k))
            W, words = word_array(A, k), sorted(brute_words(A, k))
            assert [tuple(row) for row in W.tolist()] == words
            assert not W.flags.writeable
            assert [word_row(A, w) for w in words] == list(range(len(words)))
            assert all(word_row(A, w) == -1 for w in itertools.product(range(A.size + 1), repeat=k)
                       if not is_admissible(A, w))


def test_word_count_is_exact_past_int64():
    assert word_count(full_shift(3), 60) == 3**60


def test_lexicographic_order():
    words = enumerate_words(GOLDEN, 4)
    assert list(words) == sorted(words)


def test_zero_length_rejected():
    with pytest.raises(InputError):
        enumerate_words(FULL2, 0)
    for k in (0, -1):
        with pytest.raises(InputError):
            word_count(FULL2, k)


def test_word_ceiling_guard():
    # 2^25 = 3.4e7 words, refused by their count before anything is allocated
    for words in (enumerate_words, word_array, lambda A, k: word_row(A, (0,) * k)):
        started = time.perf_counter()
        with pytest.raises(CeilingError, match="33554432 admissible words of length 25"):
            words(FULL2, 25)
        assert time.perf_counter() - started < 1.0


def cached_entries():
    return sum(w.size for w in sft._WORD_ARRAYS.values())


def test_word_array_cache_holds_at_most_the_ceiling(monkeypatch):
    # 2^19 19-words are 9961472 entries (76 MiB), just under the ceiling; the
    # arrays of depths 15-18 once stayed resident beside them, 149 MiB in all
    monkeypatch.setattr(sft, "_WORD_ARRAYS", {})
    for k in (19, 15, 16, 17, 18):
        W = word_array(FULL2, k)
        assert cached_entries() <= WORD_CEILING
        assert sft._WORD_ARRAYS[(FULL2, k)] is W
    assert (FULL2, 19) not in sft._WORD_ARRAYS


def test_word_array_cache_evicts_least_recently_used(monkeypatch):
    # under a budget of 1000 entries, depths 5 and 6 (160 and 384 entries)
    # fit together and depth 7 (896) fits alone; a repeated request that
    # stays in the budget gets the same array
    monkeypatch.setattr(sft, "_WORD_ARRAYS", {})
    monkeypatch.setattr(sft, "WORD_CEILING", 1000)
    first = word_array(FULL2, 5)
    assert word_array(FULL2, 5) is first
    six = word_array(FULL2, 6)
    assert word_array(FULL2, 5) is first  # 160 + 384 entries: both kept
    word_array(FULL2, 7)
    assert list(sft._WORD_ARRAYS) == [(FULL2, 7)] and cached_entries() == 896
    assert np.array_equal(word_array(FULL2, 6), six) and cached_entries() == 384
    for k in range(1, 8):
        word_array(FULL2, k)
        assert cached_entries() <= 1000


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_prefix_rows_index_each_words_prefix(k):
    for A in [FULL2, golden_mean_shift()] + random_primitive_matrices(15, (2, 3, 4), seed=k):
        rows = prefix_rows(A, k)
        assert np.array_equal(word_array(A, k - 1)[rows], word_array(A, k)[:, :-1])
        # the out-degree of each prefix's last symbol repeats its row
        up = word_array(A, k - 1)
        assert np.array_equal(rows, np.repeat(np.arange(len(up)), A.array.sum(axis=1)[up[:, -1]]))


def test_predecessors_full_shift():
    assert predecessors(FULL2, 0) == (0, 1)


def test_predecessors_golden():
    assert predecessors(GOLDEN, 1) == (0,)
    assert predecessors(GOLDEN, 0) == (0, 1)


def test_predecessors_out_of_range():
    with pytest.raises(InputError):
        predecessors(GOLDEN, 2)


def test_predecessors_nonempty_everywhere():
    for A in random_primitive_matrices(4, (2, 3, 4), seed=3):
        for j in range(A.size):
            assert len(predecessors(A, j)) > 0


def test_theta_must_exceed_one():
    # the word metric theta**-(common prefix length) needs a finite theta above 1
    for theta in (1.0, math.inf, math.nan):
        with pytest.raises(InputError, match=f"^theta must be finite and exceed 1, got {theta}$"):
            hole_family_scan(GOLDEN, 1, theta=theta)


def csgraph_components(succ):
    """Strong-component labels of a successor table's graph, by scipy."""
    n = succ.shape[0]
    src, col = np.nonzero(succ >= 0)
    graph = csr_matrix((np.ones(len(src)), (src, succ[src, col])), shape=(n, n))
    return connected_components(graph, directed=True, connection="strong")[1]


def assert_same_partition(got, want):
    """Equal partitions: the label pairs match one to one."""
    assert len(got) == len(want)
    pairs = set(zip(got.tolist(), want.tolist()))
    assert len(pairs) == len(set(got.tolist())) == len(set(want.tolist()))


@st.composite
def successor_tables(draw):
    """A -1-padded successor table, a block-diagonal stack of 1-3 random ones."""
    s = draw(st.integers(1, 3))
    blocks, base = [], 0
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 12))
        entries = draw(st.lists(st.integers(-1, max(n - 1, 0)), min_size=n * s, max_size=n * s))
        table = np.array(entries, dtype=np.int64).reshape(n, s)
        table = np.where((table < 0) | (n == 0), -1, table + base)
        blocks.append(table)
        base += n
    return np.concatenate(blocks)


def chain(n, step):
    """State i -> i + step where that is a state, as a one-column table."""
    nxt = np.arange(n) + step
    return np.where((nxt >= 0) & (nxt < n), nxt, -1)[:, None]


@given(successor_tables())
@example(np.zeros((0, 2), dtype=np.int64))
@example(np.array([[-1]]))
@example(np.array([[0]]))  # a self-loop
@example(np.array([[0, 1], [1, -1], [1, 0]]))
@example(chain(9, 1))
@example(chain(9, -1))
@example(np.vstack([chain(4, -1), np.arange(4, 8)[:, None] % 4 + 4]))
def test_strong_components_match_csgraph(succ):
    labels = _strong_components(succ)
    assert labels.shape == (succ.shape[0],)
    if succ.shape[0] == 0:
        return
    assert_same_partition(labels, csgraph_components(succ))
    # Numbered 0.. in order of their least state.
    firsts = [int(np.flatnonzero(labels == c)[0]) for c in range(labels.max() + 1)]
    assert firsts == sorted(firsts)


def test_irreducible_flag_matches_csgraph():
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(400):
        s = int(rng.integers(2, 8))
        arr = (rng.random((s, s)) < rng.uniform(0.15, 0.6)).astype(int)
        if not (arr.any(axis=0).all() and arr.any(axis=1).all()):
            continue
        want = connected_components(csr_matrix(arr), directed=True, connection="strong")[0] == 1
        assert transition_matrix(arr).irreducible == want, arr
        seen.add(bool(want))
    assert seen == {True, False}


def test_word_rendering_roundtrip():
    assert word_str((0, 1, 1), 2) == "011"
    assert word_str((3, 11), 12) == "3.11"


@given(st.integers(2, 13), st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=6), max_size=8))
@example(12, [[3, 11], [0], [11, 11, 1]])
def test_word_strs_equal_word_str(size, words):
    words = [[c % size for c in w] for w in words]
    width = max(map(len, words), default=1)
    padded = np.array([w + [-1] * (width - len(w)) for w in words], dtype=np.intp).reshape(-1, width)
    assert word_strs(padded, size) == [word_str(w, size) for w in words]


@pytest.mark.parametrize("n, text", [
    (0, "0"), (10**14, "100000000000000"), (10**14 + 1, "[15 digits]"),
    (10**30 - 1, "[30 digits]"), (10**30, "[31 digits]"), (2**15000, "[4516 digits]"),
], ids=["0", "1e14", "1e14+1", "1e30-1", "1e30", "2^15000"])  # str(2**15000) raises
def test_ceiling_counts_past_ceiling_squared_are_written_by_their_digits(n, text):
    assert sft._count_text(n) == text
