import functools
import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from helpers import (
    PHI,
    brute_avoid_count,
    brute_words,
    dp_avoid_count,
    random_primitive_matrices,
    suffix_automaton,
)
from sftbounds import (
    CeilingError,
    ConvergenceError,
    InputError,
    enumerate_words,
    exceptional_dimension_bound,
    full_shift,
    golden_mean_shift,
    hole_family_scan,
    model_preset,
    perron_eigendata,
    prune_words,
    pruned_word_count,
    survivor_entropy,
    transition_matrix,
    word_count,
)
from sftbounds import holes
from sftbounds.measures import cylinder_measure_vector


def block_table(A, k, forb):
    """The k-block presentation that pruning used before automata, from
    tuples: admissible k-words not starting with a word of `forb` (k at least
    the longest), and the successor table of the k-1 symbol overlaps."""
    states = [w for w in brute_words(A, k) if not any(w[: len(f)] == f for f in forb)]
    index = {w: i for i, w in enumerate(states)}
    succ = [[index.get(a[1:] + (c,), -1) if A.rows[a[-1]][c] else -1 for c in range(A.size)]
            for a in states]
    return states, np.array(succ, dtype=np.intp).reshape(len(states), A.size)


def block_table_radius(A, k, forb):
    return holes._component_radii(block_table(A, k, forb)[1]).max(initial=0.0)


def hole_words(scan):
    """The hole words of a scan's rows as tuples, from its -1-padded word column."""
    return [tuple(w[:k]) for w, k in zip(scan.words.tolist(), scan.depth.tolist())]


SCAN_COLUMNS = ("words", "depth", "delta", "measure", "survivor_lambda", "gap", "per_hole_c")


def test_prune_11_gives_golden_survivor(full2):
    ps = prune_words(full2, [(1, 1)])
    assert ps.states == ((0,), (1,))
    assert abs(ps.survivor_lambda - PHI) <= 1e-9
    assert abs(survivor_entropy(ps) - math.log(PHI)) <= 1e-9


def test_prune_depth1_single_fixed_point(full2):
    ps = prune_words(full2, [(1,)])
    assert ps.states == ((0,),)
    assert ps.survivor_lambda == 1.0


def test_prune_to_empty_survivor(golden):
    # removing symbol 0 leaves only state 1, which has no self loop
    ps = prune_words(golden, [(0,)])
    assert ps.survivor_lambda == 0.0
    assert survivor_entropy(ps) == float("-inf")


def test_block_presentation_preserves_lambda(full2, eig_full2, golden, eig_golden):
    # With nothing forbidden the automaton is A's own graph on its symbols.
    for A, eig in ((full2, eig_full2), (golden, eig_golden)):
        ps = prune_words(A, [])
        assert ps.states == tuple((a,) for a in range(A.size))
        assert abs(ps.survivor_lambda - eig.lam) <= 1e-10


def test_prune_requires_admissible_word(golden):
    with pytest.raises(InputError):
        prune_words(golden, [(1, 1)])


def test_prune_refuses_past_the_state_ceiling(full2):
    # one word of 50001 symbols: an automaton of 2 + 50000 states
    with pytest.raises(CeilingError, match="50002 automaton states exceeds the ceiling 50000"):
        prune_words(full2, [(0,) * 50001])


def test_survivor_lambda_below_ambient(full2, eig_full2):
    for k in range(1, 5):
        for w in enumerate_words(full2, k):
            ps = prune_words(full2, [w])
            assert ps.survivor_lambda <= eig_full2.lam + 1e-12


def test_extension_monotonicity_exhaustive(full2, golden, full3):
    mats = [full2, golden, full3] + random_primitive_matrices(2, (3,), seed=33)
    for A in mats:
        radius = {}
        for k in range(1, 5):
            for w in enumerate_words(A, k):
                radius[w] = prune_words(A, [w]).survivor_lambda
        for w, lam_w in radius.items():
            if len(w) >= 4:
                continue
            for c in A.successor_sets[w[-1]]:
                ext = w + (c,)
                assert radius[ext] >= lam_w - 1e-10


def test_gap_positive_for_nonempty_holes(full2, golden, full3):
    for A in (full2, golden, full3):
        eig = perron_eigendata(A)
        for k in (1, 2):
            for w in enumerate_words(A, k):
                ps = prune_words(A, [w])
                gap = math.log(eig.lam) - survivor_entropy(ps)
                assert gap > 0.0


def test_word_counts_match_brute_force(full2, golden, full3):
    for A in (full2, golden, full3):
        for w_len in (1, 2, 3):
            for w in enumerate_words(A, w_len):
                ps = prune_words(A, [w])
                for n in range(w_len, 9):
                    expected = brute_avoid_count(A, w, n)
                    assert pruned_word_count(ps, n) == expected, (A.rows, w, n)


def test_growth_slope_at_thirty(full2, full3):
    cases = [(full2, (1, 1)), (full2, (0, 0)), (full3, (1, 2))]
    for A, w in cases:
        ps = prune_words(A, [w])
        n30 = pruned_word_count(ps, 30)
        n31 = pruned_word_count(ps, 31)
        slope = math.log(n31) - math.log(n30)
        assert abs(slope - survivor_entropy(ps)) <= 1e-3
        # independent recount without the block machinery
        assert dp_avoid_count(A, w, 30) == n30


def test_pruned_word_count_is_exact_past_int64(full2):
    # Binary words of length n without 11 number Fibonacci F(n + 2); F(102) > 2**63.
    fib = [0, 1]
    while len(fib) < 103:
        fib.append(fib[-1] + fib[-2])
    count = pruned_word_count(prune_words(full2, [(1, 1)]), 100)
    assert count == fib[102] > 2**63


def test_family_scan_full_shift(full2):
    scan = hole_family_scan(full2, 4)
    assert scan.fitted_c > 0.0
    assert not scan.monotonicity_violations
    i = hole_words(scan).index((1, 1))
    assert abs(scan.survivor_lambda[i] - PHI) <= 1e-9
    assert abs(scan.gap[i] - (math.log(2) - math.log(PHI))) <= 1e-9
    # oracle: gap * 256 from delta = m = 1/4
    assert abs(scan.per_hole_c[i] - (math.log(2) - math.log(PHI)) * 256) <= 1e-6
    assert scan.per_hole_c[i] <= 54.26


def test_family_scan_positive_c_everywhere(golden, full3):
    mats = [golden, full3] + random_primitive_matrices(2, (3,), seed=7)
    for A in mats:
        scan = hole_family_scan(A, 3)
        assert scan.fitted_c > 0.0
        assert not scan.monotonicity_violations
        assert scan.argmin_word in set(hole_words(scan))


@st.composite
def scan_cases(draw):
    A = random_primitive_matrices(1, (2, 3, 4), seed=draw(st.integers(0, 10_000)))[0]
    return A, draw(st.integers(1, 4))  # at most 4**4 = 256 block states


@given(scan_cases())
@example((golden_mean_shift(), 1))  # hole 0 leaves an empty survivor set
@example((full_shift(2), 2))  # hole 01 leaves reducible survivors
@example((full_shift(2), 6))  # self-overlapping holes 0000, 0101 and 0110
@example((golden_mean_shift(), 6))  # holds 100101
# Rows 1, 2 and 3 exclude a symbol, so a word starting with it has a
# one-symbol state with no edge on w[0].
@example((transition_matrix([[1, 1, 1, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]), 3))
def test_family_scan_matches_per_word_pruning(case):
    A, depth = case
    # Bit-equal to the k-block graph minus the word: the automaton is its exact lumping.
    scan = hole_family_scan(A, depth)
    for word, lam in zip(hole_words(scan), scan.survivor_lambda.tolist()):
        assert lam == block_table_radius(A, len(word), [word])


@pytest.mark.parametrize("budget", [1, 50])  # one word per solve; about ten automata per solve
def test_family_scan_rows_do_not_depend_on_chunking(monkeypatch, full3, budget):
    scan = hole_family_scan(full3, 3)
    monkeypatch.setattr(holes, "HOLE_CHUNK_STATES", budget)
    chunked = hole_family_scan(full3, 3)
    for name in SCAN_COLUMNS:
        assert getattr(chunked, name).tobytes() == getattr(scan, name).tobytes(), name
    assert (chunked.fitted_c, chunked.argmin_word) == (scan.fitted_c, scan.argmin_word)


@pytest.mark.parametrize("budget", [1, 50])
def test_family_scan_solves_respect_state_budget(monkeypatch, full3, budget):
    # A word of depth k has an (s + k - 2)-state automaton; no solve may stack
    # more states than the budget, or than one word's automaton.
    sizes = []
    solve = holes._component_radii

    def spy(succ):
        sizes.append(succ.shape[0])
        return solve(succ)

    monkeypatch.setattr(holes, "_component_radii", spy)
    monkeypatch.setattr(holes, "HOLE_CHUNK_STATES", budget)
    max_depth, s = 4, full3.size
    hole_family_scan(full3, max_depth)
    assert max(sizes) <= max(budget, s + max_depth - 2)
    assert sum(sizes) == sum(s**k * (s + k - 2) for k in range(1, max_depth + 1))


def test_family_scan_stacks_every_depth_in_one_solve(monkeypatch, full2):
    # full2 to depth 8: 3586 automaton states, under HOLE_CHUNK_STATES.
    sizes = []
    solve = holes._component_radii

    def spy(succ):
        sizes.append(succ.shape[0])
        return solve(succ)

    monkeypatch.setattr(holes, "_component_radii", spy)
    hole_family_scan(full2, 8)
    assert sizes == [sum(2**k * k for k in range(1, 9))]


def test_family_scan_full2_depth_12_completes(full2):
    scan = hole_family_scan(full2, 12)
    assert len(scan.depth) == 2**13 - 2
    assert not scan.monotonicity_violations


def test_family_scan_monotonicity_matches_dict_loop(monkeypatch, golden, full3):
    # Perturbed radii make violations; the scan must report the ones, in the
    # order, that a loop over every word and its one-symbol extensions finds.
    solve = holes._hole_radii
    rng = np.random.default_rng(5)

    def perturbed(A, words):
        return solve(A, words) * rng.uniform(0.9, 1.1, len(words))

    monkeypatch.setattr(holes, "_hole_radii", perturbed)
    mats = [(golden, 8), (full3, 4)] + [(A, 3) for A in random_primitive_matrices(2, (4,), seed=21)]
    for A, depth in mats:
        scan = hole_family_scan(A, depth)
        radius = dict(zip(hole_words(scan), scan.survivor_lambda.tolist()))
        expected = []
        for w, lam_w in radius.items():
            for c in A.successor_sets[w[-1]]:
                ext = w + (c,)
                if ext in radius and radius[ext] < lam_w - 1e-10:
                    expected.append((w, ext))
        assert expected
        assert scan.monotonicity_violations == tuple(expected)


def test_family_scan_refuses_state_ceiling_before_solving(monkeypatch, full2):
    # Depth 17 has 131072 > 50000 states; no depth may be built or solved first.
    def solve(*args):
        raise AssertionError("a depth was built or solved before the ceiling check")

    monkeypatch.setattr(holes, "_hole_radii", solve)
    monkeypatch.setattr(holes, "word_array", solve)
    with pytest.raises(CeilingError, match="131072 admissible words of length 17"):
        hole_family_scan(full2, 17)


def test_family_scan_refuses_successor_entries_before_building(monkeypatch):
    # full200 at depth 2 has 40200 words, under the word ceiling, but their
    # automata hold 1.6e9 successor entries: minutes of work
    def solve(*args):
        raise AssertionError("a depth was built or solved before the ceiling check")

    with monkeypatch.context() as patched:
        patched.setattr(holes, "_hole_radii", solve)
        patched.setattr(holes, "word_array", solve)
        with pytest.raises(CeilingError, match="hole automata with 1607960000 successor entries"):
            hole_family_scan(full_shift(200), 2)
    # full50 at depth 2, 6372500 entries, is under the ceiling and runs
    assert len(hole_family_scan(full_shift(50), 2).words) == 50 + 50**2


def test_family_scan_refuses_depth_zero(golden):
    with pytest.raises(InputError, match="max depth must be at least 1, got 0"):
        hole_family_scan(golden, 0)


def test_family_scan_includes_empty_survivors(golden):
    scan = hole_family_scan(golden, 1)
    i = hole_words(scan).index((0,))
    assert scan.survivor_lambda[i] == 0.0
    assert scan.gap[i] == float("inf")


def test_pruned_word_count_below_word_length(full2, golden):
    # Shorter than the word, every admissible n-word avoids it.
    ps = prune_words(full2, [(1, 1, 0, 1)])
    for n in range(1, 4):
        assert pruned_word_count(ps, n) == len(brute_words(full2, n))
    for A, forb in ((full2, [(1, 1, 0, 1)]), (golden, [(0, 1, 0, 0), (1, 0)]),
                    (full2, [(0, 1, 1, 0, 1), (1, 1, 1)])):
        ps = prune_words(A, forb)
        for n in range(1, 8):
            expected = sum(1 for w in brute_words(A, n)
                           if not any(w[i:i + len(f)] == f for f in forb for i in range(n)))
            assert pruned_word_count(ps, n) == expected, (forb, n)
    with pytest.raises(InputError):
        pruned_word_count(ps, 0)


def block_radius(mat):
    """Largest |eigenvalue| of a 0/1 matrix, by dense eigvals on each
    irreducible diagonal block. The blocks' spectra make up the whole
    spectrum, and each block's Perron root is simple. On the whole matrix, a
    radius shared by two chained blocks is a defective eigenvalue that eigvals
    only resolves to about sqrt(machine epsilon)."""
    _, labels = connected_components(mat, directed=True, connection="strong")
    radius = 0.0
    for comp in np.unique(labels):
        idx = np.flatnonzero(labels == comp)
        block = mat[np.ix_(idx, idx)].astype(float)
        radius = max(radius, float(np.abs(np.linalg.eigvals(block)).max()))
    return radius


def test_golden_100101_radius(golden):
    # The defect this pins: a Rayleigh-quotient stopping rule reported 1.6.
    ps = prune_words(golden, [(1, 0, 0, 1, 0, 1)])
    truth = float(np.abs(np.linalg.eigvals(ps.matrix.astype(float))).max())
    assert abs(truth - 1.5754491412403955) <= 1e-12
    assert abs(ps.survivor_lambda - 1.5754491412403955) <= 1e-12
    assert not hole_family_scan(golden, 7).monotonicity_violations


def test_radius_stall_reports_bracket_width(monkeypatch, full2):
    succ = prune_words(full2, [(1, 1)]).successors
    monkeypatch.setattr(holes, "RADIUS_MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as info:
        holes._component_radii(succ)
    assert info.value.residual > 1e-13


def compacting_radii(succ, tol=1e-13, max_iter=100_000):
    """`holes._component_radii` as it was before it stepped every component
    to the end: a component whose bracket closes leaves the iteration, and
    the tables of the rest are compacted. The residual of a stall is the
    widest open bracket of the last step, taken before that step's
    compaction (the compacted `hi` once met an uncompacted `lo` there)."""
    n = succ.shape[0]
    if n == 0:
        return np.zeros(0)
    labels = holes._strong_components(succ)
    ncomp = int(labels.max()) + 1
    order = np.argsort(labels, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    nxt = succ[order]
    sub = np.where((nxt >= 0) & (labels[nxt] == labels[order, None]), pos[nxt], -1)
    cols = [np.ascontiguousarray(c) for c in sub.T]
    comp = np.arange(ncomp)
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
        width = (hi - lo)[~done]
        if done.any():
            radii[comp[done]] = 0.5 * (lo[done] + hi[done]) - 1.0
            if done.all():
                return radii[labels]
            alive = np.repeat(~done, sizes)
            renumber = np.append(np.cumsum(alive) - 1, -1)
            cols = [renumber[c[alive]] for c in cols]
            y, hi = y[alive], hi[~done]
            comp, sizes = comp[~done], sizes[~done]
            starts = np.cumsum(sizes) - sizes
            x = np.empty(len(y) + 1)
            x[-1] = 0.0
        np.divide(y, np.repeat(hi, sizes), out=x[:-1])
    raise ConvergenceError(
        f"spectral radius iteration stalled on {len(comp)} of {ncomp} components",
        residual=float(width.max()),
    )


def radii_or_stall(succ, max_iter):
    """`holes._component_radii` and `compacting_radii` on one table, each
    stopped after max_iter steps: their radii bytes, or their stall."""
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(holes, "RADIUS_MAX_ITER", max_iter)
        for solve in (holes._component_radii, functools.partial(compacting_radii, max_iter=max_iter)):
            try:
                outcomes.append(solve(succ).tobytes())
            except ConvergenceError as exc:
                outcomes.append((str(exc), exc.residual))
    return outcomes


@st.composite
def successor_tables(draw):
    """Random successor tables: n states, s symbols, edges reaching at most
    `spread` states away, a share of -1 entries, and optionally a long cycle
    through a random subset of states and self-loops."""
    n = draw(st.integers(1, 300))
    s = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([1, 3, 20, n]))
    succ = (np.arange(n)[:, None] + rng.integers(-spread, spread + 1, (n, s))) % n
    succ[rng.random((n, s)) < draw(st.floats(0.0, 0.9))] = -1
    ring = rng.permutation(n)[:draw(st.integers(0, n))]
    succ[ring, 0] = np.roll(ring, -1)
    loops = np.flatnonzero(rng.random(n) < draw(st.floats(0.0, 0.5)))
    succ[loops, -1] = loops
    return succ.astype(np.intp)


# a self-loop closes at the first step, two golden-mean components stay open
STALL_AFTER_CLOSING = np.array([[0, -1], [1, 2], [1, -1], [3, 4], [3, -1]], dtype=np.intp)


@given(successor_tables())
@example(STALL_AFTER_CLOSING)
@example(np.array([[-1]], dtype=np.intp))
def test_component_radii_equal_the_compacting_loop(succ):
    # Components that share no edge step alike whether or not closed ones
    # stay in the batch, so radii, and stalls, keep their bits.
    for max_iter in (20_000, 2):
        ours, compacted = radii_or_stall(succ, max_iter)
        assert ours == compacted


def test_radius_stall_after_a_component_closes(monkeypatch):
    monkeypatch.setattr(holes, "RADIUS_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="stalled on 2 of 3 components") as info:
        holes._component_radii(STALL_AFTER_CLOSING)
    assert info.value.residual == 1.0


def test_successor_table_is_read_only(full2):
    ps = prune_words(full2, [(0, 1, 1)])
    assert ps.successors.shape == (len(ps.states), 2)
    assert not ps.successors.flags.writeable
    assert ps.matrix.dtype == np.int8 and not ps.matrix.flags.writeable


def test_long_words_need_no_word_codes():
    # Base-4 codes of 32 symbols overflow int64; the automaton reads symbols,
    # not codes, so a 32-word is pruned like any other.
    A = transition_matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]])
    w = enumerate_words(A, 32)[-1]
    ps = prune_words(A, [w])
    states, mat = suffix_automaton(A, [w])
    assert ps.states == tuple(states) and len(states) == A.size + 30
    np.testing.assert_array_equal(ps.matrix, mat)
    assert abs(ps.survivor_lambda - block_radius(mat)) <= 1e-9
    assert pruned_word_count(ps, 31) == word_count(A, 31)
    assert pruned_word_count(ps, 32) == word_count(A, 32) - 1


@st.composite
def pruning_cases(draw):
    A = random_primitive_matrices(1, (2, 3, 4), seed=draw(st.integers(0, 10_000)))[0]
    k = draw(st.integers(1, 5))
    assume(A.size**k <= 256)
    pool = [w for length in range(1, k + 1) for w in brute_words(A, length)]
    return A, k, draw(st.lists(st.sampled_from(pool), max_size=4))


@given(pruning_cases())
@example((golden_mean_shift(), 1, [(0,)]))  # empty survivor set
@example((full_shift(2), 2, [(0,), (1,)]))  # no states at all
@example((full_shift(2), 2, [(0, 1)]))  # reducible: three one-state components
def test_pruning_matches_brute_force(case):
    A, k, forb = case
    ps = prune_words(A, forb)
    states, succ = block_table(A, k, forb)
    # Bit-equal to the k-block table: the automaton is its exact lumping.
    assert ps.survivor_lambda == holes._component_radii(succ).max(initial=0.0)
    expected = np.array(
        [[a[1:] == b[:-1] and A.rows[a[-1]][b[-1]] == 1 for b in states] for a in states],
        dtype=np.int8,
    ).reshape(len(states), len(states))
    assert abs(ps.survivor_lambda - block_radius(expected)) <= 1e-9
    auto_states, auto = suffix_automaton(A, forb)
    assert ps.states == tuple(auto_states)
    np.testing.assert_array_equal(ps.matrix, auto)
    assert (survivor_entropy(ps) == -math.inf) == (ps.survivor_lambda == 0.0)
    for f in forb:
        single = prune_words(A, [f])
        for n in range(len(f), 6):
            assert pruned_word_count(single, n) == brute_avoid_count(A, f, n)


def test_doubling_delta_1e4_completes():
    # 32768 block states: the dense graph once asked for 8 GiB here.
    rep = exceptional_dimension_bound(model_preset("doubling"), 0.125, 1e-4)
    assert rep.cover.depth == 15
    k = rep.cover.depth
    inner = {int("".join(map(str, c.word)), 2) for c in rep.cover.inner}
    alive = np.array([c not in inner for c in range(2**k)])
    src = np.repeat(np.arange(2**k), 2)
    dst = (src * 2 + np.tile([0, 1], 2**k)) % 2**k
    ok = alive[src] & alive[dst]
    graph = scipy.sparse.csr_matrix((np.ones(ok.sum()), (src[ok], dst[ok])), shape=(2**k, 2**k))
    truth = float(np.abs(scipy.sparse.linalg.eigs(graph, k=1, which="LM", return_eigenvectors=False)).max())
    assert abs(rep.pruned.survivor_lambda - truth) <= 1e-9


def test_doubling_delta_1e6_completes():
    # 2^21 block states once refused this cover; its automaton has a few dozen.
    model = model_preset("doubling")
    rep = exceptional_dimension_bound(model, 0.125, 1e-6)
    assert rep.cover.depth == 21
    states, _ = suffix_automaton(model.transition, rep.cover.shortest_inner)
    assert rep.pruned.states == tuple(states) and len(states) < 100
    assert 0.0 < rep.pruned.survivor_lambda < 2.0 and rep.bound < 1.0
    _, mat = suffix_automaton(model.transition, [c.word for c in rep.cover.inner])
    assert abs(rep.pruned.survivor_lambda - block_radius(mat)) <= 1e-9


@functools.lru_cache(maxsize=None)
def _correlation_root(s, correlation):
    """Largest real root of (z - s) * c(z) + 1 at 40 digits, where c has the 0/1
    coefficients `correlation`, highest power first."""
    import mpmath  # only this oracle needs it
    coeffs = [0] * (len(correlation) + 1)
    for i, b in enumerate(correlation):
        coeffs[i] += b
        coeffs[i + 1] -= s * b
    coeffs[-1] += 1
    with mpmath.workdps(40):
        roots = mpmath.polyroots(coeffs, maxsteps=500, extraprec=200)
        return max(mpmath.re(r) for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** -15)


@pytest.mark.parametrize("s, max_depth", [(2, 8), (3, 5)])
def test_single_word_radii_match_correlation_polynomial(s, max_depth):
    # Guibas-Odlyzko (J. Combin. Theory A, 1981): the words of the full s-shift
    # avoiding one word w of length k grow like the largest real root of
    # (z - s) * c_w(z) + 1, c_w(z) = sum_j [w[j:] == w[:k-j]] z^(k-1-j) being
    # w's autocorrelation polynomial. w = 01 gives the double root z = 1.
    scan = hole_family_scan(full_shift(s), max_depth)
    assert len(scan.depth) == sum(s**k for k in range(1, max_depth + 1))
    for w, lam in zip(hole_words(scan), scan.survivor_lambda.tolist()):
        k = len(w)
        correlation = tuple(int(w[j:] == w[: k - j]) for j in range(k))
        truth = _correlation_root(s, correlation)
        assert abs(lam - truth) <= 1e-12 * truth, w


@pytest.mark.parametrize("theta", [2.0, 3.7])
def test_family_scan_columns_equal_per_row_formulas(golden, full3, theta):
    # Each row from Python floats, one at a time. The constant squares with
    # float ** (the C pow), which is not always the correctly rounded x * x
    # that an array square takes: on the two random matrices, 3 measures differ.
    cases = [(golden, 9), (full3, 4)]
    cases += [(random_primitive_matrices(1, (4,), seed=seed)[0], 4) for seed in (21, 31)]
    for A, depth in cases:
        scan = hole_family_scan(A, depth, theta=theta)
        eig = perron_eigendata(A)
        m = eig.parry
        log_lam = float(np.log(eig.lam))
        measures = np.concatenate([cylinder_measure_vector(m, k) for k in range(1, depth + 1)])
        expected = []
        for w, lam, meas in zip(hole_words(scan), scan.survivor_lambda.tolist(), measures.tolist()):
            gap = log_lam - float(np.log(lam)) if lam > 0.0 else math.inf
            delta = theta ** (-len(w))
            expected.append((len(w), delta, meas, gap, gap / (delta**2 * meas**2)))
        columns = (scan.depth, scan.delta, scan.measure, scan.gap, scan.per_hole_c)
        assert list(zip(*(c.tolist() for c in columns))) == expected
        assert not any(getattr(scan, name).flags.writeable for name in SCAN_COLUMNS)
        constants = [row[-1] for row in expected]
        first = constants.index(min(constants))
        assert (scan.fitted_c, scan.argmin_word) == (constants[first], hole_words(scan)[first])
