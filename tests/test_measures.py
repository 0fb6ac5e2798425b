import hashlib
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PHI, bernoulli_entropy, random_primitive_matrices
from sftbounds import (
    CeilingError,
    ConvergenceError,
    InputError,
    LocallyConstantFunction,
    centered,
    conditional_vectors,
    constant_function,
    cylinder_measure,
    entropy,
    enumerate_words,
    indicator,
    information_mean,
    integrate,
    markov_measure,
    parry_measure,
    perron_eigendata,
    random_function,
    sample_markov,
    sample_markov_batch,
    stationary_vector,
    transition_matrix,
)
from sftbounds import measures
from sftbounds.measures import (
    _BLOCK_CAP,
    _BLOCK_MIN,
    ROUNDING_ULPS,
    _generators,
    cylinder_measure_vector,
    dirichlet_kernels,
)


def bernoulli(p, A):
    return markov_measure([p, 1 - p], [[p, 1 - p], [p, 1 - p]], A)


def test_full_shift_parry_is_fair_bernoulli(full2, eig_full2):
    m = parry_measure(full2, eig_full2)
    assert np.allclose(m.stationary, 0.5, atol=1e-12)
    assert np.allclose(m.transition, 0.5, atol=1e-12)
    for w in enumerate_words(full2, 3):
        assert abs(cylinder_measure(m, w) - 0.125) <= 1e-12


def test_golden_parry_closed_form(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    assert abs(m.stationary[0] - (5 + math.sqrt(5)) / 10) <= 1e-12
    expected_q = np.array([[1 / PHI, 1 / PHI**2], [1.0, 0.0]])
    assert np.allclose(m.transition, expected_q, atol=1e-12)


def test_parry_rows_sum_to_one():
    for A in random_primitive_matrices(5, (2, 3, 4), seed=17):
        m = parry_measure(A, perron_eigendata(A))
        assert np.allclose(m.transition.sum(axis=1), 1.0, atol=1e-12)


def test_cylinder_product_matches_closed_form(golden, eig_golden, full2, eig_full2):
    for A, eig in ((golden, eig_golden), (full2, eig_full2)):
        m = parry_measure(A, eig)
        for k in range(1, 7):
            for w in enumerate_words(A, k):
                closed = eig.u[w[0]] * eig.v[w[-1]] / eig.lam ** (len(w) - 1)
                assert abs(cylinder_measure(m, w) - closed) <= 1e-12


def test_cylinder_bounds(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    a = min(ui * vj for ui in eig_golden.u for vj in eig_golden.v)
    b = max(ui * vj for ui in eig_golden.u for vj in eig_golden.v)
    for k in range(1, 7):
        for w in enumerate_words(golden, k):
            scale = eig_golden.lam ** -(len(w) - 1)
            assert a * scale - 1e-12 <= cylinder_measure(m, w) <= b * scale + 1e-12


def test_golden_depth1_cylinder(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    assert abs(cylinder_measure(m, (0, 0)) - PHI / (PHI + 2)) <= 1e-12
    assert abs(cylinder_measure(m, (0,)) - m.stationary[0]) <= 1e-15


def test_cylinder_additivity(golden, eig_golden):
    mu = sample_markov(golden, seed=42)
    for k in range(1, 5):
        for w in enumerate_words(golden, k):
            extensions = [w + (c,) for c in golden.successor_sets[w[-1]]]
            total = sum(cylinder_measure(mu, e) for e in extensions)
            assert abs(total - cylinder_measure(mu, w)) <= 1e-13


def test_inadmissible_cylinder_rejected(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    with pytest.raises(InputError):
        cylinder_measure(m, (1, 1))


def test_entropy_anchors(full2, eig_full2, golden, eig_golden):
    assert abs(entropy(bernoulli(0.5, full2)) - math.log(2)) <= 1e-12
    assert abs(entropy(parry_measure(golden, eig_golden)) - math.log(PHI)) <= 1e-10
    cycle = markov_measure([0.5, 0.5], [[0, 1], [1, 0]], golden)
    assert entropy(cycle) == 0.0


def test_entropy_matches_bernoulli_formula(full2):
    for p in (0.1, 0.3, 0.9):
        assert abs(entropy(bernoulli(p, full2)) - bernoulli_entropy(p)) <= 1e-12


def test_integrate_indicator_and_constant(full2, golden, eig_golden):
    mu = bernoulli(0.7, full2)
    assert abs(integrate(indicator(full2, (0,)), mu) - 0.7) <= 1e-12
    for A, m in ((full2, mu), (golden, sample_markov(golden, seed=9))):
        assert abs(integrate(constant_function(A, 3.25, depth=2), m) - 3.25) <= 1e-12


@pytest.mark.parametrize("depth, values, message", [
    (0, [1.0, 2.0], "depth must be at least 1, got 0"),
    (2, [1.0, 2.0, 3.0, 4.0], r"need 3 values for depth 2, got shape \(4,\)"),
    (2, [[[1.0, 2.0, 3.0]]], r"need 3 values for depth 2, got shape \(1, 1, 3\)"),
], ids=["depth-zero", "value-count", "three-dims"])
def test_locally_constant_function_refuses_bad_shapes(golden, depth, values, message):
    with pytest.raises(InputError, match=message):
        LocallyConstantFunction(golden, depth, np.array(values))


def test_integrate_requires_matching_support(full2, golden):
    f = indicator(full2, (0,))
    with pytest.raises(InputError):
        integrate(f, sample_markov(golden, seed=1))


def test_information_mean_full_shift(full2, eig_full2):
    # u is constant, so the information function is identically log 2
    for p in (0.2, 0.5, 0.9):
        assert abs(information_mean(bernoulli(p, full2), eig_full2) - math.log(2)) <= 1e-12


def test_information_mean_golden_parry(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    assert abs(information_mean(m, eig_golden) - math.log(PHI)) <= 1e-12


def test_information_mean_golden_cycle(golden, eig_golden):
    cycle = markov_measure([0.5, 0.5], [[0, 1], [1, 0]], golden)
    assert abs(information_mean(cycle, eig_golden) - math.log(PHI)) <= 1e-12


def test_information_mean_sampled(golden, eig_golden):
    log_lam = math.log(eig_golden.lam)
    for seed in range(30):
        mu = sample_markov(golden, seed=seed)
        assert abs(information_mean(mu, eig_golden) - log_lam) <= 1e-9


def test_conditional_vectors_full_shift(full2, eig_full2):
    m = parry_measure(full2, eig_full2)
    for j in (0, 1):
        p, q = conditional_vectors(m, eig_full2, j)
        assert np.allclose(p, 0.5, atol=1e-12)
        assert np.allclose(q, 0.5, atol=1e-12)


def test_conditional_vectors_golden(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    p, q = conditional_vectors(m, eig_golden, 1)
    assert p.shape == (1,)
    assert abs(p[0] - 1.0) <= 1e-12  # u0 / (lam u1) = phi / phi
    p0, q0 = conditional_vectors(m, eig_golden, 0)
    assert np.allclose(p0, q0, atol=1e-12)
    assert abs(p0.sum() - 1.0) <= 1e-12 and abs(q0.sum() - 1.0) <= 1e-12
    assert np.all(p0 > 0)


def test_conditional_vectors_sum_to_one(golden, eig_golden):
    for seed in range(10):
        mu = sample_markov(golden, seed=seed)
        for j in range(golden.size):
            p, q = conditional_vectors(mu, eig_golden, j)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert abs(q.sum() - 1.0) <= 1e-12


def test_conditional_rejects_null_fiber(golden, eig_golden):
    mu = markov_measure([1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]], golden)
    with pytest.raises(InputError):
        conditional_vectors(mu, eig_golden, 1)


def test_sampler_deterministic(golden):
    a = sample_markov(golden, seed=123)
    b = sample_markov(golden, seed=123)
    assert np.array_equal(a.stationary, b.stationary)
    assert np.array_equal(a.transition, b.transition)


def test_sampler_single_allowed_entry_is_point_mass(golden):
    mu = sample_markov(golden, seed=7)
    assert mu.transition[1, 0] == 1.0  # row 1 allows only symbol 0


def test_sampler_outputs_validate(golden, full3):
    for A in (golden, full3):
        for seed in range(20):
            mu = sample_markov(A, seed=seed)
            assert abs(mu.stationary.sum() - 1.0) <= 1e-12
            assert float(np.max(np.abs(mu.stationary @ mu.transition - mu.stationary))) <= 1e-12


def test_entropy_maximality(golden, eig_golden, full2, eig_full2):
    for A, eig in ((golden, eig_golden), (full2, eig_full2)):
        log_lam = math.log(eig.lam)
        m = parry_measure(A, eig)
        for seed in range(100):
            mu = sample_markov(A, seed=seed)
            gap = log_lam - entropy(mu)
            assert gap >= -1e-9
            if gap <= 1e-9:
                dist = max(
                    float(np.max(np.abs(mu.stationary - m.stationary))),
                    float(np.max(np.abs(mu.transition - m.transition))),
                )
                assert dist < 1e-6
        # the Parry measure itself is the positive control
        assert abs(entropy(m) - log_lam) <= 1e-9


from sftbounds import golden_mean_shift as _gms

_GOLDEN = _gms()
_GOLDEN_LOG_LAM = math.log(perron_eigendata(_GOLDEN).lam)


@given(st.integers(0, 10_000))
def test_sampled_measure_entropy_below_log_lambda(seed):
    mu = sample_markov(_GOLDEN, seed=seed)
    assert entropy(mu) <= _GOLDEN_LOG_LAM + 1e-9


def test_centered_has_zero_integral(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    f = random_function(golden, 3, seed=5)
    assert abs(integrate(centered(f, m), m)) <= 1e-14


def test_measure_json_roundtrip(golden):
    mu = sample_markov(golden, seed=3)
    data = json.loads(json.dumps({
        "stationary": list(mu.stationary),
        "transition": [list(row) for row in mu.transition],
    }))
    loaded = markov_measure(data["stationary"], data["transition"], golden)
    assert np.array_equal(loaded.stationary, mu.stationary)
    assert np.array_equal(loaded.transition, mu.transition)


def test_measure_json_rejects_unsupported_transition(golden):
    data = json.loads(json.dumps({
        "stationary": [0.5, 0.5],
        "transition": [[0.0, 1.0], [0.5, 0.5]],  # uses the forbidden 1 -> 1 edge
    }))
    with pytest.raises(InputError):
        markov_measure(data["stationary"], data["transition"], golden)


def test_stationarity_enforced(golden):
    with pytest.raises(InputError, match="stationary"):
        markov_measure([0.9, 0.1], [[0.5, 0.5], [1.0, 0.0]], golden)


# ---------- batched stationary solve and cylinder vectors ----------

def scalar_stationary(Q, tol=1e-14, max_iter=1_000_000):
    """One chain's power iteration, one step and one stop test at a time:
    (vector, stop rule, steps taken)."""
    n = Q.shape[0]
    x = np.full(n, 1.0 / n)
    inc_prev = np.inf
    drift = np.inf
    for steps in range(1, max_iter + 1):
        y = x @ Q
        y = y / y.sum()
        z = y @ Q
        drift = float(np.max(np.abs(z - y)))
        if drift <= tol:
            return y, "drift", steps
        inc = float(np.max(np.abs(y - x)))
        # tol=0 runs to the rounding floor, a few ulps of the largest entry
        width = 1e-12 if tol > 0 else ROUNDING_ULPS * np.finfo(float).eps * float(y.max())
        if inc >= inc_prev and inc <= 1e-12 and max(inc, np.max(np.abs(z / z.sum() - y))) <= width:
            return y, "cycle", steps
        inc_prev = inc
        x = y
    raise ConvergenceError("no convergence", residual=drift)


def slow_chain(s, p):
    """A nearly periodic kernel: golden [[p, 1-p], [1, 0]] for s = 2, a near 3-cycle for s = 3."""
    if s == 2:
        return np.array([[p, 1.0 - p], [1.0, 0.0]])
    return np.array([[p, 1.0 - p, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def fast_chain(s, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(s), size=s)


@settings(max_examples=12)
@given(
    st.sampled_from([2, 3]),
    st.lists(
        st.one_of(
            st.tuples(st.just("fast"), st.integers(0, 2**32)),
            # p = 1e-4 would take ~2e5 steps per chain; over this range both stop rules fire
            st.tuples(st.just("slow"), st.floats(-2.3, -1.3)),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_batched_stationary_rows_equal_single_chain_solves(s, chains):
    stack = np.array([
        fast_chain(s, arg) if kind == "fast" else slow_chain(s, 10.0 ** arg) for kind, arg in chains
    ])
    rows = stationary_vector(stack)
    assert rows.shape == (len(chains), s)
    for Q, row in zip(stack, rows):
        assert np.array_equal(row, scalar_stationary(Q)[0])


def weighted_wielandt(s, seed):
    """Positive weights on the Wielandt support (the cycle 0 -> ... -> s-1 -> 0
    plus the chord s-1 -> 1): its updates oscillate, so for s >= 4 the rounding
    width decides where a tol=0 chain stops."""
    rows = np.roll(np.eye(s), 1, axis=1)
    rows[s - 1, 1] = 1.0
    return rows * np.random.default_rng(seed).uniform(0.5, 2.0, size=(s, s))


def random_nonnegative(kind, s, seed):
    """A primitive stack that is not stochastic: 0/1 matrices, positive matrices,
    or the (A^T, A) pair perron_eigendata solves, of a 0/1 or a weighted
    Wielandt matrix."""
    if kind == "positive":
        return np.random.default_rng(seed).uniform(0.05, 3.0, size=(2, s, s))
    if kind == "wielandt":
        W = weighted_wielandt(s, seed)
        return np.stack([W.T, W])
    arr = [A.array.astype(float) for A in random_primitive_matrices(2, (s,), seed)]
    return np.stack([arr[0].T, arr[0]] if kind == "pair" else arr)


@settings(max_examples=30)
@given(st.sampled_from(["01", "positive", "pair", "wielandt"]), st.integers(2, 6), st.integers(0, 2**32))
def test_rounding_floor_rows_equal_single_chain_solves(kind, s, seed):
    stack = random_nonnegative(kind, s, seed)
    rows = stationary_vector(stack, tol=0.0)
    for Q, row in zip(stack, rows):
        assert np.array_equal(row, scalar_stationary(Q, tol=0.0)[0])


def test_rounding_floor_stops_on_block_edges():
    ends, size = [0], _BLOCK_MIN
    while ends[-1] < 1000:
        ends.append(ends[-1] + size)
        size = min(2 * size, _BLOCK_CAP)
    stops = set()
    # among their stops are steps 60, 61, 252, 445 and 1222; at step 1212, the
    # last of a block, the chain stopping on 1222 meets a floor that the next
    # update rejects
    for s, seed in ((3, 9), (3, 17), (4, 0), (4, 31), (6, 68)):
        stack = random_nonnegative("wielandt", s, seed)
        for Q, row in zip(stack, stationary_vector(stack, tol=0.0)):
            y, rule, steps = scalar_stationary(Q, tol=0.0)
            assert rule == "cycle" and np.array_equal(row, y)
            stops.add(steps)
    # a stop on the first step of a block reads the update before it, one on
    # the last step reads the update after it
    assert stops & {e + 1 for e in ends} and stops & set(ends[1:])


@pytest.mark.parametrize("tol", [1e-14, 0.0])
def test_blocks_cut_to_the_word_ceiling_keep_every_bit(monkeypatch, tol):
    # a ceiling of 5n values cuts a lone chain's blocks to 3 steps and a
    # stack's to 1 step; no stop rule reads where a block ends. Stochastic
    # chains at tol 1e-14, and at tol 0, which runs to the rounding floor,
    # the nonnegative stacks the floor's own tests solve
    if tol:
        stacks = [np.array([slow_chain(s, 10.0 ** -1.5), fast_chain(s, s), slow_chain(s, 10.0 ** -2.3)])
                  for s in (2, 3)]
    else:
        stacks = [random_nonnegative(kind, s, 7) for kind in ("01", "positive", "pair", "wielandt")
                  for s in (2, 4, 9)]
    lone_steps = []
    real = measures._lone_block

    def lone_block(x, y, Q, b):
        lone_steps.append(b)
        return real(x, y, Q, b)

    monkeypatch.setattr(measures, "_lone_block", lone_block)
    for stack in stacks:
        oracle = [scalar_stationary(Q, tol)[0] for Q in stack]
        monkeypatch.setattr(measures, "WORD_CEILING", 5 * stack.shape[1])
        for y, row in zip(oracle, stationary_vector(stack, tol=tol)):
            assert np.array_equal(row, y)
    assert lone_steps and max(lone_steps) == 3


def test_batch_mixes_both_stop_rules():
    stack = np.array([slow_chain(2, 3e-3), slow_chain(2, 1e-2), fast_chain(2, 5), slow_chain(2, 0.3)])
    oracle = [scalar_stationary(Q) for Q in stack]
    assert {rule for _, rule, _ in oracle} == {"drift", "cycle"}
    rows = stationary_vector(stack)
    for (y, _, _), row in zip(oracle, rows):
        assert np.array_equal(row, y)
    # one matrix is the one-chain case of the stack
    assert np.array_equal(stationary_vector(stack[0]), oracle[0][0])


def test_chain_stopping_on_the_last_allowed_step_returns(monkeypatch):
    stack = np.array([slow_chain(2, 3e-3), fast_chain(2, 5), slow_chain(2, 0.05), slow_chain(2, 0.3)])
    oracle = [scalar_stationary(Q) for Q in stack]
    for Q, (y, _, steps) in zip(stack, oracle):
        monkeypatch.setattr(measures, "STATIONARY_MAX_ITER", steps)
        assert np.array_equal(stationary_vector(Q), y)
        monkeypatch.setattr(measures, "STATIONARY_MAX_ITER", steps - 1)
        with pytest.raises(ConvergenceError):
            stationary_vector(Q)
    last = max(steps for _, _, steps in oracle)
    monkeypatch.setattr(measures, "STATIONARY_MAX_ITER", last)
    rows = stationary_vector(stack)
    for (y, _, _), row in zip(oracle, rows):
        assert np.array_equal(row, y)


def test_batch_failure_reports_widest_open_drift(monkeypatch):
    # the step cap cuts the first block (1, 3), ends on a block end (60) or
    # cuts a later block (61, 127, 129); a cap of 0 runs no step at all
    stack = np.array([slow_chain(2, 1e-3), fast_chain(2, 1), slow_chain(2, 2e-3)])
    for max_iter in (0, 1, 3, 60, 61, 127, 129):
        open_drifts = []
        for Q in stack:
            try:
                scalar_stationary(Q, max_iter=max_iter)
            except ConvergenceError as err:
                open_drifts.append(err.residual)
        assert len(open_drifts) >= 2
        monkeypatch.setattr(measures, "STATIONARY_MAX_ITER", max_iter)
        with pytest.raises(ConvergenceError, match=f"for {len(open_drifts)} of 3 chains") as info:
            stationary_vector(stack)
        assert info.value.residual == max(open_drifts)


def near_cycle(s, p):
    """The cycle 0 -> 1 -> ... -> s-1 -> 0 with a loop of weight p at 0: a
    primitive kernel that mixes slowly for small p."""
    Q = np.roll(np.eye(s), 1, axis=1)
    Q[0, :2] = p, 1.0 - p
    return Q


@pytest.mark.parametrize("tol", [1e-14, 0.0])
@pytest.mark.parametrize("s", range(2, 10))
def test_lone_chain_steps_equal_batched_steps(s, tol):
    # Alone, Q runs on the lone-chain step from its first step (for s < 8).
    # Stacked with a slower companion, Q leaves the batch before the
    # companion does, so it never runs alone. Both must give the same bits.
    companion = near_cycle(s, 0.2)
    slow, _, slow_steps = scalar_stationary(companion, tol)
    for seed in range(4):
        rng = np.random.default_rng([s, seed])
        Q = rng.dirichlet(np.ones(s), size=s) if tol else rng.uniform(0.05, 3.0, size=(s, s))
        assert scalar_stationary(Q, tol)[2] < slow_steps
        alone = stationary_vector(Q, tol=tol)
        stacked = stationary_vector(np.stack([Q, companion]), tol=tol)
        assert alone.tobytes() == stacked[0].tobytes()
        assert stacked[1].tobytes() == slow.tobytes()


# Seeds at the word boundaries of NumPy's seeding: one 32-bit word, two, and
# the largest 63-bit and 64-bit seeds.
EDGE_SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**63 - 2, 2**63 - 1, 2**64 - 1]


def test_generators_start_where_default_rng_starts():
    sampled = np.random.default_rng(20).integers(0, 2**63, size=10_000, dtype=np.uint64)
    seeds = EDGE_SEEDS + sampled.tolist()
    count = 0
    for seed, rng in zip(seeds, _generators(seeds)):
        ref = np.random.default_rng(seed)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.standard_normal(7).tobytes() == ref.standard_normal(7).tobytes()
        assert rng.standard_exponential(7).tobytes() == ref.standard_exponential(7).tobytes()
        count += 1
    assert count == len(seeds)


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_seeds_outside_64_bits_are_refused(golden, bad):
    with pytest.raises(InputError, match=f"seeds must lie in \\[0, 2\\*\\*64\\), got {bad}"):
        next(_generators([5, bad]))
    with pytest.raises(InputError):
        dirichlet_kernels(golden, [bad])
    with pytest.raises(InputError):
        random_function(golden, 2, [3, bad])


# Bits of the one-step-at-a-time power iteration, recorded on x86-64 with
# numpy 2.4 and its bundled OpenBLAS: (lam, u, v) of perron_eigendata, and a
# sha256 of the stationary rows of the measures `verify --seed 0 --samples 150`
# samples on the golden mean shift, the slowest of the bench pool seeds.
PERRON_BITS = {
    "full2": ([[1, 1], [1, 1]], "0x1.0000000000000p+1",
              ["0x1.0000000000000p+0"] * 2, ["0x1.0000000000000p-1"] * 2),
    "golden": ([[1, 1], [1, 0]], "0x1.9e3779b97f4a8p+0",
               ["0x1.2bbae2a27f931p+0", "0x1.727c9716ffb75p-1"],
               ["0x1.3c6ef372fe950p-1", "0x1.8722191a02d61p-2"]),
    "full3": ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], "0x1.8000000000000p+1",
              ["0x1.0000000000000p+0"] * 3, ["0x1.5555555555555p-2"] * 3),
    "wide3": ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], "0x1.0000000000000p+1",
              ["0x1.0000000000000p+0"] * 3, ["0x1.5555555555555p-2"] * 3),
}
GOLDEN_VERIFY_ROWS_SHA256 = "4fd4cb109139d661e153d418a046c70d31511ff7f8408ca2fa3684e45c72f179"


def test_solver_bits_are_pinned(golden):
    for rows, lam, u, v in PERRON_BITS.values():
        eig = perron_eigendata(transition_matrix(rows))
        assert eig.lam.hex() == lam
        assert [float(x).hex() for x in eig.u] == u
        assert [float(x).hex() for x in eig.v] == v
    sub_seeds = np.random.default_rng(0).integers(0, 2**63 - 1, size=2 * 150)
    stationary = np.array([mu.stationary for mu in sample_markov_batch(golden, sub_seeds[0::2])])
    assert stationary.shape == (150, 2)
    assert hashlib.sha256(stationary.tobytes()).hexdigest() == GOLDEN_VERIFY_ROWS_SHA256



def test_stationary_bits_do_not_depend_on_memory_layout():
    # A transposed view and its contiguous copy hold the same matrix, so they
    # must give the same bits.
    rng = np.random.default_rng(0)
    for _ in range(50):
        Q = rng.dirichlet(np.ones(3), size=3)
        assert np.array_equal(stationary_vector(Q.T), stationary_vector(np.ascontiguousarray(Q.T)))


def test_sampler_batch_equals_one_seed_draws(golden, full3):
    for A in (golden, full3):
        seeds = [3, 2**62 + 11, 0, 77]
        for mu, seed in zip(sample_markov_batch(A, seeds), seeds):
            one = sample_markov(A, seed)
            assert np.array_equal(mu.stationary, one.stationary)
            assert np.array_equal(mu.transition, one.transition)


WIDE3 = transition_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


@pytest.mark.parametrize("name", ["full2", "golden", "wide3", "full3"])
def test_cylinder_vector_equals_per_word_products(name, request):
    A = WIDE3 if name == "wide3" else request.getfixturevalue(name)
    for seed in range(3):
        mu = sample_markov(A, seed)
        for depth in range(1, 7):
            vec = cylinder_measure_vector(mu, depth)
            words = enumerate_words(A, depth)
            assert vec.shape == (len(words),)
            assert all(vec[i] == cylinder_measure(mu, w) for i, w in enumerate(words))


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.data())
def test_cylinder_measure_is_the_product_row(seed, length, data):
    # a random walk's word: its measure is the row of the one product, with
    # the bits of multiplying Python floats left to right
    A = random_primitive_matrices(1, (2, 3, 4, 5), seed)[0]
    mu = sample_markov(A, seed)
    word = [data.draw(st.integers(0, A.size - 1))]
    while len(word) < length:
        word.append(data.draw(st.sampled_from(A.successor_sets[word[-1]])))
    p = float(mu.stationary[word[0]])
    for a, b in zip(word, word[1:]):
        p *= float(mu.transition[a, b])
    row = cylinder_measure_vector(mu, length)[enumerate_words(A, length).index(tuple(word))]
    assert cylinder_measure(mu, word) == p == row


def test_functions_past_the_ceiling_are_refused_at_once(full2):
    # 2^25 words: the indicator's word index and the constant's values are
    # refused by their count before anything is allocated
    for build in (lambda: indicator(full2, (0,) * 25), lambda: constant_function(full2, 1.0, 25)):
        started = time.perf_counter()
        with pytest.raises(CeilingError, match="33554432 admissible words of length 25"):
            build()
        assert time.perf_counter() - started < 1.0


@st.composite
def kernel_cases(draw):
    """A 0/1 matrix with no empty row or column, some rows with one allowed
    symbol, and a few seeds."""
    s = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=s, max_size=s), min_size=s, max_size=s))
    M = np.array(rows, dtype=int)
    for i in range(s):
        if draw(st.booleans()) or not M[i].any():
            M[i] = 0
            M[i, draw(st.integers(0, s - 1))] = 1
    M[draw(st.integers(0, s - 1)), ~M.any(axis=0)] = 1
    seeds = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8))
    return transition_matrix(M), seeds


@given(kernel_cases())
def test_dirichlet_kernels_equal_per_row_draws(case):
    # The stack's one exponential stream per seed has the bits of drawing
    # each row with Generator.dirichlet in turn, one-symbol rows drawing nothing.
    A, seeds = case
    expected = np.zeros((len(seeds), A.size, A.size))
    for Q, seed in zip(expected, seeds):
        rng = np.random.default_rng(seed)
        for i, allowed in enumerate(A.successor_sets):
            if len(allowed) == 1:
                Q[i, allowed[0]] = 1.0
            else:
                Q[i, list(allowed)] = rng.dirichlet(np.ones(len(allowed)))
    assert dirichlet_kernels(A, seeds).tobytes() == expected.tobytes()
