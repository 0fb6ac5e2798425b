import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from helpers import PHI, brute_words, centered_indicators, random_primitive_matrices
from sftbounds import (
    DecayEstimate,
    LocallyConstantFunction,
    centered,
    conditional_expectation_check,
    decay_estimate,
    enumerate_words,
    full_shift,
    indicator,
    integrate,
    lip_seminorm,
    perron_eigendata,
    predecessors,
    random_function,
    subdominant_modulus,
    supnorm,
    transfer,
    transfer_apply,
    transition_matrix,
    word_count,
)
from sftbounds.errors import ConvergenceError

# Iterate sup-norms at or below DECAY_FLOOR * |g|_theta are rounding residue of
# an exact zero; probe iterates are followed for DECAY_HORIZON steps.
DECAY_FLOOR = 1e-13
DECAY_HORIZON = 50

# The soundness property follows iterates this far.
SOUNDNESS_HORIZON = 200


def test_seminorm_constant_is_zero(full2):
    assert lip_seminorm(LocallyConstantFunction(full2, 3, np.full(word_count(full2, 3), 4.2))) == 0.0


def test_seminorm_depth1_indicator(full2):
    f = indicator(full2, (0,))
    assert lip_seminorm(f) == 1.0


def test_seminorm_depth2_corner(full2):
    # values (0, 0, 0, 1) on 00, 01, 10, 11: var0 = 1 at n = 0, var1 = 1 at n = 1
    f = LocallyConstantFunction(full2, 2, np.array([0.0, 0.0, 0.0, 1.0]))
    assert lip_seminorm(f) == 1.0


def dict_variations(f):
    """var_n(f) for n < depth, by a dict of per-prefix min and max, word by word."""
    out = []
    for n in range(f.depth):
        lo: dict = {}
        hi: dict = {}
        for w, x in zip(enumerate_words(f.matrix, f.depth), f.values):
            key = w[:n]
            if key not in lo:
                lo[key] = x
                hi[key] = x
            else:
                if x < lo[key]:
                    lo[key] = x
                if x > hi[key]:
                    hi[key] = x
        out.append(max(hi[k] - lo[k] for k in lo))
    return out


@given(
    st.integers(0, 10_000),
    st.integers(1, 5),
    st.floats(1.0001, 20.0),
    st.booleans(),
)
def test_seminorm_equals_prefix_dict_loop(seed, depth, theta, ties):
    A = random_primitive_matrices(1, (2, 3, 4), seed=seed)[0]
    rng = np.random.default_rng(seed)
    n = word_count(A, depth)
    # small integer values make many prefix runs tie at their max or min
    vals = rng.integers(-2, 3, size=n).astype(float) if ties else rng.standard_normal(n)
    f = LocallyConstantFunction(A, depth, vals)
    var = dict_variations(f)
    # The value the theta-weighted form max var_n / theta**n gave, for every
    # theta, and at most the Lipschitz seminorm max var_n * theta**n.
    assert lip_seminorm(f) == float(max(v / theta**n for n, v in enumerate(var)))
    assert lip_seminorm(f) <= max(v * theta**n for n, v in enumerate(var))


def test_operator_fixes_constants(full2, eig_full2, golden, eig_golden):
    for A, eig in ((full2, eig_full2), (golden, eig_golden)):
        one = LocallyConstantFunction(A, 2, np.full(word_count(A, 2), 1.0))
        out = transfer_apply(one, eig)
        assert np.allclose(out.values, 1.0, atol=1e-12)


def test_operator_fixes_constants_on_65536_words(full2, eig_full2):
    # a dense operator matrix here would hold 32768 x 65536 entries
    out = transfer_apply(LocallyConstantFunction(full2, 16, np.full(word_count(full2, 16), 1.0)), eig_full2)
    assert out.depth == 15
    assert np.allclose(out.values, 1.0, atol=1e-12)


@pytest.mark.parametrize("depth", [32, 40])
def test_operator_on_words_longer_than_64_bit_codes(depth):
    # 1933 and 9540 words, though base-4 codes of 32 symbols overflow int64:
    # the operator finds each word i.w by its row in the word array alone
    A = transition_matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]])
    eig = perron_eigendata(A)
    m = eig.parry
    one = LocallyConstantFunction(A, depth, np.full(word_count(A, depth), 1.0))
    assert np.allclose(transfer_apply(one, eig).values, 1.0, atol=1e-12)
    f = random_function(A, depth, seed=depth)
    assert abs(integrate(transfer_apply(f, eig), m) - integrate(f, m)) <= 1e-12
    assert conditional_expectation_check(f, eig) <= 1e-12


def test_operator_kills_mean_zero_depth1_full_shift(full2, eig_full2):
    f = LocallyConstantFunction(full2, 1, np.array([0.5, -0.5]))
    assert np.allclose(transfer_apply(f, eig_full2).values, 0.0, atol=1e-15)


def test_operator_single_predecessor_weight_one(golden, eig_golden):
    f = LocallyConstantFunction(golden, 1, np.array([2.5, -1.0]))
    out = transfer_apply(f, eig_golden)
    # S_1 = {0} with weight u0 / (lam u1) = 1
    assert abs(out.value((1,)) - 2.5) <= 1e-12


def test_operator_positivity(golden, eig_golden):
    rng = np.random.default_rng(4)
    f = LocallyConstantFunction(golden, 3, rng.random(5))
    assert np.all(transfer_apply(f, eig_golden).values >= -1e-15)


def test_operator_preserves_parry_integral(golden, eig_golden, full2, eig_full2):
    for A, eig in ((golden, eig_golden), (full2, eig_full2)):
        m = eig.parry
        for depth in range(1, 6):
            f = random_function(A, depth, seed=depth)
            lf = transfer_apply(f, eig)
            assert abs(integrate(lf, m) - integrate(f, m)) <= 1e-12


def test_depth_bookkeeping(golden, eig_golden):
    f = random_function(golden, 3, seed=0)
    assert transfer_apply(f, eig_golden).depth == 2
    f1 = random_function(golden, 1, seed=0)
    assert transfer_apply(f1, eig_golden).depth == 1


def test_conditional_expectation_constant(full2, eig_full2):
    two = LocallyConstantFunction(full2, 1, np.full(word_count(full2, 1), 2.0))
    assert conditional_expectation_check(two, eig_full2) == 0.0


def test_conditional_expectation_indicator(full2, eig_full2):
    f = indicator(full2, (0,))
    assert conditional_expectation_check(f, eig_full2) <= 1e-15


def test_conditional_expectation_random_probes(golden, eig_golden, full2, eig_full2, full3, eig_full3):
    cases = ((golden, eig_golden), (full2, eig_full2), (full3, eig_full3))
    for A, eig in cases:
        for depth in range(1, 5):
            f = random_function(A, depth, seed=100 + depth)
            assert conditional_expectation_check(f, eig) <= 1e-12


def test_full_shift_depth1_rate_is_zero(full2, eig_full2):
    est = decay_estimate(eig_full2, 1)
    assert est.rho <= 1e-12
    assert est.C <= 1.0 + 1e-12  # probes have |g|_inf = 1/2 and |g|_theta = 1


def test_golden_depth1_rate(golden, eig_golden):
    est = decay_estimate(eig_golden, 1)
    assert abs(est.rho - 1 / PHI**2) <= 1e-9


def test_rate_below_one_for_primitive():
    for A in random_primitive_matrices(4, (2, 3), seed=14):
        eig = perron_eigendata(A)
        est = decay_estimate(eig, 1)
        assert 0.0 <= est.rho < 1.0


def test_decay_certificate_self_consistency(golden, eig_golden, full2, eig_full2):
    cases = [(golden, eig_golden, d) for d in (1, 2, 3)] + [(full2, eig_full2, 1)]
    for A, eig, depth in cases:
        est = decay_estimate(eig, depth)
        for g in centered_indicators(eig, depth):
            sem = lip_seminorm(g)
            it = g
            for n in range(DECAY_HORIZON + 1):
                assert supnorm(it) <= est.C * est.rho**n * sem + DECAY_FLOOR * sem
                it = transfer_apply(it, eig)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.data())
def test_certificate_bounds_random_mean_zero_iterates(seed, depth, data):
    A = random_primitive_matrices(1, (2, 3, 4), seed)[0]
    eig = perron_eigendata(A)
    est = decay_estimate(eig, depth)
    n_words = word_count(A, depth)
    vals = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_words, max_size=n_words))
    g = centered(LocallyConstantFunction(A, depth, np.array(vals)), eig.parry)
    sem = lip_seminorm(g)
    assume(sem > 1e-9)
    it = g
    total = 0.0
    for n in range(SOUNDNESS_HORIZON + 1):
        sup = supnorm(it)
        if n < len(est.steps):
            assert sup <= est.steps[n] * sem + DECAY_FLOOR * sem
        total += sup
        it = transfer_apply(it, eig)
    assert total <= est.c_hat * sem / math.sqrt(2.0) + SOUNDNESS_HORIZON * DECAY_FLOOR * sem


def test_c_hat_is_the_bound_constant(golden, eig_golden, full2, eig_full2):
    for A, eig, depth in ((golden, eig_golden, 2), (full2, eig_full2, 1)):
        est = decay_estimate(eig, depth)
        assert est.c_hat == math.sqrt(2.0) * (sum(est.steps) + est.tail)


def test_c_hat_adds_the_steps_left_to_right(eig_full2):
    # Python's sum() is compensated from 3.12 on, and makes these 1 + 2**-52.
    assert DecayEstimate(eig_full2, 1, (1.0, 1e-16, 1e-16), 0.0, 0.5).c_hat == math.sqrt(2.0)


def test_c_is_infinite_only_past_an_exact_zero_rate(eig_full2):
    assert DecayEstimate(eig_full2, 1, (1.0, 0.0), 0.0, 0.0).C == 1.0
    assert DecayEstimate(eig_full2, 2, (1.0, 1.0), 0.0, 0.0).C == math.inf
    assert DecayEstimate(eig_full2, 2, (1.0, 0.25), 0.0, 0.5).C == 1.0


def test_term_cap_raises_convergence_error(monkeypatch):
    # a slowly mixing cycle: ||M10^j||_inf first drops below 1 at j = 3
    A = transition_matrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    eig = perron_eigendata(A)
    assert len(decay_estimate(eig, 1).steps) == 3
    monkeypatch.setattr(transfer, "DECAY_TERM_CAP", 2)
    with pytest.raises(ConvergenceError):
        decay_estimate(eig, 1)


def test_certificate_reads_only_the_depth_one_operator(monkeypatch):
    # M1 is the depth-1 kernel's weights, with the bits of the dict-built
    # depth-1 operator: the rate read from it is the same to the bit, and no
    # deeper word space is built
    cases = [(A, perron_eigendata(A)) for A in random_primitive_matrices(20, (2, 3, 4, 5), seed=25)]
    rates = [subdominant_modulus(dict_kernel(A, eig, 1)[1]) for A, eig in cases]

    def depth_one(build):
        def call(*args):
            if args[-1] != 1:
                raise AssertionError("the certificate builds no word-space operator")
            return build(*args)
        return call

    for name in ("_kernel", "word_array"):
        monkeypatch.setattr(transfer, name, depth_one(getattr(transfer, name)))
    for (A, eig), rho in zip(cases, rates):
        assert decay_estimate(eig, 4).rho == rho


def test_supnorm_bounded_by_seminorm_for_mean_zero(golden, eig_golden):
    for depth in (1, 2, 3):
        for g in centered_indicators(eig_golden, depth):
            assert supnorm(g) <= lip_seminorm(g) + 1e-12


def test_centered_probe_spans(golden, eig_golden):
    # the probe basis reproduces any centered function by linear combination
    m = eig_golden.parry
    f = random_function(golden, 2, seed=77)
    fc = centered(f, m)
    probes = centered_indicators(eig_golden, 2)
    combo = sum(c * g.values for c, g in zip(f.values, probes))
    assert np.allclose(combo, fc.values, atol=1e-12)


def dict_kernel(A, eig, depth):
    """The depth-`depth` operator's padded tables by a word-index dict, word by
    word: entry [w, i] is the column of i.w[:depth-1] and its weight, or -1 and
    0.0 when i -> w0 is not allowed."""
    out_words = sorted(brute_words(A, max(depth - 1, 1)))
    index = {w: i for i, w in enumerate(sorted(brute_words(A, depth)))}
    u, lam = eig.u, eig.lam
    cols = np.full((len(out_words), A.size), -1)
    weights = np.zeros((len(out_words), A.size))
    for r, w in enumerate(out_words):
        j = w[0]
        for i in predecessors(A, j):
            cols[r, i] = index[(i,) + w[: depth - 1]]
            weights[r, i] = u[i] / (lam * u[j])
    return cols, weights


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_kernel_equals_dict_loop_bitwise(size):
    for A in [full_shift(size)] + random_primitive_matrices(3, (size,), seed=size):
        eig = perron_eigendata(A)
        for depth in range(1, 6):
            got, want = transfer._kernel(eig, depth), dict_kernel(A, eig, depth)
            for name, a, b in zip(("cols", "weights"), got, want):
                assert a.shape == b.shape and a.dtype == b.dtype, (A.rows, depth, name)
                assert a.tobytes() == b.tobytes(), (A.rows, depth, name)


def csr_kernel(A, eig, depth):
    """The kernel as a scipy CSR matrix: each row's terms in ascending i."""
    cols, weights = transfer._kernel(eig, depth)
    rows, i = np.nonzero(cols >= 0)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(cols)))])
    return csr_matrix((weights[rows, i], cols[rows, i], indptr),
                      shape=(len(cols), word_count(A, depth)))


@pytest.mark.parametrize("size", [2, 3, 4])
def test_apply_equals_csr_product_bitwise(size):
    rng = np.random.default_rng(size)
    for A in [full_shift(size)] + random_primitive_matrices(4, (size,), seed=10 + size):
        eig = perron_eigendata(A)
        for depth in range(1, 5):
            K = csr_kernel(A, eig, depth)
            for scale in (1.0, 1e-300, 1e300, -0.0):
                f = LocallyConstantFunction(A, depth, scale * rng.standard_normal(K.shape[1]))
                got = transfer_apply(f, eig).values
                assert got.tobytes() == (K @ f.values).tobytes(), (A.rows, depth, scale)

