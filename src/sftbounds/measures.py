"""Markov measures on an SFT: validation, cylinder measures, entropy, the mean
of the information function, conditional probability vectors, and a Dirichlet
sampler for test measures.

All integrals of depth-d functions are exact finite sums over admissible d-words.
Sampled measures are handled as stacks: a MarkovMeasure may hold k measures,
(k, s) stationary vectors and (k, s, s) kernels, and a LocallyConstantFunction
k functions, (k, n) values. Validation, entropy, cylinder vectors and integrals
take a stack in a few array calls and give each row the bits of its own
one-measure computation; a single measure is the k = 1 case of the same code.
Stationary vectors of many kernels are solved in one batch, a block of power
steps at a time, each chain returning the iterate of its own stopping step;
cylinder vectors are products over columns of the word array. Both give the
same bits as the one-chain and per-word computations.

Per-call overhead is cut where it would dominate, with the same bits. A chain
left alone in the batch (fewer than 8 states) keeps numpy's product for each
step and sums and divides on Python floats, in the order numpy uses for fewer
than 8 terms. Sampled kernels and functions draw from one generator, set in
turn to the state default_rng(seed) starts in: NumPy's SeedSequence hash and
PCG64 seeding, computed for all seeds at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import numpy.random  # numpy loads it lazily; load it here, not in the first sampling call

from .errors import ConvergenceError, InputError, first_failure
from .sft import (
    WORD_CEILING,
    TransitionMatrix,
    _check_ceiling,
    is_admissible,
    predecessors,
    word_array,
    word_count,
    word_row,
)

if TYPE_CHECKING:  # annotations only: spectral imports stationary_vector from here
    from .spectral import PerronData

STATIONARITY_TOL = 1e-12
# Most power steps a stationary_vector chain runs: past it, a stochastic chain
# is solved by `_gth` and a tol=0 chain raises ConvergenceError.
STATIONARY_MAX_ITER = 1_000_000
# Width of a power iteration's rounding floor, in ulps of the largest entry.
ROUNDING_ULPS = 16
# Steps per block of the batched power iteration: the first block, and the cap
# that later blocks double up to.
_BLOCK_MIN = 4
_BLOCK_CAP = 64
# NumPy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary vector r and stochastic matrix Q supported on a transition
    matrix, or a stack of k measures: r of shape (k, s), Q of shape (k, s, s)."""

    stationary: np.ndarray
    transition: np.ndarray
    support: TransitionMatrix

    def __getitem__(self, index) -> MarkovMeasure:
        """Index the measure axis of a stack: an int gives one measure, a slice
        or an index array a sub-stack, and None makes one measure a stack of one."""
        return MarkovMeasure(self.stationary[index], self.transition[index], self.support)


def markov_measure(stationary, transition, support: TransitionMatrix) -> MarkovMeasure:
    """Validate (r, Q), or a stack of k pairs, and freeze them into a MarkovMeasure.

    Checks: r >= 0 summing to 1, Q rows summing to 1, Q supported inside the
    0/1 matrix, and stationarity rQ = r, all to STATIONARITY_TOL. A stack is
    checked in a few array calls; a failure names its first bad measure and
    that measure's first failed check, as a loop over the stack would.
    """
    r = np.array(stationary, dtype=float, order="C")
    Q = np.array(transition, dtype=float, order="C")
    s = support.size
    if r.ndim not in (1, 2) or r.shape[-1] != s or Q.shape != r.shape + (s,):
        raise InputError(f"measure dimensions {r.shape}, {Q.shape} do not match alphabet size {s}")
    rs, Qs = r.reshape(-1, s), Q.reshape(-1, s, s)  # views: one measure is a stack of one
    negative = (rs.min(axis=1) < -STATIONARITY_TOL) | (Qs.min(axis=(1, 2)) < -STATIONARITY_TOL)
    np.maximum(r, 0.0, out=r)
    np.maximum(Q, 0.0, out=Q)
    total = rs.sum(axis=1)
    row_error = np.abs(Qs.sum(axis=2) - 1.0).max(axis=1)
    outside = support.array == 0
    off = Qs[:, outside].max(axis=1, initial=0.0)
    Qs[:, outside] = 0.0
    drift = np.abs((rs[:, None, :] @ Qs)[:, 0, :] - rs).max(axis=1)
    failure = first_failure((
        (negative, lambda i: "negative probabilities"),
        (np.abs(total - 1.0) > STATIONARITY_TOL,
         lambda i: f"stationary vector sums to {total[i]}, not 1"),
        (row_error > STATIONARITY_TOL, lambda i: "transition matrix rows must sum to 1"),
        (off > STATIONARITY_TOL,
         lambda i: "transition probabilities positive outside the allowed support"),
        (drift > STATIONARITY_TOL,
         lambda i: f"vector is not stationary: max |rQ - r| = {drift[i]}"),
    ))
    if failure:
        i, message = failure
        raise InputError(f"measure {i} of the stack: {message}" if r.ndim == 2 else message)
    r.setflags(write=False)
    Q.setflags(write=False)
    return MarkovMeasure(r, Q, support)


def stationary_vector(Q: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Dominant left eigenvector of a nonnegative primitive matrix, or one row per
    matrix of a stack (k, s, s), by power iteration on Q^T with unit-sum iterates;
    for a stochastic matrix this is its stationary probability vector.

    A chain stops when max |rQ - r| falls to `tol`, or at a rounding limit
    cycle: the update size stops shrinking while it and the next update, the
    scale-free drift max |rQ/sum(rQ) - r|, are far below the stationarity
    tolerance of markov_measure (1e-12). With tol=0 only a limit cycle ends a
    chain, and only one within ROUNDING_ULPS of the largest entry, so a
    Perron vector (root other than 1) is iterated to its rounding floor.

    All chains are iterated at once, a block of steps at a time: each step is
    one stacked matmul, one row sum and one divide, written into the block's
    buffers, and the stop rules are then read over the whole block, each chain
    returning its iterate of the first step that stops it. Chains that stopped
    leave the batch at the end of the block. Blocks start at _BLOCK_MIN steps
    and double up to _BLOCK_CAP, so a quick solve runs few extra steps; a
    block is cut, to one step at least, so that its b + 2 iterates of the
    open chains stay within WORD_CEILING values. Whatever the block lengths,
    the bits are those of a chain iterated alone, one step and one test at a time:
    the stacked matmul is bitwise equal to each chain's own x @ Q (einsum is
    not), the scale-free drift rQ/sum(rQ) is the next step's iterate, the
    stop rules are exact elementwise tests on the same iterates, and the
    steps a chain runs past its stop are never read. A chain left alone with
    fewer than 8 states runs its blocks on `_lone_block`, one numpy call per
    step instead of three, with the same bits.

    Chains still open after STATIONARY_MAX_ITER steps are solved by `_gth`
    when tol > 0, which is for stochastic matrices; with tol=0, where the
    matrices need not be stochastic, they raise ConvergenceError.
    """
    Q = np.ascontiguousarray(Q, dtype=float)
    stack = Q if Q.ndim == 3 else Q[None]
    k, n = stack.shape[:2]
    out = np.empty((k, n))
    active = np.arange(k)  # the chains still in the batch, in stack order
    x = np.full((k, n), 1.0 / n)
    z = (x[:, None, :] @ stack)[:, 0, :]
    y = z / z.sum(axis=1, keepdims=True)  # the iterate of the next step
    inc_prev = np.full(k, np.inf)
    open_drift = np.full(k, np.inf)
    steps, block = 0, _BLOCK_MIN
    while steps < STATIONARY_MAX_ITER:
        b = min(block, STATIONARY_MAX_ITER - steps, max(1, WORD_CEILING // (len(active) * n) - 2))
        # Y[t + 1] is step t's iterate, Z[t] its product, Y[0] the last iterate
        # before the block and Y[b + 1] the first one after it
        if len(active) == 1 and n < 8:
            Y, Z = _lone_block(x[0], y[0], stack[0], b)
        else:
            Y = np.empty((b + 2, len(active), n))
            Z = np.empty((b, len(active), n))
            sums = np.empty((b, len(active), 1))
            Y[0], Y[1] = x, y
            for y_t, z_t, z_row, sum_t, y_next in zip(Y[1:-1, :, None], Z[:, :, None], Z, sums, Y[2:]):
                np.matmul(y_t, stack, out=z_t)
                np.add.reduce(z_row, axis=1, keepdims=True, out=sum_t)
                np.divide(z_row, sum_t, out=y_next)
        update = np.abs(np.diff(Y, axis=0)).max(axis=2)  # update[t] = max |Y[t + 1] - Y[t]|
        inc = update[:b]
        drift = np.abs(Z - Y[1:-1]).max(axis=2)
        floor = (inc >= np.concatenate([inc_prev[None], inc[:-1]])) & (inc <= 1e-12)
        # this update and the next one, max |rQ/sum(rQ) - r|, which is scale-free
        step = np.maximum(inc, update[1:])
        width = 1e-12 if tol > 0 else ROUNDING_ULPS * np.finfo(float).eps * Y[1:-1].max(axis=2)
        done = (drift <= tol) | (floor & (step <= width))
        stopped = done.any(axis=0)
        hit = np.flatnonzero(stopped)
        out[active[hit]] = Y[done[:, hit].argmax(axis=0) + 1, hit]
        steps += b
        keep = ~stopped
        if not keep.any():
            return out if Q.ndim == 3 else out[0]
        active, stack, open_drift = active[keep], stack[keep], drift[-1, keep]
        x, y, inc_prev = Y[-2, keep], Y[-1, keep], inc[-1, keep]
        block = min(2 * block, _BLOCK_CAP)
    if tol > 0:
        out[active] = _gth(stack)
        return out if Q.ndim == 3 else out[0]
    raise ConvergenceError(
        f"power iteration did not converge within {STATIONARY_MAX_ITER} steps "
        f"for {len(active)} of {k} chains",
        residual=float(open_drift.max()),
    )


def _gth(stack: np.ndarray) -> np.ndarray:
    """Stationary vectors of a (k, n, n) stack of irreducible stochastic
    matrices by Grassmann-Taksar-Heyman elimination (Oper. Res. 33, 1985).

    State m is censored out, last first: its exit mass to the states below is
    summed, not taken as 1 - Q[m, m], and its row is spread over them by
    rank-one updates. Nothing is subtracted, so each entry of the result has a
    small relative error however slowly the chain mixes (O'Cinneide, Numer.
    Math. 65, 1993)."""
    P = stack.copy()
    n = P.shape[1]
    for m in range(n - 1, 0, -1):
        P[:, :m, m] /= P[:, m, :m].sum(axis=1, keepdims=True)
        P[:, :m, :m] += P[:, :m, m, None] * P[:, m, None, :m]
    x = np.zeros(P.shape[:2])
    x[:, 0] = 1.0
    for m in range(1, n):
        x[:, m] = (x[:, :m] * P[:, :m, m]).sum(axis=1)
    return x / x.sum(axis=1, keepdims=True)


def _lone_block(x: np.ndarray, y: np.ndarray, Q: np.ndarray, b: int):
    """The Y and Z buffers of `stationary_vector`'s block of b steps, for a
    lone chain on an (n, n) matrix with n < 8: one numpy call per step.

    Each step keeps numpy's own product y @ Q, then sums and divides on
    Python floats: numpy adds fewer than 8 terms left to right from 0.0, as
    `_left_sum` does, and a divide is the same IEEE operation either way."""
    ys, zs = [x.tolist(), y.tolist()], []
    r = y
    for _ in range(b):
        z = np.matmul(r, Q).tolist()
        total = _left_sum(z)
        r = [v / total for v in z]
        zs.append(z)
        ys.append(r)
    return np.array(ys)[:, None], np.array(zs)[:, None]


def _left_sum(terms):
    """The terms added left to right from 0.0, one IEEE add at a time: the
    library's one summation order where results keep recorded bits, and
    numpy's own for fewer than 8 terms. Python's sum() is compensated from
    3.12 on, so it is not used. Terms may be arrays, added elementwise; the
    first is copied, never written to."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _hash_stream(const: int, mult: int):
    """SeedSequence's hashmix on uint32 words held in uint64 arrays: each call
    xors in the running constant, steps it, multiplies and folds."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _generators(seeds):
    """One Generator for each seed in turn, in the state default_rng(seed)
    starts in; each is good until the next one is taken.

    default_rng seeds PCG64 from SeedSequence(seed) (NEP 19): the seed's
    32-bit words are hashed into a pool of four, mixed into one another, and
    four 64-bit words are drawn; PCG64 takes its seed and increment from them
    and runs two 128-bit LCG steps (O'Neill, 2014). Here the hash runs on all
    seeds at once. A seed below 2**64 has at most two words, and a short seed
    is hashed as if padded with zero words, so no seed needs a
    remaining-entropy pass. The LCG steps run on Python ints, and the states
    are set in turn on one PCG64, so only the first seed pays for building a
    generator. A seed outside [0, 2**64) is refused before any is set."""
    seeds = [int(seed) for seed in seeds]
    bad = [seed for seed in seeds if not 0 <= seed < 2**64]
    if bad:
        raise InputError(f"seeds must lie in [0, 2**64), got {bad[0]}")
    words = np.array(seeds, dtype=np.uint64)
    zero = np.zeros_like(words)
    hashmix = _hash_stream(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in (words & _MASK32, words >> 32, zero, zero)]
    for i in range(4):
        for j in range(4):
            if i != j:
                mixed = (_MIX_L * pool[j] - _MIX_R * hashmix(pool[i])) & _MASK32
                pool[j] = mixed ^ mixed >> 16
    draw = _hash_stream(_INIT_B, _MULT_B)
    halves = [draw(pool[i % 4]) for i in range(8)]
    # little-endian pairs of 32-bit words: seed high, seed low, inc high, inc low
    words64 = [(halves[2 * j] | halves[2 * j + 1] << 32).tolist() for j in range(4)]
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for a, b, c, d in zip(*words64):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield rng


def _check_kernels(A: TransitionMatrix, count: int) -> None:
    """Refuse a stack of `count` kernels on A when its count * s * s values
    exceed WORD_CEILING."""
    n = count * A.size**2
    _check_ceiling(n, "{} kernels on {} symbols: {} values", count, A.size, n)


def dirichlet_kernels(A: TransitionMatrix, seeds) -> np.ndarray:
    """Random stochastic matrices on A as a (k, s, s) stack, one per seed: each
    row is a flat Dirichlet draw (all concentrations 1) over that row's allowed
    entries, from default_rng(seed). Deterministic in (A, seed).

    Generator.dirichlet with unit concentrations draws standard_gamma(1), which
    is standard_exponential, for each entry of a row in turn, then scales them
    by 1 / (their sum, added left to right). So one standard_exponential call
    per seed, for every entry of the rows with more than one allowed symbol
    (a one-symbol row draws nothing), gives the same bits, normalised across
    the stack a row at a time. Each seed's stream starts in the state of
    default_rng(seed), from `_generators`. Refused before anything is drawn
    where `_check_kernels` refuses, or when a seed lies outside [0, 2**64)."""
    _check_kernels(A, len(seeds))
    s = A.size
    draws = np.empty((len(seeds), sum(len(row) for row in A.successor_sets if len(row) > 1)))
    for out, rng in zip(draws, _generators(seeds)):
        rng.standard_exponential(out=out)
    Qs = np.zeros((len(seeds), s, s))
    start = 0
    for i, row in enumerate(A.successor_sets):
        if len(row) == 1:
            Qs[:, i, row[0]] = 1.0
            continue
        e = draws[:, start:start + len(row)]
        Qs[:, i, list(row)] = e * (1.0 / _left_sum(e.T))[:, None]
        start += len(row)
    return Qs


def sample_markov_batch(A: TransitionMatrix, seeds) -> MarkovMeasure:
    """Random Markov measures on A as a stack, one per seed: the
    `dirichlet_kernels` with their stationary vectors, solved in one batch."""
    Qs = dirichlet_kernels(A, seeds)
    return markov_measure(stationary_vector(Qs), Qs, A)


def cylinder_measure(mu: MarkovMeasure, word) -> float:
    """Measure of the cylinder set of a word: the one-row case of
    `_cylinder_products`.

    Inadmissible words are rejected rather than mapped to 0, to surface caller bugs.
    """
    if not is_admissible(mu.support, word):
        raise InputError(f"word {tuple(word)} is not admissible")
    return float(_cylinder_products(mu, np.array([word]))[0])


def entropy(mu: MarkovMeasure):
    """Kolmogorov-Sinai entropy -sum r_i Q_ij log Q_ij in nats (0 log 0 = 0); an
    array with one entropy per measure for a stack."""
    Q = mu.transition
    mask = Q > 0.0
    terms = np.where(mask, Q * np.log(np.where(mask, Q, 1.0)), 0.0)
    weighted = mu.stationary[..., :, None] * terms
    # each measure's s * s terms summed as one flat row, as a lone measure's are
    h = -weighted.reshape(*weighted.shape[:-2], -1).sum(axis=-1)
    return float(h) if h.ndim == 0 else h


@dataclass(frozen=True)
class LocallyConstantFunction:
    """A function depending on the first `depth` coordinates, stored as one value
    per admissible depth-word in lexicographic order; values of shape (k, n)
    hold a stack of k such functions, one per row."""

    matrix: TransitionMatrix
    depth: int
    values: np.ndarray

    def __post_init__(self):
        if self.depth < 1:
            raise InputError(f"depth must be at least 1, got {self.depth}")
        vals = np.array(self.values, dtype=float)
        expected = word_count(self.matrix, self.depth)
        if vals.ndim not in (1, 2) or vals.shape[-1] != expected:
            raise InputError(
                f"need {expected} values for depth {self.depth}, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def value(self, word) -> float:
        idx = word_row(self.matrix, word) if len(word) == self.depth else -1
        if idx < 0:
            raise InputError(f"word {tuple(word)} is not an admissible depth-{self.depth} word")
        return float(self.values[idx])


def indicator(A: TransitionMatrix, word) -> LocallyConstantFunction:
    """Indicator of the cylinder of `word`, as a depth-len(word) function;
    refused, before anything is allocated, where `word_array` refuses."""
    w = tuple(word)
    if not is_admissible(A, w):
        raise InputError(f"word {w} is not admissible")
    row = word_row(A, w)
    vals = np.zeros(word_count(A, len(w)))
    vals[row] = 1.0
    return LocallyConstantFunction(A, len(w), vals)


def _check_stack(A: TransitionMatrix, depth: int, count: int) -> int:
    """The number n of depth-words, once a stack of `count` functions on them
    is allowed: refused where `word_array` refuses, or when the count * n
    values exceed WORD_CEILING."""
    n = len(word_array(A, depth))
    _check_ceiling(count * n, "{} functions of {} words: {} values", count, n, count * n)
    return n


def random_function(A: TransitionMatrix, depth: int, seed) -> LocallyConstantFunction:
    """Standard normal values on the depth-words, from default_rng(seed); a
    sequence of seeds gives a stack, one function per seed. Each seed's draws
    are those of default_rng(seed), from the generator state of
    `_generators`. Refused before anything is drawn when `word_array`
    refuses, when the stack's values (seeds times words) exceed WORD_CEILING,
    or when a seed lies outside [0, 2**64)."""
    seeds = seed if np.ndim(seed) else [seed]
    n = _check_stack(A, depth, len(seeds))
    values = np.empty((len(seeds), n))
    for out, rng in zip(values, _generators(seeds)):
        rng.standard_normal(out=out)
    return LocallyConstantFunction(A, depth, values if np.ndim(seed) else values[0])


def _cylinder_products(mu: MarkovMeasure, W: np.ndarray) -> np.ndarray:
    """Measures r[w0] * prod Q[w_t, w_t+1] of the cylinders of the rows of an
    (n, k) word array, multiplied left to right one column at a time; (k, n),
    one row per measure, for a stack. The library's one cylinder product."""
    p = mu.stationary[..., W[:, 0]]
    for t in range(1, W.shape[1]):
        p = p * mu.transition[..., W[:, t - 1], W[:, t]]
    # a stack's gathers come out word-major; integrals need each row unit-stride
    return np.ascontiguousarray(p)


def cylinder_measure_vector(mu: MarkovMeasure, depth: int) -> np.ndarray:
    """Measures of all admissible depth-words, aligned with the rows of
    `word_array`; (k, n), one row per measure, for a stack."""
    return _cylinder_products(mu, word_array(mu.support, depth))


def integrate(f: LocallyConstantFunction, mu: MarkovMeasure):
    """Exact integral of f: the measure-weighted sum over admissible depth-words.

    Stacks of functions or of measures broadcast against each other, giving an
    array with one integral per row. Each is the matmul (1, n) @ (n, 1), which
    numpy takes to the same dot product as a lone f @ p, so every row has its
    one-pair bits (einsum and a (k, n) @ (n,) matmul do not)."""
    if f.matrix != mu.support:
        raise InputError("function and measure live on different transition matrices")
    p = cylinder_measure_vector(mu, f.depth)
    out = (f.values[..., None, :] @ p[..., :, None])[..., 0, 0]
    return float(out) if out.ndim == 0 else out


def centered(f: LocallyConstantFunction, mu: MarkovMeasure) -> LocallyConstantFunction:
    """f minus its mu-integral, row by row for stacks."""
    mean = np.asarray(integrate(f, mu))[..., None]
    return LocallyConstantFunction(f.matrix, f.depth, f.values - mean)


def information_mean(mu: MarkovMeasure, eig: PerronData):
    """Integral against mu of the information function of the Parry measure,
    in coboundary form iota(x) = log(lam) + g(x1) - g(x0) with g = log u; one
    per measure of a stack.

    Equals log(lam) for every stationary mu: the coboundary part cancels.
    Built on eig's shift, so `integrate` refuses mu on another one.
    """
    A = eig.parry.support
    g = np.log(eig.u)
    W = word_array(A, 2)
    iota = float(np.log(eig.lam)) + g[W[:, 1]] - g[W[:, 0]]
    return integrate(LocallyConstantFunction(A, 2, iota), mu)


def conditional_vectors(mu: MarkovMeasure, eig: PerronData, j: int):
    """Conditional distributions over the predecessor set S_j of symbol j.

    Returns (p, q): p_i = u_i / (lam u_j) is the Parry conditional, and
    q_i = r_i Q[i, j] / r_j the conditional of mu, one row per measure of a
    stack. Both sum to 1; q needs r_j > 0 (in every measure of a stack).
    Refuses mu on another shift than eig's.
    """
    A = mu.support
    if A != eig.parry.support:
        raise InputError("measure and eigendata live on different transition matrices")
    S = predecessors(A, j)
    idx = list(S)
    p = eig.u[idx] / (eig.lam * eig.u[j])
    rj = mu.stationary[..., j]
    if np.any(rj <= 0.0):
        raise InputError(f"symbol {j} has zero stationary mass; conditional undefined")
    q = mu.stationary[..., idx] * mu.transition[..., idx, j] / rj[..., None]
    return p, q
