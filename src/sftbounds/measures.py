"""Markov measures on an SFT: the Parry measure, cylinder measures, entropy,
the mean of the information function, conditional probability vectors, and a
Dirichlet sampler for test measures.

All integrals of depth-d functions are exact finite sums over admissible d-words.
Stationary vectors of many kernels are solved in one batch, a block of power
steps at a time, each chain returning the iterate of its own stopping step;
cylinder vectors are products over columns of the word array. Both give the
same bits as the one-chain and per-word computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import numpy.random  # numpy loads it lazily; load it here, not in the first sampling call

from .errors import ConvergenceError, InputError
from .sft import (
    TransitionMatrix,
    Word,
    enumerate_words,
    is_admissible,
    predecessors,
    word_array,
    word_count,
    word_index,
)

if TYPE_CHECKING:  # annotations only: spectral imports stationary_vector from here
    from .spectral import PerronData

STATIONARITY_TOL = 1e-12
# Width of a power iteration's rounding floor, in ulps of the largest entry.
ROUNDING_ULPS = 16
# Steps per block of the batched power iteration: the first block, and the cap
# that later blocks double up to.
_BLOCK_MIN = 4
_BLOCK_CAP = 64


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary vector r and stochastic matrix Q supported on a transition matrix."""

    stationary: np.ndarray
    transition: np.ndarray
    support: TransitionMatrix


def markov_measure(stationary, transition, support: TransitionMatrix) -> MarkovMeasure:
    """Validate (r, Q) and freeze them into a MarkovMeasure.

    Checks: r >= 0 summing to 1, Q rows summing to 1, Q supported inside the
    0/1 matrix, and stationarity rQ = r, all to STATIONARITY_TOL.
    """
    r = np.array(stationary, dtype=float)
    Q = np.array(transition, dtype=float)
    s = support.size
    if r.shape != (s,) or Q.shape != (s, s):
        raise InputError(f"measure dimensions {r.shape}, {Q.shape} do not match alphabet size {s}")
    if float(r.min()) < -STATIONARITY_TOL or float(Q.min()) < -STATIONARITY_TOL:
        raise InputError("negative probabilities")
    r = np.maximum(r, 0.0)
    Q = np.maximum(Q, 0.0)
    if abs(float(r.sum()) - 1.0) > STATIONARITY_TOL:
        raise InputError(f"stationary vector sums to {r.sum()}, not 1")
    row_sums = Q.sum(axis=1)
    if float(np.max(np.abs(row_sums - 1.0))) > STATIONARITY_TOL:
        raise InputError("transition matrix rows must sum to 1")
    off = Q[support.array == 0]
    if off.size and float(np.max(off)) > STATIONARITY_TOL:
        raise InputError("transition probabilities positive outside the allowed support")
    Q[support.array == 0] = 0.0
    drift = float(np.max(np.abs(r @ Q - r)))
    if drift > STATIONARITY_TOL:
        raise InputError(f"vector is not stationary: max |rQ - r| = {drift}")
    r.setflags(write=False)
    Q.setflags(write=False)
    return MarkovMeasure(r, Q, support)


def parry_measure(A: TransitionMatrix, eig: PerronData) -> MarkovMeasure:
    """The measure of maximal entropy: r_i = u_i v_i, Q_ij = a_ij v_j / (lam v_i)."""
    u, v, lam = eig.u, eig.v, eig.lam
    Q = A.array * v[None, :] / (lam * v[:, None])
    return markov_measure(u * v, Q, A)


def stationary_vector(Q: np.ndarray, tol: float = 1e-14, max_iter: int = 1_000_000) -> np.ndarray:
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
    and double up to _BLOCK_CAP, so a quick solve runs few extra steps. The
    bits are those of a chain iterated alone, one step and one test at a time:
    the stacked matmul is bitwise equal to each chain's own x @ Q (einsum is
    not), the scale-free drift rQ/sum(rQ) is the next step's iterate, the
    stop rules are exact elementwise tests on the same iterates, and the
    steps a chain runs past its stop are never read.
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
    while steps < max_iter:
        b = min(block, max_iter - steps)
        # Y[t + 1] is step t's iterate, Z[t] its product, Y[0] the last iterate
        # before the block and Y[b + 1] the first one after it
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
    raise ConvergenceError(
        f"power iteration did not converge within {max_iter} steps "
        f"for {len(active)} of {k} chains",
        residual=float(open_drift.max()),
    )


def sample_markov_batch(A: TransitionMatrix, seeds) -> list[MarkovMeasure]:
    """Random Markov measures on A, one per seed: each row of Q is a flat
    Dirichlet draw (all concentrations 1) over that row's allowed entries, from
    default_rng(seed). Deterministic in (A, seed); the stationary vectors are
    solved in one batch.
    """
    s = A.size
    Qs = np.zeros((len(seeds), s, s))
    for Q, seed in zip(Qs, seeds):
        rng = np.random.default_rng(int(seed))
        for i in range(s):
            allowed = A.successor_sets[i]
            if len(allowed) == 1:
                Q[i, allowed[0]] = 1.0
            else:
                Q[i, list(allowed)] = rng.dirichlet(np.ones(len(allowed)))
    return [markov_measure(r, Q, A) for r, Q in zip(stationary_vector(Qs), Qs)]


def sample_markov(A: TransitionMatrix, seed: int) -> MarkovMeasure:
    """One random Markov measure on A: `sample_markov_batch` with a single seed."""
    return sample_markov_batch(A, [seed])[0]


def cylinder_measure(mu: MarkovMeasure, word) -> float:
    """Measure of the cylinder set of a word: r[w0] * prod Q[w_t, w_t+1].

    Inadmissible words are rejected rather than mapped to 0, to surface caller bugs.
    """
    if not is_admissible(mu.support, word):
        raise InputError(f"word {tuple(word)} is not admissible")
    p = float(mu.stationary[word[0]])
    for a, b in zip(word, word[1:]):
        p *= float(mu.transition[a, b])
    return p


def entropy(mu: MarkovMeasure) -> float:
    """Kolmogorov-Sinai entropy -sum r_i Q_ij log Q_ij in nats (0 log 0 = 0)."""
    Q = mu.transition
    mask = Q > 0.0
    terms = np.where(mask, Q * np.log(np.where(mask, Q, 1.0)), 0.0)
    return float(-(mu.stationary[:, None] * terms).sum())


@dataclass(frozen=True)
class LocallyConstantFunction:
    """A function depending on the first `depth` coordinates, stored as one value
    per admissible depth-word in lexicographic order."""

    matrix: TransitionMatrix
    depth: int
    values: np.ndarray

    def __post_init__(self):
        if self.depth < 1:
            raise InputError(f"depth must be at least 1, got {self.depth}")
        vals = np.array(self.values, dtype=float)
        expected = word_count(self.matrix, self.depth)
        if vals.shape != (expected,):
            raise InputError(
                f"need {expected} values for depth {self.depth}, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def words(self) -> tuple[Word, ...]:
        return enumerate_words(self.matrix, self.depth)

    def value(self, word) -> float:
        idx = word_index(self.matrix, self.depth).get(tuple(word))
        if idx is None:
            raise InputError(f"word {tuple(word)} is not an admissible depth-{self.depth} word")
        return float(self.values[idx])


def constant_function(A: TransitionMatrix, value: float, depth: int = 1) -> LocallyConstantFunction:
    return LocallyConstantFunction(A, depth, np.full(word_count(A, depth), float(value)))


def indicator(A: TransitionMatrix, word) -> LocallyConstantFunction:
    """Indicator of the cylinder of `word`, as a depth-len(word) function."""
    w = tuple(word)
    if not is_admissible(A, w):
        raise InputError(f"word {w} is not admissible")
    vals = np.zeros(word_count(A, len(w)))
    vals[word_index(A, len(w))[w]] = 1.0
    return LocallyConstantFunction(A, len(w), vals)


def random_function(A: TransitionMatrix, depth: int, seed: int) -> LocallyConstantFunction:
    """Standard normal values on the depth-words, from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return LocallyConstantFunction(A, depth, rng.standard_normal(word_count(A, depth)))


def cylinder_measure_vector(mu: MarkovMeasure, depth: int) -> np.ndarray:
    """Measures of all admissible depth-words, aligned with the rows of
    `word_array`: the left-to-right product of cylinder_measure, one column at
    a time."""
    W = word_array(mu.support, depth)
    p = mu.stationary[W[:, 0]]
    for t in range(1, depth):
        p = p * mu.transition[W[:, t - 1], W[:, t]]
    return p


def integrate(f: LocallyConstantFunction, mu: MarkovMeasure) -> float:
    """Exact integral of f: the measure-weighted sum over admissible depth-words."""
    if f.matrix != mu.support:
        raise InputError("function and measure live on different transition matrices")
    return float(f.values @ cylinder_measure_vector(mu, f.depth))


def centered(f: LocallyConstantFunction, mu: MarkovMeasure) -> LocallyConstantFunction:
    """f minus its mu-integral."""
    return LocallyConstantFunction(f.matrix, f.depth, f.values - integrate(f, mu))


def information_mean(mu: MarkovMeasure, eig: PerronData) -> float:
    """Integral against mu of the information function of the Parry measure,
    in coboundary form iota(x) = log(lam) + g(x1) - g(x0) with g = log u.

    Equals log(lam) for every stationary mu: the coboundary part cancels.
    """
    g = np.log(eig.u)
    W = word_array(mu.support, 2)
    iota = float(np.log(eig.lam)) + g[W[:, 1]] - g[W[:, 0]]
    return integrate(LocallyConstantFunction(mu.support, 2, iota), mu)


def conditional_vectors(mu: MarkovMeasure, eig: PerronData, j: int):
    """Conditional distributions over the predecessor set S_j of symbol j.

    Returns (p, q): p_i = u_i / (lam u_j) is the Parry conditional, and
    q_i = r_i Q[i, j] / r_j the conditional of mu. Both sum to 1; q needs r_j > 0.
    """
    A = mu.support
    S = predecessors(A, j)
    idx = list(S)
    p = eig.u[idx] / (eig.lam * eig.u[j])
    rj = float(mu.stationary[j])
    if rj <= 0.0:
        raise InputError(f"symbol {j} has zero stationary mass; conditional undefined")
    q = mu.stationary[idx] * mu.transition[idx, j] / rj
    return p, q
