"""Piecewise-affine expanding Markov maps of the interval or circle: symbolic
coding, cylinder intervals, metric-ball-to-cylinder conversion, and dimension
upper bounds for hole-avoiding orbit sets.

Affine branches keep everything exact: cylinder intervals come from backward
iteration of branch inverses, and the induced subshift carries the measures.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .holes import PrunedSystem, prune_words, survivor_entropy
from .measures import _cylinder_products, _left_sum
from .sft import TransitionMatrix, Word, _check_ceiling, is_admissible, transition_matrix, word_count
from .spectral import perron_eigendata

ENDPOINT_TOL = 1e-12


class Branch(NamedTuple):
    """Affine branch x -> slope * x + intercept on the closed domain [lo, hi]."""

    lo: float
    hi: float
    slope: float
    intercept: float

    def __call__(self, x: float) -> float:
        return self.slope * x + self.intercept

    @property
    def image(self) -> tuple[float, float]:
        a, b = self(self.lo), self(self.hi)
        return (a, b) if a <= b else (b, a)

    def preimage(self, lo: float, hi: float) -> tuple[float, float]:
        a = (lo - self.intercept) / self.slope
        b = (hi - self.intercept) / self.slope
        if a > b:
            a, b = b, a
        return max(a, self.lo), min(b, self.hi)


class ExpandingModel(NamedTuple):
    branches: tuple[Branch, ...]
    transition: TransitionMatrix
    theta0: float
    cap_theta: float
    circle: bool


class CylinderInterval(NamedTuple):
    word: Word
    lo: float
    hi: float


def build_model(branch_specs, circle: bool = False) -> ExpandingModel:
    """Construct a model from branch descriptions and derive its transition matrix.

    Each description is a Branch or a dict {"domain": [a, b], "slope": s,
    "intercept": c}. Requirements: domains inside [0, 1] with disjoint interiors,
    every |slope| > 1, images inside [0, 1], and the Markov condition that a
    branch image either contains a partition interval or misses its interior.
    """
    branches = []
    for desc in branch_specs:
        if isinstance(desc, Branch):
            branches.append(desc)
        else:
            lo, hi = (float(x) for x in desc["domain"])
            branches.append(Branch(lo, hi, float(desc["slope"]), float(desc["intercept"])))
    if len(branches) < 2:
        raise InputError("need at least two branches")
    branches.sort(key=lambda b: b.lo)
    for b in branches:
        if not (-ENDPOINT_TOL <= b.lo < b.hi <= 1.0 + ENDPOINT_TOL):
            raise InputError(f"branch domain [{b.lo}, {b.hi}] is not a subinterval of [0, 1]")
        if abs(b.slope) <= 1.0:
            raise InputError(f"branch on [{b.lo}, {b.hi}] has |slope| = {abs(b.slope)} <= 1")
        img = b.image
        if img[0] < -ENDPOINT_TOL or img[1] > 1.0 + ENDPOINT_TOL:
            raise InputError(f"branch image [{img[0]}, {img[1]}] leaves [0, 1]")
    for a, b in zip(branches, branches[1:]):
        if a.hi > b.lo + ENDPOINT_TOL:
            raise InputError(f"branch domains overlap near x = {b.lo}")
    s = len(branches)
    rows = np.zeros((s, s), dtype=int)
    for i, bi in enumerate(branches):
        lo_i, hi_i = bi.image
        for j, bj in enumerate(branches):
            overlap = min(hi_i, bj.hi) - max(lo_i, bj.lo)
            if overlap <= ENDPOINT_TOL:
                continue
            if lo_i > bj.lo + ENDPOINT_TOL or hi_i < bj.hi - ENDPOINT_TOL:
                bad = bj.lo if lo_i > bj.lo + ENDPOINT_TOL else bj.hi
                raise InputError(
                    f"branch {i} image [{lo_i}, {hi_i}] cuts partition interval "
                    f"{j} at endpoint {bad}: the Markov condition fails"
                )
            rows[i, j] = 1
    A = transition_matrix(rows)
    slopes = [abs(b.slope) for b in branches]
    return ExpandingModel(tuple(branches), A, min(slopes), max(slopes), circle)


# The built-in models: branches as (lo, hi, slope, intercept), and whether the
# map is a circle map. "golden" is a repeller coding the golden-mean shift: its
# second branch maps [1/2, 3/4] onto [0, 1/2], the first domain only.
PRESETS = {
    "doubling": (((0.0, 0.5, 2.0, 0.0), (0.5, 1.0, 2.0, -1.0)), True),
    "triadic": (((0.0, 1 / 3, 3.0, 0.0), (1 / 3, 2 / 3, 3.0, -1.0), (2 / 3, 1.0, 3.0, -2.0)), True),
    "golden": (((0.0, 0.5, 2.0, 0.0), (0.5, 0.75, 2.0, -1.0)), False),
}


def model_preset(name: str) -> ExpandingModel:
    """The built-in model `name`, one of PRESETS."""
    if name not in PRESETS:
        raise InputError(f"unknown model preset {name!r}")
    branches, circle = PRESETS[name]
    return build_model([Branch(*b) for b in branches], circle=circle)


def cylinder_interval(model: ExpandingModel, word) -> CylinderInterval:
    """The interval of points whose first len(word) partition visits follow `word`,
    by backward iteration of branch inverses."""
    w = tuple(word)
    if not is_admissible(model.transition, w):
        raise InputError(f"word {w} is not admissible for this model")
    return _pull_back(model, w)


def _pull_back(model: ExpandingModel, w: Word) -> CylinderInterval:
    """The interval of the admissible word `w`, pulled back from its last
    branch's domain through the inverses of the earlier branches."""
    b_last = model.branches[w[-1]]
    lo, hi = b_last.lo, b_last.hi
    for sym in reversed(w[:-1]):
        lo, hi = model.branches[sym].preimage(lo, hi)
        if hi < lo - ENDPOINT_TOL:
            raise InputError(f"empty cylinder interval for word {w}")
    return CylinderInterval(w, lo, hi)


def _ball_segments(model: ExpandingModel, x0: float, delta: float) -> tuple[tuple[float, float], ...]:
    if model.circle:
        lo, hi = x0 - delta, x0 + delta
        if lo < 0.0:
            return ((0.0, hi), (lo + 1.0, 1.0))
        if hi > 1.0:
            return ((lo, 1.0), (0.0, hi - 1.0))
        return ((lo, hi),)
    return ((max(0.0, x0 - delta), min(1.0, x0 + delta)),)


class BallCover(NamedTuple):
    """Depth-k cylinders sandwiching a metric ball, as the cells they were
    classified on: inner cells lie inside the ball, outer cells cover it. The
    inner cells are the depth-k extensions of the `shortest_inner` words."""

    x0: float
    delta: float
    depth: int
    inner: tuple[CylinderInterval, ...]
    outer: tuple[CylinderInterval, ...]
    shortest_inner: tuple[Word, ...]

    @property
    def cells(self) -> tuple[CylinderInterval, ...]:
        """The inner cells, then the outer ones: the order of the model-dim rows."""
        return self.inner + self.outer


def _contained(cell: CylinderInterval, segments) -> bool:
    return any(lo - ENDPOINT_TOL <= cell.lo and cell.hi <= hi + ENDPOINT_TOL for lo, hi in segments)


def _cover_cells(model: ExpandingModel, segments, depth: int):
    """The depth-k cells reached by extending, in ascending successor order,
    only prefixes whose intervals meet a ball segment widened by
    2 * ENDPOINT_TOL, each with whether it lies inside the ball; and, sorted,
    the shortest words `_contained` in the ball. Cylinders nest, in floating
    point too, so the cells hold every word within ENDPOINT_TOL of the ball,
    and a contained word's extensions are contained without a test of their
    own. O(k * s) intervals while cylinders are longer than the slack."""
    slack = 2.0 * ENDPOINT_TOL
    successors = model.transition.successor_sets
    shortest: list[Word] = []
    prefixes = [((a,), False) for a in range(len(model.branches))]  # (word, a prefix is inside)
    for level in range(1, depth + 1):
        cells, kept = [], []
        for w, covered in prefixes:
            ci = _pull_back(model, w)
            inside = covered or _contained(ci, segments)
            cells.append((ci, inside))
            if inside and not covered:
                shortest.append(w)
            if level < depth and any(ci.lo <= hi + slack and lo - slack <= ci.hi for lo, hi in segments):
                kept.extend((w + (c,), inside) for c in successors[w[-1]])
        prefixes = kept
    return cells, tuple(sorted(shortest))


def ball_to_cylinders(model: ExpandingModel, x0: float, delta: float) -> BallCover:
    """Cover a metric ball by inner and outer depth-k cylinder cells,
    k = ceil(log(1/delta) / log(theta0)) + 1, in lexicographic order.

    Refused when k * k passes WORD_CEILING, before any word is counted: the
    descent pulls each kept prefix back through all of its symbols, at least
    k * k / 2 branch inversions. Refused too when there are more than
    WORD_CEILING admissible k-words: below ENDPOINT_TOL the descent keeps
    every prefix within the slack of the ball, so only the word count bounds
    its work."""
    if not 0.0 < delta < 0.5:
        raise InputError(f"delta must lie in (0, 1/2), got {delta}")
    if not 0.0 <= x0 <= 1.0:
        raise InputError(f"x0 must lie in [0, 1], got {x0}")
    ratio = math.log(1.0 / delta) / math.log(model.theta0)
    depth = math.ceil(ratio - 1e-12) + 1
    _check_ceiling(depth * depth, "a cover of depth {}: depth squared {}", depth, depth * depth)
    n = word_count(model.transition, depth)
    _check_ceiling(n, "{} admissible words of length {}", n, depth)
    segments = _ball_segments(model, x0, delta)
    cells, shortest = _cover_cells(model, segments, depth)
    inner = tuple(ci for ci, inside in cells if inside)
    outer = tuple(ci for ci, _ in cells
                  if any(min(ci.hi, hi) - max(ci.lo, lo) > ENDPOINT_TOL for lo, hi in segments))
    return BallCover(x0, delta, depth, inner, outer, shortest)


class DimensionReport(NamedTuple):
    cover: BallCover
    cell_measures: np.ndarray  # Parry measure of each cell of cover.cells
    outer_measure: float
    h_plus: float
    bound: float
    pruned: PrunedSystem  # the automaton forbidding cover.shortest_inner
    log_lambda: float  # log lam of the model's shift, from the bound's one Perron solve


def exceptional_dimension_bound(model: ExpandingModel, x0: float, delta: float) -> DimensionReport:
    """Upper bound on the Hausdorff dimension of the set of points whose orbit
    avoids the ball B(x0, delta).

    Avoiding the ball forces avoiding every inner cylinder, so the survivors
    lie in the n-cylinders of the words the pruned inner cover admits: at most
    poly(n) e^(n h_plus) of them, each shorter than theta0^-n. Box counting
    (Falconer, Techniques in Fractal Geometry, 1997, Ch. 3) bounds the
    dimension by min(1, max(h_plus, 0) / log theta0). The shortest inner words
    forbid what the inner cells do, with the same radius bits (see `holes`);
    an empty cover forbids nothing and bounds the whole repeller. The cells
    are measured under the Parry measure in one product.
    """
    cover = ball_to_cylinders(model, x0, delta)
    A = model.transition
    eig = perron_eigendata(A)
    words = np.array([c.word for c in cover.cells], dtype=np.int64).reshape(-1, cover.depth)
    measures = _cylinder_products(eig.parry, words)
    outer_measure = _left_sum(measures[len(cover.inner):].tolist())
    ps = prune_words(A, cover.shortest_inner)
    h_plus = survivor_entropy(ps)
    bound = min(1.0, max(h_plus, 0.0) / math.log(model.theta0))
    return DimensionReport(cover, measures, outer_measure, h_plus, bound, ps, float(np.log(eig.lam)))
