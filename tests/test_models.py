import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sftbounds
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import PHI, dp_avoid_count
from sftbounds import (
    Branch,
    InputError,
    ball_to_cylinders,
    build_model,
    cylinder_interval,
    cylinder_measure,
    enumerate_words,
    exceptional_dimension_bound,
    model_preset,
    parry_measure,
    perron_eigendata,
    prune_words,
)
from sftbounds import cli, measures, models
from sftbounds.cli import main
from sftbounds.io import load_model
from sftbounds.models import ENDPOINT_TOL, _ball_segments, _contained, _cover_cells

DOUBLING = model_preset("doubling")


def test_doubling_preset(full2):
    assert DOUBLING.transition == full2
    assert DOUBLING.theta0 == 2.0 and DOUBLING.cap_theta == 2.0
    assert DOUBLING.circle


def test_triadic_preset():
    m = model_preset("triadic")
    assert m.transition.size == 3
    assert abs(perron_eigendata(m.transition).lam - 3.0) <= 1e-12


def test_golden_preset(golden):
    m = model_preset("golden")
    assert m.transition == golden
    assert m.theta0 == 2.0


def test_unknown_preset_rejected():
    with pytest.raises(InputError):
        model_preset("nope")


def test_non_markov_branches_rejected():
    # image [0, 0.9] cuts the second partition interval [0.5, 1]
    with pytest.raises(InputError, match="Markov"):
        build_model([Branch(0.0, 0.5, 1.8, 0.0), Branch(0.5, 1.0, 2.0, -1.0)])


def test_slope_one_rejected():
    with pytest.raises(InputError, match="slope"):
        build_model([Branch(0.0, 0.5, 1.0, 0.0), Branch(0.5, 1.0, 2.0, -1.0)])


def test_cylinder_interval_dyadic():
    ci = cylinder_interval(DOUBLING, (0, 1, 1))
    assert abs(ci.lo - 0.375) <= 1e-15 and abs(ci.hi - 0.5) <= 1e-15
    ci0 = cylinder_interval(DOUBLING, (0,))
    assert (ci0.lo, ci0.hi) == (0.0, 0.5)


def test_cylinder_lengths_doubling():
    for k in range(1, 7):
        for w in enumerate_words(DOUBLING.transition, k):
            ci = cylinder_interval(DOUBLING, w)
            assert abs(ci.hi - ci.lo - 2.0**-k) <= 1e-12


def test_cylinder_nesting():
    model = model_preset("golden")
    for w in enumerate_words(model.transition, 4):
        inner = cylinder_interval(model, w)
        outer = cylinder_interval(model, w[:-1])
        assert outer.lo - 1e-12 <= inner.lo and inner.hi <= outer.hi + 1e-12
        assert inner.hi - inner.lo <= model.theta0 ** -(len(w) - 1) * 0.5 + 1e-12


def test_cylinder_rejects_inadmissible():
    model = model_preset("golden")
    with pytest.raises(InputError):
        cylinder_interval(model, (1, 1))


def test_factor_map_equivariance():
    # the branch image of a cylinder covers the cylinder of the shifted word
    for k in range(2, 7):
        for w in enumerate_words(DOUBLING.transition, k):
            ci = cylinder_interval(DOUBLING, w)
            branch = DOUBLING.branches[w[0]]
            img = sorted((branch(ci.lo), branch(ci.hi)))
            shifted = cylinder_interval(DOUBLING, w[1:])
            assert img[0] - 1e-12 <= shifted.lo and shifted.hi <= img[1] + 1e-12


def test_lebesgue_matches_parry_on_doubling(eig_full2):
    m = parry_measure(DOUBLING.transition, eig_full2)
    for k in range(1, 7):
        for w in enumerate_words(DOUBLING.transition, k):
            ci = cylinder_interval(DOUBLING, w)
            assert abs(ci.hi - ci.lo - cylinder_measure(m, w)) <= 1e-12


def test_ball_cover_wraparound_anchor():
    cover = ball_to_cylinders(DOUBLING, 0.0, 0.125)
    assert cover.depth == 4
    inner = {"".join(map(str, c.word)) for c in cover.inner}
    outer = {"".join(map(str, c.word)) for c in cover.outer}
    assert outer == {"0000", "0001", "1110", "1111"}
    assert inner == outer
    assert cover.inner


def test_ball_cover_sandwich():
    for x0, delta in ((0.3, 0.07), (0.5, 0.2), (0.9, 0.2), (0.0, 0.11)):
        cover = ball_to_cylinders(DOUBLING, x0, delta)
        segments = _ball_segments(DOUBLING, x0, delta)
        assert {c.word for c in cover.inner} <= {c.word for c in cover.outer}
        for c in cover.inner:
            ci = cylinder_interval(DOUBLING, c.word)
            assert any(lo - 1e-12 <= ci.lo and ci.hi <= hi + 1e-12 for lo, hi in segments)
        # the outer intervals cover the ball: test on a fine grid
        union = [
            (cylinder_interval(DOUBLING, c.word).lo, cylinder_interval(DOUBLING, c.word).hi)
            for c in cover.outer
        ]
        for lo, hi in segments:
            for x in np.linspace(lo + 1e-9, hi - 1e-9, 101):
                assert any(a - 1e-12 <= x <= b + 1e-12 for a, b in union)


def test_ball_cover_at_partition_endpoint():
    cover = ball_to_cylinders(DOUBLING, 0.5, 0.1)
    starts = {c.word[0] for c in cover.outer}
    assert starts == {0, 1}


def _reflected(model):
    """The model conjugated by x -> 1 - x: the branch order reverses."""
    return build_model(
        [Branch(1.0 - b.hi, 1.0 - b.lo, b.slope, 1.0 - b.slope - b.intercept)
         for b in model.branches],
        circle=model.circle,
    )


COVER_MODELS = {name: model_preset(name) for name in ("doubling", "triadic", "golden")}
# The tent map's second branch has slope -2: its preimages swap their ends.
COVER_MODELS["tent"] = build_model([Branch(0.0, 0.5, 2.0, 0.0), Branch(0.5, 1.0, -2.0, 2.0)])
COVER_MODELS.update({name + "-reflected": _reflected(m) for name, m in list(COVER_MODELS.items())})


@functools.lru_cache(maxsize=None)
def _all_intervals(key, depth):
    model = COVER_MODELS[key]
    return [(w, cylinder_interval(model, w)) for w in enumerate_words(model.transition, depth)]


def brute_force_cover(key, x0, delta):
    """The enumerate-everything cover: every depth-k word's interval, classified
    by the same overlap and containment tests as `ball_to_cylinders`."""
    model = COVER_MODELS[key]
    depth = math.ceil(math.log(1.0 / delta) / math.log(model.theta0) - 1e-12) + 1
    segments = _ball_segments(model, x0, delta)
    inner = []
    outer = []
    for w, ci in _all_intervals(key, depth):
        overlaps = any(
            min(ci.hi, hi) - max(ci.lo, lo) > ENDPOINT_TOL for lo, hi in segments
        )
        contained = any(
            lo - ENDPOINT_TOL <= ci.lo and ci.hi <= hi + ENDPOINT_TOL
            for lo, hi in segments
        )
        if overlaps:
            outer.append(w)
        if contained:
            inner.append(w)
    return depth, tuple(inner), tuple(outer)


@settings(max_examples=40)
@given(
    key=st.sampled_from(sorted(COVER_MODELS)),
    x0=st.floats(0.0, 1.0),
    delta=st.floats(1e-4, 0.45),
)
# ball edges on cylinder endpoints, where the tolerance band decides
@example(key="doubling", x0=3 / 16, delta=1 / 16)
@example(key="doubling", x0=5 / 1024, delta=1 / 1024)
@example(key="doubling", x0=0.5, delta=0.25)
@example(key="doubling-reflected", x0=13 / 64, delta=1 / 64)
@example(key="triadic", x0=1 / 3, delta=1 / 9)
@example(key="triadic", x0=1 / 3, delta=1e-3)
@example(key="triadic-reflected", x0=1 / 3, delta=1 / 27)
# wraparound on the circle, and the edge of the golden repeller
@example(key="doubling", x0=0.0, delta=0.125)
@example(key="triadic", x0=0.0, delta=1 / 27)
@example(key="triadic", x0=1.0, delta=1e-3)
@example(key="golden", x0=0.0, delta=1 / 16)
@example(key="golden-reflected", x0=1.0, delta=1e-4)
def test_ball_cover_descent_equals_brute_force(key, x0, delta):
    cover = ball_to_cylinders(COVER_MODELS[key], x0, delta)
    depth, inner, outer = brute_force_cover(key, x0, delta)
    assert cover.depth == depth
    assert tuple(c.word for c in cover.inner) == inner
    assert tuple(c.word for c in cover.outer) == outer


@settings(max_examples=20)
@given(
    key=st.sampled_from(sorted(COVER_MODELS)),
    x0=st.floats(0.0, 1.0),
    delta=st.floats(1e-4, 0.45),
)
def test_ball_cover_cells_are_their_cylinder_intervals(key, x0, delta):
    model = COVER_MODELS[key]
    cover = ball_to_cylinders(model, x0, delta)
    for c in cover.cells:
        assert c == cylinder_interval(model, c.word)


@settings(max_examples=40)
@given(
    key=st.sampled_from(sorted(COVER_MODELS)),
    x0=st.floats(0.0, 1.0),
    delta=st.floats(1e-4, 0.45),
)
@example(key="doubling", x0=0.125, delta=0.125)
@example(key="golden", x0=0.9, delta=0.01)
@example(key="tent", x0=0.75, delta=0.25)
def test_inner_cells_extend_the_shortest_inner_words(key, x0, delta):
    # Each inner cell extends exactly one shortest inner word, and every
    # depth-k extension of one is an inner cell; forbidding those words gives
    # the radius of forbidding the inner cells, to the bit.
    model = COVER_MODELS[key]
    rep = exceptional_dimension_bound(model, x0, delta)
    cover = rep.cover
    shortest = cover.shortest_inner
    assert list(shortest) == sorted(set(shortest))
    extending = {w: [u for u in shortest if w[:len(u)] == u]
                 for w in enumerate_words(model.transition, cover.depth)}
    assert tuple(c.word for c in cover.inner) == tuple(w for w, us in extending.items() if us)
    assert all(len(us) <= 1 for us in extending.values())
    inner = prune_words(model.transition, [c.word for c in cover.inner])
    assert rep.pruned.survivor_lambda == inner.survivor_lambda


def test_model_dim_pulls_back_only_the_cover_descent(monkeypatch, capsys):
    # The rows reuse the cover's cells: no interval is pulled back twice.
    calls = []
    real = models._pull_back

    def counting(model, word):
        calls.append(word)
        return real(model, word)

    monkeypatch.setattr(models, "_pull_back", counting)
    ball_to_cylinders(model_preset("triadic"), 0.3, 1e-3)
    descent = len(calls)
    calls.clear()
    assert main(["model-dim", "--model", "triadic", "--x0", "0.3", "--delta", "1e-3"]) == 0
    assert len(calls) == descent


@pytest.mark.parametrize("x0", [0.3, 0.1234567, 0.7071067811865476, 0.6180339887498949])
@pytest.mark.parametrize("delta", [1e-12, 3e-13])
def test_descent_reaches_every_word_near_the_ball(x0, delta):
    # Cylinders shorter than ENDPOINT_TOL, where the cover's absolute-tolerance
    # classification is not sound (ROADMAP, automaton pruning). Only the descent
    # is checked: the depth-k doubling cylinder of j is exactly
    # [j / 2^k, (j + 1) / 2^k], and every j whose cylinder comes within
    # ENDPOINT_TOL of the ball, which is every word a tolerance test could mark
    # inner or outer, must be a candidate, among few others.
    k = math.ceil(math.log2(1.0 / delta) - 1e-12) + 1
    segments = _ball_segments(DOUBLING, x0, delta)
    candidates = [c.word for c, _ in _cover_cells(DOUBLING, segments, k)[0]]
    assert candidates == sorted(candidates)
    codes = {int("".join(map(str, w)), 2) for w in candidates}
    (lo, hi), = segments
    lo, hi, tol = Fraction(lo), Fraction(hi), Fraction(ENDPOINT_TOL)
    near = {
        j for j in range(math.floor((lo - tol) * 2**k), math.ceil((hi + tol) * 2**k))
        if Fraction(j, 2**k) <= hi + tol and Fraction(j + 1, 2**k) >= lo - tol
    }
    assert near and near <= codes
    # parents within the 2 * ENDPOINT_TOL slack of the ball, two children each
    assert len(candidates) <= 2 * ((2 * delta + 4 * ENDPOINT_TOL) * 2 ** (k - 1) + 2)


@pytest.mark.parametrize("delta", [1e-6, 1e-20])
def test_model_dim_ceiling_trips_before_cover_work(monkeypatch, tmp_path, delta):
    # delta=1e-6: depth 21, 2^21 words; the descent builds O(depth) cylinder
    # intervals, not 2^21, and the pruned automaton has a few dozen states,
    # so no ceiling trips and the bound is finite.
    # delta=1e-20: 2^68 words exceed the word ceiling, which must refuse before
    # the descent, whose prefixes grow like s^depth once cylinders are shorter
    # than ENDPOINT_TOL.
    calls = []
    real = models._pull_back

    def counting(model, word):
        calls.append(word)
        return real(model, word)

    monkeypatch.setattr(models, "_pull_back", counting)
    status = main(["model-dim", "--model", "doubling", "--x0", "0.125", "--delta", str(delta),
                   "--out", str(tmp_path / "dim.json")])
    assert len(calls) < 1000
    if delta == 1e-20:
        assert status == 2
    else:
        assert status == 0
        summary = json.loads((tmp_path / "dim.json").read_text())
        assert summary["depth"] == 21 and math.isfinite(summary["bound"])
        assert 0.0 < summary["bound"] < 1.0


def test_ball_cover_rejects_bad_inputs():
    with pytest.raises(InputError):
        ball_to_cylinders(DOUBLING, 0.2, 0.5)
    with pytest.raises(InputError):
        ball_to_cylinders(DOUBLING, 1.5, 0.1)


def test_tiny_delta_inner_may_be_empty():
    model = model_preset("golden")
    cover = ball_to_cylinders(model, 0.62, 0.004)
    assert not cover.inner or set(cover.inner) <= set(cover.outer)


def test_dimension_bound_hole_00():
    # ball of radius 1/8 at 1/8 is exactly the dyadic cylinder [0, 1/4]
    rep = exceptional_dimension_bound(DOUBLING, 0.125, 0.125)
    assert {"".join(map(str, c.word)) for c in rep.cover.inner} == {"0000", "0001", "0010", "0011"}
    assert abs(rep.bound - math.log(PHI) / math.log(2)) <= 1e-8
    assert abs(rep.pruned.survivor_lambda - PHI) <= 1e-9
    assert abs(rep.outer_measure - 0.25) <= 1e-12
    # the four inner and four outer cells each have Parry measure 2^-4
    assert rep.cell_measures.tolist() == [0.0625] * 8


# Two branches of slope 2.2 and one of slope 11; the ball is the third branch.
# The orbits that avoid it hold the two-branch Cantor set, of dimension
# log 2 / log 2.2 (Moran), above 1 - (log lam - h_plus) / log 11.
COUNTEREXAMPLE = {"branches": [
    {"domain": [0.0, 1 / 2.2], "slope": 2.2, "intercept": 0.0},
    {"domain": [1 / 2.2, 2 / 2.2], "slope": 2.2, "intercept": -1.0},
    {"domain": [2 / 2.2, 1.0], "slope": 11.0, "intercept": -10.0},
]}


def test_unequal_slopes_bound_the_cantor_set(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(COUNTEREXAMPLE))
    code = main(["model-dim", "--model", str(path), "--x0", "0.9545454545454546",
                 "--delta", "0.04545454545454547"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(summary["bound"] - math.log(2) / math.log(2.2)) <= 1e-12
    assert "implied_c" not in summary and "shape_bound" not in summary


# The maps of COVER_MODELS, a map with a short branch and the map with
# unequal slopes, whose cylinders come in many lengths.
CLASSIFY_MODELS = dict(
    COVER_MODELS,
    short=build_model([Branch(0.0, 0.18, 1 / 0.18, 0.0), Branch(0.18, 1.0, 1 / 0.82, -0.18 / 0.82)]),
    unequal=build_model(COUNTEREXAMPLE["branches"]),
)


@settings(max_examples=40)
@given(
    key=st.sampled_from(sorted(COVER_MODELS)),
    x0=st.floats(0.0, 1.0),
    delta=st.floats(1e-4, 0.45),
)
@example(key="doubling", x0=0.125, delta=0.125)
@example(key="short", x0=0.09, delta=0.09)
@example(key="short", x0=0.5, delta=0.2)
@example(key="short", x0=0.95, delta=0.3)
@example(key="unequal", x0=0.9545454545454546, delta=0.04545454545454547)
@example(key="unequal", x0=0.3, delta=1e-3)
@example(key="unequal", x0=0.5, delta=0.1)
def test_inner_cells_are_the_contained_cells(key, x0, delta):
    # The descent marks the extensions of a contained prefix inside without
    # testing them; cylinders nest in floating point, so the test agrees.
    model = CLASSIFY_MODELS[key]
    cover = ball_to_cylinders(model, x0, delta)
    segments = _ball_segments(model, x0, delta)
    cells, _ = _cover_cells(model, segments, cover.depth)
    assert all(inside == _contained(ci, segments) for ci, inside in cells)
    assert cover.inner == tuple(ci for ci, _ in cells if _contained(ci, segments))


def test_each_descended_cell_is_tested_for_containment_once(monkeypatch):
    # Every cell the descent pulls back is tested once, unless a shorter
    # prefix of it was found inside the ball; the cover tests no cell again.
    pulled, tested = [], []
    real_interval, real_contained = models._pull_back, models._contained

    def pulling(model, word):
        pulled.append(tuple(word))
        return real_interval(model, word)

    def testing(cell, segments):
        tested.append(cell.word)
        return real_contained(cell, segments)

    monkeypatch.setattr(models, "_pull_back", pulling)
    monkeypatch.setattr(models, "_contained", testing)
    for key, x0, delta in (("doubling", 0.125, 0.125), ("triadic", 0.3, 1e-3),
                           ("golden", 1 / 3, 1e-4), ("short", 0.09, 0.09)):
        pulled.clear()
        tested.clear()
        cover = ball_to_cylinders(CLASSIFY_MODELS[key], x0, delta)
        below = {w for w in pulled for u in cover.shortest_inner if len(u) < len(w) and w[:len(u)] == u}
        assert tested == [w for w in pulled if w not in below]
        assert len(set(tested)) == len(tested)
        assert below  # each ball holds a cylinder shorter than its depth


def test_ball_off_the_repeller_bounds_by_the_whole_repeller(capsys):
    # [0.89, 0.91] misses the golden repeller, which lies in [0, 3/4]: no cell
    # is inner, and the bound is the repeller's box dimension log phi / log 2.
    code = main(["model-dim", "--model", "golden", "--x0", "0.9", "--delta", "0.01"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0 and summary["inner_count"] == 0 and summary["trivial"]
    assert abs(summary["bound"] - math.log(PHI) / math.log(2)) <= 1e-12


def test_whole_short_branch_hole_prunes_one_word():
    # The ball is branch 0 of a 0.18/0.82 map: its 8192 depth-14 inner cells
    # all extend the word 0, and forbidding 0 leaves the one state 1, whose
    # only orbit is the fixed point. Pruning every cell once asked for
    # 106498 automaton states, past the ceiling.
    model = build_model([Branch(0.0, 0.18, 1 / 0.18, 0.0),
                         Branch(0.18, 1.0, 1 / 0.82, -0.18 / 0.82)])
    rep = exceptional_dimension_bound(model, 0.09, 0.09)
    assert rep.cover.depth == 14 and len(rep.cover.inner) == 8192
    assert rep.cover.shortest_inner == ((0,),)
    assert rep.pruned.states == ((1,),)
    assert rep.pruned.survivor_lambda == 1.0 and rep.bound == 0.0


@st.composite
def full_branch_holes(draw):
    """An increasing affine full-branch map on [0, 1] with 2-4 branches, each
    0.15 to 0.6 long (longer ones need deep covers of many cells), or
    all 1/s long; the index of one branch; and whether the lengths are equal."""
    s = draw(st.integers(2, 4))
    equal = draw(st.booleans())
    if equal:
        lengths = [1.0 / s] * s
    else:
        # each length is low plus a share of the rest, so none passes 0.6
        low = max(0.15, 0.4 / (s - 1))
        weights = [draw(st.floats(0.01, 1.0)) for _ in range(s)]
        lengths = [low + (1.0 - s * low) * w / sum(weights) for w in weights]
    edges = [0.0]
    for length in lengths[:-1]:
        edges.append(edges[-1] + length)
    edges.append(1.0)
    branches = [Branch(a, b, 1.0 / (b - a), -a / (b - a)) for a, b in zip(edges, edges[1:])]
    return build_model(branches), edges, draw(st.integers(0, s - 1)), equal


@settings(max_examples=40)
@given(full_branch_holes())
def test_whole_branch_hole_bound_is_at_least_moran_dimension(case):
    # Orbits avoiding branch j are the Cantor set of the other branches, whose
    # dimension is the root t of sum r_i^t = 1 over their lengths r_i.
    import mpmath

    model, edges, j, equal = case
    lengths = [b - a for a, b in zip(edges, edges[1:])]
    others = [mpmath.mpf(r) for i, r in enumerate(lengths) if i != j]
    with mpmath.workdps(30):
        root = float(mpmath.findroot(lambda t: sum(r**t for r in others) - 1, (0, 1),
                                     solver="anderson"))
    rep = exceptional_dimension_bound(model, (edges[j] + edges[j + 1]) / 2,
                                      (edges[j + 1] - edges[j]) / 2)
    assert rep.cover.inner
    assert rep.bound >= root - 1e-12
    if equal:
        assert abs(rep.bound - root) <= 1e-9


def test_model_dim_measures_its_cover_in_one_product(capsys, monkeypatch):
    # one Parry measure and one product for every cell, where a second Parry
    # measure and one cylinder_measure call per cell were used before
    calls = {"parry_measure": 0, "cylinder_measure": 0, "_cylinder_products": 0}
    originals = {name: getattr(measures, name) for name in calls}

    def counting(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return wrapper

    for module in (sftbounds, measures, models, cli):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name))
    code = main(["model-dim", "--model", "doubling", "--x0", "0.125", "--delta", "1e-3"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0 and summary["inner_count"] + summary["outer_count"] > 1
    assert calls == {"parry_measure": 1, "cylinder_measure": 0, "_cylinder_products": 1}


def test_outer_measure_is_summed_left_to_right():
    # Python's sum() is compensated from 3.12 on, and gives
    # 0.0021338210638622156 on these measures.
    rep = exceptional_dimension_bound(model_preset("triadic"), 0.3, 1e-3)
    assert rep.outer_measure == 0.002133821063862215


def test_dimension_report_carries_pruned_cover():
    # the four inner cells 00xx are pruned as the one word 00
    rep = exceptional_dimension_bound(DOUBLING, 0.125, 0.125)
    assert rep.cover.shortest_inner == ((0, 0),)
    ps = prune_words(DOUBLING.transition, rep.cover.shortest_inner)
    assert rep.pruned.states == ps.states
    assert np.array_equal(rep.pruned.successors, ps.successors)
    # an empty cover forbids nothing: its automaton is A's own graph
    golden = model_preset("golden")
    trivial = exceptional_dimension_bound(golden, 0.62, 0.004)
    own = prune_words(golden.transition, ())
    assert not trivial.cover.inner and trivial.cover.shortest_inner == ()
    assert trivial.pruned.states == own.states == ((0,), (1,))
    assert np.array_equal(trivial.pruned.successors, own.successors)


def test_dimension_bound_box_count_cross_check(full2):
    rep = exceptional_dimension_bound(DOUBLING, 0.125, 0.125)
    count = dp_avoid_count(full2, (0, 0), 20)
    estimate = math.log(count) / (20 * math.log(2))
    assert abs(estimate - rep.bound) <= 0.05


def test_dimension_bound_delta_monotone():
    prev = None
    for delta in np.geomspace(0.01, 0.35, 10):
        rep = exceptional_dimension_bound(DOUBLING, 0.125, float(delta))
        if prev is not None:
            assert rep.bound <= prev + 1e-9
        prev = rep.bound
    assert prev <= 0.1  # a near-half hole crushes the dimension


def test_dimension_bound_trivial_flag():
    # the ball misses the golden repeller: the bound is the repeller's own
    # box dimension, log phi / log 2
    model = model_preset("golden")
    rep = exceptional_dimension_bound(model, 0.62, 0.004)
    assert not rep.cover.inner
    assert abs(rep.bound - math.log(PHI) / math.log(2)) <= 1e-12


def test_model_json_roundtrip(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "branches": [
            {"domain": [0.0, 0.5], "slope": 2.0, "intercept": 0.0},
            {"domain": [0.5, 1.0], "slope": 2.0, "intercept": -1.0},
        ],
        "circle": True,
    }))
    model = load_model(path)
    assert model.transition.rows == ((1, 1), (1, 1))
    assert model.circle


def test_load_model_accepts_preset_names():
    assert load_model("doubling").circle
