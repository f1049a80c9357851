"""The vectorized evaluation code against the per-candidate loops it
replaced (kept in reference_impls): the stacked hinge solve, the analogy
answer, the induction ordering and its AP, and the classification
threshold.  Instances draw tied values, duplicate and zero points, and
pools that hold the query entities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impls as ref
from typespace.evalharness import (
    C_GRID,
    AnalogyProblem,
    EmbeddingView,
    InductionProblem,
    _best_threshold,
    _hinge_directions,
    average_precision,
    eval_analogy,
    eval_induction,
    fit_ranking_direction,
    precision_at_k,
    reciprocal_rank,
    spearman,
)
from typespace.ingest import TypeSystem
from typespace.subspace import centroid


def _points(draw, rng, m, n, nonfinite=False):
    """m points in n dims: normal, on a small integer grid (ties and zero
    rows), or normal with some rows zeroed, duplicated or scaled by a power
    of two (exactly tied cosines); with nonfinite, some rows of huge, NaN
    or infinite values (NaN cosines)."""
    kind = draw(st.sampled_from(["normal", "grid", "mixed"]))
    if kind == "grid":
        return rng.integers(-2, 3, size=(m, n)).astype(np.float64)
    pts = rng.normal(size=(m, n))
    if kind == "mixed":
        for i in range(m):
            action = rng.integers(5 if nonfinite else 4)
            j = int(rng.integers(m))
            if action == 1:
                pts[i] = 0.0
            elif action == 2:
                pts[i] = pts[j]
            elif action == 3:
                pts[i] = 2.0 ** int(rng.integers(-2, 3)) * pts[j]
            elif action == 4:
                pts[i, 0] = rng.choice([np.nan, np.inf, -np.inf, 1e300])
    return pts


def _view(points):
    return EmbeddingView(entity_ids=tuple(f"e{i:03d}" for i in range(len(points))), points=points)


def _one_type(members):
    members = tuple(int(i) for i in members)
    return TypeSystem(("pool",), (), {"pool": members}, {"pool": members}, {"pool": frozenset({"pool"})})


def _assert_close(got, want):
    """Equal to 1e-12 of the larger of max |want| and 1: an AdaGrad step
    moves a coordinate by at most lr = 0.5, so rounding differences scale
    with the steps, not with a direction whose sum cancels to near zero."""
    assert np.max(np.abs(got - want)) <= 1e-12 * max(float(np.max(np.abs(want))), 1.0)


class TestStackedHingeSolve:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_columns_match_per_c_solver(self, data):
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m, n = draw(st.integers(2, 30)), draw(st.integers(1, 8))
        pts = _points(draw, rng, m, n)
        vals = rng.integers(0, draw(st.integers(2, 6)), size=m).astype(np.float64)
        vals[:2] = (0.0, 1.0)
        ii, jj = np.nonzero(vals[:, None] > vals[None, :])
        diffs = pts[ii] - pts[jj]
        stacked = _hinge_directions(diffs, C_GRID)
        refs = [ref.ref_hinge_direction(diffs, c) for c in C_GRID]
        for k, want in enumerate(refs):
            _assert_close(stacked[k], want)

        # The validation rho of each row picks C, the first best winning.
        n_train = draw(st.integers(2, m))
        train = [(pts[i], vals[i]) for i in range(n_train)]
        valid = [(pts[i], vals[i]) for i in range(n_train, m)]
        if len({v for _, v in train}) < 2:
            return
        tp, tv = np.array([p for p, _ in train]), np.array([v for _, v in train])
        ii, jj = np.nonzero(tv[:, None] > tv[None, :])
        vp, vv = (np.array([p for p, _ in valid]), np.array([v for _, v in valid])) if valid else (tp, tv)
        best, best_rho = None, -math.inf
        for c in C_GRID:
            w = ref.ref_hinge_direction(tp[ii] - tp[jj], c)
            rho = spearman(vp @ w, vv) if len(vv) >= 2 else 0.0
            if rho > best_rho:
                best, best_rho = w, rho
        got, _ = fit_ranking_direction(train, valid)
        _assert_close(got, best)

    @pytest.mark.parametrize("seed", [127, 421, 438])
    def test_margins_on_the_hinge(self, seed):
        # Integer points whose margins land on 1 exactly during the solve: a
        # margin rounded other than a lone solve rounds it flips a violation.
        rng = np.random.default_rng(seed)
        pts = rng.integers(-2, 3, size=(4, 8)).astype(np.float64)
        vals = rng.integers(0, 6, size=4).astype(np.float64)
        vals[:2] = (0.0, 1.0)
        ii, jj = np.nonzero(vals[:, None] > vals[None, :])
        diffs = pts[ii] - pts[jj]
        stacked = _hinge_directions(diffs, C_GRID)
        for k, c in enumerate(C_GRID):
            want = ref.ref_hinge_direction(diffs, c)
            _assert_close(stacked[k], want)


# Single-entity pools and short candidate lists warn on purpose.
@pytest.mark.filterwarnings("ignore")
class TestAnalogyAnswer:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_chosen_answer_matches_per_candidate_loop(self, data):
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m, n = draw(st.integers(3, 16)), draw(st.integers(1, 12))
        points = _points(draw, rng, m, n, nonfinite=True)
        a, b, c = (int(x) for x in rng.integers(m, size=3))
        if draw(st.booleans()):  # a zero target
            points[c] = points[a] - points[b]
        target = points[b] - points[a] + points[c]
        others = [i for i in range(m) if i not in (a, b, c)]
        if others and draw(st.booleans()):  # copies along the target: tied best scores
            for i in rng.choice(others, size=int(rng.integers(1, len(others) + 1)), replace=False):
                points[i] = 2.0 ** int(rng.integers(-2, 3)) * target
        pool = [int(x) for x in rng.permutation(m)[: draw(st.integers(1, m))]]
        want = ref.ref_analogy_answer(points, pool, {a, b, c}, target)
        view, ts = _view(points), _one_type(pool)
        for d in pool:
            problem = AnalogyProblem(quads=((f"e{a:03d}", f"e{b:03d}", f"e{c:03d}", f"e{d:03d}"),), tune_idx=(), test_idx=(0,))
            out = eval_analogy(problem, view, ts)
            assert out["accuracy"] == (1.0 if d == want else 0.0), (d, want)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_copies_first_wins(self, seed):
        # Seven copies of the target direction tie exactly, so the first pool
        # entry wins wherever the copies sit in memory.
        row = np.random.default_rng(seed).normal(size=9)
        points = np.vstack([np.tile(row, (7, 1)), np.zeros(9), row])
        problem = AnalogyProblem(quads=(("e007", "e008", "e007", "e000"),), tune_idx=(), test_idx=(0,))
        assert eval_analogy(problem, _view(points), _one_type(range(7)))["accuracy"] == 1.0


@pytest.mark.filterwarnings("ignore")
class TestInductionOrdering:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_order_and_metrics_match_python_sort(self, data):
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m, n = draw(st.integers(2, 16)), draw(st.integers(1, 3))
        points = _points(draw, rng, m, n)
        members = [int(x) for x in rng.permutation(m)[: draw(st.integers(2, m))]]
        positives = [int(x) for x in rng.permutation(members)[: draw(st.integers(2, len(members)))]]
        ids = [f"e{i:03d}" for i in positives]
        n_train = draw(st.integers(1, len(ids) - 1))
        n_valid = draw(st.integers(0, len(ids) - n_train - 1))
        prob = InductionProblem("r", "f", tuple(ids[:n_train]), tuple(ids[n_train : n_train + n_valid]), tuple(ids[n_train + n_valid :]))
        out = eval_induction([prob], _view(points), _one_type(members))["per_problem"][0]

        excluded = set(positives[: n_train + n_valid])
        candidates = [i for i in members if i not in excluded]
        dists = np.linalg.norm(points[candidates] - centroid(points[positives[:n_train]]), axis=1)
        relevance = ref.ref_induction_relevance(candidates, dists, set(positives[n_train + n_valid :]))
        precisions = ref.ref_precisions_at_hits(relevance)
        assert out["ap"] == (float(np.mean(precisions)) if precisions else 0.0)
        assert out["p_at_5"] == precision_at_k(relevance, 5)
        assert out["rr"] == reciprocal_rank(relevance)

    @given(st.lists(st.booleans(), max_size=40))
    def test_average_precision_is_mean_of_precisions_at_hits(self, relevance):
        precisions = ref.ref_precisions_at_hits(relevance)
        assert average_precision(relevance) == (float(np.mean(precisions)) if precisions else 0.0)


class TestThresholdScan:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_threshold_bits_match_per_candidate_scan(self, data):
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        size = draw(st.integers(1, 30))
        kind = draw(st.sampled_from(["normal", "grid", "equal", "nonfinite"]))
        if kind == "normal":
            scores = rng.normal(size=size)
        elif kind == "grid":
            scores = rng.integers(-3, 4, size=size) * rng.choice([-1.0, 1.0], size=size)  # with -0.0
        elif kind == "equal":
            scores = np.full(size, rng.normal())
        else:
            scores = rng.choice([np.nan, np.inf, -np.inf, 0.0, 1.0, -2.5, 1e308, -1e308], size=size)
        labels = rng.random(size) < draw(st.floats(0.0, 1.0))
        got = _best_threshold(scores.tolist(), labels.tolist())
        want = float(ref.ref_best_threshold(scores.tolist(), labels.tolist()))
        assert type(got) is float
        assert got.hex() == want.hex()

