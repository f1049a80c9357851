"""The vectorized evaluation code against the per-candidate loops it
replaced (kept in reference_impls): the stacked hinge solve and the problem
stacks of eval_ranking, the analogy answer, the induction ordering and its
AP, the classification threshold, the average ranks and the screened
link-prediction ranks.  Instances draw
tied values, duplicate and zero points, and pools that hold the query
entities."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impls as ref
from typespace import evalharness
from typespace.evalharness import (
    C_GRID,
    AnalogyProblem,
    EmbeddingView,
    InductionProblem,
    RankingProblem,
    _average_ranks,
    _best_threshold,
    _hinge_directions,
    _link_ranks,
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
    return TypeSystem(("pool",), {"pool": members}, {"pool": frozenset({"pool"})})


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
        stacked = _hinge_directions(diffs)
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
        got = fit_ranking_direction(train, valid)
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
        stacked = _hinge_directions(diffs)
        for k, c in enumerate(C_GRID):
            want = ref.ref_hinge_direction(diffs, c)
            _assert_close(stacked[k], want)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_stacked_problems_match_lone_solves(self, data):
        # Problems of one pair count P share a stack; each must solve to the
        # bits of its own solve, whatever the others hold.
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        b, m, n = draw(st.integers(1, 4)), draw(st.integers(2, 20)), draw(st.integers(1, 24))
        vals = rng.integers(0, draw(st.integers(2, 6)), size=m).astype(np.float64)
        vals[:2] = (0.0, 1.0)
        lone = [evalharness._pair_diffs(_points(draw, rng, m, n), rng.permutation(vals)) for _ in range(b)]
        stacked = _hinge_directions(np.stack(lone))
        for diffs, rows in zip(lone, stacked):
            assert rows.tobytes() == _hinge_directions(diffs).tobytes()
            for k, c in enumerate(C_GRID):
                _assert_close(rows[k], ref.ref_hinge_direction(diffs, c))

    @pytest.mark.parametrize("cells", [1, evalharness._STACK_CELLS])
    def test_eval_ranking_matches_per_problem_fits(self, cells):
        # Two pair counts shared by two problems each and one of a single
        # problem, interleaved; with one cell per stack every problem solves
        # alone.
        rng = np.random.default_rng(5)
        view = _view(rng.normal(size=(60, 4)))
        ids = view.entity_ids

        def problem(name, size, train_vals):
            members = [ids[i] for i in rng.permutation(60)[:size]]
            n_train = len(train_vals)
            rest = rng.normal(size=size - n_train).tolist()
            values = dict(zip(members, [*train_vals, *rest]))
            cut = n_train + (size - n_train) // 2
            return RankingProblem("t", name, values, tuple(members[:n_train]), tuple(members[n_train:cut]), tuple(members[cut:]))

        ties = [0.0, 1.0, 2.0] * 6
        problems = [
            problem("a1", 30, rng.permutation(18).tolist()),
            problem("b1", 30, rng.permutation(ties).tolist()),
            problem("s", 40, rng.permutation(24).tolist()),
            problem("a2", 30, rng.permutation(18).tolist()),
            problem("b2", 30, rng.permutation(ties).tolist()),
        ]
        picked, best = [], evalharness._best_direction
        with mock.patch.object(evalharness, "_STACK_CELLS", cells), \
             mock.patch.object(evalharness, "_hinge_directions", wraps=_hinge_directions) as solve, \
             mock.patch.object(evalharness, "_best_direction", side_effect=lambda *a: picked.append(best(*a)) or picked[-1]):
            out = evalharness.eval_ranking(problems, view)
        assert [call.args[0].shape[0] for call in solve.call_args_list] == ([1] * 5 if cells == 1 else [2, 2, 1])
        for prob, row, got in zip(problems, out["per_problem"], picked, strict=True):
            train, valid, test = ([(view.points[view.index[e]], prob.values[e]) for e in part]
                                  for part in (prob.train, prob.valid, prob.test))
            w = fit_ranking_direction(train, valid)
            assert got.tobytes() == w.tobytes()
            rho = spearman(np.array([p for p, _ in test]) @ w, [v for _, v in test])
            assert (row["attribute"], row["rho"]) == (prob.attribute, rho)


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
            problem = AnalogyProblem(quads=((f"e{a:03d}", f"e{b:03d}", f"e{c:03d}", f"e{d:03d}"),), test_idx=(0,))
            out = eval_analogy(problem, view, ts)
            assert out["accuracy"] == (1.0 if d == want else 0.0), (d, want)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_copies_first_wins(self, seed):
        # Seven copies of the target direction tie exactly, so the first pool
        # entry wins wherever the copies sit in memory.
        row = np.random.default_rng(seed).normal(size=9)
        points = np.vstack([np.tile(row, (7, 1)), np.zeros(9), row])
        problem = AnalogyProblem(quads=(("e007", "e008", "e007", "e000"),), test_idx=(0,))
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



class TestAverageRanks:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, math.inf, -math.inf, math.nan]), st.floats()), max_size=30))
    def test_ranks_match_reference_loop(self, values):
        # Ties share their average rank; NaN values rank last, each alone.
        assert _average_ranks(values).tolist() == ref.ref_average_ranks(values)


class TestScreenedLinkRanks:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_ranks_match_per_query_loop(self, data):
        # The screen's band must hold every row it cannot order against the
        # target: exact ties on grids and duplicate rows, relation vectors of
        # size 0 or 1e-9, h == t, power-of-two scales from 2**-27 to 2**27,
        # and rows near 1e200 whose squares overflow.  The chunk size is
        # drawn down to one query per chunk.
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m, n = draw(st.integers(1, 40)), draw(st.integers(1, 10))
        n_rels, n_triples = draw(st.integers(1, 3)), draw(st.integers(1, 30))
        scale = 2.0 ** draw(st.integers(-27, 27))
        points = scale * _points(draw, rng, m, n)
        rel_kind = draw(st.sampled_from(["grid", "normal", "zero", "tiny"]))
        if rel_kind == "grid":
            rel_vectors = rng.integers(-1, 2, size=(n_rels, n)).astype(np.float64)
        else:
            rel_vectors = rng.normal(size=(n_rels, n)) * {"normal": 1.0, "zero": 0.0, "tiny": 1e-9}[rel_kind]
        rel_vectors *= scale
        if draw(st.booleans()):
            huge = rng.random(m) < 0.3
            points[huge] = 1e200 * rng.normal(size=(int(huge.sum()), n))
        heads, rels, tails = rng.integers(m, size=n_triples), rng.integers(n_rels, size=n_triples), rng.integers(m, size=n_triples)
        if draw(st.booleans()):
            same = rng.random(n_triples) < 0.5
            tails[same] = heads[same]
        view = EmbeddingView(tuple(f"e{i:03d}" for i in range(m)), points, tuple(f"r{k}" for k in range(n_rels)), rel_vectors)
        cells = draw(st.sampled_from([1, 7, 64, evalharness._SCREEN_CELLS]))
        with mock.patch.object(evalharness, "_SCREEN_CELLS", cells):
            got = _link_ranks(view, heads, rels, tails)
        want = ref.ref_link_ranks(points, rel_vectors, zip(heads, rels, tails))
        assert got.tolist() == [list(pair) for pair in want]
