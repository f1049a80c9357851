import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impls as ref
from typespace import synth
from typespace.evalharness import (
    _triple_scores,
    AnalogyProblem,
    DegenerateRankingError,
    EmbeddingView,
    InductionProblem,
    ProblemFormatError,
    RankingProblem,
    eval_analogy,
    eval_induction,
    eval_link_prediction,
    eval_ranking,
    eval_triple_classification,
    fit_ranking_direction,
    load_analogy_problems,
    load_induction_problems,
    load_ranking_problems,
    spearman,
)


def make_view(points, rel_ids=(), rel_vectors=None, prefix="e"):
    points = np.asarray(points, dtype=np.float64)
    ids = tuple(f"{prefix}{i:03d}" for i in range(len(points)))
    return EmbeddingView(entity_ids=ids, points=points, rel_ids=tuple(rel_ids), rel_vectors=rel_vectors)


def ranking_problem(values, rng):
    ids = sorted(values)
    order = list(ids)
    rng.shuffle(order)
    n = len(order)
    n_train, n_valid = int(0.6 * n), int(0.2 * n)
    return RankingProblem(
        type_id="t",
        attribute="attr",
        values=values,
        train=tuple(order[:n_train]),
        valid=tuple(order[n_train : n_train + n_valid]),
        test=tuple(order[n_train + n_valid :]),
    )


class TestRankingProblemValidation:
    def test_overlapping_split_rejected(self):
        values = {f"e{i}": float(i) for i in range(30)}
        ids = sorted(values)
        with pytest.raises(ValueError, match="overlap"):
            RankingProblem("t", "a", values, tuple(ids[:20]), tuple(ids[18:25]), tuple(ids[25:]))

    def test_union_must_cover(self):
        values = {f"e{i}": float(i) for i in range(31)}
        ids = sorted(values)
        with pytest.raises(ValueError, match="cover"):
            RankingProblem("t", "a", values, tuple(ids[:18]), tuple(ids[18:24]), tuple(ids[24:30]))

    def test_minimum_size_enforced(self):
        values = {f"e{i}": float(i) for i in range(10)}
        ids = sorted(values)
        with pytest.raises(ValueError, match="30"):
            RankingProblem("t", "a", values, tuple(ids[:6]), tuple(ids[6:8]), tuple(ids[8:]))


class TestFitRankingDirection:
    def test_one_dimensional_separable(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2.0, 2.0, size=(40, 1))
        pairs = [(pts[i], float(pts[i, 0])) for i in range(30)]
        val = [(pts[i], float(pts[i, 0])) for i in range(30, 40)]
        w = fit_ranking_direction(pairs, val)
        assert w[0] > 0.0
        scores = pts[30:] @ w
        assert spearman(scores, [v for _, v in val]) == pytest.approx(1.0)

    def test_antisymmetric_values(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2.0, 2.0, size=(40, 1))
        pairs = [(pts[i], -float(pts[i, 0])) for i in range(30)]
        val = [(pts[i], -float(pts[i, 0])) for i in range(30, 40)]
        w = fit_ranking_direction(pairs, val)
        assert w[0] < 0.0
        assert spearman(pts[30:] @ w, [v for _, v in val]) == pytest.approx(1.0)

    def test_degenerate_values_rejected(self):
        pts = np.random.default_rng(2).normal(size=(10, 2))
        with pytest.raises(DegenerateRankingError):
            fit_ranking_direction([(p, 1.0) for p in pts], [])

    def test_noise_dimension_suppressed(self):
        # value = first coordinate; second coordinate is pure noise.  The
        # fitted direction must stay within 10 degrees of the true axis,
        # which an exhaustive 1-degree direction search confirms is optimal.
        rng = np.random.default_rng(8)
        pts = np.column_stack([rng.uniform(-1, 1, 200), rng.normal(scale=1.0, size=200)])
        vals = pts[:, 0]
        train = [(pts[i], vals[i]) for i in range(150)]
        valid = [(pts[i], vals[i]) for i in range(150, 200)]
        w = fit_ranking_direction(train, valid)
        angle = math.degrees(math.acos(abs(w[0]) / float(np.linalg.norm(w))))
        assert angle < 10.0
        best_deg, best_rho = None, -2.0
        for deg in range(360):
            d = np.array([math.cos(math.radians(deg)), math.sin(math.radians(deg))])
            rho = spearman(pts[:150] @ d, vals[:150])
            if rho > best_rho:
                best_rho, best_deg = rho, deg
        assert min(best_deg % 360, 360 - best_deg % 360) <= 10


class TestEvalRanking:
    def test_no_signal_rho_near_zero(self):
        rng = np.random.default_rng(3)
        view = make_view(np.zeros((40, 4)))
        problems = []
        for _ in range(20):
            values = {f"e{i:03d}": float(rng.normal()) for i in range(40)}
            problems.append(ranking_problem(values, rng))
        out = eval_ranking(problems, view)
        assert abs(out["fisher_rho"]) < 0.2

    @pytest.mark.filterwarnings("ignore:correlation of magnitude 1")
    def test_perfect_linear_signal(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(60, 3))
        direction = np.array([1.0, -2.0, 0.5])
        values = {f"e{i:03d}": float(pts[i] @ direction) for i in range(60)}
        view = make_view(pts)
        out = eval_ranking([ranking_problem(values, rng)], view)
        assert out["per_problem"][0]["rho"] > 0.9

    def test_degenerate_problem_skipped(self):
        rng = np.random.default_rng(5)
        values = {f"e{i:03d}": 1.0 for i in range(30)}
        scored = {f"e{i:03d}": float(i) for i in range(30)}
        view = make_view(rng.normal(size=(30, 2)))
        with pytest.warns(UserWarning, match="degenerate"):
            out = eval_ranking([ranking_problem(values, rng), ranking_problem(scored, rng)], view)
        assert out["skipped"] == 1
        assert len(out["per_problem"]) == 1

    def test_every_problem_skipped_is_an_error(self):
        # A Fisher mean over no correlation would read as a result.
        rng = np.random.default_rng(5)
        values = {f"e{i:03d}": 1.0 for i in range(30)}
        view = make_view(rng.normal(size=(30, 2)))
        with pytest.warns(UserWarning, match="degenerate"):
            with pytest.raises(ProblemFormatError, match="^none of the 2 ranking problems could be scored$"):
                eval_ranking([ranking_problem(values, rng), ranking_problem(values, rng)], view)
        with pytest.raises(ProblemFormatError, match="^none of the 0 ranking problems could be scored$"):
            eval_ranking([], view)


class TestEvalInduction:
    def test_perfect_clusters(self):
        entity_ids, points, ts, problems = synth.clustered_embedding()
        view = EmbeddingView(entity_ids=entity_ids, points=points)
        out = eval_induction(problems, view, ts)
        assert out["map"] == pytest.approx(1.0)
        assert out["mrr"] == pytest.approx(1.0)

    def test_ap_matches_fixture(self):
        # 10 candidates, relevant at ranks 1 and 3: AP = (1 + 2/3) / 2.
        points = np.zeros((11, 2))
        points[0] = [0.0, 0.0]      # train positive defines the centroid
        points[1] = [0.1, 0.0]      # test positive at rank 1
        points[2] = [0.2, 0.0]      # negative at rank 2
        points[3] = [0.3, 0.0]      # test positive at rank 3
        for i in range(4, 11):
            points[i] = [1.0 + i, 0.0]
        view = make_view(points)
        ts = synth.single_type_system("thing", 11)
        prob = InductionProblem("r", "f", train=("e000",), valid=(), test=("e001", "e003"))
        out = eval_induction([prob], view, ts)
        assert out["per_problem"][0]["ap"] == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, rel=1e-12)
        assert out["per_problem"][0]["rr"] == pytest.approx(1.0)
        assert out["per_problem"][0]["n_candidates"] == 10

    def test_single_relevant_at_rank_four(self):
        points = np.zeros((6, 2))
        points[0] = [0.0, 0.0]   # train positive
        points[1] = [0.1, 0.0]
        points[2] = [0.2, 0.0]
        points[3] = [0.3, 0.0]
        points[4] = [0.4, 0.0]   # the only test positive: rank 4
        points[5] = [0.5, 0.0]
        view = make_view(points)
        ts = synth.single_type_system("thing", 6)
        prob = InductionProblem("r", "f", train=("e000",), valid=(), test=("e004",))
        out = eval_induction([prob], view, ts)
        assert out["per_problem"][0]["rr"] == pytest.approx(0.25)

    def test_train_and_valid_excluded_from_candidates(self):
        entity_ids, points, ts, problems = synth.clustered_embedding()
        view = EmbeddingView(entity_ids=entity_ids, points=points)
        out = eval_induction(problems, view, ts)
        prob = problems[0]
        expected = len(ts.instances["thing"]) - len(prob.train) - len(prob.valid)
        assert out["per_problem"][0]["n_candidates"] == expected

    def test_empty_training_positives_rejected(self):
        view = make_view(np.zeros((40, 2)))
        ts = synth.single_type_system("thing", 40)
        prob = InductionProblem("r", "f", train=(), valid=(), test=("e001",))
        with pytest.raises(ValueError, match="training positives"):
            eval_induction([prob], view, ts)


class TestEvalAnalogy:
    def test_exact_parallelogram(self):
        points = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [5.0, 5.0], [6.0, 7.0]]
        )
        view = make_view(points)
        ts = synth.single_type_system("thing", 6)
        prob = AnalogyProblem(quads=(("e000", "e001", "e002", "e003"),), test_idx=(0,))
        out = eval_analogy(prob, view, ts)
        assert out["accuracy"] == 1.0

    def test_brute_force_oracle_on_distractor(self):
        # A distractor close to the target direction: the winner must equal
        # exhaustive cosine enumeration over the candidate pool.
        rng = np.random.default_rng(7)
        points = rng.normal(size=(5, 3))
        target = points[1] - points[0] + points[2]
        points[4] = 0.99 * target + 0.01 * rng.normal(size=3)
        points[3] = target * 1.5  # same direction scaled: cosine ~1
        view = make_view(points)
        ts = synth.single_type_system("thing", 5)
        prob = AnalogyProblem(quads=(("e000", "e001", "e002", "e003"),), test_idx=(0,))
        out = eval_analogy(prob, view, ts)

        def cosine(a, b):
            return float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))

        pool = [i for i in range(5) if i not in (0, 1, 2)]
        best = max(pool, key=lambda i: cosine(points[i], target))
        assert out["accuracy"] == (1.0 if best == 3 else 0.0)

    def test_single_candidate_pool_flagged(self):
        points = np.array([[0.0, 1.0], [2.0, 1.0], [1.0, 5.0], [3.0, 5.0]])
        view = make_view(points)
        # pool type contains only the gold answer
        from typespace.ingest import TypeSystem

        ts = TypeSystem(
            ("gold", "query"),
            {"gold": (3,), "query": (0, 1, 2)},
            {"gold": frozenset({"gold"}), "query": frozenset({"query"})},
        )
        prob = AnalogyProblem(quads=(("e000", "e001", "e002", "e003"),), test_idx=(0,))
        with pytest.warns(UserWarning, match="single"):
            out = eval_analogy(prob, view, ts)
        assert out["degenerate_pool"] is True
        assert out["accuracy"] == 1.0

    def test_unknown_entity_skipped(self):
        points = np.zeros((4, 2))
        view = make_view(points)
        ts = synth.single_type_system("thing", 4)
        prob = AnalogyProblem(quads=(("e000", "ghost", "e002", "e003"), ("e000", "e001", "e002", "e003")), test_idx=(0, 1))
        with pytest.warns(UserWarning, match="skipped"):
            out = eval_analogy(prob, view, ts)
        assert out["skipped"] == 1
        assert out["n_evaluated"] == 1

    def test_no_test_quad_evaluated_is_an_error(self):
        # Quad 0, which is not under test, has a known gold answer, so the pool
        # resolves, but no test quad does: an accuracy over no quad would read
        # as a result.
        view = make_view(np.eye(4))
        ts = synth.single_type_system("thing", 4)
        prob = AnalogyProblem(quads=(("e000", "e001", "e002", "e003"), ("ghost", "e001", "e002", "e003")), test_idx=(1,))
        with pytest.warns(UserWarning, match="skipped"):
            with pytest.raises(ProblemFormatError, match="^the model resolves none of the analogy problem's 1 test quads$"):
                eval_analogy(prob, view, ts)


class TestEvalLinkPrediction:
    def test_unique_minimizer_rank_one(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        rels = np.array([[1.0, 0.0]])
        view = make_view(points, rel_ids=("r",), rel_vectors=rels)
        out = eval_link_prediction([("e000", "r", "e001")], view)
        assert out["mean_rank"] == pytest.approx(1.0)
        assert out["hits_at_10"] == 1.0

    def test_rank_two_behind_closer_entity(self):
        # e002 sits exactly at the predicted tail; the true tail e001 is
        # second closest.  Brute-force rank oracle agrees.
        points = np.array([[0.0, 0.0], [1.5, 0.0], [1.0, 0.0]])
        rels = np.array([[1.0, 0.0]])
        view = make_view(points, rel_ids=("r",), rel_vectors=rels)
        out = eval_link_prediction([("e000", "r", "e001")], view)
        tail_scores = [float(np.linalg.norm(points[i] - (points[0] + rels[0]))) for i in range(3)]
        assert ref.ref_rank_of_target(tail_scores, 1) == 2
        head_scores = [float(np.linalg.norm(points[i] + rels[0] - points[1])) for i in range(3)]
        expected_mean = (2 + ref.ref_rank_of_target(head_scores, 0)) / 2.0
        assert out["mean_rank"] == pytest.approx(expected_mean)

    def test_tie_broken_by_entity_index(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])  # e001, e002 tied
        rels = np.array([[1.0, 0.0]])
        view = make_view(points, rel_ids=("r",), rel_vectors=rels)
        out_t1 = eval_link_prediction([("e000", "r", "e001")], view)
        out_t2 = eval_link_prediction([("e000", "r", "e002")], view)
        # tail ranks: e001 wins the tie (lower index), e002 loses it
        assert out_t1["mean_rank"] < out_t2["mean_rank"]

    def test_unknown_entities_skipped(self):
        view = make_view(np.zeros((2, 2)), rel_ids=("r",), rel_vectors=np.zeros((1, 2)))
        out = eval_link_prediction([("ghost", "r", "e000"), ("e000", "ghost_rel", "e001"), ("e000", "r", "e001")], view)
        assert out["skipped"] == 2
        assert out["n_ranks"] == 2

    def test_nothing_ranked_is_an_error(self):
        # A mean rank is at least 1; with no rank there is none to report.
        view = make_view(np.zeros((2, 2)), rel_ids=("r",), rel_vectors=np.zeros((1, 2)))
        with pytest.raises(ProblemFormatError, match="^the model resolves none of the 2 link prediction triples$"):
            eval_link_prediction([("ghost", "r", "e000"), ("e000", "ghost_rel", "e001")], view)

    def test_matches_brute_force_on_random(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            points = rng.normal(size=(n, 3))
            rels = rng.normal(size=(2, 3))
            view = make_view(points, rel_ids=("r0", "r1"), rel_vectors=rels)
            e, k, f = int(rng.integers(n)), int(rng.integers(2)), int(rng.integers(n))
            out = eval_link_prediction([(f"e{e:03d}", f"r{k}", f"e{f:03d}")], view)
            tail_scores = [float(np.linalg.norm(points[i] - (points[e] + rels[k]))) for i in range(n)]
            head_scores = [float(np.linalg.norm(points[i] + rels[k] - points[f])) for i in range(n)]
            expected = (ref.ref_rank_of_target(tail_scores, f) + ref.ref_rank_of_target(head_scores, e)) / 2.0
            assert out["mean_rank"] == pytest.approx(expected)


class TestEvalTripleClassification:
    def _view(self, points, rels):
        return make_view(np.asarray(points, dtype=np.float64), rel_ids=("r",), rel_vectors=np.asarray(rels, dtype=np.float64))

    def test_separable_midpoint_threshold(self):
        # validation scores: positives {-0.1, -0.2}, negatives {-0.8, -0.9}
        points = np.array([[0.0, 0.0], [1.1, 0.0], [1.2, 0.0], [1.8, 0.0], [1.9, 0.0]])
        rels = np.array([[1.0, 0.0]])
        view = self._view(points, rels)
        valid = [
            ("e000", "r", "e001", 1),
            ("e000", "r", "e002", 1),
            ("e000", "r", "e003", 0),
            ("e000", "r", "e004", 0),
        ]
        test = valid
        out = eval_triple_classification(valid, test, view)
        assert out["accuracy"] == 1.0
        assert out["thresholds"]["r"] == pytest.approx(-0.5)

    def test_inseparable_equal_scores_balanced(self):
        points = np.zeros((3, 2))
        rels = np.zeros((1, 2))
        view = self._view(points, rels)
        valid = [("e000", "r", "e001", 1), ("e000", "r", "e002", 0)]
        out = eval_triple_classification(valid, valid, view)
        assert out["accuracy"] == 0.5

    def test_matches_exhaustive_sweep(self):
        rng = np.random.default_rng(10)
        points = rng.normal(size=(8, 3))
        rels = rng.normal(size=(1, 3))
        view = make_view(points, rel_ids=("r",), rel_vectors=rels)
        rows = []
        for i in range(6):
            rows.append((f"e{int(rng.integers(8)):03d}", "r", f"e{int(rng.integers(8)):03d}", int(rng.random() < 0.5)))
        out = eval_triple_classification(rows, rows, view)

        def score(h, r, t):
            hi, ti = view.index[h], view.index[t]
            return -float(np.linalg.norm(points[ti] - points[hi] - rels[0]))

        scores = [score(h, r, t) for h, r, t, _ in rows]
        labels = [bool(y) for _, _, _, y in rows]
        ordered = sorted(scores)
        candidates = [0.5 * (a + b) for a, b in zip(ordered, ordered[1:]) if a != b] or [ordered[0]]
        best_delta, best_acc = None, -1.0
        for delta in candidates:
            acc = sum(1.0 for s, y in zip(scores, labels) if (s > delta) == y) / len(rows)
            if acc > best_acc:
                best_acc, best_delta = acc, delta
        assert out["thresholds"]["r"] == pytest.approx(best_delta)
        assert out["accuracy"] == pytest.approx(best_acc)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_row_scores_match_per_row_norms(self, data):
        n = data.draw(st.integers(1, 12))
        n_ent = data.draw(st.integers(1, 10))
        n_rel = data.draw(st.integers(1, 4))
        values = st.floats(-1e3, 1e3, allow_nan=False)
        points = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n_ent, max_size=n_ent)))
        rels = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n_rel, max_size=n_rel)))
        view = make_view(points, rel_ids=[f"r{k}" for k in range(n_rel)], rel_vectors=rels)
        entity, relation = st.integers(0, n_ent - 1), st.integers(0, n_rel - 1)
        rows = data.draw(st.lists(st.tuples(entity, relation, entity)))
        heads, rel_ids, tails = np.array(rows, dtype=np.intp).reshape(-1, 3).T
        got = _triple_scores(view, heads, rel_ids, tails)
        want = np.array([ref.ref_triple_score(view, h, r, t) for h, r, t in rows])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_several_relations_match_per_row_reference(self, data):
        # Small integer coordinates make equal scores, and so threshold ties, common.
        n_ent, n_rel = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
        coords = st.integers(-3, 3).map(float)
        points = np.array(data.draw(st.lists(st.lists(coords, min_size=2, max_size=2), min_size=n_ent, max_size=n_ent)))
        rels = np.array(data.draw(st.lists(st.lists(coords, min_size=2, max_size=2), min_size=n_rel, max_size=n_rel)))
        rel_ids = [f"r{k}" for k in data.draw(st.permutations(range(n_rel)))]  # index order is not id order
        view = make_view(points, rel_ids=rel_ids, rel_vectors=rels)
        entity = st.sampled_from([*view.entity_ids, "ghost"])
        relation = st.sampled_from([*rel_ids, "ghost_rel"])
        row = st.tuples(entity, relation, entity, st.integers(0, 1))
        valid, test = data.draw(st.lists(row, max_size=20)), data.draw(st.lists(row, max_size=20))
        want = ref.ref_triple_classification(valid, test, view)
        if want is None:
            with pytest.raises(ProblemFormatError, match="resolves none"):
                eval_triple_classification(valid, test, view)
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = eval_triple_classification(valid, test, view)
        result, messages = want
        assert out == result
        assert list(out["thresholds"]) == list(result["thresholds"])
        assert [*map(float.hex, out["thresholds"].values())] == [*map(float.hex, result["thresholds"].values())]
        assert [str(w.message) for w in caught] == messages

    def test_no_resolvable_test_row_is_an_error(self):
        view = self._view(np.zeros((2, 2)), np.zeros((1, 2)))
        valid = [("e000", "r", "e001", 1), ("e000", "r", "e000", 0)]
        test = [("ghost", "r", "e001", 1), ("e000", "ghost_rel", "e001", 0)]
        with pytest.raises(ProblemFormatError, match="^the model resolves none of the 2 triple classification test rows$"):
            eval_triple_classification(valid, test, view)

    def test_missing_relation_uses_global_fallback(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        rels = np.array([[1.0, 0.0], [0.5, 0.0]])
        view = make_view(points, rel_ids=("r", "s"), rel_vectors=rels)
        valid = [("e000", "r", "e001", 1), ("e000", "r", "e000", 0)]
        test = [("e000", "s", "e001", 1)]
        with pytest.warns(UserWarning, match="global"):
            out = eval_triple_classification(valid, test, view)
        assert out["n_test"] == 1


class TestProblemLoaders:
    def test_round_trip_ranking(self, tmp_path):
        import json

        rec = {
            "type": "t",
            "attribute": "a",
            "values": {f"e{i}": float(i) for i in range(30)},
            "split": {
                "train": [f"e{i}" for i in range(18)],
                "valid": [f"e{i}" for i in range(18, 24)],
                "test": [f"e{i}" for i in range(24, 30)],
            },
        }
        p = tmp_path / "r.json"
        p.write_text(json.dumps(rec))
        probs = load_ranking_problems(p)
        assert len(probs) == 1
        assert probs[0].type_id == "t"
        p2 = tmp_path / "r2.json"
        p2.write_text(json.dumps([rec, rec]))
        assert len(load_ranking_problems(p2)) == 2

    def test_round_trip_induction_and_analogy(self, tmp_path):
        import json

        p = tmp_path / "i.json"
        p.write_text(json.dumps({"relation": "r", "target": "f", "split": {"train": ["a"], "valid": [], "test": ["b"]}}))
        probs = load_induction_problems(p)
        assert probs[0].relation == "r"
        p2 = tmp_path / "a.json"
        p2.write_text(json.dumps({"quads": [["a", "b", "c", "d"]], "split": {"tune": [], "test": [0]}}))
        aprobs = load_analogy_problems(p2)
        assert aprobs[0].quads == (("a", "b", "c", "d"),)

    def test_analogy_tune_part_ignored(self, tmp_path):
        import json

        p = tmp_path / "a.json"
        quads = [["a", "b", "c", "d"], ["b", "c", "d", "a"]]
        p.write_text(json.dumps([{"quads": quads, "split": {"tune": ["x", 7], "test": [1]}}, {"quads": quads}]))
        assert load_analogy_problems(p) == [AnalogyProblem(tuple(map(tuple, quads)), (1,)),
                                            AnalogyProblem(tuple(map(tuple, quads)), (0, 1))]

    @pytest.mark.parametrize("value", ["nan", "inf", "3.5", True, False, None, [1.0], float("nan"), float("inf"), -float("inf"),
                                       pytest.param(10**400, id="int_past_float_range")])
    def test_ranking_value_must_be_a_finite_number(self, tmp_path, value):
        # A string or a bool used to pass through float(); NaN and the
        # infinities are JSON extensions that json.load reads.
        import json

        rec = {"type": "t", "attribute": "a", "values": {f"e{i}": i for i in range(30)},
               "split": {"train": [f"e{i}" for i in range(18)], "valid": [], "test": [f"e{i}" for i in range(18, 30)]}}
        p = tmp_path / "r.json"
        p.write_text(json.dumps([rec, rec]))
        assert load_ranking_problems(p)[1].values["e4"] == 4.0
        rec["values"]["e4"] = value
        p.write_text(json.dumps([rec, rec]))
        with pytest.raises(ProblemFormatError, match=f"^{p}: record 0: value of entity 'e4' is not a finite number$"):
            load_ranking_problems(p)

    @pytest.mark.parametrize("split", [0, False, "", [], None, "test", [0]])
    def test_analogy_split_must_be_an_object(self, tmp_path, split):
        # A falsy split used to read as "no split", so every quad was tested.
        import json

        p = tmp_path / "a.json"
        quads = [["a", "b", "c", "d"], ["b", "c", "d", "a"]]
        p.write_text(json.dumps([{"quads": quads, "split": {}}, {"quads": quads, "split": split}]))
        with pytest.raises(ProblemFormatError, match=f"^{p}: record 1: field 'split' is not an object$"):
            load_analogy_problems(p)

    @pytest.mark.parametrize("loader, field", [
        (load_ranking_problems, "split"), (load_ranking_problems, "values"), (load_induction_problems, "split"),
    ])
    @pytest.mark.parametrize("value", [[], ["train"], "split", 3, None])
    def test_wrong_type_field_is_named(self, tmp_path, loader, field, value):
        import json

        rec = {"type": "t", "attribute": "a", "relation": "r", "target": "f", "values": {},
               "split": {"train": [], "valid": [], "test": []}, field: value}
        p = tmp_path / "p.json"
        p.write_text(json.dumps(rec))
        with pytest.raises(ProblemFormatError, match=f"^{p}: record 0: field '{field}' is not an object$"):
            loader(p)

    @pytest.mark.parametrize("loader, field", [
        (load_ranking_problems, "type"), (load_ranking_problems, "attribute"),
        (load_induction_problems, "relation"), (load_induction_problems, "target"),
    ])
    @pytest.mark.parametrize("value", [[], ["a"], None, 3, True, {"a": "b"}])
    def test_name_field_must_be_a_string(self, tmp_path, loader, field, value):
        # A list or null name used to load and reach messages and results files.
        import json

        rec = {"type": "t", "attribute": "a", "relation": "r", "target": "f",
               "values": {f"e{i}": i for i in range(30)},
               "split": {"train": [f"e{i}" for i in range(18)], "valid": [], "test": [f"e{i}" for i in range(18, 30)]}}
        p = tmp_path / "p.json"
        p.write_text(json.dumps([rec, {**rec, field: value}]))
        with pytest.raises(ProblemFormatError, match=f"^{p}: record 1: field '{field}' is not a string$"):
            loader(p)

    @pytest.mark.parametrize("quads", [None, True, 2.5, "abcd", {"a": "b"}])
    def test_analogy_quads_must_be_a_list(self, tmp_path, quads):
        import json

        p = tmp_path / "a.json"
        p.write_text(json.dumps({"quads": quads}))
        with pytest.raises(ProblemFormatError, match=f"^{p}: record 0: field 'quads' is not a list$"):
            load_analogy_problems(p)

    @pytest.mark.parametrize("loader", [load_ranking_problems, load_induction_problems, load_analogy_problems])
    @pytest.mark.parametrize("record", [[], ["quads"], "split", 3, None, True])
    def test_record_must_be_an_object(self, tmp_path, loader, record):
        import json

        p = tmp_path / "p.json"
        p.write_text(json.dumps([record]))
        with pytest.raises(ProblemFormatError, match=f"^{p}: record 0: not an object$"):
            loader(p)
