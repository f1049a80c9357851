import math
from dataclasses import asdict

import numpy as np
import pytest

from conftest import block_store, random_instance
from reference_impls import best_simplex_fit_residual
from typespace.ingest import (
    CooccurrenceTable,
    ENTITY_WORD,
    TripleStore,
    WORD_WORD,
)
from typespace.objective import (
    SimplexViolationError,
    nuclear_norm,
    regularizer,
    rel_dim_loss,
    rel_dist_loss,
    text_entry_terms,
    text_loss,
    total_objective,
    type_comb_penalty,
    type_loss,
    variant_flags,
    weight_f,
)
from typespace.params import (
    EmbeddingModel,
    Hyperparams,
    ModelParams,
    RelationParams,
    TypeSubspaceParams,
)


def make_model(entity_points, word_vecs=None, ctx_vecs=None, word_bias=None, ctx_bias=None, entity_bias=None):
    entity_points = np.asarray(entity_points, dtype=np.float64)
    n = entity_points.shape[1]
    V = 2 if word_vecs is None else len(word_vecs)
    word_vecs = np.zeros((V, n)) if word_vecs is None else np.asarray(word_vecs, dtype=np.float64)
    ctx_vecs = np.zeros_like(word_vecs) if ctx_vecs is None else np.asarray(ctx_vecs, dtype=np.float64)
    return EmbeddingModel(
        entity_points=entity_points,
        word_vecs=word_vecs,
        ctx_vecs=ctx_vecs,
        word_bias=np.zeros(len(word_vecs)) if word_bias is None else np.asarray(word_bias, dtype=np.float64),
        ctx_bias=np.zeros(len(word_vecs)) if ctx_bias is None else np.asarray(ctx_bias, dtype=np.float64),
        entity_bias=np.zeros(len(entity_points)) if entity_bias is None else np.asarray(entity_bias, dtype=np.float64),
    )


class TestWeightF:
    def test_at_x_max(self):
        assert weight_f(100.0) == 1.0

    def test_clamped_above(self):
        assert weight_f(150.0) == 1.0

    def test_fractional_value(self):
        # (0.16)**(3/4) == (2/5)**(3/2)
        assert weight_f(16.0) == pytest.approx(0.25298221281347033, rel=1e-12)

    def test_monotone_and_saturating(self):
        xs = np.linspace(0.0, 250.0, 400)
        vals = [weight_f(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v == 1.0 for x, v in zip(xs, vals) if x >= 100.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            weight_f(-1.0)


class TestGloveLoss:
    def test_log_one_zero_residual(self):
        model = make_model(np.zeros((1, 2)))
        table = CooccurrenceTable.from_dict(WORD_WORD, {(0, 1): 1.0})
        assert text_loss(table, model) == 0.0

    def test_count_e_unit_residual(self):
        # pred = 2 against log(e) = 1 leaves residual 1, so the loss is
        # exactly f(e) = (e/100)**0.75.
        model = make_model(np.zeros((1, 2)), word_bias=[2.0, 0.0])
        table = CooccurrenceTable.from_dict(WORD_WORD, {(0, 1): math.e})
        assert text_loss(table, model) == pytest.approx(0.06694541859110348, rel=1e-12)
        assert text_loss(table, model) == pytest.approx((math.e / 100.0) ** 0.75, rel=1e-12)

    def test_empty_table(self):
        model = make_model(np.zeros((1, 2)))
        table = CooccurrenceTable.from_dict(WORD_WORD, {})
        assert text_loss(table, model) == 0.0


class TestEntityWordLoss:
    def test_count_one_zero_params(self):
        model = make_model(np.zeros((1, 2)))
        table = CooccurrenceTable.from_dict(ENTITY_WORD, {(0, 0): 1.0})
        assert text_loss(table, model) == 0.0

    def test_exact_fit_zero(self):
        model = make_model(np.array([[1.0, 0.0]]), word_vecs=np.array([[math.log(7.0), 0.0], [0.0, 0.0]]))
        table = CooccurrenceTable.from_dict(ENTITY_WORD, {(0, 0): 7.0})
        assert text_loss(table, model) == pytest.approx(0.0, abs=1e-15)

    def test_count_two_zero_params(self):
        model = make_model(np.zeros((1, 2)))
        table = CooccurrenceTable.from_dict(ENTITY_WORD, {(0, 0): 2.0})
        # f(2) * (ln 2)^2, frozen
        assert text_loss(table, model) == pytest.approx(0.02555191292596024, rel=1e-12)


def one_type(anchors, members, coeffs):
    anchors = np.asarray(anchors, dtype=np.float64)
    return TypeSubspaceParams(block_store("type", {"t": (anchors, members, coeffs)}, anchors.shape[1]))


def relations(vectors, rhs=None, lhs=None):
    """RelationParams over vectors, with the tail groups rhs and the head
    groups lhs (key -> (anchors, members, coeffs)), none by default."""
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[1]
    return RelationParams(vectors, block_store("rhs", rhs or {}, n), block_store("lhs", lhs or {}, n))


class TestTypeLoss:
    def test_entity_at_anchor(self):
        model = make_model(np.array([[3.0, 1.0]]))
        types = one_type([[3.0, 1.0], [0.0, 0.0], [1.0, 1.0]], [0], [[1.0, 0.0, 0.0]])
        assert type_loss(types, model) == 0.0

    def test_entity_at_midpoint(self):
        model = make_model(np.array([[0.5, 0.0]]))
        types = one_type([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0], [[0.5, 0.5, 0.0]])
        assert type_loss(types, model) == pytest.approx(0.0, abs=1e-15)

    def test_distance_two_from_affine_hull(self):
        # anchors span the x-axis; the entity sits 2 above it.  With optimal
        # coefficients the residual equals the squared point-to-hull
        # distance; a dense simplex grid search confirms the optimum.
        anchors = np.array([[-1.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
        point = np.array([0.0, 2.0])
        best = best_simplex_fit_residual(point, anchors, steps=1000)
        assert best == pytest.approx(4.0, abs=1e-6)
        # lambda placing the combination at the hull's closest point (0, 0):
        model = make_model(point[None, :])
        types = one_type(anchors, [0], [[0.5, 0.5, 0.0]])
        assert type_loss(types, model) == pytest.approx(4.0, rel=1e-12)

    def test_off_simplex_rejected(self):
        model = make_model(np.array([[0.0, 0.0]]))
        types = one_type(np.zeros((3, 2)), [0], [[0.7, 0.7, -0.4]])
        with pytest.raises(SimplexViolationError):
            type_loss(types, model)

    def test_comb_penalty_added(self):
        anchors = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
        types = one_type(anchors, [0], [[1.0, 0.0, 0.0]])
        # centroid (2/3, 0); distances: 2/3, 4/3, 2/3
        assert type_comb_penalty(types) == pytest.approx(8.0 / 3.0, rel=1e-12)
        ww, ew, store, params, _ = random_instance(1)
        for variant, comb in (("full", False), ("type_comb", True)):
            hp = Hyperparams(n=4, alpha_mix=0.5, beta_reg=0.0, variant=variant, epochs=1)
            expected = type_comb_penalty(params.types) if comb else 0.0
            assert total_objective(ww, ew, store, params, hp).j_type_comb_penalty == expected


def store_from_triples(triples, n_rel=1):
    rhs, lhs = {}, {}
    for e, k, f in triples:
        rhs.setdefault((e, k), []).append(f)
        lhs.setdefault((k, f), []).append(e)
    return TripleStore(
        tuple(f"r{k}" for k in range(n_rel)),
        tuple(sorted(triples)),
        {k: tuple(sorted(v)) for k, v in sorted(rhs.items())},
        {k: tuple(sorted(v)) for k, v in sorted(lhs.items())},
    )


class TestRelDistLoss:
    def test_exact_translation(self):
        model = make_model(np.array([[0.0, 0.0], [1.0, 1.0]]))
        rels = relations(np.array([[1.0, 1.0]]))
        store = store_from_triples([(0, 0, 1)])
        assert rel_dist_loss(store, model, rels) == 0.0

    def test_unit_residual_counted_twice(self):
        model = make_model(np.array([[0.0, 0.0], [1.0, 0.0]]))
        rels = relations(np.array([[0.0, 0.0]]))
        store = store_from_triples([(0, 0, 1)])
        assert rel_dist_loss(store, model, rels) == pytest.approx(2.0, rel=1e-12)

    def test_empty_store(self):
        model = make_model(np.zeros((1, 2)))
        rels = relations(np.zeros((0, 2)))
        assert rel_dist_loss(store_from_triples([]), model, rels) == 0.0

    def test_double_sum_equals_twice_triple_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n_e = int(rng.integers(3, 8))
            pts = rng.normal(size=(n_e, 3))
            model = make_model(pts, word_vecs=np.zeros((1, 3)))
            rels = relations(rng.normal(size=(2, 3)))
            triples = sorted({(int(rng.integers(n_e)), int(rng.integers(2)), int(rng.integers(n_e))) for _ in range(6)})
            store = store_from_triples(triples, n_rel=2)
            brute = 2.0 * sum(
                float(np.sum((pts[f] - pts[e] - rels.vectors[k]) ** 2)) for e, k, f in triples
            )
            assert rel_dist_loss(store, model, rels) == pytest.approx(brute, rel=1e-9)


class TestRelDimLoss:
    def test_members_at_anchor(self):
        model = make_model(np.array([[1.0, 2.0], [1.0, 2.0]]))
        coeffs = np.zeros((2, 3))
        coeffs[:, 0] = 1.0
        anchors = np.array([[1.0, 2.0], [9.0, 9.0], [7.0, 7.0]])
        rels = relations(np.array([[0.0, 0.0]]), rhs={(0, 0): (anchors, [1], coeffs)})
        assert rel_dim_loss(model, rels) == 0.0

    def test_two_members_distance_two_each(self):
        # Both member points (the tail and the translated head) sit 2 above
        # the anchors' x-axis hull: optimal residual 4 each, total 8.
        anchors = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        best = best_simplex_fit_residual(np.array([0.0, 2.0]), anchors, steps=1000)
        assert best == pytest.approx(4.0, abs=1e-6)
        model = make_model(np.array([[0.0, 2.0], [0.0, 2.0]]))
        coeffs = np.full((2, 3), np.array([0.5, 0.5, 0.0]))
        rels = relations(np.array([[0.0, 0.0]]), rhs={(0, 0): (anchors, [1], coeffs)})
        assert rel_dim_loss(model, rels) == pytest.approx(8.0, rel=1e-12)


class TestNuclearNorm:
    def test_identity(self):
        assert nuclear_norm(np.eye(3)) == pytest.approx(3.0, rel=1e-12)

    def test_diagonal(self):
        assert nuclear_norm(np.diag([3.0, 4.0])) == pytest.approx(7.0, rel=1e-12)

    def test_rank_one_off_diagonal(self):
        assert nuclear_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0, rel=1e-12)

    def test_zero_matrix_takes_no_svd(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("unexpected SVD")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        assert nuclear_norm(np.zeros((4, 4))) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            nuclear_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_squares_out_of_range(self, scale):
        # A sum of squares that overflows leaves the finiteness test to the
        # exact one, and one that underflows to 0 does not make a zero matrix.
        assert nuclear_norm(scale * np.eye(2)) == pytest.approx(2 * scale, rel=1e-12)


class TestRegularizer:
    def test_coincident_anchors_zero(self):
        types = one_type(np.ones((3, 2)), [0], [[1.0, 0.0, 0.0]])
        rels = relations(np.zeros((0, 2)))
        j1, j2 = regularizer(types, rels, "full")
        assert j1 == 0.0 and j2 == 0.0

    def test_span_matrix_rows(self):
        types = one_type([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], [0], [[1.0, 0.0, 0.0]])
        rels = relations(np.zeros((0, 2)))
        j1, _ = regularizer(types, rels, "full")
        assert j1 == pytest.approx(1.0, rel=1e-12)

    def test_no_nn_zeroes_both(self):
        types = one_type([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0], [[1.0, 0.0, 0.0]])
        rels = relations(np.zeros((0, 2)))
        assert regularizer(types, rels, "no_nn") == (0.0, 0.0)

    def test_variant_table(self):
        expect = {
            "full": (True, True),
            "no_rel": (True, False),
            "no_type": (False, True),
            "no_nn": (False, False),
            "text": (False, False),
            "rel_dim": (True, True),
            "rel_dist": (True, False),
            "type_comb": (True, True),
            "type_dist": (False, True),
        }
        for variant, (r1, r2) in expect.items():
            flags = variant_flags(variant)
            assert (flags.reg1, flags.reg2) == (r1, r2), variant


class TestTotalObjective:
    def test_text_variant_alpha_one(self):
        ww, ew, store, params, hp = random_instance(0)
        hp = Hyperparams(n=hp.n, alpha_mix=1.0, variant="text", epochs=1, seed=0)
        out = total_objective(ww, ew, store, params, hp)
        assert out.total == pytest.approx(out.j_glove + out.j_text_entity, rel=1e-12)
        assert out.j_type == 0.0 and out.j_rel_dim == 0.0 and out.j_rel_dist == 0.0

    def test_beta_zero_ignores_regularizer(self):
        ww, ew, store, params, hp = random_instance(1)
        hp = Hyperparams(n=hp.n, alpha_mix=0.5, beta_reg=0.0, variant="full", epochs=1, seed=0)
        out = total_objective(ww, ew, store, params, hp)
        assert out.j_reg1 > 0.0  # regularizer value is reported...
        expected = 0.5 * (out.j_glove + out.j_text_entity) + 0.5 * (
            out.j_type + out.j_rel_dim + out.j_rel_dist
        )
        assert out.total == pytest.approx(expected, rel=1e-12)  # ...but not charged

    def test_matches_independent_recomputation(self):
        # Hand-built micro-instance, recomputed from the raw formulas with
        # fully independent code.
        n = 2
        pts = np.array([[0.3, -0.2], [0.1, 0.4]])
        wv = np.array([[0.2, 0.1], [-0.3, 0.5]])
        cv = np.array([[0.05, -0.1], [0.4, 0.2]])
        wb = np.array([0.1, -0.2])
        cb = np.array([0.0, 0.3])
        eb = np.array([-0.1, 0.2])
        model = make_model(pts, word_vecs=wv, ctx_vecs=cv, word_bias=wb, ctx_bias=cb, entity_bias=eb)
        anchors = np.array([[0.0, 0.1], [0.5, -0.2], [-0.3, 0.3]])
        lam = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
        types = one_type(anchors, [0, 1], lam)
        rvec = np.array([[0.15, -0.25]])
        qa = np.array([[0.1, 0.0], [0.0, 0.2], [0.3, 0.1]])
        mu = np.array([[0.4, 0.3, 0.3], [0.25, 0.5, 0.25]])
        qb = np.array([[0.0, -0.1], [0.2, 0.2], [-0.2, 0.0]])
        mu2 = np.array([[1 / 3, 1 / 3, 1 / 3], [0.1, 0.6, 0.3]])
        rels = relations(rvec, rhs={(0, 0): (qa, [1], mu)}, lhs={(0, 1): (qb, [0], mu2)})
        params = ModelParams(model, types, rels)
        ww = CooccurrenceTable.from_dict(WORD_WORD, {(0, 1): 4.0, (1, 0): 4.0})
        ew = CooccurrenceTable.from_dict(ENTITY_WORD, {(0, 0): 3.0, (1, 1): 9.0})
        store = store_from_triples([(0, 0, 1)])
        hp = Hyperparams(n=n, alpha_mix=0.5, beta_reg=300.0, variant="full", epochs=1)
        out = total_objective(ww, ew, store, params, hp)

        # --- independent recomputation (plain loops) -----------------------
        def f(x):
            return (x / 100.0) ** 0.75 if x < 100.0 else 1.0

        j_glove = 0.0
        for (i, j), x in (((0, 1), 4.0), ((1, 0), 4.0)):
            pred = sum(wv[i][d] * cv[j][d] for d in range(n)) + wb[i] + cb[j]
            j_glove += f(x) * (pred - math.log(x)) ** 2
        j_ew = 0.0
        for (e, j), y in (((0, 0), 3.0), ((1, 1), 9.0)):
            pred = sum(pts[e][d] * wv[j][d] for d in range(n)) + eb[e] + wb[j]
            j_ew += f(y) * (pred - math.log(y)) ** 2
        j_type = 0.0
        for row, e in enumerate((0, 1)):
            combo = [sum(lam[row][j] * anchors[j][d] for j in range(3)) for d in range(n)]
            j_type += sum((pts[e][d] - combo[d]) ** 2 for d in range(n))
        j_rel_dist = 2.0 * sum((pts[1][d] - pts[0][d] - rvec[0][d]) ** 2 for d in range(n))
        j_rel_dim = 0.0
        group_pts = [pts[1], [pts[0][d] + rvec[0][d] for d in range(n)]]
        for row in range(2):
            combo = [sum(mu[row][j] * qa[j][d] for j in range(3)) for d in range(n)]
            j_rel_dim += sum((group_pts[row][d] - combo[d]) ** 2 for d in range(n))
        group_pts2 = [pts[0], [pts[1][d] - rvec[0][d] for d in range(n)]]
        for row in range(2):
            combo = [sum(mu2[row][j] * qb[j][d] for j in range(3)) for d in range(n)]
            j_rel_dim += sum((group_pts2[row][d] - combo[d]) ** 2 for d in range(n))

        def nuc(mat):
            return float(np.sum(np.linalg.svd(np.asarray(mat), compute_uv=False)))

        j_reg1 = nuc([[anchors[i + 1][d] - anchors[0][d] for d in range(n)] for i in range(2)])
        j_reg2 = nuc([[qa[i + 1][d] - qa[0][d] for d in range(n)] for i in range(2)]) + nuc(
            [[qb[i + 1][d] - qb[0][d] for d in range(n)] for i in range(2)]
        )
        total = 0.5 * (j_glove + j_ew) + 0.5 * (j_type + j_rel_dist + j_rel_dim) + 300.0 * (j_reg1 + j_reg2)
        assert out.total == pytest.approx(total, rel=1e-10)
        assert out.j_glove == pytest.approx(j_glove, rel=1e-10)
        assert out.j_rel_dim == pytest.approx(j_rel_dim, rel=1e-10)

    def test_breakdown_total_consistent(self):
        for seed in range(4):
            ww, ew, store, params, _ = random_instance(seed)
            for variant in ("full", "no_rel", "no_type", "no_nn", "text", "rel_dim", "rel_dist", "type_comb", "type_dist"):
                hp = Hyperparams(n=4, alpha_mix=0.3, beta_reg=7.0, variant=variant, epochs=1)
                out = total_objective(ww, ew, store, params, hp)
                expected = 0.3 * (out.j_glove + out.j_text_entity) + 0.7 * (
                    out.j_type + out.j_type_comb_penalty + out.j_rel_dim + out.j_rel_dist
                ) + 7.0 * (out.j_reg1 + out.j_reg2)
                assert out.total == pytest.approx(expected, rel=1e-10)
                if variant == "no_nn":
                    assert out.j_type == 0.0 and out.j_rel_dim > 0.0

    def test_non_negative_components(self):
        from typespace.params import VARIANTS

        for seed in range(4):
            ww, ew, store, params, _ = random_instance(seed)
            for variant in VARIANTS:
                hp = Hyperparams(n=4, alpha_mix=0.4, beta_reg=0.0, variant=variant, epochs=1)
                out = total_objective(ww, ew, store, params, hp)
                for val in asdict(out).values():
                    assert val >= 0.0

    def test_entry_order_invariance(self):
        ww, ew, store, params, _ = random_instance(2)
        hp = Hyperparams(n=4, alpha_mix=0.5, beta_reg=1.0, variant="full", epochs=1)
        base = total_objective(ww, ew, store, params, hp).total
        perm = np.random.default_rng(0).permutation(len(ww))
        ww_perm = CooccurrenceTable(ww.kind, ww.rows[perm], ww.cols[perm], ww.weights[perm])
        assert total_objective(ww_perm, ew, store, params, hp).total == pytest.approx(base, rel=1e-9)


class TestLossAndGradients:
    """text_entry_terms, the loss and partials the trainer's text pass steps
    with; acceptance 1 finite-differences those steps."""

    def test_zero_residual_batch_zero_gradient(self):
        u, v = np.zeros((1, 2)), np.array([[0.3, -0.7]])
        loss, gu, gv, gb = text_entry_terms(u, v, np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1))
        assert np.all(loss == 0.0)
        for g in (gu, gv, gb):
            assert np.all(g == 0.0)

    def test_single_entry_bias_partial(self):
        ww, ew, store, params, hp = random_instance(3)
        i, j, x = int(ww.rows[0]), int(ww.cols[0]), float(ww.weights[0])
        m = params.model
        fx = weight_f(x)
        gb = text_entry_terms(m.word_vecs[i], m.ctx_vecs[j], m.word_bias[i], m.ctx_bias[j], fx, math.log(x))[3]
        resid = float(m.word_vecs[i] @ m.ctx_vecs[j]) + m.word_bias[i] + m.ctx_bias[j] - math.log(x)
        assert gb == pytest.approx(2.0 * fx * resid, rel=1e-12)

    def test_gradients_only_touch_involved_parameters(self):
        # In a batch, each entry's loss and partials are those of its own
        # four rows taken alone, to the bit.
        ww, ew, store, params, hp = random_instance(5)
        m, i, j = params.model, ew.rows, ew.cols
        fx, logx = weight_f(ew.weights), np.log(ew.weights)
        batch = text_entry_terms(m.entity_points[i], m.word_vecs[j], m.entity_bias[i], m.word_bias[j], fx, logx)
        for k in range(len(ew)):
            alone = text_entry_terms(
                m.entity_points[i[k]], m.word_vecs[j[k]], m.entity_bias[i[k]], m.word_bias[j[k]], fx[k], logx[k]
            )
            for got, want in zip(batch, alone):
                assert np.array_equal(got[k], want)
