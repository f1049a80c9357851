import json
import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import block_store, interleaved_instance, perturb, random_instance, triple_store
from reference_impls import (
    collect_param_arrays,
    prox_objective,
    prox_subgradient_residual,
    ref_adagrad_step,
    ref_prox_nuclear,
    ref_comb_partials,
    ref_rel_dim_pass,
    ref_rel_dist_pass,
    ref_type_pass,
    ref_simplex_rows,
    simplex_bisection_oracle,
    simplex_grid_search,
)
from typespace import optimize, synth
from typespace.ingest import ENTITY_WORD, WORD_WORD, CooccurrenceTable, TypeSystem
from typespace.objective import (
    block_anchor_grad,
    comb_penalty_terms,
    nuclear_norm,
    regularizer,
    variant_flags,
    weight_f,
)
from typespace.optimize import (
    NonFiniteGradientError,
    TrainConfig,
    TrainData,
    TrainingDivergedError,
    TrainReport,
    adagrad_step,
    anchor_prox_scale,
    project_to_simplex,
    prox_nuclear,
    train,
    tune,
)
from typespace.params import Hyperparams, anchor_span_matrix, clone_params, init_parameters


@st.composite
def _simplex_inputs(draw):
    """An (r, k) array of rows to project, r in 1-12 and k in 1-51, each row
    of one kind: Gaussian at a drawn scale, values from a short list (ties),
    already on the simplex (uniform, a vertex or a random point), or all
    negative."""
    r, k = draw(st.integers(1, 12)), draw(st.integers(1, 51))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["normal", "ties", "on_simplex", "negative"]), min_size=r, max_size=r)):
        if kind == "normal":
            rows.append(rng.normal(scale=10.0 ** rng.uniform(-3, 2), size=k))
        elif kind == "ties":
            rows.append(rng.choice([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0], size=k))
        elif kind == "on_simplex":
            rows.append([np.full(k, 1.0 / k), np.eye(k)[rng.integers(k)], rng.dirichlet(np.ones(k))][rng.integers(3)])
        else:
            rows.append(-rng.uniform(0.01, 5.0, size=k))
    return np.array(rows, dtype=np.float64).reshape(r, k)


class TestProjectToSimplex:
    @settings(max_examples=200, deadline=None)
    @given(v=_simplex_inputs())
    @example(v=np.array([[0.3]]))  # k = 1
    @example(v=np.array([[0.5, 0.5, 0.5], [0.2, 0.3, 0.5], [-1.0, -2.0, -1.0], [1.0, 0.0, 0.0]]))
    @example(v=np.random.default_rng(0).normal(size=(12, 51)))
    def test_out_matches_allocating(self, v):
        # Into a fresh array, into v itself, and into a slice of a larger
        # array in place (as the trainer projects a block's coefficient
        # rows), bit for bit the allocating path and the reference.
        want = ref_simplex_rows(v).tobytes()
        assert project_to_simplex(v).tobytes() == want
        out = np.full_like(v, np.nan)
        assert project_to_simplex(v, out=out) is out and out.tobytes() == want
        w = v.copy()
        assert project_to_simplex(w, out=w) is w and w.tobytes() == want
        stacked = np.vstack((np.full((1, v.shape[1]), 7.0), v, np.full((2, v.shape[1]), -3.0)))
        block = stacked[1 : 1 + len(v)]
        project_to_simplex(block, out=block)
        assert block.tobytes() == want and (stacked[0] == 7.0).all() and (stacked[1 + len(v) :] == -3.0).all()
        for row, got in zip(v, ref_simplex_rows(v)):  # one row at a time, as a 1-D vector
            assert project_to_simplex(row, out=row.copy()).tobytes() == got.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_leaves_out_unchanged(self, bad):
        v = np.random.default_rng(5).normal(size=(3, 4))
        v[1, 2] = bad
        out = np.random.default_rng(6).normal(size=(3, 4))
        for target in (out, v):
            before = target.copy()
            with pytest.raises(ValueError, match="^cannot project a non-finite vector$"):
                project_to_simplex(v, out=target)
            assert target.tobytes() == before.tobytes()

    def test_feasible_unchanged(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_to_simplex(v), v, atol=1e-15)

    def test_single_heavy_coordinate(self):
        assert np.allclose(project_to_simplex(np.array([2.0, 0.0, 0.0])), [1.0, 0.0, 0.0])

    def test_symmetric_excess(self):
        assert np.allclose(project_to_simplex(np.array([0.4, 0.4, 0.4])), [1 / 3] * 3)

    def test_idempotent_and_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            v = rng.normal(scale=3.0, size=int(rng.integers(2, 10)))
            p = project_to_simplex(v)
            assert np.all(p >= 0.0)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.max(np.abs(project_to_simplex(p) - p)) <= 1e-12

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(scale=2.5, size=(200, 3))
        for v in rows:
            assert np.max(np.abs(project_to_simplex(v) - simplex_bisection_oracle(v))) <= 1e-6
        # A matrix is projected row by row, to the bit.
        assert np.array_equal(project_to_simplex(rows), np.array([project_to_simplex(v) for v in rows]))

    def test_never_beats_grid_by_more_than_resolution(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = rng.normal(scale=1.5, size=3)
            p = project_to_simplex(v)
            _, grid_val = simplex_grid_search(v, steps=60)
            assert float(np.sum((p - v) ** 2)) <= grid_val + 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            project_to_simplex(np.array([np.nan, 0.0]))


class TestProxNuclear:
    def test_tau_zero_identity(self):
        m = np.random.default_rng(0).normal(size=(4, 4))
        out, norm = prox_nuclear(m, 0.0)
        assert np.array_equal(out, m) and norm == nuclear_norm(m)

    def test_diagonal_shrinkage(self):
        out, norm = prox_nuclear(np.diag([3.0, 1.0]), 1.0)
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)
        assert norm == pytest.approx(2.0, rel=1e-12)

    def test_never_increases_nuclear_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = rng.normal(size=(5, 5))
            tau = float(rng.uniform(0.0, 2.0))
            assert nuclear_norm(prox_nuclear(m, tau)[0]) <= nuclear_norm(m) + 1e-10

    def test_firmly_nonexpansive(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4))
            tau = float(rng.uniform(0.0, 2.0))
            pa, pb = prox_nuclear(a, tau)[0], prox_nuclear(b, tau)[0]
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10

    def test_subgradient_optimality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = rng.normal(size=(5, 5))
            x = prox_nuclear(m, 0.7)[0]
            assert prox_subgradient_residual(x, m, 0.7) < 1e-8

    def test_perturbation_certification(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(5, 5))
        x = prox_nuclear(m, 0.7)[0]
        fx = prox_objective(x, m, 0.7)
        for _ in range(1000):
            d = rng.normal(size=(5, 5))
            d *= rng.uniform(0.0, 0.1) / np.linalg.norm(d)
            assert fx <= prox_objective(x + d, m, 0.7) + 1e-12

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            prox_nuclear(np.eye(2), -0.1)

    @staticmethod
    def _forbid(monkeypatch, *names):
        def forbidden(*args, **kwargs):
            raise AssertionError("unexpected factorization")

        for name in names:
            monkeypatch.setattr(np.linalg, name, forbidden)

    def test_zero_case_takes_no_factorization(self, monkeypatch):
        m = np.random.default_rng(7).normal(size=(6, 6))
        fro = float(np.sqrt(np.vdot(m, m)))
        self._forbid(monkeypatch, "svd", "eigh")
        for tau in (fro, 2.0 * fro):
            out, norm = prox_nuclear(m, tau)
            assert out.shape == m.shape and not out.any() and norm == 0.0

    def test_gram_case_takes_no_svd(self, monkeypatch):
        m = np.random.default_rng(8).normal(size=(6, 6))
        s = np.linalg.svd(m, compute_uv=False)
        tau = 0.5 * float(s[2] + s[3])  # keeps three singular values
        expected = ref_prox_nuclear(m, tau)
        self._forbid(monkeypatch, "svd")
        assert np.linalg.norm(prox_nuclear(m, tau)[0] - expected) <= 1e-13 * np.linalg.norm(m)

    def test_small_tau_falls_back_to_svd_formula(self, monkeypatch):
        m = np.random.default_rng(9).normal(size=(6, 6))
        tau = 0.5 * optimize.GRAM_MIN_TAU * np.linalg.norm(m)
        expected = ref_prox_nuclear(m, tau)
        self._forbid(monkeypatch, "eigh")
        assert np.array_equal(prox_nuclear(m, tau)[0], expected)


class TestAdagrad:
    def test_zero_gradient_no_change(self):
        v = np.array([1.0, 2.0])
        state = np.array([0.5, 0.5])
        adagrad_step(v, np.zeros(2), state, lr=0.1)
        assert np.array_equal(v, [1.0, 2.0])

    def test_first_step_delta(self):
        v = np.array([0.0])
        state = np.zeros(1)
        adagrad_step(v, np.array([1.0]), state, lr=0.05)
        # -0.05 * 1 / sqrt(1 + 1e-8), frozen
        assert v[0] == pytest.approx(-0.04999999975, rel=1e-12)
        assert state[0] == 1.0

    def test_second_step_smaller(self):
        v = np.array([0.0])
        state = np.zeros(1)
        adagrad_step(v, np.array([1.0]), state, lr=0.05)
        first = abs(v[0])
        before = v[0]
        adagrad_step(v, np.array([1.0]), state, lr=0.05)
        assert abs(v[0] - before) < first

    def test_non_finite_gradient_names_parameter(self):
        v = np.array([0.0])
        with pytest.raises(NonFiniteGradientError, match="entity\\[3\\]"):
            adagrad_step(v, np.array([np.nan]), np.zeros(1), lr=0.1, name="entity[3]")

    def test_row_step_names_first_non_finite_row(self):
        values = np.arange(15.0).reshape(5, 3)
        state = np.ones((5, 3))
        grad = np.ones((3, 3))
        grad[1, 2] = np.nan
        with pytest.raises(NonFiniteGradientError, match=r"non-finite gradient for word\[17\]$"):
            adagrad_step(values, grad, state, 0.1, "word[{}]".format, rows=[4, 17, 2])
        grad[2, 0] = np.inf
        with pytest.raises(NonFiniteGradientError, match=r"non-finite gradient for word\[0\]$"):
            adagrad_step(values, grad, state, 0.1, "word[{}]".format, rows=[3, 0, 1])
        # The check comes before any row moves.
        assert np.array_equal(values, np.arange(15.0).reshape(5, 3))
        assert np.array_equal(state, np.ones((5, 3)))

    def test_row_step_matches_per_row_steps(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(6, 4))
        state = rng.uniform(size=(6, 4))
        grad = rng.normal(size=(3, 4))
        rows = [5, 1, 3]
        want_values, want_state = values.copy(), state.copy()
        for r, g in zip(rows, grad):
            adagrad_step(want_values[r], g, want_state[r], 0.05)
        adagrad_step(values, grad, state, 0.05, "entity", rows=rows)
        assert np.array_equal(values, want_values)
        assert np.array_equal(state, want_state)


class TestFiniteGuards:
    """adagrad_step, project_to_simplex and prox_nuclear take their
    finiteness test from a sum of squares and fall back to the exact test
    only when that sum is not finite: a NaN or infinity still raises before
    anything moves, and finite values whose squares or sum overflow still
    give the result of the exact test's code."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("r", [0, 2])
    def test_adagrad_names_the_non_finite_row(self, bad, r):
        rng = np.random.default_rng(1)
        values, state = rng.normal(size=(6, 3)), rng.uniform(size=(6, 3))
        before = values.copy(), state.copy()
        rows = np.array([4, 1, 3])
        grad = rng.normal(size=(3, 3))
        grad[r, 1] = bad
        grad[1, 0] = 1e200  # a finite row before or after it, whose square overflows
        with pytest.raises(NonFiniteGradientError, match=rf"^non-finite gradient for entity\[{rows[r]}\]$"):
            adagrad_step(values, grad, state, 0.1, "entity[{}]".format, rows=rows)
        with pytest.raises(NonFiniteGradientError, match=r"^non-finite gradient for anchors$"):
            adagrad_step(values[:3], grad, state[:3], 0.1, "anchors")
        assert values.tobytes() == before[0].tobytes() and state.tobytes() == before[1].tobytes()

    @pytest.mark.parametrize("rows", [None, [4, 1, 3]])
    def test_adagrad_overflowing_square_still_steps(self, rows):
        rng = np.random.default_rng(2)
        shape = (3 if rows is None else 6, 4)
        values, state = rng.normal(size=shape), rng.uniform(size=shape)
        start = values.copy()
        want_values, want_state = values.copy(), state.copy()
        grad = rng.normal(size=(3, 4))
        grad[1, 2], grad[2, 0] = 1e200, -1e200
        with np.errstate(over="ignore"):  # g * g overflows to inf, as it always did
            adagrad_step(values, grad, state, 0.1, "entity", rows=rows)
            ref_adagrad_step(want_values, grad, want_state, 0.1, "entity", rows=rows)
        assert values.tobytes() == want_values.tobytes() and state.tobytes() == want_state.tobytes()
        assert np.isinf(state).sum() == 2 and (values != start).sum() == 3 * 4 - 2

    def test_adagrad_matches_reference(self):
        rng = np.random.default_rng(3)
        for shape, rows in [((5,), None), ((4, 3), None), ((7, 3), [6, 0, 2]), ((7, 3), np.array([5]))]:
            values, state = rng.normal(size=shape), np.zeros(shape)
            want_values, want_state = values.copy(), state.copy()
            for _ in range(3):
                grad = rng.normal(size=shape if rows is None else (len(rows),) + shape[1:])
                adagrad_step(values, grad, state, 0.05, rows=rows)
                ref_adagrad_step(want_values, grad, want_state, 0.05, rows=rows)
            assert values.tobytes() == want_values.tobytes() and state.tobytes() == want_state.tobytes()

    @staticmethod
    def _bound(seed=0):
        # 6 entities, 8 words and 3 relations.
        ww, ew, store, params, hp = random_instance(seed, n_words=8)
        params.rels.vectors = np.vstack((params.rels.vectors, np.zeros((1, hp.n))))
        return store, params, hp

    @staticmethod
    def _buffers(state):
        return [a.tobytes() for a in (state.rows, state.row_acc)]

    @pytest.mark.parametrize("kind, pair, poisoned, name", [
        (WORD_WORD, (3, 7), ("word_vecs", 3), "word[3]"),
        (WORD_WORD, (3, 7), ("ctx_bias", 7), "word[3]"),  # a bad bias makes every partial of its entry bad
        (ENTITY_WORD, (5, 2), ("entity_points", 5), "entity[5]"),
        (ENTITY_WORD, (5, 2), ("entity_bias", 5), "entity[5]"),
    ])
    def test_buffered_text_step_names_the_row(self, kind, pair, poisoned, name):
        store, params, hp = self._bound()
        attr, row = poisoned
        getattr(params.model, attr)[row] = np.nan
        table = CooccurrenceTable.from_dict(kind, {pair: 5.0})
        tables = (table, None) if kind == WORD_WORD else (None, table)
        data = TrainData(6, 8, *tables, synth.empty_type_system(), store)
        state = optimize._AdaState(params)
        entries = optimize._prepare_text_entries(data, state)
        before = self._buffers(state)
        with pytest.raises(NonFiniteGradientError, match=rf"^non-finite gradient for {re.escape(name)}$"):
            optimize._text_pass(entries, [0], state, hp, 0.5)
        assert self._buffers(state) == before

    @pytest.mark.parametrize("triple, name", [((0, 2, 5), "entity[5]"), ((5, 2, 5), "rel[2]")])
    def test_buffered_triple_step_names_the_row(self, triple, name):
        # A NaN relation vector makes g non-finite: a triple's first row is
        # its tail f, and a self-loop's is its zero-gradient entity row, so
        # the relation row is named.
        store, params, hp = self._bound()
        params.rels.vectors[2] = np.nan
        data = TrainData(6, 8, None, None, synth.empty_type_system(), replace(store, triples=(triple,)))
        state = optimize._AdaState(params)
        before = self._buffers(state)
        with pytest.raises(NonFiniteGradientError, match=rf"^non-finite gradient for {re.escape(name)}$"):
            optimize._rel_dist_pass(state, data, hp, np.random.default_rng(0))
        assert self._buffers(state) == before

    @pytest.mark.parametrize("bad", [0, -1])
    def test_buffered_group_step_names_the_row(self, monkeypatch, bad):
        # The first group's point-step partial of its first entity (bad 0)
        # or of its relation (bad -1) is made infinite as the step gets it.
        store, params, hp = self._bound()
        real = optimize.adagrad_step

        def poisoned(values, grad, *args, **kwargs):
            if np.shares_memory(values, state.rows):
                grad = grad.copy()
                grad[bad, 0] = np.inf
            return real(values, grad, *args, **kwargs)

        monkeypatch.setattr(optimize, "adagrad_step", poisoned)
        state = optimize._AdaState(params)
        point_rows, step_rows = state.group_plans[0][5:7]
        name = f"entity[{point_rows[0]}]" if bad == 0 else f"rel[{step_rows[-1] - state.starts['vectors']}]"
        before = self._buffers(state)
        with pytest.raises(NonFiniteGradientError, match=rf"^non-finite gradient for {re.escape(name)}$"):
            optimize._rel_dim_pass(state, hp, variant_flags("full"), TrainReport())
        assert self._buffers(state) == before

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_simplex_rejects_non_finite(self, bad):
        v = np.array([[0.2, 0.3, 0.5], [0.1, 0.9, 0.0]])
        v[1, 2] = bad
        for arg in (v, v[1]):
            with pytest.raises(ValueError, match="^cannot project a non-finite vector$"):
                project_to_simplex(arg)
        v[0, 0] = np.inf if bad != np.inf else -np.inf  # +inf and -inf in one array
        with pytest.raises(ValueError, match="^cannot project a non-finite vector$"):
            project_to_simplex(v)

    def test_simplex_matches_reference(self):
        rng = np.random.default_rng(4)
        rows = np.array([[1e200, -1e200, 0.5], [1e308, 1e308, 0.0], [0.2, 0.3, 0.5]])  # squares or sums overflow
        with np.errstate(over="ignore", invalid="ignore"):
            assert project_to_simplex(rows).tobytes() == ref_simplex_rows(rows).tobytes()
        for shape in [(7,), (1, 4), (5, 21), (3, 2, 6)]:
            v = rng.normal(scale=2.0, size=shape)
            assert project_to_simplex(v).tobytes() == ref_simplex_rows(v).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_prox_rejects_non_finite(self, bad, tau):
        m = np.random.default_rng(5).normal(size=(4, 4))
        m[2, 1] = bad
        with pytest.raises(ValueError, match="^cannot threshold a non-finite matrix$"):
            prox_nuclear(m, tau)

    def test_prox_accepts_overflowing_norm(self):
        m = np.diag([1e200, 3.0, 0.5])  # ||M||_F^2 overflows
        out, norm = prox_nuclear(m, 1.0)
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        shrunk = np.maximum(s - 1.0, 0.0)
        assert out.tobytes() == ((u * shrunk) @ vt).tobytes() and norm == float(np.sum(shrunk))
        out, norm = prox_nuclear(m, 0.0)
        assert np.array_equal(out, m) and norm == nuclear_norm(m)


def _simplex_ok(params, tol=1e-9):
    for tp in params.types.per_type.values():
        assert np.all(tp.coeffs >= -tol)
        assert np.max(np.abs(tp.coeffs.sum(axis=1) - 1.0)) <= tol
    for groups in (params.rels.rhs_groups, params.rels.lhs_groups):
        for gp in groups.values():
            assert np.all(gp.coeffs >= -tol)
            assert np.max(np.abs(gp.coeffs.sum(axis=1) - 1.0)) <= tol


class TestTrain:
    def test_text_variant_halves_loss(self):
        data, _, _ = synth.attribute_corpus(n_noise_words=49, seed=2)  # 50-word vocabulary
        hp = Hyperparams(n=8, alpha_mix=1.0, epochs=20, variant="text", seed=4)
        _, report = train(data, TrainConfig(hp=hp, shuffle_seed=4))
        first = report.losses[0].j_text_entity
        last = report.losses[-1].j_text_entity
        assert last < 0.5 * first

    def test_no_nn_never_invokes_prox(self):
        ww, ew, store, params, _ = random_instance(0)
        data = TrainData(6, 5, ww, ew, synth.empty_type_system(), store)
        hp = Hyperparams(n=4, alpha_mix=0.5, beta_reg=100.0, epochs=3, variant="no_nn", seed=0)
        _, report = train(data, TrainConfig(hp=hp, shuffle_seed=0))
        assert report.prox_calls == 0

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_empty_type_one_line_error(self, beta):
        ww, ew, store, _, _ = random_instance(0)
        ts = TypeSystem(
            ("hollow", "t1"), {"hollow": (), "t1": (0, 1, 2)}, {"hollow": frozenset({"hollow"}), "t1": frozenset({"t1"})}
        )
        hp = Hyperparams(n=4, beta_reg=beta, epochs=1, seed=0)
        with pytest.raises(ValueError, match="'hollow' has no member entities") as exc_info:
            train(TrainData(6, 5, ww, ew, ts, store), TrainConfig(hp=hp, shuffle_seed=0))
        assert "\n" not in str(exc_info.value)

    def test_deterministic_reruns_identical(self):
        data, _, _ = synth.attribute_corpus(n_entities=30, seed=5)
        hp = Hyperparams(n=4, alpha_mix=1.0, epochs=3, variant="text", seed=9)
        p1, r1 = train(data, TrainConfig(hp=hp, shuffle_seed=9))
        p2, r2 = train(data, TrainConfig(hp=hp, shuffle_seed=9))
        assert np.array_equal(p1.model.entity_points, p2.model.entity_points)
        assert np.array_equal(p1.model.word_vecs, p2.model.word_vecs)
        assert [lb.total for lb in r1.losses] == [lb.total for lb in r2.losses]
        assert r1.dim_trace == r2.dim_trace

    def test_simplex_constraints_after_each_epoch_count(self, micro_dir):
        from typespace import ingest

        docs = ingest.load_corpus(micro_dir["corpus"])
        vocab, catalog = ingest.build_vocab_and_catalog(docs, 3, 3)
        ww = ingest.count_word_word(docs, vocab, 5)
        ew = ingest.count_entity_word(docs, vocab, catalog, 5)
        ts = ingest.load_type_system(micro_dir["instances"], micro_dir["subclass"], catalog)
        store = ingest.load_triples(micro_dir["triples"], catalog)
        data = TrainData.from_ingest(vocab, catalog, ww, ew, ts, store)
        for epochs in (1, 2):
            hp = Hyperparams(n=6, alpha_mix=0.5, beta_reg=5.0, epochs=epochs, variant="full", seed=2)
            params, _ = train(data, TrainConfig(hp=hp, shuffle_seed=2))
            _simplex_ok(params)

    def test_divergence_aborts_with_snapshot(self, monkeypatch):
        # A non-finite total at epoch 3 aborts with the parameters after
        # epoch 2, which are those of a clean 2-epoch run, array by array.
        ww, ew, store, params, hp = random_instance(4)
        data = TrainData(6, 5, ww, ew, synth.empty_type_system(), store)
        hp = replace(hp, alpha_mix=0.5, beta_reg=0.5, epochs=10, variant="full")
        clean, _ = train(data, TrainConfig(hp=replace(hp, epochs=2), shuffle_seed=3), clone_params(params))
        real = optimize.total_objective
        calls = []

        def objective(*args):
            out = real(*args)
            calls.append(out)
            if len(calls) == 3:
                out.total = math.inf
            return out

        monkeypatch.setattr(optimize, "total_objective", objective)
        with pytest.raises(TrainingDivergedError, match="at epoch 3$") as exc_info:
            train(data, TrainConfig(hp=hp, shuffle_seed=3), params)
        snap = exc_info.value.last_good
        assert exc_info.value.last_epoch == 2 and len(calls) == 3
        for (name, got), (_, want) in zip(collect_param_arrays(snap), collect_param_arrays(clean), strict=True):
            assert got.tobytes() == want.tobytes(), name
        # A copy: the live parameters moved on in epoch 3.
        assert not np.array_equal(snap.model.entity_points, params.model.entity_points)

    def test_trained_values_land_in_the_callers_arrays(self, monkeypatch):
        # train steps views of its row buffers and leaves the values in the
        # array objects it was handed, when it returns and when it raises.
        ww, ew, store, params, hp = random_instance(6)
        data = TrainData(6, 5, ww, ew, synth.empty_type_system(), store)
        hp = replace(hp, alpha_mix=0.5, beta_reg=0.5, epochs=2, variant="full")

        def arrays(p):
            m = p.model
            return [m.entity_points, m.word_vecs, m.ctx_vecs, m.word_bias, m.ctx_bias, m.entity_bias, p.rels.vectors]

        start = clone_params(params)
        handed = arrays(params)
        trained, _ = train(data, TrainConfig(hp=hp, shuffle_seed=2), params)
        assert trained is params and all(got is want for got, want in zip(arrays(trained), handed))
        assert any(got.tobytes() != want.tobytes() for got, want in zip(handed, arrays(start)))
        # A non-finite total at epoch 3 raises after that epoch's passes; the
        # parameters then hold three epochs of steps, which a clean 3-epoch
        # run also ends with.
        clean, _ = train(data, TrainConfig(hp=replace(hp, epochs=3), shuffle_seed=2), clone_params(start))
        real = optimize.total_objective
        calls = []

        def objective(*args):
            out = real(*args)
            calls.append(out)
            out.total = math.inf if len(calls) == 3 else out.total
            return out

        monkeypatch.setattr(optimize, "total_objective", objective)
        handed = arrays(start)
        with pytest.raises(TrainingDivergedError, match="at epoch 3$"):
            train(data, TrainConfig(hp=replace(hp, epochs=5), shuffle_seed=2), start)
        assert all(got is want for got, want in zip(arrays(start), handed))
        for got, want in zip(handed, arrays(clean), strict=True):
            assert got.tobytes() == want.tobytes()

    def test_no_snapshot_after_the_last_epoch(self, monkeypatch):
        clones = []
        monkeypatch.setattr(optimize, "clone_params", lambda p: clones.append(p) or clone_params(p))
        data, _, _ = synth.attribute_corpus(n_entities=30, seed=6)
        for epochs in (1, 3):
            clones.clear()
            train(data, TrainConfig(hp=Hyperparams(n=4, alpha_mix=1.0, epochs=epochs, variant="text", seed=1)))
            assert len(clones) == epochs - 1

    def test_epoch_log_written(self, tmp_path):
        data, _, _ = synth.attribute_corpus(n_entities=30, seed=7)
        hp = Hyperparams(n=4, alpha_mix=1.0, epochs=2, variant="text", seed=1)
        log_path = tmp_path / "log.jsonl"
        train(data, TrainConfig(hp=hp, shuffle_seed=1, log_path=str(log_path)))
        lines = [json.loads(line) for line in log_path.read_text().strip().split("\n")]
        assert len(lines) == 2
        assert lines[0]["epoch"] == 1
        for key in ("j_glove", "j_text_entity", "j_type", "total", "wall_ms", "dims"):
            assert key in lines[0]

    def test_epoch_log_counts_text_batches(self, tmp_path):
        hp = Hyperparams(n=3, alpha_mix=1.0, epochs=2, variant="text", seed=1)

        def batches(ww, ew):
            data = TrainData(3, 5, ww, ew, synth.empty_type_system(), synth.empty_triple_store())
            log_path = tmp_path / "log.jsonl"
            train(data, TrainConfig(hp=hp, shuffle_seed=1, log_path=str(log_path)))
            return [json.loads(line)["text_batches"] for line in log_path.read_text().strip().split("\n")]

        # Entries on disjoint rows take one step, whatever their tables ...
        disjoint_ww = CooccurrenceTable.from_dict(WORD_WORD, {(i, i): float(i + 2) for i in range(4)})
        disjoint_ew = CooccurrenceTable.from_dict(ENTITY_WORD, {(0, 4): 3.0})
        assert batches(disjoint_ww, disjoint_ew) == [1, 1]
        # ... and entries that all write word 0 take one step each.
        hub_ww = CooccurrenceTable.from_dict(WORD_WORD, {(0, j): float(j + 2) for j in range(5)})
        hub_ew = CooccurrenceTable.from_dict(ENTITY_WORD, {(e, 0): 3.0 for e in range(3)})
        assert batches(hub_ww, hub_ew) == [8, 8]

    def test_epoch_log_counts_collapsed_blocks(self, tmp_path):
        data = replace(synth.chain_graph(8), type_system=synth.single_type_system("thing", 8))

        def prox_zero(beta):
            hp = Hyperparams(n=3, alpha_mix=0.5, beta_reg=beta, epochs=2, variant="full", seed=1)
            log_path = tmp_path / "log.jsonl"
            _, report = train(data, TrainConfig(hp=hp, shuffle_seed=1, log_path=str(log_path)))
            records = [json.loads(line) for line in log_path.read_text().strip().split("\n")]
            return [r["prox_zero"] for r in records], report

        # A huge beta collapses every block in every epoch: one prox per
        # type and relation group, each returning the zero span ...
        counts, report = prox_zero(1e6)
        assert report.prox_calls == 2 * (1 + len(data.triples.rhs) + len(data.triples.lhs))
        assert counts == [report.prox_calls // 2] * 2
        assert report.prox_zero == report.prox_calls
        # ... and beta 0 thresholds nothing.
        counts, report = prox_zero(0.0)
        assert counts == [0, 0] and report.prox_zero == 0

    def test_collapsed_epochs_logged_once(self, caplog):
        data = replace(synth.chain_graph(8), type_system=synth.single_type_system("thing", 8))

        def warnings_at(beta):
            hp = Hyperparams(n=3, alpha_mix=0.5, beta_reg=beta, epochs=2, variant="full", seed=1)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="typespace.optimize"):
                train(data, TrainConfig(hp=hp, shuffle_seed=1))
            return [r.getMessage() for r in caplog.records if r.name == "typespace.optimize"]

        (message,) = warnings_at(1e6)
        assert "in 2 of 2 epoch(s)" in message
        assert warnings_at(0.0) == []

    def test_epoch_log_times_each_pass(self, tmp_path):
        ww, ew, store, params, hp = random_instance(2)
        data = TrainData(6, 5, ww, ew, synth.empty_type_system(), store)
        hp = replace(hp, alpha_mix=0.5, beta_reg=0.5, epochs=3, variant="full")
        log_path = tmp_path / "log.jsonl"
        _, report = train(data, TrainConfig(hp=hp, shuffle_seed=1, log_path=str(log_path)), params)
        records = [json.loads(line) for line in log_path.read_text().strip().split("\n")]
        assert [r["pass_ms"] for r in records] == report.pass_ms
        for record in records:
            times = record["pass_ms"]
            assert list(times) == list(optimize.PASSES)
            assert all(t >= 0.0 for t in times.values())
            assert sum(times.values()) <= record["wall_ms"]
            # One prox per type and relation group.
            assert record["prox_calls"] == len(params.types.per_type) + len(store.rhs) + len(store.lhs)
        assert sum(r["prox_calls"] for r in records) == report.prox_calls

    def test_text_divergence_names_row(self):
        ww, ew, store, params, hp = random_instance(7)
        data = TrainData(6, 5, ww, ew, synth.empty_type_system(), store)
        j = int(ww.cols[0])
        params.model.ctx_vecs[j] = np.nan
        hp = replace(hp, alpha_mix=0.5, variant="text")
        message = r"^diverged at epoch 1: non-finite gradient for word\[\d+\]$"
        with pytest.raises(TrainingDivergedError, match=message) as exc:
            train(data, TrainConfig(hp=hp, shuffle_seed=0), params)
        # The named row is the word of an entry that reads the NaN context row.
        row = int(re.search(r"\[(\d+)\]", str(exc.value)).group(1))
        assert row in ww.rows[ww.cols == j].tolist()

    def test_type_comb_trajectory_pinned(self, micro_dir):
        # Types, the comb penalty, relation groups and the SVT prox all
        # run; the per-epoch totals were recorded before the type and
        # relation-group code was folded into one block.
        from typespace import ingest

        docs = ingest.load_corpus(micro_dir["corpus"])
        vocab, catalog = ingest.build_vocab_and_catalog(docs, 3, 3)
        ww = ingest.count_word_word(docs, vocab, 5)
        ew = ingest.count_entity_word(docs, vocab, catalog, 5)
        ts = ingest.load_type_system(micro_dir["instances"], micro_dir["subclass"], catalog)
        store = ingest.load_triples(micro_dir["triples"], catalog)
        data = TrainData.from_ingest(vocab, catalog, ww, ew, ts, store)
        hp = Hyperparams(n=6, alpha_mix=0.5, beta_reg=0.5, epochs=3, variant="type_comb", seed=7)
        _, report = train(data, TrainConfig(hp=hp, shuffle_seed=7))
        expected = [171.71447221324394, 71.32962908523973, 45.531386924380364]
        assert [lb.total for lb in report.losses] == pytest.approx(expected, rel=1e-9)
        assert report.prox_calls == 3 * (len(ts.type_ids) + len(store.rhs) + len(store.lhs))

    def test_loss_trend_on_bundled_fixtures(self):
        # Epoch-20 total strictly below epoch-1 total on every bundled
        # synthetic fixture (stochastic steps preclude per-step monotonicity).
        runs = []
        data, _, _ = synth.attribute_corpus(seed=9)
        runs.append((data, Hyperparams(n=6, alpha_mix=1.0, epochs=20, variant="text", seed=3), None))
        chain = synth.chain_graph(12)
        runs.append((chain, Hyperparams(n=6, alpha_mix=0.0, epochs=20, variant="rel_dist", seed=3), None))
        sub_data, pts = synth.subspace_fixture(n_entities=40, seed=10)
        hp_sub = Hyperparams(n=10, alpha_mix=0.0, beta_reg=2.0, epochs=20, learn_rate=0.2, variant="no_rel", seed=3)
        init = init_parameters(sub_data.n_entities, 1, sub_data.type_system, sub_data.triples, hp_sub)
        init.model.entity_points[:] = pts
        runs.append((sub_data, hp_sub, init))
        for data, hp, start in runs:
            _, report = train(data, TrainConfig(hp=hp, shuffle_seed=3), start)
            assert report.losses[-1].total < report.losses[0].total

    def test_report_epoch_count(self):
        data, _, _ = synth.attribute_corpus(n_entities=30, seed=11)
        hp = Hyperparams(n=3, alpha_mix=1.0, epochs=5, variant="text", seed=0)
        _, report = train(data, TrainConfig(hp=hp, shuffle_seed=0))
        assert report.epochs == 5
        assert len(report.wall_ms) == 5
        assert len(report.dim_trace) == 5


class TestTrainerStepsWithCheckedGradients:
    """The gradients the trainer's passes hand to adagrad_step are alpha or
    (1 - alpha) times the per-item partials of the objective, written out
    here from the loss formulas, at the same parameters.  Acceptance 1
    finite-differences the summed steps of each pass; these tests pin each
    single step to its entry, triple or block."""

    ALPHA = 0.3

    @pytest.fixture
    def steps(self, monkeypatch):
        # Records every step as (name, rows, gradient) and moves nothing, so
        # all gradients of a pass are taken at the same parameters.
        calls = []

        def record(values, grad, state, lr, name="param", rows=None, gathered=None):
            calls.append((name, rows, np.array(grad, dtype=np.float64)))

        monkeypatch.setattr(optimize, "adagrad_step", record)
        return calls

    def _instance(self, seed):
        ww, ew, store, params, hp = random_instance(seed)
        data = TrainData(6, 5, ww, ew, synth.empty_type_system(), store)
        return data, params, replace(hp, alpha_mix=self.ALPHA)

    @staticmethod
    def _named(steps):
        # A row step, row by row, as name(row).
        named = []
        for name, rows, grad in steps:
            named += [(str(name), grad)] if rows is None else [(str(name(r)), g) for r, g in zip(rows, grad)]
        return named

    @classmethod
    def _assert_steps(cls, steps, expected):
        named = cls._named(steps)
        assert [name for name, _ in named] == [name for name, _ in expected]
        for (name, got), (_, want) in zip(named, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15, err_msg=name)

    @staticmethod
    def _block_grads(block, points):
        # Partials of |points - coeffs @ anchors|^2 in the coefficients, the
        # anchors and the points.
        resid = points - block.coeffs @ block.anchors
        return -2.0 * resid @ block.anchors.T, -2.0 * block.coeffs.T @ resid, 2.0 * resid

    def test_text_pass(self, steps):
        data, params, hp = self._instance(3)
        state = optimize._AdaState(params)
        m = params.model
        entries = optimize._prepare_text_entries(data, state)
        order = np.random.default_rng(3).permutation(len(entries[0]))
        n_batches = optimize._text_pass(entries, order, state, hp, self.ALPHA)
        assert len(steps) == n_batches
        # Names of an entry's row vector and column vector -> (table, row
        # vectors, column vectors, row biases, column biases).
        fits = {
            ("word", "ctx"): (data.word_word, m.word_vecs, m.ctx_vecs, m.word_bias, m.ctx_bias),
            ("entity", "word"): (data.entity_word, m.entity_points, m.word_vecs, m.entity_bias, m.word_bias),
        }
        seen = []
        n = hp.n
        for name, rows, grad in steps:
            # One step on the batch's row vectors, then its column vectors,
            # each row's vector partial in columns :n and its bias partial in
            # column n: the k-th row vector and the k-th column vector belong
            # to one entry, whose table their names tell.
            labels = [re.fullmatch(r"(\w+)\[(\d+)\]", name(r)).groups() for r in rows]
            assert grad.shape == (len(rows), n + 1)
            k = len(rows) // 2
            for p, ((name_u, i), (name_v, j)) in enumerate(zip(labels[:k], labels[k:])):
                names = (name_u, name_v)
                table, u, v, bu, bv = fits[names]
                i, j = int(i), int(j)
                x = float(table.weights[(table.rows == i) & (table.cols == j)][0])
                # d/dtheta of f(x) * (u.v + b_u + b_v - log x)^2.
                coef = self.ALPHA * 2.0 * float(weight_f(x)) * (
                    float(u[i] @ v[j]) + bu[i] + bv[j] - math.log(x)
                )
                pairs = ((grad[p, :n], coef * v[j]), (grad[k + p, :n], coef * u[i]), (grad[p, n], coef), (grad[k + p, n], coef))
                for got, want in pairs:
                    np.testing.assert_allclose(
                        np.atleast_1d(got), np.atleast_1d(want), rtol=1e-12, atol=1e-15, err_msg=f"{names} {i},{j}"
                    )
                seen.append((table.kind, i, j))
        everything = [(t.kind, int(i), int(j)) for t, *_ in fits.values() for i, j in zip(t.rows, t.cols)]
        assert sorted(seen) == sorted(everything)
        assert n_batches < len(everything)  # some batch holds several entries

    def test_rel_dist_pass(self, steps):
        data, params, hp = self._instance(4)
        # One ordinary triple and one self-loop, whose entity is stepped once
        # with a zero gradient.
        e, k, f = data.triples.triples[0]
        assert e != f
        data = replace(data, triples=replace(data.triples, triples=((e, k, f), (e, k, e))))
        optimize._rel_dist_pass(optimize._AdaState(params), data, hp, np.random.default_rng(0))
        points, vectors = params.model.entity_points, params.rels.vectors
        expected = []
        for idx in np.random.default_rng(0).permutation(2):
            te, tk, tf = data.triples.triples[idx]
            # d/dP_f of 2 |P_f - P_e - r_k|^2; P_e and r_k take its negative.
            g = (1.0 - self.ALPHA) * 4.0 * (points[tf] - points[te] - vectors[tk])
            if te != tf:
                expected += [(f"entity[{tf}]", g), (f"entity[{te}]", -g)]
            else:
                expected.append((f"entity[{te}]", np.zeros_like(g)))
            expected.append((f"rel[{tk}]", -g))
        self._assert_steps(steps, expected)
        assert len(steps) == 2  # one step per triple
        assert [name for name, _ in self._named(steps)].count(f"entity[{e}]") == 2

    def test_block_step(self, steps):
        for variant in ("full", "type_comb"):
            steps.clear()
            data, params, hp = self._instance(5)
            hp = replace(hp, variant=variant, beta_reg=0.0)  # no prox: the recorder leaves every anchor in place
            types = params.types
            points = {t: params.model.entity_points[tp.members] for t, tp in types.items()}
            coeff_grads = {t: self._block_grads(tp, points[t])[0] for t, tp in types.items()}
            optimize._type_pass(optimize._AdaState(params), hp, variant_flags(variant), TrainReport())
            # Every type's coefficient step in id order, then the anchor
            # steps, one per size class here, whose gradients are taken at
            # the projected coefficients (plus the comb partials for
            # type_comb).
            scale = 1.0 - self.ALPHA
            expected = [(f"coeffs[{t}]", scale * coeff_grads[t]) for t in types.per_type]
            for cls in types.per_type.size_classes:
                for t in (types.per_type.key_table[b] for b in cls.blocks.tolist()):
                    grad = self._block_grads(types[t], points[t])[1]
                    if variant == "type_comb":
                        grad = grad + ref_comb_partials(types[t].anchors)
                    expected.append((f"anchors[{t}]", scale * grad))
            assert len(types.per_type.size_classes) > 1
            assert len(steps) == len(types.per_type) + len(types.per_type.size_classes)
            self._assert_steps(steps, expected)

    def test_rel_dim_pass(self, steps):
        data, params, hp = self._instance(6)
        hp = replace(hp, beta_reg=0.0)  # no prox: the recorder leaves every anchor in place
        m, rels = params.model, params.rels
        state = optimize._AdaState(params)
        optimize._rel_dim_pass(state, hp, variant_flags(hp.variant), TrainReport())
        # A group's coefficient step is test_block_step's; the member and
        # relation steps follow it in pass order, and the anchor steps, one
        # per size class here, come after every group's; all are taken at
        # the projected coefficients, which the pass leaves behind.
        steps[:] = [step for step in steps if not str(step[0]).startswith("coeffs[")]
        scale = 1.0 - self.ALPHA
        expected, anchor_steps = [], []
        for side, groups in (("rhs", rels.rhs_groups), ("lhs", rels.lhs_groups)):
            for key in sorted(groups):
                gp = groups[key]
                # Members, then the endpoint moved by +r_k (tail group (e, k))
                # or -r_k (head group (k, f)); the endpoint's partial goes to
                # its entity and, signed, to the relation.
                entity, k, sign = (key[0], key[1], 1.0) if side == "rhs" else (key[1], key[0], -1.0)
                points = np.vstack([m.entity_points[gp.members], m.entity_points[entity] + sign * rels.vectors[k]])
                _, anchor_grad, point_grads = self._block_grads(gp, points)
                entity_grads = dict(zip(gp.members.tolist(), point_grads[:-1]))
                entity_grads[entity] = entity_grads.get(entity, 0.0) + point_grads[-1]
                step = (f"anchors[{side}{key}]", scale * anchor_grad)
                anchor_steps.append(((side, groups.key_table.index(key)), step))
                expected += [(f"entity[{r}]", scale * g) for r, g in entity_grads.items()]
                expected.append((f"rel[{k}]", scale * sign * point_grads[-1]))
        # The anchor steps: tail groups then head groups, each side by size
        # class, a class's groups in key order.
        order = {(side, b): i for side, groups in (("rhs", rels.rhs_groups), ("lhs", rels.lhs_groups))
                 for i, b in enumerate(b for cls in groups.size_classes for b in cls.blocks.tolist())}
        expected += [step for _, step in sorted(anchor_steps, key=lambda item: (item[0][0] != "rhs", order[item[0]]))]
        n_groups = len(rels.rhs_groups) + len(rels.lhs_groups)
        n_classes = len(rels.rhs_groups.size_classes) + len(rels.lhs_groups.size_classes)
        assert n_groups > n_classes > 2
        assert len(steps) == n_groups + n_classes  # one point step per group, one anchor step per class
        self._assert_steps(steps, expected)


@st.composite
def _group_instances(draw):
    """A relation-group instance: distinct triples over few entities and
    1-4 relations, so that groups of several sizes interleave in key order
    on both sides and self-loops make endpoints members, with the point
    width n and a seed for the parameters."""
    n_entities = draw(st.integers(1, 5))
    n_rels = draw(st.integers(1, 4))
    triple = st.tuples(st.integers(0, n_entities - 1), st.integers(0, n_rels - 1), st.integers(0, n_entities - 1))
    triples = draw(st.lists(triple, min_size=1, max_size=20))  # repeats are dropped
    return "drawn", (triples, n_entities, n_rels, draw(st.integers(1, 8)), draw(st.integers(0, 2**16)))


def _group_pass_instances(kind, drawn):
    """(params, hp) per instance of a _group_instances draw, or of the
    fixed instances: random_instance at seeds 0-9 and interleaved_instance
    at seeds 0-4, whose head-group size classes interleave in key order."""
    if kind == "drawn":
        triples, n_entities, n_rels, n, seed = drawn
        hp = Hyperparams(n=n, seed=seed, epochs=1)
        store = triple_store([f"r{k}" for k in range(n_rels)], triples)
        params = init_parameters(n_entities, 1, synth.empty_type_system(), store, hp)
        perturb(params, np.random.default_rng(seed))
        yield params, hp
        return
    for seed in range(10):
        yield random_instance(seed)[3:]
    for seed in range(5):
        _, params, hp = interleaved_instance(seed)
        assert any(np.any(np.diff(cls.blocks) > 1) for cls in params.rels.lhs_groups.size_classes)
        yield params, hp


class TestRelGroupPass:
    """The planned relation-group pass, its anchor steps deferred to after
    the per-group loop, against the per-group loop it replaced
    (reference_impls.ref_rel_dim_pass), bit for bit over two passes."""

    @settings(max_examples=100, deadline=None)
    @given(instance=_group_instances(), alpha=st.sampled_from([0.3, 1.0]), beta=st.sampled_from([0.0, 0.5]))
    @example(instance=("fixed", None), alpha=0.3, beta=0.0)
    @example(instance=("fixed", None), alpha=0.3, beta=0.5)
    def test_matches_per_group_loop(self, instance, alpha, beta):
        self_loops = 0
        for params, hp in _group_pass_instances(*instance):
            hp = replace(hp, alpha_mix=alpha, beta_reg=beta)
            ref_params = clone_params(params)
            m, rels = ref_params.model, ref_params.rels
            ref_accs = (np.zeros_like(m.entity_points), np.zeros_like(rels.vectors), rels.rhs_groups.zeros(),
                        rels.lhs_groups.zeros())
            state = optimize._AdaState(params)
            self_loops += sum(plan[8] is not None for plan in state.group_plans)
            for _ in range(2):  # the second pass starts from non-zero accumulators
                reg = optimize._rel_dim_pass(state, hp, variant_flags("full"), TrainReport())
                assert reg == ref_rel_dim_pass(ref_params, ref_accs, hp, beta > 0.0, prox_nuclear)
            for (name, got), (_, want) in zip(collect_param_arrays(params), collect_param_arrays(ref_params)):
                assert got.tobytes() == want.tobytes(), name
            rel0, n = state.starts["vectors"], hp.n
            assert state.row_acc[: len(m.entity_points), :n].tobytes() == ref_accs[0].tobytes()
            assert state.row_acc[rel0:, :n].tobytes() == ref_accs[1].tobytes()
            assert not state.row_acc[len(m.entity_points) : rel0].any() and not state.row_acc[:, n].any()
            for side, want in zip(("rhs", "lhs"), ref_accs[2:]):
                got = getattr(state, side)
                assert got.anchors.tobytes() == want.anchors.tobytes(), side
                assert got.coeffs.tobytes() == want.coeffs.tobytes(), side
        if instance[0] == "fixed":
            assert self_loops > 0  # some group's endpoint is one of its members


class TestTypePass:
    """The type pass, its anchor steps deferred to after the per-type loop,
    against the per-type loop (reference_impls.ref_type_pass), bit for
    bit."""

    @pytest.mark.parametrize("variant", ["full", "type_comb"])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_matches_per_type_loop(self, beta, variant):
        flags = variant_flags(variant)
        for seed in range(10):
            # Seven types whose size classes interleave in key order.
            _, params, hp = interleaved_instance(seed)
            hp = replace(hp, alpha_mix=0.3, beta_reg=beta, variant=variant)
            ref_params = clone_params(params)
            ref_accs = ref_params.types.per_type.zeros()
            state = optimize._AdaState(params)
            for _ in range(2):  # the second pass starts from non-zero accumulators
                reg = optimize._type_pass(state, hp, flags, TrainReport())
                assert reg == ref_type_pass(ref_params, ref_accs, hp, beta > 0.0, flags.comb, prox_nuclear)
            pairs = zip(collect_param_arrays(params), collect_param_arrays(ref_params), strict=True)
            for (name, got), (_, want) in pairs:
                assert np.array_equal(got, want), name
            assert np.array_equal(state.types.anchors, ref_accs.anchors)
            assert np.array_equal(state.types.coeffs, ref_accs.coeffs)


class TestDeferredAnchorSteps:
    """Exactness edges of the anchor steps a block pass runs after its
    per-block loop (optimize._anchor_steps)."""

    @staticmethod
    def _train(data, params, hp):
        trained, report = train(data, TrainConfig(hp=hp, shuffle_seed=5), clone_params(params))
        return [arr.tobytes() for _, arr in collect_param_arrays(trained)], [lb.total for lb in report.losses]

    @pytest.mark.parametrize("variant", ["full", "type_comb"])
    def test_chunk_size_changes_nothing(self, monkeypatch, variant):
        data, params, hp = interleaved_instance(3)
        hp = replace(hp, alpha_mix=0.5, beta_reg=0.5, epochs=3, variant=variant)
        want = self._train(data, params, hp)
        n_blocks = sum(len(s) for s in (params.types.per_type, params.rels.rhs_groups, params.rels.lhs_groups))
        chunks = []
        step = optimize.adagrad_step

        def counting(values, *args, **kwargs):
            chunks[-1] += values.ndim == 3  # a step on a stacked anchor store
            step(values, *args, **kwargs)

        monkeypatch.setattr(optimize, "adagrad_step", counting)
        # One block per chunk, two (n = 4, at most 5 rows: 50 // (5 * 5)),
        # and a whole size class.
        for cells in (1, 50, 10**9):
            monkeypatch.setattr(optimize, "_ANCHOR_CHUNK_CELLS", cells)
            chunks.append(0)
            assert self._train(data, params, hp) == want, cells
        assert chunks[0] == 3 * n_blocks > chunks[1] > chunks[2]

    @pytest.mark.parametrize("variant", ["full", "type_comb"])
    @pytest.mark.parametrize("absent", ["groups", "types"])
    def test_empty_store(self, variant, absent):
        data, _, hp = interleaved_instance(1)
        if absent == "groups":
            data = replace(data, triples=synth.empty_triple_store())
        else:
            data = replace(data, type_system=synth.empty_type_system())
        hp = replace(hp, alpha_mix=0.5, beta_reg=0.5, epochs=2, variant=variant)
        trained, report = train(data, TrainConfig(hp=hp, shuffle_seed=1))
        blocks = len(data.type_system.type_ids) + len(data.triples.rhs) + len(data.triples.lhs)
        assert report.prox_calls == 2 * blocks > 0
        assert all(math.isfinite(lb.total) for lb in report.losses)
        # The empty pass on its own: no step, no prox, a zero sum.
        state, flags, report = optimize._AdaState(trained), variant_flags(variant), TrainReport()
        if absent == "groups":
            assert optimize._rel_dim_pass(state, hp, flags, report) == 0.0
        else:
            assert optimize._type_pass(state, hp, flags, report) == 0.0
        assert report.prox_calls == 0

    def test_stacked_prox_scale_is_the_scalar_formula(self):
        rng = np.random.default_rng(0)
        lr = 0.05
        for n in (1, 2, 4, 7, 20, 50):
            store = rng.gamma(0.5, size=(9, n + 1, n)) * 10.0 ** rng.uniform(-6, 6, size=(9, 1, 1))
            blocks = rng.permutation(9)[:5]  # gathered, as the trainer gathers a chunk
            want = [lr / math.sqrt(float(np.sum(store[b])) / store[b].size + optimize.ADAGRAD_EPS) for b in blocks]
            assert anchor_prox_scale(lr, store[blocks]).tolist() == want
            assert [float(anchor_prox_scale(lr, store[b])) for b in blocks] == want

    def test_stacked_gradients_are_per_block(self):
        rng = np.random.default_rng(1)
        for n, r in ((1, 1), (2, 5), (4, 3), (20, 1), (20, 30), (50, 2)):
            anchors = rng.normal(size=(9, n + 1, n))
            anchors[0, -1] = anchors[0, :-1].mean(axis=0)  # an anchor at the centroid: the zero subgradient
            coeffs, resid = rng.uniform(size=(9, r, n + 1)), rng.normal(size=(9, r, n))
            blocks = rng.permutation(9)[:5]
            losses, partials = comb_penalty_terms(anchors[blocks])
            grads = block_anchor_grad(coeffs[blocks], resid[blocks])
            for j, b in enumerate(blocks):
                assert partials[j].tobytes() == ref_comb_partials(anchors[b]).tobytes()
                assert losses[j] == comb_penalty_terms(anchors[b])[0]
                assert grads[j].tobytes() == (-2.0 * coeffs[b].T @ resid[b]).tobytes()


class TestDivergenceNamesTheBlock:
    """A non-finite gradient in a block pass ends training with
    TrainingDivergedError naming the block, and params' arrays hold the
    values the pass had reached: a clean run's for every step taken before
    the error, the start values for every step after it."""

    @staticmethod
    def _run(data, params, hp, plant, name):
        """(start, clean): params after a clean one-epoch run, and then,
        after plant(params) plants a non-finite value, before the run of hp
        that must raise within its first epoch, naming name."""
        clean, _ = train(data, TrainConfig(hp=replace(hp, epochs=1), shuffle_seed=0), clone_params(params))
        plant(params)
        start = clone_params(params)
        message = rf"^diverged at epoch 1: non-finite gradient for {re.escape(name)}$"
        with pytest.raises(TrainingDivergedError, match=message) as exc_info:
            train(data, TrainConfig(hp=hp, shuffle_seed=0), params)
        assert exc_info.value.last_good is None
        return start, clean

    @staticmethod
    def _same(got, want):
        return got.tobytes() == want.tobytes()

    def test_nan_point_names_the_first_type_that_reads_it(self):
        data, params, hp = interleaved_instance(2)
        hp = replace(hp, alpha_mix=0.0, beta_reg=0.5, epochs=2, variant="full")
        types = params.types.per_type
        e = next(e for e in range(10) if e not in types["t0"].members and any(e in tp.members for tp in types.values()))
        bad = next(t for t, tp in types.items() if e in tp.members)  # the first type in id order
        handed = params.model.entity_points

        def plant(p):
            p.model.entity_points[e] = np.nan

        start, clean = self._run(data, params, hp, plant, f"coeffs[{bad}]")
        # The coefficient steps of the types before it; no anchor step.
        for t, tp in types.items():
            assert self._same(tp.coeffs, (clean if t < bad else start).types[t].coeffs), t
        assert self._same(types.anchors, start.types.per_type.anchors)
        assert params.model.entity_points is handed and self._same(handed, start.model.entity_points)
        for side in ("rhs_groups", "lhs_groups"):
            got, want = getattr(params.rels, side), getattr(start.rels, side)
            assert self._same(got.anchors, want.anchors) and self._same(got.coeffs, want.coeffs)
        assert not self._same(types.coeffs, start.types.per_type.coeffs)

    def test_nan_in_a_head_group_names_it(self):
        # Every entity and relation a head group reads, a tail group reads
        # first, so the NaN is planted in the head group's anchors.
        data, params, hp = interleaved_instance(2)
        hp = replace(hp, alpha_mix=0.0, beta_reg=0.5, epochs=2, variant="full")
        lhs = params.rels.lhs_groups
        key = lhs.key_table[3]

        def plant(p):
            p.rels.lhs_groups[key].anchors[1, 0] = np.nan

        start, clean = self._run(data, params, hp, plant, f"coeffs[lhs{key}]")
        # The whole type pass, the relation-distance pass and the coefficient
        # steps of every group before it; no group's anchor step.
        assert self._same(params.types.per_type.anchors, clean.types.per_type.anchors)
        assert self._same(params.types.per_type.coeffs, clean.types.per_type.coeffs)
        assert self._same(params.rels.rhs_groups.coeffs, clean.rels.rhs_groups.coeffs)
        for i, k in enumerate(lhs.key_table):
            assert self._same(lhs[k].coeffs, (clean if i < 3 else start).rels.lhs_groups[k].coeffs), k
        for side in ("rhs_groups", "lhs_groups"):
            assert self._same(getattr(params.rels, side).anchors, getattr(start.rels, side).anchors)
        assert not self._same(params.model.entity_points, start.model.entity_points)

    def test_bad_anchor_gradients_name_the_first_of_the_first_bad_chunk(self, monkeypatch):
        # Poisoned comb partials for t1 (4 members) and t5 (3 members): the
        # anchor steps run by size class, so t5's chunk comes first.
        data, params, hp = interleaved_instance(2)
        hp = replace(hp, alpha_mix=0.0, beta_reg=0.5, epochs=2, variant="type_comb")
        types = params.types.per_type
        real = optimize.comb_penalty_terms

        def poisoned(anchors):
            loss, partials = real(anchors)
            for j, block in enumerate(anchors):
                if any(np.array_equal(block, types[t].anchors) for t in ("t1", "t5")):
                    partials[j, 0, 0] = np.nan
            return loss, partials

        start = clone_params(params)
        clean, _ = train(data, TrainConfig(hp=replace(hp, epochs=1), shuffle_seed=0), clone_params(params))
        monkeypatch.setattr(optimize, "comb_penalty_terms", poisoned)
        message = r"^diverged at epoch 1: non-finite gradient for anchors\[t5\]$"
        with pytest.raises(TrainingDivergedError, match=message):
            train(data, TrainConfig(hp=hp, shuffle_seed=0), params)
        # Every coefficient step, and the anchor steps of the chunks before
        # t5's: the classes of 1 and 2 members.
        assert self._same(types.coeffs, clean.types.per_type.coeffs)
        stepped = {types.key_table[b] for cls in types.size_classes[:2] for b in cls.blocks.tolist()}
        assert stepped == {"t0", "t2", "t3", "t6"}
        for t, tp in types.items():
            assert self._same(tp.anchors, (clean if t in stepped else start).types[t].anchors), t


@st.composite
def _triple_passes(draw):
    """Triples over few entities and many relations, so that rows repeat
    within a pass and self-loops are common, with the point width n."""
    n_entities = draw(st.integers(1, 4))
    n_rels = draw(st.integers(1, 12))
    triple = st.tuples(st.integers(0, n_entities - 1), st.integers(0, n_rels - 1), st.integers(0, n_entities - 1))
    return draw(st.lists(triple, min_size=1, max_size=30)), n_rels, draw(st.integers(1, 8))


class TestRelDistPass:
    """The one-step-per-triple pass against the three-step per-triple loop
    (reference_impls.ref_rel_dist_pass), bit for bit, over two passes."""

    @settings(max_examples=100, deadline=None)
    @given(passes=_triple_passes(), seed=st.integers(0, 2**16), alpha=st.sampled_from([0.3, 1.0]))
    @example(passes=([(0, 0, 0), (0, 1, 0), (0, 0, 0), (1, 0, 0)], 2, 3), seed=0, alpha=0.3)
    def test_matches_per_triple_loop(self, passes, seed, alpha):
        triples, n_rels, n = passes
        _, _, store, params, hp = random_instance(seed, n=n)
        params.rels.vectors = np.random.default_rng(seed).normal(size=(n_rels, n))
        data = TrainData(6, 5, None, None, synth.empty_type_system(), replace(store, triples=tuple(triples)))
        hp = replace(hp, alpha_mix=alpha)
        ref_params = clone_params(params)
        m, rels = ref_params.model, ref_params.rels
        entity_acc, rel_acc = np.zeros_like(m.entity_points), np.zeros_like(rels.vectors)
        state = optimize._AdaState(params)
        for epoch in range(2):  # the second pass starts from non-zero accumulators
            optimize._rel_dist_pass(state, data, hp, np.random.default_rng(seed + epoch))
            ref_rel_dist_pass(m, rels, entity_acc, rel_acc, data.triples.triples, hp, np.random.default_rng(seed + epoch))
        assert params.model.entity_points.tobytes() == m.entity_points.tobytes()
        assert params.rels.vectors.tobytes() == rels.vectors.tobytes()
        rel0 = state.starts["vectors"]
        assert state.row_acc[:6, :n].tobytes() == entity_acc.tobytes()
        assert state.row_acc[rel0:, :n].tobytes() == rel_acc.tobytes()
        assert not state.row_acc[:, n].any()


class TestStepCounts:
    """One AdaGrad step per text batch, one per triple, and per relation
    group its coefficient step and one on its points; a type takes its
    coefficient step; each block pass then takes one anchor step per chunk
    of a size class."""

    def test_steps_per_batch_triple_and_group(self, monkeypatch):
        ww, ew, store, params, hp = random_instance(5)
        data = TrainData(6, 5, ww, ew, synth.empty_type_system(), store)
        hp = replace(hp, alpha_mix=0.5, beta_reg=0.5, epochs=2, variant="full")
        calls, batches, current = {}, [], [None]
        step = optimize.adagrad_step

        def counting(*args, **kwargs):
            calls[current[0]] = calls.get(current[0], 0) + 1
            step(*args, **kwargs)

        def counted(name, real):
            def run(*args):
                current[0] = name
                out = real(*args)
                if name == "text":
                    batches.append(out)
                return out

            return run

        monkeypatch.setattr(optimize, "adagrad_step", counting)
        for name, attr in (("text", "_text_pass"), ("type", "_type_pass"), ("rel_dist", "_rel_dist_pass"),
                           ("rel_group", "_rel_dim_pass")):
            monkeypatch.setattr(optimize, attr, counted(name, getattr(optimize, attr)))
        train(data, TrainConfig(hp=hp, shuffle_seed=1), params)
        assert len(batches) == 2 and sum(batches) > 0
        # Every size class here fits in one chunk.
        types, rels = params.types.per_type, params.rels
        group_classes = len(rels.rhs_groups.size_classes) + len(rels.lhs_groups.size_classes)
        assert len(types.size_classes) > 1 and group_classes > 2
        assert calls == {
            "text": sum(batches),
            "type": 2 * (len(types) + len(types.size_classes)),
            "rel_dist": 2 * len(store.triples),
            "rel_group": 2 * (2 * (len(store.rhs) + len(store.lhs)) + group_classes),
        }


class TestCarriedNuclearNorms:
    """With beta > 0 the objective takes the nuclear norms the proxes
    returned; they must be regularizer's at the parameters it scores."""

    @pytest.fixture
    def objective_calls(self, monkeypatch):
        calls = []

        def recording(ww, ew, store, params, hp, reg=None):
            calls.append((reg, regularizer(params.types, params.rels, hp.variant)))
            return total_objective(ww, ew, store, params, hp, reg)

        total_objective = optimize.total_objective
        monkeypatch.setattr(optimize, "total_objective", recording)
        return calls

    @staticmethod
    def _micro(micro_dir):
        from typespace import ingest

        docs = ingest.load_corpus(micro_dir["corpus"])
        vocab, catalog = ingest.build_vocab_and_catalog(docs, 3, 3)
        ts = ingest.load_type_system(micro_dir["instances"], micro_dir["subclass"], catalog)
        return TrainData.from_ingest(
            vocab, catalog, ingest.count_word_word(docs, vocab, 5), ingest.count_entity_word(docs, vocab, catalog, 5),
            ts, ingest.load_triples(micro_dir["triples"], catalog),
        )

    @pytest.mark.parametrize("variant", ["full", "type_comb", "rel_dim", "no_type"])
    @pytest.mark.parametrize("instance", ["micro", "random"])
    def test_carried_sums_equal_regularizer(self, micro_dir, objective_calls, instance, variant):
        for beta in (0.0, 0.01, 0.5, 1.0):
            if instance == "micro":
                data, start, hp = self._micro(micro_dir), None, Hyperparams(n=6, seed=7)
            else:
                ww, ew, store, start, hp = random_instance(3)
                data = TrainData(6, 5, ww, ew, synth.empty_type_system(), store)
            hp = replace(hp, alpha_mix=0.5, beta_reg=beta, epochs=3, variant=variant)
            objective_calls.clear()
            train(data, TrainConfig(hp=hp, shuffle_seed=7), start)
            assert len(objective_calls) == 3
            for carried, reference in objective_calls:
                if beta == 0.0:
                    assert carried is None  # no prox ran: regularizer scores the norms
                else:
                    assert carried == pytest.approx(reference, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("variant", ["full", "type_comb", "no_rel"])
    def test_empty_type_takes_the_block_step(self, objective_calls, variant, beta):
        # init_parameters refuses an empty type, but params a caller builds
        # may hold one; it takes the same block step as any other type.
        ww, ew, store, params, hp = random_instance(3)
        n = hp.n
        anchors = np.random.default_rng(3).normal(size=(n + 1, n))
        blocks = {t: tuple(tp) for t, tp in params.types.items()}
        blocks["hollow"] = (anchors, np.zeros(0, dtype=np.int64), np.zeros((0, n + 1)))
        params.types.per_type = block_store("type", blocks, n)
        hp = replace(hp, alpha_mix=0.5, beta_reg=beta, epochs=3, variant=variant)
        data = TrainData(6, 5, ww, ew, synth.empty_type_system(), store)
        trained, report = train(data, TrainConfig(hp=hp, shuffle_seed=7), params)
        assert len(objective_calls) == 3 and all(np.isfinite(lb.total) for lb in report.losses)
        for carried, reference in objective_calls:
            if beta == 0.0:
                assert carried is None
            else:
                assert carried[0] == pytest.approx(reference[0], rel=1e-12, abs=0.0)
        if variant == "full" and beta > 0.0:
            assert not anchor_span_matrix(trained.types["hollow"].anchors).any()


class TestAnchorProxScale:
    def test_scale_decreases_with_accumulation(self):
        lr = 0.05
        small = anchor_prox_scale(lr, np.full((3, 2), 1.0))
        big = anchor_prox_scale(lr, np.full((3, 2), 100.0))
        assert big < small


class TestTune:
    def test_constant_callback_tie_rule(self):
        best = tune(lambda hp: 1.0, Hyperparams(epochs=1))
        assert best.beta_reg == 50.0
        assert best.alpha_mix == 0.0

    def test_unique_maximum(self):
        def objective(hp):
            return -abs(hp.alpha_mix - 0.5) - abs(hp.beta_reg - 300.0)

        best = tune(objective, Hyperparams(epochs=1))
        assert best.alpha_mix == 0.5
        assert best.beta_reg == 300.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            tune(lambda hp: 0.0, Hyperparams(epochs=1), alphas=[], betas=[1.0])

    def test_custom_grid(self):
        best = tune(lambda hp: hp.beta_reg, Hyperparams(epochs=1), alphas=[0.2], betas=[1.0, 2.0])
        assert best.beta_reg == 2.0
        assert best.alpha_mix == 0.2
