import json
import logging
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_instance
from reference_impls import (
    collect_param_arrays,
    prox_objective,
    prox_subgradient_residual,
    ref_prox_nuclear,
    ref_rel_dim_pass,
    simplex_bisection_oracle,
    simplex_grid_search,
)
from typespace import optimize, synth
from typespace.ingest import ENTITY_WORD, WORD_WORD, CooccurrenceTable, TypeSystem
from typespace.objective import Batch, loss_and_gradients, nuclear_norm, regularizer, rel_group_gradients, variant_flags
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
from typespace.params import Hyperparams, SubspaceBlock, anchor_span_matrix, clone_params, init_parameters


class TestProjectToSimplex:
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
            adagrad_step(values, grad, state, 0.1, "word", rows=[4, 17, 2])
        grad[2, 0] = np.inf
        with pytest.raises(NonFiniteGradientError, match=r"non-finite gradient for word\[0\]$"):
            adagrad_step(values, grad, state, 0.1, "word", rows=[3, 0, 1])
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
            ("hollow", "t1"), (), {"hollow": (), "t1": (0, 1, 2)}, {"hollow": (), "t1": (0, 1, 2)},
            {"hollow": frozenset({"hollow"}), "t1": frozenset({"t1"})},
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_snapshot(self):
        data, _, _ = synth.attribute_corpus(n_entities=30, seed=6)
        hp = Hyperparams(n=4, alpha_mix=1.0, epochs=10, learn_rate=1e200, variant="text", seed=1)
        with pytest.raises(TrainingDivergedError) as exc_info:
            train(data, TrainConfig(hp=hp, shuffle_seed=1))
        # The snapshot is either None (first epoch diverged) or finite.
        snap = exc_info.value.last_good
        if snap is not None:
            assert np.all(np.isfinite(snap.model.entity_points))

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

        # Entries on disjoint rows take one step per table kind ...
        disjoint_ww = CooccurrenceTable.from_dict(WORD_WORD, {(i, i): float(i + 2) for i in range(4)})
        disjoint_ew = CooccurrenceTable.from_dict(ENTITY_WORD, {(0, 4): 3.0})
        assert batches(disjoint_ww, disjoint_ew) == [2, 2]
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
    (1 - alpha) times the loss_and_gradients partials that the
    finite-difference suite checks, at the same parameters."""

    ALPHA = 0.3

    @pytest.fixture
    def steps(self, monkeypatch):
        # Records every step as (name, rows, gradient) and moves nothing, so
        # all gradients of a pass are taken at the same parameters.
        calls = []

        def record(values, grad, state, lr, name="param", rows=None):
            calls.append((name, rows, np.array(grad, dtype=np.float64)))

        monkeypatch.setattr(optimize, "adagrad_step", record)
        return calls

    def _instance(self, seed):
        ww, ew, store, params, hp = random_instance(seed)
        data = TrainData(6, 5, ww, ew, synth.empty_type_system(), store)
        return data, params, replace(hp, alpha_mix=self.ALPHA)

    @staticmethod
    def _assert_steps(steps, expected):
        # A row step is compared row by row, as name[row].
        named = []
        for name, rows, grad in steps:
            named += [(name, grad)] if rows is None else [(f"{name}[{r}]", g) for r, g in zip(rows, grad)]
        assert [name for name, _ in named] == [name for name, _ in expected]
        for (name, got), (_, want) in zip(named, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15, err_msg=name)

    def test_text_pass(self, steps):
        data, params, hp = self._instance(3)
        entries = optimize._prepare_text_entries(data, hp)
        order = np.random.default_rng(3).permutation(len(entries[0]))
        n_batches = optimize._text_pass(entries, order, params, optimize._AdaState(params), hp, self.ALPHA)
        assert len(steps) == 4 * n_batches
        tables = {
            ("word", "ctx", "word_bias", "ctx_bias"): ("ww", data.word_word),
            ("entity", "word", "entity_bias", "word_bias"): ("ew", data.entity_word),
        }
        seen = []
        for b in range(n_batches):
            # One batch steps row vectors, column vectors, row biases and
            # column biases; the k-th rows of all four belong to one entry.
            batch = steps[4 * b : 4 * b + 4]
            names = tuple(name for name, _, _ in batch)
            field, table = tables[names]
            i_rows, j_rows = batch[0][1], batch[1][1]
            assert np.array_equal(batch[2][1], i_rows) and np.array_equal(batch[3][1], j_rows)
            for k, (i, j) in enumerate(zip(i_rows.tolist(), j_rows.tolist())):
                x = float(table.weights[(table.rows == i) & (table.cols == j)][0])
                grads = loss_and_gradients(Batch(**{field: [(i, j, x)]}), params, hp)[1]
                for (name, _, got), idx in zip(batch, (i, j, i, j)):
                    want = self.ALPHA * np.atleast_1d(grads[(name, idx)])
                    got_row = np.atleast_1d(got[k])
                    np.testing.assert_allclose(got_row, want, rtol=1e-12, atol=1e-15, err_msg=f"{name}[{idx}]")
                seen.append((field, i, j))
        everything = [
            (field, int(i), int(j)) for field, table in tables.values() for i, j in zip(table.rows, table.cols)
        ]
        assert sorted(seen) == sorted(everything)
        assert n_batches < len(everything)  # some batch holds several entries

    def test_rel_dist_pass(self, steps):
        data, params, hp = self._instance(4)
        # One ordinary triple and one self-loop, whose entity is stepped once
        # with a zero gradient.
        e, k, f = data.triples.triples[0]
        data = replace(data, triples=replace(data.triples, triples=((e, k, f), (e, k, e))))
        optimize._rel_dist_pass(params, optimize._AdaState(params), data, hp, np.random.default_rng(0))
        expected = []
        for idx in np.random.default_rng(0).permutation(2):
            grads = loss_and_gradients(Batch(triples=[data.triples.triples[idx]]), params, hp)[1]
            expected += [(f"{name}[{i}]", (1.0 - self.ALPHA) * g) for (name, i), g in grads.items()]
        self._assert_steps(steps, expected)
        assert [name for name, _, _ in steps].count(f"entity[{e}]") == 2

    def test_block_step(self, steps):
        data, params, hp = self._instance(5)
        tp = params.types["t1"]
        before = loss_and_gradients(Batch(type_ids=["t1"]), params, hp)[1]
        points = params.model.entity_points[tp.members]
        acc = optimize._AdaState(params).blocks["t1"]
        optimize._block_step(tp, points, acc, hp, False, False, TrainReport(), "t1")
        # The anchor step follows the coefficient step: its gradient is
        # taken at the projected coefficients.
        after = loss_and_gradients(Batch(type_ids=["t1"]), params, hp)[1]
        coeff_grad = np.array([before[("lambda", "t1", row)] for row in range(len(tp.members))])
        scale = 1.0 - self.ALPHA
        self._assert_steps(steps, [("coeffs[t1]", scale * coeff_grad), ("anchors[t1]", scale * after[("anchors", "t1")])])

    def test_rel_dim_pass(self, steps):
        data, params, hp = self._instance(6)
        hp = replace(hp, beta_reg=0.0)  # no prox: the recorder leaves every anchor in place
        state = optimize._AdaState(params)
        plans = optimize._group_plans(params, state)
        optimize._rel_dim_pass(params, state, hp, variant_flags(hp.variant), TrainReport(), plans)
        # A group's coefficient step is test_block_step's; the anchor, member
        # and relation steps are taken at the projected coefficients, which
        # the pass leaves behind.
        steps[:] = [step for step in steps if not step[0].startswith("coeffs[")]
        scale = 1.0 - self.ALPHA
        expected = []
        for side, groups in params.rels.sides():
            for key in sorted(groups):
                grads = rel_group_gradients(params.model, params.rels, side, key, groups[key])[1]
                expected.append((f"anchors[{side}{key}]", scale * grads[("q", side, key)]))
                expected += [(f"entity[{addr[1]}]", scale * g) for addr, g in grads.items() if addr[0] == "entity"]
                expected += [(f"rel[{addr[1]}]", scale * g) for addr, g in grads.items() if addr[0] == "rel"]
        assert sum(len(groups) for _, groups in params.rels.sides()) > 1
        self._assert_steps(steps, expected)


class TestRelGroupPass:
    """The planned relation-group pass against the per-group loop it
    replaced (reference_impls.ref_rel_dim_pass), bit for bit."""

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_matches_per_group_loop(self, beta):
        self_loops = 0
        for seed in range(10):
            ww, ew, store, params, hp = random_instance(seed)
            hp = replace(hp, alpha_mix=0.3, beta_reg=beta)
            ref_params = clone_params(params)
            state, ref_state = optimize._AdaState(params), optimize._AdaState(ref_params)
            plans = optimize._group_plans(params, state)
            self_loops += sum(plan.end_pos < len(plan.rows) - 1 for _, plan, _, _ in plans)
            for _ in range(2):  # the second pass starts from non-zero accumulators
                optimize._rel_dim_pass(params, state, hp, variant_flags("full"), TrainReport(), plans)
                ref_rel_dim_pass(ref_params, ref_state, hp, beta > 0.0, prox_nuclear)
            for (name, got), (_, want) in zip(collect_param_arrays(params), collect_param_arrays(ref_params)):
                assert np.array_equal(got, want), name
            assert np.array_equal(state.entity, ref_state.entity) and np.array_equal(state.rel, ref_state.rel)
            for addr, accs in state.blocks.items():
                for got, want in zip(accs, ref_state.blocks[addr]):
                    assert np.array_equal(got, want), addr
        assert self_loops > 0  # some group's endpoint is one of its members


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
        params.types.per_type["hollow"] = SubspaceBlock(anchors, np.zeros(0, dtype=np.int64), np.zeros((0, n + 1)))
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
