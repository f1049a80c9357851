"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerances and runtime budget and prints one
pass line (visible with -s; the verbose test name doubles as the report
line).  Scales are desk-sized: the properties, not headline numbers, are
what is asserted.
"""

import json
import time
from dataclasses import replace

import numpy as np

import reference_impls as ref
from conftest import random_instance
from typespace import cli, optimize, synth
from typespace.evalharness import (
    EmbeddingView,
    RankingProblem,
    average_precision,
    eval_induction,
    eval_link_prediction,
    eval_ranking,
    precision_at_k,
    reciprocal_rank,
    spearman,
)
from typespace.evalharness import _link_ranks  # the per-query ranks behind eval_link_prediction
from typespace.ingest import TypeSystem
from typespace.objective import block_resid, comb_penalty_terms, rel_dist_loss, text_loss
from typespace.optimize import (
    TrainConfig,
    TrainData,
    TrainReport,
    project_to_simplex,
    prox_nuclear,
    train,
)
from typespace.params import (
    Hyperparams,
    anchor_span_matrix,
    init_parameters,
    load_model,
    save_model,
    variant_flags,
)
from typespace.subspace import effective_rank, project_to_subspace, type_subspace

from test_params import assert_params_equal


def report(line):
    print(line, flush=True)


class Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.budget, f"runtime {elapsed:.1f}s exceeded the {self.budget}s budget"
        return elapsed


# Arrays a pass's loss depends on that the pass does not step, so their
# partials are not checked.  The type pass leaves the entity points fixed
# (the FOUND on _type_pass in CHANGES.md, ROADMAP item 1); the fix of item 1
# has to remove these entries.
KNOWN_UNSTEPPED = {"type": {"entity"}, "type_comb": {"entity"}}


def _pass_runs(ww, ew, store, params, hp, seed):
    """(name, run, loss, keys, check) per pass run of acceptance 1: run()
    runs the trainer's pass, loss() is that pass's loss times alpha or
    1 - alpha, keys name the arrays the loss depends on (as
    collect_param_arrays does), and check(recorder) asserts the order of the
    recorded steps and returns a count for the caller to require non-zero
    over all seeds."""
    m, types, rels = params.model, params.types, params.rels
    data = TrainData(m.n_entities, m.n_words, ww, ew, synth.empty_type_system(), store)
    state = optimize._AdaState(params)
    alpha, rest = hp.alpha_mix, 1.0 - hp.alpha_mix

    def order(size):  # the shuffle of the text and triple passes
        return np.random.default_rng(seed).permutation(size)

    text_batches = []

    def text():
        entries = optimize._prepare_text_entries(data, state)
        text_batches.append(optimize._text_pass(entries, order(len(entries[0])), state, hp, alpha))

    def type_loss(comb):
        total = 0.0
        for tp in types.per_type.values():
            total += ref.block_loss(block_resid(tp.coeffs, tp.anchors, m.entity_points[tp.members]))
            total += comb_penalty_terms(tp.anchors)[0] if comb else 0.0
        return rest * total

    def group_loss():
        total = 0.0
        for groups in (rels.rhs_groups, rels.lhs_groups):
            points = [None] * len(groups)
            for cls in groups.size_classes:
                for b, block_points in zip(cls.blocks.tolist(), groups.class_points(cls, m.entity_points, rels.vectors)):
                    points[b] = block_points
            for gp, block_points in zip(groups.values(), points):
                total += ref.block_loss(block_resid(gp.coeffs, gp.anchors, block_points))
        return rest * total

    def type_run(variant):
        return lambda: optimize._type_pass(state, hp, variant_flags(variant), TrainReport())

    def type_steps(rec):
        return _check_block_steps(rec, [types.per_type], [[[]] * len(types.per_type)])

    def group_steps(rec):
        # A group's coefficient step, then one step on its points' distinct
        # entities (members, then the endpoint unless it is one) and its
        # relation.
        further = []
        for groups in (rels.rhs_groups, rels.lhs_groups):
            further.append([])
            for gp, (endpoint, k) in zip(groups.values(), groups.endpoints.tolist()):
                entities = list(dict.fromkeys(gp.members.tolist() + [endpoint]))
                further[-1].append([[("entity", e) for e in entities] + [("rel", k)]])
        return _check_block_steps(rec, [rels.rhs_groups, rels.lhs_groups], further)

    type_keys = {str((kind, t)) for t in types.per_type for kind in ("anchors", "lambda")} | {"entity"}
    group_keys = {str((kind, groups.kind, key)) for groups in (rels.rhs_groups, rels.lhs_groups) for key in groups
                  for kind in ("q", "mu")}
    return [
        ("text", text, lambda: alpha * (text_loss(ww, m) + text_loss(ew, m)),
         {"entity", "word", "ctx", "word_bias", "ctx_bias", "entity_bias"}, lambda rec: _check_text_steps(rec, ww, ew, text_batches[-1])),
        ("type", type_run("full"), lambda: type_loss(False), type_keys, type_steps),
        ("type_comb", type_run("type_comb"), lambda: type_loss(True), type_keys, type_steps),
        ("rel_dist", lambda: optimize._rel_dist_pass(state, data, hp, np.random.default_rng(seed)),
         lambda: rest * rel_dist_loss(store, m, rels), {"entity", "rel"},
         lambda rec: _check_rel_dist_steps(rec, store.triples, order(len(store)))),
        ("rel_group", lambda: optimize._rel_dim_pass(state, hp, variant_flags("full"), TrainReport()),
         group_loss, group_keys | {"entity", "rel"}, group_steps),
    ]


def _check_text_steps(rec, ww, ew, n_batches):
    """One step per batch: on the row vectors then the column vectors of
    the batch's entries, the k-th row vector and the k-th column vector
    being one entry's, each stepped with its bias; an entry's table is the
    one its (row, column) names fit, and every entry is stepped exactly
    once.  Returns 1 when some batch holds several entries."""
    tables = {("word", "ctx"): ww, ("entity", "word"): ew}
    assert len(rec.steps) == n_batches
    seen = []
    for targets, _ in rec.steps:
        vectors = targets[::2]
        assert targets[1::2] == [(f"{key}_bias", r) for key, r in vectors]
        k = len(vectors) // 2
        seen += [(tables[ku, kv].kind, i, j) for (ku, i), (kv, j) in zip(vectors[:k], vectors[k:])]
    assert sorted(seen) == sorted((t.kind, int(r), int(c)) for t in (ww, ew) for r, c in zip(t.rows, t.cols))
    return int(n_batches < len(seen))


def _check_rel_dist_steps(rec, triples, order):
    """One step per batch of the triples in pass order
    (ref.ref_level_batches, self-loops batched apart), triple by triple on
    entity f, entity e and relation k; a self-loop steps its entity once,
    with a zero gradient, then its relation.  Returns the number of
    self-loops."""
    triples = [triples[idx] for idx in order]
    writes = [[("entity", f), ("entity", e), ("rel", k)] for e, k, f in triples]
    batches = ref.ref_level_batches(writes, [(e == f,) for e, _, f in triples])
    assert len(rec.steps) == len(batches)
    loops = 0
    for batch, (targets, g) in zip(batches, rec.steps):
        expected = []
        for e, k, f in (triples[p] for p in batch):
            expected += [("entity", f), ("entity", e), ("rel", k)] if e != f else [("entity", e), ("rel", k)]
        assert targets == expected
        if triples[batch[0]][0] == triples[batch[0]][2]:
            assert not g[::2].any()
            loops += len(batch)
    return loops


def _check_block_steps(rec, stores, further):
    """Per batch of the blocks in pass order (ref.ref_level_batches over
    the rows each block's further steps write, keyed by store, coefficient
    rows and whether a group's endpoint is a member), the batch's
    coefficient step, row by row, then its blocks' further steps as one
    (further[store][block], a list of (key, row) lists); then per store the
    anchor steps, each on the blocks of one size class: the classes
    ascending, a class's blocks in key order, every block in exactly one
    step.  Returns the number of batches of several blocks."""
    key_of = {id(arr): key for key, arr in rec.arrays}
    blocks, keys = [], []
    for s, (store, more) in enumerate(zip(stores, further, strict=True)):
        ends = store.endpoints[:, 0].tolist() if store.kind != "type" else [None] * len(store)
        for block, steps, end in zip(store.values(), more, ends, strict=True):
            blocks.append((block, steps))
            keys.append((s, len(block.coeffs), end in block.members.tolist()))
    expected, stacked = [], 0
    for batch in ref.ref_level_batches([sum(steps, []) for _, steps in blocks], keys):
        coeffs = [blocks[p][0].coeffs for p in batch]
        expected.append([(key_of[id(c)], row) for c in coeffs for row in range(len(c))])
        stacked += len(batch) > 1
        if blocks[batch[0]][1]:
            expected.append(sum((blocks[p][1][0] for p in batch), []))
    got = [targets for targets, _ in rec.steps]
    assert got[: len(expected)] == expected
    rest = got[len(expected) :]
    for store in stores:
        store_blocks = list(store.values())
        for cls in store.size_classes:
            want = [(key_of[id(store_blocks[b].anchors)], None) for b in cls.blocks.tolist()]
            while want:
                step = rest.pop(0)
                assert step and step == want[: len(step)]
                want = want[len(step) :]
    assert not rest
    return stacked


def test_criterion_01_gradient_suite(monkeypatch):
    # The trainer's own passes, run with a recording adagrad_step that moves
    # nothing, against central differences of each pass's loss.
    sw = Stopwatch(30.0)
    dims = [2, 3, 4, 5, 6, 8]
    counts = {}
    for seed in range(50):
        n = dims[seed % len(dims)]
        ww, ew, store, params, hp = random_instance(seed, n=n, n_entities=5, n_words=4)
        hp = replace(hp, alpha_mix=0.3, beta_reg=0.0)
        for name, run, loss, keys, check in _pass_runs(ww, ew, store, params, hp, seed):
            rec = ref.StepRecorder(params)
            monkeypatch.setattr(optimize, "adagrad_step", rec)
            run()
            assert set(rec.grads) == keys - KNOWN_UNSTEPPED.get(name, set()), name
            worst = ref.finite_difference_check(loss, params, rec.grads, h=1e-5)
            assert worst < 1e-4, f"pass {name}, seed {seed}: rel err {worst:.2e}"
            counts[name] = counts.get(name, 0) + check(rec)
    # Some text batch held several entries, some triple was a self-loop,
    # and some batch held several relation groups.
    assert counts["text"] and counts["rel_dist"] and counts["rel_group"]
    elapsed = sw.check()
    report(f"ACCEPTANCE 1 gradient suite: PASS ({elapsed:.1f}s)")


def test_criterion_02_prox_and_projection_oracles():
    sw = Stopwatch(10.0)
    # closed-form diagonal cases, exact
    assert np.allclose(prox_nuclear(np.diag([3.0, 1.0]), 1.0)[0], np.diag([2.0, 0.0]), atol=1e-12)
    m = np.random.default_rng(0).normal(size=(4, 4))
    assert np.array_equal(prox_nuclear(m, 0.0)[0], m)
    # subgradient optimality + perturbation certification on 100 matrices
    rng = np.random.default_rng(42)
    for _ in range(100):
        mat = rng.normal(size=(5, 5))
        tau = 0.7
        x = prox_nuclear(mat, tau)[0]
        assert ref.prox_subgradient_residual(x, mat, tau) < 1e-8
        fx = ref.prox_objective(x, mat, tau)
        for _ in range(1000):
            d = rng.normal(size=(5, 5))
            d *= rng.uniform(0.0, 0.1) / np.linalg.norm(d)
            assert fx <= ref.prox_objective(x + d, mat, tau) + 1e-12
    # simplex projection vs grid-refinement oracle on 3-D inputs
    for _ in range(300):
        v = rng.normal(scale=2.5, size=3)
        assert np.max(np.abs(project_to_simplex(v) - ref.simplex_bisection_oracle(v))) <= 1e-6
    for _ in range(5):
        v = rng.normal(scale=1.5, size=3)
        p = project_to_simplex(v)
        _, grid_val = ref.simplex_grid_search(v, steps=60)
        assert float(np.sum((p - v) ** 2)) <= grid_val + 1e-12
    # idempotence on 1000 random vectors
    for _ in range(1000):
        v = rng.normal(scale=3.0, size=int(rng.integers(2, 12)))
        p = project_to_simplex(v)
        assert np.max(np.abs(project_to_simplex(p) - p)) <= 1e-12
    elapsed = sw.check()
    report(f"ACCEPTANCE 2 prox/projection oracles: PASS ({elapsed:.1f}s)")


def test_criterion_03_metric_oracles():
    sw = Stopwatch(10.0)
    rng = np.random.default_rng(7)
    for trial in range(1000):
        n = int(rng.integers(2, 12))
        # spearman on floats and tie-heavy integers
        if trial % 2 == 0:
            a = rng.normal(size=n).tolist()
            b = rng.normal(size=n).tolist()
        else:
            a = rng.integers(0, 4, size=n).astype(float).tolist()
            b = rng.integers(0, 4, size=n).astype(float).tolist()
        assert abs(spearman(a, b) - ref.ref_spearman(a, b)) <= 1e-12

        # ranked-relevance metrics over a small batch of problems
        aps, rrs, p5s = [], [], []
        for _ in range(int(rng.integers(1, 4))):
            rel = (rng.random(int(rng.integers(5, 12))) < 0.3).tolist()
            assert abs(average_precision(rel) - ref.ref_average_precision(rel)) <= 1e-12
            assert abs(reciprocal_rank(rel) - ref.ref_reciprocal_rank(rel)) <= 1e-12
            assert abs(precision_at_k(rel, 5) - ref.ref_precision_at_k(rel, 5)) <= 1e-12
            aps.append(average_precision(rel))
            rrs.append(reciprocal_rank(rel))
            p5s.append(precision_at_k(rel, 5))
        assert abs(float(np.mean(aps)) - sum(aps) / len(aps)) <= 1e-12  # MAP aggregation
        assert abs(float(np.mean(rrs)) - sum(rrs) / len(rrs)) <= 1e-12  # MRR aggregation

        # link-prediction ranks, mean rank and hits@10 of eval_link_prediction
        # on a random view whose grid points and relation vectors force ties
        m = int(rng.integers(3, 12))
        points = rng.integers(-1, 2, size=(m, 2)).astype(np.float64)
        rel_vectors = rng.integers(-1, 2, size=(2, 2)).astype(np.float64)
        view = EmbeddingView(tuple(f"e{i}" for i in range(m)), points, ("r0", "r1"), rel_vectors)
        heads, rels, tails = rng.integers(m, size=3), rng.integers(2, size=3), rng.integers(m, size=3)
        ranks = [r for pair in ref.ref_link_ranks(points, rel_vectors, zip(heads, rels, tails)) for r in pair]
        assert _link_ranks(view, heads, rels, tails).ravel().tolist() == ranks
        lp = eval_link_prediction([(f"e{h}", f"r{k}", f"e{t}") for h, k, t in zip(heads, rels, tails)], view)
        assert abs(lp["mean_rank"] - ref.ref_mean_rank(ranks)) <= 1e-12
        assert abs(lp["hits_at_10"] - ref.ref_hits_at_k(ranks, 10)) <= 1e-12

        # classification accuracy
        pred = (rng.random(n) < 0.5).tolist()
        actual = (rng.random(n) < 0.5).tolist()
        acc = sum(1.0 for p, y in zip(pred, actual) if p == y) / n
        assert abs(acc - ref.ref_accuracy(pred, actual)) <= 1e-12
    elapsed = sw.check()
    report(f"ACCEPTANCE 3 metric oracles: PASS ({elapsed:.1f}s)")


def _fit_subspace_fixture(data, points, beta, variant="no_rel", epochs=300, lr=0.2, seed=5):
    hp = Hyperparams(
        n=10, alpha_mix=0.0, beta_reg=beta, epochs=epochs, learn_rate=lr, variant=variant, seed=seed
    )
    params = init_parameters(data.n_entities, data.n_words, data.type_system, data.triples, hp)
    params.model.entity_points[:] = points
    trained, report_ = train(data, TrainConfig(hp=hp, shuffle_seed=seed), params)
    return trained, hp, report_


def test_criterion_04_rank_selection():
    sw = Stopwatch(120.0)
    data, points = synth.subspace_fixture(n_entities=100, ambient=10, intrinsic=3, noise=0.01, seed=11)

    # Tune beta on an 80/20 split: the held-out projection residual must
    # stay within 10% of the held-out spread; the most regularized adequate
    # beta wins (parsimony rule, no reference to the true dimension).
    rng = np.random.default_rng(99)
    perm = rng.permutation(data.n_entities)
    train_members = tuple(sorted(int(i) for i in perm[:80]))
    ts80 = TypeSystem(("thing",), {"thing": train_members}, {"thing": frozenset({"thing"})})
    data80 = TrainData(data.n_entities, 1, None, None, ts80, data.triples)
    held = points[perm[80:]]
    spread = float(np.sqrt(np.mean(np.sum((held - held.mean(axis=0)) ** 2, axis=1))))

    adequate = []
    for beta in (0.5, 1.0, 2.0, 4.0, 8.0):
        trained, hp, _ = _fit_subspace_fixture(data80, points, beta)
        summary = type_subspace(trained.types, "thing", hp.rank_eps)
        resid = float(
            np.sqrt(np.mean([np.sum((p - project_to_subspace(p, summary)) ** 2) for p in held]))
        )
        if resid <= 0.10 * spread:
            adequate.append(beta)
    assert adequate, "no beta in the grid fits the held-out cloud"
    best_beta = max(adequate)

    trained, hp, _ = _fit_subspace_fixture(data, points, best_beta)
    rank = effective_rank(anchor_span_matrix(trained.types["thing"].anchors), hp.rank_eps)
    assert rank in (3, 4), f"tuned beta {best_beta} selected rank {rank}"

    # Without the nuclear norm the dimension is not reduced.
    trained_nn, hp_nn, rep_nn = _fit_subspace_fixture(data, points, 300.0, variant="no_nn", epochs=30)
    rank_nn = effective_rank(anchor_span_matrix(trained_nn.types["thing"].anchors), hp_nn.rank_eps)
    assert rank_nn >= 6
    assert rep_nn.prox_calls == 0
    trained_b0, hp_b0, _ = _fit_subspace_fixture(data, points, 0.0)
    rank_b0 = effective_rank(anchor_span_matrix(trained_b0.types["thing"].anchors), hp_b0.rank_eps)
    assert rank_b0 >= 6
    elapsed = sw.check()
    report(
        f"ACCEPTANCE 4 rank selection: PASS (beta={best_beta}, rank={rank}, "
        f"no_nn rank={rank_nn}, beta=0 rank={rank_b0}, {elapsed:.1f}s)"
    )


def test_criterion_05_direction_recovery():
    sw = Stopwatch(120.0)
    data, entity_ids, values = synth.attribute_corpus(n_entities=100, seed=3)
    hp = Hyperparams(n=8, alpha_mix=1.0, beta_reg=0.0, epochs=30, learn_rate=0.05, variant="text", seed=5)
    params, _ = train(data, TrainConfig(hp=hp, shuffle_seed=5))
    rng = np.random.default_rng(17)
    order = list(entity_ids)
    rng.shuffle(order)
    problem = RankingProblem(
        type_id="thing",
        attribute="hidden",
        values=values,
        train=tuple(order[:60]),
        valid=tuple(order[60:80]),
        test=tuple(order[80:]),
    )
    view = EmbeddingView(entity_ids=tuple(entity_ids), points=params.model.entity_points)
    results = eval_ranking([problem], view)
    rho = results["fisher_rho"]
    assert rho >= 0.9, f"held-out Spearman {rho:.3f} below 0.9"
    elapsed = sw.check()
    report(f"ACCEPTANCE 5 direction recovery: PASS (rho={rho:.3f}, {elapsed:.1f}s)")


def test_criterion_06_induction_recovery():
    sw = Stopwatch(60.0)
    entity_ids, points, ts, problems = synth.clustered_embedding(seed=23)
    view = EmbeddingView(entity_ids=entity_ids, points=points)
    results = eval_induction(problems, view, ts)
    assert results["map"] >= 0.9, f"MAP {results['map']:.3f} below 0.9"

    # Per-problem AP must exactly match a brute-force oracle.
    index = {e: i for i, e in enumerate(entity_ids)}
    for prob, row in zip(problems, results["per_problem"]):
        train_idx = [index[e] for e in prob.train]
        excluded = {index[e] for e in list(prob.train) + list(prob.valid)}
        candidates = [i for i in ts.instances["thing"] if i not in excluded]
        center = points[train_idx].mean(axis=0)
        scored = sorted(
            candidates, key=lambda i: (float(np.linalg.norm(points[i] - center)), i)
        )
        test_set = {index[e] for e in prob.test}
        relevance = [i in test_set for i in scored]
        assert row["ap"] == ref.ref_average_precision(relevance)
    elapsed = sw.check()
    report(f"ACCEPTANCE 6 induction recovery: PASS (MAP={results['map']:.3f}, {elapsed:.1f}s)")


def test_criterion_07_translation_consistency():
    sw = Stopwatch(60.0)
    data = synth.chain_graph(20)
    hp = Hyperparams(n=10, alpha_mix=0.0, beta_reg=0.0, epochs=20, learn_rate=0.05, variant="rel_dist", seed=3)
    init = init_parameters(data.n_entities, data.n_words, data.type_system, data.triples, hp)
    initial_loss = rel_dist_loss(data.triples, init.model, init.rels)
    params, rep = train(data, TrainConfig(hp=hp, shuffle_seed=3), init)
    final_loss = rep.losses[-1].j_rel_dist
    assert final_loss < 0.10 * initial_loss, f"loss only fell to {final_loss / initial_loss:.1%}"

    ids = tuple(f"e{i:02d}" for i in range(20))
    view = EmbeddingView(
        entity_ids=ids,
        points=params.model.entity_points,
        rel_ids=data.triples.relation_ids,
        rel_vectors=params.rels.vectors,
    )
    triples = [(ids[e], data.triples.relation_ids[k], ids[f]) for e, k, f in data.triples.triples]
    lp = eval_link_prediction(triples, view)
    assert lp["mean_rank"] <= 2.0, f"mean rank {lp['mean_rank']:.2f}"
    elapsed = sw.check()
    report(
        f"ACCEPTANCE 7 translation consistency: PASS "
        f"(ratio={final_loss / initial_loss:.4f}, mean_rank={lp['mean_rank']:.2f}, {elapsed:.1f}s)"
    )


def test_criterion_08_determinism_and_round_trip(micro_dir, tmp_path):
    sw = Stopwatch(60.0)
    # Byte-identical deterministic CLI runs.
    blobs = []
    for name in ("d1.bin", "d2.bin"):
        out = tmp_path / name
        code = cli.main(
            [
                "train",
                "--corpus", micro_dir["corpus"],
                "--instances", micro_dir["instances"],
                "--subclass", micro_dir["subclass"],
                "--triples", micro_dir["triples"],
                "--variant", "full",
                "--epochs", "3",
                "--dim", "6",
                "--beta", "1.0",
                "--min-count", "3",
                "--min-mentions", "3",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1], "deterministic runs differ"

    # Lossless round-trip on every bundled fixture.
    fixtures = []
    data_attr, _, _ = synth.attribute_corpus(n_entities=40, seed=3)
    hp = Hyperparams(n=5, alpha_mix=1.0, epochs=2, variant="text", seed=1)
    fixtures.append((train(data_attr, TrainConfig(hp=hp, shuffle_seed=1))[0], hp, 40, 21, ()))
    chain = synth.chain_graph(10)
    hp2 = Hyperparams(n=4, alpha_mix=0.0, epochs=2, variant="rel_dist", seed=2)
    fixtures.append((train(chain, TrainConfig(hp=hp2, shuffle_seed=2))[0], hp2, 10, 1, chain.triples.relation_ids))
    sub, pts = synth.subspace_fixture(n_entities=30, seed=4)
    hp3 = Hyperparams(n=10, alpha_mix=0.0, beta_reg=2.0, epochs=2, learn_rate=0.2, variant="no_rel", seed=3)
    init = init_parameters(sub.n_entities, 1, sub.type_system, sub.triples, hp3)
    init.model.entity_points[:] = pts
    fixtures.append((train(sub, TrainConfig(hp=hp3, shuffle_seed=3), init)[0], hp3, 30, 1, ()))
    for i, (params, hp_i, n_e, n_w, rel_ids) in enumerate(fixtures):
        path = tmp_path / f"fix{i}.bin"
        save_model(
            path, params.model, params.types, params.rels, hp_i,
            entity_ids=[f"e{j}" for j in range(n_e)],
            word_ids=[f"w{j}" for j in range(n_w)],
            relation_ids=rel_ids,
        )
        loaded = load_model(path)
        assert_params_equal(loaded.params, params)
        assert loaded.hp == hp_i
    elapsed = sw.check()
    report(f"ACCEPTANCE 8 determinism and round-trip: PASS ({elapsed:.1f}s)")


def test_criterion_09_end_to_end_smoke(micro_dir, tmp_path, capsys):
    sw = Stopwatch(60.0)
    model = tmp_path / "smoke.bin"
    code = cli.main(
        [
            "train",
            "--corpus", micro_dir["corpus"],
            "--instances", micro_dir["instances"],
            "--subclass", micro_dir["subclass"],
            "--triples", micro_dir["triples"],
            "--variant", "full",
            "--epochs", "20",
            "--dim", "10",
            "--alpha", "0.5",
            "--beta", "1.0",
            "--min-count", "3",
            "--min-mentions", "3",
            "--seed", "7",
            "--out", str(model),
        ]
    )
    assert code == 0

    expected_keys = {
        "ranking": ["fisher_rho"],
        "induction": ["map", "p_at_5", "mrr"],
        "analogy": ["accuracy"],
        "link_prediction": ["mean_rank", "hits_at_10"],
        "triple_classification": ["accuracy"],
    }
    problem_files = {
        "ranking": micro_dir["ranking"],
        "induction": micro_dir["induction"],
        "analogy": micro_dir["analogy"],
        "link_prediction": micro_dir["lp_test"],
        "triple_classification": micro_dir["tc"],
    }
    metrics = {}
    for task, keys in expected_keys.items():
        results_path = tmp_path / f"{task}.json"
        argv = ["eval", task, "--model", str(model), "--problems", problem_files[task], "--results", str(results_path)]
        if task in ("induction", "analogy"):
            argv += ["--instances", micro_dir["instances"], "--subclass", micro_dir["subclass"]]
        assert cli.main(argv) == 0, task
        payload = json.loads(results_path.read_text())
        for key in keys:
            assert key in payload, f"{task} results missing {key}"
            metrics[f"{task}.{key}"] = payload[key]

    assert cli.main(["inspect", "--model", str(model)]) == 0
    out = capsys.readouterr().out
    inspect_lines = [line for line in out.strip().split("\n") if "\t" in line]
    assert inspect_lines[0].startswith("type_id")
    assert len(inspect_lines) == 6  # header + 5 types
    elapsed = sw.check()
    report(f"ACCEPTANCE 9 end-to-end smoke: PASS ({elapsed:.1f}s, {len(metrics)} metric keys)")
