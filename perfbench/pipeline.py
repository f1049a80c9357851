"""One pass of the typespace pipeline over generated inputs, plus the
correctness checks on its outputs.

The stages call the library's public functions in the order `cli.cmd_train`
and `cli.cmd_eval` call them: ingest -> train -> save -> load -> each eval
task (problem loading included, as `typespace eval <task>` does).  Every
stage runs once per pass, inside a tracer span, and is timed on its own;
the five eval tasks are timed as one stage, each in its own span.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from typespace import evalharness, ingest, objective, optimize, params, subspace
from typespace.evalharness import EmbeddingView
from typespace.optimize import TrainConfig, TrainData
from typespace.params import Hyperparams

from hostspeed import HostClock
from inputs import Inputs

EVAL_TASKS = ("ranking", "induction", "analogy", "link_prediction", "triple_classification")


@dataclass
class PassResult:
    """What one pipeline pass measured and produced (no large arrays)."""

    samples: dict[str, float]  # per stage: wall seconds of one call
    refs: dict[str, float]  # per stage: reference kernel seconds around it
    final_loss: float
    counts: dict[str, float]  # empty unless the pass was checked
    eval_values: dict[str, float]
    checks: dict[str, bool] = field(default_factory=dict)


def _ingest(inp: Inputs, tracer):
    f, cfg = inp.files, inp.ingest
    with tracer.span("ingest.load_corpus"):
        docs = ingest.load_corpus(f["corpus"])
    with tracer.span("ingest.build_vocab"):
        vocab, catalog = ingest.build_vocab_and_catalog(docs, cfg["min_count"], cfg["min_mentions"])
    with tracer.span("ingest.count_word_word"):
        word_word = ingest.count_word_word(docs, vocab, cfg["window"])
    with tracer.span("ingest.count_entity_word"):
        entity_word = ingest.count_entity_word(docs, vocab, catalog, cfg["window"])
    with tracer.span("ingest.load_kb"):
        ts = ingest.load_type_system(f["instances"], f["subclass"], catalog)
        store = ingest.load_triples(f["triples"], catalog)
    data = TrainData.from_ingest(vocab, catalog, word_word, entity_word, ts, store)
    tokens = sum(len(s) for d in docs for s in d.sentences)
    return data, vocab, catalog, store, tokens


def _start_params(inp: Inputs, data: TrainData, catalog, store, hp):
    """The planted starting point for the eval workload, None otherwise
    (train then initializes from hp.seed as `typespace train` does)."""
    if "planted" not in inp.files:
        return None
    start = optimize.init_parameters(data.n_entities, data.n_words, data.type_system, data.triples, hp)
    with np.load(inp.files["planted"]) as planted:
        row = {e: i for i, e in enumerate(planted["entity_ids"].tolist())}
        start.model.entity_points[:] = planted["entity_points"][[row[e] for e in catalog.ids]]
        rel_row = {r: i for i, r in enumerate(planted["relation_ids"].tolist())}
        start.rels.vectors[:] = planted["relation_vectors"][[rel_row[r] for r in store.relation_ids]]
    return start


def _type_system_for_eval(inp: Inputs, loaded):
    catalog = ingest.EntityCatalog(tuple(loaded.entity_ids), tuple(0 for _ in loaded.entity_ids), 0)
    return ingest.load_type_system(inp.files["instances"], inp.files["subclass"], catalog)


def _eval_task(task, inp: Inputs, loaded, view):
    """Mirror of cli.cmd_eval for one task, minus printing and the results
    file."""
    path = inp.files[task]
    if task == "ranking":
        return evalharness.eval_ranking(evalharness.load_ranking_problems(path), view)
    if task == "induction":
        ts = _type_system_for_eval(inp, loaded)
        return evalharness.eval_induction(evalharness.load_induction_problems(path), view, ts)
    if task == "analogy":
        ts = _type_system_for_eval(inp, loaded)
        per = [evalharness.eval_analogy(p, view, ts) for p in evalharness.load_analogy_problems(path)]
        return {
            "task": "analogy",
            "accuracy": float(np.mean([r["accuracy"] for r in per])) if per else 0.0,
            "n_evaluated": int(sum(r["n_evaluated"] for r in per)),
            "skipped": int(sum(r["skipped"] for r in per)),
        }
    if task == "link_prediction":
        return evalharness.eval_link_prediction(ingest._read_tsv(path, 3), view)
    rows = ingest._read_tsv(path, 5)
    valid = [(h, r, t, int(label)) for h, r, t, label, split in rows if split == "valid"]
    test = [(h, r, t, int(label)) for h, r, t, label, split in rows if split == "test"]
    return evalharness.eval_triple_classification(valid, test, view)


def _eval_counts(task, res, inp: Inputs, view) -> tuple[int, int]:
    """(queries, skipped) for one task's results."""
    if task == "ranking":
        return sum(p["n_test"] for p in res["per_problem"]), res["skipped"]
    if task == "induction":
        problems = evalharness.load_induction_problems(inp.files[task])
        names = [e for p in problems for e in p.train + p.valid + p.test]
        return len(problems), sum(1 for e in names if e not in view.index)
    if task == "analogy":
        return res["n_evaluated"] + res["skipped"], res["skipped"]
    if task == "link_prediction":
        return res["n_ranks"] // 2 + res["skipped"], res["skipped"]
    return res["n_test"], res["skipped"]


EVAL_VALUES = (
    ("ranking_rho", "ranking", "fisher_rho"),
    ("induction_map", "induction", "map"),
    ("analogy_accuracy", "analogy", "accuracy"),
    ("lp_hits_at_10", "link_prediction", "hits_at_10"),
    ("lp_mean_rank", "link_prediction", "mean_rank"),
    ("tc_accuracy", "triple_classification", "accuracy"),
)


def expected_prox_calls(data: TrainData, hp: Hyperparams) -> int:
    """SVT calls the trainer must make, counted from the inputs: one per
    non-empty type and one per relation group, per epoch."""
    flags = objective.variant_flags(hp.variant)
    per_epoch = 0
    if flags.type_active and flags.reg1 and hp.beta_reg > 0.0:
        per_epoch += sum(1 for members in data.type_system.instances.values() if members)
    if flags.rel_dim_active and flags.reg2 and hp.beta_reg > 0.0:
        per_epoch += len(data.triples.rhs) + len(data.triples.lhs)
    return per_epoch * hp.epochs


def simplex_rows_per_epoch(data: TrainData) -> int:
    """project_to_simplex calls per epoch, counted from the inputs: one per
    type member, and one per group member plus the group's translated
    endpoint."""
    rows = sum(len(members) for members in data.type_system.instances.values())
    for groups in (data.triples.rhs, data.triples.lhs):
        rows += sum(len(members) + 1 for members in groups.values())
    return rows


def _round_trip_equal(p, loaded, catalog, vocab, store, hp) -> bool:
    def same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def same_blocks(mine, theirs):
        return sorted(mine) == sorted(theirs) and all(
            same(x.anchors, theirs[k].anchors) and same(x.members, theirs[k].members) and same(x.coeffs, theirs[k].coeffs)
            for k, x in mine.items()
        )

    m, lm = p.model, loaded.model
    return bool(
        all(
            same(getattr(m, name), getattr(lm, name))
            for name in ("entity_points", "word_vecs", "ctx_vecs", "word_bias", "ctx_bias", "entity_bias")
        )
        and loaded.hp == hp
        and loaded.entity_ids == catalog.ids
        and loaded.word_ids == vocab.words
        and loaded.relation_ids == store.relation_ids
        and same(p.rels.vectors, loaded.rels.vectors)
        and same_blocks(p.types.per_type, loaded.types.per_type)
        and same_blocks(p.rels.rhs_groups, loaded.rels.rhs_groups)
        and same_blocks(p.rels.lhs_groups, loaded.rels.lhs_groups)
    )


def _dropped_instance_rows(inp: Inputs, catalog) -> int:
    rows = ingest._read_tsv(inp.files["instances"], 2)
    return sum(1 for e, _ in rows if e not in catalog.index)


def run_pass(
    inp: Inputs, tracer, clock: HostClock, model_dir: str, check: bool, want_init_loss: bool, detail: bool
) -> PassResult:
    """Run every stage once, each timed on its own by `clock`, then (when
    check is set) check the outputs and take the counts; checking is
    untimed.  The model is saved to a new file in model_dir (the caller
    removes it), so the save does not pay for truncating an old one.
    want_init_loss adds the check that training lowered the loss; detail
    adds the layer counts that cost real time to compute (the final rank
    of every relation group)."""
    hp = Hyperparams(**inp.hp)
    samples: dict[str, float] = {}
    refs: dict[str, float] = {}

    def timed(stage, fn):
        def call():
            with tracer.span(stage):
                return fn()

        out, samples[stage], refs[stage] = clock.measure(call)
        return out

    data, vocab, catalog, store, tokens = timed("ingest", lambda: _ingest(inp, tracer))

    def train():
        start = _start_params(inp, data, catalog, store, hp)
        return optimize.train(data, TrainConfig(hp=hp, shuffle_seed=hp.seed), start)

    trained, report = timed("train", train)
    model_path = os.path.join(model_dir, "model.bin")

    def save():
        params.save_model(
            model_path, trained.model, trained.types, trained.rels, hp,
            entity_ids=catalog.ids, word_ids=vocab.words, relation_ids=store.relation_ids,
        )

    def load():
        loaded = params.load_model(model_path)
        return loaded, EmbeddingView.from_loaded(loaded)

    def evaluate():
        results = {}
        for task in EVAL_TASKS:
            with tracer.span(f"eval_{task}"):
                results[task] = _eval_task(task, inp, loaded, view)
        return results

    timed("save", save)
    loaded, view = timed("load", load)
    results = timed("eval", evaluate)

    final_loss = report.losses[-1].total
    eval_values = {name: float(results[task][key]) for name, task, key in EVAL_VALUES}
    if not check:
        return PassResult(samples, refs, final_loss, {}, eval_values)
    counts = {
        "tokens": tokens,
        "text_entries": len(data.word_word) + len(data.entity_word),
        "dropped_rows": store.dropped + _dropped_instance_rows(inp, catalog),
        "prox_calls_report": report.prox_calls,
        "prox_calls_expected": expected_prox_calls(data, hp),
        "simplex_rows_per_epoch": simplex_rows_per_epoch(data),
        "epochs": hp.epochs,
        "param_mb": sum(a.nbytes for a in _arrays(trained)) / 2**20,
        "model_file_mb": os.path.getsize(model_path) / 2**20,
    }
    if detail:
        ranks = report.dim_trace[-1].values()
        counts["type_rank_mean"] = float(np.mean(list(ranks))) / hp.n if ranks else 0.0
        counts["group_rank_mean"] = _group_rank_mean(trained, hp)
    for task in EVAL_TASKS:
        q, sk = _eval_counts(task, results[task], inp, view)
        counts[f"{task}_queries"] = q
        counts[f"{task}_skipped"] = sk

    checks = {
        "round_trip_bit_exact": _round_trip_equal(trained, loaded, catalog, vocab, store, hp),
        "final_loss_finite": math.isfinite(final_loss),
        "prox_calls_match_inputs": report.prox_calls == counts["prox_calls_expected"],
        "zero_ingest_drops": counts["dropped_rows"] == 0,
        "zero_eval_skips": all(counts[f"{t}_skipped"] == 0 for t in EVAL_TASKS),
    }
    for name, floor in (inp.floors or {}).items():
        checks[f"floor_{name}>={floor}"] = eval_values[name] >= floor

    if want_init_loss:
        # Drop the trained and loaded models first so this check does not
        # raise the peak RSS the run reports.
        del trained, loaded, view, report
        begin = _start_params(inp, data, catalog, store, hp) or params.init_parameters(
            data.n_entities, data.n_words, data.type_system, data.triples, hp
        )
        init_loss = objective.total_objective(data.word_word, data.entity_word, store, begin, hp).total
        checks["final_loss_below_init"] = final_loss < init_loss
    clock.reset()
    return PassResult(samples, refs, final_loss, counts, eval_values, checks)


def _arrays(p):
    m = p.model
    yield from (m.entity_points, m.word_vecs, m.ctx_vecs, m.word_bias, m.ctx_bias, m.entity_bias, p.rels.vectors)
    for _, tp in p.types.items():
        yield from (tp.anchors, tp.members, tp.coeffs)
    for groups in (p.rels.rhs_groups, p.rels.lhs_groups):
        for g in groups.values():
            yield from (g.anchors, g.members, g.coeffs)


def _group_rank_mean(p, hp) -> float:
    ranks = [
        subspace.effective_rank(params.anchor_span_matrix(g.anchors), hp.rank_eps)
        for groups in (p.rels.rhs_groups, p.rels.lhs_groups)
        for g in groups.values()
    ]
    return float(np.mean(ranks)) / hp.n if ranks else 0.0

