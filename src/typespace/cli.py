"""Command-line front end: train | eval <task> | inspect | tune | export.

Flags may also come from a key=value config file (--config); explicit flags
win.  All randomized behavior flows from the --seed of train and tune:
re-running a command with identical flags reproduces its outputs byte for
byte, apart from the `wall_ms` times.

Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from typespace import evalharness, ingest, subspace
from typespace.evalharness import EmbeddingView
from typespace.optimize import TrainConfig, TrainData, TrainingDivergedError, train, tune
from typespace.params import Hyperparams, ModelFormatError, ModelIntegrityError, export_text, load_model, save_model

EVAL_TASKS = ("ranking", "induction", "analogy", "link_prediction", "triple_classification")


class UsageError(ValueError):
    """Bad flags or unusable inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_config(path) -> dict[str, str]:
    if not os.path.exists(path):
        raise UsageError(f"--config: no such file: {path}")
    out = {}
    for lineno, line in ingest.numbered_lines(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def boolean(raw: str) -> bool:
    """A config-file value for an on/off flag."""
    try:
        return _BOOLEANS[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


_FLAG_CASTERS = {
    "dim": int,
    "epochs": int,
    "window": int,
    "min_count": int,
    "min_mentions": int,
    "seed": int,
    "alpha": float,
    "beta": float,
    "lr": float,
    "rank_eps": float,
    "from_points": boolean,
}


def _merge_config(args):
    """Fill unset flags from the config file; explicit flags win.  Every
    flag's unset value is None, and its command resolves the default.  A key
    that names no flag of the command, or a value the flag rejects, is a
    usage error."""
    if not getattr(args, "config", None):
        return
    conf = _read_config(args.config)
    for key, raw in conf.items():
        if key in ("command", "config") or not hasattr(args, key):
            raise UsageError(f"{args.config}: key {key!r} names no flag of {args.command!r}")
        if getattr(args, key) is not None:
            continue
        cast = _FLAG_CASTERS.get(key, str)
        try:
            setattr(args, key, cast(raw))
        except ValueError:
            raise UsageError(f"{args.config}: {key}={raw!r} is not a valid {cast.__name__}") from None


def _require_file(path, flag):
    if path is None:
        raise UsageError(f"{flag} is required")
    if not os.path.exists(path):
        raise UsageError(f"{flag}: no such file: {path}")
    return path


def _require_writable(path, flag):
    """Check, before any work, that path, a file the command writes when it
    is done, is no directory and lies in a directory that exists."""
    if os.path.isdir(path):
        raise UsageError(f"{flag}: {path} is a directory")
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        raise UsageError(f"{flag}: no such directory: {parent}")


def _add_common(p):
    p.add_argument("--config", help="key=value config file; explicit flags win")


def _add_hyper(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--variant", default=None)
    p.add_argument("--rank-eps", dest="rank_eps", type=float, default=None)


def _add_data(p):
    p.add_argument("--corpus", default=None)
    p.add_argument("--instances", default=None)
    p.add_argument("--subclass", default=None)
    p.add_argument("--triples", default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--min-count", dest="min_count", type=int, default=None)
    p.add_argument("--min-mentions", dest="min_mentions", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="typespace")
    sub = parser.add_subparsers(dest="command")

    p_train = sub.add_parser("train", description="Ingest a corpus and train a model.")
    _add_common(p_train)
    _add_hyper(p_train)
    _add_data(p_train)
    p_train.add_argument("--out", default=None, help="model file to write")

    p_eval = sub.add_parser("eval", description="Evaluate a trained model on one task.")
    p_eval.add_argument("task")
    _add_common(p_eval)
    p_eval.add_argument("--model", default=None)
    p_eval.add_argument("--problems", default=None, help="problem file (JSON or TSV per task)")
    p_eval.add_argument("--instances", default=None)
    p_eval.add_argument("--subclass", default=None)
    p_eval.add_argument("--results", default=None, help="where to write the results JSON")

    p_inspect = sub.add_parser("inspect", description="Report per-type subspace dimensions.")
    _add_common(p_inspect)
    p_inspect.add_argument("--model", default=None)
    p_inspect.add_argument("--type", dest="type_filter", default=None)
    p_inspect.add_argument("--rank-eps", dest="rank_eps", type=float, default=None)
    p_inspect.add_argument(
        "--from-points",
        action="store_true",
        default=None,
        help="measure dimensions from the entity point cloud instead of the anchors",
    )

    p_tune = sub.add_parser("tune", description="Grid-search alpha/beta against a validation task.")
    _add_common(p_tune)
    _add_hyper(p_tune)
    _add_data(p_tune)
    p_tune.add_argument("--problems", default=None, help="ranking problems to validate against")
    p_tune.add_argument("--alphas", default=None, help="comma-separated mixing weights")
    p_tune.add_argument("--betas", default=None, help="comma-separated regularization strengths")
    p_tune.add_argument("--out", default=None, help="where to write the chosen hyperparameters")

    p_export = sub.add_parser("export", description="Export embeddings as 'id v1 ... vn' text lines.")
    _add_common(p_export)
    p_export.add_argument("--model", default=None)
    p_export.add_argument("--out", default=None)

    return parser


# Hyperparams field of each hyperparameter flag.
_HP_FIELDS = {
    "dim": "n", "alpha": "alpha_mix", "beta": "beta_reg", "epochs": "epochs",
    "lr": "learn_rate", "variant": "variant", "rank_eps": "rank_eps", "seed": "seed",
}


def _checked(make, *args, **kwargs):
    """make(*args, **kwargs), with the ValueError of a rejected value turned
    into a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _set_flags(args, fields: dict[str, str]) -> dict:
    """{parameter: value} of the set flags of fields ({flag: parameter})."""
    return {name: getattr(args, flag) for flag, name in fields.items() if getattr(args, flag) is not None}


def _hyperparams_from(args) -> Hyperparams:
    """Hyperparams from the flags that were set; Hyperparams supplies the
    defaults and checks the values."""
    return _checked(Hyperparams, **_set_flags(args, _HP_FIELDS))


def _ingest_all(args):
    corpus_path = _require_file(args.corpus, "--corpus")
    docs = ingest.load_corpus(corpus_path)
    counts = _set_flags(args, {"min_count": "min_count", "min_mentions": "min_doc_mentions"})
    vocab, catalog = _checked(ingest.build_vocab_and_catalog, docs, **counts)
    if not len(catalog):
        raise UsageError(f"{corpus_path}: no entity is mentioned in {catalog.min_doc_mentions} or more documents")
    window = _set_flags(args, {"window": "window"})
    word_word = _checked(ingest.count_word_word, docs, vocab, **window)
    entity_word = ingest.count_entity_word(docs, vocab, catalog, **window)
    if args.instances or args.subclass:
        _require_file(args.instances, "--instances")
        _require_file(args.subclass, "--subclass")
        ts = ingest.load_type_system(args.instances, args.subclass, catalog)
    else:
        ts = ingest.TypeSystem((), {}, {})
    if args.triples:
        _require_file(args.triples, "--triples")
        store = ingest.load_triples(args.triples, catalog)
    else:
        store = ingest.index_triples((), catalog)
    data = TrainData.from_ingest(vocab, catalog, word_word, entity_word, ts, store)
    return data, vocab, catalog, store


def cmd_train(args) -> int:
    if args.out is None:
        raise UsageError("--out is required")
    _require_writable(args.out, "--out")
    hp = _hyperparams_from(args)
    log_path = args.out + ".log.jsonl"
    data, vocab, catalog, store = _ingest_all(args)
    params, report = train(data, TrainConfig(hp=hp, shuffle_seed=hp.seed, log_path=log_path))
    save_model(
        args.out,
        params.model,
        params.types,
        params.rels,
        hp,
        entity_ids=catalog.ids,
        word_ids=vocab.words,
        relation_ids=store.relation_ids,
    )
    print(f"trained {hp.epochs} epochs (variant={hp.variant}); final total loss {report.losses[-1].total:.6g}")
    print(f"model written to {args.out}; epoch log at {log_path}")
    return 0


def _load_view(args):
    path = _require_file(args.model, "--model")
    loaded = load_model(path)
    return loaded, EmbeddingView.from_loaded(loaded)


def _type_system_for_eval(args, loaded):
    _require_file(args.instances, "--instances")
    _require_file(args.subclass, "--subclass")
    catalog = ingest.EntityCatalog(tuple(loaded.entity_ids), tuple(0 for _ in loaded.entity_ids), 0)
    return ingest.load_type_system(args.instances, args.subclass, catalog)


def _print_metrics(results: dict):
    skip = {"per_problem", "thresholds", "task"}
    width = max(len(k) for k in results if k not in skip)
    for key, val in results.items():
        if key in skip:
            continue
        if isinstance(val, float):
            print(f"{key:<{width}}  {val:.4f}")
        else:
            print(f"{key:<{width}}  {val}")


def cmd_eval(args) -> int:
    if args.task not in EVAL_TASKS:
        raise UsageError(f"unknown task {args.task!r}; valid tasks: {', '.join(EVAL_TASKS)}")
    if args.results is not None:
        _require_writable(args.results, "--results")
    loaded, view = _load_view(args)
    problems_path = _require_file(args.problems, "--problems")

    t0 = time.perf_counter()
    if args.task == "ranking":
        results = evalharness.eval_ranking(evalharness.load_ranking_problems(problems_path), view)
    elif args.task == "induction":
        ts = _type_system_for_eval(args, loaded)
        results = evalharness.eval_induction(evalharness.load_induction_problems(problems_path), view, ts)
    elif args.task == "analogy":
        ts = _type_system_for_eval(args, loaded)
        per = []
        for i, problem in enumerate(evalharness.load_analogy_problems(problems_path)):
            try:
                per.append(evalharness.eval_analogy(problem, view, ts))
            except evalharness.ProblemFormatError as exc:
                raise UsageError(f"{problems_path}: record {i}: {exc}") from None
        if not per:
            raise evalharness.ProblemFormatError("no analogy problem to score")
        results = {
            "task": "analogy",
            "accuracy": float(np.mean([r["accuracy"] for r in per])),
            "n_evaluated": int(sum(r["n_evaluated"] for r in per)),
            "skipped": int(sum(r["skipped"] for r in per)),
        }
    elif args.task == "link_prediction":
        rows = ingest._read_tsv(problems_path, 3)
        results = evalharness.eval_link_prediction(rows, view)
    else:
        rows = ingest._read_tsv(problems_path, 5)
        for k, name, allowed in ((3, "label", ("0", "1")), (4, "split", ("valid", "test"))):
            bad = next((row for row in rows if row[k] not in allowed), None)
            if bad is not None:
                raise UsageError(f"{problems_path}: {name} {bad[k]!r} of triple {bad[:3]} is not {' or '.join(allowed)}")
        valid = [(h, r, t, int(label)) for h, r, t, label, split in rows if split == "valid"]
        test = [(h, r, t, int(label)) for h, r, t, label, split in rows if split == "test"]
        results = evalharness.eval_triple_classification(valid, test, view)
    results["wall_ms"] = 1000.0 * (time.perf_counter() - t0)

    out_path = args.results or (os.path.splitext(problems_path)[0] + f".results_{args.task}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    _print_metrics(results)
    print(f"results written to {out_path}")
    return 0


def cmd_inspect(args) -> int:
    loaded, _ = _load_view(args)
    hp = loaded.hp if args.rank_eps is None else _checked(replace, loaded.hp, rank_eps=args.rank_eps)
    type_ids = sorted(loaded.types.per_type)
    if args.type_filter is not None:
        if args.type_filter not in loaded.types.per_type:
            raise UsageError(f"--type: unknown type {args.type_filter!r}")
        type_ids = [args.type_filter]
    print("type_id\tnum_entities\teffective_dim\tsingular_values")
    for type_id in type_ids:
        tp = loaded.types[type_id]
        summary = subspace.type_subspace(loaded.types, type_id, hp.rank_eps)
        if args.from_points:
            dim = subspace.point_cloud_rank(loaded.model.entity_points[tp.members], hp.rank_eps)
        else:
            dim = summary.effective_dim
        top = ",".join(f"{s:.6g}" for s in summary.singular_values[:10])
        print(f"{type_id}\t{len(tp.members)}\t{dim}\t{top}")
    return 0


def _grid(raw, flag, base_hp: Hyperparams, field: str):
    """The values of a comma-separated grid flag, each checked as the given
    Hyperparams field; None when the flag is unset."""
    if not raw:
        return None
    try:
        values = [float(x) for x in raw.split(",")]
    except ValueError:
        raise UsageError(f"{flag}: {raw!r} is not a comma-separated list of numbers") from None
    for value in values:
        _checked(replace, base_hp, **{field: value})
    return values


def cmd_tune(args) -> int:
    problems_path = _require_file(args.problems, "--problems")
    if args.out:
        _require_writable(args.out, "--out")
    problems = evalharness.load_ranking_problems(problems_path)
    base_hp = _hyperparams_from(args)
    alphas = _grid(args.alphas, "--alphas", base_hp, "alpha_mix")
    betas = _grid(args.betas, "--betas", base_hp, "beta_reg")
    data, vocab, catalog, store = _ingest_all(args)
    evalharness.ranking_splits(problems, catalog.index)  # raises before any training when nothing can be scored

    def objective(hp):
        params, _ = train(data, TrainConfig(hp=hp, shuffle_seed=hp.seed))
        view = EmbeddingView(
            entity_ids=catalog.ids,
            points=params.model.entity_points,
            rel_ids=store.relation_ids,
            rel_vectors=params.rels.vectors,
        )
        return evalharness.eval_ranking(problems, view)["fisher_rho"]

    best = tune(objective, base_hp, alphas=alphas, betas=betas)
    print(f"best alpha={best.alpha_mix} beta={best.beta_reg}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"alpha": best.alpha_mix, "beta": best.beta_reg}, fh)
    return 0


def cmd_export(args) -> int:
    if args.out is None:
        raise UsageError("--out is required")
    _require_writable(args.out, "--out")
    loaded, _ = _load_view(args)
    export_text(args.out, loaded.model, loaded.entity_ids, loaded.word_ids)
    print(f"wrote {len(loaded.entity_ids)} entity and {len(loaded.word_ids)} word vectors to {args.out}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "inspect": cmd_inspect,
    "tune": cmd_tune,
    "export": cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        _merge_config(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        ModelFormatError,
        ModelIntegrityError,
        ingest.CorpusParseError,
        ingest.CorpusValidationError,
        ingest.EmptyVocabularyError,
        ingest.NoCommonTypeError,
        ingest.SubclassCycleError,
        evalharness.ProblemFormatError,
        OSError,  # an unreadable file, or a directory where a file is due
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
