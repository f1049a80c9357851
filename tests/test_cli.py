import json
import logging
from pathlib import Path

import numpy as np
import pytest

from conftest import rewrite_header
from typespace import cli, evalharness, ingest, subspace
from typespace.params import Hyperparams, load_model, save_model


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def trained_model(micro_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.bin"
    code = run(
        [
            "train",
            "--corpus", micro_dir["corpus"],
            "--instances", micro_dir["instances"],
            "--subclass", micro_dir["subclass"],
            "--triples", micro_dir["triples"],
            "--dim", "8",
            "--alpha", "0.5",
            "--beta", "1.0",
            "--epochs", "4",
            "--variant", "full",
            "--min-count", "3",
            "--min-mentions", "3",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestTrain:
    def test_text_variant_exit_zero(self, micro_dir, tmp_path):
        out = tmp_path / "m.bin"
        code = run(
            [
                "train",
                "--corpus", micro_dir["corpus"],
                "--variant", "text",
                "--epochs", "2",
                "--dim", "4",
                "--min-count", "3",
                "--min-mentions", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "m.bin.log.jsonl").exists()

    def test_missing_corpus_exit_one(self, tmp_path, capsys):
        code = run(["train", "--out", str(tmp_path / "m.bin")])
        assert code == 1
        assert "--corpus" in capsys.readouterr().err

    def test_nonexistent_corpus_exit_one(self, tmp_path, capsys):
        code = run(["train", "--corpus", "/no/such/file", "--out", str(tmp_path / "m.bin")])
        assert code == 1
        assert "--corpus" in capsys.readouterr().err

    def test_bad_variant_exit_one(self, micro_dir, tmp_path, capsys):
        code = run(
            ["train", "--corpus", micro_dir["corpus"], "--variant", "bogus", "--out", str(tmp_path / "m.bin")]
        )
        assert code == 1
        assert "variant" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--dim", "0"),
            ("--alpha", "2"),
            ("--lr", "-1"),
            ("--beta", "-1"),
            ("--rank-eps", "0"),
            ("--rank-eps", "1"),
            ("--rank-eps", "2"),
            ("--window", "0"),
            ("--epochs", "0"),
            ("--epochs", "-1"),
            ("--beta", "nan"),
            ("--rank-eps", "nan"),
            ("--lr", "inf"),
            ("--beta", "-inf"),
            ("--seed", "-1"),
            ("--min-count", "0"),
            ("--min-count", "-5"),
            ("--min-mentions", "0"),
            ("--min-mentions", "-2"),
        ],
    )
    def test_bad_value_one_line_exit_one(self, micro_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "m.bin"
        argv = ["train", "--corpus", micro_dir["corpus"], "--variant", "text", "--epochs", "1", "--dim", "4",
                "--min-count", "3", "--min-mentions", "3", flag, value, "--out", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not out.exists() and not (tmp_path / "m.bin.log.jsonl").exists()

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_out_fails_before_training(self, micro_dir, tmp_path, capsys, monkeypatch, where):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "m.bin"
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("trained"))
        argv = ["train", "--corpus", micro_dir["corpus"], "--variant", "text", "--epochs", "1", "--dim", "4",
                "--min-count", "3", "--min-mentions", "3", "--out", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out: ") and len(err.strip().splitlines()) == 1
        assert not Path(f"{out}.log.jsonl").exists()

    @pytest.mark.parametrize("command", ["train", "tune"])
    def test_empty_entity_catalog_one_line_exit_one(self, micro_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [command, "--corpus", micro_dir["corpus"], "--variant", "text", "--epochs", "1", "--dim", "4",
                "--min-count", "3", "--min-mentions", "1000", "--out", str(out)]
        assert run(argv + (["--problems", micro_dir["ranking"]] if command == "tune" else [])) == 1
        err = capsys.readouterr().err
        assert err.strip() == f"error: {micro_dir['corpus']}: no entity is mentioned in 1000 or more documents"
        assert not out.exists()

    def test_deterministic_reruns_byte_identical(self, micro_dir, tmp_path):
        outs = []
        for name in ("a.bin", "b.bin"):
            out = tmp_path / name
            code = run(
                [
                    "train",
                    "--corpus", micro_dir["corpus"],
                    "--instances", micro_dir["instances"],
                    "--subclass", micro_dir["subclass"],
                    "--triples", micro_dir["triples"],
                    "--variant", "full",
                    "--epochs", "2",
                    "--dim", "6",
                    "--min-count", "3",
                    "--min-mentions", "3",
                    "--seed", "7",
                    "--out", str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def _train_with_subclass(self, micro_dir, tmp_path, extra_edges):
        subclass = tmp_path / "subclass.tsv"
        subclass.write_text(Path(micro_dir["subclass"]).read_text() + extra_edges)
        return run(
            [
                "train",
                "--corpus", micro_dir["corpus"],
                "--instances", micro_dir["instances"],
                "--subclass", str(subclass),
                "--triples", micro_dir["triples"],
                "--variant", "full",
                "--epochs", "1",
                "--dim", "4",
                "--beta", "0.5",
                "--min-count", "3",
                "--min-mentions", "3",
                "--out", str(tmp_path / "m.bin"),
            ]
        )

    @pytest.mark.filterwarnings("ignore:.*outside the catalog", "ignore:.*triple\\(s\\) dropped")
    def test_collapsed_proxes_warn_once(self, micro_dir, tmp_path, caplog):
        # At the CLI defaults every prox of every epoch zeroes its span.
        argv = ["train", "--out", str(tmp_path / "m.bin")]
        for name in ("corpus", "instances", "subclass", "triples"):
            argv += [f"--{name}", micro_dir[name]]
        with caplog.at_level(logging.WARNING, logger="typespace.optimize"):
            assert run(argv) == 0
        records = [r for r in caplog.records if r.name == "typespace.optimize"]
        assert len(records) == 1 and records[0].levelno == logging.WARNING
        epochs = Hyperparams().epochs
        assert f"every prox zeroed its span (rank 0) in {epochs} of {epochs} epoch(s)" in records[0].getMessage()

    def test_deep_subclass_chain_exit_zero(self, micro_dir, tmp_path):
        chain = "place\tt0\n" + "".join(f"t{i}\tt{i + 1}\n" for i in range(1500))
        assert self._train_with_subclass(micro_dir, tmp_path, chain) == 0
        assert "t1500" in load_model(tmp_path / "m.bin").types

    def test_subclass_cycle_one_line_exit_one(self, micro_dir, tmp_path, capsys):
        assert self._train_with_subclass(micro_dir, tmp_path, "t\tu\nu\tv\nv\tt\n") == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: subclass cycle: ")
        names = err.strip()[len("error: subclass cycle: "):].split(" -> ")
        assert len(names) == 4 and names[0] == names[-1] and set(names) == {"t", "u", "v"}
        assert not (tmp_path / "m.bin").exists()


class TestEval:
    def test_unknown_task_lists_valid(self, trained_model, capsys):
        code = run(["eval", "frobnicate", "--model", str(trained_model), "--problems", "x"])
        assert code == 1
        err = capsys.readouterr().err
        for task in cli.EVAL_TASKS:
            assert task in err

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_results_fails_before_scoring(self, trained_model, micro_dir, tmp_path, capsys, monkeypatch,
                                                     where):
        results = tmp_path if where == "directory" else tmp_path / "missing" / "res.json"
        monkeypatch.setattr(cli, "load_model", lambda *args, **kwargs: pytest.fail("loaded the model"))
        monkeypatch.setattr(evalharness, "eval_ranking", lambda *args, **kwargs: pytest.fail("scored"))
        argv = ["eval", "ranking", "--model", str(trained_model), "--problems", micro_dir["ranking"],
                "--results", str(results)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --results: ") and len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""

    def test_ranking_results_contain_fisher_rho(self, trained_model, micro_dir, tmp_path):
        results = tmp_path / "res.json"
        code = run(
            ["eval", "ranking", "--model", str(trained_model), "--problems", micro_dir["ranking"], "--results", str(results)]
        )
        assert code == 0
        payload = json.loads(results.read_text())
        assert "fisher_rho" in payload
        assert payload["task"] == "ranking"

    def test_induction_matches_direct_evaluation(self, trained_model, micro_dir, tmp_path):
        results = tmp_path / "res.json"
        code = run(
            [
                "eval", "induction",
                "--model", str(trained_model),
                "--problems", micro_dir["induction"],
                "--instances", micro_dir["instances"],
                "--subclass", micro_dir["subclass"],
                "--results", str(results),
            ]
        )
        assert code == 0
        payload = json.loads(results.read_text())
        loaded = load_model(trained_model)
        view = evalharness.EmbeddingView.from_loaded(loaded)
        catalog = ingest.EntityCatalog(tuple(loaded.entity_ids), tuple(0 for _ in loaded.entity_ids), 0)
        ts = ingest.load_type_system(micro_dir["instances"], micro_dir["subclass"], catalog)
        direct = evalharness.eval_induction(evalharness.load_induction_problems(micro_dir["induction"]), view, ts)
        assert payload["map"] == pytest.approx(direct["map"])
        assert payload["mrr"] == pytest.approx(direct["mrr"])

    def test_analogy_and_link_prediction_and_classification(self, trained_model, micro_dir, tmp_path):
        for task, problems, extra in (
            ("analogy", micro_dir["analogy"], ["--instances", micro_dir["instances"], "--subclass", micro_dir["subclass"]]),
            ("link_prediction", micro_dir["lp_test"], []),
            ("triple_classification", micro_dir["tc"], []),
        ):
            results = tmp_path / f"{task}.json"
            code = run(["eval", task, "--model", str(trained_model), "--problems", problems, "--results", str(results)] + extra)
            assert code == 0, task
            payload = json.loads(results.read_text())
            assert payload["task"] == task

    @pytest.mark.parametrize("task", cli.EVAL_TASKS)
    def test_results_carry_wall_ms_and_skipped(self, trained_model, micro_dir, tmp_path, task):
        problems = {
            "ranking": micro_dir["ranking"], "induction": micro_dir["induction"], "analogy": micro_dir["analogy"],
            "link_prediction": micro_dir["lp_test"], "triple_classification": micro_dir["tc"],
        }[task]
        extra = ["--instances", micro_dir["instances"], "--subclass", micro_dir["subclass"]]
        results = tmp_path / "res.json"
        argv = ["eval", task, "--model", str(trained_model), "--problems", problems, "--results", str(results)]
        assert run(argv + (extra if task in ("induction", "analogy") else [])) == 0
        payload = json.loads(results.read_text())
        assert isinstance(payload["wall_ms"], float) and payload["wall_ms"] > 0.0
        assert isinstance(payload["skipped"], int) and payload["skipped"] >= 0

    def test_induction_counts_unresolved_positives(self, trained_model, micro_dir, tmp_path):
        with open(micro_dir["induction"], encoding="utf-8") as fh:
            record = json.load(fh)
        record = record[0] if isinstance(record, list) else record
        record["split"]["test"] = list(record["split"]["test"]) + ["ghost1", "ghost2"]
        problems = tmp_path / "ghosts.json"
        problems.write_text(json.dumps(record))
        results = tmp_path / "res.json"
        argv = ["eval", "induction", "--model", str(trained_model), "--problems", str(problems),
                "--instances", micro_dir["instances"], "--subclass", micro_dir["subclass"], "--results", str(results)]
        with pytest.warns(UserWarning, match="unresolved positives dropped"):
            assert run(argv) == 0
        assert json.loads(results.read_text())["skipped"] == 2

    @pytest.mark.parametrize("label", ["yes", "1.0", "2", "-1"])
    def test_classification_label_not_binary_exit_one(self, trained_model, micro_dir, tmp_path, capsys, label):
        with open(micro_dir["tc"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        h, r, t, _, split = lines[0].split("\t")
        problems = tmp_path / "tc.tsv"
        problems.write_text("\n".join(lines + [f"{h}\t{r}\t{t}\t{label}\t{split}"]) + "\n")
        results = tmp_path / "res.json"
        argv = ["eval", "triple_classification", "--model", str(trained_model), "--problems", str(problems),
                "--results", str(results)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert repr(label) in err and "not 0 or 1" in err and len(err.strip().splitlines()) == 1
        assert not results.exists()

    @pytest.mark.parametrize("split", ["tune", "Test", "train"])
    def test_classification_split_unknown_exit_one(self, trained_model, micro_dir, tmp_path, capsys, split):
        # A row of another split used to be dropped without a word.
        with open(micro_dir["tc"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        h, r, t, label, _ = lines[0].split("\t")
        problems = tmp_path / "tc.tsv"
        problems.write_text("\n".join(lines + [f"{h}\t{r}\t{t}\t{label}\t{split}"]) + "\n")
        results = tmp_path / "res.json"
        argv = ["eval", "triple_classification", "--model", str(trained_model), "--problems", str(problems),
                "--results", str(results)]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {problems}: split {split!r} of triple {(h, r, t)} is not valid or test\n"
        assert not results.exists()

    def test_corrupt_model_exit_one(self, trained_model, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        blob = bytearray(trained_model.read_bytes())
        blob[5] ^= 0xFF
        bad.write_bytes(bytes(blob))
        code = run(["eval", "ranking", "--model", str(bad), "--problems", "x"])
        assert code == 1

    def test_non_finite_model_one_line_exit_one(self, trained_model, micro_dir, tmp_path, capsys):
        # A valid checksum over a NaN entity point: the load check names the array.
        m = load_model(trained_model)
        m.model.entity_points[1, 2] = np.nan
        bad = tmp_path / "nan.bin"
        save_model(bad, m.model, m.types, m.rels, m.hp, m.entity_ids, m.word_ids, m.relation_ids)
        code = run(["eval", "ranking", "--model", str(bad), "--problems", micro_dir["ranking"]])
        err = capsys.readouterr().err
        assert code == 1 and err.strip() == "error: entity_points holds a non-finite value"

    def test_off_simplex_model_one_line_exit_one(self, trained_model, micro_dir, tmp_path, capsys):
        # A valid checksum over a type's coefficient row that sums to 2: the
        # load check names the type.
        m = load_model(trained_model)
        types = m.types.per_type
        types.coeffs[types.offsets[1][1]] *= 2.0  # the first row of the second type
        bad = tmp_path / "off_simplex.bin"
        save_model(bad, m.model, m.types, m.rels, m.hp, m.entity_ids, m.word_ids, m.relation_ids)
        code = run(["eval", "ranking", "--model", str(bad), "--problems", micro_dir["ranking"]])
        err = capsys.readouterr().err
        assert code == 1
        assert err.strip() == f"error: type {types.key_table[1]}: coefficient row off the probability simplex"

    def test_ranking_problem_without_split_exit_one(self, trained_model, micro_dir, tmp_path, capsys):
        with open(micro_dir["ranking"], encoding="utf-8") as fh:
            record = json.load(fh)
        record = record[0] if isinstance(record, list) else record
        del record["split"]
        problems = tmp_path / "nosplit.json"
        problems.write_text(json.dumps(record))
        code = run(["eval", "ranking", "--model", str(trained_model), "--problems", str(problems)])
        assert code == 1
        err = capsys.readouterr().err
        assert "split" in err and len(err.strip().splitlines()) == 1

    def test_induction_without_common_type_exit_one(self, trained_model, micro_dir, tmp_path, capsys):
        # A city and a person: the subclass graph gives them no common type.
        problems = tmp_path / "mixed.json"
        problems.write_text(
            json.dumps({"relation": "r", "target": "t", "split": {"train": ["c00", "p00"], "valid": [], "test": []}})
        )
        code = run(
            [
                "eval", "induction",
                "--model", str(trained_model),
                "--problems", str(problems),
                "--instances", micro_dir["instances"],
                "--subclass", micro_dir["subclass"],
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "no type contains" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("unknown", ["empty_train", "every_positive", "train_positives"])
    def test_induction_without_known_training_positive_exit_one(self, trained_model, micro_dir, tmp_path, capsys,
                                                                unknown):
        with open(micro_dir["induction"], encoding="utf-8") as fh:
            record = json.load(fh)
        record = record[0] if isinstance(record, list) else record
        split = record["split"]
        if unknown == "empty_train":
            split["train"] = []
        else:
            parts = ("train", "valid", "test") if unknown == "every_positive" else ("train",)
            for part in parts:
                split[part] = [f"ghost{part}{i}" for i in range(len(split[part]))]
        problems = tmp_path / "unknown.json"
        problems.write_text(json.dumps(record))
        argv = ["eval", "induction", "--model", str(trained_model), "--problems", str(problems),
                "--instances", micro_dir["instances"], "--subclass", micro_dir["subclass"]]
        assert run(argv) == 1
        err = capsys.readouterr().err
        expected = f"error: induction problem ({record['relation']!r}, {record['target']!r}): the model holds none"
        assert err.startswith(expected) and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "unknown.results_induction.json").exists()

    def test_analogy_without_known_gold_answer_exit_one(self, trained_model, micro_dir, tmp_path, capsys):
        with open(micro_dir["analogy"], encoding="utf-8") as fh:
            record = json.load(fh)
        record = record[0] if isinstance(record, list) else record
        problems = tmp_path / "unknown.json"
        problems.write_text(json.dumps([record, {**record, "quads": [q[:3] + ["ghost"] for q in record["quads"]]}]))
        argv = ["eval", "analogy", "--model", str(trained_model), "--problems", str(problems),
                "--instances", micro_dir["instances"], "--subclass", micro_dir["subclass"]]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {problems}: record 1: the model holds none of the analogy problem's")
        assert len(err.strip().splitlines()) == 1

    def test_analogy_without_known_test_quad_exit_one(self, trained_model, micro_dir, tmp_path, capsys):
        # Every gold answer is known, so the pool resolves, but every test quad
        # names an unknown entity: an accuracy over no quad would read as a result.
        with open(micro_dir["analogy"], encoding="utf-8") as fh:
            record = json.load(fh)
        record = record[0] if isinstance(record, list) else record
        test = record["split"]["test"]
        quads = [["ghost", *q[1:]] if i in test else q for i, q in enumerate(record["quads"])]
        problems = tmp_path / "unknown.json"
        problems.write_text(json.dumps([record, {**record, "quads": quads}]))
        argv = ["eval", "analogy", "--model", str(trained_model), "--problems", str(problems),
                "--instances", micro_dir["instances"], "--subclass", micro_dir["subclass"]]
        with pytest.warns(UserWarning, match="skipped: unknown entity"):
            assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {problems}: record 1: the model resolves none of the analogy problem's {len(test)} test quads\n"
        assert not (tmp_path / "unknown.results_analogy.json").exists()

    @pytest.mark.parametrize("task", ["analogy", "induction"])
    def test_empty_problem_file_exit_one(self, trained_model, micro_dir, tmp_path, capsys, task):
        # An accuracy or a MAP over no problem would read as a result.
        problems = tmp_path / "empty.json"
        problems.write_text("[]")
        argv = ["eval", task, "--model", str(trained_model), "--problems", str(problems),
                "--instances", micro_dir["instances"], "--subclass", micro_dir["subclass"]]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: no {task} problem to score\n"
        assert not (tmp_path / f"empty.results_{task}.json").exists()

    @pytest.mark.parametrize("command", ["eval", "tune"])
    def test_every_ranking_problem_skipped_exit_one(self, trained_model, micro_dir, tmp_path, capsys, monkeypatch, command):
        # A Fisher mean over no correlation would read as a result.  tune
        # finds that before it trains anything.
        def no_train(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli, "train", no_train)
        with open(micro_dir["ranking"], encoding="utf-8") as fh:
            record = json.load(fh)
        record = record[0] if isinstance(record, list) else record
        ghost = {e: f"ghost{i}" for i, e in enumerate(record["values"])}
        record["values"] = {ghost[e]: v for e, v in record["values"].items()}
        record["split"] = {part: [ghost[e] for e in ids] for part, ids in record["split"].items()}
        problems = tmp_path / "unknown.json"
        problems.write_text(json.dumps(record))
        if command == "eval":
            argv = ["eval", "ranking", "--model", str(trained_model), "--problems", str(problems)]
        else:
            argv = ["tune", "--corpus", micro_dir["corpus"], "--problems", str(problems), "--dim", "4", "--epochs", "1",
                    "--min-count", "3", "--min-mentions", "3", "--out", str(tmp_path / "best.json")]
        with pytest.warns(UserWarning, match="skipped: too few resolvable entities"):
            assert run(argv) == 1
        assert capsys.readouterr().err == "error: none of the 1 ranking problems could be scored\n"
        assert not (tmp_path / "unknown.results_ranking.json").exists() and not (tmp_path / "best.json").exists()

    @pytest.mark.parametrize("task, rows, what", [
        ("link_prediction", ["ghost\tlocated_in\tc00", "p00\tghost_rel\tc00"], "2 link prediction triples"),
        ("triple_classification", ["p00\tlocated_in\tc00\t1\tvalid", "ghost\tlocated_in\tc00\t1\ttest",
                                   "p00\tghost_rel\tc00\t0\ttest"], "2 triple classification test rows"),
    ])
    def test_nothing_resolvable_exit_one(self, trained_model, tmp_path, capsys, task, rows, what):
        # A mean rank or an accuracy over no test triple would read as a result.
        problems = tmp_path / "unknown.tsv"
        problems.write_text("\n".join(rows) + "\n")
        assert run(["eval", task, "--model", str(trained_model), "--problems", str(problems)]) == 1
        assert capsys.readouterr().err == f"error: the model resolves none of the {what}\n"
        assert not (tmp_path / f"unknown.results_{task}.json").exists()

    def test_malformed_problem_json_exit_one(self, trained_model, tmp_path, capsys):
        problems = tmp_path / "broken.json"
        problems.write_text('{"type": "city", "attribute": ')
        code = run(["eval", "ranking", "--model", str(trained_model), "--problems", str(problems)])
        assert code == 1
        err = capsys.readouterr().err
        assert "not valid JSON" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("task, edit, message", [
        ("analogy", lambda rec: rec["split"].update(test=[99]), "split part 'test' is not a list of quad indices in [0, 11)"),
        ("analogy", lambda rec: rec["split"].update(test=[-1]), "split part 'test' is not a list of quad indices in [0, 11)"),
        ("analogy", lambda rec: rec["quads"][0].pop(), "quad 0 is not a list of 4 id strings"),
        ("induction", lambda rec: rec["split"]["test"].extend(rec["split"]["train"][:2]),
         "induction problem ('located_in', 'c00'): split parts overlap or repeat an id"),
        ("induction", lambda rec: rec["split"]["test"].append(rec["split"]["test"][0]),
         "induction problem ('located_in', 'c00'): split parts overlap or repeat an id"),
        ("analogy", lambda rec: rec["split"].update(test=[1, 0, 1]), "split part 'test' repeats a quad index"),
        ("induction", lambda rec: rec["split"].update(train="c01"), "split part 'train' is not a list of id strings"),
        ("ranking", lambda rec: rec["values"].update(c03="nan"), "value of entity 'c03' is not a finite number"),
        ("ranking", lambda rec: rec["values"].update(c03=float("inf")), "value of entity 'c03' is not a finite number"),
        ("ranking", lambda rec: rec["values"].update(c03=True), "value of entity 'c03' is not a finite number"),
        ("analogy", lambda rec: rec.update(split=[]), "field 'split' is not an object"),
        ("analogy", lambda rec: rec.update(split=0), "field 'split' is not an object"),
        ("ranking", lambda rec: rec.update(values=list(rec["values"])), "field 'values' is not an object"),
        ("induction", lambda rec: rec.update(split=[rec["split"]]), "field 'split' is not an object"),
        ("ranking", lambda rec: rec.update(attribute=[]), "field 'attribute' is not a string"),
        ("ranking", lambda rec: rec.update(type=None), "field 'type' is not a string"),
        ("induction", lambda rec: rec.update(relation=None), "field 'relation' is not a string"),
        ("induction", lambda rec: rec.update(target=["c00"]), "field 'target' is not a string"),
    ], ids=["index_past_end", "negative_index", "three_ids", "test_repeats_train", "test_repeats_itself",
            "repeated_index", "string_part", "nan_string_value",
            "infinite_value", "bool_value", "empty_list_split", "zero_split", "list_values", "list_split",
            "list_attribute", "null_type", "null_relation", "list_target"])
    def test_malformed_problem_record_exit_one(self, trained_model, micro_dir, tmp_path, capsys, task, edit, message):
        # Unchecked at load, these end in an IndexError or a message naming
        # no field, or read as a result.
        with open(micro_dir[task], encoding="utf-8") as fh:
            record = json.load(fh)
        record = record[0] if isinstance(record, list) else record
        edit(record)
        problems = tmp_path / "bad.json"
        problems.write_text(json.dumps(record))
        argv = ["eval", task, "--model", str(trained_model), "--problems", str(problems),
                "--instances", micro_dir["instances"], "--subclass", micro_dir["subclass"]]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {problems}: record 0: {message}\n"
        assert not (tmp_path / f"bad.results_{task}.json").exists()


class TestUnreadableInputs:
    """A file that is not UTF-8 text, a directory where a file is due, or a
    model file whose header cannot be read ends in one error line with exit
    1, not a traceback."""

    def _train(self, micro_dir, tmp_path, **flags):
        argv = {"--corpus": micro_dir["corpus"], "--variant": "text", "--epochs": "1", "--dim": "4",
                "--min-count": "3", "--min-mentions": "3", "--out": str(tmp_path / "m.bin"), **flags}
        return run(["train", *(x for pair in argv.items() for x in pair)])

    def _one_error_line(self, capsys, code, *parts):
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert all(str(part) in err for part in parts)

    def test_non_utf8_corpus(self, micro_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(Path(micro_dir["corpus"]).read_bytes() + b'{"doc_id": "d\xff", "sentences": []}\n')
        self._one_error_line(capsys, self._train(micro_dir, tmp_path, **{"--corpus": str(corpus)}), corpus, "UTF-8")

    def test_non_utf8_triples(self, micro_dir, tmp_path, capsys):
        triples = tmp_path / "triples.tsv"
        triples.write_bytes(Path(micro_dir["triples"]).read_bytes() + b"e\xff\tr\tt\n")
        code = self._train(micro_dir, tmp_path, **{"--variant": "full", "--triples": str(triples)})
        self._one_error_line(capsys, code, triples, "UTF-8")

    def test_non_utf8_config(self, micro_dir, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"epochs=1\n\xff=2\n")
        self._one_error_line(capsys, self._train(micro_dir, tmp_path, **{"--config": str(conf)}), conf, "UTF-8")

    def test_directory_as_corpus(self, micro_dir, tmp_path, capsys):
        self._one_error_line(capsys, self._train(micro_dir, tmp_path, **{"--corpus": str(tmp_path)}), tmp_path)

    def test_directory_as_model(self, tmp_path, capsys):
        code = run(["export", "--model", str(tmp_path), "--out", str(tmp_path / "emb.txt")])
        self._one_error_line(capsys, code, tmp_path)

    @pytest.mark.parametrize("edit, raw, message", [
        (lambda h: {**h, "shapes": [[2**32, 2**32], *h["shapes"][1:]]}, False,
         "the array shapes take 1475739525896764"),
        (lambda h: h.replace(b'"entity_ids":["', b'"entity_ids":["\xff'), True, "model header is not UTF-8 JSON"),
        (lambda h: {**h, "entity_ids": h["entity_ids"][:1] * 2 + h["entity_ids"][2:]}, False,
         "model header: field 'entity_ids' repeats the id"),
    ], ids=["huge_shape", "non_utf8_entity_id", "duplicate_entity_id"])
    def test_unreadable_model_header(self, trained_model, tmp_path, capsys, edit, raw, message):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(trained_model.read_bytes())
        rewrite_header(bad, edit, raw)
        code = run(["export", "--model", str(bad), "--out", str(tmp_path / "emb.txt")])
        self._one_error_line(capsys, code, message)
        assert not (tmp_path / "emb.txt").exists()


class TestIngestDefaults:
    @staticmethod
    def _tables_equal(got, want):
        return got.kind == want.kind and all(
            np.array_equal(getattr(got, name), getattr(want, name)) for name in ("rows", "cols", "weights")
        )

    def test_unset_flags_take_the_ingest_defaults(self, micro_dir):
        args = cli.build_parser().parse_args(["train", "--corpus", micro_dir["corpus"]])
        data, vocab, catalog, _ = cli._ingest_all(args)
        docs = ingest.load_corpus(micro_dir["corpus"])
        want_vocab, want_catalog = ingest.build_vocab_and_catalog(docs)
        assert vocab == want_vocab and catalog == want_catalog
        assert self._tables_equal(data.word_word, ingest.count_word_word(docs, want_vocab))
        assert self._tables_equal(data.entity_word, ingest.count_entity_word(docs, want_vocab, want_catalog))

    def test_set_flags_reach_the_ingest_functions(self, micro_dir):
        argv = ["train", "--corpus", micro_dir["corpus"], "--min-count", "3", "--min-mentions", "2", "--window", "4"]
        data, vocab, catalog, _ = cli._ingest_all(cli.build_parser().parse_args(argv))
        docs = ingest.load_corpus(micro_dir["corpus"])
        want_vocab, want_catalog = ingest.build_vocab_and_catalog(docs, 3, 2)
        # A vocabulary is its words, so --min-count shows only through them.
        assert vocab == want_vocab and len(vocab) > len(ingest.build_vocab_and_catalog(docs)[0])
        assert catalog == want_catalog
        assert self._tables_equal(data.word_word, ingest.count_word_word(docs, want_vocab, 4))
        assert self._tables_equal(data.entity_word, ingest.count_entity_word(docs, want_vocab, want_catalog, 4))


class TestInspect:
    def test_matches_subspace_module(self, trained_model, capsys):
        code = run(["inspect", "--model", str(trained_model)])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split("\t") == ["type_id", "num_entities", "effective_dim", "singular_values"]
        loaded = load_model(trained_model)
        rows = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
        assert set(rows) == set(loaded.types.per_type)
        for type_id, row in rows.items():
            summary = subspace.type_subspace(loaded.types, type_id, loaded.hp.rank_eps)
            assert int(row[2]) == summary.effective_dim
            assert int(row[1]) == len(loaded.types[type_id].members)

    def test_type_filter_single_row(self, trained_model, capsys):
        code = run(["inspect", "--model", str(trained_model), "--type", "city"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("city\t")

    def test_unknown_type_exit_one(self, trained_model, capsys):
        assert run(["inspect", "--model", str(trained_model), "--type", "wizard"]) == 1

    def test_model_without_types_header_only(self, micro_dir, tmp_path, capsys):
        out = tmp_path / "plain.bin"
        code = run(
            ["train", "--corpus", micro_dir["corpus"], "--variant", "text", "--epochs", "1",
             "--dim", "4", "--min-count", "3", "--min-mentions", "3", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        assert run(["inspect", "--model", str(out)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1

    def test_from_points_flag(self, trained_model, capsys):
        assert run(["inspect", "--model", str(trained_model), "--from-points"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) > 1

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "1", "2"])
    def test_rank_eps_not_positive_exit_one(self, trained_model, capsys, value):
        code = run(["inspect", "--model", str(trained_model), "--rank-eps", value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "rank_eps" in captured.err
        assert len(captured.err.strip().splitlines()) == 1


class TestExport:
    def test_text_export(self, trained_model, tmp_path):
        out = tmp_path / "emb.txt"
        assert run(["export", "--model", str(trained_model), "--out", str(out)]) == 0
        loaded = load_model(trained_model)
        lines = out.read_text().strip().split("\n")
        assert len(lines) == len(loaded.entity_ids) + len(loaded.word_ids)
        first = lines[0].split()
        assert first[0] == loaded.entity_ids[0]
        assert np.allclose([float(x) for x in first[1:]], loaded.model.entity_points[0])

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_out_fails_before_export(self, trained_model, tmp_path, capsys, monkeypatch, where):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "emb.txt"
        monkeypatch.setattr(cli, "load_model", lambda *args, **kwargs: pytest.fail("loaded the model"))
        monkeypatch.setattr(cli, "export_text", lambda *args, **kwargs: pytest.fail("exported"))
        assert run(["export", "--model", str(trained_model), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out: ") and len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, micro_dir, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "\n".join(
                [
                    f"corpus={micro_dir['corpus']}",
                    "variant=text",
                    "epochs=5",
                    "dim=4",
                    "min_count=3",
                    "min_mentions=3",
                    f"out={tmp_path / 'conf.bin'}",
                ]
            )
            + "\n"
        )
        code = run(["train", "--config", str(conf), "--epochs", "1"])
        assert code == 0
        loaded = load_model(tmp_path / "conf.bin")
        assert loaded.hp.epochs == 1  # flag beat the config
        assert loaded.hp.variant == "text"

    def test_malformed_config_exit_one(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("not a key value line\n")
        assert run(["train", "--config", str(conf), "--out", "x"]) == 1

    def _train_with_config(self, micro_dir, tmp_path, *lines):
        conf = tmp_path / "run.conf"
        base = [f"corpus={micro_dir['corpus']}", "variant=text", "dim=4", "min_count=3", "min_mentions=3"]
        conf.write_text("\n".join(base + list(lines)) + "\n")
        return conf, run(["train", "--config", str(conf), "--out", str(tmp_path / "m.bin")])

    @pytest.mark.parametrize("line", ["epochz=3", "threads=4"])
    def test_unknown_key_exit_one(self, micro_dir, tmp_path, capsys, line):
        _, code = self._train_with_config(micro_dir, tmp_path, "epochs=1", line)
        assert code == 1
        err = capsys.readouterr().err
        assert repr(line.split("=")[0]) in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.bin").exists()

    def test_uncastable_value_exit_one(self, micro_dir, tmp_path, capsys):
        conf, code = self._train_with_config(micro_dir, tmp_path, "epochs=abc")
        assert code == 1
        err = capsys.readouterr().err
        assert str(conf) in err and "epochs='abc'" in err and len(err.strip().splitlines()) == 1

    def _config(self, tmp_path, *lines):
        conf = tmp_path / "flags.conf"
        conf.write_text("\n".join(lines) + "\n")
        return str(conf)

    def _inspect_out(self, capsys, *argv):
        assert run(["inspect", *argv]) == 0
        return capsys.readouterr().out

    def test_explicit_from_points_beats_config(self, trained_model, tmp_path, capsys):
        model = ["--model", str(trained_model)]
        from_anchors = self._inspect_out(capsys, *model)
        from_points = self._inspect_out(capsys, *model, "--from-points")
        # The trained anchors and points differ in rank, so the two outputs tell the flag's value.
        assert from_points != from_anchors
        conf = self._config(tmp_path, "from-points=0")
        assert self._inspect_out(capsys, "--config", conf, *model) == from_anchors
        assert self._inspect_out(capsys, "--config", conf, *model, "--from-points") == from_points

    def test_from_points_flag_from_config(self, trained_model, tmp_path, capsys):
        assert run(["inspect", "--model", str(trained_model), "--from-points"]) == 0
        flag_out = capsys.readouterr().out
        conf = self._config(tmp_path, "from-points=yes")
        assert run(["inspect", "--config", conf, "--model", str(trained_model)]) == 0
        assert capsys.readouterr().out == flag_out

    @pytest.mark.parametrize("command", ["eval", "inspect", "export"])
    def test_seed_only_for_train_and_tune(self, trained_model, tmp_path, capsys, command):
        # Only train and tune draw random numbers; the other commands take no
        # seed, as a flag or as a config key.
        argv = [command, *(["ranking"] if command == "eval" else []), "--model", str(trained_model)]
        assert run([*argv, "--seed", "99"]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --seed 99\n"
        conf = self._config(tmp_path, "seed=99")
        assert run([*argv, "--config", conf]) == 1
        assert capsys.readouterr().err == f"error: {conf}: key 'seed' names no flag of {command!r}\n"

    def test_key_is_the_flag_name_not_its_attribute(self, trained_model, tmp_path, capsys):
        # --type stores to type_filter: the config key is the flag's name.
        model = ["--model", str(trained_model)]
        flag_out = self._inspect_out(capsys, *model, "--type", "city")
        assert flag_out != self._inspect_out(capsys, *model)
        assert self._inspect_out(capsys, "--config", self._config(tmp_path, "type=city"), *model) == flag_out
        conf = self._config(tmp_path, "type_filter=city")
        assert run(["inspect", "--config", conf, *model]) == 1
        assert capsys.readouterr().err == f"error: {conf}: key 'type_filter' names no flag of 'inspect'\n"

    def test_positional_argument_is_no_key(self, trained_model, micro_dir, tmp_path, capsys):
        # The task is eval's positional argument, not a flag, so a config
        # key cannot name it.
        conf = self._config(tmp_path, "task=induction")
        results = tmp_path / "results.json"
        argv = ["eval", "ranking", "--config", conf, "--model", str(trained_model), "--problems", micro_dir["ranking"],
                "--results", str(results)]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {conf}: key 'task' names no flag of 'eval'\n"
        assert not results.exists()

    def test_uncastable_boolean_exit_one(self, trained_model, tmp_path, capsys):
        conf = self._config(tmp_path, "from-points=maybe")
        assert run(["inspect", "--config", conf, "--model", str(trained_model)]) == 1
        err = capsys.readouterr().err
        assert "from_points='maybe' is not a valid boolean" in err and len(err.strip().splitlines()) == 1


class TestTune:
    def test_tiny_grid_runs(self, micro_dir, tmp_path, capsys):
        out = tmp_path / "best.json"
        code = run(
            [
                "tune",
                "--corpus", micro_dir["corpus"],
                "--instances", micro_dir["instances"],
                "--subclass", micro_dir["subclass"],
                "--triples", micro_dir["triples"],
                "--problems", micro_dir["ranking"],
                "--dim", "4",
                "--epochs", "1",
                "--min-count", "3",
                "--min-mentions", "3",
                "--alphas", "0.5",
                "--betas", "1,2",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["alpha"] == 0.5
        assert payload["beta"] in (1.0, 2.0)

    def test_missing_problems_exit_one(self, micro_dir, capsys):
        assert run(["tune", "--corpus", micro_dir["corpus"]]) == 1

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_out_fails_before_training(self, micro_dir, tmp_path, capsys, monkeypatch, where):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "best.json"
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("trained"))
        argv = ["tune", "--corpus", micro_dir["corpus"], "--problems", micro_dir["ranking"], "--dim", "4",
                "--epochs", "1", "--min-count", "3", "--min-mentions", "3", "--alphas", "0.5", "--betas", "1",
                "--out", str(out)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out: ") and len(captured.err.strip().splitlines()) == 1
        assert "best" not in captured.out

    @pytest.mark.parametrize("flag,value", [("--alphas", "a,b"), ("--betas", "1,x"), ("--alphas", "0.5,2"), ("--betas", "-1"),
                                           ("--betas", "1,nan"), ("--rank-eps", "2"), ("--rank-eps", "1")])
    def test_bad_grid_one_line_exit_one(self, micro_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "best.json"
        argv = ["tune", "--corpus", micro_dir["corpus"], "--problems", micro_dir["ranking"], "--dim", "4",
                "--epochs", "1", "--min-count", "3", "--min-mentions", "3", flag, value, "--out", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestIdempotence:
    def test_eval_rerun_byte_identical(self, trained_model, micro_dir, tmp_path):
        # Everything but the line holding the run's own wall time.
        blobs = []
        for name in ("r1.json", "r2.json"):
            results = tmp_path / name
            code = run(
                ["eval", "ranking", "--model", str(trained_model), "--problems", micro_dir["ranking"], "--results", str(results)]
            )
            assert code == 0
            lines = results.read_bytes().splitlines(keepends=True)
            assert sum(line.lstrip().startswith(b'"wall_ms": ') for line in lines) == 1
            blobs.append(b"".join(line for line in lines if not line.lstrip().startswith(b'"wall_ms": ')))
        assert blobs[0] == blobs[1]


class TestNoCommand:
    def test_help_exit_one(self, capsys):
        assert run([]) == 1
