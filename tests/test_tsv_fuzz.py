"""Fuzzing of the TSV input files.

Whatever an instances, subclass, triples, link-prediction or
triple-classification file holds, its loader returns a result or raises one
of its documented errors: CorpusParseError for a malformed file and
SubclassCycleError for a cyclic subclass graph.  Every file reads to the
rows of `reference_impls.ref_read_tsv`, or fails with its error, and an
accepted type system equals `reference_impls.ref_load_type_system`'s.  On a
file the loader rejects, `typespace train` or `typespace eval` prints
exactly one `error:` line and exits 1; so does `typespace eval
triple_classification` on a label other than 0 or 1 or a split other than
valid or test.  Any other eval task file scores or ends the same way.  The
files are drawn from the micro corpus's valid files with fields dropped,
added or emptied, padding, blank, whitespace and `#` lines, bytes that are
not UTF-8, unknown ids, cycles, self-loops, reversed and repeated rows, and
labels and splits out of their sets.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impls import ref_load_type_system, ref_read_tsv
from typespace import cli
from typespace.ingest import (
    CorpusParseError,
    EntityCatalog,
    SubclassCycleError,
    TripleStore,
    TypeSystem,
    _read_tsv,
    load_triples,
    load_type_system,
)
from typespace.params import load_model

FIELDS = {"instances": 2, "subclass": 2, "triples": 3, "lp_test": 3, "tc": 5}
EVAL_TASK = {"lp_test": "link_prediction", "tc": "triple_classification"}
NOT_UTF8 = (b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x80abc", b"\xf0\x9f\x98")
PADDING = st.sampled_from(["", " ", "\t", "  \t", "\xa0", "\r"])


@pytest.fixture(scope="module")
def tsv_env(micro_dir, tmp_path_factory):
    """The micro files, a model trained on them, the catalog of its entities
    and a scratch directory."""
    work = tmp_path_factory.mktemp("tsv_fuzz")
    model = work / "model.bin"
    code = cli.main([
        "train", "--corpus", micro_dir["corpus"], "--instances", micro_dir["instances"],
        "--subclass", micro_dir["subclass"], "--triples", micro_dir["triples"], "--dim", "6", "--epochs", "2",
        "--beta", "0.5", "--min-count", "3", "--min-mentions", "3", "--seed", "7", "--out", str(model),
    ])
    assert code == 0
    entity_ids = tuple(load_model(str(model)).entity_ids)
    catalog = EntityCatalog(entity_ids, tuple(0 for _ in entity_ids), 0)
    return micro_dir, model, catalog, work


def _rows(micro_dir, kind) -> list[list[str]]:
    """The rows of the micro corpus's file of the given kind."""
    return [list(row) for row in _read_tsv(micro_dir[kind], FIELDS[kind])]


@st.composite
def tsv_bytes(draw, rows, kind):
    """The bytes of a faulted copy of a file of the given kind whose valid
    rows are rows."""
    rows = [list(row) for row in rows]
    names = sorted({x for row in rows for x in row[:3]})
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(
            ["drop_field", "extra_field", "empty_field"]
            + ["unknown", "repeat", "self_loop", "cycle", "reverse", "label", "split", "keep"] * 2
        ))
        k = draw(st.integers(0, max(len(rows) - 1, 0)))
        if not rows:
            rows.append([draw(st.sampled_from(names or ["x"])) for _ in range(FIELDS[kind])])
        row = rows[k]
        if fault == "drop_field" and len(row) > 1:
            del row[draw(st.integers(0, len(row) - 1))]
        elif fault == "extra_field":
            row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(names + ["1", "valid", "#x"])))
        elif fault == "empty_field":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(["", " "]))
        elif fault == "unknown":
            row[draw(st.integers(0, min(len(row), 3) - 1))] = draw(st.sampled_from(["ghost", "Ghost", "c00 ", "c0"]))
        elif fault == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), list(row))
        elif fault == "self_loop" and len(row) >= 2:
            rows.append([row[0], row[0]] + row[2:])
        elif fault == "cycle" and kind == "subclass" and len(rows) >= 1:
            # Close a path child -> parent -> ... back to the child.
            rows.append([row[-1], row[0]])
        elif fault == "reverse" and len(row) >= 2:
            rows.append(list(reversed(row)))
        elif fault == "label" and kind == "tc" and len(row) == 5:
            row[3] = draw(st.sampled_from(["2", "-1", "1.0", "true", "", "01"]))
        elif fault == "split" and kind == "tc" and len(row) == 5:
            row[4] = draw(st.sampled_from(["tune", "Test", "train", "", "valid "]))
    lines = ["\t".join(row).encode() for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from([b"", b"  ", b"\t", b"# comment\tx", b"  # padded comment", b"#"])))
    if lines and draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = draw(PADDING).encode() + lines[k] + draw(PADDING).encode()
    if lines and draw(st.sampled_from([False] * 7 + [True])):
        k = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[k])))
        lines[k] = lines[k][:at] + draw(st.sampled_from(NOT_UTF8)) + lines[k][at:]
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else b"")


def _cli(argv) -> tuple[int, str]:
    """cli.main(argv)'s exit code and standard error; warnings of dropped
    rows are ignored here, standard output is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code = cli.main(argv)
    return code, err.getvalue()


def _assert_one_error_line(code, err, exc=None):
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    if exc is not None:
        assert err == f"error: {exc}\n"


def _outcome(load, *args):
    """(result, None) or (None, the exception load raised), warnings ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            return load(*args), None
        except Exception as exc:  # checked against the documented errors below
            return None, exc


def _read_as_reference(path, kind):
    """_read_tsv's outcome on path, checked against ref_read_tsv's: equal
    rows, or the same error and message."""
    got, exc = _outcome(_read_tsv, str(path), FIELDS[kind])
    want, want_exc = _outcome(ref_read_tsv, str(path), FIELDS[kind])
    assert got == want
    assert exc is None or type(exc) is CorpusParseError, repr(exc)
    assert type(exc) is type(want_exc) and str(exc) == str(want_exc)
    return got, exc


def _train_args(micro_dir, **files):
    paths = {k: files.get(k, micro_dir[k]) for k in ("instances", "subclass", "triples")}
    return ["train", "--corpus", micro_dir["corpus"], "--instances", str(paths["instances"]),
            "--subclass", str(paths["subclass"]), "--triples", str(paths["triples"]), "--dim", "4", "--epochs", "1",
            "--min-count", "3", "--min-mentions", "3"]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["instances", "subclass"]))
def test_type_system_files(tsv_env, data, kind):
    micro_dir, model, catalog, work = tsv_env
    path = work / f"{kind}.tsv"
    path.write_bytes(data.draw(tsv_bytes(_rows(micro_dir, kind), kind)))
    _read_as_reference(path, kind)
    files = {"instances": micro_dir["instances"], "subclass": micro_dir["subclass"], kind: str(path)}
    got, exc = _outcome(load_type_system, files["instances"], files["subclass"], catalog)
    if exc is None:
        assert type(got) is TypeSystem
        want, want_exc = _outcome(ref_load_type_system, files["instances"], files["subclass"], catalog)
        assert want_exc is None and got == want
        return
    assert type(exc) in (CorpusParseError, SubclassCycleError), repr(exc)
    want, want_exc = _outcome(ref_load_type_system, files["instances"], files["subclass"], catalog)
    assert type(want_exc) is type(exc)
    if type(exc) is CorpusParseError:
        assert str(want_exc) == str(exc)
    code, err = _cli(_train_args(micro_dir, **{kind: path}) + ["--out", str(work / "never.bin")])
    _assert_one_error_line(code, err, exc)
    assert not (work / "never.bin").exists()
    code, err = _cli(["eval", "induction", "--model", str(model), "--problems", micro_dir["induction"],
                      "--instances", files["instances"], "--subclass", files["subclass"],
                      "--results", str(work / "never.json")])
    _assert_one_error_line(code, err, exc)
    assert not (work / "never.json").exists()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_triples_file(tsv_env, data):
    micro_dir, model, catalog, work = tsv_env
    path = work / "triples.tsv"
    path.write_bytes(data.draw(tsv_bytes(_rows(micro_dir, "triples"), "triples")))
    _read_as_reference(path, "triples")
    got, exc = _outcome(load_triples, str(path), catalog)
    if exc is None:
        assert type(got) is TripleStore
        return
    assert type(exc) is CorpusParseError, repr(exc)
    code, err = _cli(_train_args(micro_dir, triples=path) + ["--out", str(work / "never.bin")])
    _assert_one_error_line(code, err, exc)
    assert not (work / "never.bin").exists()


@pytest.mark.parametrize("kind", ["lp_test", "tc"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_eval_task_file(tsv_env, kind, data):
    micro_dir, model, catalog, work = tsv_env
    path, results = work / f"{kind}.tsv", work / f"{kind}.results.json"
    path.write_bytes(data.draw(tsv_bytes(_rows(micro_dir, kind), kind)))
    results.unlink(missing_ok=True)
    rows, exc = _read_as_reference(path, kind)
    code, err = _cli(["eval", EVAL_TASK[kind], "--model", str(model), "--problems", str(path), "--results", str(results)])
    if exc is not None:
        _assert_one_error_line(code, err, exc)
    elif kind == "tc" and any(row[3] not in ("0", "1") or row[4] not in ("valid", "test") for row in rows):
        _assert_one_error_line(code, err)
        assert "label" in err or "split" in err
    elif code == 0:
        assert err == "" and isinstance(json.loads(results.read_text()), dict)
        return
    else:
        _assert_one_error_line(code, err)
    assert not results.exists()
