"""Fuzzing of the eval problem files.

Whatever a ranking, induction or analogy problem file holds, `typespace
eval` either writes a results file and exits 0, or prints one `error:` line
and exits 1; it never ends in a traceback.  The files are drawn from the
micro corpus's valid problem records with fields dropped or given values of
other JSON types, test indices out of range or negative, split parts
overlapping or given as strings, ranking values that are non-finite,
strings or booleans, falsy splits, and ids the model does not know.
"""

import contextlib
import copy
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typespace import cli

TASKS = ("ranking", "induction", "analogy")
PARTS = ("train", "valid", "test", "tune")
BAD_VALUES = (math.nan, math.inf, -math.inf, "nan", "inf", "1.5", True, False, None)
FALSY = (0, 0.0, False, "", [], {}, None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def fuzz_env(micro_dir, tmp_path_factory):
    """The trained micro model, the valid problem records and a scratch
    directory."""
    work = tmp_path_factory.mktemp("fuzz")
    model = work / "model.bin"
    code = cli.main([
        "train", "--corpus", micro_dir["corpus"], "--instances", micro_dir["instances"],
        "--subclass", micro_dir["subclass"], "--triples", micro_dir["triples"], "--dim", "6", "--epochs", "2",
        "--beta", "0.5", "--min-count", "3", "--min-mentions", "3", "--seed", "7", "--out", str(model),
    ])
    assert code == 0
    records = {}
    for task in TASKS:
        with open(micro_dir[task], encoding="utf-8") as fh:
            records[task] = json.load(fh)
    return micro_dir, model, records, work


def _rename(value, old: str, new: str):
    """value with every string and dict key equal to old replaced by new."""
    if isinstance(value, str):
        return new if value == old else value
    if isinstance(value, list):
        return [_rename(v, old, new) for v in value]
    if isinstance(value, dict):
        return {_rename(k, old, new): _rename(v, old, new) for k, v in value.items()}
    return value


def _ids_of(value) -> list[str]:
    """Every string value in value, dict keys excepted."""
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return [x for v in value for x in _ids_of(v)]
    if isinstance(value, dict):
        return [x for v in value.values() for x in _ids_of(v)]
    return []


def _mutate(draw, rec):
    """rec with one random change; rec is any JSON value."""
    split = rec.get("split") if isinstance(rec, dict) else None
    lists = [p for p in PARTS if isinstance(split, dict) and isinstance(split.get(p), list)]
    values = rec.get("values") if isinstance(rec, dict) else None
    kind = draw(st.sampled_from(["drop", "replace", "indices", "overlap", "string_part", "unknown_id", "bad_value",
                                 "falsy_split"]))
    if kind in ("drop", "replace") and isinstance(rec, dict):
        target = split if isinstance(split, dict) and split and draw(st.booleans()) else rec
        if target:
            key = draw(st.sampled_from(sorted(target)))
            if kind == "drop":
                del target[key]
            else:
                target[key] = draw(JSON_VALUES)
    elif kind == "indices" and isinstance(split, dict):
        split[draw(st.sampled_from(PARTS))] = draw(st.lists(st.integers(-3, 30) | st.booleans(), max_size=5))
    elif kind == "overlap" and lists:
        src, dst = draw(st.sampled_from(lists)), draw(st.sampled_from(lists))
        if split[src]:
            split[dst] = split[dst] + draw(st.lists(st.sampled_from(split[src]), min_size=1, max_size=3))
    elif kind == "string_part" and lists:
        part = draw(st.sampled_from(lists))
        split[part] = "".join(map(str, split[part]))[: draw(st.integers(0, 8))]
    elif kind == "bad_value" and isinstance(values, dict) and values:
        values[draw(st.sampled_from(sorted(values)))] = draw(st.sampled_from(BAD_VALUES))
    elif kind == "falsy_split" and isinstance(rec, dict):
        rec["split"] = copy.deepcopy(draw(st.sampled_from(FALSY)))  # later mutations must not edit FALSY
    elif kind == "unknown_id" and (ids := sorted(set(_ids_of(rec)))):
        for i, old in enumerate(draw(st.lists(st.sampled_from(ids), max_size=12, unique=True))):
            rec = _rename(rec, old, f"ghost{i}")
    return rec


def _eval(argv) -> tuple[int, str]:
    """cli.main(argv)'s exit code and standard error; the warnings of
    skipped entries are ignored here, standard output is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("task", TASKS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_problem_file_gives_results_or_one_error_line(fuzz_env, task, data):
    micro_dir, model, records, work = fuzz_env
    draw = data.draw
    rec = copy.deepcopy(records[task])
    for _ in range(draw(st.integers(0, 3))):
        rec = _mutate(draw, rec)
    layout = draw(st.sampled_from(["record", "list", "with_valid", "other"]))
    content = {"record": rec, "list": [rec], "with_valid": [records[task], rec]}.get(layout)
    if layout == "other":
        content = draw(JSON_VALUES)
    problems, results = work / f"{task}.json", work / f"{task}.results.json"
    problems.write_text(json.dumps(content))
    results.unlink(missing_ok=True)
    code, err = _eval(["eval", task, "--model", str(model), "--problems", str(problems), "--results", str(results),
                       "--instances", micro_dir["instances"], "--subclass", micro_dir["subclass"]])
    if code == 0:
        assert err == "" and isinstance(json.loads(results.read_text()), dict)
    else:
        assert code == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert not results.exists()
