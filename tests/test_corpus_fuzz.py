"""Fuzzing of the corpus file.

Whatever a JSON-lines corpus file holds, `load_corpus` either returns the
documents `reference_impls.ref_load_corpus` returns, field by field and with
equal tokens one string object, or raises the same exception type with the
same message, CorpusParseError or CorpusValidationError.  `typespace train`
on a file the loader rejects prints one `error:` line and exits 1; the
documents of a file it accepts go through the rest of ingest.  The files are
drawn from valid records with fields, sentences or tokens dropped or given
values of other JSON types, mention sentences and spans out of range or
overlapping, document ids repeated, lines cut or spliced, and blank, padded
or deeply nested lines in between.  Nothing is coerced: sentences and mentions must be lists, a
token a string, and a mention's sentence and span bounds integers.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_impls import ref_load_corpus
from typespace import cli
from typespace.ingest import (
    CorpusParseError,
    CorpusValidationError,
    Document,
    EmptyVocabularyError,
    Mention,
    build_vocab_and_catalog,
    count_entity_word,
    count_word_word,
    load_corpus,
)

# Tokens in several cases, so lowercasing merges some.  A token of another
# JSON type comes from _mutate.
WORDS = ("The", "the", "THE", "Tower", "tower", "is", "TALL", "Ünïcode", "ǅ")
TOKENS = st.sampled_from(WORDS)
IDS = st.sampled_from(("E0", "E1", "e0", "Ghost"))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([2**70, -1, 0, 1e400, -1e400, "0", "x"]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
SPLICE_TEXT = st.text(alphabet='[]{}",:0123456789eE.-+ \tnul\\', max_size=6)


@st.composite
def records(draw):
    """One valid corpus record: its mentions address spans inside their
    sentences, without overlaps."""
    sentences = draw(st.lists(st.lists(TOKENS, max_size=6), max_size=4))
    mentions = []
    for s, sent in enumerate(sentences):
        end = 0
        for _ in range(draw(st.integers(0, 2))):
            if end == len(sent):
                break
            start = draw(st.integers(end, len(sent) - 1))
            end = draw(st.integers(start + 1, len(sent)))
            mentions.append({"entity": draw(IDS), "sentence": s, "span": [start, end]})
    rec = {"doc_id": draw(st.text(max_size=3)), "sentences": sentences, "mentions": draw(st.permutations(mentions))}
    article_of = draw(st.sampled_from(["absent", None]) | IDS)
    if article_of != "absent":
        rec["article_of"] = article_of
    return rec


def _value_paths(value, prefix=()):
    """The path of value and of every value nested in it."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    return [prefix] + [p for key, v in items for p in _value_paths(v, prefix + (key,))]


def _mutate(draw, rec):
    """rec with one change: a value replaced or deleted (a field, a sentence,
    a token, a mention or a part of one), a mention stripped of some of its
    fields, or a mention moved out of its sentence or onto another mention."""
    mentions = [m for m in rec.get("mentions") or () if isinstance(m, dict)] if isinstance(rec, dict) else []
    kind = draw(st.sampled_from(["replace", "delete", "strip", "move", "move", "overlap", "overlap"]))
    if kind == "strip" and mentions:
        m = draw(st.sampled_from(mentions))
        for key in draw(st.lists(st.sampled_from(sorted(m)), unique=True, min_size=1)) if m else ():
            del m[key]
    elif kind == "move" and mentions:
        m = draw(st.sampled_from(mentions))
        m[draw(st.sampled_from(["sentence", "span"]))] = draw(
            st.integers(-2, 8) | st.lists(st.integers(-2, 8), min_size=2, max_size=3)
        )
    elif kind == "overlap" and mentions and isinstance(rec["mentions"], list):
        m = draw(st.sampled_from(mentions))
        span = m.get("span")
        if isinstance(span, list) and len(span) == 2 and all(type(x) is int for x in span):
            shift = draw(st.integers(-1, 1))
            rec["mentions"].insert(draw(st.integers(0, len(rec["mentions"]))),
                                   {**m, "entity": draw(IDS), "span": [span[0] + shift, span[1] + shift]})
    elif kind in ("replace", "delete") and (paths := _value_paths(rec)[1:]):
        path = draw(st.sampled_from(paths))
        obj = rec
        for key in path[:-1]:
            obj = obj[key]
        if kind == "delete":
            del obj[path[-1]]
        else:
            obj[path[-1]] = draw(JSON_VALUES)
    return rec


# Padding json.loads skips, and padding it rejects.
JSON_SPACE = st.sampled_from(["", " ", "\t", " \t"])
OTHER_SPACE = st.sampled_from(["\x0b", "\xa0", "\ufeff", "\u2028"])


@st.composite
def corpus_lines(draw):
    """The lines of a corpus file: valid records of distinct ids padded
    with JSON whitespace or between blank lines, at times one more record
    repeating an earlier id, in about half the files one record broken by
    changes to its values or to its line, and at times a deeply nested
    line."""
    recs = draw(st.lists(records(), max_size=4, unique_by=lambda rec: rec["doc_id"]))
    if recs and draw(st.sampled_from([False] * 4 + [True])):
        recs.append({**draw(records()), "doc_id": draw(st.sampled_from(recs))["doc_id"]})
    lines = [draw(JSON_SPACE) + json.dumps(rec) + draw(JSON_SPACE) for rec in recs]
    if recs and draw(st.booleans()):
        k = draw(st.integers(0, len(recs) - 1))
        rec = recs[k]
        edit = draw(st.sampled_from(["values", "values", "values", "cut", "splice", "lead", "trail"]))
        for _ in range(draw(st.integers(1, 2)) if edit == "values" else 0):
            rec = _mutate(draw, rec)
        line = json.dumps(rec)
        at = draw(st.integers(0, len(line)))
        if edit == "cut":
            line = line[:at]
        elif edit == "splice":
            line = line[:at] + draw(SPLICE_TEXT) + line[at + draw(st.integers(0, 3)) :]
        elif edit == "lead":
            line = draw(OTHER_SPACE) + line
        elif edit == "trail":
            line = line + draw(OTHER_SPACE)
        lines[k] = line
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    if draw(st.sampled_from([False] * 9 + [True])):
        lines.insert(draw(st.integers(0, len(lines))), "[" * 5000)
    return lines


def _outcome(loader, path):
    """(documents, None) or (None, the exception loader raised)."""
    try:
        return loader(path), None
    except Exception as exc:  # compared by type and message below
        return None, exc


def _assert_same_documents(got, want):
    assert len(got) == len(want)
    tokens = {}
    for g, w in zip(got, want):
        assert type(g) is Document
        assert g == w
        assert (g.doc_id, g.sentences, g.article_of) == (w.doc_id, w.sentences, w.article_of)
        for gm, wm in zip(g.mentions, w.mentions, strict=True):
            assert type(gm) is Mention and gm == wm
            assert type(gm.sentence) is int and all(type(x) is int for x in gm.span)
        for token in (t for sent in g.sentences for t in sent):
            assert tokens.setdefault(token, token) is token, "equal tokens are one object"


def _train(corpus, out) -> tuple[int, str]:
    """`typespace train` on corpus: its exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["train", "--corpus", str(corpus), "--out", str(out)])
    return code, err.getvalue()


def _line(rec, **fields):
    return json.dumps({**rec, **fields})


_DOC = {"doc_id": "d", "sentences": [["a", "b"]], "mentions": [{"entity": "e", "sentence": 0, "span": [0, 1]}]}
_MENTION = _DOC["mentions"][0]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus_fuzz")


@settings(max_examples=300, deadline=None)
@given(lines=corpus_lines())
@example(lines=[_line(_DOC, mentions=[{**_MENTION, "sentence": math.inf}])])
@example(lines=['{"doc_id": "d", "sentences": [], "mentions": [{"entity": "e", "sentence": 1e400, "span": [0, 1]}]}'])
@example(lines=[_line(_DOC), "[" * 100000])
@example(lines=[_line(_DOC, mentions=[{**_MENTION, "entity": ["x"]}])])
@example(lines=[_line(_DOC, doc_id=["x"])])
@example(lines=[_line(_DOC, article_of={"a": 1})])
@example(lines=[_line(_DOC, doc_id=["x"], sentences=None)])  # the first failing step is named
@example(lines=['{"mentions": []}'])
@example(lines=[_line(_DOC, mentions=[{"sentence": 0}])])  # neither entity nor span: the entity is named
@example(lines=[_line(_DOC, mentions=[_MENTION, {**_MENTION, "span": [0, 2]}])])
@example(lines=[_line(_DOC, sentences=[["a", None, ["b"]]])])  # the first bad token is named
@example(lines=[_line(_DOC, sentences=[["a", ["b"], 1]])])
@example(lines=[_line(_DOC, sentences=[["a", {"b": 1}]])])
@example(lines=[_line(_DOC, sentences=[["a", True]])])
@example(lines=[_line(_DOC, sentences=[["a", 1.5]])])
@example(lines=[_line(_DOC, sentences=["ab"])])  # a sentence that is a string
@example(lines=[_line(_DOC, sentences={"ab": ["a"]})])
@example(lines=[_line(_DOC, mentions="")])  # a string or an object of no mentions
@example(lines=[_line(_DOC, mentions={})])
@example(lines=[_line(_DOC, mentions=[{**_MENTION, "sentence": True}])])
@example(lines=[_line(_DOC, mentions=[{**_MENTION, "sentence": "0"}])])
@example(lines=[_line(_DOC, mentions=[{**_MENTION, "sentence": 0.0}])])
@example(lines=[_line(_DOC, mentions=[{**_MENTION, "span": [0, 1.0]}])])
@example(lines=[_line(_DOC, mentions=[{**_MENTION, "span": [False, 1]}])])
@example(lines=[_line(_DOC, mentions=[{**_MENTION, "span": "01"}])])
@example(lines=[_line(_DOC, mentions=[{**_MENTION, "span": [0, 1, 2]}])])
@example(lines=[_line(_DOC, mentions=[{**_MENTION, "span": [0]}])])
@example(lines=[_line(_DOC, mentions=[{**_MENTION, "span": [0, 1]}, {"entity": 1, "sentence": 0}])])  # a missing field first
@example(lines=[_line(_DOC), "", _line(_DOC, doc_id="d2"), _line(_DOC, sentences=[])])  # a repeated id on line 4
def test_loader_matches_reference_and_cli_errors_in_one_line(work, lines):
    corpus = work / "corpus.jsonl"
    corpus.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    got, got_exc = _outcome(load_corpus, corpus)
    want, want_exc = _outcome(ref_load_corpus, corpus)
    if want_exc is not None:
        assert isinstance(want_exc, (CorpusParseError, CorpusValidationError)), repr(want_exc)
        assert type(got_exc) is type(want_exc) and str(got_exc) == str(want_exc)
        code, err = _train(corpus, work / "model.bin")
        assert code == 1 and err == f"error: {want_exc}\n"
        return
    assert got_exc is None, repr(got_exc)
    _assert_same_documents(got, want)
    try:  # the loaded documents go through the rest of ingest
        vocab, catalog = build_vocab_and_catalog(got, 1, 1)
    except EmptyVocabularyError:
        return
    count_word_word(got, vocab)
    count_entity_word(got, vocab, catalog)
