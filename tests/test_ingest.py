import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reference_impls import (
    ref_count_entity_word,
    ref_count_word_word,
    ref_load_corpus,
    ref_load_type_system,
    ref_most_specific_common_type,
)
from typespace import ingest, synth
from typespace.ingest import (
    CorpusParseError,
    CorpusValidationError,
    Document,
    EmptyVocabularyError,
    Mention,
    NoCommonTypeError,
    SubclassCycleError,
    build_vocab_and_catalog,
    count_entity_word,
    count_word_word,
    load_corpus,
    load_triples,
    load_type_system,
    most_specific_common_type,
)


def write_corpus(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def doc(doc_id="d0", sentences=(("a", "b"),), mentions=(), article_of=None):
    return Document(
        doc_id=doc_id,
        sentences=tuple(tuple(s) for s in sentences),
        mentions=tuple(mentions),
        article_of=article_of,
    )


class TestLoadCorpus:
    def test_single_document_round_trip(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_corpus(
            p,
            [
                {
                    "doc_id": "d1",
                    "article_of": None,
                    "sentences": [["the", "tower"]],
                    "mentions": [{"entity": "e1", "sentence": 0, "span": [1, 2]}],
                }
            ],
        )
        docs = load_corpus(p)
        assert len(docs) == 1
        assert docs[0].doc_id == "d1"
        assert docs[0].sentences == (("the", "tower"),)
        assert docs[0].mentions == (Mention("e1", 0, (1, 2)),)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        assert load_corpus(p) == []

    def test_span_past_sentence_end_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_corpus(
            p,
            [{"doc_id": "d1", "sentences": [["a", "b"]], "mentions": [{"entity": "e", "sentence": 0, "span": [1, 3]}]}],
        )
        with pytest.raises(CorpusValidationError):
            load_corpus(p)

    def test_overlapping_spans_error_names_document(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_corpus(
            p,
            [
                {
                    "doc_id": "dX",
                    "sentences": [["a", "b", "c"]],
                    "mentions": [
                        {"entity": "e1", "sentence": 0, "span": [0, 2]},
                        {"entity": "e2", "sentence": 0, "span": [1, 3]},
                    ],
                }
            ],
        )
        with pytest.raises(CorpusValidationError, match="dX"):
            load_corpus(p)

    def test_adjacent_spans_load(self, tmp_path):
        # A span may end where the next one starts; a lone mention and a
        # mention-free document skip the overlap scan but still load.
        p = tmp_path / "c.jsonl"
        mentions = [
            {"entity": "e2", "sentence": 0, "span": [1, 3]},
            {"entity": "e1", "sentence": 0, "span": [0, 1]},
            {"entity": "e3", "sentence": 1, "span": [0, 1]},
        ]
        write_corpus(p, [
            {"doc_id": "d1", "sentences": [["a", "b", "c"], ["d"]], "mentions": mentions},
            {"doc_id": "d2", "sentences": [["a"]], "mentions": [{"entity": "e1", "sentence": 0, "span": [0, 1]}]},
            {"doc_id": "d3", "sentences": [["a"]], "mentions": []},
        ])
        docs = load_corpus(p)
        assert [len(d.mentions) for d in docs] == [3, 1, 0]

    @pytest.mark.parametrize("mentions, message", [
        (
            [{"entity": "e1", "sentence": 0, "span": [1, 3]}, {"entity": "e2", "sentence": 0, "span": [0, 2]}],
            "document 'dX' (line 2): overlapping mention spans (0, 2) and (1, 3) in sentence 0",
        ),
        (
            [{"entity": "e1", "sentence": 0, "span": [2, 4]}],
            "document 'dX' (line 2): mention span (2, 4) of 'e1' outside sentence of length 3",
        ),
        (
            [{"entity": "e1", "sentence": 1, "span": [0, 1]}],
            "document 'dX' (line 2): mention of 'e1' addresses missing sentence 1",
        ),
    ], ids=["overlap", "span", "sentence"])
    def test_validation_messages(self, tmp_path, mentions, message):
        p = tmp_path / "c.jsonl"
        write_corpus(p, [
            {"doc_id": "ok", "sentences": [["a"]], "mentions": []},
            {"doc_id": "dX", "sentences": [["a", "b", "c"]], "mentions": mentions},
        ])
        with pytest.raises(CorpusValidationError) as exc:
            load_corpus(p)
        assert str(exc.value) == message

    def test_malformed_record_reports_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"doc_id": "ok", "sentences": [], "mentions": []}\n{"nope": 1}\n')
        with pytest.raises(CorpusParseError, match="line 2"):
            load_corpus(p)

    @pytest.mark.parametrize("line, detail", [
        ('{"doc_id": "d", "sentences": [["a"]], "mentions": [{"entity": "e", "sentence": 1e400, "span": [0, 1]}]}',
         "sentence of mention 0 is not an integer"),
        ("[" * 100000, "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
        ('{"doc_id": "d", "sentences": [["a"]], "mentions": [{"entity": ["x"], "sentence": 0, "span": [0, 1]}]}',
         "entity of mention 0 is not a string"),
        ('{"doc_id": ["x"], "sentences": [["a"]], "mentions": []}', "doc_id is not a string"),
        ('{"doc_id": "d", "sentences": [["a"]], "article_of": {"a": 1}}', "article_of is neither a string nor null"),
        ('{"doc_id": "d", "sentences": [["a", null]]}', "token None is not a string"),
        ('{"doc_id": "d", "sentences": [["a", 1, ["b"]]]}', "token 1 is not a string"),
        ('{"doc_id": "d", "sentences": [["a", ["b"], 1]]}', "token ['b'] is not a string"),
        ('{"doc_id": "d", "sentences": ["ab"]}', "sentences is not a list of token lists"),
        ('{"doc_id": "d", "sentences": [["a"]], "mentions": ""}', "mentions is not a list"),
        ('{"doc_id": "d", "sentences": [["a"]], "mentions": [{"entity": "e", "sentence": true, "span": [0, 1]}]}',
         "sentence of mention 0 is not an integer"),
        ('{"doc_id": "d", "sentences": [["a"]], "mentions": [{"entity": "e", "sentence": "0", "span": [0, 1]}]}',
         "sentence of mention 0 is not an integer"),
        ('{"doc_id": "d", "sentences": [["a"]], "mentions": [{"entity": "e", "sentence": 0, "span": [0, 1.0]}]}',
         "span of mention 0 is not a list of two integers"),
        ('{"doc_id": "d", "sentences": [["a"]], "mentions": [{"entity": "e", "sentence": 0, "span": [0, 1, 1]}]}',
         "span of mention 0 is not a list of two integers"),
    ], ids=["infinite_sentence", "deep_nesting", "list_entity", "list_doc_id", "dict_article_of", "null_token",
            "int_token", "list_token", "string_sentence", "string_mentions", "bool_sentence_index", "string_sentence_index",
            "float_span_bound", "three_span_bounds"])
    def test_malformed_value_is_a_parse_error(self, tmp_path, line, detail):
        p = tmp_path / "c.jsonl"
        p.write_text('{"doc_id": "ok", "sentences": [], "mentions": []}\n' + line + "\n")
        with pytest.raises(CorpusParseError) as exc:
            load_corpus(p)
        assert str(exc.value) == f"{p}: malformed corpus record on line 2: {detail}"

    def test_tokens_lowercased(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_corpus(p, [{"doc_id": "d", "sentences": [["Hello", "WORLD"]], "mentions": []}])
        assert load_corpus(p)[0].sentences == (("hello", "world"),)

    def test_equal_tokens_are_one_object(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_corpus(
            p,
            [
                {"doc_id": "d1", "sentences": [["The", "tower"], ["tower"]], "mentions": []},
                {"doc_id": "d2", "sentences": [["TOWER", "the"]], "mentions": []},
            ],
        )
        (d1, d2) = load_corpus(p)
        assert d1.sentences[0][1] is d1.sentences[1][0] is d2.sentences[0][0]
        assert d1.sentences[0][0] is d2.sentences[0][1]

    def test_unknown_entities_retained(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_corpus(
            p,
            [{"doc_id": "d", "sentences": [["x"]], "mentions": [{"entity": "ghost", "sentence": 0, "span": [0, 1]}]}],
        )
        docs = load_corpus(p)
        assert docs[0].mentions[0].entity == "ghost"


class TestVocabAndCatalog:
    def test_three_distinct_words(self):
        docs = [doc(sentences=(("x", "y", "z"),))]
        vocab, _ = build_vocab_and_catalog(docs, min_count=1, min_doc_mentions=1)
        assert len(vocab) == 3

    def test_word_below_threshold_dropped(self):
        # 9 occurrences with min_count=10: dropped.
        docs = [doc(sentences=(tuple(["w"] * 9 + ["pad"] * 10),))]
        vocab, _ = build_vocab_and_catalog(docs, min_count=10, min_doc_mentions=1)
        assert "w" not in vocab.index
        assert "pad" in vocab.index

    def test_entity_boundary_inclusive(self):
        m = Mention("e1", 0, (0, 1))
        docs = [doc(doc_id="d1", mentions=(m,)), doc(doc_id="d2", mentions=(m,))]
        _, catalog = build_vocab_and_catalog(docs, min_count=1, min_doc_mentions=2)
        assert "e1" in catalog.index

    def test_same_doc_mentions_count_once(self):
        docs = [doc(doc_id="d1", sentences=(("a", "b"), ("c", "d")), mentions=(Mention("e1", 0, (0, 1)), Mention("e1", 1, (0, 1))))]
        _, catalog = build_vocab_and_catalog(docs, min_count=1, min_doc_mentions=2)
        assert "e1" not in catalog.index

    def test_empty_vocabulary_error(self):
        docs = [doc(sentences=(("rare",),))]
        with pytest.raises(EmptyVocabularyError):
            build_vocab_and_catalog(docs, min_count=2, min_doc_mentions=1)

    def test_index_order_frequency_then_id(self):
        docs = [doc(sentences=(("b", "b", "a", "a", "c"),))]
        vocab, _ = build_vocab_and_catalog(docs, min_count=1, min_doc_mentions=1)
        assert vocab.words == ("a", "b", "c")


def _weight(table, row, col):
    """The weight of a table's (row, col) entry, or None when it has none."""
    hit = np.flatnonzero((table.rows == row) & (table.cols == col))
    assert hit.size <= 1, "duplicate entry"
    return float(table.weights[hit[0]]) if hit.size else None


class TestCountWordWord:
    def test_adjacent_pair(self):
        docs = [doc(sentences=(("a", "b"),))]
        vocab, _ = build_vocab_and_catalog(docs, 1, 1)
        table = count_word_word(docs, vocab, window=10)
        ia, ib = vocab.index["a"], vocab.index["b"]
        assert _weight(table, ia, ib) == 1.0
        assert _weight(table, ib, ia) == 1.0

    def test_outside_window_absent(self):
        docs = [doc(sentences=(("a", "b", "c"),))]
        vocab, _ = build_vocab_and_catalog(docs, 1, 1)
        table = count_word_word(docs, vocab, window=1)
        assert _weight(table, vocab.index["a"], vocab.index["c"]) is None

    def test_distance_weighting_skips_oov(self):
        docs = [doc(sentences=(("a", "x", "b"), ("a", "pad", "pad"), ("b", "pad", "pad")))]
        vocab, _ = build_vocab_and_catalog(docs, 2, 1)  # "x" occurs once: dropped
        assert "x" not in vocab.index
        table = count_word_word([doc(sentences=(("a", "x", "b"),))], vocab, window=10)
        assert _weight(table, vocab.index["a"], vocab.index["b"]) == 0.5

    def test_sentence_boundary_not_crossed(self):
        docs = [doc(sentences=(("a",), ("b",)))]
        vocab, _ = build_vocab_and_catalog(docs, 1, 1)
        table = count_word_word(docs, vocab, window=10)
        assert len(table) == 0

    def test_entrywise_symmetry(self):
        rng = np.random.default_rng(0)
        words = ["w%d" % i for i in range(8)]
        sents = tuple(tuple(rng.choice(words, size=rng.integers(2, 9))) for _ in range(20))
        docs = [doc(sentences=sents)]
        vocab, _ = build_vocab_and_catalog(docs, 1, 1)
        table = count_word_word(docs, vocab, window=3)
        for i, j, w in zip(table.rows, table.cols, table.weights):
            assert _weight(table, j, i) == w

    def test_all_weights_positive_finite(self):
        docs = [doc(sentences=(("a", "b", "a", "c", "b"),))]
        vocab, _ = build_vocab_and_catalog(docs, 1, 1)
        table = count_word_word(docs, vocab, window=4)
        assert np.all(table.weights > 0)
        assert np.all(np.isfinite(table.weights))


class TestCountEntityWord:
    def _setup(self, sentences, mentions):
        docs = [doc(sentences=sentences, mentions=mentions)]
        vocab, _ = build_vocab_and_catalog(docs, 1, 1)
        catalog = ingest.EntityCatalog(tuple(sorted({m.entity for m in mentions})), tuple(1 for _ in {m.entity for m in mentions}), 0)
        return docs, vocab, catalog

    def test_window_around_span(self):
        docs, vocab, catalog = self._setup((("the", "tower", "is", "tall"),), (Mention("E", 0, (1, 2)),))
        table = count_entity_word(docs, vocab, catalog, window=10)
        e = catalog.index["E"]
        assert _weight(table, e, vocab.index["the"]) == 1.0
        assert _weight(table, e, vocab.index["is"]) == 1.0
        assert _weight(table, e, vocab.index["tall"]) == 1.0
        # the span's own token is excluded
        assert _weight(table, e, vocab.index["tower"]) is None

    def test_window_cutoff(self):
        docs, vocab, catalog = self._setup((("e", "a", "b", "c"),), (Mention("E", 0, (0, 1)),))
        table = count_entity_word(docs, vocab, catalog, window=2)
        e = catalog.index["E"]
        assert _weight(table, e, vocab.index["c"]) is None
        assert _weight(table, e, vocab.index["a"]) == 1.0
        assert _weight(table, e, vocab.index["b"]) == 1.0

    def test_two_mentions_additive(self):
        docs, vocab, catalog = self._setup(
            (("e", "w"), ("e", "w")),
            (Mention("E", 0, (0, 1)), Mention("E", 1, (0, 1))),
        )
        table = count_entity_word(docs, vocab, catalog, window=5)
        assert _weight(table, catalog.index["E"], vocab.index["w"]) == 2.0

    def test_article_document_counts_all_tokens(self):
        docs = [doc(doc_id="art", sentences=(("alpha", "beta"), ("beta", "gamma")), article_of="E")]
        vocab, _ = build_vocab_and_catalog(docs, 1, 1)
        catalog = ingest.EntityCatalog(("E",), (1,), 0)
        table = count_entity_word(docs, vocab, catalog, window=10)
        e = catalog.index["E"]
        assert _weight(table, e, vocab.index["alpha"]) == 1.0
        assert _weight(table, e, vocab.index["beta"]) == 2.0
        assert _weight(table, e, vocab.index["gamma"]) == 1.0

    def test_other_mention_tokens_are_context(self):
        # Tokens inside ANOTHER mention's span still count as context.
        docs = [
            doc(
                sentences=(("alpha", "beta"),),
                mentions=(Mention("E", 0, (0, 1)), Mention("F", 0, (1, 2))),
            )
        ]
        vocab, _ = build_vocab_and_catalog(docs, 1, 1)
        catalog = ingest.EntityCatalog(("E", "F"), (1, 1), 0)
        table = count_entity_word(docs, vocab, catalog, window=5)
        assert _weight(table, catalog.index["E"], vocab.index["beta"]) == 1.0
        assert _weight(table, catalog.index["F"], vocab.index["alpha"]) == 1.0

    def test_unknown_entity_mentions_skipped(self):
        docs = [doc(sentences=(("w", "q"),), mentions=(Mention("ghost", 0, (0, 1)),))]
        vocab, _ = build_vocab_and_catalog(docs, 1, 1)
        catalog = ingest.EntityCatalog(("real",), (1,), 0)
        assert len(count_entity_word(docs, vocab, catalog, window=5)) == 0


def _identical(got, want):
    """Same kind, and rows, cols and weights equal bit for bit, dtypes included."""
    assert got.kind == want.kind
    for name in ("rows", "cols", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


_WORDS = ("a", "b", "c", "d", "e", "f")  # few words: repeats and same-word neighbours are common
_ENTITIES = ("E0", "E1", "E2", "E3")


@st.composite
def _corpora(draw):
    """Documents over a few words, a vocabulary that leaves some of them
    out, and a catalog that leaves some mentioned entities out."""
    docs = []
    for k in range(draw(st.integers(0, 6))):
        sentences = tuple(
            tuple(draw(st.lists(st.sampled_from(_WORDS), max_size=12))) for _ in range(draw(st.integers(0, 4)))
        )
        mentions = []
        for s, sent in enumerate(sentences):
            for _ in range(draw(st.integers(0, 2)) if sent else 0):
                start = draw(st.integers(0, len(sent) - 1))
                end = draw(st.integers(start + 1, len(sent)))
                mentions.append(Mention(draw(st.sampled_from(_ENTITIES)), s, (start, end)))
        article_of = draw(st.none() | st.sampled_from(_ENTITIES))
        docs.append(doc(doc_id=f"d{k}", sentences=sentences, mentions=mentions, article_of=article_of))
    words = draw(st.lists(st.sampled_from(_WORDS), unique=True, min_size=1))
    vocab = ingest.Vocabulary(tuple(words))
    entities = draw(st.lists(st.sampled_from(_ENTITIES), unique=True))
    return docs, vocab, _catalog(*entities)


# The empty inputs of the merge: no chunk at all, and one chunk with nothing to count, on which
# np.bincount returns int64 sums.
_EMPTY_CORPUS = ([], ingest.Vocabulary(("a",)), ingest.EntityCatalog((), (), 0))
_NOTHING_COUNTED = ([doc(sentences=((), ("b",)))], *_EMPTY_CORPUS[1:])


class TestCountersMatchLoops:
    """The array counters against the loops they replaced, over corpora with
    out-of-vocabulary tokens, empty sentences, windows longer than a
    sentence and, through a small chunk size, many chunks."""

    @settings(max_examples=300, deadline=None)
    @given(corpus=_corpora(), window=st.integers(1, 14), chunk=st.integers(1, 40))
    @example(corpus=_EMPTY_CORPUS, window=1, chunk=1)
    @example(corpus=_NOTHING_COUNTED, window=1, chunk=1)
    def test_word_word_bit_identical(self, corpus, window, chunk):
        docs, vocab, _ = corpus
        with mock.patch.object(ingest, "_CHUNK_TOKENS", chunk):
            got = count_word_word(docs, vocab, window)
        _identical(got, ref_count_word_word(docs, vocab, window))

    @settings(max_examples=300, deadline=None)
    @given(corpus=_corpora(), window=st.integers(1, 14), chunk=st.integers(1, 40))
    @example(corpus=_EMPTY_CORPUS, window=1, chunk=1)
    @example(corpus=_NOTHING_COUNTED, window=1, chunk=1)
    def test_entity_word_bit_identical(self, corpus, window, chunk):
        docs, vocab, catalog = corpus
        with mock.patch.object(ingest, "_CHUNK_TOKENS", chunk):
            got = count_entity_word(docs, vocab, catalog, window)
        _identical(got, ref_count_entity_word(docs, vocab, catalog, window))

    def test_corpus_of_several_default_chunks(self):
        # About four chunks at the module's own chunk size; Zipf-like word
        # frequencies leave the rare words out of the vocabulary.
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(60)]
        freq = 1.0 / np.arange(1, 61)
        docs = []
        for k in range(600):
            sentences = [
                tuple(rng.choice(words, size=rng.integers(1, 25), p=freq / freq.sum()).tolist())
                for _ in range(rng.integers(1, 8))
            ]
            mentions = [Mention(f"E{rng.integers(12)}", s, (0, 1)) for s in range(len(sentences))]
            docs.append(doc(doc_id=f"d{k}", sentences=sentences, mentions=mentions, article_of=f"E{k % 15}"))
        assert sum(len(s) for d in docs for s in d.sentences) > 3 * ingest._CHUNK_TOKENS
        vocab, _ = build_vocab_and_catalog(docs, min_count=200, min_doc_mentions=1)
        assert 0 < len(vocab) < len(words)
        catalog = _catalog(*(f"E{i}" for i in range(0, 15, 2)))
        for window in (1, 10):
            _identical(count_word_word(docs, vocab, window), ref_count_word_word(docs, vocab, window))
            _identical(
                count_entity_word(docs, vocab, catalog, window), ref_count_entity_word(docs, vocab, catalog, window)
            )

    def test_window_below_one_rejected(self):
        docs = [doc()]
        vocab, catalog = build_vocab_and_catalog(docs, 1, 1)
        with pytest.raises(ValueError, match="window must be >= 1"):
            count_word_word(docs, vocab, window=0)
        with pytest.raises(ValueError, match="window must be >= 1"):
            count_entity_word(docs, vocab, catalog, window=0)


def _catalog(*ids):
    return ingest.EntityCatalog(tuple(ids), tuple(1 for _ in ids), 0)


def _write_scaled_corpus(path, seed=3, n_entities=90, n_context=1200):
    """A corpus laid out like the benchmark's: one three-sentence article per
    entity, then context documents that mention three entities, one per
    sentence; words in mixed case, entity tokens at random positions.  A
    tenth of the articles are about entities no other document mentions."""
    rng = np.random.default_rng(seed)
    words = ["the", "River", "bridge", "TRAM", "of", "in", "Busy", "square", "was", "market", "is", "and"]
    entities = [f"x{i:03d}" for i in range(n_entities)]

    def sentence(entity):
        tokens = [w.upper() if rng.random() < 0.1 else w for w in rng.choice(words, size=int(rng.integers(3, 9)))]
        pos = int(rng.integers(len(tokens) + 1))
        return tokens[:pos] + [entity] + tokens[pos:], [pos, pos + 1]

    records = []
    for i, e in enumerate(entities):
        subject = e if i % 10 else f"lone{i}"
        sents = [sentence(subject) for _ in range(3)]
        mentions = [{"entity": subject, "sentence": s, "span": span} for s, (_, span) in enumerate(sents)]
        records.append({"doc_id": f"art_{subject}", "article_of": subject, "sentences": [t for t, _ in sents],
                        "mentions": mentions})
    for d in range(n_context):
        sents = [(e, *sentence(e)) for e in rng.choice(entities, size=3, replace=False).tolist()]
        mentions = [{"entity": e, "sentence": s, "span": span} for s, (e, _, span) in enumerate(sents)]
        records.append({"doc_id": f"ctx_{d:05d}", "article_of": None, "sentences": [t for _, t, _ in sents],
                        "mentions": mentions})
    write_corpus(path, records)


class TestIngestMatchesReference:
    """load_corpus, the vocabulary and catalog built from its documents, and
    both co-occurrence tables, against ref_load_corpus and the reference
    counting loops: equal, the tables bit for bit."""

    @pytest.fixture(params=["micro", "scaled"])
    def corpus(self, request, micro_dir, tmp_path):
        """(corpus path, min_count, min_doc_mentions)."""
        if request.param == "micro":
            return micro_dir["corpus"], 3, 3
        path = tmp_path / "scaled.jsonl"
        _write_scaled_corpus(path)
        return path, 1, 2

    def test_bit_identical(self, corpus):
        path, min_count, min_mentions = corpus
        docs, ref_docs = load_corpus(path), ref_load_corpus(path)
        assert docs == ref_docs
        vocab, catalog = build_vocab_and_catalog(docs, min_count, min_mentions)
        ref_vocab, ref_catalog = build_vocab_and_catalog(ref_docs, min_count, min_mentions)
        assert vocab.words == ref_vocab.words and vocab.index == ref_vocab.index
        assert (catalog.ids, catalog.doc_mentions) == (ref_catalog.ids, ref_catalog.doc_mentions)
        for window in (1, 10):
            _identical(count_word_word(docs, vocab, window), ref_count_word_word(ref_docs, ref_vocab, window))
        # Every other entity of the catalog: mentions and articles of the rest are skipped.
        part = _catalog(*catalog.ids[::2])
        assert any(m.entity not in part.index for d in docs for m in d.mentions)
        assert any(d.article_of is not None and d.article_of not in part.index for d in docs)
        for cat in (catalog, part):
            _identical(count_entity_word(docs, vocab, cat), ref_count_entity_word(ref_docs, ref_vocab, cat))


class TestTypeSystem:
    def test_closure_through_subclass(self, tmp_path):
        (tmp_path / "inst.tsv").write_text("e1\tperson\n")
        (tmp_path / "sub.tsv").write_text("person\tagent\n")
        ts = load_type_system(tmp_path / "inst.tsv", tmp_path / "sub.tsv", _catalog("e1"))
        assert ts.instances["person"] == (0,)
        assert ts.instances["agent"] == (0,)

    def test_flat_type(self, tmp_path):
        (tmp_path / "inst.tsv").write_text("e1\tt\n")
        (tmp_path / "sub.tsv").write_text("")
        ts = load_type_system(tmp_path / "inst.tsv", tmp_path / "sub.tsv", _catalog("e1"))
        assert ts.instances["t"] == (0,)

    def test_cycle_detected(self, tmp_path):
        (tmp_path / "inst.tsv").write_text("e1\tt\n")
        (tmp_path / "sub.tsv").write_text("t\tu\nu\tt\n")
        with pytest.raises(SubclassCycleError, match="->"):
            load_type_system(tmp_path / "inst.tsv", tmp_path / "sub.tsv", _catalog("e1"))

    def test_unknown_entity_assertion_dropped_with_warning(self, tmp_path):
        (tmp_path / "inst.tsv").write_text("e1\tt\nnobody\tt\n")
        (tmp_path / "sub.tsv").write_text("")
        with pytest.warns(UserWarning):
            ts = load_type_system(tmp_path / "inst.tsv", tmp_path / "sub.tsv", _catalog("e1"))
        assert ts.instances["t"] == (0,)

    def test_empty_types_dropped(self, tmp_path):
        (tmp_path / "inst.tsv").write_text("e1\ta\n")
        (tmp_path / "sub.tsv").write_text("b\tc\n")  # b, c never instantiated
        ts = load_type_system(tmp_path / "inst.tsv", tmp_path / "sub.tsv", _catalog("e1"))
        assert set(ts.type_ids) == {"a"}

    def test_closure_monotone_random_dags(self, tmp_path):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n_types = 6
            edges = []
            for child in range(1, n_types):
                for parent in range(child):
                    if rng.random() < 0.4:
                        edges.append((f"t{child}", f"t{parent}"))
            ids = [f"e{i}" for i in range(8)]
            inst = [(ids[int(rng.integers(8))], f"t{int(rng.integers(n_types))}") for _ in range(10)]
            (tmp_path / "inst.tsv").write_text("".join(f"{e}\t{t}\n" for e, t in inst))
            (tmp_path / "sub.tsv").write_text("".join(f"{c}\t{p}\n" for c, p in edges))
            ts = load_type_system(tmp_path / "inst.tsv", tmp_path / "sub.tsv", _catalog(*ids))
            kept = set(ts.type_ids)
            for child, parent in edges:
                if child in kept and parent in kept:
                    assert set(ts.instances[child]) <= set(ts.instances[parent])

    def test_deep_chain_loads(self, tmp_path):
        # Deeper than Python's recursion limit: the closure must not recurse.
        (tmp_path / "inst.tsv").write_text("e1\tt0\n")
        (tmp_path / "sub.tsv").write_text("".join(f"t{i}\tt{i + 1}\n" for i in range(1500)))
        ts = load_type_system(tmp_path / "inst.tsv", tmp_path / "sub.tsv", _catalog("e1"))
        assert len(ts.ancestors["t0"]) == 1501
        assert ts.instances["t1500"] == (0,)

    @staticmethod
    def _load(loader, tmp_path):
        """(TypeSystem or the cycle error's message, warning messages)."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                got = loader(tmp_path / "inst.tsv", tmp_path / "sub.tsv", _catalog(*(f"e{i}" for i in range(5))))
            except SubclassCycleError as exc:
                got = str(exc)
        return got, [str(w.message) for w in caught]

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_recursive_loader(self, tmp_path, data):
        # Edges run from t_i up to t_j, j > i, so they form a DAG until a
        # back edge (j <= i, self-loops included) closes a cycle.  t6 and t7
        # appear only in instance rows, e5 and e6 are outside the catalog,
        # and edge types may have no instances at all.
        pair = st.tuples(st.integers(0, 5), st.integers(0, 5))
        up = data.draw(st.lists(pair.filter(lambda p: p[0] < p[1]), max_size=12))
        back = data.draw(st.lists(pair.filter(lambda p: p[0] >= p[1]), max_size=2))
        duplicates = data.draw(st.lists(st.sampled_from(up), max_size=3)) if up else []
        edges = data.draw(st.permutations(up + back + duplicates))
        rows = data.draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 7)), max_size=12))
        (tmp_path / "sub.tsv").write_text("".join(f"t{c}\tt{p}\n" for c, p in edges))
        (tmp_path / "inst.tsv").write_text("".join(f"e{e}\tt{t}\n" for e, t in rows))

        got, got_warnings = self._load(load_type_system, tmp_path)
        want, want_warnings = self._load(ref_load_type_system, tmp_path)
        assert got_warnings == want_warnings
        if not isinstance(want, str):
            assert got == want
            return
        # Both name a cycle, not necessarily the same one: a closed walk
        # along child -> parent edges of the file.
        file_edges = {(f"t{c}", f"t{p}") for c, p in edges}
        for message in (got, want):
            assert message.startswith("subclass cycle: ")
            names = message[len("subclass cycle: "):].split(" -> ")
            assert len(names) >= 2 and names[0] == names[-1]
            assert all(step in file_edges for step in zip(names, names[1:]))


class TestTriples:
    def test_single_triple_indexes(self, tmp_path):
        (tmp_path / "t.tsv").write_text("e1\tk\te2\n")
        store = load_triples(tmp_path / "t.tsv", _catalog("e1", "e2"))
        assert store.triples == ((0, 0, 1),)
        assert store.rhs[(0, 0)] == (1,)
        assert store.lhs[(0, 1)] == (0,)

    def test_duplicate_stored_once(self, tmp_path):
        (tmp_path / "t.tsv").write_text("e1\tk\te2\ne1\tk\te2\n")
        store = load_triples(tmp_path / "t.tsv", _catalog("e1", "e2"))
        assert len(store) == 1

    def test_unknown_entity_dropped_with_count(self, tmp_path):
        (tmp_path / "t.tsv").write_text("e1\tk\tghost\n")
        with pytest.warns(UserWarning, match="1 triple"):
            store = load_triples(tmp_path / "t.tsv", _catalog("e1"))
        assert len(store) == 0
        assert store.dropped == 1

    def test_malformed_line_reports_number(self, tmp_path):
        (tmp_path / "t.tsv").write_text("e1\tk\te2\nbroken line\n")
        with pytest.raises(CorpusParseError, match="line 2"):
            load_triples(tmp_path / "t.tsv", _catalog("e1", "e2"))

    @pytest.mark.parametrize("line", ["e1\t\te2", "e1\t \t\te2", "e1\tk\t\t"])
    def test_empty_field_rejected(self, tmp_path, line):
        # An empty relation or entity id is a malformed row, not an id; a
        # line's surrounding whitespace, tabs included, is not a field.
        (tmp_path / "t.tsv").write_text(f"e1\tk\te2\n{line}\n")
        fields = len(line.strip().split("\t"))
        message = "empty field" if fields == 3 else "expected 3 tab-separated fields"
        with pytest.raises(CorpusParseError) as exc:
            load_triples(tmp_path / "t.tsv", _catalog("e1", "e2"))
        assert str(exc.value) == f"{tmp_path / 't.tsv'}: {message} on line 2"

    def test_reserved_relations_excluded(self, tmp_path):
        (tmp_path / "t.tsv").write_text("e1\tinstance of\te2\ne1\tsubclass_of\te2\ne1\tk\te2\n")
        with pytest.warns(UserWarning):
            store = load_triples(tmp_path / "t.tsv", _catalog("e1", "e2"))
        assert store.relation_ids == ("k",)

    def test_comments_ignored(self, tmp_path):
        (tmp_path / "t.tsv").write_text("# comment\ne1\tk\te2\n")
        assert len(load_triples(tmp_path / "t.tsv", _catalog("e1", "e2"))) == 1

    def test_chain_graph_store_matches_loaded_file(self, tmp_path):
        chain = synth.chain_graph(7).triples
        ids = [f"e{i:02d}" for i in range(7)]
        rows = [(ids[e], chain.relation_ids[k], ids[f]) for e, k, f in chain.triples]
        (tmp_path / "t.tsv").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in reversed(rows)))
        assert load_triples(tmp_path / "t.tsv", _catalog(*ids)) == chain


def _ts(instances, edges=()):
    """instances: {type: entity index tuple}; closure computed naively."""
    parents = {}
    for c, p in edges:
        parents.setdefault(c, []).append(p)

    def anc(t, seen=None):
        seen = seen or {t}
        for p in parents.get(t, ()):
            if p not in seen:
                seen.add(p)
                anc(p, seen)
        return seen

    all_types = sorted(set(instances) | {x for e in edges for x in e})
    closed = {t: set() for t in all_types}
    for t, members in instances.items():
        for s in anc(t):
            closed[s].update(members)
    return ingest.TypeSystem(
        tuple(all_types),
        {t: tuple(sorted(v)) for t, v in closed.items()},
        {t: frozenset(anc(t)) for t in all_types},
    )


class TestMostSpecificCommonType:
    def test_minimal_type_wins(self):
        ts = _ts({"person": (0, 1)}, edges=(("person", "agent"),))
        assert most_specific_common_type({0, 1}, ts) == "person"

    def test_common_supertype(self):
        ts = _ts({"person": (0,), "organization": (1,)}, edges=(("person", "agent"), ("organization", "agent")))
        assert most_specific_common_type({0, 1}, ts) == "agent"

    def test_tie_by_instance_count(self):
        # Two incomparable minimal containing types; sizes 5 vs 9.
        small = tuple(range(5))
        big = tuple(range(9))
        ts = _ts({"small": small, "big": big})
        assert most_specific_common_type({0, 1}, ts) == "small"
        # Brute force: all containing types, filter minimal, order by size.
        containing = [t for t in ts.type_ids if {0, 1} <= set(ts.instances[t])]
        assert set(containing) == {"small", "big"}

    def test_no_containing_type(self):
        ts = _ts({"a": (0,), "b": (1,)})
        with pytest.raises(NoCommonTypeError):
            most_specific_common_type({0, 1}, ts)

    def test_returned_type_has_no_containing_strict_subtype(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            edges = [("c1", "m1"), ("c2", "m1"), ("m1", "top"), ("m2", "top")]
            instances = {}
            for t in ("c1", "c2", "m2"):
                instances[t] = tuple(sorted(rng.choice(10, size=rng.integers(1, 6), replace=False).tolist()))
            ts = _ts(instances, edges=tuple(edges))
            query = set(instances["c1"][:2])
            got = most_specific_common_type(query, ts)
            assert query <= set(ts.instances[got])
            for other in ts.type_ids:
                if other != got and got in ts.ancestors[other]:
                    assert not query <= set(ts.instances[other])


    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_on_random_hierarchies(self, data):
        # A random DAG over up to 8 types (edges from lower to higher
        # positions of a shuffled name list, so a subtype's id may sort
        # either side of its supertype's), random assertions closed upward,
        # random queries.
        draw = data.draw
        n_types, n_entities = draw(st.integers(1, 8)), draw(st.integers(1, 12))
        names = draw(st.permutations([f"t{t}" for t in range(n_types)]))
        edges = draw(st.lists(
            st.tuples(st.integers(0, n_types - 1), st.integers(0, n_types - 1)).filter(lambda e: e[0] < e[1]),
            max_size=12,
        ))
        instances = {name: tuple(draw(st.sets(st.integers(0, n_entities - 1), max_size=n_entities))) for name in names}
        ts = _ts(instances, edges=tuple((names[c], names[p]) for c, p in edges))
        for _ in range(5):
            query = draw(st.sets(st.integers(0, n_entities - 1), min_size=1, max_size=4))
            try:
                want = ref_most_specific_common_type(query, ts)
            except NoCommonTypeError as exc:
                with pytest.raises(NoCommonTypeError) as got:
                    most_specific_common_type(query, ts)
                assert str(got.value) == str(exc)
            else:
                assert most_specific_common_type(list(query), ts) == want

    def test_member_sets_built_once(self):
        ts = _ts({"person": (0, 1)}, edges=(("person", "agent"),))
        sets = ts.member_sets
        assert sets == {"person": {0, 1}, "agent": {0, 1}}
        assert ts.member_sets is sets
        most_specific_common_type({0}, ts)
        assert ts.member_sets is sets


class TestDeterminismAndMerge:
    def test_ingestion_deterministic(self, micro_dir):
        def build():
            docs = load_corpus(micro_dir["corpus"])
            vocab, catalog = build_vocab_and_catalog(docs, 3, 3)
            ww = count_word_word(docs, vocab, 10)
            ew = count_entity_word(docs, vocab, catalog, 10)
            return vocab, catalog, ww, ew

        v1, c1, ww1, ew1 = build()
        v2, c2, ww2, ew2 = build()
        assert v1.words == v2.words
        assert c1.ids == c2.ids
        for a, b in ((ww1, ww2), (ew1, ew2)):
            assert np.array_equal(a.rows, b.rows)
            assert np.array_equal(a.cols, b.cols)
            assert np.array_equal(a.weights, b.weights)
