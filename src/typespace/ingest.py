"""Corpus, type-system and triple ingestion.

Reads annotated corpora (JSON lines), entity/type assertion files and triple
files, and turns them into the sparse structures the trainer consumes:
vocabularies, co-occurrence tables, a subclass-closed type system and an
indexed triple store.  Everything built here is deterministic: identical
input files yield bit-identical tables and indexes.
"""

from __future__ import annotations

import graphlib
import json
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Iterator, NamedTuple

import numpy as np

WORD_WORD = "word-word"
ENTITY_WORD = "entity-word"

# Relation ids carrying type assertions; those belong in the type system,
# never in the triple store.
_RESERVED_RELATIONS = {"instance_of", "subclass_of"}

# Tokens per encoded chunk in the counters: bounds their scratch arrays, and
# so the peak memory of counting, whatever the corpus size.
_CHUNK_TOKENS = 8192


class CorpusParseError(ValueError):
    """Malformed corpus / TSV record; message carries the line number."""


class CorpusValidationError(ValueError):
    """Structurally valid record violating a document invariant."""


class EmptyVocabularyError(ValueError):
    """Every word fell below the frequency threshold."""


class SubclassCycleError(ValueError):
    """The subclass graph is not a DAG; message lists one cycle."""


class NoCommonTypeError(LookupError):
    """No semantic type contains all the requested entities."""


class Mention(NamedTuple):
    entity: str
    sentence: int
    span: tuple[int, int]  # half-open token indices


class Document(NamedTuple):
    doc_id: str
    sentences: tuple[tuple[str, ...], ...]
    mentions: tuple[Mention, ...]
    article_of: str | None = None


@dataclass(frozen=True)
class Vocabulary:
    """Dense word index over words whose corpus frequency >= min_count."""

    words: tuple[str, ...]
    index: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "index", {w: i for i, w in enumerate(self.words)})

    def __len__(self):
        return len(self.words)


@dataclass(frozen=True)
class EntityCatalog:
    """Dense entity index over entities mentioned in >= min_doc_mentions
    distinct documents."""

    ids: tuple[str, ...]
    doc_mentions: tuple[int, ...]
    min_doc_mentions: int
    index: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "index", {e: i for i, e in enumerate(self.ids)})

    def __len__(self):
        return len(self.ids)


@dataclass(frozen=True)
class CooccurrenceTable:
    """Sparse weighted counts; entries with zero weight are absent.

    kind is WORD_WORD (rows and columns index words) or ENTITY_WORD (rows
    index entities, columns index words).  Entries are stored sorted by
    (row, col) so construction is reproducible.
    """

    kind: str
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_dict(cls, kind: str, entries: dict[tuple[int, int], float]) -> "CooccurrenceTable":
        keys = sorted(k for k, w in entries.items() if w > 0.0)
        rows = np.array([k[0] for k in keys], dtype=np.int64)
        cols = np.array([k[1] for k in keys], dtype=np.int64)
        weights = np.array([entries[k] for k in keys], dtype=np.float64)
        if keys and not np.all(np.isfinite(weights)):
            raise ValueError("non-finite co-occurrence weight")
        return cls(kind, rows, cols, weights)

    def __len__(self):
        return len(self.weights)


@dataclass(frozen=True)
class TypeSystem:
    """Semantic types with subclass closure.

    instances[s] is the closed set E_s: every entity asserted of some type t
    with t below-or-equal s in the subclass DAG.  Types whose closed set is
    empty are dropped at load time.
    """

    type_ids: tuple[str, ...]
    instances: dict[str, tuple[int, ...]]
    ancestors: dict[str, frozenset[str]]  # reflexive-transitive

    @cached_property
    def member_sets(self) -> dict[str, frozenset[int]]:
        """instances[s] as a set, for each type s; built on first use."""
        return {s: frozenset(members) for s, members in self.instances.items()}


@dataclass(frozen=True)
class TripleStore:
    """Deduplicated (head, relation, tail) triples with rhs/lhs indexes."""

    relation_ids: tuple[str, ...]
    triples: tuple[tuple[int, int, int], ...]  # (head, rel, tail) indices
    rhs: dict[tuple[int, int], tuple[int, ...]]  # (head, rel) -> tails
    lhs: dict[tuple[int, int], tuple[int, ...]]  # (rel, tail) -> heads
    dropped: int = 0

    def __len__(self):
        return len(self.triples)


def _validate_document(doc: Document, lineno: int | None = None) -> None:
    def where() -> str:  # formatted only for an error
        return f"document {doc.doc_id!r}" + (f" (line {lineno})" if lineno is not None else "")

    sentences, mentions = doc.sentences, doc.mentions
    for entity, s, span in mentions:
        if not 0 <= s < len(sentences):
            raise CorpusValidationError(f"{where()}: mention of {entity!r} addresses missing sentence {s}")
        start, end = span
        if not 0 <= start < end <= len(sentences[s]):
            raise CorpusValidationError(
                f"{where()}: mention span {span} of {entity!r} outside sentence of length {len(sentences[s])}"
            )
    # Spans can overlap only when two mentions share a sentence.
    if len({m.sentence for m in mentions}) == len(mentions):
        return
    spans_by_sentence: dict[int, list[tuple[int, int]]] = {}
    for m in mentions:
        spans_by_sentence.setdefault(m.sentence, []).append(m.span)
    for sent, spans in spans_by_sentence.items():
        spans.sort()
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            if s1 < e0:
                raise CorpusValidationError(
                    f"{where()}: overlapping mention spans {(s0, e0)} and {(s1, e1)} in sentence {sent}"
                )


def numbered_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line of a UTF-8 text file; bytes that are
    not UTF-8 raise CorpusParseError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise CorpusParseError(f"{path}: not UTF-8 text ({exc})") from None


class _Lexicon(dict):
    """Raw token -> its lower-cased, interned form; each distinct raw token
    is checked and normalized once.  A token that is not a string raises
    TypeError, here or, for a list or an object, in the lookup."""

    def __missing__(self, raw: str) -> str:
        if type(raw) is not str:
            raise TypeError(raw)
        self[raw] = token = sys.intern(raw.lower())
        return token


def load_corpus(path) -> list[Document]:
    """Load a JSON-lines corpus file into validated documents.

    Tokens must be strings; they are lowercased and interned on load, so
    equal tokens are one string object.  Sentences and mentions must be
    lists, document ids and mentioned entities strings, mention sentences
    and span bounds integers (not booleans), and article_of a string or
    null.  Mentions of every entity are kept; filtering by the entity
    catalog happens when counting.
    """
    docs: list[Document] = []
    normalized = _Lexicon().__getitem__
    for lineno, line in numbered_lines(path):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            doc_id = rec["doc_id"]
            sentences = rec["sentences"]
            if type(sentences) is not list or not {list}.issuperset(map(type, sentences)):
                raise TypeError("sentences is not a list of token lists")
            try:
                sentences = tuple(tuple(map(normalized, sent)) for sent in sentences)
            except TypeError:
                bad = next(token for sent in sentences for token in sent if type(token) is not str)
                raise TypeError(f"token {bad!r} is not a string") from None
            mentions = rec.get("mentions", [])
            if type(mentions) is not list:
                raise TypeError("mentions is not a list")
            fields = [(m["entity"], m["sentence"], m["span"]) for m in mentions]
            article_of = rec.get("article_of")
            if type(doc_id) is not str:
                raise TypeError("doc_id is not a string")
            mentions = []
            for k, (entity, sentence, span) in enumerate(fields):
                if type(entity) is not str:
                    raise TypeError(f"entity of mention {k} is not a string")
                if type(sentence) is not int:
                    raise TypeError(f"sentence of mention {k} is not an integer")
                if type(span) is not list or len(span) != 2 or type(span[0]) is not int or type(span[1]) is not int:
                    raise TypeError(f"span of mention {k} is not a list of two integers")
                mentions.append(Mention(entity, sentence, tuple(span)))
            if article_of is not None and type(article_of) is not str:
                raise TypeError("article_of is neither a string nor null")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise CorpusParseError(f"{path}: malformed corpus record on line {lineno}: {exc}") from exc
        doc = Document(doc_id, sentences, tuple(mentions), article_of)
        _validate_document(doc, lineno)
        docs.append(doc)
    return docs


def build_vocab_and_catalog(
    docs: list[Document], min_count: int = 10, min_doc_mentions: int = 10
) -> tuple[Vocabulary, EntityCatalog]:
    """Count words and entity mentions, then assign dense indices.

    Words below min_count and entities mentioned in fewer than
    min_doc_mentions distinct documents are dropped.  Indices are sorted by
    descending frequency, ties by id, so runs are reproducible.
    """
    word_freq = Counter(chain.from_iterable(chain.from_iterable(doc.sentences for doc in docs)))
    entity_docs: dict[str, set[str]] = {}
    for doc in docs:
        for m in doc.mentions:
            entity_docs.setdefault(m.entity, set()).add(doc.doc_id)
    kept_words = sorted(
        (w for w, f in word_freq.items() if f >= min_count),
        key=lambda w: (-word_freq[w], w),
    )
    if not kept_words:
        raise EmptyVocabularyError(f"no word reaches min_count={min_count}")
    kept_entities = sorted(
        (e for e, ds in entity_docs.items() if len(ds) >= min_doc_mentions),
        key=lambda e: (-len(entity_docs[e]), e),
    )
    vocab = Vocabulary(tuple(kept_words))
    catalog = EntityCatalog(
        tuple(kept_entities), tuple(len(entity_docs[e]) for e in kept_entities), min_doc_mentions
    )
    return vocab, catalog


class _Chunk(NamedTuple):
    """Consecutive documents with every token encoded as a vocabulary id."""

    docs: list[Document]
    ids: np.ndarray  # vocabulary id of each token, -1 out of vocabulary
    sent_starts: np.ndarray  # token offset of each sentence, then the token count
    doc_starts: np.ndarray  # sentence offset of each document, then the sentence count


def _encoded_chunks(docs: list[Document], vocab: Vocabulary) -> Iterator[_Chunk]:
    """The documents in order, in runs of whole documents of about
    _CHUNK_TOKENS tokens each."""
    get = vocab.index.get
    batch: list[Document] = []
    n_tok = 0
    for k, doc in enumerate(docs, start=1):
        batch.append(doc)
        n_tok += sum(map(len, doc.sentences))
        if n_tok < _CHUNK_TOKENS and k < len(docs):
            continue
        sents = [sent for d in batch for sent in d.sentences]
        sent_starts = np.zeros(len(sents) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, sents), np.int64, len(sents)), out=sent_starts[1:])
        doc_starts = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum(np.fromiter((len(d.sentences) for d in batch), np.int64, len(batch)), out=doc_starts[1:])
        ids = np.fromiter(map(get, chain.from_iterable(sents), repeat(-1)), np.int64, n_tok)
        yield _Chunk(batch, ids, sent_starts, doc_starts)
        batch, n_tok = [], 0


def _merged_counts(docs: list[Document], vocab: Vocabulary, window: int, contributions):
    """The distinct keys of contributions(chunk) = (keys, values) over the
    documents' chunks, sorted, and each key's sum of its values.

    Each sum is taken in corpus order, as a loop of `acc[key] += val` would
    take it: a chunk's merge lists the running sums first, then the chunk's
    values in order, and `np.bincount` adds its weights in array order.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    keys, sums = np.zeros(0, dtype=np.int64), np.zeros(0)
    for chunk in _encoded_chunks(docs, vocab):
        new_keys, new_vals = contributions(chunk)
        keys, inverse = np.unique(np.concatenate((keys, new_keys)), return_inverse=True)
        # The cast matters only for empty input, where np.bincount returns int64.
        sums = np.bincount(inverse, np.concatenate((sums, new_vals)), len(keys)).astype(np.float64, copy=False)
    return keys, sums


def _word_pairs(chunk: _Chunk, window: int, n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """The chunk's word-word contributions in the order of a loop over
    positions p, then distances d = 1..window within the sentence: the
    unordered word pair's key and 1/d, listed twice for a same-word pair
    (the ordered pair and its mirror are the same entry)."""
    ids = chunk.ids
    lengths = np.diff(chunk.sent_starts)
    width = min(window, int(lengths.max(initial=0)) - 1)
    if width < 1:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    room = np.repeat(chunk.sent_starts[1:], lengths) - np.arange(len(ids))  # tokens to the sentence end
    known = ids >= 0
    ok = np.zeros((len(ids), width), dtype=bool)  # [p, d-1]: the pair (p, p + d) counts
    for d in range(1, width + 1):
        ok[:-d, d - 1] = known[:-d] & known[d:] & (room[:-d] > d)
    p, dm1 = np.nonzero(ok)
    i, j = ids[p], ids[p + dm1 + 1]
    twice = 1 + (i == j)
    keys = np.minimum(i, j) * n_words + np.maximum(i, j)
    return np.repeat(keys, twice), np.repeat(1.0 / np.arange(1, width + 1)[dm1], twice)


def count_word_word(docs: list[Document], vocab: Vocabulary, window: int = 10) -> CooccurrenceTable:
    """Word-word co-occurrence with 1/distance weighting.

    Every ordered in-vocabulary pair at token distance d, 1 <= d <= window,
    within one sentence contributes 1/d; sentence boundaries are never
    crossed.  Each entry sums its contributions in corpus order.
    """
    n_words = len(vocab)
    keys, sums = _merged_counts(docs, vocab, window, lambda chunk: _word_pairs(chunk, window, n_words))
    lo, hi = np.divmod(keys, n_words)
    off = lo != hi
    rows = np.concatenate((lo, hi[off]))
    cols = np.concatenate((hi, lo[off]))
    order = np.argsort(rows * n_words + cols)  # distinct keys: every sort gives this order
    return CooccurrenceTable(WORD_WORD, rows[order], cols[order], np.concatenate((sums, sums[off]))[order])


def _ranges(begin: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Positions begin[r], ..., begin[r] + length[r] - 1 of every range r."""
    shift = np.repeat(begin - (np.cumsum(length) - length), length)
    return shift + np.arange(len(shift))


def _entity_word_pairs(chunk: _Chunk, eidx: dict[str, int], window: int, n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """The chunk's entity-word keys, each with a count of 1, one per counted
    (entity, token): window tokens on either side of each catalog mention,
    and every token of a catalog entity's article document."""
    docs, eidx_get = chunk.docs, eidx.get
    per_doc = np.fromiter(map(len, (doc.mentions for doc in docs)), np.int64, len(docs))
    n = int(per_doc.sum())
    entities, sentences, spans = zip(*chain.from_iterable(doc.mentions for doc in docs)) if n else ((), (), ())
    ent = np.fromiter(map(eidx_get, entities, repeat(-1)), np.int64, n)
    sent = np.fromiter(sentences, np.int64, n)
    start, end = np.fromiter(chain.from_iterable(spans), np.int64, 2 * n).reshape(-1, 2).T
    k = np.repeat(np.arange(len(docs)), per_doc)
    known = ent >= 0
    ent, sent, start, end = ent[known], chunk.doc_starts[k[known]] + sent[known], start[known], end[known]
    s0 = chunk.sent_starts[sent]
    lo = np.maximum(start - window, 0)
    hi = np.minimum(end + window, chunk.sent_starts[sent + 1] - s0)
    art = np.fromiter(
        (-1 if doc.article_of is None else eidx_get(doc.article_of, -1) for doc in docs), np.int64, len(docs)
    )
    art_doc = np.flatnonzero(art >= 0)
    art_ent = art[art_doc]
    a0 = chunk.sent_starts[chunk.doc_starts[art_doc]]
    a1 = chunk.sent_starts[chunk.doc_starts[art_doc + 1]]
    begin = np.concatenate((s0 + lo, s0 + end, a0))  # left context, right context, article
    length = np.concatenate((start - lo, hi - end, a1 - a0))
    words = chunk.ids[_ranges(begin, length)]
    entities = np.repeat(np.concatenate((ent, ent, art_ent)), length)
    keep = words >= 0
    return entities[keep] * n_words + words[keep], np.ones(np.count_nonzero(keep))


def count_entity_word(
    docs: list[Document], vocab: Vocabulary, catalog: EntityCatalog, window: int = 10
) -> CooccurrenceTable:
    """Entity-word co-occurrence: unweighted counts of vocabulary tokens
    within `window` tokens of a mention span (same sentence, span's own
    tokens excluded), plus every vocabulary token of the entity's own
    article document.  Mentions must address a span inside one of their
    document's sentences, as `load_corpus` checks."""
    n_words = len(vocab)
    keys, counts = _merged_counts(
        docs, vocab, window, lambda chunk: _entity_word_pairs(chunk, catalog.index, window, n_words)
    )
    rows, cols = np.divmod(keys, n_words)
    return CooccurrenceTable(ENTITY_WORD, rows, cols, counts)


def _read_tsv(path, n_fields: int):
    """The rows of a TSV file as tuples of n_fields non-empty strings.  Blank
    lines and lines whose first non-blank character is # are skipped; each
    other line, stripped of surrounding whitespace, is split on tabs."""
    rows = []
    for lineno, line in numbered_lines(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t")
        if len(parts) != n_fields:
            raise CorpusParseError(f"{path}: expected {n_fields} tab-separated fields on line {lineno}")
        if "\t\t" in stripped:  # stripped neither starts nor ends with a tab
            raise CorpusParseError(f"{path}: empty field on line {lineno}")
        rows.append(tuple(parts))
    return rows


def load_type_system(instances_path, subclass_path, catalog: EntityCatalog) -> TypeSystem:
    """Load instance assertions and the subclass DAG, and close instance
    sets upward: an entity asserted of t belongs to E_s for every supertype
    s of t.  Types whose closed set comes out empty are dropped.

    Assertions for entities missing from the catalog are dropped with a
    counted warning.
    """
    instance_rows = _read_tsv(instances_path, 2)
    edge_rows = _read_tsv(subclass_path, 2)

    # child -> parents, every type a node; dicts keep the file's order, so
    # the cycle an error names does not depend on string hashing.
    parents_of: dict[str, dict[str, None]] = {}
    for child, parent in edge_rows:
        parents_of.setdefault(child, {})[parent] = None
        parents_of.setdefault(parent, {})
    for _, type_id in instance_rows:
        parents_of.setdefault(type_id, {})
    try:
        order = tuple(graphlib.TopologicalSorter(parents_of).static_order())  # parents first
    except graphlib.CycleError as exc:
        raise SubclassCycleError("subclass cycle: " + " -> ".join(reversed(exc.args[1]))) from None

    asserted: dict[str, set[int]] = {}
    dropped = 0
    for entity_id, type_id in instance_rows:
        e = catalog.index.get(entity_id)
        if e is None:
            dropped += 1
            continue
        asserted.setdefault(type_id, set()).add(e)
    if dropped:
        warnings.warn(f"{dropped} instance assertion(s) referenced entities outside the catalog")

    ancestors: dict[str, frozenset[str]] = {}  # reflexive-transitive
    for t in order:
        ancestors[t] = frozenset({t}.union(*(ancestors[p] for p in parents_of[t])))

    closed: dict[str, set[int]] = {t: set() for t in order}
    for t, members in asserted.items():
        for s in ancestors[t]:
            closed[s].update(members)

    kept = tuple(sorted(t for t in order if closed[t]))
    kept_set = set(kept)
    return TypeSystem(
        type_ids=kept,
        instances={t: tuple(sorted(closed[t])) for t in kept},
        ancestors={t: ancestors[t] & kept_set for t in kept},
    )


def _normalize_relation(rel: str) -> str:
    return rel.strip().lower().replace(" ", "_").replace("-", "_")


def load_triples(path, catalog: EntityCatalog) -> TripleStore:
    """Load head<TAB>relation<TAB>tail triples, dropping (with a counted
    warning) triples touching unknown entities or carrying type-assertion
    relations."""
    rows = _read_tsv(path, 3)
    dropped = 0
    triples: set[tuple[str, str, str]] = set()
    for head, rel, tail in rows:
        if _normalize_relation(rel) in _RESERVED_RELATIONS:
            dropped += 1
            continue
        if head not in catalog.index or tail not in catalog.index:
            dropped += 1
            continue
        triples.add((head, rel, tail))
    if dropped:
        warnings.warn(f"{dropped} triple(s) dropped (unknown entity or reserved relation)")
    return index_triples(triples, catalog, dropped)


def index_triples(triples, catalog: EntityCatalog, dropped: int = 0) -> TripleStore:
    """Index distinct (head, relation, tail) id triples whose entities the
    catalog holds: relations numbered in sorted id order, the index triples
    sorted, and both group indexes built from them."""
    relation_ids = tuple(sorted({r for _, r, _ in triples}))
    rel_index = {r: k for k, r in enumerate(relation_ids)}
    indexed = tuple(
        sorted((catalog.index[h], rel_index[r], catalog.index[t]) for h, r, t in triples)
    )
    rhs: dict[tuple[int, int], list[int]] = {}
    lhs: dict[tuple[int, int], list[int]] = {}
    for e, k, f in indexed:
        rhs.setdefault((e, k), []).append(f)
        lhs.setdefault((k, f), []).append(e)
    return TripleStore(
        relation_ids=relation_ids,
        triples=indexed,
        rhs={key: tuple(sorted(v)) for key, v in sorted(rhs.items())},
        lhs={key: tuple(sorted(v)) for key, v in sorted(lhs.items())},
        dropped=dropped,
    )


def most_specific_common_type(entities, ts: TypeSystem) -> str:
    """Most specific type containing every given entity.

    Among containing types, keeps those with no containing strict subtype;
    ties are broken by smallest closed instance set, then lexicographic id.
    """
    wanted = set(entities)
    if not wanted:
        raise ValueError("entity set is empty")
    member_sets = ts.member_sets
    containing = [s for s in ts.type_ids if wanted <= member_sets[s]]
    if not containing:
        raise NoCommonTypeError(f"no type contains all of {sorted(wanted)}")
    above = set().union(*(ts.ancestors[t] - {t} for t in containing))  # strict supertypes of a containing type
    minimal = [s for s in containing if s not in above]
    minimal.sort(key=lambda s: (len(ts.instances[s]), s))
    return minimal[0]
