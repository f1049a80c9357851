"""Corpus, type-system and triple ingestion.

Reads annotated corpora (JSON lines), entity/type assertion files and triple
files, and turns them into the sparse structures the trainer consumes:
vocabularies, co-occurrence tables, a subclass-closed type system and an
indexed triple store.  Everything built here is deterministic: identical
input files yield bit-identical tables and indexes.
"""

from __future__ import annotations

import json
import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

WORD_WORD = "word-word"
ENTITY_WORD = "entity-word"

# Relation ids carrying type assertions; those belong in the type system,
# never in the triple store.
_RESERVED_RELATIONS = {"instance_of", "subclass_of"}


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


@dataclass(frozen=True)
class Mention:
    entity: str
    sentence: int
    span: tuple[int, int]  # half-open token indices


@dataclass(frozen=True)
class Document:
    doc_id: str
    sentences: tuple[tuple[str, ...], ...]
    mentions: tuple[Mention, ...]
    article_of: str | None = None


@dataclass(frozen=True)
class Vocabulary:
    """Dense word index over words whose corpus frequency >= min_count."""

    words: tuple[str, ...]
    frequencies: tuple[int, ...]
    min_count: int
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

    def to_dict(self) -> dict[tuple[int, int], float]:
        return {(int(r), int(c)): float(w) for r, c, w in zip(self.rows, self.cols, self.weights)}


@dataclass(frozen=True)
class TypeSystem:
    """Semantic types with subclass closure.

    instances[s] is the closed set E_s: every entity asserted of some type t
    with t below-or-equal s in the subclass DAG.  Types whose closed set is
    empty are dropped at load time.
    """

    type_ids: tuple[str, ...]
    subclass_edges: tuple[tuple[str, str], ...]  # (child, parent)
    asserted: dict[str, tuple[int, ...]]
    instances: dict[str, tuple[int, ...]]
    ancestors: dict[str, frozenset[str]]  # reflexive-transitive

    def instance_set(self, type_id: str) -> frozenset[int]:
        return frozenset(self.instances[type_id])


@dataclass(frozen=True)
class TripleStore:
    """Deduplicated (head, relation, tail) triples with rhs/lhs indexes."""

    relation_ids: tuple[str, ...]
    rel_index: dict[str, int]
    triples: tuple[tuple[int, int, int], ...]  # (head, rel, tail) indices
    rhs: dict[tuple[int, int], tuple[int, ...]]  # (head, rel) -> tails
    lhs: dict[tuple[int, int], tuple[int, ...]]  # (rel, tail) -> heads
    dropped: int = 0

    def __len__(self):
        return len(self.triples)


def _validate_document(doc: Document, lineno: int | None = None) -> None:
    where = f"document {doc.doc_id!r}"
    if lineno is not None:
        where += f" (line {lineno})"
    spans_by_sentence: dict[int, list[tuple[int, int]]] = {}
    for m in doc.mentions:
        if not 0 <= m.sentence < len(doc.sentences):
            raise CorpusValidationError(f"{where}: mention of {m.entity!r} addresses missing sentence {m.sentence}")
        start, end = m.span
        n_tok = len(doc.sentences[m.sentence])
        if not (0 <= start < end <= n_tok):
            raise CorpusValidationError(
                f"{where}: mention span {m.span} of {m.entity!r} outside sentence of length {n_tok}"
            )
        spans_by_sentence.setdefault(m.sentence, []).append((start, end))
    for sent, spans in spans_by_sentence.items():
        spans.sort()
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            if s1 < e0:
                raise CorpusValidationError(
                    f"{where}: overlapping mention spans {(s0, e0)} and {(s1, e1)} in sentence {sent}"
                )


def load_corpus(path, entity_catalog: EntityCatalog | None = None) -> list[Document]:
    """Load a JSON-lines corpus file into validated documents.

    Tokens are lowercased on load.  Mentions of entities unknown to
    `entity_catalog` are kept; filtering happens when counting.
    """
    docs: list[Document] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                doc_id = rec["doc_id"]
                sentences = tuple(tuple(str(t).lower() for t in sent) for sent in rec["sentences"])
                mentions = tuple(
                    Mention(m["entity"], int(m["sentence"]), (int(m["span"][0]), int(m["span"][1])))
                    for m in rec.get("mentions", [])
                )
                article_of = rec.get("article_of")
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise CorpusParseError(f"{path}: malformed corpus record on line {lineno}: {exc}") from exc
            doc = Document(doc_id=doc_id, sentences=sentences, mentions=mentions, article_of=article_of)
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
    word_freq: dict[str, int] = {}
    entity_docs: dict[str, set[str]] = {}
    for doc in docs:
        for sent in doc.sentences:
            for tok in sent:
                word_freq[tok] = word_freq.get(tok, 0) + 1
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
    vocab = Vocabulary(tuple(kept_words), tuple(word_freq[w] for w in kept_words), min_count)
    catalog = EntityCatalog(
        tuple(kept_entities), tuple(len(entity_docs[e]) for e in kept_entities), min_doc_mentions
    )
    return vocab, catalog


def count_word_word(docs: list[Document], vocab: Vocabulary, window: int = 10) -> CooccurrenceTable:
    """Word-word co-occurrence with 1/distance weighting.

    Every ordered in-vocabulary pair at token distance d, 1 <= d <= window,
    within one sentence contributes 1/d; sentence boundaries are never
    crossed.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    idx = vocab.index
    acc: dict[tuple[int, int], float] = {}
    for doc in docs:
        for sent in doc.sentences:
            positions = [(p, idx[t]) for p, t in enumerate(sent) if t in idx]
            for a in range(len(positions)):
                p, i = positions[a]
                for b in range(a + 1, len(positions)):
                    q, j = positions[b]
                    d = q - p
                    if d > window:
                        break
                    if d == 0:
                        continue
                    w = 1.0 / d
                    acc[(i, j)] = acc.get((i, j), 0.0) + w
                    acc[(j, i)] = acc.get((j, i), 0.0) + w
    return CooccurrenceTable.from_dict(WORD_WORD, acc)


def count_entity_word(
    docs: list[Document], vocab: Vocabulary, catalog: EntityCatalog, window: int = 10
) -> CooccurrenceTable:
    """Entity-word co-occurrence: unweighted counts of vocabulary tokens
    within `window` tokens of a mention span (same sentence, span's own
    tokens excluded), plus every vocabulary token of the entity's own
    article document."""
    if window < 1:
        raise ValueError("window must be >= 1")
    widx = vocab.index
    eidx = catalog.index
    acc: dict[tuple[int, int], float] = {}
    for doc in docs:
        for m in doc.mentions:
            e = eidx.get(m.entity)
            if e is None:
                continue
            start, end = m.span
            tokens = doc.sentences[m.sentence]
            lo = max(0, start - window)
            hi = min(len(tokens), end + window)
            for q in range(lo, hi):
                if start <= q < end:
                    continue
                j = widx.get(tokens[q])
                if j is not None:
                    acc[(e, j)] = acc.get((e, j), 0.0) + 1.0
        if doc.article_of is not None:
            e = eidx.get(doc.article_of)
            if e is not None:
                for sent in doc.sentences:
                    for tok in sent:
                        j = widx.get(tok)
                        if j is not None:
                            acc[(e, j)] = acc.get((e, j), 0.0) + 1.0
    return CooccurrenceTable.from_dict(ENTITY_WORD, acc)


def _read_tsv(path, n_fields: int):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split("\t")
            if len(parts) != n_fields:
                raise CorpusParseError(f"{path}: expected {n_fields} tab-separated fields on line {lineno}")
            rows.append(tuple(parts))
    return rows


def _find_cycle(nodes, parents_of):
    """Return one cycle in the child->parent graph, or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in nodes}
    stack_path: list[str] = []

    def visit(v):
        color[v] = GREY
        stack_path.append(v)
        for p in parents_of.get(v, ()):
            if color[p] == GREY:
                i = stack_path.index(p)
                return stack_path[i:] + [p]
            if color[p] == WHITE:
                found = visit(p)
                if found:
                    return found
        stack_path.pop()
        color[v] = BLACK
        return None

    for v in sorted(nodes):
        if color[v] == WHITE:
            found = visit(v)
            if found:
                return found
    return None


def load_type_system(instances_path, subclass_path, catalog: EntityCatalog) -> TypeSystem:
    """Load instance assertions and the subclass DAG, and close instance
    sets upward: an entity asserted of t belongs to E_s for every supertype
    s of t.  Types whose closed set comes out empty are dropped.

    Assertions for entities missing from the catalog are dropped with a
    counted warning.
    """
    instance_rows = _read_tsv(instances_path, 2)
    edge_rows = _read_tsv(subclass_path, 2)

    parents_of: dict[str, list[str]] = {}
    all_types: set[str] = set()
    for child, parent in edge_rows:
        all_types.update((child, parent))
        lst = parents_of.setdefault(child, [])
        if parent not in lst:
            lst.append(parent)

    cycle = _find_cycle(all_types, parents_of)
    if cycle:
        raise SubclassCycleError("subclass cycle: " + " -> ".join(cycle))

    asserted: dict[str, set[int]] = {}
    dropped = 0
    for entity_id, type_id in instance_rows:
        all_types.add(type_id)
        e = catalog.index.get(entity_id)
        if e is None:
            dropped += 1
            continue
        asserted.setdefault(type_id, set()).add(e)
    if dropped:
        warnings.warn(f"{dropped} instance assertion(s) referenced entities outside the catalog")

    # Reflexive-transitive ancestor sets; acyclic, so memoization terminates.
    anc_cache: dict[str, frozenset[str]] = {}

    def ancestors(t: str) -> frozenset[str]:
        got = anc_cache.get(t)
        if got is None:
            acc = {t}
            for p in parents_of.get(t, ()):
                acc.update(ancestors(p))
            got = frozenset(acc)
            anc_cache[t] = got
        return got

    closed: dict[str, set[int]] = {t: set() for t in all_types}
    for t, members in asserted.items():
        for s in ancestors(t):
            closed[s].update(members)

    kept = tuple(sorted(t for t in all_types if closed[t]))
    kept_set = set(kept)
    edges = tuple(sorted((c, p) for c, p in {tuple(r) for r in edge_rows} if c in kept_set and p in kept_set))
    return TypeSystem(
        type_ids=kept,
        subclass_edges=edges,
        asserted={t: tuple(sorted(asserted[t])) for t in kept if t in asserted},
        instances={t: tuple(sorted(closed[t])) for t in kept},
        ancestors={t: frozenset(ancestors(t) & kept_set) for t in kept},
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
        rel_index=rel_index,
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
    containing = [s for s in ts.type_ids if wanted.issubset(ts.instance_set(s))]
    if not containing:
        raise NoCommonTypeError(f"no type contains all of {sorted(wanted)}")
    containing_set = set(containing)
    minimal = [
        s
        for s in containing
        if not any(t != s and s in ts.ancestors[t] for t in containing_set)
    ]
    minimal.sort(key=lambda s: (len(ts.instances[s]), s))
    return minimal[0]
