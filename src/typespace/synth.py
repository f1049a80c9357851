"""Synthetic fixtures: a bundled micro-corpus with knowledge-base files and
evaluation problems, plus focused generators used to exercise rank
selection, direction recovery, induction and translation consistency."""

from __future__ import annotations

import json
import os

import numpy as np

from typespace.ingest import (
    CooccurrenceTable,
    ENTITY_WORD,
    EntityCatalog,
    TripleStore,
    TypeSystem,
    index_triples,
)
from typespace.optimize import TrainData

_CITY_WORDS = ["harbor", "market", "bridge", "tram", "river", "wall", "square", "gate"]
_PERSON_WORDS = ["writer", "singer", "travels", "speaks", "born", "famous", "young", "quiet"]
_ORG_WORDS = ["factory", "office", "trade", "ships", "steel", "paper", "founded", "sells"]
_FILLERS = ["the", "a", "of", "in", "and", "is", "was", "near", "with", "very"]


def empty_type_system() -> TypeSystem:
    return TypeSystem((), {}, {})


def empty_triple_store() -> TripleStore:
    return TripleStore((), (), {}, {}, 0)


def single_type_system(type_id: str, n_entities: int) -> TypeSystem:
    members = tuple(range(n_entities))
    return TypeSystem(
        type_ids=(type_id,),
        instances={type_id: members},
        ancestors={type_id: frozenset({type_id})},
    )


def make_micro_corpus(out_dir, seed: int = 7) -> dict[str, str]:
    """Write the bundled micro-corpus: ~200 documents, 50 entities, 5 types
    and 3 relations, with problem files for every evaluation task.

    Returns a dict of file paths keyed by role.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)

    cities = [f"c{i:02d}" for i in range(30)]
    people = [f"p{i:02d}" for i in range(12)]
    orgs = [f"o{i:02d}" for i in range(8)]
    entities = cities + people + orgs

    population = {c: float(rng.uniform(0.0, 4.0)) for c in cities}
    home_city = {p: cities[int(rng.integers(len(cities)))] for p in people}
    org_city = {o: cities[int(rng.integers(len(cities)))] for o in orgs}
    employer = {p: orgs[int(rng.integers(len(orgs)))] for p in people}

    # A dozen agents share one hub city so the induction task has a
    # sizeable positive set for (located_in, hub).
    hub = cities[0]
    hub_residents = people[:6] + orgs[:6]
    for p in people[:6]:
        home_city[p] = hub
    for o in orgs[:6]:
        org_city[o] = hub

    theme = {}
    for c in cities:
        theme[c] = _CITY_WORDS
    for p in people:
        theme[p] = _PERSON_WORDS
    for o in orgs:
        theme[o] = _ORG_WORDS

    def sentence_with(entity, extra=()):
        words = list(extra)
        picks = rng.choice(len(theme[entity]), size=3, replace=False)
        words += [theme[entity][i] for i in picks]
        words += [_FILLERS[int(rng.integers(len(_FILLERS)))] for _ in range(2)]
        rng.shuffle(words)
        pos = int(rng.integers(len(words) + 1))
        tokens = words[:pos] + [entity] + words[pos:]
        span = [pos, pos + 1]
        return tokens, span

    docs = []
    # One article per entity.
    for e in entities:
        sentences, mentions = [], []
        n_sent = 2 + int(rng.integers(2))
        for s in range(n_sent):
            extra = []
            if e in cities:
                # Population signal: the busiest cities say so more often.
                extra = ["busy"] * min(3, 1 + int(population[e]))
            tokens, span = sentence_with(e, extra)
            mentions.append({"entity": e, "sentence": s, "span": span})
            sentences.append(tokens)
        docs.append({"doc_id": f"art_{e}", "article_of": e, "sentences": sentences, "mentions": mentions})

    # Context documents mentioning a few entities each.
    for d in range(150):
        picked = [entities[i] for i in rng.choice(len(entities), size=3, replace=False)]
        sentences, mentions = [], []
        for s, e in enumerate(picked):
            tokens, span = sentence_with(e)
            mentions.append({"entity": e, "sentence": s, "span": span})
            sentences.append(tokens)
        docs.append({"doc_id": f"ctx_{d:03d}", "article_of": None, "sentences": sentences, "mentions": mentions})

    paths = {}

    def path(name):
        p = os.path.join(out_dir, name)
        paths[name.split(".")[0]] = p
        return p

    with open(path("corpus.jsonl"), "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")

    with open(path("instances.tsv"), "w", encoding="utf-8") as fh:
        fh.write("# entity\ttype\n")
        for c in cities:
            fh.write(f"{c}\tcity\n")
        for p in people:
            fh.write(f"{p}\tperson\n")
        for o in orgs:
            fh.write(f"{o}\torganization\n")

    with open(path("subclass.tsv"), "w", encoding="utf-8") as fh:
        fh.write("city\tplace\nperson\tagent\norganization\tagent\n")

    triples = []
    for p in people:
        triples.append((p, "located_in", home_city[p]))
        triples.append((p, "works_for", employer[p]))
    for o in orgs:
        triples.append((o, "located_in", org_city[o]))
    for i in range(0, len(orgs) - 1, 2):
        triples.append((orgs[i], "trades_with", orgs[i + 1]))
    with open(path("triples.tsv"), "w", encoding="utf-8") as fh:
        for h, r, t in triples:
            fh.write(f"{h}\t{r}\t{t}\n")

    order = list(cities)
    rng.shuffle(order)
    ranking = {
        "type": "city",
        "attribute": "population",
        "values": {c: population[c] for c in cities},
        "split": {"train": order[:18], "valid": order[18:24], "test": order[24:]},
    }
    with open(path("ranking.json"), "w", encoding="utf-8") as fh:
        json.dump(ranking, fh, indent=1)

    residents = list(hub_residents)
    rng.shuffle(residents)
    induction = {
        "relation": "located_in",
        "target": hub,
        "split": {"train": residents[:7], "valid": residents[7:9], "test": residents[9:]},
    }
    with open(path("induction.json"), "w", encoding="utf-8") as fh:
        json.dump(induction, fh, indent=1)

    quads = []
    for i in range(0, len(people) - 1):
        a, c = people[i], people[(i + 1) % len(people)]
        quads.append([a, home_city[a], c, home_city[c]])
    analogy = {
        "quads": quads,
        "split": {"tune": list(range(3)), "test": list(range(3, len(quads)))},
    }
    with open(path("analogy.json"), "w", encoding="utf-8") as fh:
        json.dump(analogy, fh, indent=1)

    lp_sample = [triples[i] for i in rng.choice(len(triples), size=15, replace=False)]
    with open(path("lp_test.tsv"), "w", encoding="utf-8") as fh:
        for h, r, t in lp_sample:
            fh.write(f"{h}\t{r}\t{t}\n")

    # Labeled classification rows: true triples plus tail-corrupted ones;
    # the valid/test split alternates within each relation so every
    # relation gets validation rows.
    tc_rows = []
    seen_per_rel: dict[str, int] = {}
    for h, r, t in triples:
        seen_per_rel[r] = seen_per_rel.get(r, 0) + 1
        split = "valid" if seen_per_rel[r] % 2 == 1 else "test"
        tc_rows.append((h, r, t, 1, split))
        pool = cities if t in cities else (orgs if t in orgs else people)
        wrong = pool[int(rng.integers(len(pool)))]
        if wrong == t:
            wrong = pool[(pool.index(t) + 1) % len(pool)]
        tc_rows.append((h, r, wrong, 0, split))
    with open(path("tc.tsv"), "w", encoding="utf-8") as fh:
        for h, r, t, label, split in tc_rows:
            fh.write(f"{h}\t{r}\t{t}\t{label}\t{split}\n")

    return paths


def subspace_fixture(
    n_entities: int = 100,
    ambient: int = 10,
    intrinsic: int = 3,
    noise: float = 0.01,
    spread: float = 2.0,
    seed: int = 11,
):
    """Entity points generated in an `intrinsic`-dimensional affine subspace
    of R^ambient plus isotropic noise, wrapped as training data with one
    semantic type covering every entity.

    Returns (train_data, points).
    """
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(ambient, intrinsic)))
    base = rng.normal(scale=0.5, size=ambient)
    coords = rng.uniform(-spread, spread, size=(n_entities, intrinsic))
    points = base + coords @ basis.T + rng.normal(scale=noise, size=(n_entities, ambient))
    data = TrainData(
        n_entities=n_entities,
        n_words=1,
        word_word=None,
        entity_word=None,
        type_system=single_type_system("thing", n_entities),
        triples=empty_triple_store(),
    )
    return data, points


def attribute_corpus(n_entities: int = 100, n_noise_words: int = 20, seed: int = 3):
    """Entity-word counts in which word 0's count is round(exp(a)) for a
    hidden per-entity attribute a, and every other word is noise.

    Returns (train_data, entity_ids, attribute values by id).
    """
    rng = np.random.default_rng(seed)
    entity_ids = [f"e{i:03d}" for i in range(n_entities)]
    attrs = rng.uniform(0.5, 4.5, size=n_entities)
    entries: dict[tuple[int, int], float] = {}
    for e in range(n_entities):
        entries[(e, 0)] = float(np.round(np.exp(attrs[e])))
        for j in range(1, n_noise_words + 1):
            if rng.random() < 0.6:
                entries[(e, j)] = float(rng.integers(1, 8))
    table = CooccurrenceTable.from_dict(ENTITY_WORD, entries)
    words = ["signal"] + [f"w{j:02d}" for j in range(n_noise_words)]
    data = TrainData(
        n_entities=n_entities,
        n_words=len(words),
        word_word=None,
        entity_word=table,
        type_system=empty_type_system(),
        triples=empty_triple_store(),
    )
    return data, entity_ids, {entity_ids[i]: float(attrs[i]) for i in range(n_entities)}


def chain_graph(n_entities: int = 20) -> TrainData:
    """A consistent translation graph: `next` links i -> i+1 and `skip`
    links i -> i+2, so an exact embedding of both relations exists."""
    catalog = EntityCatalog(tuple(f"e{i:02d}" for i in range(n_entities)), tuple(0 for _ in range(n_entities)), 0)
    rows = []
    for i in range(n_entities - 1):
        rows.append((catalog.ids[i], "next", catalog.ids[i + 1]))
    for i in range(n_entities - 2):
        rows.append((catalog.ids[i], "skip", catalog.ids[i + 2]))
    return TrainData(
        n_entities=n_entities,
        n_words=1,
        word_word=None,
        entity_word=None,
        type_system=empty_type_system(),
        triples=index_triples(rows, catalog),
    )


def clustered_embedding(
    n_entities: int = 60,
    n_problems: int = 3,
    cluster_size: int = 12,
    dim: int = 10,
    seed: int = 23,
):
    """An embedding in which each problem's positive entities form a tight
    cluster, for exercising centroid-based induction.

    Returns (entity_ids, points, type_system, induction problems).
    """
    from typespace.evalharness import InductionProblem

    rng = np.random.default_rng(seed)
    entity_ids = tuple(f"e{i:02d}" for i in range(n_entities))
    points = rng.normal(scale=2.0, size=(n_entities, dim))
    problems = []
    for p in range(n_problems):
        members = list(range(p * cluster_size, (p + 1) * cluster_size))
        center = rng.normal(scale=4.0, size=dim)
        for m in members:
            points[m] = center + rng.normal(scale=0.05, size=dim)
        ids = [entity_ids[m] for m in members]
        rng.shuffle(ids)
        k = cluster_size
        n_train = max(1, int(0.6 * k))
        n_valid = max(1, int(0.2 * k))
        problems.append(
            InductionProblem(
                relation=f"rel{p}",
                target=f"target{p}",
                train=tuple(ids[:n_train]),
                valid=tuple(ids[n_train : n_train + n_valid]),
                test=tuple(ids[n_train + n_valid :]),
            )
        )
    ts = single_type_system("thing", n_entities)
    return entity_ids, points, ts, problems
