"""Seeded input generators for the benchmark workloads.

Every generator writes plain input files (a JSON-lines corpus, the type and
triple TSVs, one problem file per eval task) into a fresh directory and
returns an `Inputs` record.  The pipeline only ever sees those files; the
same seed gives byte-identical files.

The three workloads stress different layers:

- corpus: the bundled micro-corpus recipe scaled up, so ingest counting and
  the per-entry text pass dominate while types and relation groups stay
  few and small (n=10).
- kb: a knowledge-base-heavy instance at n=50 with 21 types and 200
  triples whose tails are heavy-tailed, so the relation-group pass and the
  SVD prox dominate training.

Each is sized so that one pass of the whole pipeline takes about a second:
the benchmark times every stage once per pass and needs many passes per
run to be steady on a shared host (see hostspeed.py).
- eval: a planted embedding (a city type on a low-rank affine subspace with
  attribute directions, agents placed by translation vectors) with large
  problem sets.  Training only refines the planted points for one epoch at
  a tiny learning rate, so eval time dominates and the planted answers can
  be checked against stated floors.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

FILLERS = ["the", "a", "of", "in", "and", "is", "was", "near", "with", "very"]
SIGNAL_WORD = "busy"


@dataclass
class Inputs:
    files: dict[str, str]
    ingest: dict[str, int]
    hp: dict
    properties: dict = field(default_factory=dict)
    floors: dict[str, float] | None = None


def _write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(str(x) for x in row) + "\n")


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _sentence(rng, entity, theme, n_theme, extra=()):
    """Micro-corpus style sentence: themed words, two fillers and the
    entity token at a random position; returns (tokens, mention span)."""
    words = list(extra)
    picks = rng.choice(len(theme), size=n_theme, replace=False)
    words += [theme[i] for i in picks]
    words += [FILLERS[i] for i in rng.integers(len(FILLERS), size=2)]
    rng.shuffle(words)
    pos = int(rng.integers(len(words) + 1))
    return words[:pos] + [entity] + words[pos:], [pos, pos + 1]


def _write_corpus(path, rng, entities, theme_of, signal, article_sents, n_ctx_docs, ctx_size, n_theme):
    """One article per entity plus context documents mentioning `ctx_size`
    random entities each.  signal[e] extra SIGNAL_WORD tokens go into every
    article sentence of e.  Returns (documents, tokens)."""
    docs = tokens = 0
    with open(path, "w", encoding="utf-8") as fh:
        for e in entities:
            sentences, mentions = [], []
            extra = [SIGNAL_WORD] * signal.get(e, 0)
            for s in range(article_sents):
                toks, span = _sentence(rng, e, theme_of[e], n_theme, extra)
                sentences.append(toks)
                mentions.append({"entity": e, "sentence": s, "span": span})
                tokens += len(toks)
            fh.write(json.dumps({"doc_id": f"art_{e}", "article_of": e, "sentences": sentences, "mentions": mentions}) + "\n")
            docs += 1
        for d in range(n_ctx_docs):
            sentences, mentions = [], []
            for s, i in enumerate(rng.choice(len(entities), size=ctx_size, replace=False)):
                e = entities[int(i)]
                toks, span = _sentence(rng, e, theme_of[e], n_theme)
                sentences.append(toks)
                mentions.append({"entity": e, "sentence": s, "span": span})
                tokens += len(toks)
            fh.write(json.dumps({"doc_id": f"ctx_{d:05d}", "article_of": None, "sentences": sentences, "mentions": mentions}) + "\n")
            docs += 1
    return docs, tokens


def _split(items, train=0.6, valid=0.2):
    n = len(items)
    a = max(1, int(round(train * n)))
    b = max(1, int(round(valid * n)))
    return {"train": items[:a], "valid": items[a : a + b], "test": items[a + b :]}


def _group_sizes(triples):
    rhs: dict = {}
    lhs: dict = {}
    for h, r, t in triples:
        rhs[(h, r)] = rhs.get((h, r), 0) + 1
        lhs[(r, t)] = lhs.get((r, t), 0) + 1
    sizes = list(rhs.values()) + list(lhs.values())
    return {
        "relation_groups": len(sizes),
        "group_size_mean": float(np.mean(sizes)),
        "group_size_max": int(max(sizes)),
    }


def _tc_rows(rng, triples, entity_pool, known):
    """True triples plus one tail-corrupted row each; the valid/test split
    alternates within each relation so every relation has valid rows."""
    rows = []
    seen: dict[str, int] = {}
    for h, r, t in triples:
        seen[r] = seen.get(r, 0) + 1
        split = "valid" if seen[r] % 2 == 1 else "test"
        rows.append((h, r, t, 1, split))
        pool = entity_pool(t)
        while True:
            wrong = pool[int(rng.integers(len(pool)))]
            if wrong != t and (h, r, wrong) not in known:
                break
        rows.append((h, r, wrong, 0, split))
    return rows


def _write_problems(d, files, ranking, induction, analogy, lp, tc):
    for name, obj in (("ranking", ranking), ("induction", induction), ("analogy", analogy)):
        files[name] = os.path.join(d, f"{name}.json")
        _write_json(files[name], obj)
    files["link_prediction"] = os.path.join(d, "lp_test.tsv")
    _write_tsv(files["link_prediction"], lp)
    files["triple_classification"] = os.path.join(d, "tc.tsv")
    _write_tsv(files["triple_classification"], tc)


def _write_kb(d, files, instances, subclass, triples):
    files["instances"] = os.path.join(d, "instances.tsv")
    _write_tsv(files["instances"], instances)
    files["subclass"] = os.path.join(d, "subclass.tsv")
    _write_tsv(files["subclass"], subclass)
    files["triples"] = os.path.join(d, "triples.tsv")
    _write_tsv(files["triples"], triples)


# ---------------------------------------------------------------------------
# corpus: the micro-corpus recipe, scaled

CITY_WORDS = ["harbor", "market", "bridge", "tram", "river", "wall", "square", "gate"]
PERSON_WORDS = ["writer", "singer", "travels", "speaks", "born", "famous", "young", "quiet"]
ORG_WORDS = ["factory", "office", "trade", "ships", "steel", "paper", "founded", "sells"]

CORPUS_SCALE = 2
CORPUS_CTX_DOCS_PER_SCALE = 600
CORPUS_REGION = 60
CORPUS_QUADS = 200


def make_corpus(d, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    s = CORPUS_SCALE
    cities = [f"c{i:04d}" for i in range(30 * s)]
    people = [f"p{i:04d}" for i in range(12 * s)]
    orgs = [f"o{i:04d}" for i in range(8 * s)]
    entities = cities + people + orgs

    population = {c: float(rng.uniform(0.0, 4.0)) for c in cities}
    home = {p: cities[int(rng.integers(len(cities)))] for p in people}
    org_city = {o: cities[int(rng.integers(len(cities)))] for o in orgs}
    employer = {p: orgs[int(rng.integers(len(orgs)))] for p in people}
    # Each hub city gets six residents and six organizations, so every
    # induction problem has a sizeable positive set.
    hubs = cities[:s]
    for i, h in enumerate(hubs):
        for p in people[6 * i : 6 * i + 6]:
            home[p] = h
        for o in orgs[6 * i : 6 * i + 6]:
            org_city[o] = h

    theme_of = {e: CITY_WORDS for e in cities} | {e: PERSON_WORDS for e in people} | {e: ORG_WORDS for e in orgs}
    signal = {c: min(3, 1 + int(population[c])) for c in cities}
    files = {"corpus": os.path.join(d, "corpus.jsonl")}
    n_docs, n_tokens = _write_corpus(
        files["corpus"], rng, entities, theme_of, signal, article_sents=3,
        n_ctx_docs=CORPUS_CTX_DOCS_PER_SCALE * s, ctx_size=3, n_theme=3,
    )

    instances = [(c, "city") for c in cities] + [(p, "person") for p in people] + [(o, "organization") for o in orgs]
    subclass = [("city", "place"), ("person", "agent"), ("organization", "agent")]
    triples = [(p, "located_in", home[p]) for p in people] + [(p, "works_for", employer[p]) for p in people]
    triples += [(o, "located_in", org_city[o]) for o in orgs]
    triples += [(orgs[i], "trades_with", orgs[i + 1]) for i in range(0, len(orgs) - 1, 2)]
    _write_kb(d, files, instances, subclass, triples)

    # One population problem per region of 60 cities: the pairwise ranker
    # is quadratic in the training split, so a single 600-city problem
    # would swamp every other stage.
    order = list(cities)
    rng.shuffle(order)
    ranking = []
    for r in range(0, len(order), CORPUS_REGION):
        region = order[r : r + CORPUS_REGION]
        values = {c: population[c] for c in region}
        ranking.append({"type": "city", "attribute": f"population_{r // CORPUS_REGION}", "values": values, "split": _split(region)})
    induction = []
    for i, h in enumerate(hubs):
        residents = people[6 * i : 6 * i + 6] + orgs[6 * i : 6 * i + 6]
        rng.shuffle(residents)
        induction.append({"relation": "located_in", "target": h, "split": _split(residents)})
    quads = []
    for i in range(len(people) - 1):
        a, c = people[i], people[i + 1]
        if home[a] != home[c]:
            quads.append([a, home[a], c, home[c]])
    quads = quads[:CORPUS_QUADS]
    analogy = {"quads": quads, "split": {"tune": list(range(3)), "test": list(range(3, len(quads)))}}
    lp = [triples[int(i)] for i in rng.choice(len(triples), size=15 * s, replace=False)]
    known = set(triples)
    pools = {"city": cities, "person": people, "organization": orgs}
    kind = {e: "city" for e in cities} | {e: "person" for e in people} | {e: "organization" for e in orgs}
    tc = _tc_rows(rng, triples, lambda t: pools[kind[t]], known)
    _write_problems(d, files, ranking, induction, analogy, lp, tc)

    props = {"documents": n_docs, "tokens": n_tokens, "entities": len(entities), "types": 5, "triples": len(triples)}
    props.update(_group_sizes(triples))
    return Inputs(
        files=files,
        ingest={"window": 10, "min_count": 1, "min_mentions": 1},
        # lr 0.02 keeps the one-epoch loss out of the chaotic early phase, so
        # final_loss varies little from seed to seed.
        hp={"n": 10, "alpha_mix": 0.5, "beta_reg": 0.01, "epochs": 1, "learn_rate": 0.02, "variant": "full", "seed": seed},
        properties=props,
    )


# ---------------------------------------------------------------------------
# kb: many types and heavy-tailed relation groups at n=50

KB_ENTITIES = 500
KB_WORDS = 48
KB_LEAF_TYPES = 16
KB_MID_TYPES = 4
KB_RELATIONS = 12
KB_TRIPLES = 200
KB_HUBS = 8
KB_HUB_SHARE = 0.08
KB_RANKED = 30
KB_QUADS = 12
KB_LP_TRIPLES = 60
KB_TC_TRIPLES = 100


def make_kb(d, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    entities = [f"e{i:04d}" for i in range(KB_ENTITIES)]
    words = [f"w{i:04d}" for i in range(KB_WORDS)]
    leaves = [f"t{i:02d}" for i in range(KB_LEAF_TYPES)]
    mids = [f"m{i}" for i in range(KB_MID_TYPES)]
    leaf_of = {e: leaves[int(i) % KB_LEAF_TYPES] for e, i in zip(entities, rng.permutation(KB_ENTITIES))}
    themes = {t: words[i::KB_LEAF_TYPES] for i, t in enumerate(leaves)}
    theme_of = {e: themes[leaf_of[e]] for e in entities}

    ranked = [e for e in entities if leaf_of[e] == leaves[0]][:KB_RANKED]
    value = {e: float(rng.uniform(0.0, 4.0)) for e in ranked}
    signal = {e: min(3, 1 + int(value[e])) for e in ranked}
    files = {"corpus": os.path.join(d, "corpus.jsonl")}
    n_docs, n_tokens = _write_corpus(
        files["corpus"], rng, entities, theme_of, signal, article_sents=1,
        n_ctx_docs=0, ctx_size=0, n_theme=3,
    )

    instances = [(e, leaf_of[e]) for e in entities]
    subclass = [(t, mids[i % KB_MID_TYPES]) for i, t in enumerate(leaves)] + [(m, "thing") for m in mids]

    # Heads cycle through a permutation, so (head, relation) groups are
    # mostly singletons.  Tails are uniform except for a Zipf-weighted hub
    # set, each hub with its own relation, which makes the (relation, tail)
    # group sizes heavy-tailed.
    heads = rng.permutation(KB_ENTITIES)
    hubs = rng.choice(KB_ENTITIES, size=KB_HUBS, replace=False)
    zipf = 1.0 / np.arange(1, KB_HUBS + 1)
    zipf /= zipf.sum()
    rels = [f"r{k}" for k in range(KB_RELATIONS)]
    known: set = set()
    triples = []
    i = 0
    while len(triples) < KB_TRIPLES:
        h = int(heads[i % KB_ENTITIES])
        i += 1
        if rng.random() < KB_HUB_SHARE:
            j = int(rng.choice(KB_HUBS, p=zipf))
            k, t = j % KB_RELATIONS, int(hubs[j])
        else:
            k, t = int(rng.integers(KB_RELATIONS)), int(rng.integers(KB_ENTITIES))
        row = (entities[h], rels[k], entities[t])
        if h != t and row not in known:
            known.add(row)
            triples.append(row)
    _write_kb(d, files, instances, subclass, triples)

    rng.shuffle(ranked)
    ranking = {"type": leaves[0], "attribute": "value", "values": value, "split": _split(ranked)}
    heads_of: dict = {}
    for h, r, t in triples:
        heads_of.setdefault((r, t), []).append(h)
    biggest = sorted(heads_of, key=lambda key: (-len(heads_of[key]), key))[:3]
    induction = []
    for r, t in biggest:
        heads = sorted(heads_of[(r, t)])
        rng.shuffle(heads)
        induction.append({"relation": r, "target": t, "split": _split(heads)})
    functional = [(h, t) for h, r, t in triples if r == rels[0]]
    quads = []
    for (a, b), (c, e) in zip(functional[0::2], functional[1::2]):
        if len({a, b, c, e}) == 4:
            quads.append([a, b, c, e])
    quads = quads[:KB_QUADS]
    analogy = {"quads": quads, "split": {"tune": [0, 1], "test": list(range(2, len(quads)))}}
    lp = [triples[int(i)] for i in rng.choice(len(triples), size=KB_LP_TRIPLES, replace=False)]
    tc_src = [triples[int(i)] for i in rng.choice(len(triples), size=KB_TC_TRIPLES, replace=False)]
    tc = _tc_rows(rng, tc_src, lambda t: entities, known)
    _write_problems(d, files, ranking, induction, analogy, lp, tc)

    props = {
        "documents": n_docs,
        "tokens": n_tokens,
        "entities": KB_ENTITIES,
        "types": KB_LEAF_TYPES + KB_MID_TYPES + 1,
        "triples": len(triples),
    }
    props.update(_group_sizes(triples))
    return Inputs(
        files=files,
        # Entity tokens occur once (their one article sentence), so
        # min_count=2 keeps them out of the vocabulary and the text side
        # stays small.
        ingest={"window": 10, "min_count": 2, "min_mentions": 1},
        hp={"n": 50, "alpha_mix": 0.5, "beta_reg": 0.01, "epochs": 1, "learn_rate": 0.05, "variant": "full", "seed": seed},
        properties=props,
    )


# ---------------------------------------------------------------------------
# eval: a planted embedding with large problem sets

EVAL_DIM = 20
EVAL_CITIES = 100
EVAL_PEOPLE = 400
EVAL_ORGS = 120
EVAL_CITY_RANK = 4
EVAL_ATTRIBUTES = 2
EVAL_HUBS = 30
EVAL_HUB_RESIDENTS = 10
EVAL_QUADS = 100
EVAL_REGION = 50
EVAL_LP_TRIPLES = 250

# Floors the planted answers must clear after the one refinement epoch.
EVAL_FLOORS = {
    "lp_hits_at_10": 0.9,
    "ranking_rho": 0.9,
    "induction_map": 0.9,
    "analogy_accuracy": 0.9,
    "tc_accuracy": 0.95,
}


def make_eval(d, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    n = EVAL_DIM
    cities = [f"c{i:04d}" for i in range(EVAL_CITIES)]
    people = [f"p{i:04d}" for i in range(EVAL_PEOPLE)]
    orgs = [f"o{i:04d}" for i in range(EVAL_ORGS)]

    # Cities lie on a rank-4 affine subspace; coordinates 0..1 are the
    # planted attributes, so each attribute is a direction in the subspace.
    # The subspace basis, the base point and both relation vectors are
    # orthonormal directions with fixed lengths, so the loss scale does not
    # depend on the seed.
    q, _ = np.linalg.qr(rng.normal(size=(n, EVAL_CITY_RANK + 3)))
    basis = q[:, :EVAL_CITY_RANK]
    base = 12.0 * q[:, EVAL_CITY_RANK]
    coords = rng.uniform(-6.0, 6.0, size=(EVAL_CITIES, EVAL_CITY_RANK))
    points = {c: base + coords[i] @ basis.T + rng.normal(scale=0.01, size=n) for i, c in enumerate(cities)}
    rel_vec = {"located_in": 8.0 * q[:, EVAL_CITY_RANK + 1], "based_in": 8.0 * q[:, EVAL_CITY_RANK + 2]}
    # EVAL_HUBS cities get EVAL_HUB_RESIDENTS people each (the induction
    # problems); the other people and all organizations are spread at
    # random over the remaining cities.
    home = {}
    shuffled = [people[int(i)] for i in rng.permutation(EVAL_PEOPLE)]
    n_hub_people = EVAL_HUBS * EVAL_HUB_RESIDENTS
    for i, p in enumerate(shuffled[:n_hub_people]):
        home[p] = cities[i % EVAL_HUBS]
    for a in shuffled[n_hub_people:] + orgs:
        home[a] = cities[EVAL_HUBS + int(rng.integers(EVAL_CITIES - EVAL_HUBS))]
    for a, rel in [(p, "located_in") for p in people] + [(o, "based_in") for o in orgs]:
        points[a] = points[home[a]] - rel_vec[rel] + rng.normal(scale=0.05, size=n)
    triples = [(p, "located_in", home[p]) for p in people] + [(o, "based_in", home[o]) for o in orgs]
    entities = cities + people + orgs

    files = {"corpus": os.path.join(d, "corpus.jsonl"), "planted": os.path.join(d, "planted.npz")}
    theme_of = {e: CITY_WORDS for e in cities} | {e: PERSON_WORDS for e in people} | {e: ORG_WORDS for e in orgs}
    n_docs, n_tokens = _write_corpus(
        files["corpus"], rng, entities, theme_of, {}, article_sents=1, n_ctx_docs=0, ctx_size=0, n_theme=3,
    )
    np.savez(
        files["planted"],
        entity_ids=np.array(entities),
        entity_points=np.array([points[e] for e in entities]),
        relation_ids=np.array(sorted(rel_vec)),
        relation_vectors=np.array([rel_vec[r] for r in sorted(rel_vec)]),
    )
    instances = [(c, "city") for c in cities] + [(p, "person") for p in people] + [(o, "organization") for o in orgs]
    subclass = [("city", "place"), ("person", "agent"), ("organization", "agent"), ("place", "thing"), ("agent", "thing")]
    _write_kb(d, files, instances, subclass, triples)

    ranking = []
    for j in range(EVAL_ATTRIBUTES):
        order = list(range(EVAL_CITIES))
        rng.shuffle(order)
        for r in range(0, EVAL_CITIES, EVAL_REGION):
            region = [cities[i] for i in order[r : r + EVAL_REGION]]
            values = {cities[i]: float(coords[i, j]) for i in order[r : r + EVAL_REGION]}
            ranking.append({"type": "city", "attribute": f"attr{j}_{r // EVAL_REGION}", "values": values, "split": _split(region)})
    residents: dict = {}
    for p in people:
        residents.setdefault(home[p], []).append(p)
    induction = []
    for c in cities[:EVAL_HUBS]:
        pos = sorted(residents[c])
        rng.shuffle(pos)
        induction.append({"relation": "located_in", "target": c, "split": _split(pos)})
    quads = []
    for a, c in zip(people[0::2], people[1::2]):
        if home[a] != home[c]:
            quads.append([a, home[a], c, home[c]])
    quads = quads[:EVAL_QUADS]
    analogy = {"quads": quads, "split": {"tune": [0, 1], "test": list(range(2, len(quads)))}}
    lp = [triples[int(i)] for i in rng.choice(len(triples), size=EVAL_LP_TRIPLES, replace=False)]
    tc = _tc_rows(rng, triples, lambda t: cities, set(triples))
    _write_problems(d, files, ranking, induction, analogy, lp, tc)

    props = {"documents": n_docs, "tokens": n_tokens, "entities": len(entities), "types": 6, "triples": len(triples)}
    props.update(_group_sizes(triples))
    return Inputs(
        files=files,
        # Entity tokens occur once each; min_count=2 keeps them out of the
        # vocabulary so the text side stays small.
        ingest={"window": 10, "min_count": 2, "min_mentions": 1},
        hp={"n": n, "alpha_mix": 0.5, "beta_reg": 0.01, "epochs": 1, "learn_rate": 0.001, "variant": "full", "seed": seed},
        properties=props,
        floors=EVAL_FLOORS,
    )


GENERATORS = {"corpus": make_corpus, "kb": make_kb, "eval": make_eval}
