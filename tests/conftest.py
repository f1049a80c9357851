import json
import struct
import zlib

import numpy as np
import pytest

from typespace import synth
from typespace.ingest import (
    CooccurrenceTable,
    ENTITY_WORD,
    TripleStore,
    TypeSystem,
    WORD_WORD,
)
from typespace.optimize import TrainData
from typespace.params import BlockStore, Hyperparams, init_parameters


@pytest.fixture(scope="session")
def micro_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("micro")
    paths = synth.make_micro_corpus(str(out))
    return paths


def with_crc(payload: bytes) -> bytes:
    """payload followed by its CRC32, as save_model ends a file."""
    return payload + struct.pack("<I", zlib.crc32(payload))


def split_model(blob: bytes) -> tuple[bytes, bytes, bytes]:
    """(magic and version, header, array bytes) of a model file; the checksum is dropped."""
    size = struct.unpack_from("<Q", blob, 16)[0]
    return blob[:16], blob[24 : 24 + size], blob[24 + size : -4]


def rewrite_header(path, edit, raw=False) -> None:
    """Replace the model file's header by edit(header) and refresh the
    length and checksum; edit takes and returns the header bytes when raw,
    the parsed header otherwise."""
    start, header, body = split_model(path.read_bytes())
    header = edit(header) if raw else json.dumps(edit(json.loads(header))).encode()
    path.write_bytes(with_crc(start + struct.pack("<Q", len(header)) + header + body))


def block_store(kind, blocks, n):
    """A BlockStore of kind ("type", "rhs" or "lhs") holding blocks, a dict
    key -> (anchors, members, coeffs), at embedding dimension n."""
    keys = sorted(blocks)
    parts = [tuple(np.asarray(a) for a in blocks[key]) for key in keys]
    return BlockStore(
        kind,
        tuple(keys),
        np.array([anchors for anchors, _, _ in parts], dtype=np.float64).reshape(len(keys), n + 1, n),
        np.array([len(members) for _, members, _ in parts], dtype=np.int64),
        np.concatenate([np.zeros(0, dtype=np.int64)] + [members.astype(np.int64) for _, members, _ in parts]),
        np.concatenate([np.zeros((0, n + 1))] + [coeffs.astype(np.float64).reshape(-1, n + 1) for _, _, coeffs in parts]),
    )


def triple_store(relation_ids, triples):
    """A TripleStore of the distinct (head, rel, tail) index triples in
    sorted order, with their tail groups (head, rel) -> tails and head
    groups (rel, tail) -> heads, keyed and listed in ascending order."""
    triples = sorted(set(triples))
    rhs: dict = {}
    lhs: dict = {}
    for e, k, f in triples:
        rhs.setdefault((e, k), []).append(f)
        lhs.setdefault((k, f), []).append(e)
    return TripleStore(tuple(relation_ids), tuple(triples), {k: tuple(sorted(v)) for k, v in sorted(rhs.items())},
                       {k: tuple(sorted(v)) for k, v in sorted(lhs.items())})


def random_instance(seed, n=4, n_entities=6, n_words=5):
    """A small random model + data instance for gradient checking: random
    tables, two overlapping types, a handful of triples with groups, and
    parameters perturbed away from initialization (coefficients stay on the
    simplex)."""
    rng = np.random.default_rng(seed)
    ww = {}
    for _ in range(8):
        ww[(int(rng.integers(n_words)), int(rng.integers(n_words)))] = float(rng.integers(1, 30))
    ew = {}
    for _ in range(8):
        ew[(int(rng.integers(n_entities)), int(rng.integers(n_words)))] = float(rng.integers(1, 30))
    ww_t = CooccurrenceTable.from_dict(WORD_WORD, ww)
    ew_t = CooccurrenceTable.from_dict(ENTITY_WORD, ew)

    members1 = tuple(sorted(int(x) for x in rng.choice(n_entities, size=3, replace=False)))
    members2 = tuple(sorted(int(x) for x in rng.choice(n_entities, size=4, replace=False)))
    ts = TypeSystem(
        ("t1", "t2"),
        {"t1": members1, "t2": members2},
        {"t1": frozenset({"t1"}), "t2": frozenset({"t2"})},
    )

    triples = {(int(rng.integers(n_entities)), int(rng.integers(2)), int(rng.integers(n_entities))) for _ in range(5)}
    store = triple_store(("r0", "r1"), triples)

    hp = Hyperparams(n=n, seed=seed, epochs=1)
    params = init_parameters(n_entities, n_words, ts, store, hp)
    perturb(params, rng)
    return ww_t, ew_t, store, params, hp


def interleaved_instance(seed, n=4, n_entities=10, n_words=5):
    """(data, params, hp): random_instance's tables, seven types of 2, 4, 2,
    1, 4, 3 and 2 members and head groups of 2, 3, 2 and 3 rows, in key
    order, so the blocks of a size class are not contiguous, plus a few
    random triples; parameters perturbed as random_instance's."""
    ww, ew, _, _, hp = random_instance(seed, n=n, n_entities=n_entities, n_words=n_words)
    rng = np.random.default_rng(seed)
    members = {f"t{i}": tuple(sorted(rng.choice(n_entities, size=size, replace=False).tolist()))
               for i, size in enumerate((2, 4, 2, 1, 4, 3, 2))}
    ts = TypeSystem(tuple(members), members, {t: frozenset({t}) for t in members})
    triples = {(h, 0, f) for f, heads in enumerate(((4,), (5, 6), (7,), (8, 9))) for h in heads}
    triples |= {(int(rng.integers(n_entities)), int(rng.integers(1, 3)), int(rng.integers(n_entities)))
                for _ in range(6)}
    store = triple_store(("r0", "r1", "r2"), triples)
    params = init_parameters(n_entities, n_words, ts, store, hp)
    perturb(params, rng)
    return TrainData(n_entities, n_words, ww, ew, ts, store), params, hp


def perturb(params, rng):
    """Move params away from initialization with rng's draws: every vector,
    bias and anchor by Gaussian noise, and every coefficient row to a
    random point of the simplex."""
    m = params.model
    for arr in (m.entity_points, m.word_vecs, m.ctx_vecs):
        arr += rng.normal(scale=0.3, size=arr.shape)
    for arr in (m.word_bias, m.ctx_bias, m.entity_bias):
        arr += rng.normal(scale=0.2, size=arr.shape)
    params.rels.vectors += rng.normal(scale=0.3, size=params.rels.vectors.shape)
    for tp in params.types.per_type.values():
        tp.anchors[:] += rng.normal(scale=0.4, size=tp.anchors.shape)
        raw = rng.uniform(0.1, 1.0, size=tp.coeffs.shape)
        tp.coeffs[:] = raw / raw.sum(axis=1, keepdims=True)
    for groups in (params.rels.rhs_groups, params.rels.lhs_groups):
        for gp in groups.values():
            gp.anchors[:] += rng.normal(scale=0.4, size=gp.anchors.shape)
            raw = rng.uniform(0.1, 1.0, size=gp.coeffs.shape)
            gp.coeffs[:] = raw / raw.sum(axis=1, keepdims=True)
