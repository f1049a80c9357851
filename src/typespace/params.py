"""Trainable parameters, hyperparameters, and the model file format.

The model file is a little-endian binary layout: magic, format version, the
hyperparameters, id tables for entities/words/relations, every parameter
array as raw float64, and a trailing CRC32 of everything before it.  The
format round-trips losslessly; a text export is available for interop.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from typespace.ingest import TripleStore, TypeSystem

MAGIC = b"TYSPACE1"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class VariantFlags:
    """Which objective components a model variant activates."""

    type_active: bool
    comb: bool
    rel_dim_active: bool
    rel_dist_active: bool
    reg1: bool
    reg2: bool


_VARIANT_TABLE = {
    "full": VariantFlags(True, False, True, True, True, True),
    "no_rel": VariantFlags(True, False, False, False, True, False),
    "no_type": VariantFlags(False, False, True, True, False, True),
    "no_nn": VariantFlags(False, False, True, True, False, False),
    "text": VariantFlags(False, False, False, False, False, False),
    "rel_dim": VariantFlags(True, False, True, False, True, True),
    "rel_dist": VariantFlags(True, False, False, True, True, False),
    "type_comb": VariantFlags(True, True, True, True, True, True),
    "type_dist": VariantFlags(True, True, True, True, False, True),
}
VARIANTS = tuple(_VARIANT_TABLE)


def variant_flags(variant: str) -> VariantFlags:
    try:
        return _VARIANT_TABLE[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}; expected one of {', '.join(VARIANTS)}") from None


class ModelFormatError(ValueError):
    """Wrong magic string, incompatible format version, or contents that
    disagree with each other (array shapes against the id tables and the
    embedding dimension, member indices, relation-group keys)."""


class ModelIntegrityError(ValueError):
    """Truncated or corrupted model file (checksum mismatch)."""


@dataclass(frozen=True)
class Hyperparams:
    # The model file stores the fields in this order (_write_hyperparams).
    n: int = 50
    alpha_mix: float = 0.5
    beta_reg: float = 300.0
    x_max: float = 100.0
    weight_exp: float = 0.75
    epochs: int = 20
    learn_rate: float = 0.05
    variant: str = "full"
    rank_eps: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not 0.0 <= self.alpha_mix <= 1.0:
            raise ValueError("alpha_mix must lie in [0, 1]")
        if self.beta_reg < 0.0:
            raise ValueError("beta_reg must be non-negative")
        if self.x_max <= 0.0:
            raise ValueError("x_max must be positive")
        if not 0.0 < self.weight_exp <= 1.0:
            raise ValueError("weight_exp must lie in (0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learn_rate <= 0.0:
            raise ValueError("learn_rate must be positive")
        if self.rank_eps <= 0.0:
            raise ValueError("rank_eps must be positive")
        variant_flags(self.variant)  # rejects an unknown variant


@dataclass
class EmbeddingModel:
    """Entity points, word/context vectors and all biases."""

    entity_points: np.ndarray  # (E, n)
    word_vecs: np.ndarray      # (V, n)
    ctx_vecs: np.ndarray       # (V, n)
    word_bias: np.ndarray      # (V,)
    ctx_bias: np.ndarray       # (V,)
    entity_bias: np.ndarray    # (E,)

    @property
    def n_entities(self):
        return self.entity_points.shape[0]

    @property
    def n_words(self):
        return self.word_vecs.shape[0]


@dataclass
class SubspaceBlock:
    """Points modelled as convex combinations of n+1 anchor points.

    A type block has one simplex row of `coeffs` per member entity.  A
    relation-group block has one row per member entity and a last row for
    the group's translated virtual member (see group_points).
    """

    anchors: np.ndarray  # (n+1, n)
    members: np.ndarray  # (m,) entity indices, ascending
    coeffs: np.ndarray   # (m, n+1) for a type, (m+1, n+1) for a group

    def copy(self) -> "SubspaceBlock":
        return SubspaceBlock(self.anchors.copy(), self.members.copy(), self.coeffs.copy())


@dataclass
class TypeSubspaceParams:
    per_type: dict[str, SubspaceBlock] = field(default_factory=dict)

    def __getitem__(self, type_id: str) -> SubspaceBlock:
        return self.per_type[type_id]

    def __contains__(self, type_id: str) -> bool:
        return type_id in self.per_type

    def items(self):
        return self.per_type.items()


@dataclass
class RelationParams:
    vectors: np.ndarray  # (R, n) translation vector per relation
    rhs_groups: dict[tuple[int, int], SubspaceBlock] = field(default_factory=dict)  # (head, rel)
    lhs_groups: dict[tuple[int, int], SubspaceBlock] = field(default_factory=dict)  # (rel, tail)

    def sides(self):
        """(side, groups) for the tail groups ("rhs") and the head groups ("lhs")."""
        return (("rhs", self.rhs_groups), ("lhs", self.lhs_groups))


@dataclass
class ModelParams:
    """Everything the optimizer trains, as one bundle."""

    model: EmbeddingModel
    types: TypeSubspaceParams
    rels: RelationParams


def anchor_span_matrix(anchors: np.ndarray) -> np.ndarray:
    """The n x n matrix whose i-th row is anchor i minus anchor 0; its rank
    is the dimension of the anchors' affine span."""
    return anchors[1:] - anchors[0]


def set_anchor_span_matrix(anchors: np.ndarray, span: np.ndarray) -> None:
    """Rewrite anchors 1..n from a span matrix, keeping anchor 0 as base."""
    anchors[1:] = anchors[0] + span


class GroupPlan(NamedTuple):
    """Index plan of a relation group's fit.  Its points are
    entity_points[rows] (members, then the endpoint), with sign * vectors[rel]
    added to the last row, the virtual member: the translated head e + r_k
    of a tail group (e, k), or the translated tail f - r_k of a head group
    (k, f).  Its point gradients step the distinct entities step_rows (the
    members, then the endpoint unless it is one), the endpoint at end_pos."""

    rows: np.ndarray
    rel: int
    sign: float
    step_rows: np.ndarray
    end_pos: int


def group_plan(members: np.ndarray, side: str, key: tuple[int, int]) -> GroupPlan:
    entity, k, sign = (key[0], key[1], 1.0) if side == "rhs" else (key[1], key[0], -1.0)
    rows = np.concatenate((members, [entity]))
    listed = members.tolist()
    if entity in listed:
        return GroupPlan(rows, k, sign, members, listed.index(entity))
    return GroupPlan(rows, k, sign, rows, len(listed))


def group_points(entity_points: np.ndarray, vectors: np.ndarray, plan: GroupPlan) -> np.ndarray:
    """A relation group's member points, its virtual member last."""
    points = entity_points[plan.rows]
    points[-1] += plan.sign * vectors[plan.rel]
    return points


def _new_block(points: np.ndarray, members: np.ndarray, n: int, rng) -> SubspaceBlock:
    noise = 0.1 / n
    anchors = points.mean(axis=0)[None, :] + rng.uniform(-noise, noise, size=(n + 1, n))
    return SubspaceBlock(anchors=anchors, members=members, coeffs=np.full((len(points), n + 1), 1.0 / (n + 1)))


def init_parameters(
    n_entities: int,
    n_words: int,
    type_system: TypeSystem,
    triples: TripleStore,
    hp: Hyperparams,
) -> ModelParams:
    """Deterministic initialization given hp.seed.

    Vectors are uniform in [-0.5/n, 0.5/n] per coordinate, biases zero.
    Type and group anchors start at the centroid of their member points
    plus uniform noise of scale 0.1/n, and every simplex coefficient row
    starts uniform at 1/(n+1).
    """
    if n_entities < 1:
        raise ValueError("cannot initialize a model with zero entities")
    if n_words < 1:
        raise ValueError("cannot initialize a model with zero words")
    n = hp.n
    rng = np.random.default_rng(hp.seed)
    scale = 0.5 / n

    def uniform(shape):
        return rng.uniform(-scale, scale, size=shape)

    model = EmbeddingModel(
        entity_points=uniform((n_entities, n)),
        word_vecs=uniform((n_words, n)),
        ctx_vecs=uniform((n_words, n)),
        word_bias=np.zeros(n_words),
        ctx_bias=np.zeros(n_words),
        entity_bias=np.zeros(n_entities),
    )

    types = TypeSubspaceParams()
    for type_id in type_system.type_ids:
        members = np.array(type_system.instances[type_id], dtype=np.int64)
        if members.size == 0:
            raise ValueError(f"type {type_id!r} has no member entities; its anchors would have no centroid")
        types.per_type[type_id] = _new_block(model.entity_points[members], members, n, rng)

    rels = RelationParams(vectors=uniform((len(triples.relation_ids), n)))
    for (side, groups), index in zip(rels.sides(), (triples.rhs, triples.lhs)):
        for key, entities in index.items():
            members = np.array(entities, dtype=np.int64)
            points = group_points(model.entity_points, rels.vectors, group_plan(members, side, key))
            groups[key] = _new_block(points, members, n, rng)

    return ModelParams(model=model, types=types, rels=rels)


@dataclass
class LoadedModel:
    model: EmbeddingModel
    types: TypeSubspaceParams
    rels: RelationParams
    hp: Hyperparams
    entity_ids: tuple[str, ...]
    word_ids: tuple[str, ...]
    relation_ids: tuple[str, ...]

    @property
    def params(self) -> ModelParams:
        return ModelParams(self.model, self.types, self.rels)


class _Writer:
    def __init__(self):
        self.chunks: list[bytes] = []

    def raw(self, b: bytes):
        self.chunks.append(b)

    def u64(self, v: int):
        self.raw(struct.pack("<Q", v))

    def i64(self, v: int):
        self.raw(struct.pack("<q", v))

    def f64(self, v: float):
        self.raw(struct.pack("<d", v))

    def string(self, s: str):
        b = s.encode("utf-8")
        self.u64(len(b))
        self.raw(b)

    def strings(self, items):
        self.u64(len(items))
        for s in items:
            self.string(s)

    def array(self, a: np.ndarray):
        a = np.ascontiguousarray(a, dtype=np.float64)
        self.u64(a.ndim)
        for d in a.shape:
            self.u64(d)
        self.raw(a.astype("<f8").tobytes())

    def index_array(self, a: np.ndarray):
        a = np.ascontiguousarray(a, dtype=np.int64)
        self.u64(a.shape[0])
        self.raw(a.astype("<i8").tobytes())

    def payload(self) -> bytes:
        return b"".join(self.chunks)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def raw(self, size: int) -> bytes:
        if self.pos + size > len(self.buf):
            raise ModelIntegrityError("model file ends prematurely")
        out = self.buf[self.pos : self.pos + size]
        self.pos += size
        return out

    def u64(self) -> int:
        return struct.unpack("<Q", self.raw(8))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.raw(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.raw(8))[0]

    def string(self) -> str:
        return self.raw(self.u64()).decode("utf-8")

    def strings(self) -> tuple[str, ...]:
        return tuple(self.string() for _ in range(self.u64()))

    def array(self) -> np.ndarray:
        ndim = self.u64()
        shape = tuple(self.u64() for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(self.raw(count * 8), dtype="<f8")
        return data.reshape(shape).copy()

    def index_array(self) -> np.ndarray:
        count = self.u64()
        return np.frombuffer(self.raw(count * 8), dtype="<i8").astype(np.int64)


# Hyperparams field annotation -> _Writer/_Reader method.
_HP_CODECS = {"int": "i64", "float": "f64", "str": "string"}


def _write_hyperparams(w: _Writer, hp: Hyperparams):
    for f in fields(Hyperparams):
        getattr(w, _HP_CODECS[f.type])(getattr(hp, f.name))


def _read_hyperparams(r: _Reader) -> Hyperparams:
    values = {f.name: getattr(r, _HP_CODECS[f.type])() for f in fields(Hyperparams)}
    try:
        return Hyperparams(**values)
    except ValueError as exc:
        raise ModelFormatError(f"hyperparameters: {exc}") from None


def _write_block(w: _Writer, block: SubspaceBlock):
    w.array(block.anchors)
    w.index_array(block.members)
    w.array(block.coeffs)


def _check_shapes(where: tuple, arrays) -> None:
    """Reject the first (name, array, expected shape) whose shape differs."""
    for name, arr, shape in arrays:
        if arr.shape != shape:
            prefix = f"{' '.join(map(str, where))}: " if where else ""
            raise ModelFormatError(f"{prefix}{name} shape {arr.shape}, expected {shape}")


def _read_block(r: _Reader, n: int, virtual: int, where: tuple) -> SubspaceBlock:
    """Read a block and check its shapes against the embedding dimension n;
    a relation group has one virtual coefficient row."""
    block = SubspaceBlock(anchors=r.array(), members=r.index_array(), coeffs=r.array())
    _check_shapes(where, (
        ("anchors", block.anchors, (n + 1, n)),
        ("coeffs", block.coeffs, (len(block.members) + virtual, n + 1)),
    ))
    return block


def _check_members(blocks: dict, n_entities: int) -> None:
    """Reject member indices outside the entity table, naming the first
    block that holds one; one vectorized test covers the common case."""

    def in_range(members):
        return np.all((members >= 0) & (members < n_entities))

    if not blocks or in_range(np.concatenate([b.members for b in blocks.values()])):
        return
    where = next(where for where, b in blocks.items() if not in_range(b.members))
    raise ModelFormatError(f"{' '.join(map(str, where))}: member index out of range of {n_entities} entities")


def _check_group_keys(rels: RelationParams, n_entities: int, n_relations: int) -> None:
    """Reject a relation-group key whose entity or relation index is out of
    range, naming the first such group; one vectorized test covers both
    sides."""
    rhs, lhs = (
        np.fromiter(itertools.chain.from_iterable(groups), np.int64, 2 * len(groups)).reshape(-1, 2)
        for _, groups in rels.sides()
    )
    # (entity, relation) per key: a tail group's key is (e, k), a head group's (k, f).
    pairs = np.concatenate([rhs, lhs[:, ::-1]])
    bad = ((pairs < 0) | (pairs >= (n_entities, n_relations))).any(axis=1)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    side, key = ("rhs", rhs[i]) if i < len(rhs) else ("lhs", lhs[i - len(rhs)])
    raise ModelFormatError(
        f"group {side} {tuple(key.tolist())}: key index out of range of {n_entities} entities and {n_relations} relations"
    )


def save_model(
    path,
    model: EmbeddingModel,
    types: TypeSubspaceParams,
    rels: RelationParams,
    hp: Hyperparams,
    entity_ids,
    word_ids,
    relation_ids,
) -> None:
    """Write the versioned binary model file (lossless round-trip)."""
    w = _Writer()
    w.raw(MAGIC)
    w.u64(FORMAT_VERSION)
    _write_hyperparams(w, hp)
    w.strings(tuple(entity_ids))
    w.strings(tuple(word_ids))
    w.strings(tuple(relation_ids))

    w.array(model.entity_points)
    w.array(model.word_vecs)
    w.array(model.ctx_vecs)
    w.array(model.word_bias)
    w.array(model.ctx_bias)
    w.array(model.entity_bias)

    w.u64(len(types.per_type))
    for type_id in sorted(types.per_type):
        w.string(type_id)
        _write_block(w, types.per_type[type_id])

    w.array(rels.vectors)
    for _, groups in rels.sides():
        w.u64(len(groups))
        for key in sorted(groups):
            w.i64(key[0])
            w.i64(key[1])
            _write_block(w, groups[key])

    payload = w.payload()
    checksum = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(checksum)


def load_model(path) -> LoadedModel:
    """Read a model file written by save_model, verifying the checksum."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4:
        raise ModelIntegrityError("model file too short")
    payload, checksum = blob[:-4], blob[-4:]
    if not payload.startswith(MAGIC):
        raise ModelFormatError("not a typespace model file (bad magic)")
    if struct.unpack("<I", checksum)[0] != (zlib.crc32(payload) & 0xFFFFFFFF):
        raise ModelIntegrityError("model file checksum mismatch (truncated or corrupted)")

    r = _Reader(payload)
    r.raw(len(MAGIC))
    version = r.u64()
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"model format version {version} not supported (expected {FORMAT_VERSION})")
    hp = _read_hyperparams(r)
    entity_ids = r.strings()
    word_ids = r.strings()
    relation_ids = r.strings()

    model = EmbeddingModel(
        entity_points=r.array(),
        word_vecs=r.array(),
        ctx_vecs=r.array(),
        word_bias=r.array(),
        ctx_bias=r.array(),
        entity_bias=r.array(),
    )

    blocks = {}
    types = TypeSubspaceParams()
    for _ in range(r.u64()):
        type_id = r.string()
        blocks["type", type_id] = types.per_type[type_id] = _read_block(r, hp.n, 0, ("type", type_id))

    rels = RelationParams(vectors=r.array())
    for side, groups in rels.sides():
        for _ in range(r.u64()):
            key = (r.i64(), r.i64())
            blocks["group", side, key] = groups[key] = _read_block(r, hp.n, 1, ("group", side, key))

    if r.pos != len(payload):
        raise ModelIntegrityError("trailing bytes after model payload")
    n_e, n_w, n_r = len(entity_ids), len(word_ids), len(relation_ids)
    _check_shapes((), (
        ("entity_points", model.entity_points, (n_e, hp.n)),
        ("entity_bias", model.entity_bias, (n_e,)),
        ("word_vecs", model.word_vecs, (n_w, hp.n)),
        ("ctx_vecs", model.ctx_vecs, (n_w, hp.n)),
        ("word_bias", model.word_bias, (n_w,)),
        ("ctx_bias", model.ctx_bias, (n_w,)),
        ("relation vectors", rels.vectors, (n_r, hp.n)),
    ))
    _check_members(blocks, n_e)
    _check_group_keys(rels, n_e, n_r)
    return LoadedModel(model, types, rels, hp, entity_ids, word_ids, relation_ids)


def export_text(path, model: EmbeddingModel, entity_ids, word_ids) -> None:
    """Lossy text export: one "id v1 ... vn" line per entity, then per word."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, eid in enumerate(entity_ids):
            coords = " ".join(repr(float(v)) for v in model.entity_points[i])
            fh.write(f"{eid} {coords}\n")
        for j, wid in enumerate(word_ids):
            coords = " ".join(repr(float(v)) for v in model.word_vecs[j])
            fh.write(f"{wid} {coords}\n")


def clone_params(params: ModelParams) -> ModelParams:
    """Deep copy of all trainable arrays (used for divergence snapshots)."""
    model = EmbeddingModel(
        entity_points=params.model.entity_points.copy(),
        word_vecs=params.model.word_vecs.copy(),
        ctx_vecs=params.model.ctx_vecs.copy(),
        word_bias=params.model.word_bias.copy(),
        ctx_bias=params.model.ctx_bias.copy(),
        entity_bias=params.model.entity_bias.copy(),
    )
    types = TypeSubspaceParams({t: tp.copy() for t, tp in params.types.items()})
    rels = RelationParams(
        vectors=params.rels.vectors.copy(),
        rhs_groups={key: g.copy() for key, g in params.rels.rhs_groups.items()},
        lhs_groups={key: g.copy() for key, g in params.rels.lhs_groups.items()},
    )
    return ModelParams(model, types, rels)
