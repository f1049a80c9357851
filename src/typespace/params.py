"""Trainable parameters, hyperparameters, and the model file format.

Types and relation groups are the same subspace block, and the blocks of
each kind (types, tail groups, head groups) are stacked in one BlockStore.
How the trainer lays out and steps these arrays is optimize's concern.

The model file (format version 3) is the magic, the format version and the
header length as little-endian u64s, a UTF-8 JSON header (hyperparameters,
id tables, type ids, array shapes), the arrays as raw little-endian bytes
(embedding arrays, relation vectors, then per block kind its group keys,
stacked anchors, member counts, members and coefficient rows), and a CRC32
of everything before it.  Loading checks each header field's JSON type,
then each array at once (shapes, member counts, indices in range, strictly
ascending keys, finite floats, coefficient rows on the simplex).  A file of
an older version gets a version error and must be retrained.  The format
round-trips losslessly; a text export is available for interop.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import zlib
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from typespace.ingest import TripleStore, TypeSystem

MAGIC = b"TYSPACE1"
FORMAT_VERSION = 3

# A coefficient row is on the probability simplex when its sum is within
# _SIMPLEX_SUM_TOL of 1 and no entry is below -_SIMPLEX_NEG_TOL
# (BlockStore.off_simplex, for the objective and load_model alike).
_SIMPLEX_SUM_TOL = 1e-6
_SIMPLEX_NEG_TOL = 1e-9


def _finite(a: np.ndarray, sum_sq: float | None = None) -> bool:
    """Whether every value of a is finite.  Its sum of squares (sum_sq, or
    vdot(a, a)) is finite only if every value is, so only a non-finite sum
    needs the exact test: a NaN or infinity, or finite values whose squares
    overflow.  vdot, unlike a ufunc, raises no floating-point warning."""
    if sum_sq is None:
        sum_sq = np.vdot(a, a)
    return math.isfinite(sum_sq) or bool(np.isfinite(a).all())


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
    """Wrong magic string, incompatible format version, a non-finite
    value, or contents that disagree with each other (array shapes against
    the id tables and the embedding dimension, member counts and indices,
    block keys, coefficient rows off the simplex)."""


class ModelIntegrityError(ValueError):
    """Truncated or corrupted model file (checksum mismatch)."""


@dataclass(frozen=True)
class Hyperparams:
    # The model header stores the fields in this order (save_model).
    n: int = 50
    alpha_mix: float = 0.5
    beta_reg: float = 300.0
    epochs: int = 20
    learn_rate: float = 0.05
    variant: str = "full"
    rank_eps: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.n < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not 0.0 <= self.alpha_mix <= 1.0:
            raise ValueError("alpha_mix must lie in [0, 1]")
        if self.beta_reg < 0.0:
            raise ValueError("beta_reg must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learn_rate <= 0.0:
            raise ValueError("learn_rate must be positive")
        if self.rank_eps <= 0.0:
            raise ValueError("rank_eps must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
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


class SubspaceBlock(NamedTuple):
    """One block of a BlockStore, as views of its arrays: points modelled as
    convex combinations of n+1 anchor points.  A type block has one simplex
    row of `coeffs` per member entity; a relation-group block has one row
    per member and a last row for its translated virtual member (see
    BlockStore.class_points)."""

    anchors: np.ndarray  # (n+1, n)
    members: np.ndarray  # (m,) entity indices, ascending
    coeffs: np.ndarray   # (m, n+1) for a type, (m+1, n+1) for a group


class SizeClass(NamedTuple):
    """The blocks of a BlockStore that hold r coefficient rows each, as
    gather indices: row i describes block blocks[i]."""

    blocks: np.ndarray  # (B_r,) block indices, ascending
    rows: np.ndarray    # (B_r, r) entity rows of the blocks' points, a group's endpoint last
    coeffs: np.ndarray  # (B_r, r) coefficient rows
    rels: np.ndarray | None  # (B_r,) the relation of each group's virtual member; None for types


def _first_block(bad: np.ndarray, offsets: np.ndarray | None = None) -> int | None:
    """The block of the first True in bad, a mask per block, or per entry of
    the member or coefficient-row array whose BlockStore.offsets are given;
    None when bad is all False."""
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i if offsets is None else int(np.searchsorted(offsets, i, side="right")) - 1


@dataclass(eq=False)
class BlockStore(Mapping):
    """The subspace blocks of one kind, stacked: a mapping from key to the
    SubspaceBlock view of its block, in ascending key order.

    kind is "type" (keys are type ids), "rhs" (tail groups, keys (head,
    rel)) or "lhs" (head groups, keys (rel, tail)).  Block i owns anchors[i],
    the next counts[i] members, and one coefficient row per member plus a
    group's virtual row.  The views share the arrays: edit them in place.
    """

    kind: str
    key_table: tuple
    anchors: np.ndarray  # (B, n+1, n)
    counts: np.ndarray   # (B,) int64
    members: np.ndarray  # (sum(counts),) int64
    coeffs: np.ndarray   # (sum(counts), n+1) for types, (sum(counts) + B, n+1) for groups

    @cached_property
    def offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """(member offsets, coefficient-row offsets), B+1 each: block i holds
        members[m[i]:m[i+1]] and coeffs[c[i]:c[i+1]]."""
        m = np.concatenate(([0], np.cumsum(self.counts)))
        return m, m + (self.kind != "type") * np.arange(len(m))

    @cached_property
    def _index(self) -> dict:
        return {key: i for i, key in enumerate(self.key_table)}

    @cached_property
    def _blocks(self) -> list[SubspaceBlock]:
        m, c = (o.tolist() for o in self.offsets)
        return [
            SubspaceBlock(self.anchors[i], self.members[m[i] : m[i + 1]], self.coeffs[c[i] : c[i + 1]])
            for i in range(len(self.key_table))
        ]

    @cached_property
    def endpoints(self) -> np.ndarray:
        """(B, 2): each relation group's (endpoint entity, relation), from its
        key, (e, k) for a tail group and (k, f) for a head group; no rows for
        types."""
        pairs = np.array(self.key_table if self.kind != "type" else (), dtype=np.int64).reshape(-1, 2)
        return pairs if self.kind == "rhs" else pairs[:, ::-1]

    @cached_property
    def size_classes(self) -> list[SizeClass]:
        """The blocks grouped by coefficient-row count, one SizeClass per
        count in ascending order, built once."""
        m, c = self.offsets
        sizes = np.diff(c)
        virtual = int(self.kind != "type")
        out = []
        for r in np.unique(sizes).tolist():
            blocks = np.flatnonzero(sizes == r)
            rows = self.members[m[blocks, None] + np.arange(r - virtual)]
            rels = None
            if virtual:
                rows = np.concatenate((rows, self.endpoints[blocks, :1]), axis=1)
                rels = self.endpoints[blocks, 1]
            out.append(SizeClass(blocks, rows, c[blocks, None] + np.arange(r), rels))
        return out

    def class_points(self, cls: SizeClass, entity_points: np.ndarray, vectors: np.ndarray | None) -> np.ndarray:
        """The (B_r, r, n) points of size class cls's blocks: a type's
        members, or a relation group's members and then its virtual member,
        the translated head e + r_k of a tail group (e, k) or the translated
        tail f - r_k of a head group (k, f)."""
        points = entity_points[cls.rows]
        if self.kind != "type":
            points[:, -1] += (1.0 if self.kind == "rhs" else -1.0) * vectors[cls.rels]
        return points

    def __getitem__(self, key) -> SubspaceBlock:
        return self._blocks[self._index[key]]

    def __iter__(self):
        return iter(self.key_table)

    def __len__(self) -> int:
        return len(self.key_table)

    def label(self, i: int) -> str:
        """Block i's name in an error message."""
        return f"type {self.key_table[i]}" if self.kind == "type" else f"group {self.kind} {self.key_table[i]}"

    def off_simplex(self) -> int | None:
        """The first block with a coefficient row off the probability
        simplex, None when every row is on it."""
        c = self.coeffs
        bad = (np.abs(c.sum(axis=-1) - 1.0) > _SIMPLEX_SUM_TOL) | (c < -_SIMPLEX_NEG_TOL).any(axis=-1)
        return _first_block(bad, self.offsets[1])

    def zeros(self) -> BlockStore:
        """The same blocks with zero anchors and coefficients: the layout of
        their AdaGrad accumulators."""
        return replace(self, anchors=np.zeros_like(self.anchors), coeffs=np.zeros_like(self.coeffs))

    def copy(self) -> BlockStore:
        return replace(self, **{f: getattr(self, f).copy() for f in ("anchors", "counts", "members", "coeffs")})


@dataclass
class TypeSubspaceParams:
    per_type: BlockStore

    def __getitem__(self, type_id: str) -> SubspaceBlock:
        return self.per_type[type_id]

    def __contains__(self, type_id: str) -> bool:
        return type_id in self.per_type

    def items(self):
        return self.per_type.items()


@dataclass
class RelationParams:
    vectors: np.ndarray     # (R, n) translation vector per relation
    rhs_groups: BlockStore  # tail groups, keyed (head, rel)
    lhs_groups: BlockStore  # head groups, keyed (rel, tail)


@dataclass
class ModelParams:
    """Everything the optimizer trains, as one bundle."""

    model: EmbeddingModel
    types: TypeSubspaceParams
    rels: RelationParams


def anchor_span_matrix(anchors: np.ndarray) -> np.ndarray:
    """The n x n matrix whose i-th row is anchor i minus anchor 0; its rank
    is the dimension of the anchors' affine span.  A (B, n+1, n) stack of
    anchors gives the (B, n, n) stack of its blocks' spans."""
    return anchors[..., 1:, :] - anchors[..., :1, :]


def set_anchor_span_matrix(anchors: np.ndarray, span: np.ndarray) -> None:
    """Rewrite anchors 1..n from a span matrix, keeping anchor 0 as base;
    stacks as anchor_span_matrix."""
    anchors[..., 1:, :] = anchors[..., :1, :] + span


def block_centroids(store: BlockStore, entity_points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """(B, n): the mean of each block's points, one stacked mean per size
    class; each row is bit for bit the block's own mean(axis=0)."""
    out = np.empty((len(store), entity_points.shape[1]))
    for cls in store.size_classes:
        out[cls.blocks] = store.class_points(cls, entity_points, vectors).mean(axis=1)
    return out


def _new_store(kind: str, index, noise: np.ndarray, n: int) -> BlockStore:
    """The blocks of index (key -> member entities) in one store, keyed in
    ascending order, with noise[i], drawn for the i-th block of index, as
    anchors and every coefficient row uniform at 1/(n+1)."""
    keys = sorted(index)
    position = {key: i for i, key in enumerate(index)}
    counts = np.array([len(index[key]) for key in keys], dtype=np.int64)
    members = np.fromiter(itertools.chain.from_iterable(index[key] for key in keys), np.int64, int(counts.sum()))
    coeffs = np.full((len(members) + int(kind != "type") * len(keys), n + 1), 1.0 / (n + 1))
    return BlockStore(kind, tuple(keys), noise[[position[key] for key in keys]], counts, members, coeffs)


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
    starts uniform at 1/(n+1).  The draws are the entity, word and context
    vectors, the type noise, the relation vectors and the group noise, in
    that order.
    """
    if n_entities < 1:
        raise ValueError("cannot initialize a model with zero entities")
    if n_words < 1:
        raise ValueError("cannot initialize a model with zero words")
    n = hp.n
    rng = np.random.default_rng(hp.seed)
    scale = 0.5 / n
    noise = 0.1 / n

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

    type_noise = rng.uniform(-noise, noise, size=(len(type_system.type_ids), n + 1, n))
    types = _new_store("type", {t: type_system.instances[t] for t in type_system.type_ids}, type_noise, n)
    if not types.counts.all():
        empty = types.key_table[int(np.argmin(types.counts))]
        raise ValueError(f"type {empty!r} has no member entities; its anchors would have no centroid")
    vectors = uniform((len(triples.relation_ids), n))
    group_noise = rng.uniform(-noise, noise, size=(len(triples.rhs) + len(triples.lhs), n + 1, n))
    rels = RelationParams(
        vectors,
        _new_store("rhs", triples.rhs, group_noise[: len(triples.rhs)], n),
        _new_store("lhs", triples.lhs, group_noise[len(triples.rhs) :], n),
    )

    for store in (types, rels.rhs_groups, rels.lhs_groups):
        store.anchors += block_centroids(store, model.entity_points, vectors)[:, None]
    return ModelParams(model, TypeSubspaceParams(types), rels)


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


# Hyperparams field annotation -> the Python type of its value in the model header.
_HP_TYPES = {"int": int, "float": float, "str": str}

_MODEL_ARRAYS = {"entity_points": 2, "word_vecs": 2, "ctx_vecs": 2, "word_bias": 1, "ctx_bias": 1, "entity_bias": 1}
_STORE_ARRAYS = (("anchors", "<f8", 3), ("counts", "<i8", 1), ("members", "<i8", 1), ("coeffs", "<f8", 2))
_STORE_NAMES = {"type": "types", "rhs": "rhs groups", "lhs": "lhs groups"}  # in errors
# The body's arrays in file order, as (store, name, dtype, ndim): the
# embedding arrays, the relation vectors, then each store's arrays, a group
# store's (B, 2) keys first (the type ids are in the header).  store is the
# block store's name in errors, "" for the others.
_BODY = (
    *(("", name, "<f8", ndim) for name, ndim in (*_MODEL_ARRAYS.items(), ("relation vectors", 2))),
    *(
        (where, *spec)
        for kind, where in _STORE_NAMES.items()
        for spec in ((("keys", "<i8", 2),) if kind != "type" else ()) + _STORE_ARRAYS
    ),
)


def _label(where: str, name: str) -> str:
    """An array's name in an error, after the block store (where) that holds it."""
    return f"{where}: {name}" if where else name


def _check_shapes(where: str, arrays) -> None:
    """Reject the first (name, array, expected shape) whose shape differs."""
    for name, arr, shape in arrays:
        if arr.shape != shape:
            raise ModelFormatError(f"{_label(where, name)} shape {arr.shape}, expected {shape}")


def _check_store(store: BlockStore, n: int, n_entities: int, n_relations: int) -> None:
    """Reject a store whose arrays disagree with its key count, the
    embedding dimension n, each other or the id tables, or whose keys are
    not strictly ascending; one test per array, naming the first block that
    fails."""
    where, keys, n_members = _STORE_NAMES[store.kind], store.key_table, len(store.members)
    _check_shapes(where, (
        ("anchors", store.anchors, (len(keys), n + 1, n)),
        ("member counts", store.counts, (len(keys),)),
        ("coeffs", store.coeffs, (n_members + (store.kind != "type") * len(keys), n + 1)),
    ))
    # A count above n_members would let the sum wrap around to n_members.
    if ((store.counts < 0) | (store.counts > n_members)).any() or store.counts.sum() != n_members:
        raise ModelFormatError(f"{where}: member counts must be non-negative and sum to the {n_members} members")
    pairs = store.endpoints
    for i, what in (
        (_first_block(((pairs < 0) | (pairs >= (n_entities, n_relations))).any(axis=1)),
         f"key index out of range of {n_entities} entities and {n_relations} relations"),
        (_first_block(np.array([False] + [not a < b for a, b in zip(keys, keys[1:])])),
         "duplicate or out-of-order key (keys must be strictly ascending)"),
        (_first_block((store.members < 0) | (store.members >= n_entities), store.offsets[0]),
         f"member index out of range of {n_entities} entities"),
        (store.off_simplex(), "coefficient row off the probability simplex"),
    ):
        if i is not None:
            raise ModelFormatError(f"{store.label(i)}: {what}")


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
    arrays = [getattr(model, name) for name in _MODEL_ARRAYS] + [rels.vectors]
    for store in (types.per_type, rels.rhs_groups, rels.lhs_groups):
        if store.kind != "type":
            arrays.append(np.array(store.key_table, dtype=np.int64).reshape(-1, 2))
        arrays += [getattr(store, name) for name, _, _ in _STORE_ARRAYS]
    arrays = [np.ascontiguousarray(a, dtype) for a, (_, _, dtype, _) in zip(arrays, _BODY)]
    header = json.dumps(
        {
            "hp": {f.name: _HP_TYPES[f.type](getattr(hp, f.name)) for f in fields(hp)},
            "entity_ids": list(entity_ids),
            "word_ids": list(word_ids),
            "relation_ids": list(relation_ids),
            "type_ids": list(types.per_type.key_table),
            "shapes": [a.shape for a in arrays],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    # The arrays' own buffers go into the join, which copies them once.
    payload = b"".join([MAGIC, struct.pack("<QQ", FORMAT_VERSION, len(header)), header, *(a.data for a in arrays)])
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def _typed(value, kind: type, what: str, item: type | None = None):
    """value, which must be a JSON value of Python type kind, a list of item
    values when item is given; what names it in the error."""
    if type(value) is not kind or (item and not set(map(type, value)) <= {item}):
        raise ModelFormatError(f"model header: {what} is not {kind.__name__}{f' of {item.__name__}' if item else ''}")
    return value


def _read_header(raw: memoryview) -> tuple[dict, Hyperparams]:
    """The model header from its raw bytes, each field of the type save_model
    writes, and its Hyperparams."""
    try:
        header = json.loads(str(raw, "utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ModelFormatError(f"model header is not UTF-8 JSON: {exc}") from None
    _typed(header, dict, "the header")
    for name in ("entity_ids", "word_ids", "relation_ids", "type_ids"):
        ids = _typed(header.get(name), list, f"field {name!r}", str)
        if len(set(ids)) < len(ids):
            repeated = next(i for i, count in Counter(ids).items() if count > 1)
            raise ModelFormatError(f"model header: field {name!r} repeats the id {repeated!r}")
    shapes = _typed(header.get("shapes"), list, "field 'shapes'")
    if len(shapes) != len(_BODY):
        raise ModelFormatError(f"model header: {len(shapes)} array shapes, expected {len(_BODY)}")
    for shape, (where, name, _, ndim) in zip(shapes, _BODY):
        if type(shape) is not list or len(shape) != ndim or not set(map(type, shape)) <= {int} or min(shape) < 0:
            raise ModelFormatError(f"model header: shape of {_label(where, name)} is not {ndim} non-negative ints")
    hp = _typed(header.get("hp"), dict, "field 'hp'")
    values = {f.name: _typed(hp.get(f.name), _HP_TYPES[f.type], f"hp field {f.name!r}") for f in fields(Hyperparams)}
    try:
        return header, Hyperparams(**values)
    except ValueError as exc:
        raise ModelFormatError(f"hyperparameters: {exc}") from None


def load_model(path) -> LoadedModel:
    """Read a model file written by save_model, verifying the checksum."""
    with open(path, "rb") as fh:
        blob = fh.read()
    start = len(MAGIC) + 16  # the header's first byte
    if len(blob) < start + 4:
        raise ModelIntegrityError("model file too short")
    payload, checksum = memoryview(blob)[:-4], blob[-4:]
    if not blob.startswith(MAGIC):
        raise ModelFormatError("not a typespace model file (bad magic)")
    if struct.unpack("<I", checksum)[0] != zlib.crc32(payload):
        raise ModelIntegrityError("model file checksum mismatch (truncated or corrupted)")

    version, size = struct.unpack_from("<QQ", payload, len(MAGIC))
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"model format version {version} not supported (expected {FORMAT_VERSION})")
    header, hp = _read_header(payload[start : start + size])
    # A header length past the end leaves the first offset past it too.
    offsets = list(itertools.accumulate((8 * math.prod(s) for s in header["shapes"]), initial=start + size))
    if offsets[-1] != len(payload):
        raise ModelFormatError(
            f"the array shapes take {offsets[-1] - offsets[0]} bytes, the model file holds {len(payload) - offsets[0]}"
        )

    arrays = []
    for (where, name, dtype, _), shape, offset in zip(_BODY, header["shapes"], offsets):
        data = np.frombuffer(payload, dtype, math.prod(shape), offset)
        if dtype == "<f8" and not _finite(data):
            raise ModelFormatError(f"{_label(where, name)} holds a non-finite value")
        try:
            arrays.append(data.reshape(shape).copy())
        except ValueError:  # a dimension too large for an array, next to a zero
            raise ModelFormatError(f"{_label(where, name)} shape {tuple(shape)} is too large") from None
    arrays = iter(arrays)
    model = EmbeddingModel(**{name: next(arrays) for name in _MODEL_ARRAYS})
    vectors = next(arrays)
    stores = []
    for kind, where in _STORE_NAMES.items():
        if kind == "type":
            keys = tuple(header["type_ids"])
        else:
            pairs = next(arrays)
            _check_shapes(where, (("keys", pairs, (len(pairs), 2)),))
            keys = tuple(map(tuple, pairs.tolist()))
        stores.append(BlockStore(kind, keys, *(next(arrays) for _ in _STORE_ARRAYS)))
    types, rels = stores[0], RelationParams(vectors, *stores[1:])

    entity_ids, word_ids, relation_ids = (tuple(header[name]) for name in ("entity_ids", "word_ids", "relation_ids"))
    n_e, n_w, n_r = len(entity_ids), len(word_ids), len(relation_ids)
    _check_shapes("", (
        ("entity_points", model.entity_points, (n_e, hp.n)),
        ("entity_bias", model.entity_bias, (n_e,)),
        ("word_vecs", model.word_vecs, (n_w, hp.n)),
        ("ctx_vecs", model.ctx_vecs, (n_w, hp.n)),
        ("word_bias", model.word_bias, (n_w,)),
        ("ctx_bias", model.ctx_bias, (n_w,)),
        ("relation vectors", rels.vectors, (n_r, hp.n)),
    ))
    for store in stores:
        _check_store(store, hp.n, n_e, n_r)
    return LoadedModel(model, TypeSubspaceParams(types), rels, hp, entity_ids, word_ids, relation_ids)


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
    model = EmbeddingModel(**{f.name: getattr(params.model, f.name).copy() for f in fields(EmbeddingModel)})
    rels = RelationParams(params.rels.vectors.copy(), params.rels.rhs_groups.copy(), params.rels.lhs_groups.copy())
    return ModelParams(model, TypeSubspaceParams(params.types.per_type.copy()), rels)
