import gc
import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import rewrite_header, split_model, triple_store, with_crc
from reference_impls import ref_block_centroids, ref_save_model_joined
from typespace import synth
from typespace.ingest import TripleStore, TypeSystem
from typespace.params import (
    BlockStore,
    Hyperparams,
    ModelFormatError,
    ModelIntegrityError,
    anchor_span_matrix,
    clone_params,
    export_text,
    init_parameters,
    load_model,
    save_model,
    set_anchor_span_matrix,
)


def small_setup(n=3, n_entities=5, n_words=4, seed=42, typed=True):
    ts = synth.single_type_system("thing", n_entities) if typed else synth.empty_type_system()
    data = synth.chain_graph(n_entities)
    hp = Hyperparams(n=n, seed=seed, epochs=1)
    params = init_parameters(n_entities, n_words, ts, data.triples, hp)
    return params, hp, data


def save_small(path, params, hp):
    """save_model with small_setup's id tables: 5 entities, 4 words, 2 relations."""
    save_model(
        path, params.model, params.types, params.rels, hp,
        entity_ids=[f"e{i}" for i in range(5)], word_ids=[f"w{j}" for j in range(4)], relation_ids=["next", "skip"],
    )
    return path


class TestHyperparams:
    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            Hyperparams(alpha_mix=1.5)

    def test_beta_nonnegative(self):
        with pytest.raises(ValueError):
            Hyperparams(beta_reg=-1.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            Hyperparams(variant="bogus")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            Hyperparams(seed=-1)

    def test_dimension_positive(self):
        with pytest.raises(ValueError):
            Hyperparams(n=0)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_at_least_one(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            Hyperparams(epochs=epochs)

    @pytest.mark.parametrize("rank_eps", [0.0, -1e-3, 1.0, 2.0])
    def test_rank_eps_in_open_unit_interval(self, rank_eps):
        # Ranks count singular values above rank_eps * max(sigma_1, 1): at 1
        # or more every rank would read 0.
        with pytest.raises(ValueError, match=r"^rank_eps must lie in \(0, 1\)$"):
            Hyperparams(rank_eps=rank_eps)
        assert Hyperparams(rank_eps=0.999).rank_eps == 0.999

    @pytest.mark.parametrize("field", ["alpha_mix", "beta_reg", "learn_rate", "rank_eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Hyperparams(**{field: value})

    def test_encoding_is_pinned(self, tmp_path):
        # The model header holds the fields in declaration order, each as a
        # JSON value of its annotated type; reordering Hyperparams' fields
        # would change the file format.
        params, _, _ = small_setup(n=7)
        hp = Hyperparams(
            n=7, alpha_mix=0.25, beta_reg=1.5, epochs=3, learn_rate=0.125, variant="type_comb", rank_eps=0.01, seed=11
        )
        path = save_small(tmp_path / "model.bin", params, hp)
        header = split_model(path.read_bytes())[1].decode()
        assert header.startswith(
            '{"hp":{"n":7,"alpha_mix":0.25,"beta_reg":1.5,"epochs":3,"learn_rate":0.125,'
            '"variant":"type_comb","rank_eps":0.01,"seed":11},'
        )
        assert load_model(path).hp == hp


class TestInit:
    def test_deterministic_given_seed(self):
        p1, _, _ = small_setup(seed=7)
        p2, _, _ = small_setup(seed=7)
        assert np.array_equal(p1.model.entity_points, p2.model.entity_points)
        assert np.array_equal(p1.model.word_vecs, p2.model.word_vecs)
        assert np.array_equal(p1.rels.vectors, p2.rels.vectors)
        for t in p1.types.per_type:
            assert np.array_equal(p1.types[t].anchors, p2.types[t].anchors)

    def test_lambda_uniform(self):
        params, _, _ = small_setup(n=3)
        for tp in params.types.per_type.values():
            assert np.allclose(tp.coeffs, 0.25)
        for gp in params.rels.rhs_groups.values():
            assert np.allclose(gp.coeffs, 0.25)

    def test_biases_zero(self):
        params, _, _ = small_setup()
        assert np.all(params.model.word_bias == 0.0)
        assert np.all(params.model.ctx_bias == 0.0)
        assert np.all(params.model.entity_bias == 0.0)

    def test_vector_range(self):
        params, hp, _ = small_setup(n=4)
        bound = 0.5 / hp.n
        for arr in (params.model.entity_points, params.model.word_vecs, params.model.ctx_vecs, params.rels.vectors):
            assert np.all(np.abs(arr) <= bound)

    def test_anchors_near_member_centroid(self):
        params, hp, _ = small_setup(n=4)
        tp = params.types["thing"]
        centroid = params.model.entity_points[tp.members].mean(axis=0)
        assert np.max(np.abs(tp.anchors - centroid)) <= 0.1 / hp.n + 1e-12

    def test_zero_entities_rejected(self):
        with pytest.raises(ValueError):
            init_parameters(0, 3, synth.empty_type_system(), synth.empty_triple_store(), Hyperparams(n=2))

    def test_zero_words_rejected(self):
        with pytest.raises(ValueError):
            init_parameters(3, 0, synth.empty_type_system(), synth.empty_triple_store(), Hyperparams(n=2))


def assert_params_equal(a, b):
    assert np.array_equal(a.model.entity_points, b.model.entity_points)
    assert np.array_equal(a.model.word_vecs, b.model.word_vecs)
    assert np.array_equal(a.model.ctx_vecs, b.model.ctx_vecs)
    assert np.array_equal(a.model.word_bias, b.model.word_bias)
    assert np.array_equal(a.model.ctx_bias, b.model.ctx_bias)
    assert np.array_equal(a.model.entity_bias, b.model.entity_bias)
    assert sorted(a.types.per_type) == sorted(b.types.per_type)
    for t in a.types.per_type:
        assert np.array_equal(a.types[t].anchors, b.types[t].anchors)
        assert np.array_equal(a.types[t].members, b.types[t].members)
        assert np.array_equal(a.types[t].coeffs, b.types[t].coeffs)
    assert np.array_equal(a.rels.vectors, b.rels.vectors)
    for side in ("rhs_groups", "lhs_groups"):
        ga, gb = getattr(a.rels, side), getattr(b.rels, side)
        assert sorted(ga) == sorted(gb)
        for key in ga:
            assert np.array_equal(ga[key].anchors, gb[key].anchors)
            assert np.array_equal(ga[key].members, gb[key].members)
            assert np.array_equal(ga[key].coeffs, gb[key].coeffs)


_TARGETS = {
    "types": lambda p: p.types.per_type,
    "rhs": lambda p: p.rels.rhs_groups,
    "lhs": lambda p: p.rels.lhs_groups,
    "model": lambda p: p.model,
    "rels": lambda p: p.rels,
}


def _edit(target, field, edit):
    def tamper(params):
        obj = _TARGETS[target](params)
        setattr(obj, field, edit(getattr(obj, field)))

    return tamper


def _rekey(side, key):
    """Give the first group of a side another key."""
    return _edit(side, "key_table", lambda keys: (key, *keys[1:]))


def _type_listed_twice(params):
    """The one type, "thing", stored as two blocks under two distinct keys
    out of order, ("thing", "a")."""
    s = params.types.per_type
    params.types.per_type = BlockStore(
        "type", (*s.key_table, "a"), *(np.concatenate([a, a]) for a in (s.anchors, s.counts, s.members, s.coeffs))
    )


def _extra_row(a):
    return np.concatenate([a, a[:1]])


def _short_width(a):
    return a[:, :-1]


def _nan_last(a):
    a = a.copy()
    a.flat[-1] = np.nan
    return a


def _last_row_doubled(a):
    a = a.copy()
    a[-1] *= 2.0
    return a


_DELETE = "<delete>"  # as a value for TestPersistence._set: delete the field
_KEY_RANGE = "key index out of range"
_OFF_SIMPLEX = "coefficient row off the probability simplex"
# case id -> (tamper, message); small_setup has 5 entities, 4 words, 2
# relations, the one type "thing" and 7 tail groups, the last keyed (3, 0).
_INCONSISTENT = {
    "member_too_large": (_edit("types", "members", lambda a: np.append(a[:-1], 99)), "member index out of range"),
    "member_negative": (_edit("types", "members", lambda a: np.append(a[:-1], -1)), "member index out of range"),
    "type_coeff_rows": (_edit("types", "coeffs", lambda a: a[:-1]), "coeffs shape"),
    "anchor_rows": (_edit("types", "anchors", lambda a: a[:, :-1]), "anchors shape"),
    "group_coeff_rows": (_edit("rhs", "coeffs", lambda a: a[:-1]), "coeffs shape"),  # a virtual row short
    "entity_point_rows": (_edit("model", "entity_points", _extra_row), "entity_points shape"),
    "entity_bias_rows": (_edit("model", "entity_bias", _extra_row), "entity_bias shape"),
    "word_vec_rows": (_edit("model", "word_vecs", _extra_row), "word_vecs shape"),
    "ctx_vec_rows": (_edit("model", "ctx_vecs", _extra_row), "ctx_vecs shape"),
    "word_bias_rows": (_edit("model", "word_bias", _extra_row), "word_bias shape"),
    "ctx_bias_rows": (_edit("model", "ctx_bias", _extra_row), "ctx_bias shape"),
    "relation_vector_rows": (_edit("rels", "vectors", _extra_row), "relation vectors shape"),
    "entity_point_width": (_edit("model", "entity_points", _short_width), "entity_points shape"),
    "word_vec_width": (_edit("model", "word_vecs", _short_width), "word_vecs shape"),
    "ctx_vec_width": (_edit("model", "ctx_vecs", _short_width), "ctx_vecs shape"),
    "relation_vector_width": (_edit("rels", "vectors", _short_width), "relation vectors shape"),
    "rhs_key_entity": (_rekey("rhs", (5, 0)), _KEY_RANGE),
    "rhs_key_relation": (_rekey("rhs", (0, 2)), _KEY_RANGE),
    "lhs_key_relation_negative": (_rekey("lhs", (-1, 0)), _KEY_RANGE),
    "lhs_key_entity": (_rekey("lhs", (0, 5)), _KEY_RANGE),
    "entity_point_nan": (_edit("model", "entity_points", _nan_last), "entity_points holds a non-finite value"),
    "duplicate_type_id": (_type_listed_twice, "type a: duplicate or out-of-order key"),
    "duplicate_group_key": (
        _edit("lhs", "key_table", lambda keys: (keys[0], *keys)[: len(keys)]),
        r"group lhs \(0, 1\): duplicate or out-of-order key",
    ),
    "type_off_simplex": (_edit("types", "coeffs", _last_row_doubled), "type thing: " + _OFF_SIMPLEX),
    "group_off_simplex": (_edit("rhs", "coeffs", _last_row_doubled), r"group rhs \(3, 0\): " + _OFF_SIMPLEX),
    "member_counts_sum": (
        _edit("types", "counts", lambda a: a + 1), "types: member counts must be non-negative and sum to the 5 members"
    ),
    "member_counts_wrap": (  # four counts of 2**62 sum to 0 in int64
        _edit("rhs", "counts", lambda a: np.array([2**62] * 4 + [len(a), 0, 0])),
        "rhs groups: member counts must be non-negative and sum to the 7 members",
    ),
    "anchor_count_vs_keys": (
        _edit("rhs", "anchors", lambda a: a[:-1]), r"rhs groups: anchors shape \(6, 4, 3\), expected \(7, 4, 3\)"
    ),
}


# (header path, value) -> message; a path indexes the parsed header.
_HEADER_CASES = [
    (("hp", []), "field 'hp' is not dict"),
    (("hp", "n", True), "hp field 'n' is not int"),
    (("hp", "epochs", 1.0), "hp field 'epochs' is not int"),
    (("hp", "beta_reg", 1), "hp field 'beta_reg' is not float"),
    (("hp", "beta_reg", "1.0"), "hp field 'beta_reg' is not float"),
    (("hp", "variant", None), "hp field 'variant' is not str"),
    (("hp", "seed", _DELETE), "hp field 'seed' is not int"),
    (("hp", "learn_rate", float("nan")), "hyperparameters: learn_rate must be finite"),
    (("hp", "seed", -1), "hyperparameters: seed must be non-negative"),
    (("entity_ids", 1, "e0"), "model header: field 'entity_ids' repeats the id 'e0'"),
    (("word_ids", 3, "w2"), "model header: field 'word_ids' repeats the id 'w2'"),
    (("relation_ids", 0, "skip"), "model header: field 'relation_ids' repeats the id 'skip'"),
    (("type_ids", ["thing", "thing"]), "model header: field 'type_ids' repeats the id 'thing'"),
    (("entity_ids", "e0"), "field 'entity_ids' is not list of str"),
    (("word_ids", 0, 7), "field 'word_ids' is not list of str"),
    (("type_ids", _DELETE), "field 'type_ids' is not list of str"),
    (("shapes", {}), "field 'shapes' is not list"),
    (("shapes", 20, _DELETE), "20 array shapes, expected 21"),
    (("shapes", 0, [15]), r"shape of entity_points is not 2 non-negative ints"),
    (("shapes", 0, 1, True), r"shape of entity_points is not 2 non-negative ints"),
    (("shapes", 3, 0, -4), r"shape of word_bias is not 1 non-negative ints"),
    (("shapes", 7, 0, 3.0), r"shape of types: anchors is not 3 non-negative ints"),
    (("shapes", 0, [4294967296, 4294967296]), "the array shapes take"),
    (("shapes", 0, [5, 4]), "the array shapes take 3496 bytes, the model file holds 3456"),
    (("shapes", 11, [14, 1]), r"rhs groups: keys shape \(14, 1\), expected \(14, 2\)"),
    (("shapes", 0, [3, 5]), r"entity_points shape \(3, 5\), expected \(5, 3\)"),
]


class TestInitNoiseOrder:
    """init_parameters gives block i of an index the i-th noise draw,
    whether the index is in key order (as ingest builds it, so no copy is
    needed) or not (the draws are permuted into key order)."""

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_matches_the_permuting_path(self, shuffled):
        n, n_entities, n_words = 3, 9, 4
        rng = np.random.default_rng(5)
        types = {f"t{i}": tuple(sorted(rng.choice(n_entities, size=1 + i % 4, replace=False).tolist())) for i in range(6)}
        store = triple_store(("r0", "r1", "r2"), [tuple(rng.integers([0, 0, 0], [n_entities, 3, n_entities]).tolist())
                                                  for _ in range(12)])
        type_ids = tuple(types)
        if shuffled:
            type_ids = type_ids[::-1]
            store = TripleStore(store.relation_ids, store.triples, dict(reversed(store.rhs.items())),
                                dict(reversed(store.lhs.items())))
        ts = TypeSystem(type_ids, types, {t: frozenset({t}) for t in types})
        hp = Hyperparams(n=n, seed=3)
        params = init_parameters(n_entities, n_words, ts, store, hp)
        draws = np.random.default_rng(hp.seed)
        points = draws.uniform(-0.5 / n, 0.5 / n, size=(n_entities, n))
        draws.uniform(-0.5 / n, 0.5 / n, size=(2 * n_words, n))  # the word and context vectors
        type_noise = draws.uniform(-0.1 / n, 0.1 / n, size=(len(types), n + 1, n))
        vectors = draws.uniform(-0.5 / n, 0.5 / n, size=(3, n))
        group_noise = draws.uniform(-0.1 / n, 0.1 / n, size=(len(store.rhs) + len(store.lhs), n + 1, n))
        sides = ((params.types.per_type, type_ids, type_noise),
                 (params.rels.rhs_groups, list(store.rhs), group_noise[: len(store.rhs)]),
                 (params.rels.lhs_groups, list(store.lhs), group_noise[len(store.rhs) :]))
        for got, index_order, noise in sides:
            assert got.key_table == tuple(sorted(index_order))
            position = {key: i for i, key in enumerate(index_order)}
            want = noise[[position[key] for key in got.key_table]]
            want += np.array(ref_block_centroids(got, points, vectors)).reshape(-1, 1, n)
            assert got.anchors.tobytes() == want.tobytes(), got.kind


class TestPersistence:
    def _save(self, tmp_path, params, hp):
        return save_small(tmp_path / "model.bin", params, hp)

    def test_round_trip_exact(self, tmp_path):
        params, hp, _ = small_setup(seed=3)
        # make values non-trivial
        params.model.word_bias += 0.125
        params.model.entity_points[0, 0] = 1e300  # finite, though its square overflows
        params.types["thing"].coeffs[0, 0] = 0.5
        params.types["thing"].coeffs[0, 1:] = 0.5 / (params.types["thing"].coeffs.shape[1] - 1)
        path = self._save(tmp_path, params, hp)
        loaded = load_model(path)
        assert_params_equal(loaded.params, params)
        assert loaded.hp == hp
        assert loaded.entity_ids == tuple(f"e{i}" for i in range(5))
        assert loaded.word_ids == tuple(f"w{j}" for j in range(4))
        assert loaded.relation_ids == ("next", "skip")

    def test_wrong_magic(self, tmp_path):
        params, hp, _ = small_setup()
        path = self._save(tmp_path, params, hp)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises((ModelFormatError, ModelIntegrityError)):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        params, hp, _ = small_setup()
        path = self._save(tmp_path, params, hp)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(ModelIntegrityError):
            load_model(path)

    def test_corrupted_byte(self, tmp_path):
        params, hp, _ = small_setup()
        path = self._save(tmp_path, params, hp)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelIntegrityError):
            load_model(path)

    # 1: the per-block layout; 2: the scalar-coded header.  Both must be retrained.
    @pytest.mark.parametrize("version", [999, 1, 2])
    def test_version_mismatch(self, tmp_path, version):
        params, hp, _ = small_setup()
        path = self._save(tmp_path, params, hp)
        # bump the version field (first u64 after the 8-byte magic) and
        # refresh the checksum so only the version check can fail
        blob = path.read_bytes()
        path.write_bytes(with_crc(blob[:8] + struct.pack("<Q", version) + blob[16:-4]))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.replace(b'"e1"', b'"e\xff"'), "model header is not UTF-8 JSON"),
        (lambda h: h[:-1], "model header is not UTF-8 JSON"),
        (lambda h: b"[" * 100000 + b"]" * 100000, "model header is not UTF-8 JSON"),
        (lambda h: b"[]", "model header: the header is not dict"),
    ], ids=["non_utf8_id", "truncated_json", "deep_nesting", "not_an_object"])
    def test_unreadable_header_rejected(self, tmp_path, edit, message):
        params, hp, _ = small_setup()
        path = save_small(tmp_path / "model.bin", params, hp)
        rewrite_header(path, edit, raw=True)
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def _set(self, *path_and_value):
        """An edit that sets header[path[0]][path[1]]... to value."""
        *keys, last, value = path_and_value

        def edit(header):
            obj = header
            for key in keys:
                obj = obj[key]
            if value == _DELETE:
                del obj[last]
            else:
                obj[last] = value
            return header

        return edit

    @pytest.mark.parametrize(
        "path_and_value, message", _HEADER_CASES,
        ids=["-".join(map(str, p[:-1])) + "=" + repr(p[-1]) for p, _ in _HEADER_CASES],
    )
    def test_header_field_types_checked(self, tmp_path, path_and_value, message):
        # Only the header changes and the checksum is refreshed, so only the header checks can fail.
        params, hp, _ = small_setup()
        path = save_small(tmp_path / "model.bin", params, hp)
        rewrite_header(path, self._set(*path_and_value))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_huge_dimension_of_an_empty_array_rejected(self, tmp_path):
        # An empty type store holds no anchor bytes, so the byte count of its
        # anchors matches for any shape with a zero.
        params, hp, _ = small_setup(typed=False)
        path = save_small(tmp_path / "model.bin", params, hp)
        rewrite_header(path, self._set("shapes", 7, [0, 2**40, 2**40]))
        message = r"types: anchors shape \(0, 1099511627776, 1099511627776\) is too large"
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize("tamper, message", _INCONSISTENT.values(), ids=_INCONSISTENT.keys())
    def test_inconsistent_contents_rejected(self, tmp_path, tamper, message):
        # save_model writes whatever it is given, so the file's checksum is
        # valid and only the consistency checks can reject it.  The id
        # tables keep the untampered sizes: 5 entities, 4 words, 2 relations.
        params, hp, _ = small_setup()
        tamper(params)
        path = tmp_path / "model.bin"
        save_model(
            path, params.model, params.types, params.rels, hp,
            entity_ids=[f"e{i}" for i in range(5)], word_ids=[f"w{j}" for j in range(4)],
            relation_ids=["next", "skip"],
        )
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize("field, value", [("epochs", 0), ("variant", "bogus")])
    def test_rejected_hyperparams_are_a_format_error(self, tmp_path, field, value):
        # A file written before a hyperparameter check existed can hold a
        # value the check now rejects; loading it names the value.
        params, hp, _ = small_setup()
        object.__setattr__(hp, field, value)
        path = self._save(tmp_path, params, hp)
        with pytest.raises(ModelFormatError, match=f"hyperparameters: .*{field}"):
            load_model(path)

    def test_save_is_deterministic(self, tmp_path):
        params, hp, _ = small_setup(seed=11)
        p1 = tmp_path / "m1.bin"
        p2 = tmp_path / "m2.bin"
        for p in (p1, p2):
            save_model(
                p, params.model, params.types, params.rels, hp,
                entity_ids=[f"e{i}" for i in range(5)], word_ids=[f"w{j}" for j in range(4)],
                relation_ids=["next", "skip"],
            )
        assert p1.read_bytes() == p2.read_bytes()


def large_setup():
    """(params, hp, id tables) of a model whose file is about 9.7 MiB, 9.2 MiB
    of it the anchors of 474 relation groups at n = 50: kb's shape."""
    ts, data = synth.single_type_system("thing", 120), synth.chain_graph(120)
    hp = Hyperparams(n=50, seed=3, epochs=1)
    params = init_parameters(120, 4, ts, data.triples, hp)
    return params, hp, ([f"e{i}" for i in range(120)], [f"w{j}" for j in range(4)], ["next", "skip"])


def traced_peak(fn) -> int:
    """The peak of the memory that fn() allocates, in bytes (tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def load_fails(path, error, match):
    """load_model(path) raises error, its message matching match, and leaves
    no file open."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(error, match=match):
            load_model(path)
        gc.collect()
    assert not [w for w in seen if issubclass(w.category, ResourceWarning)]


class TestStreamedFile:
    """save_model writes and checksums the arrays' own buffers, and
    load_model reads each array into its own buffer; the checksum is still
    verified before any other check."""

    @pytest.fixture(scope="class")
    def large(self, tmp_path_factory):
        """The large model's file and its bytes."""
        params, hp, ids = large_setup()
        path = tmp_path_factory.mktemp("large") / "model.bin"
        save_model(path, params.model, params.types, params.rels, hp, *ids)
        return path, path.read_bytes()

    @pytest.mark.parametrize("setup", ["small", "large"])
    def test_file_is_the_joined_writers(self, tmp_path, setup):
        if setup == "small":
            params, hp, _ = small_setup(seed=3)
            ids = ([f"e{i}" for i in range(5)], [f"w{j}" for j in range(4)], ["next", "skip"])
        else:
            params, hp, ids = large_setup()
            assert params.rels.rhs_groups.anchors.nbytes + params.rels.lhs_groups.anchors.nbytes >= 2 * 2**20
        save_model(tmp_path / "streamed.bin", params.model, params.types, params.rels, hp, *ids)
        ref_save_model_joined(tmp_path / "joined.bin", params.model, params.types, params.rels, hp, *ids)
        assert (tmp_path / "streamed.bin").read_bytes() == (tmp_path / "joined.bin").read_bytes()

    def test_save_holds_no_copy_of_the_file(self, tmp_path, large):
        # A joined file is a second copy of every array (about 1.0x the
        # file); the write buffer is 1 MiB.
        params, hp, ids = large_setup()
        path = tmp_path / "model.bin"
        assert traced_peak(lambda: save_model(path, params.model, params.types, params.rels, hp, *ids)) < 0.15 * len(large[1])

    def test_load_holds_one_copy_of_the_arrays(self, large):
        # Reading the whole file and then copying each array out of it
        # peaks at about 2.0x the file.
        assert traced_peak(lambda: load_model(large[0])) < 1.2 * len(large[1])

    def test_corrupted_header_is_a_checksum_error(self, tmp_path, large):
        # The header no longer parses, but the checksum fails first.
        blob = bytearray(large[1])
        blob[24] = ord("[")
        path = tmp_path / "model.bin"
        path.write_bytes(blob)
        load_fails(path, ModelIntegrityError, "checksum mismatch")

    @pytest.mark.parametrize("crc", ["refreshed", "stale"])
    def test_header_length_past_the_file(self, tmp_path, large, crc):
        blob = large[1][:16] + struct.pack("<Q", 2**63) + large[1][24:]
        path = tmp_path / "model.bin"
        if crc == "refreshed":
            # The header runs to the checksum: it takes in the arrays' bytes.
            path.write_bytes(with_crc(blob[:-4]))
            load_fails(path, ModelFormatError, "model header is not UTF-8 JSON")
        else:
            # Nothing is read from the unverified length: the file is only checksummed.
            path.write_bytes(blob)
            assert traced_peak(lambda: load_fails(path, ModelIntegrityError, "checksum mismatch")) < len(blob)

    @pytest.mark.parametrize("crc", ["refreshed", "stale"])
    def test_shapes_past_the_file(self, tmp_path, large, crc):
        path = tmp_path / "model.bin"
        path.write_bytes(large[1])

        def grow(header):
            header["shapes"][-4][0] += 1  # one more head group's anchors than the file holds
            return header

        rewrite_header(path, grow)
        if crc == "refreshed":
            error, match = ModelFormatError, r"the array shapes take \d+ bytes, the model file holds \d+"
        else:
            path.write_bytes(path.read_bytes()[:-4] + large[1][-4:])
            error, match = ModelIntegrityError, "checksum mismatch"
        assert traced_peak(lambda: load_fails(path, error, match)) < len(large[1])

    def test_byte_cut_from_an_array_is_a_checksum_error(self, tmp_path, large):
        blob = large[1]
        path = tmp_path / "model.bin"
        path.write_bytes(blob[: len(blob) // 2] + blob[len(blob) // 2 + 1 :])
        load_fails(path, ModelIntegrityError, "checksum mismatch")


class TestExportAndClone:
    def test_export_text_lines(self, tmp_path):
        params, hp, _ = small_setup()
        out = tmp_path / "emb.txt"
        export_text(out, params.model, ["e0", "e1", "e2", "e3", "e4"], ["w0", "w1", "w2", "w3"])
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 9
        first = lines[0].split()
        assert first[0] == "e0"
        assert np.allclose([float(x) for x in first[1:]], params.model.entity_points[0])

    def test_clone_independent(self):
        params, _, _ = small_setup()
        copy = clone_params(params)
        copy.model.entity_points[0, 0] += 1.0
        copy.types["thing"].anchors[0, 0] += 1.0
        assert params.model.entity_points[0, 0] != copy.model.entity_points[0, 0]
        assert params.types["thing"].anchors[0, 0] != copy.types["thing"].anchors[0, 0]


class TestAnchorSpan:
    def test_span_round_trip(self):
        rng = np.random.default_rng(0)
        anchors = rng.normal(size=(5, 4))
        span = anchor_span_matrix(anchors)
        rebuilt = anchors.copy()
        set_anchor_span_matrix(rebuilt, span)
        assert np.allclose(rebuilt, anchors)

    def test_span_rank_matches_affine_dim(self):
        anchors = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        span = anchor_span_matrix(anchors)
        assert np.linalg.matrix_rank(span) == 1
