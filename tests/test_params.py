import numpy as np
import pytest

from typespace import synth
from typespace.params import (
    Hyperparams,
    ModelFormatError,
    ModelIntegrityError,
    _Reader,
    _Writer,
    _read_hyperparams,
    _write_hyperparams,
    anchor_span_matrix,
    clone_params,
    export_text,
    init_parameters,
    load_model,
    save_model,
    set_anchor_span_matrix,
)


def small_setup(n=3, n_entities=5, n_words=4, seed=42):
    ts = synth.single_type_system("thing", n_entities)
    data = synth.chain_graph(n_entities)
    hp = Hyperparams(n=n, seed=seed, epochs=1)
    params = init_parameters(n_entities, n_words, ts, data.triples, hp)
    return params, hp, data


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

    def test_dimension_positive(self):
        with pytest.raises(ValueError):
            Hyperparams(n=0)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_at_least_one(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            Hyperparams(epochs=epochs)

    def test_encoding_is_pinned(self):
        # The model file holds the fields in declaration order; reordering
        # Hyperparams' fields would change the file format.
        hp = Hyperparams(
            n=7, alpha_mix=0.25, beta_reg=1.5, x_max=42.0, weight_exp=0.5, epochs=3, learn_rate=0.125,
            variant="type_comb", rank_eps=0.01, seed=11,
        )
        w = _Writer()
        _write_hyperparams(w, hp)
        assert w.payload().hex() == (
            "0700000000000000000000000000d03f000000000000f83f0000000000004540000000000000e03f"
            "0300000000000000000000000000c03f0900000000000000747970655f636f6d627b14ae47e17a84"
            "3f0b00000000000000"
        )
        assert _read_hyperparams(_Reader(w.payload())) == hp


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
    "type": lambda p: p.types["thing"],
    "group": lambda p: next(iter(p.rels.rhs_groups.values())),
    "model": lambda p: p.model,
    "rels": lambda p: p.rels,
}


def _edit(target, field, edit):
    def tamper(params):
        obj = _TARGETS[target](params)
        setattr(obj, field, edit(getattr(obj, field)))

    return tamper


def _rekey(side, key):
    """Move the first group of a side to another key."""

    def tamper(params):
        groups = getattr(params.rels, f"{side}_groups")
        groups[key] = groups.pop(next(iter(groups)))

    return tamper


def _extra_row(a):
    return np.concatenate([a, a[:1]])


def _short_width(a):
    return a[:, :-1]


_KEY_RANGE = "key index out of range"
# case id -> (tamper, message); small_setup has 5 entities, 4 words and 2
# relations.
_INCONSISTENT = {
    "member_too_large": (_edit("type", "members", lambda a: np.append(a[:-1], 99)), "member index out of range"),
    "member_negative": (_edit("type", "members", lambda a: np.append(a[:-1], -1)), "member index out of range"),
    "type_coeff_rows": (_edit("type", "coeffs", lambda a: a[:-1]), "coeffs shape"),
    "anchor_rows": (_edit("type", "anchors", lambda a: a[:-1]), "anchors shape"),
    "group_coeff_rows": (_edit("group", "coeffs", lambda a: a[:-1]), "coeffs shape"),  # no virtual row
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
}


class TestPersistence:
    def _save(self, tmp_path, params, hp):
        path = tmp_path / "model.bin"
        save_model(
            path,
            params.model,
            params.types,
            params.rels,
            hp,
            entity_ids=[f"e{i}" for i in range(params.model.n_entities)],
            word_ids=[f"w{j}" for j in range(params.model.n_words)],
            relation_ids=["next", "skip"],
        )
        return path

    def test_round_trip_exact(self, tmp_path):
        params, hp, _ = small_setup(seed=3)
        # make values non-trivial
        params.model.word_bias += 0.125
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

    def test_version_mismatch(self, tmp_path):
        params, hp, _ = small_setup()
        path = self._save(tmp_path, params, hp)
        blob = bytearray(path.read_bytes())
        # bump the version field (first u64 after the 8-byte magic) and
        # refresh the checksum so only the version check can fail
        import struct
        import zlib

        blob[8:16] = struct.pack("<Q", 999)
        payload = bytes(blob[:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="version"):
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
