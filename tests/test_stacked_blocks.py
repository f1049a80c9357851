"""The stacked size-class fits and init centroids against the per-block
loops they replaced (kept in reference_impls), bit for bit: each block's
loss and centroid, and the type and relation-group losses, whose per-block
values are added in key order.  The block passes' batch plans are the
exact level batches of their blocks, each block's rows in them are its own
plan's, and a type's plan steps no rows.  Instances mix block sizes, hold
1-member types, group endpoints that are also members, and empty group
stores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impls as ref
from conftest import block_store
from typespace import optimize
from typespace.objective import block_fit_losses, rel_dim_loss, type_loss
from typespace.params import EmbeddingModel, ModelParams, RelationParams, TypeSubspaceParams, block_centroids

N_RELATIONS = 3


def _simplex_rows(rng, rows, n):
    raw = rng.uniform(0.05, 1.0, size=(rows, n + 1))
    return raw / raw.sum(axis=1, keepdims=True)


def _scaled_normal(rng, shape):
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 2)


def _groups(rng, kind, sizes, n, n_entities, endpoint_member):
    """A group store with one group per size in sizes (a repeated key keeps
    the last); with endpoint_member, each group's endpoint is one of its
    members."""
    blocks = {}
    for m in sizes:
        members = np.sort(rng.choice(n_entities, size=m, replace=False))
        entity = int(rng.choice(members)) if endpoint_member else int(rng.integers(n_entities))
        k = int(rng.integers(N_RELATIONS))
        key = (entity, k) if kind == "rhs" else (k, entity)
        blocks[key] = (_scaled_normal(rng, (n + 1, n)), members, _simplex_rows(rng, m + 1, n))
    return block_store(kind, blocks, n)


def _instance(rng, n, n_entities, type_sizes, rhs_sizes, lhs_sizes, endpoint_member=False):
    types = block_store("type", {
        f"t{i:02d}": (_scaled_normal(rng, (n + 1, n)), np.sort(rng.choice(n_entities, size=m, replace=False)),
                      _simplex_rows(rng, m, n))
        for i, m in enumerate(type_sizes)
    }, n)
    rels = RelationParams(
        _scaled_normal(rng, (N_RELATIONS, n)),
        _groups(rng, "rhs", rhs_sizes, n, n_entities, endpoint_member),
        _groups(rng, "lhs", lhs_sizes, n, n_entities, endpoint_member),
    )
    model = EmbeddingModel(_scaled_normal(rng, (n_entities, n)), np.zeros((1, n)), np.zeros((1, n)),
                           np.zeros(1), np.zeros(1), np.zeros(n_entities))
    return model, TypeSubspaceParams(types), rels


def _block_plans(model, types, rels):
    """The type plans and relation-group plans optimize._AdaState builds
    for the instance, the accumulator stores they step, keyed by store
    kind, and the row-buffer row of relation 0; the instance's arrays are
    its own again afterwards."""
    params = ModelParams(model, types, rels)
    state = optimize._AdaState(params)
    try:
        accs = {"type": state.types, "rhs": state.rhs, "lhs": state.lhs}
        return state.type_plans, state.group_plans, accs, state.starts["vectors"]
    finally:
        state.release()


def _is_view(got, want):
    """Whether got views exactly the values want views."""
    return (got.ctypes.data, got.shape, got.strides) == (want.ctypes.data, want.shape, want.strides)


def _plan_blocks(plan, stores):
    """(store, block indices) of a batch plan: a batch of one names its
    block (its _BlockName), a batch of several gathers them."""
    if plan[13] is None:
        return plan[3].store, [plan[3].b]
    return next(store for store in stores if plan[0] is store.coeffs), plan[13][2].tolist()


def _assert_plans_equal(model, types, rels):
    """The plans are the batches of ref.ref_level_batches over the blocks
    in pass order (a group writing its step rows, keyed by store,
    coefficient rows and endpoint membership).  A batch of one block holds
    views of its block's arrays and its residual slice; a batch of several
    holds the stores' arrays and its blocks' rows and positions laid end
    to end.  Each block's rows are its own plan's (ref.ref_group_plan), a
    type steps no rows, and each block's residual rows are its coefficient
    rows in the stores laid end to end."""
    type_plans, group_plans, accs, rel_start = _block_plans(model, types, rels)
    for plans, stores in ((type_plans, [types.per_type]), (group_plans, [rels.rhs_groups, rels.lhs_groups])):
        blocks, writes, keys, bases = [], [], [], {}
        for s, store in enumerate(stores):
            bases[store.kind] = sum(len(st.coeffs) for st in stores[:s])
            for i, (key, block) in enumerate(store.items()):
                want = None if store.kind == "type" else ref.ref_group_plan(block.members, store.kind, key, rel_start)
                blocks.append((store, i))
                writes.append([] if want is None else want[2].tolist())
                keys.append((s, len(block.coeffs), want is not None and want[4] is not None))
        batches = ref.ref_level_batches(writes, keys)
        assert len(plans) == len(batches)
        for plan, batch in zip(plans, batches, strict=True):
            store, got = _plan_blocks(plan, stores)
            assert [(store, b) for b in got] == [blocks[p] for p in batch]
            base, c = bases[store.kind], store.offsets[1]
            rows = [np.arange(c[b], c[b + 1]) for b in got]
            r, k = len(rows[0]), 0 if plan[8] is None else len(plan[8]) // len(got)
            if plan[13] is not None:
                cidx, flat, _ = plan[13]
                assert np.array_equal(cidx, np.array(rows)) and np.array_equal(flat, np.concatenate(rows))
                assert plan[1] is accs[store.kind].coeffs and plan[2] is store.anchors
                assert np.array_equal(plan[12], base + flat)
                assert np.array_equal(plan[6], np.arange(len(got)) * r + r - 1)
                if k:
                    assert np.array_equal(plan[11], np.arange(len(got)) * k + k - 1)
            else:
                assert plan[12] == slice(base + c[got[0]], base + c[got[0] + 1]) and plan[6] == plan[11] == -1
            for j, b in enumerate(got):
                key, block = store.key_table[b], store[store.key_table[b]]
                label = key if store.kind == "type" else f"{store.kind}{key}"
                if plan[13] is None:
                    assert _is_view(plan[0], block.coeffs) and _is_view(plan[1], accs[store.kind][key].coeffs), key
                    assert _is_view(plan[2], block.anchors) and str(plan[3]) == f"coeffs[{label}]", key
                else:
                    assert {str(plan[3](row)) for row in rows[j]} == {f"coeffs[{label}]"}, key
                point_rows = plan[5][j * r : (j + 1) * r]
                if store.kind == "type":
                    assert plan[4] == 0.0 and plan[7:11] == (None, None, None, None), key
                    assert np.array_equal(point_rows, block.members), key
                    continue
                sign, want_points, want_steps, want_resid, want_pos = ref.ref_group_plan(
                    block.members, store.kind, key, rel_start)
                pos = None if plan[10] is None else int(np.atleast_1d(plan[10])[j]) - j * k
                rel = int(np.atleast_1d(plan[7])[j])
                assert (plan[4], pos, rel) == (sign, want_pos, want_steps[-1]), key
                assert np.array_equal(point_rows, want_points), key
                assert np.array_equal(plan[8][j * k : (j + 1) * k], want_steps), key
                assert np.array_equal(plan[9][j * k : (j + 1) * k] - j * r, want_resid), key


def _assert_bit_equal(model, types, rels):
    _assert_plans_equal(model, types, rels)
    points, vectors = model.entity_points, rels.vectors
    for store in (types.per_type, rels.rhs_groups, rels.lhs_groups):
        got = block_fit_losses(store, points, vectors)
        assert [float(x).hex() for x in got] == [x.hex() for x in ref.ref_block_losses(store, points, vectors)]
        want = ref.ref_block_centroids(store, points, vectors)
        assert block_centroids(store, points, vectors).tobytes() == np.array(want).reshape(-1, points.shape[1]).tobytes()
    assert type_loss(types, model).hex() == ref.ref_type_loss(types, model).hex()
    assert rel_dim_loss(model, rels).hex() == ref.ref_rel_dim_loss(model, rels).hex()


class TestStackedFits:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_per_block_loops(self, data):
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.sampled_from([1, 2, 3, 5, 8, 20]))
        n_entities = draw(st.integers(1, 40))
        sizes = st.lists(st.integers(1, n_entities), max_size=12)
        _assert_bit_equal(*_instance(
            rng, n, n_entities, draw(sizes), draw(sizes), draw(sizes), endpoint_member=draw(st.booleans())
        ))

    @pytest.mark.parametrize("type_sizes, rhs_sizes, lhs_sizes", [
        ([1, 4, 2, 1, 7, 2, 3, 1, 5, 2], [1, 3, 1, 2, 1, 1, 4, 2, 1], [2, 1, 5]),  # mixed sizes
        ([1], [1], [1]),  # 1-member blocks: (1, n+1) @ (n+1, n) types
        ([3, 3, 3], [2, 2, 2], [2, 2]),  # a single size class per store
        ([2, 5], [], [1, 3]),  # an empty tail-group store
        ([4], [], []),  # no groups at all
    ], ids=["mixed", "one_member", "single_class", "empty_rhs", "no_groups"])
    @pytest.mark.parametrize("n", [1, 6])
    def test_cases(self, type_sizes, rhs_sizes, lhs_sizes, n):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            _assert_bit_equal(*_instance(rng, n, 12, type_sizes, rhs_sizes, lhs_sizes))

    def test_endpoint_is_member(self):
        rng = np.random.default_rng(0)
        model, types, rels = _instance(rng, 4, 10, [2], [1, 3, 2], [2, 4], endpoint_member=True)
        assert all(plan[10] is not None for plan in _block_plans(model, types, rels)[1])
        _assert_bit_equal(model, types, rels)

    def test_large_blocks(self):
        # 200 members at n = 50: a block's squared residuals span more than
        # one 8192-element reduction chunk.
        rng = np.random.default_rng(3)
        _assert_bit_equal(*_instance(rng, 50, 300, [200, 1, 60, 200], [40, 1, 1], [120, 2]))

    def test_size_classes_partition_the_blocks(self):
        rng = np.random.default_rng(4)
        _, types, rels = _instance(rng, 3, 20, [1, 4, 2, 4], [1, 3, 1], [])
        for store in (types.per_type, rels.rhs_groups, rels.lhs_groups):
            classes = store.size_classes
            assert store.size_classes is classes  # built once
            blocks = np.concatenate([np.zeros(0, np.int64)] + [c.blocks for c in classes])
            assert sorted(blocks.tolist()) == list(range(len(store)))
            rows = [c.coeffs.shape[1] for c in classes]
            assert rows == sorted(set(rows))
            for c in classes:
                for i, b in enumerate(c.blocks.tolist()):
                    block = store[store.key_table[b]]
                    assert c.coeffs.shape[1] == len(block.coeffs)
                    assert np.array_equal(store.coeffs[c.coeffs[i]], block.coeffs)
