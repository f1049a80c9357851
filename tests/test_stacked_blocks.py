"""The stacked size-class fits and init centroids against the per-block
loops they replaced (kept in reference_impls), bit for bit: each block's
loss and centroid, and the type and relation-group losses, whose per-block
values are added in key order.  The relation-group plans built per size
class equal each group's own plan, a type's plan steps no rows, and each
pass's plans tile its coefficient rows.  Instances mix block sizes, hold
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


def _assert_block_views(plan, store, accs, key, label):
    """A plan's coefficients, their accumulators and its anchors are views
    of its block's own arrays in store and accs."""
    block, acc = store[key], accs[store.kind][key]
    assert _is_view(plan[0], block.coeffs) and _is_view(plan[1], acc.coeffs), key
    assert _is_view(plan[2], block.anchors) and str(plan[3]) == f"coeffs[{label}]", key


def _assert_plans_equal(model, types, rels):
    """Each type's plan is its members with no step rows, each group's plan
    from the size classes is its own group plan, each plan's arrays are
    views of its block's, and a pass's residual slices tile its stores'
    coefficient rows, laid end to end, in key order."""
    type_plans, group_plans, accs, rel_start = _block_plans(model, types, rels)
    assert len(type_plans) == len(types.per_type)
    for plan, (key, block) in zip(type_plans, types.per_type.items()):
        _assert_block_views(plan, types.per_type, accs, key, key)
        assert plan[4] == 0.0 and plan[6:9] == (None, None, None), key
        assert np.array_equal(plan[5], block.members), key
    assert len(group_plans) == len(rels.rhs_groups) + len(rels.lhs_groups)
    groups = [(store, key, block) for store in (rels.rhs_groups, rels.lhs_groups) for key, block in store.items()]
    for plan, (store, key, block) in zip(group_plans, groups):
        want = ref.ref_group_plan(block.members, store.kind, key, rel_start)
        _assert_block_views(plan, store, accs, key, f"{store.kind}{key}")
        assert (plan[4], plan[8]) == (want[0], want[4]), key
        for field, got, expected in zip(("point rows", "step rows", "resid rows"), plan[5:8], want[1:4]):
            assert np.array_equal(got, expected), (key, field)
    for plans, stores in ((type_plans, [types.per_type]), (group_plans, [rels.rhs_groups, rels.lhs_groups])):
        coeffs = np.concatenate([store.coeffs for store in stores])
        starts = [plan[9].start for plan in plans] + [len(coeffs)]
        assert starts[0] == 0 and [plan[9].stop for plan in plans] == starts[1:]
        for plan in plans:
            assert np.array_equal(coeffs[plan[9]], plan[0]), plan[3]


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
        assert all(plan[8] is not None for plan in _block_plans(model, types, rels)[1])
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
