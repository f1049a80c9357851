"""The level-batched text pass against the per-entry sequential loop."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from reference_impls import ref_text_pass
from typespace import optimize

_TEXT_STATE = ("entity", "word", "ctx", "word_bias", "ctx_bias", "entity_bias")


def _text_instance(seed, n, n_words):
    """Parameters and AdaGrad accumulators, both random, for text-pass tests."""
    _, _, _, params, hp = random_instance(seed, n=n, n_words=n_words)
    state = optimize._AdaState(params)
    rng = np.random.default_rng(seed)
    for name in _TEXT_STATE:
        acc = getattr(state, name)
        acc += rng.uniform(0.0, 2.0, size=acc.shape)
    return params, state, hp


@st.composite
def _text_tables(draw):
    """Entries of both table kinds over a few words and entities (so rows are
    shared heavily and repeated pairs occur), and a random order of them."""
    n_words = draw(st.integers(1, 4))
    n_ww = draw(st.integers(1, 25))
    n_ew = draw(st.integers(1, 25))
    ww = draw(st.lists(st.tuples(st.integers(0, n_words - 1), st.integers(0, n_words - 1)), min_size=n_ww, max_size=n_ww))
    ew = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, n_words - 1)), min_size=n_ew, max_size=n_ew))
    counts = draw(st.lists(st.integers(1, 200), min_size=n_ww + n_ew, max_size=n_ww + n_ew))
    order = draw(st.permutations(range(n_ww + n_ew)))
    return n_words, ww + ew, [0] * n_ww + [1] * n_ew, counts, order


class TestLevelBatchedTextPass:
    """The level-batched text pass is the per-entry loop, reordered: every
    parameter row and accumulator comes out bit for bit the same."""

    @settings(max_examples=120, deadline=None)
    @given(tables=_text_tables(), n=st.integers(1, 5), seed=st.integers(0, 2**16), alpha=st.sampled_from([1.0, 0.3]))
    def test_matches_sequential_reference(self, tables, n, seed, alpha):
        n_words, pairs, tags, counts, order = tables
        counts = np.array(counts, dtype=np.float64)
        entries = (
            np.array(tags, dtype=np.int8),
            np.array([i for i, _ in pairs]),
            np.array([j for _, j in pairs]),
            np.minimum((counts / 50.0) ** 0.75, 1.0),
            np.log(counts),
        )
        params, state, hp = _text_instance(seed, n, n_words)
        ref_params, ref_state, _ = _text_instance(seed, n, n_words)
        n_batches = optimize._text_pass(entries, order, params, state, hp, alpha)
        ref_text_pass(entries, order, ref_params.model, ref_state, hp.learn_rate, alpha)
        for name in _TEXT_STATE:
            assert np.array_equal(getattr(state, name), getattr(ref_state, name)), name
        for attr in ("entity_points", "word_vecs", "ctx_vecs", "word_bias", "ctx_bias", "entity_bias"):
            assert np.array_equal(getattr(params.model, attr), getattr(ref_params.model, attr)), attr
        # Entries that write one row never share a batch.
        writes = [(("word", "entity")[t], i) for t, (i, _) in zip(tags, pairs)]
        writes += [(("ctx", "word")[t], j) for t, (_, j) in zip(tags, pairs)]
        assert max(writes.count(w) for w in writes) <= n_batches <= len(pairs)
