"""The level-batched text pass against the per-entry sequential loop."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from reference_impls import ref_text_pass
from typespace import optimize

_TEXT_ARRAYS = ("entity_points", "word_vecs", "ctx_vecs", "entity_bias", "word_bias", "ctx_bias")


def _text_instance(seed, n, n_words):
    """Parameters bound to the trainer's buffers, with random AdaGrad
    accumulators, for text-pass tests."""
    _, _, _, params, hp = random_instance(seed, n=n, n_words=n_words)
    state = optimize._AdaState(params)
    rng = np.random.default_rng(seed)
    state.row_acc += rng.uniform(0.0, 2.0, size=state.row_acc.shape)
    return params, state, hp


def _accumulators(state, model):
    """Each text array's attribute -> its rows of the state's accumulators:
    columns :n for a vector array, column n for a bias array."""
    accs = {}
    n = state.row_acc.shape[1] - 1
    for attr in _TEXT_ARRAYS:
        acc = state.row_acc[state.starts[attr] :][: len(getattr(model, attr))]
        accs[attr] = acc[:, n] if attr.endswith("_bias") else acc[:, :n]
    return accs


def _run(tags, pairs, counts, order, n, seed, alpha, n_words):
    """The trainer's text pass and ref_text_pass on the same entries;
    asserts every parameter row and accumulator equal and that no batch
    writes a buffer row twice, and returns the trainer's batch count and
    the set of buffer rows each entry writes, in order."""
    tags = np.array(tags, dtype=np.int8)
    rows = np.array([i for i, _ in pairs], dtype=np.int64)
    cols = np.array([j for _, j in pairs], dtype=np.int64)
    counts = np.array(counts, dtype=np.float64)
    fvals, logs = np.minimum((counts / 50.0) ** 0.75, 1.0), np.log(counts)
    params, state, hp = _text_instance(seed, n, n_words)
    ref_params, ref_state, _ = _text_instance(seed, n, n_words)
    # The trainer's entries index its row buffer: a word-word entry's rows
    # are word rows and its columns context rows, an entity-word entry's
    # rows entity rows and its columns word rows.
    s = state.starts
    urows = np.where(tags == 0, s["word_vecs"], s["entity_points"]) + rows
    vrows = np.where(tags == 0, s["ctx_vecs"], s["word_vecs"]) + cols
    n_batches = optimize._text_pass((urows, vrows, fvals, logs), order, state, hp, alpha)
    model = ref_params.model
    ref_text_pass((tags, rows, cols, fvals, logs), order, model, _accumulators(ref_state, model), hp.learn_rate, alpha)
    assert state.row_acc.tobytes() == ref_state.row_acc.tobytes()
    for attr in _TEXT_ARRAYS:
        assert getattr(params.model, attr).tobytes() == getattr(model, attr).tobytes(), attr
    # Every batch of the schedule writes distinct buffer rows, laid out as
    # its u rows then its v rows.
    sched, bounds, batch_rows = optimize._text_schedule(urows, vrows, np.asarray(order, dtype=np.intp), len(state.rows))
    assert len(bounds) - 1 == n_batches and len(batch_rows) == 2 * len(sched)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        written = np.concatenate((urows[sched[lo:hi]], vrows[sched[lo:hi]]))
        assert np.array_equal(batch_rows[2 * lo : 2 * hi], written)
        assert len(np.unique(written)) == len(written)
    return n_batches, [{int(a), int(b)} for a, b in zip(urows[order], vrows[order])]


def _level_count(writes):
    """The number of levels of entries that write the given row sets, in
    order, by the definition: an entry's level is one more than the
    highest level of any earlier entry sharing a row with it, else 1."""
    levels = []
    for p, rows in enumerate(writes):
        levels.append(1 + max((levels[q] for q in range(p) if writes[q] & rows), default=0))
    return max(levels)


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
        n_batches, writes = _run(tags, pairs, counts, order, n, seed, alpha, n_words)
        # One batch per level, whatever the tables of its entries.
        assert n_batches == _level_count(writes)

    def test_both_kinds_write_the_same_word_rows(self):
        # Word-word entries write word rows 0..2 as their rows and
        # entity-word entries write them as their columns, interleaved in
        # the order.  A word row is one buffer row in both tables, so the
        # levels in order are 1 2 1 2 1 3 2 3 3 (word row 1, say, is
        # written at order positions 2, 3 and 5: entity-word, entity-word,
        # word-word).  Each level holds entries of both tables and is one
        # batch: three batches.  Keying a word row apart per table would
        # give two.
        pairs = [(0, 1), (1, 0), (0, 1), (2, 2), (3, 1), (4, 2), (1, 2), (5, 0), (2, 0)]
        tags = [0, 1, 1, 0, 1, 1, 0, 1, 0]
        counts = [3, 7, 11, 2, 5, 19, 4, 8, 13]
        order = [1, 0, 2, 4, 3, 6, 5, 8, 7]
        for seed in range(5):
            assert _run(tags, pairs, counts, order, 3, seed, 0.5, 3)[0] == 3
