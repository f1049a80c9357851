"""Stochastic proximal training.

Each epoch makes three passes: (1) a shuffled pass over word-word and
entity-word entries with AdaGrad updates, (2) a pass over types, (3) a pass
over relation triples and then relation groups.  The rows these passes
step live in one row buffer, each row's bias its last column (_AdaState).
The text pass, the triple pass and the block passes run their per-item
loops as one exact level schedule (_level_batches): an item's level is one
more than the highest level of any earlier item sharing a row with it, and
a level's items, which write distinct rows, take one step together, bit
for bit the per-item loop.  A text level steps its entries' rows, biases
included, whichever table they come from; a level of shuffled triples
steps their two entities and their relation, its self-loops apart.  Types
and relation groups are the same subspace block, and one loop steps
either (_block_pass), by named batch plans (_Batch) built once per run,
one per (level, store, size class, endpoint-is-member): the simplex
coefficients by projected gradient, projected in place, then a group's
entities and relation, each batch in one fused step, stacked (B, r, .)
whatever B, whose residual and refit share one buffer; a batch of one
block steps views of its rows.  Every step hands adagrad_step its rows,
indices or a slice, and the values it gathered from them.  No block
reads another's anchors, so the anchor gradient steps and the
singular-value thresholding of the anchor span matrices run after the
loop, stacked per size class (_anchor_steps), bit for bit as per block.
A pass does once, before its step loop, what the loop need not redo (the
rows each step gathers, the text weights, the blocks' fits C A), and its
steps write their partials into one reused buffer.  The nuclear norms are
handled only by the proximal step, never by gradients.  The step kernels
test finiteness from a sum of squares and take the exact test only when
that sum is not finite (params._finite).  The divergence snapshot is
cloned after every epoch but the last.  Training is a pure function of
its inputs and seeds.
"""

from __future__ import annotations

import bisect
import functools
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from typespace.ingest import CooccurrenceTable, EntityCatalog, TripleStore, TypeSystem, Vocabulary
from typespace.objective import (
    TEXT_FITS,
    LossBreakdown,
    _add_in_order,
    block_anchor_grad,
    block_coeff_grad,
    block_fits,
    block_resid,
    comb_penalty_terms,
    nuclear_norm,
    rel_dist_triple_terms,
    text_entry_terms,
    total_objective,
    weight_f,
)
from typespace.params import (
    Hyperparams,
    ModelParams,
    _finite,
    anchor_span_matrix,
    clone_params,
    init_parameters,
    set_anchor_span_matrix,
    variant_flags,
)
from typespace.subspace import effective_rank

log = logging.getLogger(__name__)

ADAGRAD_EPS = 1e-8

# prox_nuclear thresholds through the Gram matrix only when tau is at least
# this fraction of ||M||_F.  Against the SVD formula on adversarial spectra
# (one dominant singular value over a tight cluster around tau, n up to 50)
# the worst relative error is 3.7e-14 at this switch, 8e-13 at 1e-3 and
# 1.3e-11 at 1e-4.
GRAM_MIN_TAU = 1e-2

# Gathered values per temporary of a chunk of deferred anchor steps
# (_anchor_steps): 256 KiB of float64, so a size class of many blocks is
# stepped in cache-sized pieces.
_ANCHOR_CHUNK_CELLS = 1 << 15

PASSES = ("text", "type", "rel_dist", "rel_group", "objective")  # the keys of an epoch's pass_ms


class NonFiniteGradientError(FloatingPointError):
    """A gradient went NaN/Inf; the message names the parameter."""


class TrainingDivergedError(RuntimeError):
    """Total loss became non-finite; carries the last finite-epoch params."""

    def __init__(self, message, last_good: ModelParams | None, last_epoch: int):
        super().__init__(message)
        self.last_good = last_good
        self.last_epoch = last_epoch


def project_to_simplex(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum(x) = 1} (sort-based),
    row by row along the last axis, into out when given (out may be v).  A
    non-finite v raises before out is written."""
    v = np.asarray(v, dtype=np.float64)
    if not _finite(v):
        raise ValueError("cannot project a non-finite vector")
    k = v.shape[-1]
    rows = v.reshape(-1, k)
    u = np.sort(rows, axis=-1)[:, ::-1]
    css = u.cumsum(axis=-1) - 1.0
    cond = u - css / np.arange(1, k + 1) > 0
    rho = k - cond[:, ::-1].argmax(axis=-1)
    theta = css[np.arange(len(css)), rho - 1] / rho
    shifted = np.subtract(v, theta.reshape(v.shape[:-1] + (1,)), out=out)
    return np.maximum(shifted, 0.0, out=shifted)


def prox_nuclear(m: np.ndarray, tau: float) -> tuple[np.ndarray, float]:
    """Proximal operator of tau * nuclear norm: shrink every singular value
    by tau, clamping at zero (singular-value thresholding, SVT).  Returns
    the result and its nuclear norm, the sum of the shrunk singular values.

    Exact in each of three cases, chosen from the input:
    - ||M||_F <= tau: zero, with no factorization, since sigma_1 <= ||M||_F.
    - tau >= GRAM_MIN_TAU * ||M||_F: from the eigenpairs (lambda, v) of
      M^T M, keeping lambda > tau^2: (M V_k) diag(1 - tau / sqrt(lambda_k)) V_k^T.
      An eigenvalue of M^T M carries an absolute error of order
      eps * ||M||_F^2, so a kept singular value near tau is resolved only
      to about eps * ||M||_F^2 / tau; hence the switch.
    - otherwise: the full SVD, U max(S - tau, 0) V^T.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    fro2 = float(np.vdot(m, m))
    if not _finite(m, fro2):
        raise ValueError("cannot threshold a non-finite matrix")
    if tau == 0.0:
        return m.copy(), nuclear_norm(m)
    tau2 = tau * tau
    if fro2 <= tau2:
        return np.zeros_like(m), 0.0
    if tau2 < GRAM_MIN_TAU * GRAM_MIN_TAU * fro2:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        shrunk = np.maximum(s - tau, 0.0)
        return (u * shrunk) @ vt, float(np.sum(shrunk))
    lam, v = np.linalg.eigh(m.T @ m)  # ascending
    k = int(np.count_nonzero(lam > tau2))
    vk = v[:, v.shape[1] - k:]
    sigma = np.sqrt(lam[lam.size - k:])
    return ((m @ vk) * (1.0 - tau / sigma)) @ vk.T, float(np.sum(sigma - tau))


def adagrad_step(values: np.ndarray, grad, state: np.ndarray, lr: float, name, rows, gathered: np.ndarray) -> None:
    """In-place AdaGrad update of values[rows], rows distinct indices or a
    slice, with one gradient row each: accumulate g**2 into state[rows],
    then move each coordinate by -lr * g / sqrt(G + eps).  gathered is
    values[rows] as the caller gathered it (a view for a slice), which the
    step moves in place and writes back.  A non-finite gradient raises
    before anything moves, naming its first bad row r by str(name(r))."""
    g = np.asarray(grad, dtype=np.float64)
    if not _finite(g):
        bad = int(np.argmin(np.isfinite(g).reshape(len(g), -1).all(axis=1)))
        raise NonFiniteGradientError(f"non-finite gradient for {name(np.arange(len(values))[rows][bad])}")
    acc = state[rows]  # a view of state when rows is a slice
    acc += g * g
    state[rows] = acc
    step, scale = lr * g, acc + ADAGRAD_EPS
    step /= np.sqrt(scale, out=scale)
    gathered -= step
    values[rows] = gathered


def anchor_prox_scale(lr: float, accum: np.ndarray):
    """Effective AdaGrad scale of an anchor block, used to couple the
    nuclear-norm strength to the current step size: lr / sqrt(mean G + eps).
    accum is one block's (k, n) accumulators, or a (B, k, n) stack whose
    (B,) scales are each bit for bit the block's own.

    This coupling is deliberately isolated here so it can be revised in one
    place.
    """
    mean = np.sum(accum, axis=(-2, -1)) / (accum.shape[-2] * accum.shape[-1])
    return lr / np.sqrt(mean + ADAGRAD_EPS)


@dataclass
class TrainConfig:
    hp: Hyperparams
    shuffle_seed: int = 0
    log_path: str | None = None


@dataclass
class TrainReport:
    losses: list[LossBreakdown] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    dim_trace: list[dict[str, int]] = field(default_factory=list)
    pass_ms: list[dict[str, float]] = field(default_factory=list)  # per epoch, keyed like PASSES
    prox_calls: int = 0
    prox_zero: int = 0  # proxes whose result was the zero span

    @property
    def epochs(self):
        return len(self.losses)


@dataclass
class TrainData:
    """Everything ingestion hands the trainer."""

    n_entities: int
    n_words: int
    word_word: CooccurrenceTable | None
    entity_word: CooccurrenceTable | None
    type_system: TypeSystem
    triples: TripleStore

    @classmethod
    def from_ingest(
        cls,
        vocab: Vocabulary,
        catalog: EntityCatalog,
        word_word: CooccurrenceTable | None,
        entity_word: CooccurrenceTable | None,
        type_system: TypeSystem,
        triples: TripleStore,
    ) -> "TrainData":
        return cls(len(catalog), len(vocab), word_word, entity_word, type_system, triples)


class _AdaState:
    """The trainer's row buffer and its accumulated squared gradients.

    rows, (E+2V+R, n+1), stacks the entity points, word, context and
    relation vectors in columns :n, and in column n each row's entity, word
    or context bias (0 on relation rows), so a vector and its bias move in
    one step; row_acc has its shape.  starts maps an array's attribute to
    its first row, and row_name names a buffer row in errors.  Building the
    state copies params' arrays into the buffer and rebinds params to views
    of it; release() copies the values back into the arrays params held and
    rebinds those.
    """

    def __init__(self, params: ModelParams):
        m, rels = params.model, params.rels
        parts = ((m, "entity_points", "entity_bias", "entity"), (m, "word_vecs", "word_bias", "word"),
                 (m, "ctx_vecs", "ctx_bias", "ctx"), (rels, "vectors", None, "rel"))
        sizes = [len(getattr(owner, vecs)) for owner, vecs, _, _ in parts]
        firsts = np.cumsum([0] + sizes[:-1]).tolist()
        n = rels.vectors.shape[1]
        self.rows = np.zeros((sum(sizes), n + 1))
        self.row_acc = np.zeros_like(self.rows)
        self._handed = []  # (owner, attribute, the array params held)
        self.starts: dict[str, int] = {}
        for (owner, vecs, bias, _), first, size in zip(parts, firsts, sizes):
            block = self.rows[first : first + size]
            for attr, view in ((vecs, block[:, :n]), (bias, block[:, n])):
                if attr is not None:
                    self._handed.append((owner, attr, getattr(owner, attr)))
                    self.starts[attr] = first
                    view[...] = getattr(owner, attr)
                    setattr(owner, attr, view)

        def row_name(r) -> str:
            i = bisect.bisect_right(firsts, r) - 1
            return f"{parts[i][3]}[{r - firsts[i]}]"

        self.row_name = row_name
        # Anchor and coefficient accumulators, stacked like the blocks; each
        # block pass's plans and (store, accumulators, residual rows) triples.
        self.types = params.types.per_type.zeros()
        self.rhs = rels.rhs_groups.zeros()
        self.lhs = rels.lhs_groups.zeros()
        self.type_plans, self.type_stores = _block_plans(((params.types.per_type, self.types),), self.starts["vectors"])
        self.group_plans, self.group_stores = _block_plans(
            ((rels.rhs_groups, self.rhs), (rels.lhs_groups, self.lhs)), self.starts["vectors"])

    def release(self) -> None:
        for owner, attr, arr in self._handed:
            arr[...] = getattr(owner, attr)
            setattr(owner, attr, arr)


def _level_batches(items, n_rows, keys=()):
    """The exact level schedule of items, each the list of rows it writes,
    in order: an item's level is one more than the highest level of any
    earlier item that writes one of its rows (1 when none does).  Returns
    the items' positions sorted stably by level and then by keys (arrays,
    one value per item), and the bounds of the batches, the runs of equal
    level and keys, in that order.  A batch writes distinct rows, and
    items that share a row keep their order."""
    last, levels = [0] * n_rows, []
    for rows in items:
        level = 0
        for r in rows:
            seen = last[r]
            level = seen if seen > level else level
        level += 1
        for r in rows:
            last[r] = level
        levels.append(level)
    levels = np.array(levels, dtype=np.int64)
    perm = np.lexsort((*keys[::-1], levels))
    sorted_keys = np.stack((levels, *keys)).reshape(len(keys) + 1, -1)[:, perm]
    starts = np.flatnonzero((np.diff(sorted_keys, axis=1, prepend=-1) != 0).any(axis=0))
    return perm, np.append(starts, len(perm))


def _text_schedule(urows, vrows, order, n_rows):
    """The entries of order rearranged into batches of one level
    (_level_batches), in level order, the batches' bounds in it, and the
    batches' rows laid end to end, each batch's u rows then its v rows, so
    that batch [s, t) writes rows[2s:2t].  Rows are row-buffer rows (a word
    row is one row in both tables), so a level mixes the tables.
    """
    perm, bounds = _level_batches(zip(urows[order].tolist(), vrows[order].tolist()), n_rows)
    order = order[perm]
    # Entry p of batch [s, t) writes its u row at 2s + (p - s) and its v row t - s further on.
    sizes, at = np.diff(bounds), np.arange(len(order))
    rows = np.empty(2 * len(order), dtype=np.intp)
    rows[at + np.repeat(bounds[:-1], sizes)] = urows[order]
    rows[at + np.repeat(bounds[1:], sizes)] = vrows[order]
    return order, bounds, rows


def _text_pass(entries, order, state, hp, alpha) -> int:
    """AdaGrad updates over precomputed text entries, bit for bit those of
    a per-entry loop in the given order: per batch of _text_schedule, one
    step on the batch's rows of the row buffer (u rows, then v rows), each
    row's vector partial in columns :n and its bias partial in column n.
    An entry's step reads only its own rows, which no other entry of its
    batch writes.  The pass lays out its rows and forms the partials'
    weights alpha * 2 * f(x) once; each batch gathers its rows once and
    writes its partials into one buffer.  Returns the number of batches.

    entries is (u rows, v rows, fvals, logs), as _prepare_text_entries
    builds them.
    """
    urows, vrows, fvals, logs = entries
    lr, rows, acc, name = hp.learn_rate, state.rows, state.row_acc, state.row_name
    order, bounds, batch_rows = _text_schedule(urows, vrows, np.asarray(order, dtype=np.intp), len(rows))
    weights, logs = alpha * 2.0 * fvals[order], logs[order]  # (alpha * 2.0) * f rounds as text_entry_terms' product
    grads = np.empty((2 * int(np.diff(bounds).max(initial=0)), rows.shape[1]))
    for s, t in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        r = batch_rows[2 * s : 2 * t]
        x, k = rows[r], t - s
        grad = text_entry_terms(x[:k, :-1], x[k:, :-1], x[:k, -1], x[k:, -1], weights[s:t], logs[s:t], out=grads)
        adagrad_step(rows, grad, acc, lr, name, r, x)
    return len(bounds) - 1


def _prepare_text_entries(data: TrainData, state: _AdaState):
    """(u rows, v rows, weights f(x), log x) of every text entry of both
    tables, its rows and columns as rows of state's row buffer; None
    without entries."""
    urows, vrows, fvals, logs = [], [], [], []
    for table in (data.word_word, data.entity_word):
        if table is None or len(table) == 0:
            continue
        u, v = TEXT_FITS[table.kind][:2]
        urows.append(state.starts[u] + table.rows)
        vrows.append(state.starts[v] + table.cols)
        fvals.append(weight_f(table.weights))
        logs.append(np.log(table.weights))
    if not urows:
        return None
    return tuple(np.concatenate(parts) for parts in (urows, vrows, fvals, logs))


def _anchor_steps(store, accs, at, resid, hp, prox, comb, report) -> np.ndarray:
    """The anchor half of the block steps of a pass over store, run after
    its per-block loop: per size class, in chunks of about
    _ANCHOR_CHUNK_CELLS gathered values per temporary, the chunk's anchors
    gathered once, one stacked gradient -2 C^T R (plus the anchor-cohesion
    partials of the gathered anchors when comb is set), one AdaGrad step on
    them, then, when prox is set, one span build from them, singular-value
    thresholding of each block's span at beta * anchor_prox_scale with
    anchor 0 held as base point, and one rewrite of the anchors.  resid[at]
    is store's residual rows, laid out like store.coeffs; accs is store's
    accumulator store.  No block reads another's anchors within a pass, so
    every block moves bit for bit as its own step would.  Returns each
    block's span nuclear norm after its prox, in key order (zeros without
    prox)."""
    lr = hp.learn_rate
    scale = 1.0 - hp.alpha_mix
    name = functools.partial(_BlockName, "anchors", store)
    k, n = store.anchors.shape[1:]
    norms = np.zeros(len(store))
    for cls in store.size_classes:
        per = max(1, _ANCHOR_CHUNK_CELLS // (k * max(n, cls.coeffs.shape[1])))
        for s in range(0, len(cls.blocks), per):
            blocks, rows = cls.blocks[s : s + per], cls.coeffs[s : s + per]
            anchors = store.anchors[blocks]
            grad = block_anchor_grad(store.coeffs[rows], resid[at[rows]])
            if comb:
                grad = grad + comb_penalty_terms(anchors)[1]
            adagrad_step(store.anchors, scale * grad, accs.anchors, lr, name, blocks, anchors)
            if not prox:
                continue
            spans = anchor_span_matrix(anchors)
            taus = hp.beta_reg * anchor_prox_scale(lr, accs.anchors[blocks])
            for j, tau in enumerate(taus.tolist()):
                spans[j], norms[blocks[j]] = prox_nuclear(spans[j], tau)
            set_anchor_span_matrix(anchors, spans)
            store.anchors[blocks] = anchors
            report.prox_calls += len(blocks)
            report.prox_zero += len(blocks) - int(np.count_nonzero(spans.reshape(len(blocks), -1).any(axis=1)))
    return norms


class _BlockName:
    """Block b of store's coefficients or anchors in a step's error, such
    as coeffs[t3] or anchors[rhs(0, 1)]: its type id, or a relation group's
    side and key; with by_row, the block that owns coefficient row b.
    Formatted only when the error is raised."""

    __slots__ = ("what", "store", "b")

    def __init__(self, what: str, store, b: int, by_row: bool = False):
        self.what, self.store = what, store
        self.b = int(np.searchsorted(store.offsets[1], b, side="right")) - 1 if by_row else b

    def __str__(self) -> str:
        kind = self.store.kind
        return f"{self.what}[{'' if kind == 'type' else kind}{self.store.key_table[self.b]}]"


class _Batch(NamedTuple):
    """One batch plan of a block pass (_block_plans): B blocks of one level,
    store, size class (r coefficient rows) and endpoint membership, stepped
    stacked (B, r, .).  Rows are row-buffer rows: entity e's is e, relation
    k's rel0 + k."""

    coeffs: np.ndarray  # store.coeffs
    acc: np.ndarray  # its accumulators
    anchors: np.ndarray  # store.anchors
    name: object  # a function from a coefficient row to its block's _BlockName
    gather: tuple  # the (B r,) coefficient rows, the (B,) blocks and (B, r); slices for B = 1, so they select views
    at: slice  # the blocks' residual rows, r each, in the pass's buffer, which is laid out in batch order
    points: np.ndarray  # (B r,) the rows of the points: a type's members, a group's members then its endpoint
    virtual: slice  # the virtual members in points: a group's endpoint plus sign times its relation
    sign: float  # store.sign: 1 for tail groups, -1 for head groups; 0 for types, whose step fields below are None
    steps: np.ndarray | None  # (B k,) the rows a group steps: its distinct entities, then its relation
    rel_at: slice | None  # the relations in steps
    partials: np.ndarray | None  # (B k,) each step row's row of at; the endpoint and relation take the virtual one's
    member: np.ndarray | None  # (B,) where in steps each member endpoint takes both; None for other endpoints


def _block_plans(stores, rel0) -> tuple[list[_Batch], tuple]:
    """The batch plans of a pass over stores, (store, accumulator store)
    pairs, built once per run, and the stores as (store, accumulator store,
    residual rows) triples: each coefficient row's row in the pass's buffer.
    The blocks in plan order (store by store, each in key order) go through
    _level_batches, keyed by store, size class and endpoint membership, and
    every block's rows are laid out once, in batch order, cut per batch."""
    firsts = np.cumsum([0] + [len(store) for store, _ in stores]).tolist()  # each store's first block
    bases = np.cumsum([0] + [len(store.coeffs) for store, _ in stores]).tolist()  # and first coefficient row
    writes, grouped, total = [()] * firsts[-1], False, bases[-1]
    store_of, key, width, block, pos, rel = np.zeros((6, firsts[-1]), dtype=np.intp)
    points, coeffs = np.empty((2, total), dtype=np.intp)  # each coefficient row's point row and row in its store
    for q, (s, cls) in enumerate((s, cls) for s, (store, _) in enumerate(stores) for cls in store.size_classes):
        items, member = firsts[s] + cls.blocks, 0
        points[bases[s] + cls.coeffs], coeffs[bases[s] + cls.coeffs] = cls.rows, cls.coeffs
        if cls.rels is not None:
            match, grouped = cls.rows[:, :-1] == cls.rows[:, -1:], True  # the endpoint among the members
            member, pos[items], rel[items] = match.any(axis=1), match.argmax(axis=1), rel0 + cls.rels
            for i, written in zip(items.tolist(), np.column_stack((cls.rows, rel[items])).tolist()):
                writes[i] = written
        store_of[items], key[items], width[items], block[items] = s, 2 * q + member, cls.rows.shape[1], cls.blocks
    perm, bounds = _level_batches(writes, int(rel.max(initial=0)) + 1, (key,))  # classes ascend by store, then size
    row0 = (np.cumsum(width) - width)[perm]  # each block's first coefficient row, the stores laid end to end
    first = row0 - np.take(bases, store_of[perm])  # and in its own store
    sizes, member, width = np.diff(bounds), key[perm] % 2, width[perm]
    at = np.append(0, np.cumsum(width))  # each block's first residual row
    rows = np.repeat(row0 - at[:-1], width) + np.arange(total)  # each residual row's coefficient row
    points, coeffs, where = points[rows], coeffs[rows], np.empty_like(rows)
    where[rows] = np.arange(total)
    n = (width + 1 - member) * grouped  # each block's step-row count: its distinct entities and its relation
    step_at = np.append(0, np.cumsum(n))
    if grouped:  # a member endpoint steps as a member, not as its block's last point
        kept, ends = np.ones(total, dtype=bool), np.cumsum(n - 1)
        kept[at[1:][member == 1] - 1] = False
        steps = np.insert(points[kept], ends, rel[perm])
        partials = np.insert(np.flatnonzero(kept), ends, at[1:] - 1) - np.repeat(np.repeat(at[bounds[:-1]], sizes), n)
        member_at = step_at[:-1] + pos[perm] - np.repeat(step_at[bounds[:-1]], sizes)
    names = [functools.partial(_BlockName, "coeffs", store, by_row=True) for store, _ in stores]
    lasts = {w: slice(w - 1, None, w) for r in set(width.tolist()) for w in (r, r + 1)}  # the last of every w
    blocks, plans, new, lo, hi = block[perm], [], tuple.__new__, bounds[:-1], bounds[1:]  # new skips _Batch.__new__
    batches = (lo, hi, at[lo], at[hi], step_at[lo], step_at[hi], store_of[perm][lo], width[lo], n[lo], first[lo],
               blocks[lo], member[lo])  # per batch: its bounds, then its first block's
    for lo, hi, a0, a1, s0, s1, s, r, k, c, b, m in zip(*(x.tolist() for x in batches)):
        (store, accs), step, rel_at, partial, end = stores[s], None, None, None, None
        if grouped:
            step, rel_at, partial, end = steps[s0:s1], lasts[k], partials[s0:s1], member_at[lo:hi] if m else None
        cidx, bidx = (coeffs[a0:a1], blocks[lo:hi]) if hi - lo > 1 else (slice(c, c + r), slice(b, b + 1))
        plans.append(new(_Batch, (store.coeffs, accs.coeffs, store.anchors, names[s], (cidx, bidx, (hi - lo, r)),
                                  slice(a0, a1), points[a0:a1], lasts[r], store.sign, step, rel_at, partial, end)))
    return plans, tuple((store, accs, where[lo:hi]) for (store, accs), lo, hi in zip(stores, bases, bases[1:]))


def _block_pass(stores, plans, state, hp, reg, comb, report) -> float:
    """A pass over the blocks of stores, (store, accumulator store,
    residual rows) triples, bit for bit the per-block loop in plan order:
    per batch plan, one fused step on its blocks: their residual rows,
    projected AdaGrad on their coefficient rows (the projection in place),
    their residual rows at the new coefficients, then one AdaGrad step on
    their step rows, if any (columns :n), whose partials are scaled once;
    then the anchor steps store by store (_anchor_steps), with proxes when
    reg is set and beta > 0.  Returns the sum of the span nuclear norms
    after the proxes.  Every batch steps stacked (B, r, .), each block's
    products bit for bit its own; a batch of one block steps views of its
    block's rows, a batch of several gathers and writes back.  The blocks of
    a batch write distinct rows and own their coefficients, and a block's
    anchors move only after the loop, so every block's fit C A at the
    pass's starting coefficients is taken before the loop, stacked per
    size class (block_fits), in the residual buffer that its first
    residual then overwrites, and its refit C A is taken into that buffer
    too.

    A non-finite gradient raises before its batch moves anything, at the
    first step that meets one, batch by batch in level order (within a
    level, store by store, by size class ascending, endpoints that are no
    member first): a batch's coefficient step names its first bad block
    (coeffs[...]) and its point step the first bad entity or relation row,
    block by block; then, store by store, each by size class ascending and
    each class in key order, the first block whose anchor gradient is not
    finite (anchors[...])."""
    rows, acc_rows, name = state.rows[:, :-1], state.row_acc[:, :-1], state.row_name
    lr, scale = hp.learn_rate, 1.0 - hp.alpha_mix
    row_scale = 2.0 * scale  # the point partials 2 R, times scale: bit for bit scale (2 R)
    resid = np.empty((sum(len(at) for _, _, at in stores), rows.shape[1]))
    for store, _, at in stores:
        for cls in store.size_classes:
            resid[at[cls.coeffs]] = block_fits(store, cls)
    for p in plans:
        points = rows[p.points]
        if p.steps is not None:  # a group's virtual members, from its step rows, which only its last step moves
            moved = rows[p.steps]
            points[p.virtual] += p.sign * moved[p.rel_at]
        out = resid[p.at]
        np.subtract(points, out, out=out)  # block_resid, from the fit C A
        cidx, blocks, shape = p.gather
        c, a, stacked = p.coeffs[cidx], p.anchors[blocks], out.reshape(shape + out.shape[1:])
        adagrad_step(p.coeffs, block_coeff_grad(stacked, a, scale).reshape(c.shape), p.acc, lr, p.name, cidx, c)
        p.coeffs[cidx] = project_to_simplex(c, out=c)
        block_resid(c.reshape(shape + c.shape[1:]), a, points.reshape(stacked.shape), out=stacked)
        if p.steps is None:
            continue
        grads = out[p.partials]
        if p.member is not None:
            grads[p.member] += grads[p.rel_at]
        grads *= row_scale
        if p.sign < 0.0:  # the relation's partial: the virtual member's, signed
            grads[p.rel_at] *= p.sign
        adagrad_step(rows, grads, acc_rows, lr, name, p.steps, moved)
    prox, total = reg and hp.beta_reg > 0.0, 0.0
    for store, accs, at in stores:
        total = _add_in_order(total, _anchor_steps(store, accs, at, resid, hp, prox, comb, report))
    return total


def _type_pass(state, hp, flags, report) -> float:
    """The block pass over the types, in type-id order (_block_pass); the
    entity points stay fixed."""
    return _block_pass(state.type_stores, state.type_plans, state, hp, flags.reg1, flags.comb, report)


def _rel_dist_pass(state, data, hp, rng):
    """AdaGrad updates of both entity points and the relation vector of
    each triple, bit for bit those of a per-triple loop in shuffled triple
    order: the shuffled triples go through _level_batches (a triple writes
    the rows of f, e and k), a level's self-loops batched apart, and each
    batch takes one step on columns :n of its triples' rows, triple by
    triple f, e and k, with the partials rel_dist_triple_terms takes from
    them, g, -g and -g.  A self-loop's entity partials cancel: it steps its
    entity once, with a zero partial, and its relation.  A non-finite
    gradient raises at the first batch, in level order, that meets one,
    naming that batch's first bad row."""
    lr, scale = hp.learn_rate, 1.0 - hp.alpha_mix
    rows, acc, name = state.rows[:, :-1], state.row_acc[:, :-1], state.row_name
    triples = np.array(data.triples.triples, dtype=np.intp).reshape(-1, 3)[rng.permutation(len(data.triples))]
    e, k, f = triples.T
    steps = np.column_stack((f, e, state.starts["vectors"] + k))
    perm, bounds = _level_batches(steps.tolist(), len(rows), (e == f,))
    steps, loops = steps[perm], (e == f)[perm]
    flat = steps.ravel()[(np.arange(steps.size) % 3 > 0) | ~np.repeat(loops, 3)]  # a self-loop's f row goes
    ends = np.append(0, np.cumsum(3 - loops))[bounds].tolist()  # each batch's stepped rows in flat
    grads = np.empty((int(np.diff(bounds).max(initial=0)), 3, rows.shape[1]))
    for s, t, lo, hi, loop in zip(bounds[:-1].tolist(), bounds[1:].tolist(), ends[:-1], ends[1:], loops[bounds[:-1]].tolist()):
        x = rows[steps[s:t]]
        g = rel_dist_triple_terms(x, scale, grads[: t - s])
        if loop:  # a self-loop steps its entity with a zero partial, then its relation
            g[:, 1] = 0.0
            g, x = g[:, 1:], x[:, 1:]
        adagrad_step(rows, g.reshape(hi - lo, -1), acc, lr, name, flat[lo:hi], x.reshape(hi - lo, -1))


def _rel_dim_pass(state, hp, flags, report) -> float:
    """The block pass over the relation groups, tail groups then head
    groups, each side in key order (_block_pass): a group's coefficient step
    is followed by one step on its entities and relation."""
    return _block_pass(state.group_stores, state.group_plans, state, hp, flags.reg2, False, report)


def _timed(pass_ms, name, fn, *args):
    """fn(*args), with its wall time in milliseconds stored as pass_ms[name]."""
    t0 = time.perf_counter()
    out = fn(*args)
    pass_ms[name] = (time.perf_counter() - t0) * 1000.0
    return out


def train(
    data: TrainData, cfg: TrainConfig, params: ModelParams | None = None
) -> tuple[ModelParams, TrainReport]:
    """Run cfg.hp.epochs epochs of stochastic proximal optimization.

    The result is a pure function of the inputs and seeds.  With beta > 0
    each pass proxes a block last, so the objective takes the nuclear norms
    the proxes return.  The arrays of params hold the trained values
    afterwards, whether train returns or raises; a non-finite gradient
    raises before its step moves anything and names the block _block_pass
    says.
    """
    hp = cfg.hp
    flags = variant_flags(hp.variant)
    if params is None:
        params = init_parameters(data.n_entities, data.n_words, data.type_system, data.triples, hp)
    rng = np.random.default_rng(cfg.shuffle_seed)
    report = TrainReport()
    alpha = hp.alpha_mix
    carry_reg = hp.beta_reg > 0.0
    last_good: ModelParams | None = None
    collapsed = 0  # epochs in which every prox returned the zero span
    log_fh = None
    state = _AdaState(params)  # params views its buffers until state.release()
    try:
        entries = _prepare_text_entries(data, state)
        log_fh = open(cfg.log_path, "w", encoding="utf-8") if cfg.log_path else None
        for epoch in range(hp.epochs):
            t0 = time.perf_counter()
            pass_ms = dict.fromkeys(PASSES, 0.0)
            text_batches = 0
            reg1 = reg2 = 0.0
            prox_calls, prox_zero = report.prox_calls, report.prox_zero
            try:
                if entries is not None and alpha > 0.0:
                    order = rng.permutation(len(entries[0]))
                    text_batches = _timed(pass_ms, "text", _text_pass, entries, order, state, hp, alpha)
                if flags.type_active:
                    reg1 = _timed(pass_ms, "type", _type_pass, state, hp, flags, report)
                if flags.rel_dist_active and len(data.triples) > 0:
                    _timed(pass_ms, "rel_dist", _rel_dist_pass, state, data, hp, rng)
                if flags.rel_dim_active:
                    reg2 = _timed(pass_ms, "rel_group", _rel_dim_pass, state, hp, flags, report)
            except NonFiniteGradientError as exc:
                raise TrainingDivergedError(f"diverged at epoch {epoch + 1}: {exc}", last_good, epoch) from exc

            reg = (reg1, reg2) if carry_reg else None
            breakdown = _timed(
                pass_ms, "objective", total_objective, data.word_word, data.entity_word, data.triples, params, hp, reg
            )
            wall_ms = (time.perf_counter() - t0) * 1000.0
            if not math.isfinite(breakdown.total):
                raise TrainingDivergedError(f"total loss became non-finite at epoch {epoch + 1}", last_good, epoch)
            dims = {t: effective_rank(anchor_span_matrix(tp.anchors), hp.rank_eps) for t, tp in params.types.items()}
            report.losses.append(breakdown)
            report.wall_ms.append(wall_ms)
            report.pass_ms.append(pass_ms)
            report.dim_trace.append(dims)
            collapsed += report.prox_calls - prox_calls == report.prox_zero - prox_zero > 0
            if log_fh is not None:
                record = {
                    "epoch": epoch + 1,
                    **asdict(breakdown),
                    "wall_ms": wall_ms,
                    "pass_ms": pass_ms,
                    "text_batches": text_batches,
                    "prox_calls": report.prox_calls - prox_calls,
                    "prox_zero": report.prox_zero - prox_zero,
                    "dims": dims,
                }
                log_fh.write(json.dumps(record) + "\n")
                log_fh.flush()
            if epoch + 1 < hp.epochs:  # only a later epoch's divergence reads the snapshot
                last_good = clone_params(params)
    finally:
        state.release()
        if log_fh is not None:
            log_fh.close()
    if collapsed:
        log.warning(
            "every prox zeroed its span (rank 0) in %d of %d epoch(s); a smaller beta_reg keeps the subspaces",
            collapsed, hp.epochs,
        )
    return params, report


def tune(objective, base_hp: Hyperparams, alphas=None, betas=None) -> Hyperparams:
    """Grid search over the mixing weight and regularization strength,
    maximizing the validation callback; ties prefer smaller beta, then
    smaller alpha."""
    if alphas is None:
        alphas = [round(0.1 * i, 1) for i in range(11)]
    if betas is None:
        betas = [50.0 * i for i in range(1, 9)]
    alphas = sorted(alphas)
    betas = sorted(betas)
    if not alphas or not betas:
        raise ValueError("empty tuning grid")
    best_hp = None
    best_score = -math.inf
    for beta in betas:
        for alpha in alphas:
            hp = replace(base_hp, alpha_mix=alpha, beta_reg=beta)
            score = float(objective(hp))
            if score > best_score:
                best_hp = hp
                best_score = score
    return best_hp
