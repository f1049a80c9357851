"""Stochastic proximal training.

Each epoch makes three passes: (1) a shuffled pass over word-word and
entity-word entries with AdaGrad updates, (2) a pass over types, (3) a pass
over relation triples and then relation groups.  The rows these passes
step live in one row buffer, each row's bias its last column (_AdaState).
The text pass runs the per-entry loop over the shuffled order as an exact
level schedule: an entry's level is one more than the highest level of any
earlier entry sharing a row with it, and each level's entries, which write
distinct rows whichever table they come from, take one step on their rows,
biases included.  A triple takes one step on its two entities and its
relation.  Types and relation groups are the same subspace block, and one
loop steps either (_block_pass), by plans built once per run
(_block_plans) of slices of the stacked stores: the simplex coefficients
by projected gradient, projected in place, then a group's entities and
relation, each block in one fused step whose residual and refit share
one buffer.  No block reads another's anchors, so the anchor gradient
steps and the singular-value thresholding of the anchor span matrices run
after the loop, stacked per size class (_anchor_steps), bit for bit as
per block.  A pass does once, before its step loop, what
the loop need not redo (the rows each step gathers, the text weights, the
blocks' fits C A), and its steps write their partials into one reused
buffer.  The nuclear norms are handled only by the proximal step, never by
gradients.  The step kernels test finiteness from a sum of squares and
take the exact test only when that sum is not finite (params._finite).
The divergence snapshot is cloned after every epoch but the last.
Training is a pure function of its inputs and seeds.
"""

from __future__ import annotations

import bisect
import functools
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, replace

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


def adagrad_step(
    values: np.ndarray, grad, state: np.ndarray, lr: float, name: object = "param", rows=None, gathered=None
) -> None:
    """In-place AdaGrad update: accumulate g**2, then move each coordinate
    by -lr * g / sqrt(G + eps).  str(name) names the parameter in an error,
    and is formatted only then.

    With rows (distinct indices), grad holds one gradient row per index,
    only those rows of values and state move, and name is a function from a
    row index to its name.  gathered, when given, is values[rows] as the
    caller gathered it, which the step moves in place and writes back.  The
    gradient is checked once; a non-finite one raises before anything moves
    and names its first non-finite row.
    """
    g = np.asarray(grad, dtype=np.float64)
    if not _finite(g):
        if rows is not None:
            name = name(rows[int(np.argmin(np.isfinite(g).reshape(len(g), -1).all(axis=1)))])
        raise NonFiniteGradientError(f"non-finite gradient for {name}")
    if rows is None:
        state += g * g
        values -= lr * g / np.sqrt(state + ADAGRAD_EPS)
    else:  # in place on the gathered rows, so a chunk of blocks takes few temporaries
        acc = state[rows]
        acc += g * g
        state[rows] = acc
        acc += ADAGRAD_EPS
        step = lr * g
        step /= np.sqrt(acc, out=acc)
        moved = values[rows] if gathered is None else gathered
        moved -= step
        values[rows] = moved


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
        # block pass's (store, accumulators) pairs and its plans.
        self.types = params.types.per_type.zeros()
        self.rhs = rels.rhs_groups.zeros()
        self.lhs = rels.lhs_groups.zeros()
        self.type_stores = ((params.types.per_type, self.types),)
        self.group_stores = ((rels.rhs_groups, self.rhs), (rels.lhs_groups, self.lhs))
        self.type_plans = _block_plans(self.type_stores, self.starts["vectors"])
        self.group_plans = _block_plans(self.group_stores, self.starts["vectors"])

    def release(self) -> None:
        for owner, attr, arr in self._handed:
            arr[...] = getattr(owner, attr)
            setattr(owner, attr, arr)


def _text_schedule(urows, vrows, order, n_rows):
    """The entries of order rearranged into batches of one level, in level
    order, the batches' bounds in it, and the batches' rows laid end to
    end, each batch's u rows then its v rows, so that batch [s, t) writes
    rows[2s:2t].  An entry's level is one more than the highest level of
    any earlier entry that writes one of its rows, so a batch writes
    distinct rows and every row sees its updates in the order of order.
    Rows are row-buffer rows (a word row is one row in both tables), so a
    level mixes the tables.
    """
    last = [0] * n_rows
    levels = []
    for a, b in zip(urows[order].tolist(), vrows[order].tolist()):
        la = last[a]
        lb = last[b]
        level = (la if la > lb else lb) + 1
        last[a] = last[b] = level
        levels.append(level)
    levels = np.array(levels, dtype=np.int64)
    perm = np.argsort(levels, kind="stable")
    order = order[perm]
    bounds = np.append(np.flatnonzero(np.diff(levels[perm], prepend=0)), len(order))
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


def _anchor_steps(store, accs, resid, hp, prox, comb, report) -> np.ndarray:
    """The anchor half of the block steps of a pass over store, run after
    its per-block loop: per size class, in chunks of about
    _ANCHOR_CHUNK_CELLS gathered values per temporary, one stacked gradient
    -2 C^T R (plus the anchor-cohesion partials when comb is set), one
    AdaGrad step on the chunk's anchors, then, when prox is set, one span
    build, singular-value thresholding of each block's span at
    beta * anchor_prox_scale with anchor 0 held as base point, and one
    rewrite of the anchors.  resid begins with store's residual rows, laid
    out like store.coeffs; accs is store's accumulator store.  No block reads
    another's anchors within a pass, so every block moves bit for bit as
    its own step would.  Returns each block's span nuclear norm after its
    prox, in key order (zeros without prox)."""
    lr = hp.learn_rate
    scale = 1.0 - hp.alpha_mix
    name = functools.partial(_BlockName, "anchors", store)
    k, n = store.anchors.shape[1:]
    norms = np.zeros(len(store))
    for cls in store.size_classes:
        per = max(1, _ANCHOR_CHUNK_CELLS // (k * max(n, cls.coeffs.shape[1])))
        for s in range(0, len(cls.blocks), per):
            blocks, rows = cls.blocks[s : s + per], cls.coeffs[s : s + per]
            grad = block_anchor_grad(store.coeffs[rows], resid[rows])
            if comb:
                grad = grad + comb_penalty_terms(store.anchors[blocks])[1]
            adagrad_step(store.anchors, scale * grad, accs.anchors, lr, name, blocks)
            if not prox:
                continue
            anchors = store.anchors[blocks]
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
    side and key.  Formatted only when the error is raised."""

    __slots__ = ("what", "store", "b")

    def __init__(self, what: str, store, b: int):
        self.what, self.store, self.b = what, store, b

    def __str__(self) -> str:
        kind = self.store.kind
        return f"{self.what}[{'' if kind == 'type' else kind}{self.store.key_table[self.b]}]"


def _block_plans(stores, rel0) -> list[tuple]:
    """Each block's plan in a pass over stores, (store, accumulator store)
    pairs, store by store in key order: (coefficients, their accumulators,
    anchors, coefficient name (_BlockName), sign, point rows, step rows,
    residual rows, member position of the endpoint, residual slice).  The
    first three are slices of store.coeffs, accs.coeffs and store.anchors,
    cut by store.offsets.  Rows are row-buffer rows: entity e's is e,
    relation k's rel0 + k.  The residual slice cuts the stores'
    coefficient rows laid end to end, as _block_pass lays out the
    residuals.
    A type's points are its members; its sign is 0 and it has no step rows.
    A relation group's plan is built per size class.  Its points are its
    point rows (members, then the endpoint) with sign times the last step
    row, the relation's, added to the last: the virtual member, e + r_k of a
    tail group (e, k) (sign 1) or f - r_k of a head group (k, f) (sign -1).
    The step rows are the distinct entities, then the relation; each takes
    the partial of its residual row, the virtual member's for the endpoint
    and, signed, the relation.  An endpoint that is also a member takes both
    partials at its member position, which is None for any other endpoint."""
    plans, base = [], 0
    for store, accs in stores:
        starts, c = (o.tolist() for o in store.offsets)
        per_block = [(store.members[starts[i] : starts[i + 1]], None, None, None) for i in range(len(store))]  # a type's
        for cls in store.size_classes if store.kind != "type" else ():
            r = cls.rows.shape[1]
            match = cls.rows[:, :-1] == cls.rows[:, -1:]
            member = match.any(axis=1).tolist()
            steps = np.concatenate((cls.rows, rel0 + cls.rels[:, None]), axis=1)
            keep = np.arange(r + 1) != r - 1  # a member endpoint is stepped as a member
            resid_rows = (np.append(np.arange(r), r - 1), np.arange(r))  # by whether the endpoint is a member
            for b, rows, step, m, pos in zip(cls.blocks.tolist(), cls.rows, steps, member, match.argmax(axis=1).tolist()):
                per_block[b] = (rows, step[keep] if m else step, resid_rows[m], pos if m else None)
        sign = {"type": 0.0, "rhs": 1.0, "lhs": -1.0}[store.kind]
        plans += [(store.coeffs[c[i] : c[i + 1]], accs.coeffs[c[i] : c[i + 1]], store.anchors[i],
                   _BlockName("coeffs", store, i), sign, *rows, slice(base + c[i], base + c[i + 1]))
                  for i, rows in enumerate(per_block)]
        base += c[-1]
    return plans


def _block_pass(stores, plans, state, hp, reg, comb, report) -> float:
    """A pass over the blocks of stores, (store, accumulator store) pairs:
    per plan (_block_plans), one fused step: the block's residual rows,
    projected AdaGrad on its coefficient rows (the projection in place),
    its residual rows at the new coefficients, then one AdaGrad step on its
    step rows, if any (columns :n), whose partials are scaled once; then
    the anchor steps store by store (_anchor_steps), with proxes when reg
    is set and beta > 0.  Returns the sum of the span nuclear norms after
    the proxes.  A block's coefficients move only at its own step and its
    anchors only after the loop, so every block's fit C A at the pass's
    starting coefficients is taken before the loop, stacked per size class
    (block_fits), in the residual buffer that its first residual then
    overwrites, and its refit C A is taken into that buffer too.

    A non-finite gradient raises at the first step that meets one: in plan
    order, a coefficient step names the block (coeffs[...]) and a point
    step the entity or relation row; then, store by store, each by size
    class ascending and each class in key order, the first block whose
    anchor gradient is not finite (anchors[...])."""
    rows, acc_rows, name = state.rows[:, :-1], state.row_acc[:, :-1], state.row_name
    lr = hp.learn_rate
    scale = 1.0 - hp.alpha_mix
    row_scale = 2.0 * scale  # the point partials 2 R, times scale: bit for bit scale (2 R)
    resid = np.empty((sum(len(store.coeffs) for store, _ in stores), rows.shape[1]))
    base = 0
    for store, _ in stores:
        for cls in store.size_classes:
            resid[base + cls.coeffs] = block_fits(store, cls)
        base += len(store.coeffs)
    for coeffs, acc, anchors, coeff_name, sign, point_rows, step_rows, resid_rows, end_member, at in plans:
        points = rows[point_rows]
        if sign:  # a group's virtual member
            points[-1] += sign * rows[step_rows[-1]]
        out = resid[at]
        np.subtract(points, out, out=out)  # block_resid, from the fit C A
        adagrad_step(coeffs, block_coeff_grad(out, anchors, scale), acc, lr, coeff_name)
        project_to_simplex(coeffs, out=coeffs)
        block_resid(coeffs, anchors, points, out=out)
        if step_rows is None:
            continue
        grads = out[resid_rows]
        if end_member is not None:
            grads[end_member] += grads[-1]
        grads *= row_scale
        if sign < 0.0:  # the relation's partial: the virtual member's, signed
            grads[-1] *= sign
        adagrad_step(rows, grads, acc_rows, lr, name, step_rows)
    prox = reg and hp.beta_reg > 0.0
    total, base = 0.0, 0
    for store, accs in stores:
        total = _add_in_order(total, _anchor_steps(store, accs, resid[base:], hp, prox, comb, report))
        base += len(store.coeffs)
    return total


def _type_pass(state, hp, flags, report) -> float:
    """The block pass over the types, in type-id order (_block_pass); the
    entity points stay fixed."""
    return _block_pass(state.type_stores, state.type_plans, state, hp, flags.reg1, flags.comb, report)


def _rel_dist_pass(state, data, hp, rng):
    """Per-triple AdaGrad updates of both entity points and the relation
    vector, in shuffled triple order: one step on columns :n of the rows of
    f, e and k with the partials rel_dist_triple_terms takes from them, g,
    -g and -g.  The pass lays out each triple's three rows once; a triple
    gathers them once and writes its partials into one buffer."""
    lr = hp.learn_rate
    scale = 1.0 - hp.alpha_mix
    rows, acc, name = state.rows[:, :-1], state.row_acc[:, :-1], state.row_name
    triples = np.array(data.triples.triples, dtype=np.intp).reshape(-1, 3)[rng.permutation(len(data.triples))]
    e, k, f = triples.T
    steps = np.column_stack((f, e, state.starts["vectors"] + k))
    grads = np.empty((3, rows.shape[1]))
    for step_rows, loop in zip(steps, (e == f).tolist()):
        x = rows[step_rows]
        rel_dist_triple_terms(x, scale, grads)
        if not loop:
            adagrad_step(rows, grads, acc, lr, name, step_rows, x)
        else:  # a self-loop's entity partials cancel: its entity takes a zero step
            grads[1] = 0.0
            adagrad_step(rows, grads[1:], acc, lr, name, step_rows[1:], x[1:])


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
