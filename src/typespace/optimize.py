"""Stochastic proximal training.

Each epoch makes three passes: (1) a shuffled pass over word-word and
entity-word entries with AdaGrad updates, (2) a pass over types, (3) a pass
over relation triples and then relation groups.  The text pass runs the
per-entry loop over the shuffled order as an exact level schedule: an
entry's level is one more than the highest level of any earlier entry
sharing a row with it, and each level's entries of one table kind, which
write distinct rows, take one vectorized step.  Types and relation groups
are the same subspace block, and one block step updates either: the
simplex coefficients by projected gradient, the anchors by a gradient
step, then singular-value thresholding of the anchor span matrix.  The
nuclear norms are handled only by the proximal step, never by gradients.
Training is a pure function of its inputs and seeds.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from typespace.ingest import ENTITY_WORD, WORD_WORD, CooccurrenceTable, EntityCatalog, TripleStore, TypeSystem, Vocabulary
from typespace.objective import (
    LossBreakdown,
    block_anchor_grad,
    block_coeff_grad,
    block_resid,
    comb_penalty_terms,
    group_point_gradients,
    nuclear_norm,
    rel_dist_triple_terms,
    text_entry_terms,
    text_fit,
    total_objective,
    weight_f,
)
from typespace.params import (
    Hyperparams,
    ModelParams,
    anchor_span_matrix,
    clone_params,
    group_plan,
    group_points,
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

# A text entry's tag is its table kind's index here.
_TEXT_KINDS = (WORD_WORD, ENTITY_WORD)

PASSES = ("text", "type", "rel_dist", "rel_group", "objective")  # the keys of an epoch's pass_ms


class NonFiniteGradientError(FloatingPointError):
    """A gradient went NaN/Inf; the message names the parameter."""


class TrainingDivergedError(RuntimeError):
    """Total loss became non-finite; carries the last finite-epoch params."""

    def __init__(self, message, last_good: ModelParams | None, last_epoch: int):
        super().__init__(message)
        self.last_good = last_good
        self.last_epoch = last_epoch


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum(x) = 1} (sort-based),
    row by row along the last axis."""
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError("cannot project a non-finite vector")
    u = np.sort(v, axis=-1)[..., ::-1]
    css = u.cumsum(axis=-1) - 1.0
    cond = u - css / np.arange(1, v.shape[-1] + 1) > 0
    rho = v.shape[-1] - cond[..., ::-1].argmax(axis=-1)
    theta = np.take_along_axis(css, rho[..., None] - 1, axis=-1) / rho[..., None]
    return np.maximum(v - theta, 0.0)


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
    if not np.all(np.isfinite(m)):
        raise ValueError("cannot threshold a non-finite matrix")
    if tau == 0.0:
        return m.copy(), nuclear_norm(m)
    fro2 = float(np.vdot(m, m))
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


def adagrad_step(values: np.ndarray, grad, state: np.ndarray, lr: float, name: str = "param", rows=None) -> None:
    """In-place AdaGrad update: accumulate g**2, then move each coordinate
    by -lr * g / sqrt(G + eps).

    With rows (distinct indices), grad holds one gradient row per index and
    only those rows of values and state move.  The gradient is checked once;
    a non-finite one raises before anything moves and names its first
    non-finite row as name[row].
    """
    g = np.asarray(grad, dtype=np.float64)
    finite = np.isfinite(g)
    if not finite.all():
        if rows is not None:
            name = f"{name}[{rows[int(np.argmin(finite.reshape(len(g), -1).all(axis=1)))]}]"
        raise NonFiniteGradientError(f"non-finite gradient for {name}")
    idx = ... if rows is None else rows
    acc = state[idx] + g * g
    state[idx] = acc
    values[idx] -= lr * g / np.sqrt(acc + ADAGRAD_EPS)


def anchor_prox_scale(lr: float, accum: np.ndarray) -> float:
    """Effective AdaGrad scale of an anchor block, used to couple the
    nuclear-norm strength to the current step size: lr / sqrt(mean G + eps).

    This coupling is deliberately isolated here so it can be revised in one
    place.
    """
    return lr / math.sqrt(float(np.sum(accum)) / accum.size + ADAGRAD_EPS)


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
    """Accumulated squared gradients, parallel to every trainable array."""

    def __init__(self, params: ModelParams):
        m = params.model
        self.entity = np.zeros_like(m.entity_points)
        self.word = np.zeros_like(m.word_vecs)
        self.ctx = np.zeros_like(m.ctx_vecs)
        self.word_bias = np.zeros_like(m.word_bias)
        self.ctx_bias = np.zeros_like(m.ctx_bias)
        self.entity_bias = np.zeros_like(m.entity_bias)
        self.rel = np.zeros_like(params.rels.vectors)
        # (anchor, coefficient) accumulators per block, keyed by type id for
        # types and by (side, key) for relation groups.
        blocks = dict(params.types.items())
        for side, groups in params.rels.sides():
            blocks.update({(side, key): g for key, g in groups.items()})
        self.blocks = {addr: (np.zeros_like(b.anchors), np.zeros_like(b.coeffs)) for addr, b in blocks.items()}


def _text_schedule(tags, rows, cols, order, fits):
    """The entries of order as batches of one (level, table kind), in level
    order.  An entry's level is one more than the highest level of any
    earlier entry that writes one of its rows, so a batch writes distinct
    rows and every row sees its updates in the order of order.  Rows are
    keyed per vector array (a word row is one key in both table kinds); a
    bias row is written with its vector row and shares its key.
    """
    offsets: dict[str, int] = {}  # first key of each vector array
    n_keys = 0
    for names, arrays, _ in fits:
        for name, arr in zip(names[:2], arrays[:2]):
            if name not in offsets:
                offsets[name] = n_keys
                n_keys += len(arr)
    kinds = tags[order]
    keys_u = np.array([offsets[names[0]] for names, _, _ in fits])[kinds] + rows[order]
    keys_v = np.array([offsets[names[1]] for names, _, _ in fits])[kinds] + cols[order]
    last = [0] * n_keys
    levels = []
    for a, b in zip(keys_u.tolist(), keys_v.tolist()):
        la = last[a]
        lb = last[b]
        level = (la if la > lb else lb) + 1
        last[a] = last[b] = level
        levels.append(level)
    batch_keys = np.array(levels, dtype=np.int64) * len(fits) + kinds
    perm = np.argsort(batch_keys, kind="stable")
    return np.split(order[perm], np.flatnonzero(np.diff(batch_keys[perm], prepend=-1)))[1:]


def _text_pass(entries, order, params, state, hp, alpha) -> int:
    """AdaGrad updates over precomputed text entries, bit for bit those of
    a per-entry loop in the given order, one step per batch of
    _text_schedule; returns the number of batches.

    entries is (tags, rows, cols, fvals, logs); a tag indexes _TEXT_KINDS.
    """
    tags, rows, cols, fvals, logs = entries
    lr = hp.learn_rate
    fits = []
    for kind in _TEXT_KINDS:
        names, arrays = text_fit(params.model, kind)
        fits.append((names, arrays, tuple(getattr(state, name) for name in names)))
    batches = _text_schedule(tags, rows, cols, np.asarray(order, dtype=np.intp), fits)
    for idx in batches:
        i = rows[idx]
        j = cols[idx]
        (nu, nv, nbu, nbv), (u, v, bu, bv), (su, sv, sbu, sbv) = fits[tags[idx[0]]]
        _, gu, gv, gb = text_entry_terms(u[i], v[j], bu[i], bv[j], fvals[idx], logs[idx], alpha)
        adagrad_step(u, gu, su, lr, nu, rows=i)
        adagrad_step(v, gv, sv, lr, nv, rows=j)
        adagrad_step(bu, gb, sbu, lr, nbu, rows=i)
        adagrad_step(bv, gb, sbv, lr, nbv, rows=j)
    return len(batches)


def _prepare_text_entries(data: TrainData, hp: Hyperparams):
    tags, rows, cols, fvals, logs = [], [], [], [], []
    for table in (data.word_word, data.entity_word):
        if table is None or len(table) == 0:
            continue
        tags.append(np.full(len(table), _TEXT_KINDS.index(table.kind), dtype=np.int8))
        rows.append(table.rows)
        cols.append(table.cols)
        fvals.append(weight_f(table.weights, hp.x_max, hp.weight_exp))
        logs.append(np.log(table.weights))
    if not tags:
        return None
    return tuple(np.concatenate(parts) for parts in (tags, rows, cols, fvals, logs))


def _block_step(block, points, acc, hp, prox, comb, report, label) -> tuple[np.ndarray, float]:
    """One update of a subspace block whose current points are `points`.

    Projected AdaGrad on the simplex coefficient rows, an AdaGrad step on
    the anchors (plus the anchor-cohesion penalty when comb is set), then,
    when prox is set, singular-value thresholding of the anchor span matrix
    with anchor 0 held as base point.  acc is the block's (anchor,
    coefficient) accumulator pair.  Returns the residuals of the anchor
    step, for the caller to turn into point gradients, and the nuclear norm
    of the new span (0.0 without prox).
    """
    lr = hp.learn_rate
    scale = 1.0 - hp.alpha_mix
    acc_anchors, acc_coeffs = acc
    coeff_grad = block_coeff_grad(block, block_resid(block, points))
    adagrad_step(block.coeffs, scale * coeff_grad, acc_coeffs, lr, name=f"coeffs[{label}]")
    block.coeffs[:] = project_to_simplex(block.coeffs)
    resid = block_resid(block, points)
    anchor_grad = block_anchor_grad(block, resid)
    if comb:
        anchor_grad = anchor_grad + comb_penalty_terms(block.anchors)[1]
    adagrad_step(block.anchors, scale * anchor_grad, acc_anchors, lr, name=f"anchors[{label}]")
    if not prox:
        return resid, 0.0
    tau = hp.beta_reg * anchor_prox_scale(lr, acc_anchors)
    span, norm = prox_nuclear(anchor_span_matrix(block.anchors), tau)
    set_anchor_span_matrix(block.anchors, span)
    report.prox_calls += 1
    report.prox_zero += not span.any()
    return resid, norm


def _type_pass(params, state, hp, flags, report) -> float:
    """One block step per type, in type-id order; the entity points stay
    fixed.  Returns the sum of the types' span nuclear norms after their
    proxes."""
    prox = flags.reg1 and hp.beta_reg > 0.0
    reg = 0.0
    for type_id in sorted(params.types.per_type):
        tp = params.types[type_id]
        points = params.model.entity_points[tp.members]
        reg += _block_step(tp, points, state.blocks[type_id], hp, prox, flags.comb, report, type_id)[1]
    return reg


def _rel_dist_pass(params, state, data, hp, rng):
    """Per-triple AdaGrad updates of both entity points and the relation
    vector, in shuffled triple order."""
    lr = hp.learn_rate
    scale = 1.0 - hp.alpha_mix
    triples = data.triples.triples
    for idx in rng.permutation(len(triples)):
        e, k, f = triples[idx]
        for (name, i), g in rel_dist_triple_terms(params.model, params.rels, e, k, f, scale)[1].items():
            values = params.rels.vectors if name == "rel" else params.model.entity_points
            adagrad_step(values[i], g, getattr(state, name)[i], lr, name=f"{name}[{i}]")


def _group_plans(params, state):
    """(block, index plan, accumulator pair, label) per relation group, in
    pass order: tail groups then head groups, each side in key order."""
    return [
        (groups[key], group_plan(groups[key].members, side, key), state.blocks[(side, key)], f"{side}{key}")
        for side, groups in params.rels.sides()
        for key in sorted(groups)
    ]


def _rel_dim_pass(params, state, hp, flags, report, plans) -> float:
    """One block step per relation group of plans, then AdaGrad steps on
    the group's entity points (one row step) and its relation vector.
    Returns the sum of the groups' span nuclear norms after their proxes."""
    m, rels = params.model, params.rels
    lr = hp.learn_rate
    scale = 1.0 - hp.alpha_mix
    prox = flags.reg2 and hp.beta_reg > 0.0
    reg = 0.0
    for gp, plan, acc, label in plans:
        points = group_points(m.entity_points, rels.vectors, plan)
        resid, norm = _block_step(gp, points, acc, hp, prox, False, report, label)
        reg += norm
        entity_grads, rel_grad = group_point_gradients(plan, resid)
        adagrad_step(m.entity_points, scale * entity_grads, state.entity, lr, "entity", rows=plan.step_rows)
        adagrad_step(rels.vectors[plan.rel], scale * rel_grad, state.rel[plan.rel], lr, name=f"rel[{plan.rel}]")
    return reg


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
    the proxes return.
    """
    hp = cfg.hp
    flags = variant_flags(hp.variant)
    if params is None:
        params = init_parameters(data.n_entities, data.n_words, data.type_system, data.triples, hp)
    state = _AdaState(params)
    rng = np.random.default_rng(cfg.shuffle_seed)
    report = TrainReport()
    entries = _prepare_text_entries(data, hp)
    alpha = hp.alpha_mix
    plans = _group_plans(params, state)
    carry_reg = hp.beta_reg > 0.0

    log_fh = open(cfg.log_path, "w", encoding="utf-8") if cfg.log_path else None
    last_good: ModelParams | None = None
    collapsed = 0  # epochs in which every prox returned the zero span
    try:
        for epoch in range(hp.epochs):
            t0 = time.perf_counter()
            pass_ms = dict.fromkeys(PASSES, 0.0)
            text_batches = 0
            reg1 = reg2 = 0.0
            prox_calls, prox_zero = report.prox_calls, report.prox_zero
            try:
                if entries is not None and alpha > 0.0:
                    order = rng.permutation(len(entries[0]))
                    text_batches = _timed(pass_ms, "text", _text_pass, entries, order, params, state, hp, alpha)
                if flags.type_active:
                    reg1 = _timed(pass_ms, "type", _type_pass, params, state, hp, flags, report)
                if flags.rel_dist_active and len(data.triples) > 0:
                    _timed(pass_ms, "rel_dist", _rel_dist_pass, params, state, data, hp, rng)
                if flags.rel_dim_active:
                    reg2 = _timed(pass_ms, "rel_group", _rel_dim_pass, params, state, hp, flags, report, plans)
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
            last_good = clone_params(params)
    finally:
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
