"""Loss components and their analytic gradients.

The combined objective mixes a text part (word-word and entity-word
weighted least squares), a type part (entities as convex combinations of
per-type anchor points, optionally with an anchor-cohesion penalty), a
relation part (translation distances and relation-group subspace fits) and
nuclear-norm regularizers on the anchor span matrices:

    total = alpha * J_text + (1 - alpha) * (J_type + J_rel) + beta * J_reg

The nuclear norms are non-smooth and contribute no gradient here; the
optimizer treats them with a proximal step.  Everything else is smooth and
its partials are computed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from typespace.ingest import ENTITY_WORD, WORD_WORD, CooccurrenceTable, TripleStore
from typespace.params import (
    EmbeddingModel,
    Hyperparams,
    ModelParams,
    RelationParams,
    SubspaceBlock,
    TypeSubspaceParams,
    GroupPlan,
    anchor_span_matrix,
    group_plan,
    group_points,
    variant_flags,
)

_SIMPLEX_SUM_TOL = 1e-6
_SIMPLEX_NEG_TOL = 1e-9


class SimplexViolationError(ValueError):
    """A lambda/mu coefficient row left the probability simplex."""


@dataclass
class LossBreakdown:
    j_glove: float = 0.0
    j_text_entity: float = 0.0
    j_type: float = 0.0
    j_type_comb_penalty: float = 0.0
    j_rel_dim: float = 0.0
    j_rel_dist: float = 0.0
    j_reg1: float = 0.0
    j_reg2: float = 0.0
    total: float = 0.0


def weight_f(x, x_max: float, exp: float):
    """Co-occurrence weighting, elementwise on a count or an array of
    counts: (x/x_max)**exp below x_max, 1 beyond."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("co-occurrence count must be non-negative")
    return np.minimum(np.power(x / x_max, exp), 1.0)


# Table kind -> (gradient address name, EmbeddingModel attribute) of its
# fit's row vectors, column vectors, row biases and column biases.  The
# address names are also the trainer's AdaGrad accumulator names.
_TEXT_FITS = {
    WORD_WORD: (("word", "word_vecs"), ("ctx", "ctx_vecs"), ("word_bias", "word_bias"), ("ctx_bias", "ctx_bias")),
    ENTITY_WORD: (
        ("entity", "entity_points"),
        ("word", "word_vecs"),
        ("entity_bias", "entity_bias"),
        ("word_bias", "word_bias"),
    ),
}


def text_fit(model: EmbeddingModel, kind: str):
    """(address names, model arrays) of a table kind's bilinear fit, in the
    order row vectors, column vectors, row biases, column biases."""
    pairs = _TEXT_FITS[kind]
    return tuple(name for name, _ in pairs), tuple(getattr(model, attr) for _, attr in pairs)


def text_loss(table: CooccurrenceTable, model: EmbeddingModel, hp: Hyperparams) -> float:
    """Weighted least-squares fit of a table's log counts by the bilinear
    fit text_fit chooses for its kind: word against context vectors for a
    word-word table, entity points against word vectors for an entity-word
    table."""
    if len(table) == 0:
        return 0.0
    _, (u, v, bu, bv) = text_fit(model, table.kind)
    i, j = table.rows, table.cols
    fx = weight_f(table.weights, hp.x_max, hp.weight_exp)
    return float(np.sum(text_entry_terms(u[i], v[j], bu[i], bv[j], fx, np.log(table.weights))[0]))


def _check_simplex(coeffs: np.ndarray, what: str) -> None:
    sums = coeffs.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > _SIMPLEX_SUM_TOL) or np.any(coeffs < -_SIMPLEX_NEG_TOL):
        raise SimplexViolationError(f"{what} coefficients violate the simplex constraint")


def block_resid(block: SubspaceBlock, points: np.ndarray) -> np.ndarray:
    """Residual rows of a subspace block's fit: its points (one per
    coefficient row) minus their convex combinations of the anchors.  Its
    loss is block_loss(resid), whose partial for point i is 2 * resid[i]."""
    return points - block.coeffs @ block.anchors


def block_loss(resid: np.ndarray) -> float:
    return float(np.sum(resid * resid))


def block_anchor_grad(block: SubspaceBlock, resid: np.ndarray) -> np.ndarray:
    return -2.0 * block.coeffs.T @ resid


def block_coeff_grad(block: SubspaceBlock, resid: np.ndarray) -> np.ndarray:
    return -2.0 * resid @ block.anchors.T


def type_loss(types: TypeSubspaceParams, model: EmbeddingModel) -> float:
    """Sum of squared residuals of entity points against their convex
    combination of type anchors."""
    total = 0.0
    for type_id, tp in types.items():
        _check_simplex(tp.coeffs, f"type {type_id!r} lambda")
        total += block_loss(block_resid(tp, model.entity_points[tp.members]))
    return total


def comb_penalty_terms(anchors: np.ndarray, tiny: float = 1e-12):
    """Loss and anchor partials of the anchor-cohesion penalty: the summed
    Euclidean distances of the anchors to their centroid.  At a kink
    (anchor exactly at the centroid) the zero subgradient is used."""
    centered = anchors - anchors.mean(axis=0)
    norms = np.linalg.norm(centered, axis=1)
    safe = np.where(norms > tiny, norms, 1.0)
    units = np.where((norms > tiny)[:, None], centered / safe[:, None], 0.0)
    return float(np.sum(norms)), units - units.mean(axis=0)


def type_comb_penalty(types: TypeSubspaceParams) -> float:
    """Anchor-cohesion penalty summed over types."""
    return sum(comb_penalty_terms(tp.anchors)[0] for tp in types.per_type.values())


def rel_dist_loss(store: TripleStore, model: EmbeddingModel, rels: RelationParams) -> float:
    """Translation loss 2 * sum of |P_f - P_e - r_k|^2 over the triples, the
    residual of rel_dist_triple_terms: each triple counts once in its
    (head, rel) group and once in its (rel, tail) group."""
    e, k, f = np.array(store.triples, dtype=np.int64).reshape(-1, 3).T
    r = model.entity_points[f] - model.entity_points[e] - rels.vectors[k]
    return 2.0 * float(np.sum(r * r))


def rel_dim_loss(model: EmbeddingModel, rels: RelationParams) -> float:
    """Subspace fit of relation groups: each member point (tails of a head,
    heads of a tail, plus the translated endpoint) against its convex
    combination of the group anchors."""
    total = 0.0
    for side, groups in rels.sides():
        for key, gp in groups.items():
            _check_simplex(gp.coeffs, f"group {side}{key} mu")
            points = group_points(model.entity_points, rels.vectors, group_plan(gp.members, side, key))
            total += block_loss(block_resid(gp, points))
    return total


def group_point_gradients(plan: GroupPlan, resid: np.ndarray):
    """Partials of a relation group's fit with respect to the entities
    plan.step_rows (one row each) and to its relation vector, from the
    group's residual rows.  The virtual member's partial goes to its
    endpoint entity and, signed, to the relation."""
    point_grads = 2.0 * resid
    virt = point_grads[-1]
    grads = point_grads[: len(plan.step_rows)]
    if plan.end_pos < len(plan.rows) - 1:  # the endpoint is a member
        grads[plan.end_pos] += virt
    return grads, plan.sign * virt


def nuclear_norm(m: np.ndarray) -> float:
    """Sum of singular values; 0 for an all-zero matrix (a block the prox
    collapsed to a point) without an SVD."""
    if not np.all(np.isfinite(m)):
        raise ValueError("nuclear norm of a non-finite matrix")
    if not np.any(m):
        return 0.0
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def regularizer(types: TypeSubspaceParams, rels: RelationParams, variant: str) -> tuple[float, float]:
    """Nuclear norms of the anchor span matrices, zeroed for variants that
    exclude each component: the reference for the sums the trainer carries
    from its proxes, and what total_objective uses when no prox ran."""
    flags = variant_flags(variant)
    groups = (gp for _, side in rels.sides() for gp in side.values())
    j1 = sum((nuclear_norm(anchor_span_matrix(tp.anchors)) for tp in types.per_type.values()), 0.0) if flags.reg1 else 0.0
    j2 = sum((nuclear_norm(anchor_span_matrix(gp.anchors)) for gp in groups), 0.0) if flags.reg2 else 0.0
    return j1, j2


def total_objective(
    word_word: CooccurrenceTable | None,
    entity_word: CooccurrenceTable | None,
    store: TripleStore | None,
    params: ModelParams,
    hp: Hyperparams,
    reg: tuple[float, float] | None = None,
) -> LossBreakdown:
    """Assemble the full objective for the configured variant; inactive
    components are reported as zero.  reg is (j_reg1, j_reg2) as the trainer
    carries them from its proxes; regularizer computes them when it is None."""
    flags = variant_flags(hp.variant)
    out = LossBreakdown()
    if word_word is not None:
        out.j_glove = text_loss(word_word, params.model, hp)
    if entity_word is not None:
        out.j_text_entity = text_loss(entity_word, params.model, hp)
    if flags.type_active:
        out.j_type = type_loss(params.types, params.model)
        if flags.comb:
            out.j_type_comb_penalty = type_comb_penalty(params.types)
    if flags.rel_dim_active:
        out.j_rel_dim = rel_dim_loss(params.model, params.rels)
    if flags.rel_dist_active and store is not None:
        out.j_rel_dist = rel_dist_loss(store, params.model, params.rels)
    out.j_reg1, out.j_reg2 = regularizer(params.types, params.rels, hp.variant) if reg is None else reg
    alpha = hp.alpha_mix
    out.total = (
        alpha * (out.j_glove + out.j_text_entity)
        + (1.0 - alpha) * (out.j_type + out.j_type_comb_penalty + out.j_rel_dim + out.j_rel_dist)
        + hp.beta_reg * (out.j_reg1 + out.j_reg2)
    )
    return out


# ---------------------------------------------------------------------------
# Per-item smooth terms and their exact partials.  The trainer steps with
# these one item at a time, scaled by its mixing weight; loss_and_gradients
# sums them over a batch.  Gradient addresses are tuples: ("entity", e),
# ("word", j), ("ctx", j), ("word_bias", j), ("ctx_bias", j),
# ("entity_bias", e), ("rel", k), ("anchors", type_id),
# ("lambda", type_id, row), ("q", side, key), ("mu", side, key, row).


def text_entry_terms(u, v, bu, bv, fx, logx, scale=1.0):
    """Loss f * (u.v + b_u + b_v - log x)**2 of one text entry, with weight
    fx = f(x) and logx = log x, and its partials times scale.

    Takes one entry, or a batch with u and v stacked as rows and the other
    arguments as arrays; the dot product gives the same bits either way.
    Returns (loss, d/du, d/dv, d/db); d/db is the partial with respect to
    either bias.
    """
    resid = np.einsum("...i,...i->...", u, v) + bu + bv - logx
    coef = scale * 2.0 * fx * resid
    return fx * resid * resid, coef[..., None] * v, coef[..., None] * u, coef


def type_term_gradients(model: EmbeddingModel, type_id: str, tp: SubspaceBlock):
    """Loss and addressed partials of one type's convex-combination fit."""
    resid = block_resid(tp, model.entity_points[tp.members])
    coeff_grad = block_coeff_grad(tp, resid)
    grads: dict = {("anchors", type_id): block_anchor_grad(tp, resid)}
    for row, e in enumerate(tp.members.tolist()):
        grads[("lambda", type_id, row)] = coeff_grad[row]
        grads[("entity", e)] = 2.0 * resid[row]
    return block_loss(resid), grads


def rel_dist_triple_terms(model: EmbeddingModel, rels: RelationParams, e: int, k: int, f: int, scale=1.0):
    """Loss and addressed partials, times scale, of one triple's translation
    residual; the factor 2 reflects the triple's appearance in both group
    sums.  For a self-loop (e == f) the two entity partials cancel, and the
    one entity partial is zero."""
    r = model.entity_points[f] - model.entity_points[e] - rels.vectors[k]
    loss = 2.0 * float(r @ r)
    g = scale * 4.0 * r
    if e == f:
        return loss, {("entity", e): np.zeros_like(r), ("rel", k): -g}
    return loss, {("entity", f): g, ("entity", e): -g, ("rel", k): -g}


def rel_group_gradients(model: EmbeddingModel, rels: RelationParams, side: str, key: tuple[int, int], gp: SubspaceBlock):
    """Loss and addressed partials of one relation group's subspace fit."""
    plan = group_plan(gp.members, side, key)
    resid = block_resid(gp, group_points(model.entity_points, rels.vectors, plan))
    grads: dict = {("q", side, key): block_anchor_grad(gp, resid)}
    for row, g in enumerate(block_coeff_grad(gp, resid)):
        grads[("mu", side, key, row)] = g
    entity_grads, rel_grad = group_point_gradients(plan, resid)
    for e, g in zip(plan.step_rows.tolist(), entity_grads):
        grads[("entity", e)] = g
    grads[("rel", plan.rel)] = rel_grad
    return block_loss(resid), grads


@dataclass
class Batch:
    """A subset of smooth objective terms for loss_and_gradients.

    ww/ew are (row, col, count) entries; type_ids name whole type terms;
    triples are (head, rel, tail) index triples; rhs_keys/lhs_keys name
    relation groups.
    """

    ww: list = field(default_factory=list)
    ew: list = field(default_factory=list)
    type_ids: list = field(default_factory=list)
    comb: bool = False
    triples: list = field(default_factory=list)
    rhs_keys: list = field(default_factory=list)
    lhs_keys: list = field(default_factory=list)

    @classmethod
    def full(
        cls,
        word_word: CooccurrenceTable | None,
        entity_word: CooccurrenceTable | None,
        store: TripleStore | None,
        params: ModelParams,
        comb: bool = False,
    ) -> "Batch":
        b = cls(comb=comb)
        if word_word is not None:
            b.ww = [(int(r), int(c), float(w)) for r, c, w in zip(word_word.rows, word_word.cols, word_word.weights)]
        if entity_word is not None:
            b.ew = [(int(r), int(c), float(w)) for r, c, w in zip(entity_word.rows, entity_word.cols, entity_word.weights)]
        b.type_ids = sorted(params.types.per_type)
        if store is not None:
            b.triples = list(store.triples)
        b.rhs_keys = sorted(params.rels.rhs_groups)
        b.lhs_keys = sorted(params.rels.lhs_groups)
        return b


def _merge(into: dict, grads: dict) -> None:
    for key, val in grads.items():
        if key in into:
            into[key] = into[key] + val
        else:
            into[key] = val


def loss_and_gradients(batch: Batch, params: ModelParams, hp: Hyperparams):
    """Unweighted sum of the batch's smooth terms and its exact partials.

    The alpha mixing weights are the optimizer's business; nuclear norms
    never contribute here.
    """
    model, types, rels = params.model, params.types, params.rels
    total = 0.0
    grads: dict = {}
    for kind, entries in ((WORD_WORD, batch.ww), (ENTITY_WORD, batch.ew)):
        (nu, nv, nbu, nbv), (u, v, bu, bv) = text_fit(model, kind)
        for i, j, x in entries:
            fx = weight_f(x, hp.x_max, hp.weight_exp)
            loss, gu, gv, gb = text_entry_terms(u[i], v[j], bu[i], bv[j], fx, math.log(x))
            total += loss
            _merge(grads, {(nu, i): gu, (nv, j): gv, (nbu, i): gb, (nbv, j): gb})
    for type_id in batch.type_ids:
        loss, g = type_term_gradients(model, type_id, types[type_id])
        total += loss
        _merge(grads, g)
        if batch.comb:
            loss, g = comb_penalty_terms(types[type_id].anchors)
            total += loss
            _merge(grads, {("anchors", type_id): g})
    for e, k, f in batch.triples:
        loss, g = rel_dist_triple_terms(model, rels, e, k, f)
        total += loss
        _merge(grads, g)
    groups = dict(rels.sides())
    for side, keys in (("rhs", batch.rhs_keys), ("lhs", batch.lhs_keys)):
        for key in keys:
            loss, g = rel_group_gradients(model, rels, side, key, groups[side][key])
            total += loss
            _merge(grads, g)
    return total, grads
