"""Loss components and their analytic gradients.

The combined objective mixes a text part (word-word and entity-word
weighted least squares), a type part (entities as convex combinations of
per-type anchor points, optionally with an anchor-cohesion penalty), a
relation part (translation distances and relation-group subspace fits) and
nuclear-norm regularizers on the anchor span matrices:

    total = alpha * J_text + (1 - alpha) * (J_type + J_rel) + beta * J_reg

The nuclear norms are non-smooth and contribute no gradient here; the
optimizer treats them with a proximal step.  Everything else is smooth and
its partials are computed exactly.  This module holds the loss formulas and
their partials only; which rows a trainer step gathers and moves is
optimize's concern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typespace.ingest import ENTITY_WORD, WORD_WORD, CooccurrenceTable, TripleStore
from typespace.params import (
    BlockStore,
    EmbeddingModel,
    Hyperparams,
    ModelParams,
    RelationParams,
    TypeSubspaceParams,
    _finite,
    anchor_span_matrix,
    variant_flags,
)


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


# GloVe's co-occurrence weighting: counts saturate at X_MAX (Pennington et al., 2014).
X_MAX = 100.0
WEIGHT_EXP = 0.75


def weight_f(x):
    """Co-occurrence weighting, elementwise on a count or an array of
    counts: (x/X_MAX)**WEIGHT_EXP below X_MAX, 1 beyond."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("co-occurrence count must be non-negative")
    return np.minimum(np.power(x / X_MAX, WEIGHT_EXP), 1.0)


# Table kind -> the EmbeddingModel attributes of its fit's row vectors,
# column vectors, row biases and column biases.
TEXT_FITS = {
    WORD_WORD: ("word_vecs", "ctx_vecs", "word_bias", "ctx_bias"),
    ENTITY_WORD: ("entity_points", "word_vecs", "entity_bias", "word_bias"),
}


def text_loss(table: CooccurrenceTable, model: EmbeddingModel) -> float:
    """Weighted least-squares fit of a table's log counts by the bilinear
    fit TEXT_FITS names for its kind: word against context vectors for a
    word-word table, entity points against word vectors for an entity-word
    table."""
    if len(table) == 0:
        return 0.0
    u, v, bu, bv = (getattr(model, attr) for attr in TEXT_FITS[table.kind])
    i, j = table.rows, table.cols
    fx = weight_f(table.weights)
    return float(np.sum(text_entry_terms(u[i], v[j], bu[i], bv[j], fx, np.log(table.weights))[0]))


def _check_simplex(store: BlockStore, what: str) -> None:
    i = store.off_simplex()
    if i is not None:
        raise SimplexViolationError(f"{store.label(i)} {what} coefficients violate the simplex constraint")


def block_resid(coeffs: np.ndarray, anchors: np.ndarray, points: np.ndarray, out=None) -> np.ndarray:
    """Residual rows of a subspace block's fit: its points (one per
    coefficient row of coeffs) minus their convex combinations of the
    anchors, in out when given.  Its loss is the sum of squared residuals,
    whose partial for point i is 2 * resid[i]."""
    fit = np.matmul(coeffs, anchors, out=out)
    return np.subtract(points, fit, out=fit)


def block_anchor_grad(coeffs: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """-2 C^T R: the anchor partials of a block's fit from its coefficient
    rows C and residual rows R, or of a stack of blocks from (B, r, k) and
    (B, r, n) stacks, each block's bit for bit its own."""
    return -2.0 * np.swapaxes(coeffs, -1, -2) @ resid


def block_coeff_grad(resid: np.ndarray, anchors: np.ndarray, scale: float) -> np.ndarray:
    """-2 R A^T times scale: the coefficient partials of a block's fit from
    its residual rows R and anchors A, formed as (R A^T) (-2 scale), bit for
    bit scale (-2 R A^T) since doubling is exact."""
    grad = resid @ anchors.T
    grad *= -2.0 * scale
    return grad


def block_fits(store: BlockStore, cls) -> np.ndarray:
    """The fits C A that block_resid subtracts from the points, of each
    block of a size class, stacked (B, r, n); each block's bit for bit its
    own."""
    anchors = store.anchors if len(cls.blocks) == len(store) else store.anchors[cls.blocks]
    return store.coeffs[cls.coeffs] @ anchors


def block_fit_losses(store: BlockStore, entity_points: np.ndarray, vectors: np.ndarray | None = None) -> np.ndarray:
    """Each block's sum of squared block_resid rows, in key order, one
    stacked fit per size class; each value is bit for bit the block's own."""
    out = np.empty(len(store))
    for cls in store.size_classes:
        resid = store.class_points(cls, entity_points, vectors) - block_fits(store, cls)
        out[cls.blocks] = np.sum(resid * resid, axis=(1, 2))
    return out


def _add_in_order(total: float, losses: np.ndarray) -> float:
    """total plus each loss in turn, as a loop over the blocks adds them."""
    for loss in losses.tolist():
        total += loss
    return total


def type_loss(types: TypeSubspaceParams, model: EmbeddingModel) -> float:
    """Sum of squared residuals of entity points against their convex
    combination of type anchors."""
    _check_simplex(types.per_type, "lambda")
    return _add_in_order(0.0, block_fit_losses(types.per_type, model.entity_points))


def comb_penalty_terms(anchors: np.ndarray, tiny: float = 1e-12):
    """Loss and anchor partials of the anchor-cohesion penalty: the summed
    Euclidean distances of the anchors to their centroid.  anchors is one
    block's (k, n) or a (B, k, n) stack, whose losses and partials are each
    block's own bit for bit.  At a kink (anchor exactly at the centroid) the
    zero subgradient is used."""
    centered = anchors - anchors.mean(axis=-2, keepdims=True)
    norms = np.linalg.norm(centered, axis=-1)
    safe = np.where(norms > tiny, norms, 1.0)
    units = np.where((norms > tiny)[..., None], centered / safe[..., None], 0.0)
    return np.sum(norms, axis=-1), units - units.mean(axis=-2, keepdims=True)


def type_comb_penalty(types: TypeSubspaceParams) -> float:
    """Anchor-cohesion penalty summed over types."""
    return float(sum(comb_penalty_terms(tp.anchors)[0] for tp in types.per_type.values()))


def rel_dist_loss(store: TripleStore, model: EmbeddingModel, rels: RelationParams) -> float:
    """Translation loss 2 * sum of |P_f - P_e - r_k|^2 over the triples, whose
    partials rel_dist_triple_terms takes: each triple counts once in its
    (head, rel) group and once in its (rel, tail) group."""
    e, k, f = np.array(store.triples, dtype=np.int64).reshape(-1, 3).T
    r = model.entity_points[f] - model.entity_points[e] - rels.vectors[k]
    return 2.0 * float(np.sum(r * r))


def rel_dim_loss(model: EmbeddingModel, rels: RelationParams) -> float:
    """Subspace fit of relation groups: each member point (tails of a head,
    heads of a tail, plus the translated endpoint) against its convex
    combination of the group anchors."""
    total = 0.0
    for groups in (rels.rhs_groups, rels.lhs_groups):
        _check_simplex(groups, "mu")
        total = _add_in_order(total, block_fit_losses(groups, model.entity_points, rels.vectors))
    return total


def nuclear_norm(m: np.ndarray) -> float:
    """Sum of singular values; 0 for an all-zero matrix (a block the prox
    collapsed to a point) without an SVD."""
    if not _finite(m):
        raise ValueError("nuclear norm of a non-finite matrix")
    if not np.any(m):
        return 0.0
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def regularizer(types: TypeSubspaceParams, rels: RelationParams, variant: str) -> tuple[float, float]:
    """Nuclear norms of the anchor span matrices, zeroed for variants that
    exclude each component: the reference for the sums the trainer carries
    from its proxes, and what total_objective uses when no prox ran."""
    flags = variant_flags(variant)
    groups = (gp for side in (rels.rhs_groups, rels.lhs_groups) for gp in side.values())
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
        out.j_glove = text_loss(word_word, params.model)
    if entity_word is not None:
        out.j_text_entity = text_loss(entity_word, params.model)
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


# Per-item smooth terms and their exact partials.  The trainer steps with
# these, scaled by its mixing weight, and the finite-difference suite checks
# the trainer's steps.


def text_entry_terms(u, v, bu, bv, fx, logx, scale=1.0, out=None):
    """Loss f * (u.v + b_u + b_v - log x)**2 of one text entry, with weight
    fx = f(x) and logx = log x, and its partials times scale.

    Takes one entry, or a batch with u and v stacked as rows and the other
    arguments as arrays; the dot product gives the same bits either way.
    Returns (loss, d/du, d/dv, d/db); d/db is the partial with respect to
    either bias.

    With out, a buffer of at least 2k rows of n + 1 values for a batch of k
    entries, only the partials are taken, and fx is each entry's partial
    weight scale * 2 * f(x) as the caller formed it (scale is not read).
    They go into out[:2k], one row per stepped row: d/du in rows :k and d/dv
    in rows k:2k, columns :n, and d/db in column n of both.  Returns
    out[:2k].
    """
    resid = np.einsum("...i,...i->...", u, v) + bu + bv - logx
    if out is None:
        coef = scale * 2.0 * fx * resid
        return fx * resid * resid, *_text_partials(u, v, coef)
    k = len(resid)
    grads, coef = out[: 2 * k], fx * resid
    _text_partials(u, v, coef, grads[:k, :-1], grads[k:, :-1])
    grads[:k, -1] = coef
    grads[k:, -1] = coef
    return grads


def _text_partials(u, v, coef, gu=None, gv=None):
    """The partials of text_entry_terms from coef = scale * 2 * f * resid:
    d/du = coef v and d/dv = coef u, in gu and gv when given, and d/db =
    coef."""
    c = coef[..., None]
    return np.multiply(c, v, out=gu), np.multiply(c, u, out=gv), coef


def rel_dist_triple_terms(rows, scale, out):
    """The partials of one triple's translation loss 2 |r|^2, times scale,
    for rows = (P_f, P_e, r_k) stacked, r = P_f - P_e - r_k: g = 4 * scale *
    r for P_f, and -g for P_e and r_k, written into out's rows like rows'.
    The factor 2 reflects the triple's appearance in both group sums
    (rel_dist_loss).  For a self-loop (e == f) the two entity partials
    cancel; the caller steps its entity with a zero partial."""
    g = np.subtract(rows[0], rows[1], out=out[0])
    g -= rows[2]
    g *= scale * 4.0
    np.negative(g, out=out[1])
    out[2] = out[1]
    return out
