"""Definition-literal reference implementations used as oracles.

Everything here is deliberately written as plain loops from the metric /
operator definitions, independent of the package's vectorized code paths.
"""

import json
import math
import struct
import sys
import warnings
import zlib
from dataclasses import fields

import numpy as np

from typespace.evalharness import C_GRID, ProblemFormatError
from typespace.ingest import (
    ENTITY_WORD,
    WORD_WORD,
    CooccurrenceTable,
    CorpusParseError,
    CorpusValidationError,
    Document,
    Mention,
    NoCommonTypeError,
    SubclassCycleError,
    TypeSystem,
    _read_tsv,
    numbered_lines,
)


# --- rank-based metrics ----------------------------------------------------


def ref_average_ranks(values):
    """1-based ranks, ties get the average of their positions; NaN values
    rank after every number, each alone, in index order."""
    values = list(values)
    order = sorted(range(len(values)), key=lambda i: (math.isnan(values[i]), 0.0 if math.isnan(values[i]) else values[i]))
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def ref_spearman(pred, truth):
    rp = ref_average_ranks(pred)
    rt = ref_average_ranks(truth)
    n = len(rp)
    mp = sum(rp) / n
    mt = sum(rt) / n
    num = sum((rp[i] - mp) * (rt[i] - mt) for i in range(n))
    vp = sum((rp[i] - mp) ** 2 for i in range(n))
    vt = sum((rt[i] - mt) ** 2 for i in range(n))
    if vp == 0.0 or vt == 0.0:
        return 0.0
    return num / math.sqrt(vp * vt)


def ref_precision_at_k(relevance, k):
    k = min(k, len(relevance))
    if k == 0:
        return 0.0
    return sum(1.0 for r in relevance[:k] if r) / k


def ref_average_precision(relevance):
    hits = 0
    total = 0.0
    for pos, r in enumerate(relevance, start=1):
        if r:
            hits += 1
            total += hits / pos
    if hits == 0:
        return 0.0
    return total / hits


def ref_reciprocal_rank(relevance):
    for pos, r in enumerate(relevance, start=1):
        if r:
            return 1.0 / pos
    return 0.0


def ref_mean_rank(ranks):
    return sum(ranks) / len(ranks)


def ref_hits_at_k(ranks, k=10):
    return sum(1.0 for r in ranks if r <= k) / len(ranks)


def ref_accuracy(predicted, actual):
    return sum(1.0 for p, a in zip(predicted, actual) if p == a) / len(actual)


def ref_rank_of_target(scores, target_index):
    """1-based rank under ascending score, ties broken by index."""
    rank = 1
    for i, s in enumerate(scores):
        if s < scores[target_index]:
            rank += 1
        elif s == scores[target_index] and i < target_index:
            rank += 1
    return rank


def ref_link_ranks(points, rel_vectors, triples):
    """Raw ranks of each (head, relation, tail) index triple, one query at a
    time: the tail among all entities as tail of (h, r, ?), then the head as
    head of (?, r, t), each query scoring every entity by np.linalg.norm."""
    ranks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for h, k, t in triples:
            tail_scores = np.linalg.norm(points - (points[h] + rel_vectors[k]), axis=1)
            head_scores = np.linalg.norm(points + rel_vectors[k] - points[t], axis=1)
            ranks.append((ref_rank_of_target(tail_scores.tolist(), t), ref_rank_of_target(head_scores.tolist(), h)))
    return ranks


def ref_fisher_mean(rhos):
    zs = [math.atanh(r) for r in rhos]
    return math.tanh(sum(zs) / len(zs))


# --- simplex / prox oracles -------------------------------------------------


def simplex_bisection_oracle(v, iters=200):
    """Projection onto the probability simplex via bisection on the KKT
    shift: x = max(v - theta, 0) with sum(x) = 1."""
    v = np.asarray(v, dtype=np.float64)
    lo, hi = float(v.min()) - 1.0, float(v.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def simplex_grid_search(v, steps=200):
    """Coarse grid search over the 2-simplex (3-D inputs only); returns the
    best grid point of the projection objective."""
    v = np.asarray(v, dtype=np.float64)
    assert v.size == 3
    best, best_val = None, math.inf
    for i in range(steps + 1):
        a = i / steps
        for j in range(steps + 1 - i):
            b = j / steps
            x = np.array([a, b, 1.0 - a - b])
            val = float(np.sum((x - v) ** 2))
            if val < best_val:
                best_val = val
                best = x
    return best, best_val


def ref_prox_nuclear(m, tau):
    """Singular-value thresholding by the full SVD: U max(S - tau, 0) V^T."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


def prox_objective(x, m, tau):
    return 0.5 * float(np.sum((x - m) ** 2)) + tau * float(np.sum(np.linalg.svd(x, compute_uv=False)))


def prox_subgradient_residual(x, m, tau, tol=1e-9):
    """Max violation of the optimality condition m - x in tau * d||x||_*:
    on x's singular support the residual must equal tau exactly, the cross
    blocks must vanish, and the orthogonal block's spectral norm must not
    exceed tau."""
    p = m - x
    u, s, vt = np.linalg.svd(x)
    r = int(np.sum(s > tol * max(float(s[0]), 1.0))) if s.size else 0
    u1, v1 = u[:, :r], vt[:r, :].T
    res = 0.0
    if r > 0:
        a = u1.T @ p @ v1
        res = max(res, float(np.max(np.abs(a - tau * np.eye(r)))))
        cross1 = u1.T @ p @ (np.eye(v1.shape[0]) - v1 @ v1.T)
        cross2 = (np.eye(u1.shape[0]) - u1 @ u1.T) @ p @ v1
        res = max(res, float(np.max(np.abs(cross1))), float(np.max(np.abs(cross2))))
    pp = (np.eye(u1.shape[0]) - u1 @ u1.T) @ p @ (np.eye(v1.shape[0]) - v1 @ v1.T)
    spec = np.linalg.svd(pp, compute_uv=False)
    if spec.size:
        res = max(res, max(0.0, float(spec[0]) - tau))
    return res


def best_simplex_fit_residual(point, anchors, steps=1000):
    """Grid search over simplex coefficients (3 anchors only): the minimal
    squared residual ||point - sum(lam_j anchor_j)||^2 at resolution
    1/steps."""
    best = math.inf
    point = np.asarray(point, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    assert anchors.shape[0] == 3
    for i in range(steps + 1):
        a = i / steps
        rest = steps - i
        combos = np.arange(rest + 1) / steps
        lam = np.column_stack([np.full(rest + 1, a), combos, 1.0 - a - combos])
        resid = point[None, :] - lam @ anchors
        val = float(np.min(np.sum(resid * resid, axis=1)))
        if val < best:
            best = val
    return best


# --- gradient checking -------------------------------------------------------


def collect_param_arrays(params):
    """Named references to every trainable array, in a fixed order.  A
    block's arrays are its views into its store's stacked arrays, one
    entry per block, so that StepRecorder tells the blocks apart."""
    arrs = [
        ("entity", params.model.entity_points),
        ("word", params.model.word_vecs),
        ("ctx", params.model.ctx_vecs),
        ("word_bias", params.model.word_bias),
        ("ctx_bias", params.model.ctx_bias),
        ("entity_bias", params.model.entity_bias),
        ("rel", params.rels.vectors),
    ]
    for t in sorted(params.types.per_type):
        tp = params.types[t]
        arrs.append((("anchors", t), tp.anchors))
        arrs.append((("lambda", t), tp.coeffs))
    for side, groups in (("rhs", params.rels.rhs_groups), ("lhs", params.rels.lhs_groups)):
        for key in sorted(groups):
            arrs.append((("q", side, key), groups[key].anchors))
            arrs.append((("mu", side, key), groups[key].coeffs))
    return arrs


def block_loss(resid):
    """A subspace block's loss from its residual rows (block_resid): the sum
    of their squares."""
    return float(np.sum(resid * resid))


class StepRecorder:
    """A stand-in for optimize.adagrad_step that moves nothing, so every
    gradient of a pass is taken at the same parameters.

    Each gradient is added into a zero array shaped like the parameter array
    the step would have moved (grads, keyed like collect_param_arrays, holds
    the stepped arrays only).  steps lists (targets, gradient) per call in
    call order, targets holding (key, row) per parameter array row stepped.
    A step on given rows of the trainer's row buffer is mapped back row by
    row to the arrays that view the buffer, by address: a buffer row holds a
    vector (columns :n) and, on a text step, its bias (column n), and each
    takes its columns of the gradient row.  A step on given blocks of a
    stacked anchor store (a gradient block per index) is mapped back block
    by block to the block's own anchor array, one target (key, None) each.
    A whole-array step is one target (key, None), its array found by memory
    overlap.
    """

    def __init__(self, params):
        self.arrays = [(str(name), arr) for name, arr in collect_param_arrays(params)]
        self.grads = {}
        self.steps = []

    def _owners(self, address, width):
        """(column, key, array, row) of each parameter array row that lies
        within the stepped row of width values at address, in column order,
        column being where it starts in the gradient row."""
        owners = []
        for key, arr in self.arrays:
            row = -((arr.ctypes.data - address) // arr.strides[0])  # the first row at or past address
            column, rest = divmod(arr.ctypes.data + row * arr.strides[0] - address, arr.itemsize)
            if 0 <= row < len(arr) and not rest and 0 <= column <= width - arr[0].size:
                owners.append((column, key, arr, row))
        assert sum(arr[0].size for _, _, arr, _ in owners) == width, "a stepped row that no parameter array holds"
        return sorted(owners, key=lambda owner: owner[0])

    def __call__(self, values, grad, state, lr, name="param", rows=None, gathered=None):
        g = np.array(grad, dtype=np.float64)
        if rows is None:
            key, arr = next((key, arr) for key, arr in self.arrays if np.shares_memory(values, arr))
            assert values.shape == arr.shape
            self.grads.setdefault(key, np.zeros_like(arr))[...] += g
            self.steps.append(([(key, None)], g))
            return
        assert len(set(int(r) for r in rows)) == len(rows) == len(g)
        targets = []
        for r, gr in zip(rows, g):
            address = values.ctypes.data + int(r) * values.strides[0]
            if gr.ndim > 1:  # a block of a stacked store
                key, arr = next((key, arr) for key, arr in self.arrays
                                if arr.ctypes.data == address and arr.shape == gr.shape)
                self.grads.setdefault(key, np.zeros_like(arr))[...] += gr
                targets.append((key, None))
                continue
            for column, key, arr, row in self._owners(address, len(gr)):
                part = gr[column : column + arr[0].size].reshape(arr.shape[1:])
                self.grads.setdefault(key, np.zeros_like(arr))[row] += part
                targets.append((key, int(row)))
        self.steps.append((targets, g))


def finite_difference_check(loss_fn, params, analytic, h=1e-5):
    """Worst relative error between central finite differences of loss_fn
    and the analytic gradient arrays, over every entry of each array that
    analytic names (keyed like collect_param_arrays).

    Near-zero partials (both sides below 1e-7) are compared absolutely.
    """
    worst = 0.0
    for name, arr in collect_param_arrays(params):
        an = analytic.get(str(name))
        if an is None:
            continue
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss_fn()
            arr[idx] = orig - h
            dn = loss_fn()
            arr[idx] = orig
            fd = (up - dn) / (2.0 * h)
            a = an[idx]
            scale = max(abs(fd), abs(a))
            err = abs(fd - a) if scale < 1e-7 else abs(fd - a) / scale
            worst = max(worst, err)
    return worst


# --- sequential text pass ------------------------------------------------------

# Tag -> model attributes of the row vectors, column vectors, row biases and
# column biases a text entry writes: tag 0 is a word-word entry, tag 1 an
# entity-word entry.
_TEXT_ROLES = (
    ("word_vecs", "ctx_vecs", "word_bias", "ctx_bias"),
    ("entity_points", "word_vecs", "entity_bias", "word_bias"),
)


def ref_text_pass(entries, order, model, accs, lr, alpha, eps=1e-8):
    """One entry at a time, in order: the gradient of
    alpha * f * (u.v + b_u + b_v - log x)**2 at the current rows, then an
    AdaGrad step on each of the four rows.  entries is (tags, rows, cols,
    fvals, logs), rows and cols indexing the model's arrays, and accs maps
    each array's attribute to its accumulators.  The dot product is the
    one-row einsum, whose bits the trainer's batched dot reproduces."""
    tags, rows, cols, fvals, logs = entries
    for idx in order:
        (u, su), (v, sv), (bu, sbu), (bv, sbv) = ((getattr(model, attr), accs[attr]) for attr in _TEXT_ROLES[tags[idx]])
        i, j = rows[idx], cols[idx]
        resid = np.einsum("i,i->", u[i], v[j]) + bu[i] + bv[j] - logs[idx]
        coef = alpha * 2.0 * fvals[idx] * resid
        steps = ((u, su, i, coef * v[j]), (v, sv, j, coef * u[i]), (bu, sbu, i, coef), (bv, sbv, j, coef))
        for values, accum, r, g in steps:
            accum[r] = accum[r] + g * g
            values[r] = values[r] - lr * g / np.sqrt(accum[r] + eps)


# --- per-block fits and centroids ---------------------------------------------


def _ref_block_points(store, entity_points, vectors):
    """(block, points) per block in key order: a type's member points, or a
    group's member points then its endpoint moved by +r_k (tail group
    (e, k)) or -r_k (head group (k, f))."""
    for key, block in store.items():
        points = entity_points[block.members]
        if store.kind != "type":
            entity, k, sign = (key[0], key[1], 1.0) if store.kind == "rhs" else (key[1], key[0], -1.0)
            points = np.vstack([points, entity_points[entity] + sign * vectors[k]])
        yield block, points


def ref_block_losses(store, entity_points, vectors=None):
    """Each block's sum of squared fit residuals, block by block."""
    out = []
    for block, points in _ref_block_points(store, entity_points, vectors):
        resid = points - block.coeffs @ block.anchors
        out.append(float(np.sum(resid * resid)))
    return out


def ref_type_loss(types, model):
    """type_loss as a loop over the types in key order."""
    total = 0.0
    for loss in ref_block_losses(types.per_type, model.entity_points):
        total += loss
    return total


def ref_rel_dim_loss(model, rels):
    """rel_dim_loss as one running sum over the tail groups, then the head
    groups, each side in key order."""
    total = 0.0
    for groups in (rels.rhs_groups, rels.lhs_groups):
        for loss in ref_block_losses(groups, model.entity_points, rels.vectors):
            total += loss
    return total


def ref_block_centroids(store, entity_points, vectors):
    """Each block's init centroid, one mean(axis=0) per block."""
    return [points.mean(axis=0) for _, points in _ref_block_points(store, entity_points, vectors)]


# --- step kernels ----------------------------------------------------------------


def ref_adagrad_step(values, grad, state, lr, name="param", rows=None):
    """optimize.adagrad_step as it was before its finiteness test read the
    gradient's sum of squares: the exact isfinite test up front, then one
    indexed update for whole arrays and rows alike."""
    g = np.asarray(grad, dtype=np.float64)
    finite = np.isfinite(g)
    if not finite.all():
        if rows is not None:
            name = f"{name}[{rows[int(np.argmin(finite.reshape(len(g), -1).all(axis=1)))]}]"
        raise FloatingPointError(f"non-finite gradient for {name}")
    idx = ... if rows is None else rows
    acc = state[idx] + g * g
    state[idx] = acc
    values[idx] -= lr * g / np.sqrt(acc + 1e-8)


# --- sequential relation-group pass ------------------------------------------


def ref_simplex_rows(v):
    """Sort-based Euclidean projection of each row onto the simplex."""
    u = np.flip(np.sort(v, axis=-1), axis=-1)
    css = np.cumsum(u, axis=-1) - 1.0
    cond = u - css / np.arange(1, v.shape[-1] + 1) > 0
    rho = v.shape[-1] - np.argmax(np.flip(cond, axis=-1), axis=-1)
    theta = np.take_along_axis(css, rho[..., None] - 1, axis=-1) / rho[..., None]
    return np.maximum(v - theta, 0.0)


def _ref_adagrad(values, idx, g, state, lr, eps=1e-8):
    acc = state[idx] + g * g
    state[idx] = acc
    values[idx] = values[idx] - lr * g / np.sqrt(acc + eps)


def ref_rel_dist_pass(model, rels, entity_acc, rel_acc, triples, hp, rng):
    """One triple at a time, in rng's shuffle: g = (1 - alpha) * 4 * r, r =
    P_f - P_e - r_k, then an AdaGrad step on P_f with g, on P_e with -g
    and on r_k with -g; a self-loop steps its entity with a zero gradient
    instead of the two that cancel."""
    lr, scale = hp.learn_rate, 1.0 - hp.alpha_mix
    points = model.entity_points
    for idx in rng.permutation(len(triples)):
        e, k, f = triples[idx]
        g = scale * 4.0 * (points[f] - points[e] - rels.vectors[k])
        if e != f:
            _ref_adagrad(points, f, g, entity_acc, lr)
        _ref_adagrad(points, e, -g if e != f else np.zeros_like(g), entity_acc, lr)
        _ref_adagrad(rels.vectors, k, -g, rel_acc, lr)


def ref_level_batches(writes, keys=None):
    """The batches of items that write the given row collections, in
    order, by the definition of the exact level schedule: an item's level
    is one more than the highest level of any earlier item sharing a row
    with it, else 1; items are ordered stably by (level, key) and a batch is
    a run of equal (level, key).  Returns lists of item positions."""
    writes = [set(rows) for rows in writes]
    levels = []
    for p, rows in enumerate(writes):
        levels.append(1 + max((levels[q] for q in range(p) if writes[q] & rows), default=0))
    keys = [()] * len(writes) if keys is None else [tuple(key) for key in keys]
    batches = []
    for p in sorted(range(len(writes)), key=lambda p: (levels[p], keys[p])):
        if batches and (levels[batches[-1][0]], keys[batches[-1][0]]) == (levels[p], keys[p]):
            batches[-1].append(p)
        else:
            batches.append([p])
    return batches


def ref_group_plan(members, side, key, rel_start):
    """One relation group's plan after its coefficients, their
    accumulators, its anchors and its name (optimize._block_plans), built on
    its own: its sign, its point rows (members, then the endpoint), its
    row-buffer step rows (the distinct entities, then rel_start + k), the
    residual row of each step row's partial and the endpoint's member
    position, None when it is no member."""
    entity, k, sign = (key[0], key[1], 1.0) if side == "rhs" else (key[1], key[0], -1.0)
    rows = np.concatenate((members, [entity]))
    listed = members.tolist()
    m = len(listed)
    if entity in listed:
        return sign, rows, np.append(members, rel_start + k), np.arange(m + 1), listed.index(entity)
    return sign, rows, np.append(rows, rel_start + k), np.append(np.arange(m + 1), m), None


def ref_comb_partials(anchors, tiny=1e-12):
    """The anchor partials of the anchor-cohesion penalty of one block, as
    objective.comb_penalty_terms took them before it took stacks: each
    anchor's unit offset from the centroid (zero within tiny of it), minus
    the mean of those units."""
    centered = anchors - anchors.mean(axis=0)
    norms = np.linalg.norm(centered, axis=1)
    safe = np.where(norms > tiny, norms, 1.0)
    units = np.where((norms > tiny)[:, None], centered / safe[:, None], 0.0)
    return units - units.mean(axis=0)


def ref_type_pass(params, accs, hp, prox, comb, prox_nuclear):
    """One type at a time in id order, the entity points fixed: a projected
    AdaGrad step on its coefficients, an AdaGrad step on its anchors (plus
    ref_comb_partials with comb), then with prox the thresholding of the
    anchor span by prox_nuclear at beta * lr / sqrt(mean G + eps).  accs is
    the types' accumulator store.  Returns the nuclear norms summed in type
    order (0.0 without prox)."""
    m, types = params.model, params.types
    lr = hp.learn_rate
    scale = 1.0 - hp.alpha_mix
    reg = 0.0
    for t in sorted(types.per_type):
        tp, acc = types[t], accs[t]
        points = m.entity_points[tp.members]
        resid = points - tp.coeffs @ tp.anchors
        _ref_adagrad(tp.coeffs, ..., scale * (-2.0 * resid @ tp.anchors.T), acc.coeffs, lr)
        tp.coeffs[:] = ref_simplex_rows(tp.coeffs)
        resid = points - tp.coeffs @ tp.anchors
        grad = -2.0 * tp.coeffs.T @ resid
        if comb:
            grad = grad + ref_comb_partials(tp.anchors)
        _ref_adagrad(tp.anchors, ..., scale * grad, acc.anchors, lr)
        if prox:
            tau = hp.beta_reg * lr / math.sqrt(float(np.mean(acc.anchors)) + 1e-8)
            span, norm = prox_nuclear(tp.anchors[1:] - tp.anchors[0], tau)
            tp.anchors[1:] = tp.anchors[0] + span
            reg += norm
    return reg


def ref_rel_dim_pass(params, accs, hp, prox, prox_nuclear):
    """One group at a time, tail groups then head groups in key order: the
    group's points (members, then the endpoint moved by +r_k for a tail
    group (e, k) or -r_k for a head group (k, f)), a projected AdaGrad step
    on its coefficients, an AdaGrad step on its anchors, with prox set the
    thresholding of the anchor span by prox_nuclear at
    beta * lr / sqrt(mean G + eps), then AdaGrad steps on the entities (the
    endpoint's partial added to its member row when it is a member) and on
    the relation vector.  accs is (entity accumulators, relation
    accumulators, tail-group store, head-group store).  Returns the nuclear
    norms summed in pass order (0.0 without prox)."""
    m, rels = params.model, params.rels
    entity_acc, rel_acc, *group_accs = accs
    lr = hp.learn_rate
    scale = 1.0 - hp.alpha_mix
    reg = 0.0
    for side, groups, side_accs in zip(("rhs", "lhs"), (rels.rhs_groups, rels.lhs_groups), group_accs):
        for key in sorted(groups):
            gp = groups[key]
            acc = side_accs[key]
            acc_anchors, acc_coeffs = acc.anchors, acc.coeffs
            entity, k = key if side == "rhs" else (key[1], key[0])
            sign = 1.0 if side == "rhs" else -1.0
            points = np.vstack([m.entity_points[gp.members], m.entity_points[entity] + sign * rels.vectors[k]])
            resid = points - gp.coeffs @ gp.anchors
            _ref_adagrad(gp.coeffs, ..., scale * (-2.0 * resid @ gp.anchors.T), acc_coeffs, lr)
            gp.coeffs[:] = ref_simplex_rows(gp.coeffs)
            resid = points - gp.coeffs @ gp.anchors
            _ref_adagrad(gp.anchors, ..., scale * (-2.0 * gp.coeffs.T @ resid), acc_anchors, lr)
            if prox:
                tau = hp.beta_reg * lr / math.sqrt(float(np.mean(acc_anchors)) + 1e-8)
                span, norm = prox_nuclear(gp.anchors[1:] - gp.anchors[0], tau)
                gp.anchors[1:] = gp.anchors[0] + span
                reg += norm
            point_grads = 2.0 * resid
            grads = dict(zip(gp.members.tolist(), point_grads[:-1]))
            grads[entity] = grads[entity] + point_grads[-1] if entity in grads else point_grads[-1]
            _ref_adagrad(m.entity_points, list(grads), scale * np.array(list(grads.values())), entity_acc, lr)
            _ref_adagrad(rels.vectors, k, scale * (sign * point_grads[-1]), rel_acc, lr)
    return reg


# --- per-candidate evaluation loops ------------------------------------------


def ref_hinge_direction(diffs, c, iters=400):
    """Minimize sum(max(0, 1 - D w)) + (1/c) ||w||^2 for one c of C_GRID by
    AdaGrad subgradient descent with iterate averaging.

    Each step rounds as evalharness._hinge_directions rounds it, which BLAS
    does not promise for other shapes: the margins are row k (the index of
    c) of one (C x n)(n x P) product whose other rows are zero, and the
    violated-pair sums column k of one (n x P)(P x C) product whose other
    columns are zero, each operand laid out as the solve lays it out (D^T a
    transposed view of D, the flags a transposed view of a (C, P) array)."""
    p, n = diffs.shape
    k = C_GRID.index(c)
    d_t = np.swapaxes(np.ascontiguousarray(diffs), 0, 1)
    w = np.zeros(n)
    accum = np.zeros(n)
    avg = np.zeros(n)
    lr = 0.5
    half = iters // 2
    for t in range(iters):
        rows = np.zeros((len(C_GRID), n))
        rows[k] = w
        margins = (rows @ d_t)[k]
        flags = np.zeros((len(C_GRID), p))
        flags[k] = margins < 1.0
        g = -(d_t @ flags.T)[:, k] + (2.0 / c) * w
        accum += g * g
        w = w - lr * g / np.sqrt(accum + 1e-8)
        if t >= half:
            avg += w
    return avg / max(iters - half, 1)


def ref_analogy_answer(points, pool, query, target):
    """The pool entity of highest cosine to target, skipping the query
    entities: a zero norm scores -1, only a strictly higher score replaces
    the best so far (so the first maximum wins and NaN never does), and
    None when nothing beats -inf.  Each cosine is rounded as
    evalharness._best_cosine rounds it: the dot product and the candidate's
    squared norm summed by np.add.reduce, the target's norm by
    np.linalg.norm.  A near-copy of the target can score within an ulp of
    an exact copy, so another summation order can pick another answer."""
    best = None
    best_sim = -math.inf
    nb = float(np.linalg.norm(target))
    for cand in pool:
        if cand in query:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            na = float(np.sqrt(np.add.reduce(points[cand] * points[cand])))
            dot = float(np.add.reduce(points[cand] * target))
        sim = -1.0 if na == 0.0 or nb == 0.0 else dot / (na * nb)
        if sim > best_sim:
            best_sim = sim
            best = cand
    return best


def ref_induction_relevance(candidates, dists, test_set):
    """Relevance flags of the candidates sorted by (distance, entity index)."""
    order = sorted(range(len(candidates)), key=lambda i: (dists[i], candidates[i]))
    return [candidates[i] in test_set for i in order]


def ref_most_specific_common_type(entities, ts):
    """ingest.most_specific_common_type by brute force: every type whose
    instance tuple holds every entity, those of them no other containing
    type lies below, and the first of these by (instance count, id)."""
    wanted = set(entities)
    if not wanted:
        raise ValueError("entity set is empty")
    containing = [s for s in ts.type_ids if all(e in ts.instances[s] for e in wanted)]
    if not containing:
        raise NoCommonTypeError(f"no type contains all of {sorted(wanted)}")
    best = None
    for s in containing:
        if any(t != s and s in ts.ancestors[t] for t in containing):
            continue
        if best is None or (len(ts.instances[s]), s) < (len(ts.instances[best]), best):
            best = s
    return best


def ref_eval_induction(problems, view, ts):
    """evalharness.eval_induction one problem and one candidate at a time.
    Each distance is the program's norm call on a one-row array, so it
    rounds as the program's does; means are np.mean of the per-item values,
    as the program takes them."""
    if not problems:
        raise ProblemFormatError("no induction problem to score")
    per_problem = []
    skipped = 0
    for prob in problems:
        name = f"induction problem ({prob.relation!r}, {prob.target!r})"
        train = [view.index[e] for e in prob.train if e in view.index]
        if not train:
            raise ProblemFormatError(f"{name}: the model holds none of its {len(prob.train)} training positives")
        valid = [view.index[e] for e in prob.valid if e in view.index]
        test = [view.index[e] for e in prob.test if e in view.index]
        positives = len(prob.train) + len(prob.valid) + len(prob.test)
        if len(train) + len(valid) + len(test) < positives:
            skipped += positives - len(train) - len(valid) - len(test)
            warnings.warn(f"{name}: unresolved positives dropped")
        type_id = ref_most_specific_common_type(train + valid + test, ts)
        candidates = [i for i in ts.instances[type_id] if i not in train and i not in valid]
        center = view.points[train].mean(axis=0)
        dists = [float(np.linalg.norm((view.points[i] - center)[None, :], axis=1)[0]) for i in candidates]
        relevance = ref_induction_relevance(candidates, dists, set(test))
        precisions = ref_precisions_at_hits(relevance)
        per_problem.append({
            "relation": prob.relation,
            "target": prob.target,
            "type": type_id,
            "ap": float(np.mean(precisions)) if precisions else 0.0,
            "p_at_5": ref_precision_at_k(relevance, 5),
            "rr": ref_reciprocal_rank(relevance),
            "n_candidates": len(candidates),
        })
    return {
        "task": "induction",
        "per_problem": per_problem,
        "map": float(np.mean([r["ap"] for r in per_problem])),
        "p_at_5": float(np.mean([r["p_at_5"] for r in per_problem])),
        "mrr": float(np.mean([r["rr"] for r in per_problem])),
        "skipped": skipped,
    }


def ref_precisions_at_hits(relevance):
    """hits/position at each relevant position, in order."""
    hits = 0
    out = []
    for pos, r in enumerate(relevance, start=1):
        if r:
            hits += 1
            out.append(hits / pos)
    return out


def ref_best_threshold(scores, labels):
    """Every midpoint between consecutive distinct sorted scores scored by
    the accuracy of "positive iff score > threshold"; the first best wins,
    and with no distinct pair the single score is returned."""
    order = np.argsort(scores, kind="mergesort")
    s = np.asarray(scores, dtype=np.float64)[order]
    y = np.asarray(labels, dtype=bool)[order]
    candidates = [0.5 * (a + b) for a, b in zip(s.tolist(), s[1:].tolist()) if a != b]
    if not candidates:
        return float(s[0])
    best_delta = candidates[0]
    best_acc = -1.0
    for delta in candidates:
        acc = float(np.mean((s > delta) == y))
        if acc > best_acc:
            best_acc = acc
            best_delta = delta
    return best_delta


def ref_triple_score(view, h, r, t):
    """evalharness._triple_scores for one (head, relation, tail) index row:
    its own norm call."""
    return -float(np.linalg.norm(view.points[t] - view.points[h] - view.rel_vectors[r]))


def ref_triple_classification(valid_rows, test_rows, view):
    """evalharness.eval_triple_classification row by row, its thresholds
    keyed by relation id string.  Returns its result dict and the warning
    messages in order, or None when no test row resolves.  Each score takes
    the program's norm call on a one-row array, so it rounds as the
    program's does."""

    def resolve(rows):
        known = view.index, view.rel_index, view.index
        return [(h, r, t, bool(y)) for h, r, t, y in rows if all(x in ids for x, ids in zip((h, r, t), known))]

    def score(h, r, t):
        d = view.points[view.index[t]] - view.points[view.index[h]] - view.rel_vectors[view.rel_index[r]]
        return -float(np.linalg.norm(d[None, :], axis=1)[0])

    valid, test = resolve(valid_rows), resolve(test_rows)
    if not test:
        return None
    skipped = len(valid_rows) - len(valid) + len(test_rows) - len(test)
    messages = [f"triple classification skipped {skipped} unresolvable rows"] if skipped else []
    by_relation = {}
    for h, r, t, y in valid:
        by_relation.setdefault(r, []).append((score(h, r, t), y))
    thresholds = {r: ref_best_threshold(*zip(*rows)) for r, rows in by_relation.items()}
    global_delta = ref_best_threshold([score(h, r, t) for h, r, t, _ in valid], [y for *_, y in valid]) if valid else 0.0
    for r in dict.fromkeys(r for _, r, _, _ in test):
        if r not in thresholds:
            messages.append(f"relation {r!r} absent from validation; using the global threshold")
    correct = sum((score(h, r, t) > thresholds.get(r, global_delta)) == y for h, r, t, y in test)
    result = {"task": "triple_classification", "accuracy": correct / len(test), "n_test": len(test),
              "thresholds": thresholds, "skipped": skipped}
    return result, messages


# --- recursive type-hierarchy closure ------------------------------------------


def _ref_find_cycle(nodes, parents_of):
    """Return one cycle in the child->parent graph, or None (recursive DFS)."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in nodes}
    stack_path = []

    def visit(v):
        color[v] = GREY
        stack_path.append(v)
        for p in parents_of.get(v, ()):
            if color[p] == GREY:
                i = stack_path.index(p)
                return stack_path[i:] + [p]
            if color[p] == WHITE:
                found = visit(p)
                if found:
                    return found
        stack_path.pop()
        color[v] = BLACK
        return None

    for v in sorted(nodes):
        if color[v] == WHITE:
            found = visit(v)
            if found:
                return found
    return None


def ref_load_type_system(instances_path, subclass_path, catalog):
    """ingest.load_type_system by a recursive cycle search and a recursive,
    memoised ancestor closure; it fails on hierarchies deeper than Python's
    recursion limit."""
    instance_rows = _read_tsv(instances_path, 2)
    edge_rows = _read_tsv(subclass_path, 2)

    parents_of = {}
    all_types = set()
    for child, parent in edge_rows:
        all_types.update((child, parent))
        lst = parents_of.setdefault(child, [])
        if parent not in lst:
            lst.append(parent)

    cycle = _ref_find_cycle(all_types, parents_of)
    if cycle:
        raise SubclassCycleError("subclass cycle: " + " -> ".join(cycle))

    asserted = {}
    dropped = 0
    for entity_id, type_id in instance_rows:
        all_types.add(type_id)
        e = catalog.index.get(entity_id)
        if e is None:
            dropped += 1
            continue
        asserted.setdefault(type_id, set()).add(e)
    if dropped:
        warnings.warn(f"{dropped} instance assertion(s) referenced entities outside the catalog")

    anc_cache = {}

    def ancestors(t):
        got = anc_cache.get(t)
        if got is None:
            acc = {t}
            for p in parents_of.get(t, ()):
                acc.update(ancestors(p))
            got = frozenset(acc)
            anc_cache[t] = got
        return got

    closed = {t: set() for t in all_types}
    for t, members in asserted.items():
        for s in ancestors(t):
            closed[s].update(members)

    kept = tuple(sorted(t for t in all_types if closed[t]))
    kept_set = set(kept)
    return TypeSystem(
        type_ids=kept,
        instances={t: tuple(sorted(closed[t])) for t in kept},
        ancestors={t: frozenset(ancestors(t) & kept_set) for t in kept},
    )


def ref_read_tsv(path, n_fields):
    """ingest._read_tsv character by character: blank lines and lines whose
    first non-blank character is # are skipped; every other line, stripped
    of surrounding whitespace, is cut at each tab into exactly n_fields
    fields, none of them empty."""
    rows = []
    for lineno, line in numbered_lines(path):
        text = line.strip()
        if text == "" or text[0] == "#":
            continue
        fields = [""]
        for ch in text:
            if ch == "\t":
                fields.append("")
            else:
                fields[-1] += ch
        if len(fields) != n_fields:
            raise CorpusParseError(f"{path}: expected {n_fields} tab-separated fields on line {lineno}")
        for value in fields:
            if value == "":
                raise CorpusParseError(f"{path}: empty field on line {lineno}")
        rows.append(tuple(fields))
    return rows


# --- corpus loading ------------------------------------------------------------


def _ref_record(rec):
    """(doc_id, sentences, mentions, article_of) of one decoded corpus
    record; a malformed record raises the error of the first failing step:
    reading doc_id, the sentences and their tokens, each mention's fields,
    and article_of, then checking the types of doc_id, of each mention's
    fields and of article_of."""
    doc_id = rec["doc_id"]
    raw_sentences = rec["sentences"]
    if not isinstance(raw_sentences, list) or not all(isinstance(sent, list) for sent in raw_sentences):
        raise TypeError("sentences is not a list of token lists")
    sentences = []
    for sent in raw_sentences:
        tokens = []
        for token in sent:
            if not isinstance(token, str):
                raise TypeError(f"token {token!r} is not a string")
            tokens.append(sys.intern(token.lower()))
        sentences.append(tuple(tokens))
    raw_mentions = rec.get("mentions", [])
    if not isinstance(raw_mentions, list):
        raise TypeError("mentions is not a list")
    fields = []
    for m in raw_mentions:
        entity = m["entity"]
        sentence = m["sentence"]
        span = m["span"]
        fields.append((entity, sentence, span))
    article_of = rec.get("article_of")

    def is_int(x):
        return isinstance(x, int) and not isinstance(x, bool)

    if not isinstance(doc_id, str):
        raise TypeError("doc_id is not a string")
    for k, (entity, sentence, span) in enumerate(fields):
        if not isinstance(entity, str):
            raise TypeError(f"entity of mention {k} is not a string")
        if not is_int(sentence):
            raise TypeError(f"sentence of mention {k} is not an integer")
        if not (isinstance(span, list) and len(span) == 2 and is_int(span[0]) and is_int(span[1])):
            raise TypeError(f"span of mention {k} is not a list of two integers")
    if not (article_of is None or isinstance(article_of, str)):
        raise TypeError("article_of is neither a string nor null")
    mentions = tuple(Mention(entity, sentence, (span[0], span[1])) for entity, sentence, span in fields)
    return doc_id, tuple(sentences), mentions, article_of


def _ref_check_mentions(doc_id, sentences, mentions, lineno):
    """Every mention inside a sentence, then no two spans of one sentence
    overlapping: the first pair of neighbours in start order, sentences in
    the order of their first mention."""
    where = f"document {doc_id!r} (line {lineno})"
    for m in mentions:
        if m.sentence < 0 or m.sentence >= len(sentences):
            raise CorpusValidationError(f"{where}: mention of {m.entity!r} addresses missing sentence {m.sentence}")
        start, end = m.span
        length = len(sentences[m.sentence])
        if not (0 <= start and start < end and end <= length):
            raise CorpusValidationError(
                f"{where}: mention span {m.span} of {m.entity!r} outside sentence of length {length}"
            )
    order = []
    for m in mentions:
        if m.sentence not in order:
            order.append(m.sentence)
    for sent in order:
        spans = sorted(m.span for m in mentions if m.sentence == sent)
        for a in range(len(spans) - 1):
            if spans[a + 1][0] < spans[a][1]:
                raise CorpusValidationError(
                    f"{where}: overlapping mention spans {spans[a]} and {spans[a + 1]} in sentence {sent}"
                )


def ref_load_corpus(path):
    """ingest.load_corpus as one loop over the lines: json.loads, the record's
    fields read and type-checked one by one, a doc_id seen on no earlier
    line, then the mention checks."""
    docs, seen_lines = [], []
    for lineno, line in numbered_lines(path):
        if not line.strip():
            continue
        try:
            doc_id, sentences, mentions, article_of = _ref_record(json.loads(line))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise CorpusParseError(f"{path}: malformed corpus record on line {lineno}: {exc}") from exc
        for earlier, doc in zip(seen_lines, docs):
            if doc.doc_id == doc_id:
                raise CorpusParseError(
                    f"{path}: doc_id {doc_id!r} on line {lineno} repeats the doc_id of line {earlier}"
                )
        seen_lines.append(lineno)
        _ref_check_mentions(doc_id, sentences, mentions, lineno)
        docs.append(Document(doc_id, sentences, mentions, article_of))
    return docs


# --- co-occurrence counting loops ------------------------------------------------


def ref_count_word_word(docs, vocab, window=10):
    """ingest.count_word_word as one loop over sentence positions: each
    entry's float sum is taken in corpus order."""
    if window < 1:
        raise ValueError("window must be >= 1")
    idx = vocab.index
    acc: dict[tuple[int, int], float] = {}
    for doc in docs:
        for sent in doc.sentences:
            positions = [(p, idx[t]) for p, t in enumerate(sent) if t in idx]
            for a in range(len(positions)):
                p, i = positions[a]
                for b in range(a + 1, len(positions)):
                    q, j = positions[b]
                    d = q - p
                    if d > window:
                        break
                    w = 1.0 / d
                    acc[(i, j)] = acc.get((i, j), 0.0) + w
                    acc[(j, i)] = acc.get((j, i), 0.0) + w
    return CooccurrenceTable.from_dict(WORD_WORD, acc)


def ref_count_entity_word(docs, vocab, catalog, window=10):
    """ingest.count_entity_word as loops over mentions and article tokens."""
    if window < 1:
        raise ValueError("window must be >= 1")
    widx = vocab.index
    eidx = catalog.index
    acc: dict[tuple[int, int], float] = {}
    for doc in docs:
        for m in doc.mentions:
            e = eidx.get(m.entity)
            if e is None:
                continue
            start, end = m.span
            tokens = doc.sentences[m.sentence]
            lo = max(0, start - window)
            hi = min(len(tokens), end + window)
            for q in range(lo, hi):
                if start <= q < end:
                    continue
                j = widx.get(tokens[q])
                if j is not None:
                    acc[(e, j)] = acc.get((e, j), 0.0) + 1.0
        if doc.article_of is not None:
            e = eidx.get(doc.article_of)
            if e is not None:
                for sent in doc.sentences:
                    for tok in sent:
                        j = widx.get(tok)
                        if j is not None:
                            acc[(e, j)] = acc.get((e, j), 0.0) + 1.0
    return CooccurrenceTable.from_dict(ENTITY_WORD, acc)


# --- joined model-file writer ------------------------------------------------------


def ref_save_model_joined(path, model, types, rels, hp, entity_ids, word_ids, relation_ids):
    """The model file (format version 3) built as one joined byte string and
    written with the CRC32 of all of it: the magic, the version and header
    length as little-endian u64s, the compact JSON header, then the arrays'
    bytes in file order."""
    arrays = [model.entity_points, model.word_vecs, model.ctx_vecs, model.word_bias, model.ctx_bias,
              model.entity_bias, rels.vectors]
    for store in (types.per_type, rels.rhs_groups, rels.lhs_groups):
        if store.kind != "type":
            arrays.append(np.array(store.key_table, dtype=np.int64).reshape(-1, 2))
        arrays += [store.anchors, store.counts, store.members, store.coeffs]
    arrays = [np.ascontiguousarray(a, "<i8" if a.dtype.kind == "i" else "<f8") for a in arrays]
    header = json.dumps(
        {
            # Each hyperparameter as the type of its default.
            "hp": {f.name: type(f.default)(getattr(hp, f.name)) for f in fields(hp)},
            "entity_ids": list(entity_ids),
            "word_ids": list(word_ids),
            "relation_ids": list(relation_ids),
            "type_ids": list(types.per_type.key_table),
            "shapes": [a.shape for a in arrays],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    payload = b"".join([b"TYSPACE1", struct.pack("<QQ", 3, len(header)), header, *(a.tobytes() for a in arrays)])
    with open(path, "wb") as fh:
        fh.write(payload + struct.pack("<I", zlib.crc32(payload)))
