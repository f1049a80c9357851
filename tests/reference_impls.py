"""Definition-literal reference implementations used as oracles.

Everything here is deliberately written as plain loops from the metric /
operator definitions, independent of the package's vectorized code paths.
"""

import math

import numpy as np


# --- rank-based metrics ----------------------------------------------------


def ref_average_ranks(values):
    """1-based ranks, ties get the average of their positions."""
    values = list(values)
    order = sorted(range(len(values)), key=lambda i: values[i])
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
    """Named references to every trainable array, in a fixed order."""
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


def gradient_dict_to_arrays(grads, params):
    """Scatter a sparse gradient dict into dense arrays keyed like
    collect_param_arrays."""
    out = {str(name): np.zeros_like(arr) for name, arr in collect_param_arrays(params)}

    for addr, val in grads.items():
        kind = addr[0]
        if kind in ("entity", "word", "ctx", "word_bias", "ctx_bias", "entity_bias", "rel"):
            out[kind][addr[1]] += val
        elif kind == "anchors":
            out[str(("anchors", addr[1]))] += val
        elif kind == "lambda":
            out[str(("lambda", addr[1]))][addr[2]] += val
        elif kind == "q":
            out[str(("q", addr[1], addr[2]))] += val
        elif kind == "mu":
            out[str(("mu", addr[1], addr[2]))][addr[3]] += val
        else:
            raise KeyError(addr)
    return out


def finite_difference_check(loss_fn, params, analytic, h=1e-5, only_touched=True):
    """Worst relative error between central finite differences of loss_fn
    and the analytic gradient arrays.

    Near-zero partials (both sides below 1e-7) are compared absolutely.
    With only_touched, arrays whose analytic gradient is identically zero
    are skipped (their structural absence is asserted elsewhere).
    """
    worst = 0.0
    for name, arr in collect_param_arrays(params):
        an = analytic[str(name)]
        if only_touched and not np.any(an):
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

# Tag -> (model attribute, accumulator name) of the row vectors, column
# vectors, row biases and column biases a text entry writes: tag 0 is a
# word-word entry, tag 1 an entity-word entry.
_TEXT_ROLES = (
    (("word_vecs", "word"), ("ctx_vecs", "ctx"), ("word_bias", "word_bias"), ("ctx_bias", "ctx_bias")),
    (("entity_points", "entity"), ("word_vecs", "word"), ("entity_bias", "entity_bias"), ("word_bias", "word_bias")),
)


def ref_text_pass(entries, order, model, state, lr, alpha, eps=1e-8):
    """One entry at a time, in order: the gradient of
    alpha * f * (u.v + b_u + b_v - log x)**2 at the current rows, then an
    AdaGrad step on each of the four rows.  The dot product is the one-row
    einsum, whose bits the trainer's batched dot reproduces."""
    tags, rows, cols, fvals, logs = entries
    for idx in order:
        (u, su), (v, sv), (bu, sbu), (bv, sbv) = (
            (getattr(model, attr), getattr(state, acc)) for attr, acc in _TEXT_ROLES[tags[idx]]
        )
        i, j = rows[idx], cols[idx]
        resid = np.einsum("i,i->", u[i], v[j]) + bu[i] + bv[j] - logs[idx]
        coef = alpha * 2.0 * fvals[idx] * resid
        steps = ((u, su, i, coef * v[j]), (v, sv, j, coef * u[i]), (bu, sbu, i, coef), (bv, sbv, j, coef))
        for values, accum, r, g in steps:
            accum[r] = accum[r] + g * g
            values[r] = values[r] - lr * g / np.sqrt(accum[r] + eps)


# --- sequential relation-group pass ------------------------------------------


def _ref_simplex_rows(v):
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


def ref_rel_dim_pass(params, state, hp, prox, prox_nuclear):
    """One group at a time, tail groups then head groups in key order: the
    group's points (members, then the endpoint moved by +r_k for a tail
    group (e, k) or -r_k for a head group (k, f)), a projected AdaGrad step
    on its coefficients, an AdaGrad step on its anchors, with prox set the
    thresholding of the anchor span by prox_nuclear at
    beta * lr / sqrt(mean G + eps), then AdaGrad steps on the entities (the
    endpoint's partial added to its member row when it is a member) and on
    the relation vector.  state holds the accumulators as the trainer's
    _AdaState does."""
    m, rels = params.model, params.rels
    lr = hp.learn_rate
    scale = 1.0 - hp.alpha_mix
    for side, groups in (("rhs", rels.rhs_groups), ("lhs", rels.lhs_groups)):
        for key in sorted(groups):
            gp = groups[key]
            acc_anchors, acc_coeffs = state.blocks[(side, key)]
            entity, k = key if side == "rhs" else (key[1], key[0])
            sign = 1.0 if side == "rhs" else -1.0
            points = np.vstack([m.entity_points[gp.members], m.entity_points[entity] + sign * rels.vectors[k]])
            resid = points - gp.coeffs @ gp.anchors
            _ref_adagrad(gp.coeffs, ..., scale * (-2.0 * resid @ gp.anchors.T), acc_coeffs, lr)
            gp.coeffs[:] = _ref_simplex_rows(gp.coeffs)
            resid = points - gp.coeffs @ gp.anchors
            _ref_adagrad(gp.anchors, ..., scale * (-2.0 * gp.coeffs.T @ resid), acc_anchors, lr)
            if prox:
                tau = hp.beta_reg * lr / math.sqrt(float(np.mean(acc_anchors)) + 1e-8)
                gp.anchors[1:] = gp.anchors[0] + prox_nuclear(gp.anchors[1:] - gp.anchors[0], tau)[0]
            point_grads = 2.0 * resid
            grads = dict(zip(gp.members.tolist(), point_grads[:-1]))
            grads[entity] = grads[entity] + point_grads[-1] if entity in grads else point_grads[-1]
            _ref_adagrad(m.entity_points, list(grads), scale * np.array(list(grads.values())), state.entity, lr)
            _ref_adagrad(rels.vectors, k, scale * (sign * point_grads[-1]), state.rel, lr)
