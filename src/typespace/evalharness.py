"""Evaluation tasks: attribute ranking, induction, analogy completion,
link prediction and triple classification.

All evaluations are read-only over a trained embedding.  Metric
implementations are definition-literal; ties in any ranking are broken by
entity index so results are deterministic.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from typespace.ingest import TypeSystem, most_specific_common_type
from typespace.params import LoadedModel
from typespace.subspace import centroid

C_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)

RANKING_MIN_ENTITIES = 30


class DegenerateRankingError(ValueError):
    """All training values are equal; no direction can be fitted."""


class ProblemFormatError(ValueError):
    """A problem file is not valid JSON, or one of its records is malformed."""


@dataclass(frozen=True)
class EmbeddingView:
    """Id-addressable view of a trained model, shared by all tasks."""

    entity_ids: tuple[str, ...]
    points: np.ndarray
    rel_ids: tuple[str, ...] = ()
    rel_vectors: np.ndarray | None = None
    index: dict[str, int] = field(repr=False, default_factory=dict)
    rel_index: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "index", {e: i for i, e in enumerate(self.entity_ids)})
        object.__setattr__(self, "rel_index", {r: k for k, r in enumerate(self.rel_ids)})

    @classmethod
    def from_loaded(cls, loaded: LoadedModel) -> "EmbeddingView":
        return cls(
            entity_ids=tuple(loaded.entity_ids),
            points=loaded.model.entity_points,
            rel_ids=tuple(loaded.relation_ids),
            rel_vectors=loaded.rels.vectors,
        )


@dataclass(frozen=True)
class RankingProblem:
    type_id: str
    attribute: str
    values: dict[str, float]
    train: tuple[str, ...]
    valid: tuple[str, ...]
    test: tuple[str, ...]

    def __post_init__(self):
        parts = [set(self.train), set(self.valid), set(self.test)]
        if parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2]:
            raise ValueError(f"ranking problem {self.attribute!r}: split parts overlap")
        union = parts[0] | parts[1] | parts[2]
        if union != set(self.values):
            raise ValueError(f"ranking problem {self.attribute!r}: split does not cover the value set")
        if len(self.values) < RANKING_MIN_ENTITIES:
            raise ValueError(
                f"ranking problem {self.attribute!r}: needs >= {RANKING_MIN_ENTITIES} entities"
            )


@dataclass(frozen=True)
class InductionProblem:
    relation: str
    target: str
    train: tuple[str, ...]
    valid: tuple[str, ...]
    test: tuple[str, ...]


@dataclass(frozen=True)
class AnalogyProblem:
    quads: tuple[tuple[str, str, str, str], ...]
    tune_idx: tuple[int, ...]
    test_idx: tuple[int, ...]


def _problem_records(path, build) -> list:
    """Parse a problem file holding one JSON object or a list of them and
    build one problem per record; a file that is not JSON, or a record that
    `build` cannot read, raises ProblemFormatError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProblemFormatError(f"{path}: not valid JSON ({exc})") from None
    out = []
    for i, rec in enumerate(data if isinstance(data, list) else [data]):
        try:
            out.append(build(rec))
        except KeyError as exc:
            raise ProblemFormatError(f"{path}: record {i} lacks the field {exc}") from None
        except (TypeError, AttributeError, ValueError) as exc:
            raise ProblemFormatError(f"{path}: record {i}: {exc}") from None
    return out


def load_ranking_problems(path) -> list[RankingProblem]:
    def build(rec):
        split = rec["split"]
        return RankingProblem(
            type_id=rec["type"],
            attribute=rec["attribute"],
            values={k: float(v) for k, v in rec["values"].items()},
            train=tuple(split["train"]),
            valid=tuple(split["valid"]),
            test=tuple(split["test"]),
        )

    return _problem_records(path, build)


def load_induction_problems(path) -> list[InductionProblem]:
    def build(rec):
        split = rec["split"]
        return InductionProblem(
            relation=rec["relation"],
            target=rec["target"],
            train=tuple(split["train"]),
            valid=tuple(split["valid"]),
            test=tuple(split["test"]),
        )

    return _problem_records(path, build)


def load_analogy_problems(path) -> list[AnalogyProblem]:
    def build(rec):
        quads = tuple(tuple(q) for q in rec["quads"])
        split = rec.get("split") or {}
        tune_idx = tuple(split.get("tune", ()))
        test_idx = tuple(split.get("test", range(len(quads))))
        return AnalogyProblem(quads=quads, tune_idx=tune_idx, test_idx=test_idx)

    return _problem_records(path, build)


# ---------------------------------------------------------------------------
# Metrics


def _average_ranks(x) -> np.ndarray:
    """1-based ranks with ties replaced by their average rank."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(pred, truth) -> float:
    """Rank correlation with average ranks for ties.  Returns 0.0 when
    either argument has no rank variance (no signal)."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have equal length")
    if pred.size < 2:
        raise ValueError("need at least two observations")
    rp = _average_ranks(pred)
    rt = _average_ranks(truth)
    rp = rp - rp.mean()
    rt = rt - rt.mean()
    denom = math.sqrt(float(rp @ rp) * float(rt @ rt))
    if denom == 0.0:
        return 0.0
    return float(rp @ rt) / denom


def fisher_mean(rhos) -> float:
    """Average correlations in Fisher z-space: tanh(mean(atanh(rho)))."""
    rhos = np.asarray(list(rhos), dtype=np.float64)
    if rhos.size == 0:
        raise ValueError("fisher_mean of an empty list")
    limit = 1.0 - 1e-12
    if np.any(np.abs(rhos) >= 1.0):
        warnings.warn("correlation of magnitude 1 clamped for the Fisher transform")
        rhos = np.clip(rhos, -limit, limit)
    return float(np.tanh(np.mean(np.arctanh(rhos))))


def precision_at_k(relevance, k: int) -> float:
    """Fraction of relevant items in the first k; computed over the
    available length (with a warning) when fewer than k items exist."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rel = np.asarray(relevance, dtype=bool)
    if rel.size < k:
        warnings.warn(f"precision_at_k: only {rel.size} candidates for k={k}")
        k = rel.size
    if k == 0:
        return 0.0
    return float(np.mean(rel[:k]))


def average_precision(relevance) -> float:
    """Mean of precision-at-hit over relevant positions; 0 when nothing is
    relevant."""
    rel = np.asarray(relevance, dtype=bool)
    if not rel.any():
        return 0.0
    hits = np.cumsum(rel)[rel]
    positions = np.flatnonzero(rel) + 1
    return float(np.mean(hits / positions))


def reciprocal_rank(relevance) -> float:
    rel = np.asarray(relevance, dtype=bool)
    nz = np.nonzero(rel)[0]
    if nz.size == 0:
        return 0.0
    return 1.0 / float(nz[0] + 1)


# ---------------------------------------------------------------------------
# Attribute ranking


def _hinge_directions(diffs: np.ndarray, reg_grid, iters: int = 400) -> np.ndarray:
    """Minimize sum(max(0, 1 - D w)) + (1/c) ||w||^2 for each c of reg_grid
    by AdaGrad subgradient descent with iterate averaging, one row of the
    iterate per c.  Margins take one matrix-vector product per row, and the
    violated-pair sums one product laid out to add pairs in order, as a lone
    solve rounds them: a margin one ulp off flips a violation at the hinge."""
    n = diffs.shape[1]
    scale = (2.0 / np.asarray(reg_grid, dtype=np.float64))[:, None]
    w = np.zeros((scale.size, n))
    accum = np.zeros_like(w)
    avg = np.zeros_like(w)
    lr = 0.5
    half = iters // 2
    for t in range(iters):
        viol = (np.array([diffs @ row for row in w]) < 1.0).astype(np.float64)
        g = -(diffs.T @ viol.T).T + scale * w
        accum += g * g
        w -= lr * g / np.sqrt(accum + 1e-8)
        if t >= half:
            avg += w
    return avg / max(iters - half, 1)


def fit_ranking_direction(train_pairs, val_pairs, reg_grid=C_GRID):
    """Pairwise hinge-loss linear ranker.

    train_pairs/val_pairs are (point, value) sequences.  The regularization
    constant is chosen from reg_grid by validation Spearman correlation
    (training correlation when no validation pairs are given); the first
    constant of the grid wins ties.  Returns the direction vector and a zero
    offset (an offset never changes a ranking).
    """
    train_pts = np.asarray([p for p, _ in train_pairs], dtype=np.float64)
    train_vals = np.asarray([v for _, v in train_pairs], dtype=np.float64)
    if len(set(train_vals.tolist())) < 2:
        raise DegenerateRankingError("all training values are equal")
    gt = train_vals[:, None] > train_vals[None, :]
    ii, jj = np.nonzero(gt)
    diffs = train_pts[ii] - train_pts[jj]
    if val_pairs:
        val_pts = np.asarray([p for p, _ in val_pairs], dtype=np.float64)
        val_vals = np.asarray([v for _, v in val_pairs], dtype=np.float64)
    else:
        val_pts, val_vals = train_pts, train_vals
    directions = _hinge_directions(diffs, reg_grid)
    best_w = None
    best_rho = -math.inf
    for w in directions:
        rho = spearman(val_pts @ w, val_vals) if len(val_vals) >= 2 else 0.0
        if rho > best_rho:
            best_rho = rho
            best_w = w
    return best_w, 0.0


def eval_ranking(problems, view: EmbeddingView, reg_grid=C_GRID) -> dict:
    """Fit a direction per problem on its training split, select the
    regularizer on validation, score the test split, and aggregate the
    per-problem Spearman correlations through the Fisher transform."""
    per_problem = []
    rhos = []
    skipped = 0
    for prob in problems:
        def pairs(ids):
            return [(view.points[view.index[e]], prob.values[e]) for e in ids if e in view.index]

        train, valid, test = pairs(prob.train), pairs(prob.valid), pairs(prob.test)
        if len(test) < 2 or len(train) < 2:
            warnings.warn(f"ranking problem {prob.attribute!r} skipped: too few resolvable entities")
            skipped += 1
            continue
        try:
            w, _ = fit_ranking_direction(train, valid, reg_grid)
        except DegenerateRankingError:
            warnings.warn(f"ranking problem {prob.attribute!r} skipped: degenerate training split")
            skipped += 1
            continue
        scores = np.asarray([p for p, _ in test]) @ w
        rho = spearman(scores, [v for _, v in test])
        rhos.append(rho)
        per_problem.append(
            {"type": prob.type_id, "attribute": prob.attribute, "rho": rho, "n_test": len(test)}
        )
    out = {"task": "ranking", "per_problem": per_problem, "skipped": skipped}
    out["fisher_rho"] = fisher_mean(rhos) if rhos else 0.0
    return out


# ---------------------------------------------------------------------------
# Induction


def eval_induction(problems, view: EmbeddingView, ts: TypeSystem) -> dict:
    """Rank candidate entities of the most specific common type by distance
    to the centroid of the training positives; held-out test positives are
    the relevant items."""
    per_problem = []
    aps, p5s, rrs = [], [], []
    skipped = 0
    for prob in problems:
        if not prob.train:
            raise ValueError(f"induction problem ({prob.relation!r}, {prob.target!r}) has no training positives")
        all_pos = list(prob.train) + list(prob.valid) + list(prob.test)
        pos_idx = [view.index[e] for e in all_pos if e in view.index]
        if len(pos_idx) < len(all_pos):
            skipped += len(all_pos) - len(pos_idx)
            warnings.warn(f"induction problem ({prob.relation!r}, {prob.target!r}): unresolved positives dropped")
        type_id = most_specific_common_type(pos_idx, ts)
        excluded = {view.index[e] for e in list(prob.train) + list(prob.valid) if e in view.index}
        candidates = np.asarray([i for i in ts.instances[type_id] if i not in excluded], dtype=np.int64)
        train_pts = view.points[[view.index[e] for e in prob.train if e in view.index]]
        center = centroid(train_pts)
        dists = np.linalg.norm(view.points[candidates] - center, axis=1)
        ranked = candidates[np.lexsort((candidates, dists))]
        test_idx = [view.index[e] for e in prob.test if e in view.index]
        relevance = np.isin(ranked, test_idx)
        ap = average_precision(relevance)
        p5 = precision_at_k(relevance, 5)
        rr = reciprocal_rank(relevance)
        aps.append(ap)
        p5s.append(p5)
        rrs.append(rr)
        per_problem.append(
            {
                "relation": prob.relation,
                "target": prob.target,
                "type": type_id,
                "ap": ap,
                "p_at_5": p5,
                "rr": rr,
                "n_candidates": len(candidates),
            }
        )
    return {
        "task": "induction",
        "per_problem": per_problem,
        "map": float(np.mean(aps)) if aps else 0.0,
        "p_at_5": float(np.mean(p5s)) if p5s else 0.0,
        "mrr": float(np.mean(rrs)) if rrs else 0.0,
        "skipped": skipped,
    }


# ---------------------------------------------------------------------------
# Analogy


def _best_cosine(pool_pts: np.ndarray, pool_norms: np.ndarray, target: np.ndarray, allowed: np.ndarray):
    """Pool position of the allowed candidate of highest cosine to target,
    or None when none scores above -inf.  A zero norm scores -1.0, the first
    maximum wins and NaN never does.  Rows are summed in numpy's fixed order,
    not by BLAS, so equal rows score equal bits wherever they sit."""
    target_norm = float(np.linalg.norm(target))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sims = np.add.reduce(pool_pts * target, axis=1) / (pool_norms * target_norm)
    sims[(pool_norms == 0.0) | (target_norm == 0.0)] = -1.0
    sims[~allowed | np.isnan(sims)] = -math.inf
    best = int(np.argmax(sims))
    return best if sims[best] > -math.inf else None


def eval_analogy(problem: AnalogyProblem, view: EmbeddingView, ts: TypeSystem) -> dict:
    """Complete "a is to b what c is to ?" by cosine over the candidate
    pool: entities of the most specific common type of the problem's gold
    answers, excluding the three query entities."""
    gold_idx = [view.index[q[3]] for q in problem.quads if q[3] in view.index]
    if not gold_idx:
        raise ValueError("analogy problem has no resolvable gold answers")
    pool_type = most_specific_common_type(gold_idx, ts)
    pool = np.asarray(ts.instances[pool_type], dtype=np.int64)
    degenerate = len(pool) == 1
    if degenerate:
        warnings.warn("analogy candidate pool has a single entity; accuracy is trivially 1")
    pool_pts = view.points[pool]
    pool_norms = np.linalg.norm(pool_pts, axis=1)
    correct = 0
    evaluated = 0
    skipped = 0
    for qi in problem.test_idx:
        a, b, c, d = problem.quads[qi]
        if any(x not in view.index for x in (a, b, c, d)):
            warnings.warn(f"analogy quad {(a, b, c, d)} skipped: unknown entity")
            skipped += 1
            continue
        ia, ib, ic = view.index[a], view.index[b], view.index[c]
        target = view.points[ib] - view.points[ia] + view.points[ic]
        best = _best_cosine(pool_pts, pool_norms, target, (pool != ia) & (pool != ib) & (pool != ic))
        evaluated += 1
        if best is not None and pool[best] == view.index[d]:
            correct += 1
    accuracy = correct / evaluated if evaluated else 0.0
    return {
        "task": "analogy",
        "accuracy": accuracy,
        "n_evaluated": evaluated,
        "skipped": skipped,
        "pool_type": pool_type,
        "degenerate_pool": degenerate,
    }


# ---------------------------------------------------------------------------
# Link prediction


def _rank_of(scores: np.ndarray, target: int) -> int:
    """1-based rank of `target` under ascending score, ties broken by
    entity index."""
    st = scores[target]
    better = int(np.sum(scores < st))
    tied_before = int(np.sum((scores == st) & (np.arange(len(scores)) < target)))
    return better + tied_before + 1


def eval_link_prediction(test_triples, view: EmbeddingView) -> dict:
    """Raw-protocol link prediction: rank every entity as tail of (h, r, ?)
    and as head of (?, r, t) by translation distance; no filtering of other
    known-true triples."""
    if view.rel_vectors is None:
        raise ValueError("model carries no relation vectors")
    ranks = []
    skipped = 0
    for h, r, t in test_triples:
        if h not in view.index or t not in view.index or r not in view.rel_index:
            skipped += 1
            continue
        hi, ti = view.index[h], view.index[t]
        rv = view.rel_vectors[view.rel_index[r]]
        tail_scores = np.linalg.norm(view.points - (view.points[hi] + rv), axis=1)
        ranks.append(_rank_of(tail_scores, ti))
        head_scores = np.linalg.norm(view.points + rv - view.points[ti], axis=1)
        ranks.append(_rank_of(head_scores, hi))
    if not ranks:
        return {"task": "link_prediction", "mean_rank": 0.0, "hits_at_10": 0.0, "n_ranks": 0, "skipped": skipped}
    ranks = np.asarray(ranks, dtype=np.float64)
    return {
        "task": "link_prediction",
        "mean_rank": float(np.mean(ranks)),
        "hits_at_10": float(np.mean(ranks <= 10)),
        "n_ranks": int(ranks.size),
        "skipped": skipped,
    }


# ---------------------------------------------------------------------------
# Triple classification


def _triple_scores(view: EmbeddingView, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Score of each (head, relation, tail) index row: minus the length of
    its translation residual."""
    return -np.linalg.norm(view.points[tails] - view.points[heads] - view.rel_vectors[rels], axis=1)


def _best_threshold(scores, labels) -> float:
    """Midpoint between the consecutive sorted scores that maximizes
    accuracy of the rule "positive iff score > threshold"; ties prefer the
    smallest threshold.  With no distinct score pair the single score value
    is used (classifying everything negative).  Correct counts per cut come
    from cumulative label counts; NaN scores sort last, never above a cut."""
    order = np.argsort(scores, kind="mergesort")
    s = np.asarray(scores, dtype=np.float64)[order]
    y = np.asarray(labels, dtype=bool)[order]
    distinct = np.flatnonzero(s[:-1] != s[1:])
    if distinct.size == 0:
        return float(s[0])
    with np.errstate(invalid="ignore", over="ignore"):  # a (-inf, inf) pair's midpoint is NaN, as in float math
        candidates = 0.5 * (s[distinct] + s[distinct + 1])
    non_nan = s.size - int(np.count_nonzero(np.isnan(s)))
    cuts = np.searchsorted(s[:non_nan], candidates, side="right")
    pos_below = np.concatenate(([0], np.cumsum(y)))
    neg_below = np.arange(s.size + 1) - pos_below
    correct = neg_below[cuts] + (pos_below[non_nan] - pos_below[cuts])
    return float(candidates[int(np.argmax(correct))])


def eval_triple_classification(valid_rows, test_rows, view: EmbeddingView) -> dict:
    """Relation-specific thresholds fitted on validation scores, applied to
    the test rows.  Rows are (head, relation, tail, label) with label in
    {0, 1}."""
    if view.rel_vectors is None:
        raise ValueError("model carries no relation vectors")

    def resolve(rows):
        """Relation ids, scores and labels of the resolvable rows, in row
        order, and the count of the others."""
        kept = [
            (h, r, t, bool(int(label)))
            for h, r, t, label in rows
            if h in view.index and t in view.index and r in view.rel_index
        ]
        rows_idx = np.array(
            [(view.index[h], view.rel_index[r], view.index[t]) for h, r, t, _ in kept], dtype=np.intp
        ).reshape(-1, 3)
        labels = np.array([y for _, _, _, y in kept], dtype=bool)
        scores = _triple_scores(view, *rows_idx.T)
        return [r for _, r, _, _ in kept], rows_idx[:, 1], scores, labels, len(rows) - len(kept)

    valid_rels, valid_ids, valid_scores, valid_labels, skipped_valid = resolve(valid_rows)
    test_rels, _, test_scores, test_labels, skipped_test = resolve(test_rows)
    if skipped_valid or skipped_test:
        warnings.warn(f"triple classification skipped {skipped_valid + skipped_test} unresolvable rows")

    global_delta = _best_threshold(valid_scores, valid_labels) if valid_rels else 0.0
    thresholds = {}
    for rel in dict.fromkeys(valid_rels):
        sel = valid_ids == view.rel_index[rel]
        thresholds[rel] = _best_threshold(valid_scores[sel], valid_labels[sel])
    for rel in dict.fromkeys(test_rels):
        if rel not in thresholds:
            warnings.warn(f"relation {rel!r} absent from validation; using the global threshold")
    deltas = np.array([thresholds.get(rel, global_delta) for rel in test_rels])
    correct = int(np.count_nonzero((test_scores > deltas) == test_labels))
    total = len(test_rels)
    accuracy = correct / total if total else 0.0
    return {
        "task": "triple_classification",
        "accuracy": accuracy,
        "n_test": total,
        "thresholds": {r: float(d) for r, d in thresholds.items()},
        "skipped": skipped_valid + skipped_test,
    }
