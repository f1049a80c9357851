"""Evaluation tasks: attribute ranking, induction, analogy completion,
link prediction and triple classification.

All evaluations are read-only over a trained embedding.  Metric
implementations are definition-literal; ties in any ranking are broken by
entity index so results are deterministic.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from typespace.ingest import TypeSystem, most_specific_common_type
from typespace.params import LoadedModel
from typespace.subspace import centroid

C_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)

RANKING_MIN_ENTITIES = 30

# Problems x pairs x (dims + |C_GRID|) float64 cells per stacked hinge solve,
# which bounds its pair differences and margins to 32 MiB.
_STACK_CELLS = 1 << 22


class DegenerateRankingError(ValueError):
    """All training values are equal; no direction can be fitted."""


class ProblemFormatError(ValueError):
    """A problem file is not valid JSON, one of its records is malformed, or
    the model holds none of a problem's training positives or gold answers,
    or a task has nothing to score: no problem, no resolvable test triple or
    test quad, or no ranking problem left after the skips."""


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


def _check_disjoint(problem: str, *parts) -> None:
    """Raise ValueError when an id sits twice in a problem's split parts,
    in two parts or twice in one."""
    if sum(map(len, parts)) > len(set().union(*parts)):
        raise ValueError(f"{problem}: split parts overlap or repeat an id")


@dataclass(frozen=True)
class RankingProblem:
    type_id: str
    attribute: str
    values: dict[str, float]
    train: tuple[str, ...]
    valid: tuple[str, ...]
    test: tuple[str, ...]

    def __post_init__(self):
        _check_disjoint(f"ranking problem {self.attribute!r}", self.train, self.valid, self.test)
        if {*self.train, *self.valid, *self.test} != set(self.values):
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

    def __post_init__(self):
        _check_disjoint(f"induction problem ({self.relation!r}, {self.target!r})", self.train, self.valid, self.test)


@dataclass(frozen=True)
class AnalogyProblem:
    quads: tuple[tuple[str, str, str, str], ...]
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
            if not isinstance(rec, dict):
                raise ValueError("not an object")
            out.append(build(rec))
        except KeyError as exc:
            raise ProblemFormatError(f"{path}: record {i} lacks the field {exc}") from None
        except (TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise ProblemFormatError(f"{path}: record {i}: {exc}") from None
    return out


def _ids(value, what: str, size: int | None = None) -> tuple[str, ...]:
    """value, which must be a list of id strings (of the given size), as a tuple."""
    if not (isinstance(value, list) and all(isinstance(x, str) for x in value) and size in (None, len(value))):
        noun = "id strings" if size is None else f"{size} id strings"
        raise ValueError(f"{what} is not a list of {noun}")
    return tuple(value)


def _object(value, field: str) -> dict:
    """value, the named field of a record, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"field {field!r} is not an object")
    return value


def _name(rec, field: str) -> str:
    """rec[field], which must be a JSON string."""
    if not isinstance(rec[field], str):
        raise ValueError(f"field {field!r} is not a string")
    return rec[field]


def _finite(value, entity: str) -> float:
    """value, which must be a JSON int or float (not a bool) within the
    finite float range, as a float."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:  # False for NaN
        return float(value)
    raise ValueError(f"value of entity {entity!r} is not a finite number")


def _split(rec) -> dict[str, tuple[str, ...]]:
    """The train, valid and test parts of a record's split."""
    split = _object(rec["split"], "split")
    return {part: _ids(split[part], f"split part {part!r}") for part in ("train", "valid", "test")}


def load_ranking_problems(path) -> list[RankingProblem]:
    def build(rec):
        parts = _split(rec)
        values = {k: _finite(v, k) for k, v in _object(rec["values"], "values").items()}
        return RankingProblem(type_id=_name(rec, "type"), attribute=_name(rec, "attribute"), values=values, **parts)

    return _problem_records(path, build)


def load_induction_problems(path) -> list[InductionProblem]:
    def build(rec):
        parts = _split(rec)
        return InductionProblem(relation=_name(rec, "relation"), target=_name(rec, "target"), **parts)

    return _problem_records(path, build)


def load_analogy_problems(path) -> list[AnalogyProblem]:
    """Analogy problems: quads of four id strings, and a split object whose
    test part lists distinct quad indices; without a split or a test part
    every quad is tested.  A tune part is accepted and ignored."""

    def build(rec):
        if not isinstance(rec["quads"], list):
            raise ValueError("field 'quads' is not a list")
        quads = tuple(_ids(q, f"quad {k}", 4) for k, q in enumerate(rec["quads"]))
        test_idx = _object(rec.get("split", {}), "split").get("test", list(range(len(quads))))
        if not isinstance(test_idx, list) or not all(type(i) is int and 0 <= i < len(quads) for i in test_idx):
            raise ValueError(f"split part 'test' is not a list of quad indices in [0, {len(quads)})")
        if len(set(test_idx)) < len(test_idx):
            raise ValueError("split part 'test' repeats a quad index")
        return AnalogyProblem(quads=quads, test_idx=tuple(test_idx))

    return _problem_records(path, build)


# ---------------------------------------------------------------------------
# Metrics


def _average_ranks(x) -> np.ndarray:
    """1-based ranks with ties replaced by their average rank."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="mergesort")
    s = x[order]
    edges = np.ones(len(x) + 1, dtype=bool)
    edges[1:-1] = s[1:] != s[:-1]  # NaN != NaN: each NaN is a block of its own
    bounds = np.flatnonzero(edges)
    first, stop = bounds[:-1], bounds[1:]
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + stop - 1) + 1.0, stop - first)
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


def _hinge_directions(diffs: np.ndarray, iters: int = 400) -> np.ndarray:
    """Minimize sum(max(0, 1 - D w)) + (1/c) ||w||^2 for each c of C_GRID by
    AdaGrad subgradient descent with iterate averaging, where D is a (P, n)
    matrix of pair differences; diffs is one D or a stack (..., P, n) of
    them.  Row [..., k] of the result is the direction for C_GRID[k].

    One loop steps every row of every problem.  Per step, each problem takes
    one (C x n)(n x P) product for the margins of all its rows, and one
    (n x P)(P x C) product for its violated-pair sums.  Each row comes out
    bit-equal to its problem's solve alone, since a problem's products have
    the same shapes and layouts in a stack as alone (a margin one ulp off
    flips a violation at the hinge).  So a stack holds problems of one pair
    count P: zero-padding to a common P would change how BLAS splits each
    product's tail columns, and with it the rounding."""
    *lead, p, n = diffs.shape
    scale = (2.0 / np.asarray(C_GRID, dtype=np.float64))[:, None]
    d_t = np.swapaxes(diffs, -1, -2)
    w = np.zeros((*lead, scale.size, n))
    accum, avg, g, tmp = (np.zeros_like(w) for _ in range(4))
    margins = np.empty((*lead, scale.size, p))
    viol = np.swapaxes(margins, -1, -2)  # 1.0 where a pair is violated, after the test below
    sums = np.empty((*lead, n, scale.size))
    sums_t = np.swapaxes(sums, -1, -2)
    lr = 0.5
    half = iters // 2
    for t in range(iters):
        np.matmul(w, d_t, out=margins)
        np.less(margins, 1.0, out=margins)
        np.matmul(d_t, viol, out=sums)
        np.multiply(scale, w, out=g)
        g -= sums_t
        np.multiply(g, g, out=tmp)
        accum += tmp
        np.add(accum, 1e-8, out=tmp)
        np.sqrt(tmp, out=tmp)
        g *= lr
        g /= tmp
        w -= g
        if t >= half:
            avg += w
    return avg / max(iters - half, 1)


def _pair_diffs(pts: np.ndarray, vals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """pts[i] - pts[j] for every pair with vals[i] > vals[j], in row-major
    pair order (written to out when given)."""
    ii, jj = np.nonzero(vals[:, None] > vals[None, :])
    return np.subtract(pts[ii], pts[jj], out=out)


def _best_direction(directions: np.ndarray, val_pts: np.ndarray, val_vals: np.ndarray) -> np.ndarray:
    """The row of directions (one per c of C_GRID) of highest validation
    Spearman correlation; the first wins ties."""
    rhos = [spearman(val_pts @ w, val_vals) if len(val_vals) >= 2 else 0.0 for w in directions]
    return directions[int(np.argmax(rhos))]


def fit_ranking_direction(train_pairs, val_pairs) -> np.ndarray:
    """Pairwise hinge-loss linear ranker.

    train_pairs/val_pairs are (point, value) sequences.  The regularization
    constant is chosen from C_GRID by validation Spearman correlation
    (training correlation when no validation pairs are given); the first
    constant of the grid wins ties.  Returns the direction vector; no offset
    is fitted, since an offset never changes a ranking.
    """
    train_pts = np.asarray([p for p, _ in train_pairs], dtype=np.float64)
    train_vals = np.asarray([v for _, v in train_pairs], dtype=np.float64)
    if len(set(train_vals.tolist())) < 2:
        raise DegenerateRankingError("all training values are equal")
    if val_pairs:
        val_pts = np.asarray([p for p, _ in val_pairs], dtype=np.float64)
        val_vals = np.asarray([v for _, v in val_pairs], dtype=np.float64)
    else:
        val_pts, val_vals = train_pts, train_vals
    return _best_direction(_hinge_directions(_pair_diffs(train_pts, train_vals)), val_pts, val_vals)


def ranking_splits(problems, index) -> tuple[list, int]:
    """The ranking problems that can be scored, as (problem, train, valid,
    test), each split the (row of index, value) pairs of its entities that
    index holds, and the number skipped with a warning: those with fewer
    than two such training or test entities or with one training value.
    Raises ProblemFormatError when every problem is skipped."""
    kept = []
    for prob in problems:
        train, valid, test = ([(index[e], prob.values[e]) for e in ids if e in index]
                              for ids in (prob.train, prob.valid, prob.test))
        if len(test) < 2 or len(train) < 2:
            warnings.warn(f"ranking problem {prob.attribute!r} skipped: too few resolvable entities")
        elif len({v for _, v in train}) < 2:
            warnings.warn(f"ranking problem {prob.attribute!r} skipped: degenerate training split")
        else:
            kept.append((prob, train, valid, test))
    if not kept:
        raise ProblemFormatError(f"none of the {len(problems)} ranking problems could be scored")
    return kept, len(problems) - len(kept)


def eval_ranking(problems, view: EmbeddingView) -> dict:
    """Fit a direction per problem of ranking_splits on its training split,
    select the regularizer on validation, score the test split, and
    aggregate the per-problem Spearman correlations through the Fisher
    transform.  The problems of one pair count take one stacked solve of
    _hinge_directions, chunked by _STACK_CELLS, whose every step takes one
    margin product per problem; each direction equals
    fit_ranking_direction's bit for bit."""
    splits, skipped = ranking_splits(problems, view.index)
    points = np.asarray(view.points, dtype=np.float64)
    n = points.shape[1]
    fits = [
        [(points[[i for i, _ in part]], np.array([v for _, v in part], dtype=np.float64)) for part in parts]
        for _, *parts in splits
    ]
    by_pairs: dict[int, list[int]] = {}
    for k, ((_, vals), _, _) in enumerate(fits):
        by_pairs.setdefault(int(np.count_nonzero(vals[:, None] > vals[None, :])), []).append(k)
    directions = [None] * len(fits)
    for pairs, members in by_pairs.items():
        step = max(1, _STACK_CELLS // (pairs * (n + len(C_GRID))))
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            stack = np.empty((len(chunk), pairs, n))
            for k, diffs in zip(chunk, stack):
                _pair_diffs(*fits[k][0], out=diffs)
            for k, rows in zip(chunk, _hinge_directions(stack)):
                directions[k] = rows
    per_problem = []
    for (prob, *_), (train, valid, (test_pts, test_vals)), rows in zip(splits, fits, directions):
        w = _best_direction(rows, *(valid if len(valid[1]) else train))
        rho = spearman(test_pts @ w, test_vals)
        per_problem.append({"type": prob.type_id, "attribute": prob.attribute, "rho": rho, "n_test": len(test_vals)})
    rhos = [r["rho"] for r in per_problem]
    return {"task": "ranking", "per_problem": per_problem, "skipped": skipped, "fisher_rho": fisher_mean(rhos)}


# ---------------------------------------------------------------------------
# Induction


def eval_induction(problems, view: EmbeddingView, ts: TypeSystem) -> dict:
    """Rank candidate entities of the most specific common type of a
    problem's resolved positives by distance to the centroid of the training
    positives, ties by entity index.  The train and valid positives are no
    candidates; the test positives are the relevant items.  Both sets are
    boolean masks over the entities."""
    if not problems:
        raise ProblemFormatError("no induction problem to score")
    per_problem = []
    skipped = 0
    index = view.index
    for prob in problems:
        train_idx = [index[e] for e in prob.train if e in index]
        if not train_idx:
            raise ProblemFormatError(
                f"induction problem ({prob.relation!r}, {prob.target!r}): the model holds none of its "
                f"{len(prob.train)} training positives"
            )
        seen_idx = train_idx + [index[e] for e in prob.valid if e in index]
        test_idx = [index[e] for e in prob.test if e in index]
        unresolved = len(prob.train) + len(prob.valid) + len(prob.test) - len(seen_idx) - len(test_idx)
        if unresolved:
            skipped += unresolved
            warnings.warn(f"induction problem ({prob.relation!r}, {prob.target!r}): unresolved positives dropped")
        type_id = most_specific_common_type(seen_idx + test_idx, ts)
        members = np.asarray(ts.instances[type_id], dtype=np.int64)
        seen, relevant = np.zeros((2, len(view.points)), dtype=bool)
        seen[seen_idx] = True
        candidates = members[~seen[members]]
        center = centroid(view.points[train_idx])
        dists = np.linalg.norm(view.points[candidates] - center, axis=1)
        ranked = candidates[np.lexsort((candidates, dists))]
        relevant[test_idx] = True
        relevance = relevant[ranked]
        per_problem.append(
            {
                "relation": prob.relation,
                "target": prob.target,
                "type": type_id,
                "ap": average_precision(relevance),
                "p_at_5": precision_at_k(relevance, 5),
                "rr": reciprocal_rank(relevance),
                "n_candidates": len(candidates),
            }
        )
    return {
        "task": "induction",
        "per_problem": per_problem,
        "map": float(np.mean([r["ap"] for r in per_problem])),
        "p_at_5": float(np.mean([r["p_at_5"] for r in per_problem])),
        "mrr": float(np.mean([r["rr"] for r in per_problem])),
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
        raise ProblemFormatError(f"the model holds none of the analogy problem's {len(problem.quads)} gold answers")
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
    if not evaluated:
        raise ProblemFormatError(f"the model resolves none of the analogy problem's {len(problem.test_idx)} test quads")
    return {
        "task": "analogy",
        "accuracy": correct / evaluated,
        "n_evaluated": evaluated,
        "skipped": skipped,
        "pool_type": pool_type,
        "degenerate_pool": degenerate,
    }


# ---------------------------------------------------------------------------
# Link prediction

# Queries x entities per screened chunk: each (queries x entities) float64
# temporary of the screen stays within 128 KiB.
_SCREEN_CELLS = 1 << 14

# The screen's slack factor c.  With u = 2**-53, the exact path's score is
# s = fl(sqrt(sum_j fl(x_j - q_j)**2)): a subtraction and a square per term,
# n - 1 additions and a square root, so |s**2 - d**2| <= gamma_{n+4} d**2
# with d = |x - q| and gamma_k = k u / (1 - k u) (Higham 2002, sec. 3.1).  The
# screen's a = |x|**2 + |q|**2 - 2 x.q takes three inner products of n terms,
# in any order, and two additions, so |a - d**2| <= gamma_{n+2} (|x| + |q|)**2
# by Cauchy-Schwarz.  As d <= |x| + |q|, |a - s**2| <= 2.01 (n + 4) u
# (|x| + |q|)**2.  c = 8 also covers the rounding of the norms |x| and |q|
# that the slack reads, of the slack itself, and of a + slack and of
# (a + slack) - 2 slack, which stand for a +- slack in place.  Results
# below 2**-1022 lose relative accuracy; each of the at most 3n + 8
# roundings then errs by at most 2**-1075, which c (n + 4) 2**-1022 covers.
_SLACK_C = 8.0
_U = 2.0**-53
_TINY = np.finfo(np.float64).tiny


def _screened_ranks(rows: np.ndarray, queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1-based rank of row targets[j] under the ascending score
    np.linalg.norm(rows - queries[j], axis=1), ties broken by row index.

    One product per chunk of queries gives a = |x|**2 + |q|**2 - 2 x.q for
    every row x and query q, within a slack of the square of the row's
    score.  Rows whose a +- slack lies on one side of the bounds on the
    target's squared score are certainly closer or farther; every other
    row (the band) is scored as above and compared exactly.  A NaN bound,
    or a non-finite a or slack, certifies nothing."""
    m, n = rows.shape
    ranks = np.empty(len(targets), dtype=np.int64)
    step = max(1, _SCREEN_CELLS // m)
    with np.errstate(over="ignore", invalid="ignore"):
        xx = np.einsum("ij,ij->i", rows, rows)
        xn = np.sqrt(xx)
        for start in range(0, len(targets), step):
            q, t = queries[start : start + step], targets[start : start + step]
            st = np.linalg.norm(rows[t] - q, axis=1)
            t2 = st * st  # within u st**2 + 2**-1075 of st**2
            lo = (t2 * (1.0 - 4.0 * _U) - _TINY)[:, None]
            hi = (t2 * (1.0 + 4.0 * _U) + _TINY)[:, None]
            qq = np.einsum("ij,ij->i", q, q)
            a = q @ rows.T  # one row per query
            a *= -2.0
            a += xx
            a += qq[:, None]
            slack = np.sqrt(qq)[:, None] + xn
            slack *= slack
            slack *= _SLACK_C * (n + 4) * _U
            slack += _SLACK_C * (n + 4) * _TINY
            a += slack
            closer = a < lo
            slack *= 2.0
            a -= slack
            band = ~(closer | (a > hi))
            band[np.arange(len(t)), t] = False  # a target never ranks before itself
            j, i = np.divmod(np.flatnonzero(band), m)
            s = np.linalg.norm(rows[i] - q[j], axis=1)
            wins = (s < st[j]) | ((s == st[j]) & (i < t[j]))
            ranks[start : start + step] = np.count_nonzero(closer, axis=1) + np.bincount(j[wins], minlength=len(t)) + 1
    return ranks


def _link_ranks(view: EmbeddingView, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Raw ranks of each (head, relation, tail) index triple by translation
    distance, ties broken by entity index: column 0 ranks the tail among
    all entities as tail of (h, r, ?), column 1 the head as head of
    (?, r, t)."""
    points, vectors = view.points, view.rel_vectors
    ranks = np.empty((len(heads), 2), dtype=np.int64)
    ranks[:, 0] = _screened_ranks(points, points[heads] + vectors[rels], tails)
    for k in np.unique(rels):
        sel = np.flatnonzero(rels == k)
        ranks[sel, 1] = _screened_ranks(points + vectors[k], points[tails[sel]], heads[sel])
    return ranks


def _resolve_triples(rows, view: EmbeddingView) -> tuple[np.ndarray, int]:
    """The rows whose head, relation and tail ids the view resolves, in row
    order, with those ids replaced by their indices and any later fields
    kept, flattened into one integer array; and the count of the other
    rows."""
    if view.rel_vectors is None:
        raise ValueError("model carries no relation vectors")
    index, rel_index = view.index, view.rel_index
    kept = [
        (index[row[0]], rel_index[row[1]], index[row[2]], *row[3:])
        for row in rows
        if row[0] in index and row[2] in index and row[1] in rel_index
    ]
    return np.fromiter(chain.from_iterable(kept), np.intp), len(rows) - len(kept)


def eval_link_prediction(test_triples, view: EmbeddingView) -> dict:
    """Raw-protocol link prediction: rank every entity as tail of (h, r, ?)
    and as head of (?, r, t) by translation distance; no filtering of other
    known-true triples."""
    kept, skipped = _resolve_triples(test_triples, view)
    if not len(kept):
        raise ProblemFormatError(f"the model resolves none of the {skipped} link prediction triples")
    ranks = _link_ranks(view, *kept.reshape(-1, 3).T).ravel().astype(np.float64)
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
    valid, skipped_valid = _resolve_triples(valid_rows, view)
    test, skipped_test = _resolve_triples(test_rows, view)
    if not len(test):
        raise ProblemFormatError(f"the model resolves none of the {skipped_test} triple classification test rows")
    if skipped_valid or skipped_test:
        warnings.warn(f"triple classification skipped {skipped_valid + skipped_test} unresolvable rows")
    valid, test = valid.reshape(-1, 4), test.reshape(-1, 4)
    valid_scores, valid_labels = _triple_scores(view, *valid[:, :3].T), valid[:, 3].astype(bool)

    global_delta = _best_threshold(valid_scores, valid_labels) if len(valid) else 0.0
    thresholds = {}  # by relation index, in order of first validation row
    for k in dict.fromkeys(valid[:, 1].tolist()):
        sel = valid[:, 1] == k
        thresholds[k] = _best_threshold(valid_scores[sel], valid_labels[sel])
    test_rels = test[:, 1].tolist()
    for k in dict.fromkeys(test_rels):
        if k not in thresholds:
            warnings.warn(f"relation {view.rel_ids[k]!r} absent from validation; using the global threshold")
    deltas = np.array([thresholds.get(k, global_delta) for k in test_rels])
    correct = int(np.count_nonzero((_triple_scores(view, *test[:, :3].T) > deltas) == test[:, 3].astype(bool)))
    return {
        "task": "triple_classification",
        "accuracy": correct / len(test_rels),
        "n_test": len(test_rels),
        "thresholds": {view.rel_ids[k]: float(d) for k, d in thresholds.items()},
        "skipped": skipped_valid + skipped_test,
    }
