"""Read-only analysis of learned type subspaces.

A type's subspace is the affine span of its anchor points; the anchor span
matrix (rows: anchor i minus anchor 0) carries its dimensionality.  The
effective dimension counts singular values above a relative threshold,
which is the number the nuclear-norm regularizer ends up selecting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typespace.params import TypeSubspaceParams, _finite, anchor_span_matrix


@dataclass(frozen=True)
class SubspaceSummary:
    type_id: str
    effective_dim: int
    singular_values: tuple[float, ...]  # descending
    base_point: np.ndarray
    basis: np.ndarray  # (effective_dim, n), orthonormal rows


def _rank_of_singular_values(s: np.ndarray, rank_eps: float) -> int:
    """Number of the descending singular values s exceeding
    rank_eps * max(sigma_1, 1)."""
    if s.size == 0:
        return 0
    return int(np.sum(s > rank_eps * max(float(s[0]), 1.0)))


def effective_rank(m: np.ndarray, rank_eps: float = 1e-3) -> int:
    """Number of singular values exceeding rank_eps * max(sigma_1, 1); 0 for
    an all-zero matrix without an SVD."""
    if not _finite(m):
        raise ValueError("effective_rank of a non-finite matrix")
    if not np.any(m):
        return 0
    return _rank_of_singular_values(np.linalg.svd(m, compute_uv=False), rank_eps)


def type_subspace(types: TypeSubspaceParams, type_id: str, rank_eps: float = 1e-3) -> SubspaceSummary:
    """Summary of one type's subspace: base point, singular values, and an
    orthonormal basis of the anchor span truncated at the effective rank."""
    if type_id not in types:
        raise KeyError(f"unknown type {type_id!r}")
    tp = types[type_id]
    span = anchor_span_matrix(tp.anchors)
    _, s, vt = np.linalg.svd(span, full_matrices=False)
    dim = _rank_of_singular_values(s, rank_eps)
    return SubspaceSummary(
        type_id=type_id,
        effective_dim=dim,
        singular_values=tuple(float(x) for x in s),
        base_point=tp.anchors[0].copy(),
        basis=vt[:dim].copy(),
    )


def project_to_subspace(point: np.ndarray, summary: SubspaceSummary) -> np.ndarray:
    """Orthogonal projection onto the affine subspace base + span(basis)."""
    point = np.asarray(point, dtype=np.float64)
    if point.shape != summary.base_point.shape:
        raise ValueError("point dimension does not match the subspace")
    rel = point - summary.base_point
    if summary.basis.shape[0] == 0:
        return summary.base_point.copy()
    return summary.base_point + summary.basis.T @ (summary.basis @ rel)


def centroid(points) -> np.ndarray:
    """Arithmetic mean of a non-empty list of equal-dimension vectors."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise ValueError("centroid of an empty point list")
    return pts.mean(axis=0)


def point_cloud_rank(points: np.ndarray, rank_eps: float = 1e-3) -> int:
    """Effective dimension of a centered point cloud (PCA view); offered
    alongside the anchor-matrix view for inspection."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] == 0:
        return 0
    return effective_rank(pts - pts.mean(axis=0), rank_eps)
