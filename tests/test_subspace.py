import numpy as np
import pytest

from conftest import block_store
from typespace.params import TypeSubspaceParams
from typespace.subspace import (
    centroid,
    effective_rank,
    point_cloud_rank,
    project_to_subspace,
    type_subspace,
)


def types_with_anchors(anchors):
    anchors = np.asarray(anchors, dtype=np.float64)
    m = anchors.shape[0]
    return TypeSubspaceParams(block_store("type", {"t": (anchors, [0], np.full((1, m), 1.0 / m))}, anchors.shape[1]))


class TestEffectiveRank:
    def test_zero_matrix(self):
        assert effective_rank(np.zeros((4, 4))) == 0

    def test_zero_matrix_takes_no_svd(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("unexpected SVD")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        assert effective_rank(np.zeros((4, 4))) == 0

    def test_identity(self):
        assert effective_rank(np.eye(4), 1e-3) == 4

    def test_threshold_rule(self):
        m = np.diag([5.0, 3.0, 1e-9])
        assert effective_rank(m, 1e-3) == 2

    def test_relative_to_sigma_one(self):
        # threshold is rank_eps * max(sigma_1, 1): matrices with sigma_1 < 1
        # fall back to the absolute scale 1.
        assert effective_rank(np.diag([0.5, 0.002]), 1e-3) == 2
        assert effective_rank(np.diag([0.5, 0.0005]), 1e-3) == 1
        # and large sigma_1 sets the scale relatively
        assert effective_rank(np.diag([5000.0, 1.0]), 1e-3) == 1

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = rng.normal(size=(5, 5))
            m[:, -2:] = 0.0
            q1, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            q2, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            assert effective_rank(q1 @ m @ q2) == effective_rank(m)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            effective_rank(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_finite_values_whose_squares_overflow(self):
        # The sum of squares overflows, so the exact finiteness test decides.
        assert effective_rank(1e200 * np.eye(3)) == 3


class TestTypeSubspace:
    def test_coincident_anchors(self):
        summary = type_subspace(types_with_anchors(np.ones((3, 2))), "t")
        assert summary.effective_dim == 0
        assert summary.basis.shape == (0, 2)

    def test_line_through_anchors(self):
        summary = type_subspace(types_with_anchors([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), "t")
        assert summary.effective_dim == 1
        assert abs(abs(summary.basis[0] @ np.array([1.0, 0.0])) - 1.0) < 1e-12

    def test_unknown_type(self):
        with pytest.raises(KeyError):
            type_subspace(types_with_anchors(np.ones((3, 2))), "nope")

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(1)
        anchors = rng.normal(size=(5, 4))
        summary = type_subspace(types_with_anchors(anchors), "t")
        gram = summary.basis @ summary.basis.T
        assert np.allclose(gram, np.eye(summary.effective_dim), atol=1e-9)

    def test_singular_values_descending(self):
        rng = np.random.default_rng(2)
        summary = type_subspace(types_with_anchors(rng.normal(size=(4, 3))), "t")
        sv = list(summary.singular_values)
        assert sv == sorted(sv, reverse=True)


class TestProjectToSubspace:
    def test_point_in_subspace_unchanged(self):
        summary = type_subspace(types_with_anchors([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]), "t")
        p = np.array([5.0, 0.0])
        assert np.allclose(project_to_subspace(p, summary), p)

    def test_empty_basis_returns_base(self):
        summary = type_subspace(types_with_anchors(np.full((3, 2), 7.0)), "t")
        assert np.allclose(project_to_subspace(np.array([1.0, 1.0]), summary), [7.0, 7.0])

    def test_projection_onto_x_axis(self):
        summary = type_subspace(types_with_anchors([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]), "t")
        assert np.allclose(project_to_subspace(np.array([1.0, 1.0]), summary), [1.0, 0.0])

    def test_idempotent_and_residual_orthogonal(self):
        rng = np.random.default_rng(3)
        anchors = rng.normal(size=(6, 5))
        summary = type_subspace(types_with_anchors(anchors), "t")
        for _ in range(10):
            p = rng.normal(scale=2.0, size=5)
            proj = project_to_subspace(p, summary)
            assert np.allclose(project_to_subspace(proj, summary), proj, atol=1e-9)
            resid = p - proj
            assert np.max(np.abs(summary.basis @ resid)) < 1e-9

    def test_dimension_mismatch(self):
        summary = type_subspace(types_with_anchors(np.zeros((3, 2))), "t")
        with pytest.raises(ValueError):
            project_to_subspace(np.zeros(3), summary)


class TestCentroid:
    def test_two_points(self):
        assert np.allclose(centroid([[0.0, 0.0], [2.0, 0.0]]), [1.0, 0.0])

    def test_single_point(self):
        assert np.allclose(centroid([[3.0, -1.0]]), [3.0, -1.0])

    def test_three_points(self):
        assert np.allclose(centroid([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]]), [3.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            centroid([])


class TestPointCloudRank:
    def test_planar_cloud(self):
        rng = np.random.default_rng(4)
        pts = np.zeros((50, 5))
        pts[:, :2] = rng.normal(size=(50, 2))
        pts += 3.0  # translation must not matter
        assert point_cloud_rank(pts) == 2
