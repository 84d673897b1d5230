import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from saddlesim.spectral import (
    NoNegativeEigenvalue,
    NotMorse,
    NotSymmetric,
    SingleGroup,
    Spectrum,
    WrongRadius,
    decompose,
    group_eigenvalues,
    project,
    theta_full,
)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


class TestDecompose:
    def test_diagonal_two_by_two(self):
        spec = decompose(np.diag([2.0, -1.0]))
        assert_allclose(spec.eigenvalues, [2.0, -1.0], atol=1e-14)
        assert spec.big_l == pytest.approx(2.0)
        assert spec.beta == pytest.approx(1.0)
        # only one group boundary here, between 2 and -1
        assert spec.delta == pytest.approx(3.0)
        assert tuple(spec.stable_idx) == (0,)
        assert tuple(spec.unstable_idx) == (1,)
        assert spec.groups == ((0,), (1,))
        assert spec.dim == 2

    def test_eigenvalues_sorted_descending(self):
        spec = decompose(random_symmetric(8, 0) + np.diag([3.0] * 4 + [-3.0] * 4))
        assert np.all(np.diff(spec.eigenvalues) <= 0)

    def test_reconstruction(self):
        a = random_symmetric(12, 1) + np.diag([4.0] * 6 + [-4.0] * 6)
        spec = decompose(a)
        v, lam = spec.eigenvectors, spec.eigenvalues
        assert_allclose(v.T @ v, np.eye(12), atol=1e-10)
        assert_allclose(v @ np.diag(lam) @ v.T, a, atol=1e-9)

    def test_sign_convention(self):
        # the largest-magnitude component of every eigenvector is positive,
        # which pins the basis down to a reproducible choice
        spec = decompose(random_symmetric(9, 2) + np.diag([3.0] * 5 + [-3.0] * 4))
        for col in spec.eigenvectors.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            decompose(np.array([[1.0, 0.5], [0.0, -1.0]]))

    def test_rejects_near_zero_eigenvalue(self):
        with pytest.raises(NotMorse):
            decompose(np.diag([1.0, 1e-12, -1.0]))

    def test_rejects_positive_definite(self):
        with pytest.raises(NoNegativeEigenvalue):
            decompose(np.diag([2.0, 1.0]))

    def test_rejects_scalar_matrix(self):
        with pytest.raises(ValueError):
            decompose(np.array([[-1.0]]))


class TestGrouping:
    def test_near_degenerate_pair_merges(self):
        spec = decompose(np.diag([1.0 + 1e-9, 1.0, -1.0]))
        assert spec.groups == ((0, 1), (2,))
        # delta is measured between groups, so the 1e-9 gap does not count
        assert spec.delta == pytest.approx(2.0)

    def test_explicit_group_gap(self):
        spec = decompose(np.diag([1.0, 0.9, -1.0]))
        merged = group_eigenvalues(spec, group_gap=0.5)
        assert merged.groups == ((0, 1), (2,))
        assert merged.delta == pytest.approx(1.9)
        split = group_eigenvalues(spec, group_gap=0.01)
        assert split.groups == ((0,), (1,), (2,))
        assert split.delta == pytest.approx(0.1)

    def test_single_group_rejected(self):
        spec = decompose(np.diag([1.0, -1.0]))
        with pytest.raises(SingleGroup):
            group_eigenvalues(spec, group_gap=5.0)

    def test_repeated_eigenvalues_share_a_group(self):
        # Half the consecutive gaps are zero, so the median gap is zero too.
        spec = decompose(np.diag([1.0, 1.0, -1.0, -1.0]))
        assert spec.groups == ((0, 1), (2, 3))
        assert spec.delta == pytest.approx(2.0)

    def test_cross_group_mask(self):
        spec = decompose(np.diag([1.0 + 1e-9, 1.0, -1.0]))
        expected = np.array(
            [[False, False, True], [False, False, True], [True, True, False]]
        )
        np.testing.assert_array_equal(spec.cross_group, expected)
        assert spec.cross_group is spec.cross_group
        with pytest.raises(ValueError):
            spec.cross_group[0, 0] = True

    def test_cross_gaps(self):
        spec = decompose(np.diag([1.0 + 1e-9, 1.0, -1.0]))
        lam = spec.eigenvalues
        expected = np.where(spec.cross_group, lam[None, :] - lam[:, None], 1.0)
        np.testing.assert_array_equal(spec.cross_gaps, expected)
        assert spec.cross_gaps is spec.cross_gaps
        with pytest.raises(ValueError):
            spec.cross_gaps[0, 2] = 1.0

    def test_grouping_invariant_under_conjugation(self):
        # same spectrum seen through a rotated basis gives the same partition
        a = np.diag([2.0, 1.99, 0.5, -0.5, -2.0])
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 5)))[0]
        s1 = decompose(a)
        s2 = decompose(q @ a @ q.T)
        assert s1.groups == s2.groups
        assert s2.delta == pytest.approx(s1.delta, rel=1e-10)

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_groups_partition_all_indices(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        lam = rng.uniform(0.2, 3.0, size=n)
        lam[rng.integers(0, n)] *= -1.0
        try:
            spec = decompose(np.diag(lam))
        except (NoNegativeEigenvalue, NotMorse):
            return
        flat = sorted(i for g in spec.groups for i in g)
        assert flat == list(range(n))
        for g in spec.groups:
            assert list(g) == sorted(g)


class TestProject:
    def setup_method(self):
        self.spec = decompose(np.diag([1.0, -1.0]))
        self.eps = 0.1

    def test_point_on_sphere(self):
        u0 = self.eps * np.array([0.995, 0.0999])
        proj = project(u0, self.spec, self.eps)
        assert_allclose(proj.theta_s, [0.995], atol=1e-14)
        assert_allclose(proj.theta_us, [0.0999], atol=1e-14)
        assert proj.eps == self.eps

    def test_amplitudes_nonnegative_and_reconstruct(self):
        u0 = self.eps * np.array([-0.6, 0.8])
        proj = project(u0, self.spec, self.eps)
        assert np.all(proj.theta_s >= 0) and np.all(proj.theta_us >= 0)
        assert proj.signs.shape == (2,) and set(proj.signs) <= {-1.0, 1.0}
        theta = theta_full(proj, self.spec)
        assert_allclose(self.eps * self.spec.eigenvectors @ (proj.signs * theta), u0, atol=1e-14)

    def test_wrong_radius(self):
        with pytest.raises(WrongRadius):
            project(np.array([0.12, 0.0]), self.spec, self.eps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_offset_is_wrong_radius(self, bad):
        with pytest.raises(WrongRadius):
            project(np.array([bad, 0.0]), self.spec, self.eps)

    def test_random_points_round_trip(self):
        spec = decompose(random_symmetric(7, 5) + np.diag([3.0] * 4 + [-3.0] * 3))
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = rng.standard_normal(7)
            u0 = 0.05 * d / np.linalg.norm(d)
            proj = project(u0, spec, 0.05)
            theta = theta_full(proj, spec)
            assert_allclose(0.05 * spec.eigenvectors @ (proj.signs * theta), u0, atol=1e-12)
            assert np.sum(theta**2) == pytest.approx(1.0, rel=1e-10)


def test_spectrum_is_frozen():
    spec = decompose(np.diag([1.0, -1.0]))
    with pytest.raises(AttributeError):
        spec.big_l = 3.0
    assert isinstance(spec, Spectrum)
