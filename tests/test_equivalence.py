"""Basis-rotation equivalence: orthogonality, deviation bounds, invariance."""
from __future__ import annotations

import numpy as np
import pytest

from sparsix.equivalence import (
    ORTHO_TOL,
    ChangeOfBasis,
    OrthonormalBasis,
    argmax_invariant,
    change_of_basis,
    cosine_deviation,
    random_orthonormal_basis,
    verify_deferred_equivalence,
)


def gaussian_inputs(num, n, seed):
    return np.random.Generator(np.random.PCG64(seed)).standard_normal((num, n))


class TestBasisConstruction:
    def test_columns_orthonormal(self):
        for n in (1, 2, 8, 32, 128):
            basis = random_orthonormal_basis(n, seed=n)
            gram = basis.columns.T @ basis.columns
            assert np.abs(gram - np.eye(n)).max() <= ORTHO_TOL

    def test_unit_norm_columns(self):
        basis = random_orthonormal_basis(16, seed=5)
        norms = np.linalg.norm(basis.columns, axis=0)
        assert np.abs(norms - 1.0).max() <= ORTHO_TOL

    def test_one_dimensional_is_sign(self):
        b = random_orthonormal_basis(1, seed=0)
        assert b.columns.shape == (1, 1)
        assert abs(abs(b.columns[0, 0]) - 1.0) <= ORTHO_TOL

    def test_seed_determinism(self):
        a = random_orthonormal_basis(24, seed=123)
        b = random_orthonormal_basis(24, seed=123)
        assert np.array_equal(a.columns, b.columns)
        c = random_orthonormal_basis(24, seed=124)
        assert not np.array_equal(a.columns, c.columns)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            OrthonormalBasis(dim=2, columns=np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OrthonormalBasis(dim=3, columns=np.eye(2))

    def test_columns_frozen(self):
        basis = random_orthonormal_basis(4, seed=1)
        with pytest.raises(ValueError):
            basis.columns[0, 0] = 5.0


class TestChangeOfBasis:
    def test_maps_second_basis_onto_first(self):
        a = random_orthonormal_basis(32, seed=10)
        bm = random_orthonormal_basis(32, seed=11)
        p = change_of_basis(a, bm).matrix
        assert np.abs(p @ bm.columns - a.columns).max() <= ORTHO_TOL

    def test_same_basis_gives_exact_identity(self):
        a = random_orthonormal_basis(16, seed=3)
        p = change_of_basis(a, a).matrix
        assert np.array_equal(p, np.eye(16))

    def test_negated_basis_gives_near_negative_identity(self):
        a = random_orthonormal_basis(16, seed=3)
        neg = OrthonormalBasis(dim=16, columns=-a.columns)
        p = change_of_basis(a, neg).matrix
        # not array_equal territory: this path goes through the product
        assert np.allclose(p, -np.eye(16), atol=ORTHO_TOL)

    def test_matrix_is_orthogonal(self):
        a = random_orthonormal_basis(64, seed=7)
        bm = random_orthonormal_basis(64, seed=8)
        p = change_of_basis(a, bm).matrix
        assert np.abs(p @ p.T - np.eye(64)).max() <= ORTHO_TOL

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            change_of_basis(random_orthonormal_basis(4, 0), random_orthonormal_basis(5, 0))

    def test_non_orthogonal_matrix_rejected(self):
        with pytest.raises(ValueError):
            ChangeOfBasis(matrix=np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestDeferredScoring:
    @pytest.mark.parametrize("n", [2, 8, 32, 128, 256])
    def test_deviation_within_tolerance(self, n):
        f_l = random_orthonormal_basis(n, seed=100 + n)
        r = random_orthonormal_basis(n, seed=200 + n)
        x = gaussian_inputs(100, n, seed=n)
        assert verify_deferred_equivalence(x, f_l, r) <= ORTHO_TOL

    def test_identical_bases_deviate_exactly_zero(self):
        """The self-rotation short-circuits to the identity, so no round-off."""
        f_l = random_orthonormal_basis(32, seed=4)
        x = gaussian_inputs(50, 32, seed=9)
        assert verify_deferred_equivalence(x, f_l, f_l) == 0.0

    def test_single_vector_accepted(self):
        f_l = random_orthonormal_basis(8, seed=1)
        r = random_orthonormal_basis(8, seed=2)
        x = gaussian_inputs(1, 8, seed=3)[0]
        assert verify_deferred_equivalence(x, f_l, r) <= ORTHO_TOL

    def test_inner_products_preserved(self):
        """Rotation preserves pairwise inner products of the inputs too."""
        r = random_orthonormal_basis(32, seed=21)
        f_l = random_orthonormal_basis(32, seed=22)
        p = change_of_basis(r, f_l).matrix
        x = gaussian_inputs(20, 32, seed=23)
        rot = x @ p.T
        assert np.abs(rot @ rot.T - x @ x.T).max() <= 1e-10

    def test_cosine_deviation_small(self):
        f_l = random_orthonormal_basis(32, seed=31)
        r = random_orthonormal_basis(32, seed=32)
        x = gaussian_inputs(40, 32, seed=33)
        assert cosine_deviation(x, f_l, r) <= ORTHO_TOL

    def test_cosine_rejects_zero_vector(self):
        f_l = random_orthonormal_basis(4, seed=1)
        r = random_orthonormal_basis(4, seed=2)
        x = np.zeros((1, 4))
        with pytest.raises(ValueError):
            cosine_deviation(x, f_l, r)

    def test_argmax_invariant_holds(self):
        for n in (8, 32, 128):
            f_l = random_orthonormal_basis(n, seed=300 + n)
            r = random_orthonormal_basis(n, seed=400 + n)
            x = gaussian_inputs(100, n, seed=500 + n)
            assert argmax_invariant(x, f_l, r)

    def test_input_dim_checked(self):
        f_l = random_orthonormal_basis(8, seed=1)
        r = random_orthonormal_basis(8, seed=2)
        for check in (verify_deferred_equivalence, argmax_invariant):
            with pytest.raises(ValueError, match="input vectors must match the basis dimension"):
                check(np.zeros((3, 7)), f_l, r)

    def test_basis_dim_mismatch_checked(self):
        with pytest.raises(ValueError):
            verify_deferred_equivalence(
                np.zeros((1, 4)), random_orthonormal_basis(4, 0), random_orthonormal_basis(5, 0)
            )
