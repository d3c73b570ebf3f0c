"""Numerical check that basis rotation commutes with inner-product scoring.

The retrieval engine scores queries against a set of target directions.  If
those directions form an orthonormal basis, the scoring can be re-expressed
in any other orthonormal basis by rotating the query once with a change-of-
basis matrix; scores, norms, and therefore rankings are preserved exactly up
to double-precision round-off.  This module builds small dense instances and
measures how far from zero the deviation actually is.

Everything here is exact linear algebra on doubles; the tolerance of 1e-10
leaves two orders of magnitude of headroom over accumulated round-off at the
dimensions used (n <= 256).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class OrthonormalBasis:
    """Square matrix whose columns are the basis vectors."""

    dim: int
    columns: np.ndarray

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.columns.shape != (self.dim, self.dim):
            raise ValueError("columns must be a (dim, dim) matrix")
        gram_err = np.abs(self.columns.T @ self.columns - np.eye(self.dim)).max()
        if gram_err > ORTHO_TOL:
            raise ValueError(f"columns are not orthonormal (error {gram_err:.3e})")
        self.columns.setflags(write=False)


@dataclass(frozen=True)
class ChangeOfBasis:
    """Orthogonal matrix mapping coordinates between two bases."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n):
            raise ValueError("matrix must be square")
        err = np.abs(self.matrix @ self.matrix.T - np.eye(n)).max()
        if err > ORTHO_TOL:
            raise ValueError(f"matrix is not orthogonal (error {err:.3e})")
        self.matrix.setflags(write=False)


def random_orthonormal_basis(n: int, seed: int) -> OrthonormalBasis:
    """Seeded random basis: QR of a Gaussian matrix, sign-fixed.

    Forcing the R factor's diagonal positive makes the decomposition unique,
    so the same seed always yields the same basis.  For n=1 this degenerates
    to [[1]] or [[-1]] depending on the Gaussian draw.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs[None, :]
    return OrthonormalBasis(dim=n, columns=q)


def change_of_basis(a: OrthonormalBasis, bm: OrthonormalBasis) -> ChangeOfBasis:
    """Matrix P with P @ bm.columns == a.columns.

    Entry (i, j) is the inner product of the i-th row direction of the first
    basis with the j-th of the second; orthogonality of both inputs makes P
    orthogonal as well.
    """
    if a.dim != bm.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {bm.dim}")
    if np.array_equal(a.columns, bm.columns):
        # Between a basis and itself the map is the identity; computing
        # A @ A.T would blur that with round-off.
        return ChangeOfBasis(matrix=np.eye(a.dim))
    p = a.columns @ bm.columns.T
    return ChangeOfBasis(matrix=p)


def _scorings(
    inputs: np.ndarray, f_l: OrthonormalBasis, r: OrthonormalBasis
) -> tuple[np.ndarray, np.ndarray]:
    """Direct and deferred scores, each (num_inputs, n).

    The direct score of a raw vector x is its inner product with each column
    of ``f_l``; the deferred score rotates it to P x, with
    P = r.columns @ f_l.columns.T carrying ``f_l`` coordinates onto ``r``
    coordinates, and scores that against the columns of ``r``.
    """
    if f_l.dim != r.dim:
        raise ValueError(f"dimension mismatch: {f_l.dim} vs {r.dim}")
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if inputs.shape[1] != f_l.dim:
        raise ValueError("input vectors must match the basis dimension")
    p = change_of_basis(r, f_l).matrix
    return inputs @ f_l.columns, (inputs @ p.T) @ r.columns


def verify_deferred_equivalence(
    inputs: np.ndarray, f_l: OrthonormalBasis, r: OrthonormalBasis
) -> float:
    """Max deviation between direct scoring and rotate-then-score.

    Returns the largest absolute score difference over all (input, column)
    pairs; exact arithmetic would give zero.
    """
    direct, deferred = _scorings(inputs, f_l, r)
    return float(np.abs(direct - deferred).max())


def cosine_deviation(
    inputs: np.ndarray, f_l: OrthonormalBasis, r: OrthonormalBasis
) -> float:
    """Same check under cosine similarity; rotation preserves norms."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    norms = np.linalg.norm(inputs, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("cosine similarity is undefined for zero vectors")
    return verify_deferred_equivalence(inputs / norms, f_l, r)


def argmax_invariant(
    inputs: np.ndarray, f_l: OrthonormalBasis, r: OrthonormalBasis
) -> bool:
    """True when both scorings pick the same best column for every input."""
    direct, deferred = _scorings(inputs, f_l, r)
    return bool(
        np.array_equal(np.argmax(direct, axis=1), np.argmax(deferred, axis=1))
    )
