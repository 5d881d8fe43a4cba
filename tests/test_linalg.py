import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (jacobi_singular_values, kkt_affine_project, pinv_apply,
                     power_norm)
from regsel.errors import NumericBreakdownError, RegularityError, ShapeError
from regsel.linalg import (as_matrix, as_vector, least_norm_solve,
                           operator_norm, svd)
from regsel.moduli import reg_linear

SQRT2 = np.sqrt(2.0)


def random_matrix(seed, rows, cols, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((rows, cols))


# ---------------------------------------------------------------------------
# validation helpers


def test_as_vector_accepts_scalar_and_rejects_nan():
    assert as_vector(3.0).shape == (1,)
    with pytest.raises(ShapeError):
        as_vector([1.0, np.nan])
    with pytest.raises(ShapeError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ShapeError):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(ShapeError):
        as_vector([])


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ShapeError):
        as_matrix([[np.inf]])
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# svd factorization invariants


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6),
       st.floats(1e-3, 1e3))
def test_svd_reconstruction_and_orthonormal_factors(rows, cols, seed, scale):
    a = random_matrix(seed, rows, cols, scale)
    fac = svd(a)
    smax = fac.s[0] if fac.s.size else 0.0
    k = fac.s.size
    recon = (fac.u[:, :k] * fac.s) @ fac.vt[:k]
    assert np.linalg.norm(recon - a) <= 1e-10 * (1.0 + smax)
    assert np.linalg.norm(fac.u.T @ fac.u - np.eye(rows)) <= 1e-10
    assert np.linalg.norm(fac.vt @ fac.vt.T - np.eye(cols)) <= 1e-10
    assert np.all(np.diff(fac.s) <= 0)


# ---------------------------------------------------------------------------
# operator_norm


def test_operator_norm_identity():
    assert operator_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-14)


def test_operator_norm_diagonal_vs_power_iteration():
    a = [[2.0, 0.0], [0.0, 1.0]]
    assert operator_norm(a) == pytest.approx(2.0, abs=1e-12)
    assert operator_norm(a) == pytest.approx(power_norm(a), abs=1e-10)


def test_operator_norm_rank_one_row():
    # explicit SVD of [[1,1]]: the single singular value is sqrt(2)
    assert operator_norm([[1.0, 1.0]]) == pytest.approx(SQRT2, abs=1e-14)


# ---------------------------------------------------------------------------
# sigma_min and the surjectivity verdict


def test_sigma_min_identity():
    assert svd(np.eye(2)).sigma_min == pytest.approx(1.0, abs=1e-14)


def test_sigma_min_rank_one_row():
    assert svd([[1.0, 1.0]]).sigma_min == pytest.approx(SQRT2, abs=1e-14)


def test_sigma_min_rank_deficient_square():
    fac = svd([[1.0, 0.0], [2.0, 0.0]])
    assert fac.sigma_min == pytest.approx(0.0, abs=1e-14)
    assert not fac.surjective


def test_sigma_min_rejects_tall():
    # more rows than columns: sigma_min 0, never surjective, modulus +inf
    fac = svd(np.ones((3, 2)))
    assert fac.sigma_min == 0.0
    assert not fac.surjective
    assert reg_linear(np.ones((3, 2))) == float("inf")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10 ** 6), st.floats(1e-6, 1e6))
def test_norm_and_sigma_scale_linearly(dim, seed, c):
    a = random_matrix(seed, dim, dim + 1)
    assert operator_norm(c * a) == pytest.approx(c * operator_norm(a), rel=1e-9)
    assert svd(c * a).sigma_min == pytest.approx(c * svd(a).sigma_min,
                                                 rel=1e-9)


def test_jacobi_oracle_cross_check():
    # module values against the rotation oracle on a fixed awkward matrix
    a = np.array([[3.0, 1.0, -2.0, 0.5],
                  [0.0, 1e-3, 4.0, 1.0],
                  [1.0, 1.0, 1.0, 1.0]])
    s_pkg = svd(a).s
    s_orc = jacobi_singular_values(a)
    assert np.max(np.abs(s_pkg - s_orc)) <= 1e-10 * s_orc[0]


@pytest.mark.parametrize("a, rank", [
    ([[3.0, 1.0, 0.0], [0.0, 2.0, 1.0]], 2),
    # the second row repeats the first up to a factor: rank one
    ([[1.0, 0.0, 2.0], [2.0, 0.0, 4.0]], 1),
    # one singular value below the cutoff counts as zero
    ([[1.0, 0.0], [0.0, 1e-12]], 1),
    (np.ones((3, 2)), 1),
])
def test_factorization_answers_from_one_cutoff(a, rank):
    a = np.asarray(a, dtype=float)
    fac = svd(a)
    rows = a.shape[0]
    assert fac.rank == rank
    assert fac.surjective == (rank == rows)
    if rows <= a.shape[1]:
        assert fac.sigma_min == pytest.approx(
            jacobi_singular_values(a)[rows - 1], abs=1e-14)
    else:
        assert fac.sigma_min == 0.0
    # least-norm solutions for right-hand sides in the range
    np.testing.assert_allclose(fac.right_inverse(),
                               np.linalg.pinv(a, rcond=1e-10), atol=1e-12)
    if fac.surjective:
        np.testing.assert_allclose(fac.right_inverse(),
                                   pinv_apply(a, np.eye(rows)), atol=1e-12)


# ---------------------------------------------------------------------------
# least_norm_solve


def test_least_norm_identity():
    np.testing.assert_allclose(least_norm_solve(np.eye(2), [1.0, 2.0]),
                               [1.0, 2.0], atol=1e-14)


def test_least_norm_symmetric_row():
    # minimal-norm point on x1 + x2 = 2 is (1, 1) by symmetry
    np.testing.assert_allclose(least_norm_solve([[1.0, 1.0]], [2.0]),
                               [1.0, 1.0], atol=1e-12)


def test_least_norm_against_kkt_oracle():
    op = [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    rhs = [2.0, 3.0]
    x = least_norm_solve(op, rhs)
    np.testing.assert_allclose(x, [1.0, 3.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(x, kkt_affine_project(op, rhs, np.zeros(3)),
                               atol=1e-12)


def test_least_norm_rejects_non_surjective():
    with pytest.raises(RegularityError):
        least_norm_solve([[1.0, 0.0], [2.0, 0.0]], [1.0, 1.0])
    with pytest.raises(RegularityError):
        least_norm_solve(np.ones((3, 2)), np.ones(3))


def test_least_norm_rejects_stacked_rhs():
    # one right-hand side per call; stacked columns are a shape error
    with pytest.raises(ShapeError, match="expected a vector"):
        least_norm_solve(np.eye(3), np.ones((3, 2)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 10 ** 6))
def test_least_norm_solves_and_is_minimal(rows, extra, seed):
    cols = rows + extra
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols))
    if not svd(a).surjective:  # vanishing probability, but stay honest
        return
    rhs = rng.standard_normal(rows)
    x = least_norm_solve(a, rhs)
    assert np.linalg.norm(a @ x - rhs) <= 1e-9 * (1.0 + np.linalg.norm(rhs))
    # any kernel-space perturbation must not shrink the norm
    fac = svd(a)
    kernel = fac.vt[rows:]
    for _ in range(10):
        if kernel.shape[0] == 0:
            break
        shift = kernel.T @ rng.standard_normal(kernel.shape[0])
        assert np.linalg.norm(x) <= np.linalg.norm(x + shift) + 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(0, 7), st.integers(0, 10 ** 6))
def test_least_norm_agrees_with_pinv_apply(rows, extra, seed):
    cols = min(8, rows + extra)
    if cols < rows:
        cols = rows
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols))
    if not svd(a).surjective:
        return
    rhs = rng.standard_normal(rows)
    # pinv_apply is the normal-equation reference in tests/oracles.py
    np.testing.assert_allclose(least_norm_solve(a, rhs), pinv_apply(a, rhs),
                               atol=1e-9 * (1.0 + np.linalg.norm(rhs)))


# ---------------------------------------------------------------------------
# the least-norm right inverse, against the normal-equation reference


def test_pinv_apply_scalar_inverse():
    np.testing.assert_allclose(least_norm_solve([[3.0]], [6.0]), [2.0],
                               atol=1e-14)
    np.testing.assert_allclose(svd([[3.0]]).right_inverse() @ [6.0], [2.0],
                               atol=1e-14)


def test_pinv_apply_symmetric_row():
    np.testing.assert_allclose(least_norm_solve([[1.0, 1.0]], [2.0]),
                               [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(pinv_apply([[1.0, 1.0]], [2.0]), [1.0, 1.0],
                               atol=1e-12)


def test_pinv_apply_permutation_swaps():
    perm = [[0.0, 1.0], [1.0, 0.0]]
    right = svd(perm).right_inverse()
    rng = np.random.default_rng(0)
    for _ in range(5):
        ab = rng.standard_normal(2)
        np.testing.assert_allclose(least_norm_solve(perm, ab), ab[::-1],
                                   atol=1e-13)
        np.testing.assert_allclose(right @ ab, ab[::-1], atol=1e-13)


def test_pinv_matrix_is_right_inverse():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 6))
    p = svd(a).right_inverse()
    np.testing.assert_allclose(a @ p, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(p, pinv_apply(a, np.eye(3)), atol=1e-10)


def test_pinv_rejects_non_surjective():
    with pytest.raises(RegularityError):
        least_norm_solve([[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
    assert not svd([[0.0, 0.0]]).surjective
    assert reg_linear([[0.0, 0.0]]) == float("inf")
