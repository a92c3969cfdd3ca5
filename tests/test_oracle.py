import numpy as np
import pytest

from masspcg import GridSpec, OperatorKind, eigenvalue
from oracle import (
    DENSE_SIZE_CAP,
    apply_operator,
    assemble_dense,
    rayleigh_eigenvalues,
    sine_vector,
)

ALL_KINDS = list(OperatorKind)
SMALL_SPECS = [GridSpec(d, n) for d in (1, 2, 3) for n in (1, 2, 3, 5, 8)]


def test_dense_laplacian_1d_by_hand():
    A = assemble_dense(OperatorKind.LAPLACIAN, GridSpec(1, 2))
    np.testing.assert_allclose(A, 9.0 * np.array([[2.0, -1.0], [-1.0, 2.0]]))


def test_dense_mass_1d_by_hand():
    M = assemble_dense(OperatorKind.MASS, GridSpec(1, 2))
    np.testing.assert_allclose(M, np.array([[4.0, 1.0], [1.0, 4.0]]) / 54.0)


def test_dense_mass_2d_is_kronecker_square():
    M1 = np.array([[4.0, 1.0], [1.0, 4.0]]) / 18.0  # (h/6) factor at h = 1/3
    M2 = assemble_dense(OperatorKind.MASS, GridSpec(2, 2))
    np.testing.assert_allclose(M2, np.kron(M1, M1), rtol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_dense_matches_matrix_free(kind, spec):
    D = assemble_dense(kind, spec)
    rng = np.random.default_rng(59)
    for _ in range(50):
        u = rng.standard_normal(spec.size)
        dense = D @ u
        free = apply_operator(kind, spec, u)
        np.testing.assert_allclose(free, dense, rtol=1e-13, atol=1e-13 * np.linalg.norm(dense))


@pytest.mark.parametrize("kind", [OperatorKind.LAPLACIAN, OperatorKind.MASS])
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_dense_symmetry_and_positive_diagonal(kind, spec):
    D = assemble_dense(kind, spec)
    np.testing.assert_allclose(D, D.T, rtol=1e-14)
    assert np.all(np.diag(D) > 0)


def test_dense_preconditioned_positive_diagonal():
    D = assemble_dense(OperatorKind.PRECONDITIONED, GridSpec(2, 4))
    assert np.all(np.diag(D) > 0)


def test_size_cap_enforced():
    with pytest.raises(ValueError):
        assemble_dense(OperatorKind.LAPLACIAN, GridSpec(3, 17))  # 4913 > cap
    assert DENSE_SIZE_CAP == 4096


def test_sine_vector_validation():
    with pytest.raises(ValueError):
        sine_vector(GridSpec(2, 4), (1,))


def test_rayleigh_trivial_value():
    # d=1, n=3, k=2: cosine vanishes and the Laplacian eigenvalue is 2/h^2 = 32
    pairs = rayleigh_eigenvalues(OperatorKind.LAPLACIAN, GridSpec(1, 3))
    entry = next(p for p in pairs if p.index == (2,))
    assert entry.value == pytest.approx(32.0, rel=1e-13)
    assert entry.residual <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("spec", [GridSpec(1, 4), GridSpec(2, 2), GridSpec(2, 5), GridSpec(3, 3)], ids=str)
def test_rayleigh_matches_closed_forms(kind, spec):
    for entry in rayleigh_eigenvalues(kind, spec):
        assert entry.value == pytest.approx(eigenvalue(kind, spec, entry.index), rel=1e-12)
        assert entry.residual <= 1e-10


def test_rayleigh_covers_every_index():
    spec = GridSpec(2, 3)
    pairs = rayleigh_eigenvalues(OperatorKind.MASS, spec)
    assert len(pairs) == spec.size
    assert len({p.index for p in pairs}) == spec.size
