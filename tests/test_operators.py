import numpy as np
import pytest

from masspcg import (
    DimensionMismatchError,
    GridSpec,
    OperatorKind,
    apply_laplacian,
    apply_mass,
    apply_operator,
    apply_preconditioned,
    dot,
    eigenvalue,
)
from oracle import reference_laplacian, reference_mass, sine_vector

ALL_KINDS = list(OperatorKind)
SMALL_SPECS = [GridSpec(d, n) for d in (1, 2, 3) for n in (1, 2, 3, 5, 8)]


def random_vector(spec, rng):
    return rng.standard_normal(spec.size)


def test_laplacian_1d_by_hand():
    # h = 1/3, interior row pattern (-1, 2, -1)/h^2
    spec = GridSpec(1, 2)
    np.testing.assert_allclose(apply_laplacian(spec, np.array([1.0, 0.0])), [18.0, -9.0])
    np.testing.assert_allclose(apply_laplacian(spec, np.array([0.0, 1.0])), [-9.0, 18.0])


def test_laplacian_2d_by_hand():
    # n=2, h=1/3: center coefficient 4/h^2 = 36, neighbors -9
    spec = GridSpec(2, 2)
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(apply_laplacian(spec, e0), [36.0, -9.0, -9.0, 0.0])


def test_mass_1d_by_hand():
    # row pattern h*(h/6)*(1, 4, 1) with h = 1/3
    spec = GridSpec(1, 2)
    u = np.array([1.0, 0.0])
    np.testing.assert_allclose(apply_mass(spec, u), [4.0 / 54.0, 1.0 / 54.0])


def test_constant_vector_laplacian_boundary():
    # constant input: interior rows cancel, boundary-adjacent rows see the
    # Dirichlet zero closure
    spec = GridSpec(1, 4)
    out = apply_laplacian(spec, np.ones(4))
    np.testing.assert_allclose(out, np.array([1.0, 0.0, 0.0, 1.0]) / spec.h**2)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_linearity(kind, spec):
    rng = np.random.default_rng(11)
    u = random_vector(spec, rng)
    v = random_vector(spec, rng)
    left = apply_operator(kind, spec, 2.0 * u - 3.0 * v)
    right = 2.0 * apply_operator(kind, spec, u) - 3.0 * apply_operator(kind, spec, v)
    np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", [OperatorKind.LAPLACIAN, OperatorKind.MASS])
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_symmetry(kind, spec):
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = random_vector(spec, rng)
        v = random_vector(spec, rng)
        left = dot(apply_operator(kind, spec, u), v)
        right = dot(u, apply_operator(kind, spec, v))
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", [OperatorKind.LAPLACIAN, OperatorKind.MASS])
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_positive_definite(kind, spec):
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = random_vector(spec, rng)
        assert dot(apply_operator(kind, spec, u), u) > 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_sine_vectors_are_eigenvectors(kind, spec):
    rng = np.random.default_rng(17)
    tuples = rng.integers(1, spec.n + 1, size=(5, spec.d))
    for k in tuples:
        k = tuple(int(x) for x in k)
        v = sine_vector(spec, k)
        lam = eigenvalue(kind, spec, k)
        np.testing.assert_allclose(apply_operator(kind, spec, v), lam * v,
                                   rtol=1e-10, atol=1e-12 * abs(lam))


def test_preconditioned_is_composition():
    spec = GridSpec(2, 5)
    rng = np.random.default_rng(1)
    u = random_vector(spec, rng)
    np.testing.assert_allclose(
        apply_preconditioned(spec, u),
        apply_mass(spec, apply_laplacian(spec, u)),
        rtol=1e-14,
    )


@pytest.mark.parametrize("d", [2, 3])
def test_laplacian_kronecker_sum_identity(d):
    # A_d on a tensor-product vector is the sum over axes of the 1D operator
    # acting on that factor alone
    n = 6
    spec = GridSpec(d, n)
    spec1 = GridSpec(1, n)
    rng = np.random.default_rng(23)
    factors = [rng.standard_normal(n) for _ in range(d)]

    def kron_all(vectors):
        out = vectors[0]
        for v in vectors[1:]:
            out = np.kron(out, v)
        return out

    u = kron_all(factors)
    expected = np.zeros(spec.size)
    for axis in range(d):
        parts = list(factors)
        parts[axis] = apply_laplacian(spec1, factors[axis])
        expected += kron_all(parts)
    np.testing.assert_allclose(apply_laplacian(spec, u), expected, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("d", [2, 3])
def test_mass_kronecker_product_identity(d):
    # M_d on a tensor product factors into 1D tridiagonal sweeps times the
    # dimensional scale h**(2-d)
    n = 6
    spec = GridSpec(d, n)
    spec1 = GridSpec(1, n)
    rng = np.random.default_rng(29)
    factors = [rng.standard_normal(n) for _ in range(d)]
    swept = [apply_mass(spec1, f) / spec1.h for f in factors]

    u = factors[0]
    expected = swept[0]
    for f, s in zip(factors[1:], swept[1:]):
        u = np.kron(u, f)
        expected = np.kron(expected, s)
    np.testing.assert_allclose(apply_mass(spec, u), spec.h ** (2 - d) * expected,
                               rtol=1e-12, atol=1e-14)


def test_apply_does_not_mutate_input():
    spec = GridSpec(2, 4)
    rng = np.random.default_rng(2)
    u = random_vector(spec, rng)
    saved = u.copy()
    for kind in ALL_KINDS:
        apply_operator(kind, spec, u)
    np.testing.assert_array_equal(u, saved)


def test_wrong_size_input_rejected():
    spec = GridSpec(2, 4)
    with pytest.raises(DimensionMismatchError):
        apply_laplacian(spec, np.zeros(15))
    with pytest.raises(DimensionMismatchError):
        apply_mass(spec, np.zeros((4, 4)))


# Grids whose slabs of whole axis-0 planes (at most SLAB = 65,536 unknowns)
# split the grid, with halos crossing slab edges: 1D 2 and 3 slabs, 2D 2 and
# 5, 3D one slab (n=5), 17 and 32 slabs.
TILED_SPECS = [GridSpec(1, 65537), GridSpec(1, 140001), GridSpec(2, 257), GridSpec(2, 513),
               GridSpec(3, 5), GridSpec(3, 97), GridSpec(3, 128)]


@pytest.mark.parametrize("spec", TILED_SPECS, ids=str)
def test_tiled_operators_match_whole_array_reference_bitwise(spec):
    # the tiled sweeps make the same operations in the same order per element
    # as the whole-array reference, so equality is exact; the out buffer is
    # dirty and reused across both operators
    rng = np.random.default_rng(spec.n)
    u = random_vector(spec, rng)
    out = np.full(spec.size, np.nan)
    assert apply_laplacian(spec, u, out=out) is out
    assert np.array_equal(out, reference_laplacian(spec, u))
    assert apply_mass(spec, u, out=out) is out
    assert np.array_equal(out, reference_mass(spec, u))
    assert np.array_equal(apply_mass(spec, u), out)


@pytest.mark.parametrize("apply", [apply_laplacian, apply_mass])
def test_out_sharing_memory_with_input_rejected(apply):
    spec = GridSpec(2, 4)
    u = np.arange(spec.size, dtype=np.float64)
    with pytest.raises(ValueError, match="share memory"):
        apply(spec, u, out=u)
    buffer = np.zeros(2 * spec.size)
    with pytest.raises(ValueError, match="share memory"):
        apply(spec, buffer[: spec.size], out=buffer[1 : spec.size + 1])


@pytest.mark.parametrize("apply", [apply_laplacian, apply_mass])
def test_bad_out_rejected(apply):
    spec = GridSpec(2, 4)
    u = np.ones(spec.size)
    with pytest.raises(DimensionMismatchError):
        apply(spec, u, out=np.zeros(spec.size + 1))
    with pytest.raises(ValueError, match="float64"):
        apply(spec, u, out=np.zeros(spec.size, dtype=np.float32))
    with pytest.raises(ValueError, match="contiguous"):
        apply(spec, u, out=np.zeros(2 * spec.size)[::2])
