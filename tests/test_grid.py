import math

import numpy as np
import pytest

from masspcg import DimensionMismatchError, GridSpec, OperatorKind, SpectrumCapError, dot, norm2, spectrum_report
from masspcg.experiments import SolveMemoryError, check_solve_memory
from masspcg.grid import check_vector


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 33])
def test_spec_derived_quantities(d, n):
    spec = GridSpec(d, n)
    assert spec.h == 1.0 / (n + 1)
    assert spec.size == n**d


@pytest.mark.parametrize("d", [0, 4, -1])
def test_bad_dimension_rejected(d):
    with pytest.raises(ValueError):
        GridSpec(d, 4)


@pytest.mark.parametrize("n", [0, -3])
def test_bad_size_rejected(n):
    with pytest.raises(ValueError):
        GridSpec(2, n)


@pytest.mark.parametrize("d, n", [(np.int64(3), 5), (3, np.int64(5)), (np.int32(3), np.uint16(5))])
def test_numpy_integers_stored_as_python_ints(d, n):
    spec = GridSpec(d, n)
    assert type(spec.d) is int and type(spec.n) is int
    assert spec == GridSpec(3, 5)


def test_numpy_integer_n_cannot_wrap_the_resource_checks():
    # with n stored as np.int64, n**d wrapped around: size read -2**63, so
    # the memory check passed, and the scan count read 0, under the cap
    spec = GridSpec(3, np.int64(2**21))
    assert spec.size == 2**63
    with pytest.raises(SolveMemoryError):
        check_solve_memory(spec)
    with pytest.raises(SpectrumCapError):
        spectrum_report(OperatorKind.PRECONDITIONED, GridSpec(3, np.int64(2**32)))


def test_non_integer_dimension_rejected():
    with pytest.raises(ValueError):
        GridSpec(3.0, 4)


def test_spec_is_immutable():
    spec = GridSpec(2, 4)
    with pytest.raises(Exception):
        spec.n = 8


def test_check_vector_accepts_flat_and_casts():
    spec = GridSpec(2, 3)
    u = check_vector(spec, np.arange(9, dtype=np.int64))
    assert u.dtype == np.float64
    np.testing.assert_array_equal(u, np.arange(9.0))


def test_check_vector_rejects_wrong_length():
    spec = GridSpec(2, 3)
    with pytest.raises(DimensionMismatchError):
        check_vector(spec, np.zeros(8))


def test_check_vector_rejects_wrong_shape():
    spec = GridSpec(2, 3)
    with pytest.raises(DimensionMismatchError):
        check_vector(spec, np.zeros((3, 3)))


def test_dot_norm_agree_with_numpy():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(50)
    v = rng.standard_normal(50)
    assert dot(u, v) == pytest.approx(float(u @ v), rel=1e-15)
    assert norm2(u) == pytest.approx(float(np.linalg.norm(u)), rel=1e-15)


@pytest.mark.parametrize("size", [1, 2, 7, 100, 4097, 1 << 20, (1 << 21) + 5])
def test_norm2_is_sqrt_of_dot_bitwise(size):
    # the solver takes ||r|| as sqrt(dot(r, r)) to share one reduction with
    # <z, r>; numpy's norm of a real 1-D vector is sqrt(x.dot(x))
    u = np.random.default_rng(size).standard_normal(size) * 1e-3
    assert norm2(u).hex() == math.sqrt(dot(u, u)).hex()


def test_dot_rejects_mismatched_lengths():
    with pytest.raises(DimensionMismatchError):
        dot(np.zeros(3), np.zeros(4))
