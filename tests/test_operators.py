import collections
import ctypes
import functools
import re
import subprocess
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import masspcg._native as native
import masspcg._sweeps as sweeps
import masspcg.operators as operators
from masspcg import (
    DimensionMismatchError,
    GridSpec,
    OperatorKind,
    apply_laplacian,
    apply_mass,
    dot,
    eigenvalue,
)
from oracle import apply_operator, reference_laplacian, reference_mass, sine_vector

try:
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as CPU_FEATURES

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
        apply_operator(OperatorKind.PRECONDITIONED, spec, u),
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


@pytest.mark.parametrize("apply", [apply_laplacian, apply_mass])
def test_complex_input_rejected(apply):
    # the float64 cast would silently keep the real part alone
    spec = GridSpec(2, 4)
    with pytest.raises(TypeError, match="^u is complex"):
        apply(spec, np.ones(spec.size) + 1j)
    with pytest.raises(TypeError, match="^u is complex"):
        apply(spec, np.ones(spec.size, dtype=np.complex64), out=np.zeros(spec.size))


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
    # the compiled kernels take a bare pointer, so nothing else would stop
    # them writing into a read-only buffer
    read_only = np.zeros(spec.size)
    read_only.flags.writeable = False
    with pytest.raises(ValueError, match="writeable"):
        apply(spec, u, out=read_only)
    assert not read_only.any()


def test_compiled_kernels_refuse_a_bare_array():
    # every vector reaches the library as a Vector made by its bind, which
    # keeps the array alive; a bare ndarray is refused before the call, not
    # passed on as a raw pointer
    if native.compiler() is None:
        pytest.skip("no C compiler")
    u, v, w, out = np.ones(4), np.ones(4), np.ones(4), np.zeros(4)
    calls = {
        "laplacian": (1, 4, u, out, 2.0, 0.04),
        "mass": (1, 4, u, out, 0.05, 0.2),
        "r_update": (4, out, u, 0.5),
        "xp_laplacian": (1, 4, u, v, w, out, 0.5, 0.5, 2.0, 0.04),
    }
    assert calls.keys() == native.SIGNATURES.keys()
    for lib in stencil_kernels()[:-1]:
        for name, args in calls.items():
            kernel = getattr(lib, name)
            with pytest.raises(ctypes.ArgumentError):
                kernel(*args)
            assert not out.any(), (lib, name)
            kernel(*[lib.bind(a)[0] if isinstance(a, np.ndarray) else a for a in args])
            out[...] = 0.0


# The compiled stencils and the numpy sweeps they fall back to must both give
# the reference bits. Lines longer than the kernel's 256-value line chunk
# (n > 256) are split into chunks, so the grids cross chunk edges too, with a
# line ending at, just past or two past a chunk edge.
BITWISE_SPECS = (
    [GridSpec(1, n) for n in (1, 2, 3, 7, 255, 256, 257, 258, 512, 513, 1000, 65537)]
    + [GridSpec(2, n) for n in (1, 2, 3, 5, 256, 257, 258, 513)]
    + [GridSpec(3, n) for n in (1, 2, 3, 5, 17, 97, 128, 130, 300)]
)


CLONES = re.compile(r"__attribute__\(\(target_clones\(([^)]*)\)\)\)")


def single_target_source(target):
    """The kernel source with its clone list cut to one ``target``, or, for
    ``"default"``, without the attribute: the build of a host without clones."""
    source = native.SOURCE.read_text()
    assert len(CLONES.findall(source)) == 1, "the kernel source has no single clone list"
    return CLONES.sub("" if target == "default" else f'__attribute__((target("{target}")))', source)


@functools.cache
def clone_libraries():
    """One library per clone of the kernel source that this CPU runs, each
    built with that clone alone, so the bitwise tests reach every clone and
    not only the one the loader picks here. Built once per session."""
    targets = [name.strip().strip('"') for name in CLONES.search(native.SOURCE.read_text())[1].split(",")]
    directory = tempfile.TemporaryDirectory(prefix="masspcg-clones-")
    libraries = []
    for target in targets:
        if target != "default" and not CPU_FEATURES.get(target.upper(), False):
            continue
        source = Path(directory.name) / f"_stencils-{target}.c"
        source.write_text(single_target_source(target))
        subprocess.run([*native.compiler(), *native.CFLAGS, "-o", str(source.with_suffix(".so")),
                        str(source)], check=True, timeout=300, capture_output=True)
        library = native.open_library(source.with_suffix(".so"))
        library.directory = directory  # removed with the last library, when the session ends
        libraries.append(library)
    return tuple(libraries)


def stencil_kernels():
    """Values of ``operators._kernels`` to test: the compiled library when a
    compiler is found and the library of each clone this CPU runs, then the
    numpy sweeps."""
    if native.compiler() is None:
        return [sweeps]
    lib = operators._backend()
    assert lib is not sweeps, "a C compiler is on PATH but the stencils did not build"
    return [lib, *clone_libraries(), sweeps]


def same_bits(a, b):
    # np.array_equal would let -0.0 equal 0.0
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def signed_zero_vector(spec, rng):
    # random values with runs of -0.0 and 0.0, whose signs the stencils keep
    u = rng.standard_normal(spec.size)
    u[rng.random(spec.size) < 0.2] = -0.0
    u[rng.random(spec.size) < 0.1] = 0.0
    return u


@pytest.mark.parametrize("spec", BITWISE_SPECS, ids=str)
def test_stencils_match_reference_bitwise(spec, monkeypatch):
    rng = np.random.default_rng(spec.n + spec.d)
    u = signed_zero_vector(spec, rng)
    if spec.size <= 1 << 20:
        # a strided view; larger grids stay contiguous to bound test memory
        u = np.repeat(u, 2)[::2]
    negative = np.full(spec.size, -0.0) if spec.size <= 1 << 16 else None
    out = np.full(spec.size, np.nan)  # dirty, and reused by every call below
    paths = stencil_kernels()
    for apply, reference in [(apply_laplacian, reference_laplacian), (apply_mass, reference_mass)]:
        expected = reference(spec, u)
        for kernels in paths:
            monkeypatch.setattr(operators, "_kernels", kernels)
            assert apply(spec, u, out=out) is out
            assert same_bits(out, expected), kernels
            if negative is not None:
                assert same_bits(apply(spec, negative), reference(spec, negative)), kernels
        expected = None  # one reference result alive at a time


@pytest.mark.parametrize("offset", [0, 16, 64])
@pytest.mark.parametrize("spec", [GridSpec(1, 4096), GridSpec(1, 5000), GridSpec(2, 256), GridSpec(2, 300),
                                  GridSpec(3, 17), GridSpec(3, 32)], ids=str)
def test_stencils_with_u_and_out_adjacent_in_one_block(spec, offset, monkeypatch):
    # u and out lie in one allocation, as adjacent work vectors do: out
    # starts a power of two plus offset bytes after u, or offset values after
    # the end of u or before its start. The kernels store straight into out,
    # so at offset 0 every store lands at the address of a load from u
    # modulo 4096
    size = spec.size
    gap = ((1 << (8 * size - 1).bit_length()) + offset) // 8
    rng = np.random.default_rng(offset + spec.d)
    paths = stencil_kernels()
    for u_at, out_at in [(0, gap), (0, size + offset), (size + offset, 0)]:
        block = np.zeros(max(u_at, out_at) + size)
        u, out = block[u_at : u_at + size], block[out_at : out_at + size]
        u[:] = signed_zero_vector(spec, rng)
        for kernels in paths:
            monkeypatch.setattr(operators, "_kernels", kernels)
            for apply, reference in [(apply_laplacian, reference_laplacian), (apply_mass, reference_mass)]:
                out[:] = np.nan
                assert apply(spec, u, out=out) is out
                assert same_bits(out, reference(spec, u)), (kernels, apply, u_at, out_at)


class CountedKernels:
    """A kernel table that serves through ``kernels`` and counts the calls of
    each kernel by name, then hands each call's arguments to ``after``."""

    def __init__(self, kernels, after=None):
        self.kernels, self.after, self.calls = kernels, after, collections.Counter()

    def __getattr__(self, name):
        kernel = getattr(self.kernels, name)

        def counted(*args):
            self.calls[name] += 1
            result = kernel(*args)
            if self.after is not None:
                self.after(name, args)
            return result

        return counted


@pytest.mark.parametrize("spec", [GridSpec(1, 1), GridSpec(2, 16), GridSpec(3, 32), GridSpec(3, 64)],
                         ids=str)
def test_fresh_out_starts_on_a_page(spec, monkeypatch):
    # without out, the operators allocate one on a page: the kernels store in
    # place, and a fresh block can follow u a few bytes apart modulo 4096.
    # Each kernel keeps its own temporaries, so both operators bind exactly
    # the caller's u and that out
    u, bound = np.ones(spec.size), []
    for kernels in stencil_kernels():
        monkeypatch.setattr(operators, "_kernels", CountedKernels(
            kernels, lambda name, args: bound.extend(args) if name == "bind" else None))
        for apply in (apply_laplacian, apply_mass):
            bound.clear()
            out = apply(spec, u)
            assert out.ctypes.data % 4096 == 0, (kernels, apply)
            assert len(bound) == 2 and bound[0] is u and bound[1] is out, (kernels, apply)


def expected_updates(x, r, p, Ap, z, alpha, beta):
    # the numpy expressions the bound step and sweep must reproduce: r - Ap*alpha,
    # then x + p*alpha, p*beta + z, taking the updated r as z when z is r, as
    # plain CG does, and the reference Laplacian of that p
    x1, r1 = x + p * alpha, r - Ap * alpha
    p1 = p * beta + (r1 if z is r else z)
    return x1, r1, p1, reference_laplacian(GridSpec(1, x.size), p1)


def shared_z(x, r, p, Ap, z, z_is):
    # z apart, z the very r (plain CG), or z the very Ap (mass PCG)
    return {"apart": z, "r": r, "Ap": Ap}[z_is]


Z_CASES = ("apart", "r", "Ap")


def bound_updates(kernels, spec, x, r, p, Ap, z):
    # the loop's step and fused sweep straight on a kernel table, the vectors
    # bound once and the scalars rounded as operators.cg_workspace rounds them
    d, n = spec.d, spec.n
    x, r, p, Ap, z = kernels.bind(x, r, p, Ap, z)
    return (lambda alpha: kernels.r_update(spec.size, r, Ap, alpha),
            lambda alpha, beta: kernels.xp_laplacian(d, n, x, p, z, Ap, alpha, beta, 2.0 * d, spec.h**2))


@pytest.mark.parametrize("size", [1, 255, 256, 257, 1 << 21])
def test_updates_match_numpy_bitwise(size):
    rng = np.random.default_rng(size)
    spec = GridSpec(1, size)
    start = [signed_zero_vector(spec, rng) for _ in range(5)]
    if size <= 257:
        start[0][:] = start[2][:] = -0.0  # x + (-0.0)*alpha must stay -0.0
    for kernels in stencil_kernels():
        for z_is in Z_CASES:
            x, r, p, Ap, z = (v.copy() for v in start)
            z = shared_z(x, r, p, Ap, z, z_is)
            step, xp_laplacian = bound_updates(kernels, spec, x, r, p, Ap, z)
            # three steps bound once, each starting from the last one's
            # results, with a zero and a negative step among them
            for alpha, beta in [(0.37, 1.9), (0.0, -0.0), (-2.5, 0.125)]:
                expected = expected_updates(x, r, p, Ap, z, alpha, beta)
                step(alpha)
                xp_laplacian(alpha, beta)
                for got, want in zip((x, r, p, Ap), expected):
                    assert same_bits(got, want), (kernels, z_is, alpha)


@pytest.mark.parametrize("offset", [0, 16, 64])
@pytest.mark.parametrize("size", [5000, 90000])
def test_updates_with_operands_just_apart_in_one_block(size, offset):
    # x, r, p, Ap and z each start 2^k + offset bytes after the previous one
    # in one allocation, the layout of adjacent work vectors
    gap = ((1 << (8 * size - 1).bit_length()) + offset) // 8
    block = np.zeros(4 * gap + size)
    rng = np.random.default_rng(offset + size)
    start = [signed_zero_vector(GridSpec(1, size), rng) for _ in range(5)]
    for kernels in stencil_kernels():
        for z_is in Z_CASES:
            x, r, p, Ap, z = (block[i * gap : i * gap + size] for i in range(5))
            for v, value in zip((x, r, p, Ap, z), start):
                v[:] = value
            z = shared_z(x, r, p, Ap, z, z_is)
            expected = expected_updates(x, r, p, Ap, z, 0.37, 1.9)
            step, xp_laplacian = bound_updates(kernels, GridSpec(1, size), x, r, p, Ap, z)
            step(0.37)
            xp_laplacian(0.37, 1.9)
            for got, want in zip((x, r, p, Ap), expected):
                assert same_bits(got, want), (kernels, z_is)


# The fused x/p update and Laplacian runs the update one neighbour reach
# ahead of the sweep, so the grids cross line chunk edges (n = 255 to 257 and
# 513) in 1D and 2D and plane edges in 3D; 3D stops at n = 130, where each
# vector takes 17.6 MB.
XP_SPECS = (
    [GridSpec(1, n) for n in (1, 2, 255, 256, 257, 513, 65537)]
    + [GridSpec(2, n) for n in (1, 2, 255, 256, 257, 513)]
    + [GridSpec(3, n) for n in (1, 2, 3, 17, 130)]
)


@pytest.mark.parametrize("spec", XP_SPECS, ids=str)
def test_xp_laplacian_matches_reference_bitwise(spec):
    # x + p*alpha, then p*beta + z, then the reference Laplacian of that p,
    # with z apart, z the very r (plain CG) and z in out's buffer (mass PCG)
    rng = np.random.default_rng(spec.n + 10 * spec.d)
    start = [signed_zero_vector(spec, rng) for _ in range(3)]
    steps = [(0.37, -1.9), (0.0, -0.0)]
    expected = []
    x, p, z = start
    for alpha, beta in steps:
        x, p = x + p * alpha, p * beta + z
        expected.append((x, p, reference_laplacian(spec, p)))
    for kernels in stencil_kernels():
        for z_is in Z_CASES:
            x, p, z = (v.copy() for v in start)
            out = np.full(spec.size, np.nan)
            r = z if z_is == "r" else np.zeros(spec.size)
            z = out if z_is == "Ap" else z
            xp_laplacian = bound_updates(kernels, spec, x, r, p, out, z)[1]
            for (alpha, beta), want in zip(steps, expected):
                if z_is == "Ap":
                    out[:] = start[2]  # as mass PCG writes z = M r into out before each sweep
                xp_laplacian(alpha, beta)
                for got, value in zip((x, p, out), want):
                    assert same_bits(got, value), (kernels, z_is, alpha)
            assert z_is == "Ap" or same_bits(z, start[2]), (kernels, z_is)


def assert_first_call_falls_back_to_numpy_bits(monkeypatch):
    monkeypatch.setattr(operators, "_kernels", None)
    for spec in [GridSpec(1, 300), GridSpec(2, 37), GridSpec(3, 21)]:
        u = signed_zero_vector(spec, np.random.default_rng(spec.size))
        assert same_bits(apply_laplacian(spec, u), reference_laplacian(spec, u))
        assert same_bits(apply_mass(spec, u), reference_mass(spec, u))
    assert operators._kernels is sweeps


def test_failed_load_falls_back_to_numpy_bits(monkeypatch):
    def fail():
        raise OSError("cannot load")

    monkeypatch.setattr(native, "load_library", fail)
    assert_first_call_falls_back_to_numpy_bits(monkeypatch)


def test_no_compiler_falls_back_to_numpy_bits(monkeypatch):
    # neither sysconfig's CC nor cc is on PATH
    monkeypatch.setattr(native.shutil, "which", lambda *args, **kwargs: None)
    assert native.compiler() is None
    with pytest.raises(FileNotFoundError, match="no C compiler"):
        native.load_library()
    assert_first_call_falls_back_to_numpy_bits(monkeypatch)


@pytest.mark.parametrize("spec", [GridSpec(3, 64), GridSpec(2, 512)], ids=str)
def test_fallback_allocates_no_vector_sized_temporary(spec):
    # the solver's memory budget counts its work vectors only, so the numpy
    # fallback may allocate a temporary of a plane or a chunk, never of a vector
    rng = np.random.default_rng(spec.n)
    x, r, p, Ap = (rng.standard_normal(spec.size) for _ in range(4))
    d, n, h, size = spec.d, spec.n, spec.h, spec.size
    calls = {
        "laplacian": lambda: sweeps.laplacian(d, n, x, r, 2.0 * d, h**2),
        "mass": lambda: sweeps.mass(d, n, x, r, h / 6.0, h ** (2 - d)),
        "r_update": lambda: sweeps.r_update(size, r, Ap, 0.37),
        "xp_laplacian": lambda: sweeps.xp_laplacian(d, n, x, p, r, Ap, 0.37, 1.9, 2.0 * d, h**2),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * spec.size / 2, (name, peak)


def copied_source(directory, extra=""):
    source = directory / "_stencils.c"
    source.write_text(native.SOURCE.read_text() + extra)
    return source


def test_second_load_reuses_cached_library(tmp_path, monkeypatch):
    if native.compiler() is None:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setattr(native, "SOURCE", copied_source(tmp_path))
    lib = native.load_library()
    built = list((tmp_path / "__pycache__").iterdir())
    assert len(built) == 1 and built[0].name.startswith("_stencils-")

    def no_compiler(*args, **kwargs):
        raise AssertionError("the cached library should have been reused")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    again = native.load_library()
    assert list((tmp_path / "__pycache__").iterdir()) == built
    spec = GridSpec(2, 9)
    u = np.random.default_rng(9).standard_normal(spec.size)
    for kernels in (lib, again):
        monkeypatch.setattr(operators, "_kernels", kernels)
        assert same_bits(apply_laplacian(spec, u), reference_laplacian(spec, u))


def test_build_deletes_libraries_of_earlier_sources(tmp_path, monkeypatch):
    if native.compiler() is None:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setattr(native, "SOURCE", copied_source(tmp_path))
    native.load_library()
    # a build still running elsewhere: its temporary file must survive
    running = tmp_path / "__pycache__" / "_stencils-0.so.tmp123"
    running.write_text("")
    copied_source(tmp_path, "\n/* another source */\n")
    lib = native.load_library()
    assert len(list((tmp_path / "__pycache__").glob("_stencils-*.so"))) == 1
    assert running.exists()
    spec = GridSpec(2, 9)
    u = np.random.default_rng(9).standard_normal(spec.size)
    monkeypatch.setattr(operators, "_kernels", lib)
    assert same_bits(apply_laplacian(spec, u), reference_laplacian(spec, u))


def test_unwritable_cache_builds_privately(tmp_path, monkeypatch):
    if native.compiler() is None:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setattr(native, "SOURCE", copied_source(tmp_path))
    # a file where the cache directory should be: it can be neither made nor written
    (tmp_path / "__pycache__").write_text("")
    monkeypatch.setattr(operators, "_kernels", native.load_library())
    spec = GridSpec(3, 6)
    u = np.random.default_rng(6).standard_normal(spec.size)
    assert same_bits(apply_mass(spec, u), reference_mass(spec, u))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["__pycache__", "_stencils.c"]


def test_failed_build_prints_nothing(tmp_path, monkeypatch, capfd):
    # the compiler's error messages go nowhere, and the numpy sweeps serve
    monkeypatch.setattr(native, "SOURCE", copied_source(tmp_path, "\n#error deliberately broken\n"))
    monkeypatch.setattr(operators, "_kernels", None)
    spec = GridSpec(2, 7)
    u = np.random.default_rng(7).standard_normal(spec.size)
    assert same_bits(apply_laplacian(spec, u), reference_laplacian(spec, u))
    assert operators._kernels is sweeps
    assert capfd.readouterr() == ("", "")
    # no library and no half-written temporary file is left behind
    assert not list(tmp_path.glob("__pycache__/*"))
