import hashlib
import itertools
import math

import numpy as np
import pytest

import masspcg.spectrum as spectrum
from masspcg import (
    ASYMPTOTIC_RATIO_LIMIT,
    GridSpec,
    OperatorKind,
    SpectrumCapError,
    eigenvalue,
    full_spectrum,
    ratio_report,
    spectrum_report,
)
from oracle import ascending_cosines, full_scan_argmax
from tracing import traced_peak

ALL_KINDS = list(OperatorKind)


def test_trivial_eigenvalues_n1():
    # single unknown at h = 1/2: the operators are scalars 8, 1/6 and 4/3
    spec = GridSpec(1, 1)
    assert eigenvalue(OperatorKind.LAPLACIAN, spec, (1,)) == pytest.approx(8.0, rel=1e-14)
    assert eigenvalue(OperatorKind.MASS, spec, (1,)) == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert eigenvalue(OperatorKind.PRECONDITIONED, spec, (1,)) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_trivial_eigenvalues_1d():
    # h = 1/3: cosines are +-1/2, Laplacian eigenvalues 9 and 27
    spec = GridSpec(1, 2)
    assert eigenvalue(OperatorKind.LAPLACIAN, spec, (1,)) == pytest.approx(9.0, rel=1e-14)
    assert eigenvalue(OperatorKind.LAPLACIAN, spec, (2,)) == pytest.approx(27.0, rel=1e-14)
    # h = 1/4, k = 2: cosine vanishes, eigenvalue 2/h^2 = 32
    assert eigenvalue(OperatorKind.LAPLACIAN, GridSpec(1, 3), (2,)) == pytest.approx(32.0, rel=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_product_identity(d):
    # eigenvalues of the preconditioned operator are products of the factors'
    spec = GridSpec(d, 5)
    rng = np.random.default_rng(31)
    for _ in range(10):
        k = tuple(int(x) for x in rng.integers(1, 6, size=d))
        product = eigenvalue(OperatorKind.MASS, spec, k) * eigenvalue(OperatorKind.LAPLACIAN, spec, k)
        assert eigenvalue(OperatorKind.PRECONDITIONED, spec, k) == pytest.approx(product, rel=1e-13)


def test_bad_indices_rejected():
    spec = GridSpec(2, 4)
    for k in [(0, 1), (1, 5), (1,), (1, 2, 3)]:
        with pytest.raises(ValueError):
            eigenvalue(OperatorKind.LAPLACIAN, spec, k)


def test_non_integer_indices_rejected():
    # int() would truncate 1.9 to 1 and read True as 1 and "3" as 3
    spec = GridSpec(2, 8)
    for k in [(1.9, 2), (2.0, 2), (True, 2), ("3", 2), (np.float64(1), 2)]:
        with pytest.raises(ValueError):
            eigenvalue(OperatorKind.LAPLACIAN, spec, k)
    value = eigenvalue(OperatorKind.LAPLACIAN, spec, (1, 2))
    assert eigenvalue(OperatorKind.LAPLACIAN, spec, (np.int64(1), np.int32(2))) == value
    assert eigenvalue(OperatorKind.LAPLACIAN, spec, np.array([1, 2])) == value


@pytest.mark.parametrize("kind", ["mass", "laplacian", "preconditioned", None, 1])
def test_kind_must_be_an_operator_kind(kind):
    # a kind that is not an OperatorKind fell through to "preconditioned"
    spec = GridSpec(2, 8)
    with pytest.raises(ValueError):
        eigenvalue(kind, spec, (1, 1))
    with pytest.raises(ValueError):
        full_spectrum(kind, spec)
    with pytest.raises(ValueError):
        spectrum_report(kind, spec)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("spec", [GridSpec(1, 9), GridSpec(2, 4), GridSpec(3, 3)], ids=str)
def test_full_spectrum_sorted_and_complete(kind, spec):
    values = full_spectrum(kind, spec)
    assert values.shape == (spec.size,)
    assert np.all(np.diff(values) >= 0)
    expected = sorted(
        eigenvalue(kind, spec, k)
        for k in np.ndindex((spec.n,) * spec.d)
        for k in [tuple(x + 1 for x in k)]
    )
    # both come from one closed-form routine, so they agree bit for bit
    np.testing.assert_array_equal(values, expected)


@pytest.mark.parametrize("n", [7, 1000, 2999, 65536, 10**6])
def test_eigenvalue_cosines_equal_axis_cosines(n):
    # eigenvalue computes only the cosines it needs; they must equal the
    # entries of the whole axis_cosines array bit for bit
    rng = np.random.default_rng(n)
    for d in (1, 2, 3):
        spec = GridSpec(d, n)
        c = spectrum.axis_cosines(spec)
        for k in [(1,) * d, (n,) * d] + [tuple(int(x) for x in rng.integers(1, n + 1, d)) for _ in range(50)]:
            for kind in ALL_KINDS:
                expected = spectrum._eigenvalues(kind, spec, [c[kj - 1] for kj in k])
                assert eigenvalue(kind, spec, k) == expected


def test_full_spectrum_cap(monkeypatch):
    monkeypatch.setattr(spectrum, "SPECTRUM_CAP", 50)
    with pytest.raises(SpectrumCapError) as info:
        full_spectrum(OperatorKind.LAPLACIAN, GridSpec(1, 100))
    assert info.value.required == 100
    assert info.value.allowed == 50


@pytest.mark.parametrize("spec", [GridSpec(1, 8), GridSpec(2, 8), GridSpec(3, 4)], ids=str)
def test_laplacian_report_extremes(spec):
    report = spectrum_report(OperatorKind.LAPLACIAN, spec)
    assert report.argmin == (1,) * spec.d
    assert report.argmax == (spec.n,) * spec.d
    h = spec.h
    kappa_formula = (1 - math.cos(math.pi * h * spec.n)) / (1 - math.cos(math.pi * h))
    assert report.kappa == pytest.approx(kappa_formula, rel=1e-13)
    assert report.closed_form is None


@pytest.mark.parametrize("spec", [GridSpec(1, 8), GridSpec(2, 8), GridSpec(3, 4)], ids=str)
def test_mass_report_extremes_reversed(spec):
    report = spectrum_report(OperatorKind.MASS, spec)
    assert report.argmin == (spec.n,) * spec.d
    assert report.argmax == (1,) * spec.d


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("spec", [GridSpec(1, 50), GridSpec(2, 20), GridSpec(3, 7)]
                         + [GridSpec(3, n) for n in (10, 17, 41, 50, 72, 100)], ids=str)
def test_report_matches_enumeration(kind, spec):
    # scan-based extremes are the ends of the fully enumerated spectrum, bit
    # for bit. On the six 3D grids above, the preconditioned lambda_max fell
    # an ulp or two below the last value while a tuple's value depended on
    # the order of its frequencies
    report = spectrum_report(kind, spec)
    values = full_spectrum(kind, spec)
    assert report.lambda_min == values[0]
    assert report.lambda_max == values[-1]
    assert report.kappa == values[-1] / values[0]
    assert eigenvalue(kind, spec, report.argmin) == report.lambda_min
    assert eigenvalue(kind, spec, report.argmax) == report.lambda_max


def test_report_extremes_match_brute_force():
    # on tiny grids, argmin is the sorted first minimum, in C order, over the
    # whole unsorted tuple grid, and so is the Laplacian and mass argmax. 3D
    # n = 2..5 has its preconditioned minimum at (n, n, n), not at (1, 1, 1)
    for d in (1, 2, 3):
        for n in range(1, 13):
            spec = GridSpec(d, n)
            c = spectrum.axis_cosines(spec)
            for kind in ALL_KINDS:
                values = spectrum._eigenvalues(kind, spec, np.meshgrid(*[c] * d, indexing="ij", sparse=True))
                report = spectrum_report(kind, spec)
                ends = [("argmin", np.argmin(values))]
                if kind is not OperatorKind.PRECONDITIONED:
                    ends.append(("argmax", np.argmax(values)))
                for name, flat in ends:
                    expected = tuple(sorted(int(i) + 1 for i in np.unravel_index(flat, values.shape)))
                    assert getattr(report, name) == expected, (spec, kind, name)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_3d_eigenvalues_are_symmetric_under_permutation(kind):
    # the bits depend only on the multiset of frequencies: every axis
    # permutation of every 3D tuple gives the same value, for every n <= 40
    for n in range(1, 41):
        spec = GridSpec(3, n)
        c = spectrum.axis_cosines(spec)
        values = spectrum._eigenvalues(kind, spec, np.meshgrid(c, c, c, indexing="ij", sparse=True))
        for axes in itertools.permutations(range(3)):
            np.testing.assert_array_equal(values.transpose(axes), values, err_msg=f"n={n} {axes}")
    # and through eigenvalue(): (4, 5, 5) and (5, 5, 4) read 1.8886173802647783
    # and 1.888617380264779 when the terms were summed in axis order
    spec = GridSpec(3, 10)
    for k in [(4, 5, 5), (1, 2, 6), (1, 3, 4)]:
        values = {eigenvalue(kind, spec, p) for p in itertools.permutations(k)}
        assert values == {eigenvalue(kind, spec, k)}, k


def test_report_kappa_is_dimension_independent_for_laplacian():
    kappas = [spectrum_report(OperatorKind.LAPLACIAN, GridSpec(d, 16)).kappa for d in (1, 2, 3)]
    assert kappas[0] == pytest.approx(kappas[1], rel=1e-13)
    assert kappas[0] == pytest.approx(kappas[2], rel=1e-13)


def test_preconditioned_report_carries_closed_form_check():
    report = spectrum_report(OperatorKind.PRECONDITIONED, GridSpec(2, 8))
    check = report.closed_form
    assert check is not None
    assert 1 <= check.index <= 8
    assert check.scan_kappa == pytest.approx(report.kappa, rel=1e-14)
    # the symmetric-index value can never exceed the scanned maximum
    assert check.kappa <= check.scan_kappa * (1 + 1e-12)
    assert check.agrees == (abs(check.rel_gap) <= 1e-12)


def test_closed_form_agreement_cases():
    # where the integer-part symmetric index does attain the discrete max the
    # two values coincide
    for d, n in [(1, 8), (1, 16), (2, 15), (3, 16)]:
        report = spectrum_report(OperatorKind.PRECONDITIONED, GridSpec(d, n))
        assert report.closed_form.kappa == pytest.approx(report.kappa, rel=1e-12)


def test_closed_form_discrepancy_is_surfaced_not_absorbed():
    # even-n 2D grids maximize at an asymmetric frequency pair, which the
    # symmetric closed form misses slightly; the report must carry both values
    report = spectrum_report(OperatorKind.PRECONDITIONED, GridSpec(2, 8))
    check = report.closed_form
    assert not check.agrees
    assert check.kappa < check.scan_kappa
    assert check.rel_gap > 1e-12
    # the reported kappa stays the true scanned one
    assert report.kappa == check.scan_kappa


def test_closed_form_index_clamped_for_tiny_grid():
    check = spectrum_report(OperatorKind.PRECONDITIONED, GridSpec(3, 1)).closed_form
    assert check.index == 1
    assert check.kappa == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_preconditioned_report_evaluates_once_beyond_the_scan(d, monkeypatch):
    # the corners, the scan's tuple and the closed form's symmetric tuple are
    # ranked in one evaluation, beyond those the scan makes
    calls = []
    evaluate = spectrum._eigenvalues
    monkeypatch.setattr(spectrum, "_eigenvalues", lambda *args: calls.append(args) or evaluate(*args))
    spec = GridSpec(d, 9)
    spectrum._preconditioned_max(spec)
    scan = len(calls)
    report = spectrum_report(OperatorKind.PRECONDITIONED, spec)
    assert len(calls) == 2 * scan + 1
    assert report.closed_form.index == spectrum._closed_form_index(spec)


def test_ratio_report_fields():
    report = ratio_report(GridSpec(2, 16))
    assert report.r == pytest.approx(report.kappa / report.kappa_p, rel=1e-14)
    assert report.predicted_iter_ratio == pytest.approx(math.sqrt(report.r), rel=1e-14)
    assert report.asymptotic_limit == pytest.approx(4.5, rel=1e-15)


@pytest.mark.parametrize("d,limit", [(1, 8 / 3), (2, 9 / 2), (3, 512 / 81)])
def test_ratio_increases_toward_limit(d, limit):
    values = [ratio_report(GridSpec(d, n)).r for n in (8, 16, 32, 64)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < limit
    assert ASYMPTOTIC_RATIO_LIMIT[d] == pytest.approx(limit, rel=1e-15)


def test_ratio_limit_2d_spec_example():
    assert ratio_report(GridSpec(2, 512)).r == pytest.approx(4.5, rel=0.01)


def test_table_values_spot_check():
    report = ratio_report(GridSpec(3, 32))
    assert report.kappa == pytest.approx(440.6886, abs=5e-5)
    assert report.kappa_p == pytest.approx(70.1771, abs=5e-5)


# sha256 of the lines "n (k1, ..., kd)\n", n = 1..limit, of the preconditioned
# argmax tuples; recorded before the scan became one broadcast loop
PINNED_ARGMAX = {
    1: (2000, "208ae921c28e42e9e633eb21192dbf24dd7d758f0dea6366f184405dce23636c"),
    2: (600, "11d096d707e5e49216ef07eb251b974f453ea34bca6e18404f84303ce1d10a51"),
    3: (128, "1295d5354e265718ecbdb4335e6a3249264a373eb4cd140247cecf9410c2c876"),
}


def test_1d_argmax_scans_only_cosines_around_the_vertex():
    # the 1D scan evaluates eight cosines around k = 2/(3h), not all n; its
    # argmax must be the full scan's, up to the scan cap
    sizes = list(range(1, 3001)) + [65536, 10**6 + 1, 2**24]
    for n in sizes:
        spec = GridSpec(1, n)
        assert spectrum._preconditioned_max(spec) == full_scan_argmax(spec), n


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000])
def test_1d_full_scan_blocks_are_the_axis_cosines(n):
    # the 1D full scan makes its axis a block at a time in its own
    # arithmetic: each block must be its slice of axis_cosines bit for bit,
    # and the argmax must not depend on where the blocks are cut
    spec = GridSpec(1, n)
    axis = spectrum.axis_cosines(spec)[::-1]
    for block in (1, 2, 7, 1 << 22):
        for start in range(0, n, block):
            cs = ascending_cosines(spec, start, min(n, start + block))
            assert cs.tobytes() == axis[start : start + block].tobytes(), (block, start)
        assert full_scan_argmax(spec, block) == spectrum._preconditioned_max(spec), block


def test_1d_full_scan_holds_one_block():
    # one block of 2**22 cosines (32 MiB) at a time; the whole axis with its
    # int64 arange and scaled copy traced 384 MiB at this size
    argmax, peak = traced_peak(lambda: full_scan_argmax(GridSpec(1, 2**24)))
    assert argmax == spectrum._preconditioned_max(GridSpec(1, 2**24))
    assert peak <= 64 * 2**20


@pytest.mark.parametrize("d", sorted(PINNED_ARGMAX))
def test_preconditioned_argmax_pinned(d):
    limit, digest = PINNED_ARGMAX[d]
    text = "".join(
        f"{n} {spectrum_report(OperatorKind.PRECONDITIONED, GridSpec(d, n)).argmax}\n"
        for n in range(1, limit + 1)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# the pruned scan against the full one: every 2D and 3D size up to a limit,
# the 3D sizes around the benchmark's and 2D far past them
ORACLE_SIZES = {
    "2d-1..600": [(2, n) for n in range(1, 601)],
    "3d-1..160": [(3, n) for n in range(1, 161)],
    "3d-large": [(3, n) for n in (255, 256, 511, 512, 1023, 1024, 2047, 2048)],
    "2d-large": [(2, 2**16), (2, 2**20)],
}


@pytest.mark.parametrize("sizes", ORACLE_SIZES.values(), ids=ORACLE_SIZES)
def test_pruned_scan_matches_full_scan(sizes):
    for d, n in sizes:
        spec = GridSpec(d, n)
        assert spectrum._preconditioned_max(spec) == full_scan_argmax(spec), (d, n)


@pytest.mark.parametrize("n", [5, 17, 64])
def test_multi_block_scan_matches_single_block(n):
    # the full scan in small blocks finds the same maximum as in one block,
    # and the report's argmax and kappa are that maximum's
    spec = GridSpec(3, n)
    whole = full_scan_argmax(spec, 1 << 22)
    report = spectrum_report(OperatorKind.PRECONDITIONED, spec)
    lambda_max = eigenvalue(OperatorKind.PRECONDITIONED, spec, whole)
    assert report.kappa == lambda_max / report.lambda_min
    for block in (1, 7, 64):
        assert full_scan_argmax(spec, block) == report.argmax == whole, block


@pytest.mark.parametrize("n", [5, 17, 64])
def test_pruned_scan_keeps_the_block_tie_order(n):
    # the full scan keeps the first maximum of each block, so with small
    # blocks its tie order is the block order; the one-pass scan must agree
    # with it at every block size. This pins the sorted argmax, not the scan
    # order: at n = 5, (2, 3, 3) ties (2, 2, 3) in the full scan's parabola
    # arithmetic, where it is both the first and the last maximum in any
    # order of the axes, but not in the eigenvalue arithmetic the scan ranks by
    kind, spec = OperatorKind.PRECONDITIONED, GridSpec(3, n)
    for block in (1, 7, 64, 1 << 22):
        assert spectrum._preconditioned_max(spec) == full_scan_argmax(spec, block), block
    if n == 5:
        assert spectrum._preconditioned_max(spec) == (2, 3, 3)
        assert eigenvalue(kind, spec, (2, 3, 3)) > eigenvalue(kind, spec, (2, 2, 3))


@pytest.mark.parametrize("n, argmax", [(2**24 - 1, (8388608, 8388608)),
                                       (2**24, (8388608, 8388609))])
def test_2d_argmax_pinned_at_the_scan_cap(n, argmax):
    # the largest 2D grids the scan takes: at n = 2**24 - 1 the AM-GM bound
    # keeps 25 rows, the most of any grid tried
    assert spectrum_report(OperatorKind.PRECONDITIONED, GridSpec(2, n)).argmax == argmax


def full_scan_row_maxima(spec):
    # the largest value the full scan computes in each row (position of the
    # first other coordinate), ascending cosines, both vertex offsets, each
    # valued by the package's eigenvalue arithmetic, as the scan ranks them
    n, d = spec.n, spec.d
    cs = spectrum.axis_cosines(spec)[::-1]
    others = np.meshgrid(*([cs] * (d - 1)), indexing="ij", sparse=True)
    pos = np.searchsorted(cs, (d - sum(others, 0.0) - 2.0) / 2.0)
    rows = []
    for off in (0, -1):
        x = cs[np.clip(pos + off, 0, n - 1)]
        lam = spectrum._eigenvalues(OperatorKind.PRECONDITIONED, spec, [x, *others])
        rows.append(lam.reshape(n, -1).max(axis=1))
    return cs, np.maximum(*rows)


@pytest.mark.parametrize("d, n", [(2, 1), (2, 41), (2, 64), (2, 1001), (2, 65536),
                                  (2, 2**20 + 1), (3, 1), (3, 74), (3, 128), (3, 255), (3, 512)])
def test_am_gm_bound_dominates_every_row(d, n):
    # the row bound (2/3**d)(2+y)((3d-2-y)/d)**d, as the scan applies it,
    # against the row's computed eigenvalues: in floating point a value can
    # pass its bound, by a few ulps where the bound is nearly attained (2D odd
    # n has the exact tie at y = 0), but by far less than the scan's 1e-12
    # margin, which therefore never decides a row
    cs, row_max = full_scan_row_maxima(GridSpec(d, n))
    bound = 2.0 / 3.0**d * (2.0 + cs) * ((3 * d - 2 - cs) / d) ** d
    excess = (row_max - bound) / bound
    assert excess.max() <= 1e-14


def test_3d_condition_scan_stays_small():
    # the full scan held n**2 tuples per offset at once (256 MiB traced at
    # n = 4096, in four blocks); the pruned one holds a row or two of n
    _, peak = traced_peak(lambda: spectrum_report(OperatorKind.PRECONDITIONED, GridSpec(3, 4096)))
    assert peak < 8 * 2**20
