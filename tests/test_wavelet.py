import tracemalloc

import numpy as np
import pytest

from wavegplm import (
    ConfigurationError,
    DimensionError,
    SUPPORTED_FILTERS,
    WaveletCoefficients,
    WaveletFilter,
    coefficient_layout,
    dwt,
    idwt,
    make_filter,
    transform_matrix,
)
from wavegplm.wavelet import (BLOCK, PLAN_LEVEL, PLAN_OUTPUTS, _analysis_stage,
                              _analysis_windows, _synthesis_plan, _synthesis_stage)


class TestMakeFilter:
    def test_haar_taps(self):
        f = make_filter("haar")
        np.testing.assert_allclose(f.lowpass, [1 / np.sqrt(2)] * 2, atol=1e-15)
        assert f.vanishing_moments == 1

    @pytest.mark.parametrize("name", SUPPORTED_FILTERS)
    def test_taps_sum_to_sqrt2(self, name):
        f = make_filter(name)
        assert abs(f.lowpass.sum() - np.sqrt(2)) < 1e-10

    @pytest.mark.parametrize("name", SUPPORTED_FILTERS)
    def test_unit_l2_norm(self, name):
        f = make_filter(name)
        assert abs(f.lowpass @ f.lowpass - 1.0) < 1e-10

    @pytest.mark.parametrize("name", SUPPORTED_FILTERS)
    def test_orthonormality_shifts(self, name):
        # sum_k h_k h_{k+2m} = delta_{m0}
        h = make_filter(name).lowpass
        for m in range(1, h.size // 2):
            assert abs(h[: h.size - 2 * m] @ h[2 * m:]) < 1e-10

    @pytest.mark.parametrize("name", SUPPORTED_FILTERS)
    def test_quadrature_mirror_relation(self, name):
        f = make_filter(name)
        L = len(f)
        expected = [(-1.0) ** k * f.lowpass[L - 1 - k] for k in range(L)]
        np.testing.assert_allclose(f.highpass, expected, atol=0)

    @pytest.mark.parametrize("name", SUPPORTED_FILTERS)
    def test_vanishing_moments(self, name):
        # highpass annihilates polynomials of degree < N
        f = make_filter(name)
        k = np.arange(len(f), dtype=float)
        for power in range(f.vanishing_moments):
            assert abs(f.highpass @ k ** power) < 1e-8

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_filter("daubechies-5")

    @pytest.mark.parametrize("name", SUPPORTED_FILTERS)
    def test_one_shared_filter_per_name_equal_only_to_itself(self, name):
        # caches key on the filter, so a name gives one instance, which
        # compares and hashes by identity, never by its taps
        filt = make_filter(name)
        assert make_filter(name) is filt
        assert make_filter(name) == filt
        assert {filt: name}[make_filter(name)] == name
        twin = WaveletFilter(name=name, lowpass=filt.lowpass,
                             vanishing_moments=filt.vanishing_moments)
        assert twin != filt
        _assert_bits_equal(twin.lowpass, filt.lowpass)

    def test_filter_holds_read_only_copies_of_the_callers_taps(self):
        taps = np.random.default_rng(5).standard_normal(6)
        filt = WaveletFilter(name="custom", lowpass=taps, vanishing_moments=0)
        assert taps.flags.writeable
        assert not np.shares_memory(filt.lowpass, taps)
        for array in (filt.lowpass, filt.highpass, *filt.slabs):
            assert not array.flags.writeable
        taps[0] = 9.0
        assert filt.lowpass[0] != 9.0


class TestLayout:
    def test_n8_full_pyramid(self):
        layout = coefficient_layout(8, 0)
        assert layout.scaling_slice == slice(0, 1)
        sizes = [layout.detail_slice(j).stop - layout.detail_slice(j).start
                 for j in layout.detail_levels()]
        assert sizes == [1, 2, 4]

    def test_n8_degenerate_all_scaling(self):
        layout = coefficient_layout(8, 3)
        assert layout.scaling_slice == slice(0, 8)
        assert list(layout.detail_levels()) == []

    def test_n256_j0_4(self):
        layout = coefficient_layout(256, 4)
        assert layout.scaling_slice.stop == 16
        sizes = [layout.detail_slice(j).stop - layout.detail_slice(j).start
                 for j in layout.detail_levels()]
        assert sizes == [16, 32, 64, 128]

    def test_partition_is_bijection(self):
        layout = coefficient_layout(64, 2)
        assert layout.scaling_slice == slice(0, 4)
        blocks = [layout.scaling_slice] + [layout.detail_slice(j)
                                           for j in layout.detail_levels()]
        covered = np.zeros(64, dtype=int)
        for block in blocks:
            covered[block] += 1
        # every flat index belongs to exactly one block
        np.testing.assert_array_equal(covered, np.ones(64, dtype=int))

    def test_rejects_j0_above_J(self):
        with pytest.raises(DimensionError):
            coefficient_layout(8, 4)

    def test_rejects_non_dyadic(self):
        with pytest.raises(DimensionError):
            coefficient_layout(12, 0)


class TestDwt:
    def test_haar_hand_pyramid(self):
        coeffs = dwt(np.array([1.0, 2.0, 3.0, 4.0]), make_filter("haar"), 0)
        expected = [5.0, -2.0, -1 / np.sqrt(2), -1 / np.sqrt(2)]
        np.testing.assert_allclose(coeffs.values, expected, atol=1e-12)
        # Parseval on the hand example: 30 = 25 + 4 + 0.5 + 0.5
        assert abs(coeffs.values @ coeffs.values - 30.0) < 1e-12

    @pytest.mark.parametrize("name", SUPPORTED_FILTERS)
    def test_constant_signal(self, name):
        f = make_filter(name)
        c = 3.7
        coeffs = dwt(np.full(64, c), f, 0)
        assert np.max(np.abs(coeffs.details)) < 1e-12
        np.testing.assert_allclose(coeffs.scaling, [c * 8.0], atol=1e-12)

    @pytest.mark.parametrize("name", SUPPORTED_FILTERS)
    @pytest.mark.parametrize("n", [8, 64, 256, 1024, 4096])
    def test_round_trip_and_parseval(self, name, n):
        f = make_filter(name)
        rng = np.random.default_rng(n)
        e = rng.standard_normal(n)
        coeffs = dwt(e, f, min(3, int(np.log2(n))))
        assert np.max(np.abs(idwt(coeffs, f) - e)) < 1e-10
        assert abs(np.linalg.norm(coeffs.values) - np.linalg.norm(e)) < 1e-10

    def test_linearity(self):
        f = make_filter("daubechies-6")
        rng = np.random.default_rng(0)
        e1, e2 = rng.standard_normal((2, 128))
        lhs = dwt(2.5 * e1 - 1.25 * e2, f, 2).values
        rhs = 2.5 * dwt(e1, f, 2).values - 1.25 * dwt(e2, f, 2).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_rejects_non_dyadic_length(self):
        with pytest.raises(DimensionError):
            dwt(np.zeros(12), make_filter("haar"), 0)


class TestIdwt:
    def test_zero_coefficients(self):
        layout = coefficient_layout(32, 2)
        out = idwt(WaveletCoefficients(values=np.zeros(32), layout=layout),
                   make_filter("symmlet-8"))
        np.testing.assert_allclose(out, 0.0, atol=0)

    def test_unit_detail_coefficient_has_unit_norm(self):
        layout = coefficient_layout(64, 2)
        unit = np.zeros(64)
        unit[17] = 1.0
        out = idwt(WaveletCoefficients(values=unit, layout=layout),
                   make_filter("daubechies-8"))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_layout_mismatch(self):
        layout = coefficient_layout(32, 2)
        with pytest.raises(DimensionError):
            WaveletCoefficients(values=np.zeros(16), layout=layout)


@pytest.mark.parametrize("name", SUPPORTED_FILTERS)
@pytest.mark.parametrize("n,j0", [(8, 0), (16, 2), (32, 3)])
def test_pyramid_matches_explicit_matrix(name, n, j0):
    f = make_filter(name)
    psi = transform_matrix(n, f, j0)
    np.testing.assert_allclose(psi @ psi.T, np.eye(n), atol=1e-12)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(n)
    np.testing.assert_allclose(psi @ x, dwt(x, f, j0).values, atol=1e-12)


# Reference stages: the scatter-add formulation with an explicit circular
# index, x[(2i + l) % m] for window i and tap l.  np.add.at adds the terms
# of each output in increasing (i, l) order, the order dwt/idwt promise.
def _reference_analysis(x, filt):
    m, L = x.size, len(filt)
    idx = (2 * np.arange(m // 2)[:, None] + np.arange(L)[None, :]) % m
    window = x[idx]
    return window @ filt.lowpass, window @ filt.highpass


def _reference_synthesis(approx, detail, filt):
    m, L = 2 * approx.size, len(filt)
    idx = (2 * np.arange(approx.size)[:, None] + np.arange(L)[None, :]) % m
    x = np.zeros(m)
    np.add.at(x, idx, approx[:, None] * filt.lowpass[None, :]
              + detail[:, None] * filt.highpass[None, :])
    return x


def _reference_dwt(x, filt, j0):
    layout = coefficient_layout(x.size, j0)
    out = np.empty(x.size)
    approx = x
    for level in reversed(layout.detail_levels()):
        approx, out[layout.detail_slice(level)] = _reference_analysis(approx, filt)
    out[layout.scaling_slice] = approx
    return out


def _reference_idwt(values, filt, j0):
    layout = coefficient_layout(values.size, j0)
    approx = values[layout.scaling_slice].copy()
    for level in layout.detail_levels():
        approx = _reference_synthesis(approx, values[layout.detail_slice(level)], filt)
    return approx


def _assert_bits_equal(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def _assert_kernels_match_reference(filt, n, j0, rng):
    layout = coefficient_layout(n, j0)
    # magnitudes from 1e-8 to 1e8 in one vector, then all -0.0, then terms
    # that cancel, so that summing an output in any other order or grouping
    # moves its bits (for filters with three or more terms per output)
    wide = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-8, 8, (2, n))
    cancel = np.resize([1e16, 1.0, -1e16, -1.0], n)
    for signal, values in ((wide[0], wide[1]), (np.full(n, -0.0), np.full(n, -0.0)),
                           (cancel, cancel)):
        _assert_bits_equal(dwt(signal, filt, j0).values, _reference_dwt(signal, filt, j0))
        _assert_bits_equal(idwt(WaveletCoefficients(values=values, layout=layout), filt),
                           _reference_idwt(values, filt, j0))


@pytest.mark.parametrize("name", SUPPORTED_FILTERS)
def test_kernels_match_add_at_reference_bit_for_bit(name):
    # every coarse level, so the shortest stages (m < L) wrap several times
    filt = make_filter(name)
    rng = np.random.default_rng(len(filt))
    for J in range(1, 13):
        for j0 in range(J + 1):
            _assert_kernels_match_reference(filt, 1 << J, j0, rng)


def test_kernels_match_add_at_reference_at_65536():
    # the analysis and synthesis levels longer than BLOCK go in blocks
    assert 1 << 15 > BLOCK
    for name in SUPPORTED_FILTERS:
        filt = make_filter(name)
        _assert_kernels_match_reference(filt, 1 << 16, 3, np.random.default_rng([16, len(filt)]))


@pytest.mark.parametrize("name", SUPPORTED_FILTERS)
def test_dwt_peak_does_not_grow_with_n_times_taps(name):
    # one dwt at n = 65536 holds its output, which each level overwrites
    # with its halves, the extended level and one block of BLOCK x L
    # windows, not all n/2 windows of a level at once (4 MiB for symmlet-8)
    n, filt = 1 << 16, make_filter(name)
    x = np.random.default_rng(len(filt)).standard_normal(n)
    dwt(x, filt, 3)
    tracemalloc.start()
    try:
        dwt(x, filt, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 * n + BLOCK * len(filt)) * x.itemsize + (1 << 16)


@pytest.mark.parametrize("rows", [(1,), (2,), (7,), (8,), (9,), (2, 3)], ids=str)
@pytest.mark.parametrize("name", SUPPORTED_FILTERS)
def test_stacked_rows_match_one_dimensional_calls_bit_for_bit(name, rows):
    # every row of a (..., n) transform equals the 1-d transform of that
    # row (which the add.at reference pins down), down to coarse level 0
    # and with a row of signed zeros among ordinary rows; up to n = 1024,
    # whose last two synthesis levels are longer than PLAN_LEVEL, and both
    # transforms at n = 32768.  At n = 256, 8 rows fill PLAN_OUTPUTS and 9
    # rows pass it, so the first stage gathers for 8 rows and not for 9
    assert 1 << 8 > PLAN_LEVEL and 2 * 8 * PLAN_LEVEL == PLAN_OUTPUTS
    filt = make_filter(name)
    rng = np.random.default_rng([len(filt), *rows])
    for J in range(1, 11):
        n = 1 << J
        for j0 in range(J + 1):
            layout = coefficient_layout(n, j0)
            wide = rng.standard_normal((2, *rows, n)) * 10.0 ** rng.uniform(-8, 8, (2, *rows, n))
            zeroed = wide.copy()
            zeroed[(slice(None),) + (0,) * len(rows)] = -0.0
            for signals, values in (wide, zeroed):
                forward = dwt(signals, filt, j0).values
                inverse = idwt(WaveletCoefficients(values=values, layout=layout), filt)
                assert forward.shape == inverse.shape == signals.shape
                for row in np.ndindex(*rows):
                    _assert_bits_equal(forward[row], dwt(signals[row], filt, j0).values)
                    _assert_bits_equal(
                        inverse[row],
                        idwt(WaveletCoefficients(values=values[row], layout=layout), filt))
    # a level longer than BLOCK writes each block into outputs strided across rows
    n = 1 << 15
    assert n // 2 > BLOCK
    layout = coefficient_layout(n, 3)
    signals, values = rng.standard_normal((2, *rows, n))
    forward = dwt(signals, filt, 3).values
    inverse = idwt(WaveletCoefficients(values=values, layout=layout), filt)
    for row in np.ndindex(*rows):
        _assert_bits_equal(forward[row], dwt(signals[row], filt, 3).values)
        _assert_bits_equal(inverse[row],
                           idwt(WaveletCoefficients(values=values[row], layout=layout), filt))


@pytest.mark.parametrize("name", SUPPORTED_FILTERS)
def test_synthesis_plans_list_each_outputs_terms_in_reference_order(name):
    # output p of a level of h outputs per parity adds the terms (i, l) with
    # (2i + l) mod 2h = p in increasing order: the order in which np.add.at
    # visits them, collected here by walking every pair in that order.  A
    # small stage plans all its outputs, a longer one only the L/2 - 1 per
    # parity whose terms wrap around the level
    filt = make_filter(name)
    L = len(filt)
    levels = [(1 << J, 1 << J) for J in range(PLAN_LEVEL.bit_length())]
    levels += [(h, L // 2 - 1) for h in (256, BLOCK, 4 * BLOCK)]
    for h, outputs in levels:
        terms = [[] for _ in range(2 * h)]
        for i in range(h):
            for l in range(L):
                terms[(2 * i + l) % (2 * h)].append((i, l))
        i, l = np.array(terms[:2 * outputs], dtype=int).reshape(2 * outputs, L // 2, 2).T
        column, low, high = _synthesis_plan(h, outputs, filt)
        np.testing.assert_array_equal(column, i)
        _assert_bits_equal(low, filt.lowpass[l])
        _assert_bits_equal(high, filt.highpass[l])
        for array in (column, low, high):
            assert not array.flags.writeable


@pytest.mark.parametrize("name", SUPPORTED_FILTERS)
def test_synthesis_stage_matches_add_at_reference_on_both_sides_of_plan_outputs(name):
    # a stage of at most PLAN_OUTPUTS outputs over its rows sums through a
    # gather plan, and a larger one only its wrapped outputs, the others
    # through the strided reduction: at every level from h = L/2 to
    # PLAN_LEVEL, rows that just fit and one row more
    filt = make_filter(name)
    rng = np.random.default_rng([len(filt), PLAN_OUTPUTS])
    h = len(filt) // 2
    while h <= PLAN_LEVEL:
        fit = PLAN_OUTPUTS // (2 * h)
        for rows in (fit, fit + 1):
            scale = 10.0 ** rng.uniform(-8, 8, (2, rows, h))
            approx, detail = rng.standard_normal((2, rows, h)) * scale
            out = _synthesis_stage(approx, detail, filt)
            for row in range(rows):
                _assert_bits_equal(out[row], _reference_synthesis(approx[row], detail[row], filt))
        h *= 2


@pytest.mark.parametrize("name", SUPPORTED_FILTERS)
def test_analysis_stage_matches_reference_on_both_sides_of_plan_bounds(name):
    # a stage with h <= PLAN_LEVEL and at most PLAN_OUTPUTS outputs over its
    # rows gathers its windows through the cached index, any other copies
    # them from a strided view: from h = 1 (a level of 2 samples, shorter
    # than every filter but haar) to PLAN_LEVEL, rows that just fit and one
    # row more, and one row at 2 PLAN_LEVEL; only a small stage looks up an
    # index.  The level is the head of a wider row, as in dwt, and holds a
    # row of -0.0 and a row of signed zeros
    filt = make_filter(name)
    rng = np.random.default_rng([len(filt), PLAN_LEVEL])
    shapes = [(PLAN_OUTPUTS // (2 << J) + extra, 1 << J)
              for J in range(PLAN_LEVEL.bit_length()) for extra in (0, 1)]
    for rows, h in shapes + [(1, 2 * PLAN_LEVEL)]:
        m = 2 * h
        wide = rng.standard_normal((rows, 2 * m)) * 10.0 ** rng.uniform(-8, 8, (rows, 2 * m))
        wide[0] = -0.0
        if rows > 1:
            wide[1] = np.copysign(0.0, rng.standard_normal(2 * m))
        level = wide[:, :m]
        signals, tail = level.copy(), wide[:, m:].copy()
        looked_up = _analysis_windows.cache_info()
        _analysis_stage(level, filt)
        info = _analysis_windows.cache_info()
        small = h <= PLAN_LEVEL and rows * m <= PLAN_OUTPUTS
        assert info.hits + info.misses == looked_up.hits + looked_up.misses + small
        _assert_bits_equal(wide[:, m:], tail)
        for row in range(rows):
            approx, detail = _reference_analysis(signals[row], filt)
            _assert_bits_equal(level[row, :h], approx)
            _assert_bits_equal(level[row, h:], detail)


def test_analysis_window_index_is_read_only_and_shared_by_filters_of_one_length():
    # the index depends on the level and the filter length only: a filter
    # built directly with 8 taps of its own reads the entries that
    # daubechies-8 made, and each entry lists (2i + l) mod m
    custom = WaveletFilter(name="custom", lowpass=np.random.default_rng(8).standard_normal(8),
                           vanishing_moments=0)
    x = np.random.default_rng(9).standard_normal(256)
    _analysis_windows.cache_clear()
    dwt(x, make_filter("daubechies-8"), 3)
    made = _analysis_windows.cache_info()
    dwt(x, custom, 3)
    shared = _analysis_windows.cache_info()
    assert made.misses == 5 and shared.misses == made.misses
    assert shared.hits == made.hits + 5
    _assert_bits_equal(dwt(x, custom, 3).values, _reference_dwt(x, custom, 3))
    for m in (2, 4, 256):
        index = _analysis_windows(m, 8)
        assert not index.flags.writeable
        np.testing.assert_array_equal(
            index, (2 * np.arange(m // 2)[:, None] + np.arange(8)[None, :]) % m)


def test_kernels_take_the_taps_of_the_filter_they_are_given():
    # a filter built directly, under a name of its own or under a supported
    # name with other taps, transforms with its own taps at every level
    rng = np.random.default_rng(6)
    for name, taps in (("custom", rng.standard_normal(6)),
                       ("haar", make_filter("daubechies-4").lowpass)):
        filt = WaveletFilter(name=name, lowpass=taps, vanishing_moments=0)
        for J in range(1, 13):
            _assert_kernels_match_reference(filt, 1 << J, 0, rng)
