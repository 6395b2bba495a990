import numpy as np
import pytest

from wavegplm import (
    ConfigurationError,
    DimensionError,
    SUPPORTED_FILTERS,
    WaveletCoefficients,
    coefficient_layout,
    dwt,
    idwt,
    make_filter,
    transform_matrix,
)


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
    # magnitudes from 1e-8 to 1e8 in one vector, then all -0.0
    wide = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-8, 8, (2, n))
    for signal, values in ((wide[0], wide[1]), (np.full(n, -0.0), np.full(n, -0.0))):
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
    _assert_kernels_match_reference(make_filter("symmlet-8"), 1 << 16, 3,
                                    np.random.default_rng(16))
