"""Periodic orthonormal discrete wavelet transform on dyadic-length signals.

The forward and inverse transforms are computed with the pyramid (cascade)
algorithm in O(n) operations, using circular convolution so that the
underlying basis is the periodized wavelet basis on [0, 1].

Coefficient vectors are stored flat, ordered as

    [ scaling block (size 2^j0) | details at level j0 | ... | details at level J-1 ]

so the finest-scale details sit at the end of the vector.

Sign convention: the highpass filter is derived from the lowpass taps h by
the quadrature-mirror relation g_k = (-1)^k h_{L-1-k}.  For the Haar filter
this yields detail coefficients d_k = (e_{2k} - e_{2k+1}) / sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError

# Lowpass taps of the supported orthonormal filters, from spectral
# factorization of the Daubechies polynomial at 60-digit precision
# (extremal phase for the daubechies-* filters, least asymmetric for
# symmlet-8).  Each tuple sums to sqrt(2) and has unit l2 norm.
_FILTER_TABLE: dict[str, tuple[tuple[float, ...], int]] = {
    "haar": (
        (0.7071067811865475244, 0.7071067811865475244),
        1,
    ),
    "daubechies-4": (
        (
            0.48296291314453414337,
            0.83651630373780790558,
            0.22414386804201338103,
            -0.12940952255126038117,
        ),
        2,
    ),
    "daubechies-6": (
        (
            0.332670552950082616,
            0.80689150931109257649,
            0.4598775021184915701,
            -0.1350110200102545887,
            -0.085441273882026661693,
            0.035226291885709536603,
        ),
        3,
    ),
    "daubechies-8": (
        (
            0.23037781330889650086,
            0.71484657055291564709,
            0.63088076792985890788,
            -0.027983769416859854211,
            -0.18703481171909308408,
            0.030841381835560763627,
            0.032883011666885199735,
            -0.010597401785069032105,
        ),
        4,
    ),
    "symmlet-8": (
        (
            -0.0033824159510050025955,
            -0.00054213233180001068935,
            0.031695087811525991431,
            0.0076074873249766081919,
            -0.14329423835127266284,
            -0.061273359067811077843,
            0.48135965125905339159,
            0.77718575169962802862,
            0.36444189483617893676,
            -0.051945838107881800736,
            -0.027219029917103486322,
            0.049137179673730286787,
            0.0038087520138944894631,
            -0.014952258337062199118,
            -0.00030292051472413308126,
            0.0018899503327676891843,
        ),
        8,
    ),
}

SUPPORTED_FILTERS = tuple(sorted(_FILTER_TABLE))


@dataclass(frozen=True)
class WaveletFilter:
    """An orthonormal quadrature-mirror filter pair."""

    name: str
    lowpass: np.ndarray
    vanishing_moments: int
    highpass: np.ndarray = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.lowpass, dtype=float)
        g = ((-1.0) ** np.arange(h.size)) * h[::-1]
        object.__setattr__(self, "lowpass", h)
        object.__setattr__(self, "highpass", g)

    def __len__(self):
        return self.lowpass.size


def make_filter(name: str) -> WaveletFilter:
    """Look up a supported filter by name.

    Raises
    ------
    ConfigurationError
        If ``name`` is not one of ``SUPPORTED_FILTERS``.
    """
    try:
        taps, moments = _FILTER_TABLE[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown wavelet filter {name!r}; supported: {', '.join(SUPPORTED_FILTERS)}"
        ) from None
    return WaveletFilter(name=name, lowpass=np.array(taps), vanishing_moments=moments)


def _dyadic_log2(n: int) -> int:
    J = int(n).bit_length() - 1
    if n <= 0 or (1 << J) != n:
        raise DimensionError(f"signal length {n} is not a power of two")
    return J


@dataclass(frozen=True)
class CoefficientLayout:
    """Index partition of a flat coefficient vector of length n = 2^J.

    Indices ``0 .. 2^j0 - 1`` hold scaling coefficients; the detail block of
    level j (j0 <= j < J) occupies indices ``2^j .. 2^(j+1) - 1``.
    """

    n: int
    coarse_level: int

    def __post_init__(self):
        J = _dyadic_log2(self.n)
        if not 0 <= self.coarse_level <= J:
            raise DimensionError(
                f"coarse level {self.coarse_level} outside [0, {J}] for n={self.n}"
            )

    @property
    def max_level(self) -> int:
        return _dyadic_log2(self.n)

    @property
    def scaling_slice(self) -> slice:
        return slice(0, 1 << self.coarse_level)

    def detail_slice(self, level: int) -> slice:
        if not self.coarse_level <= level < self.max_level:
            raise DimensionError(
                f"detail level {level} outside [{self.coarse_level}, {self.max_level - 1}]"
            )
        return slice(1 << level, 1 << (level + 1))

    def detail_levels(self):
        return range(self.coarse_level, self.max_level)

    @property
    def detail_mask(self) -> np.ndarray:
        mask = np.ones(self.n, dtype=bool)
        mask[self.scaling_slice] = False
        return mask


def coefficient_layout(n: int, coarse_level: int) -> CoefficientLayout:
    """Partition of flat indices 0..n-1 into scaling and detail blocks."""
    return CoefficientLayout(n=n, coarse_level=coarse_level)


@dataclass(frozen=True)
class WaveletCoefficients:
    """Flat DWT coefficient vector together with its block layout."""

    values: np.ndarray
    layout: CoefficientLayout

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size != self.layout.n:
            raise DimensionError(
                f"coefficient vector of length {v.size} does not match layout n={self.layout.n}"
            )
        object.__setattr__(self, "values", v)

    @property
    def coarse_level(self) -> int:
        return self.layout.coarse_level

    @property
    def scaling(self) -> np.ndarray:
        return self.values[self.layout.scaling_slice]

    @property
    def details(self) -> np.ndarray:
        """All detail coefficients, coarsest level first."""
        return self.values[1 << self.layout.coarse_level:]

    def detail_block(self, level: int) -> np.ndarray:
        return self.values[self.layout.detail_slice(level)]


def _analysis_stage(x: np.ndarray, filt: WaveletFilter):
    m = x.size
    L = len(filt)
    idx = (2 * np.arange(m // 2)[:, None] + np.arange(L)[None, :]) % m
    window = x[idx]
    return window @ filt.lowpass, window @ filt.highpass


def _synthesis_stage(approx: np.ndarray, detail: np.ndarray, filt: WaveletFilter) -> np.ndarray:
    m = 2 * approx.size
    L = len(filt)
    idx = (2 * np.arange(approx.size)[:, None] + np.arange(L)[None, :]) % m
    x = np.zeros(m)
    np.add.at(x, idx, approx[:, None] * filt.lowpass[None, :]
              + detail[:, None] * filt.highpass[None, :])
    return x


def dwt(signal: np.ndarray, filt: WaveletFilter, coarse_level: int) -> WaveletCoefficients:
    """Forward periodic DWT of a length-2^J signal down to ``coarse_level``."""
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise DimensionError("dwt expects a 1-d signal")
    layout = coefficient_layout(x.size, coarse_level)
    out = np.empty(x.size)
    approx = x
    for level in reversed(layout.detail_levels()):
        approx, detail = _analysis_stage(approx, filt)
        out[layout.detail_slice(level)] = detail
    out[layout.scaling_slice] = approx
    return WaveletCoefficients(values=out, layout=layout)


def idwt(coeffs: WaveletCoefficients, filt: WaveletFilter) -> np.ndarray:
    """Inverse periodic DWT; exact transpose of :func:`dwt`."""
    layout = coeffs.layout
    approx = coeffs.scaling.copy()
    for level in layout.detail_levels():
        approx = _synthesis_stage(approx, coeffs.detail_block(level), filt)
    return approx


def transform_matrix(n: int, filt: WaveletFilter, coarse_level: int) -> np.ndarray:
    """Dense orthogonal matrix of the transform, column by column via idwt.

    Intended for testing on small n; costs O(n^2).
    """
    layout = coefficient_layout(n, coarse_level)
    cols = []
    for i in range(n):
        unit = np.zeros(n)
        unit[i] = 1.0
        cols.append(idwt(WaveletCoefficients(values=unit, layout=layout), filt))
    # rows of Psi are the transposed basis vectors: Psi e = theta
    return np.array(cols)
