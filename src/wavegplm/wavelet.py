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

Summation order: a stage on m samples (approximation a, details d of
length m/2, taps l = 0..L-1) gives the same bits on every call.
Analysis takes each output as a BLAS dot product of the contiguous window
x[(2i + l) mod m], l = 0..L-1, with the lowpass or the highpass taps.
Synthesis starts every output x[p] at +0.0 and adds the terms
h_l a_i + g_l d_i with (2i + l) mod m = p in increasing i, ties in
increasing l: the order of an unbuffered scatter-add over that circular
index, which the tests keep as the reference.  No stage builds an index
array or keeps state between calls.
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


def _analysis_stage(x: np.ndarray, filt: WaveletFilter):
    m = x.size
    L = len(filt)
    # window i holds x[(2i + l) mod m], l = 0..L-1: a strided view of enough
    # copies of x end to end, copied so that both products are BLAS calls
    extended = np.concatenate((x,) * -(-(m + L - 2) // m))
    step = extended.itemsize
    window = np.ndarray((m // 2, L), buffer=extended, strides=(2 * step, step)).copy()
    return window @ filt.lowpass, window @ filt.highpass


def _synthesis_stage(approx: np.ndarray, detail: np.ndarray, filt: WaveletFilter) -> np.ndarray:
    h = approx.size
    half = len(filt) // 2
    # terms[q, r, i] = h_l approx_i + g_l detail_i with l = 2q + r lands on
    # x[2k + r] for k = (i + q) mod h; out[r, k] holds x[2k + r]
    terms = np.multiply.outer(filt.lowpass, approx)
    terms += np.multiply.outer(filt.highpass, detail)
    terms = terms.reshape(half, 2, h)
    out = np.zeros((2, h))
    span = min(h, half)
    # each output adds its terms by increasing i, ties by increasing q: by
    # shift k - i = d from span - 1 down to 0, the terms that do not wrap,
    # then k - i = d - h from span - 1 down to 1, the terms that wrap
    for d in range(span - 1, -1, -1):
        tail = out[:, d:]
        for q in range(d, half, h):
            tail += terms[q, :, :h - d]
    for d in range(span - 1, 0, -1):
        head = out[:, :d]
        for q in range(d, half, h):
            head += terms[q, :, h - d:]
    return out.T.ravel()


def dwt(signal: np.ndarray, filt: WaveletFilter, coarse_level: int) -> WaveletCoefficients:
    """Forward periodic DWT of a length-2^J signal down to ``coarse_level``."""
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise DimensionError("dwt expects a 1-d signal")
    layout = coefficient_layout(x.size, coarse_level)
    out = np.empty(x.size)
    approx = x
    size = x.size
    while size > 1 << coarse_level:
        approx, out[size // 2:size] = _analysis_stage(approx, filt)
        size //= 2
    out[:size] = approx
    return WaveletCoefficients(values=out, layout=layout)


def idwt(coeffs: WaveletCoefficients, filt: WaveletFilter) -> np.ndarray:
    """Inverse periodic DWT; exact transpose of :func:`dwt`."""
    values = coeffs.values
    approx = coeffs.scaling.copy()
    size = approx.size
    while size < values.size:
        approx = _synthesis_stage(approx, values[size:2 * size], filt)
        size *= 2
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
