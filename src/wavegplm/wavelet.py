"""Periodic orthonormal discrete wavelet transform on dyadic-length signals.

The forward and inverse transforms are computed with the pyramid (cascade)
algorithm in O(n) operations, using circular convolution so that the
underlying basis is the periodized wavelet basis on [0, 1].

Coefficient vectors are stored flat, ordered as

    [ scaling block (size 2^j0) | details at level j0 | ... | details at level J-1 ]

so the finest-scale details sit at the end of the vector.

Both transforms act along the last axis of a ``(..., n)`` array, so one
call transforms a stack of signals (one fit per row in a lockstep
backfit).  Every row gets the bits its own 1-d call gives: each row's
windows go through their own BLAS product, and synthesis sums every row
with the same one or two reductions per level, which spreads their
per-level Python cost over the rows.

Sign convention: the highpass filter is derived from the lowpass taps h by
the quadrature-mirror relation g_k = (-1)^k h_{L-1-k}.  For the Haar filter
this yields detail coefficients d_k = (e_{2k} - e_{2k+1}) / sqrt(2).

Summation order: a stage on m samples (approximation a, details d of
length m/2, taps l = 0..L-1) gives the same bits on every call.
Analysis takes each output as a BLAS dot product of the contiguous window
x[(2i + l) mod m], l = 0..L-1, with the lowpass or the highpass taps.  The
windows are copied out of the level extended by only its first L - 2
samples (by whole copies of a level shorter than that) and copied and
multiplied at most BLOCK windows at a time, so that the L x m/2 window
copy does not grow with n; both products go straight into the output
array, where the level's approximation and details replace the level.
Synthesis starts every output x[p] at +0.0 and adds the terms
h_l a_i + g_l d_i with (2i + l) mod m = p in increasing i, ties in
increasing l: the order of an unbuffered scatter-add over that circular
index, which the tests keep as the reference.  The outputs whose terms
wrap around the level, the first min(m/2, L/2 - 1) of each parity, take
their terms through a cached gather plan that lists each output's L/2
input indices and taps in that order, and sum them with one
``np.add.reduce(..., axis=-2, initial=0.0)``; so do all the outputs of a
stage with m/2 <= PLAN_LEVEL and at most PLAN_OUTPUTS outputs over all
its rows.  The other outputs get their L/2 terms each from two
broadcasting multiplies and sum them with one ``np.add.reduce(...,
axis=0, initial=0.0, out=...)`` over a strided view that lists each
output's terms in that order, BLOCK outputs per parity at a time, so
that their temporaries keep one size whatever n is.  Both rely on numpy
adding along a reduced axis that is not the fast one a term at a time
into the result, with no pairwise regrouping (the ``numpy.sum`` docs keep
pairwise summation to the fast axis), and on ``initial=0.0`` starting
each output at +0.0.
No stage keeps state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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

#: outputs per block of a long analysis or synthesis level.  Whole-level
#: temporaries grow to L x n/2 values (4 MiB for symmlet-8 at n = 65536),
#: which malloc maps afresh and the kernel faults in on every call; blocks
#: of a fixed size keep the peak from growing with n L
BLOCK = 8192

#: synthesis stages with h <= PLAN_LEVEL outputs per parity and at most
#: PLAN_OUTPUTS outputs over their rows gather faster (timed at 1 to 128
#: rows); longer levels gave one-row n = 65536 fits no gain.  Any other
#: stage gathers only the outputs whose terms wrap around the level
PLAN_LEVEL, PLAN_OUTPUTS = 128, 2048


@dataclass(frozen=True)
class WaveletFilter:
    """An orthonormal quadrature-mirror filter pair."""

    name: str
    lowpass: np.ndarray
    vanishing_moments: int
    highpass: np.ndarray = field(init=False)
    #: the taps as synthesis reads them: (lowpass, highpass), each with
    #: [s, r, 0, 0] = tap 2q + r for q = L/2 - 1 - s
    slabs: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        h = np.asarray(self.lowpass, dtype=float)
        g = ((-1.0) ** np.arange(h.size)) * h[::-1]
        object.__setattr__(self, "lowpass", h)
        object.__setattr__(self, "highpass", g)
        object.__setattr__(self, "slabs", tuple(taps.reshape(-1, 2)[::-1, :, None, None]
                                                for taps in (h, g)))

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


@lru_cache(maxsize=64)
def coefficient_layout(n: int, coarse_level: int) -> CoefficientLayout:
    """Partition of flat indices 0..n-1 into scaling and detail blocks
    (one shared instance per argument pair)."""
    return CoefficientLayout(n=n, coarse_level=coarse_level)


@dataclass(frozen=True)
class WaveletCoefficients:
    """Flat DWT coefficient vectors, one per row of a ``(..., n)`` array,
    together with their block layout."""

    values: np.ndarray
    layout: CoefficientLayout

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 0 or v.shape[-1] != self.layout.n:
            raise DimensionError(
                f"coefficient vectors of shape {v.shape} do not match layout n={self.layout.n}"
            )
        object.__setattr__(self, "values", v)

    @property
    def coarse_level(self) -> int:
        return self.layout.coarse_level

    @property
    def scaling(self) -> np.ndarray:
        return self.values[..., self.layout.scaling_slice]

    @property
    def details(self) -> np.ndarray:
        """All detail coefficients, coarsest level first."""
        return self.values[..., 1 << self.layout.coarse_level:]


def _analysis_stage(level: np.ndarray, filt: WaveletFilter) -> None:
    """Replace each row of ``level`` (..., m) by its approximation and its
    details, m/2 each, in place."""
    m, L = level.shape[-1], len(filt)
    h = m // 2
    # window i holds x[(2i + l) mod m], l = 0..L-1: a strided view of each
    # row extended by its first L - 2 samples (by whole copies of a row
    # shorter than that).  The extension is a copy, so the outputs may
    # overwrite the level; windows are copied so that both products are
    # BLAS calls, one per row as for a single signal
    extended = np.concatenate((level,) * (1 + (L - 2) // m) + (level[..., :(L - 2) % m],),
                              axis=-1)
    step = extended.itemsize
    windows = np.ndarray(level.shape[:-1] + (h, L), buffer=extended,
                         strides=extended.strides[:-1] + (2 * step, step))
    # at most BLOCK windows at a time (a longer h is a multiple of BLOCK)
    size = min(h, BLOCK)
    window = np.empty(level.shape[:-1] + (size, L))
    for k0 in range(0, h, size):
        np.copyto(window, windows[..., k0:k0 + size, :])
        np.matmul(window, filt.lowpass, out=level[..., k0:k0 + size])
        np.matmul(window, filt.highpass, out=level[..., h + k0:h + k0 + size])


@lru_cache(maxsize=256)
def _synthesis_plan(h: int, outputs: int, lowpass: bytes) -> tuple[np.ndarray, ...]:
    """Read-only gather plan of the first ``outputs`` outputs per parity of a level of h
    outputs per parity, for the filter with these lowpass taps (float64 bytes):
    column[t, p] is the input i of the t-th term (i, l), (2i + l) mod 2h = p, of output p
    by increasing i, then l, and low and high hold its h_l and g_l."""
    filt = WaveletFilter(name="", lowpass=np.frombuffer(lowpass), vanishing_moments=0)
    L, p, q = len(filt), np.arange(2 * outputs), np.arange(len(filt) // 2)[:, None]
    # output p = 2k + r takes tap l = 2q + r from input i = (k - q) mod h;
    # its terms go in increasing order of the key i L + l
    column, tap = np.divmod(np.sort((p // 2 - q) % h * L + 2 * q + p % 2, axis=0), L)
    plan = column, filt.lowpass[tap], filt.highpass[tap]
    for array in plan:
        array.flags.writeable = False
    return plan


def _synthesis_stage(approx: np.ndarray, detail: np.ndarray, filt: WaveletFilter) -> np.ndarray:
    rows, h = approx.shape
    half = len(filt) // 2
    # a small stage plans all its outputs; any other plans those whose terms
    # wrap around the level, the first min(h, half - 1) of each parity
    small = h <= PLAN_LEVEL and 2 * rows * h <= PLAN_OUTPUTS
    planned = h if small else min(h, half - 1)
    # terms[j, t, p]: h_l approx_ji + g_l detail_ji, the t-th term (i, l) of output p
    column, low, high = _synthesis_plan(h, planned, filt.lowpass.tobytes())
    terms = approx.take(column, axis=-1)
    terms *= low
    products = detail.take(column, axis=-1)
    products *= high
    terms += products
    if small:
        return np.add.reduce(terms, axis=-2, initial=0.0)
    out = np.empty((rows, 2 * h))
    np.add.reduce(terms, axis=-2, initial=0.0, out=out[:, :2 * planned])
    # block[s, r, j, c] = h_l approx_ji + g_l detail_ji with l = 2q + r,
    # q = half - 1 - s and i = k0 - half + 1 + c lands on x_j[2k + r] for
    # k = i + q; slabs run by decreasing q, so that in the view below the
    # summed axis s steps forward through memory and stays the outer loop of
    # the reduction, which reads the terms through their C-ordered buffer.
    # Output k >= half - 1 adds block[s, :, :, k - k0 + s] by increasing s,
    # which is increasing i; none of them wraps
    lowpass, highpass = filt.slabs
    # planes[r, j, k] is x_j[2k + r]; its inner axis k keeps the inner loop
    # of each reduction long
    planes = out.reshape(rows, h, 2).transpose(2, 0, 1)
    for k0 in range(planned, h, BLOCK):
        k1 = min(k0 + BLOCK, h)
        columns = slice(k0 - half + 1, k1)
        block = np.multiply(lowpass, approx[:, columns], order="C")
        block += highpass * detail[:, columns]
        s0, s1, s2, s3 = block.strides
        np.add.reduce(np.ndarray((half, 2, rows, k1 - k0), buffer=block,
                                 strides=(s0 + s3, s1, s2, s3)),
                      axis=0, initial=0.0, out=planes[:, :, k0:k1])
    return out


def dwt(signal: np.ndarray, filt: WaveletFilter, coarse_level: int) -> WaveletCoefficients:
    """Forward periodic DWT of length-2^J signals down to ``coarse_level``,
    along the last axis of a ``(..., n)`` array."""
    out = np.asarray(signal, dtype=float).copy()
    if out.ndim == 0:
        raise DimensionError("dwt expects signals along the last axis")
    layout = coefficient_layout(out.shape[-1], coarse_level)
    size = layout.n
    while size > 1 << coarse_level:
        _analysis_stage(out[..., :size], filt)
        size //= 2
    return WaveletCoefficients(values=out, layout=layout)


def idwt(coeffs: WaveletCoefficients, filt: WaveletFilter) -> np.ndarray:
    """Inverse periodic DWT of every row of ``coeffs``; exact transpose of :func:`dwt`."""
    n = coeffs.layout.n
    values = coeffs.values.reshape(-1, n)
    size = 1 << coeffs.coarse_level
    approx = values[:, :size].copy()
    while size < n:
        approx = _synthesis_stage(approx, values[:, size:2 * size], filt)
        size *= 2
    return approx.reshape(coeffs.values.shape)


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
