"""Spectral feature families: log-mel filterbank, MFCC and PLP.

All three operate on a precomputed short-time power spectrum and reduce it
to a single clip-level vector by averaging across frames.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ..audio import SpectralFrameSeq
from .vector import FeatureError, FeatureVector

LOG_FLOOR = 1e-10
N_MEL_BANDS = 24
N_MFCC = 13
PLP_ORDER = 12
MEL_FMAX_HZ = 8000.0


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


@cache
def mel_filter_matrix(n_bins: int, bin_hz: float) -> np.ndarray:
    """Triangular mel filters (24 x n_bins) spanning 0..MEL_FMAX_HZ.

    Built once per shape and shared by every caller, so read-only."""
    fmax = min(MEL_FMAX_HZ, (n_bins - 1) * bin_hz)
    edges_hz = _mel_to_hz(np.linspace(0.0, _hz_to_mel(fmax), N_MEL_BANDS + 2))
    freqs = np.arange(n_bins) * bin_hz
    fb = np.zeros((N_MEL_BANDS, n_bins))
    for b in range(N_MEL_BANDS):
        lo, mid, hi = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
        rising = (freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - freqs) / max(hi - mid, 1e-12)
        fb[b] = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.setflags(write=False)
    return fb


def log_mel_frames(spec: SpectralFrameSeq) -> np.ndarray:
    """Per-frame log mel band energies (n_frames x 24), floored at log(eps)."""
    fb = mel_filter_matrix(spec.frames.shape[1], spec.bin_hz)
    band = spec.frames @ fb.T
    return np.log(np.maximum(band, LOG_FLOOR))


def mel_filterbank(spec: SpectralFrameSeq, clip_id: str = "") -> FeatureVector:
    """24 log-mel band energies averaged across frames."""
    if spec.n_frames < 1:
        raise FeatureError("spectrogram has no frames")
    values = log_mel_frames(spec).mean(axis=0)
    names = tuple(f"logmel_{b:02d}" for b in range(N_MEL_BANDS))
    return FeatureVector("filterbank24", names, values, clip_id)


@cache
def _dct2_ortho(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II matrix (n_out x n_in), shared and read-only."""
    k = np.arange(n_out)[:, None]
    n = np.arange(n_in)[None, :]
    mat = np.cos(np.pi * k * (2 * n + 1) / (2 * n_in)) * np.sqrt(2.0 / n_in)
    mat[0] /= np.sqrt(2.0)
    mat.setflags(write=False)
    return mat


def mfcc(spec: SpectralFrameSeq, clip_id: str = "") -> FeatureVector:
    """13 mel-frequency cepstral coefficients: DCT-II of the 24 log-mel bands."""
    logmel = log_mel_frames(spec)
    dct = _dct2_ortho(N_MFCC, N_MEL_BANDS)
    coeffs = (logmel @ dct.T).mean(axis=0)
    names = tuple(f"mfcc_{i:02d}" for i in range(N_MFCC))
    return FeatureVector("mfcc13", names, coeffs, clip_id)


# ---------------------------------------------------------------------------
# Perceptual linear prediction
# ---------------------------------------------------------------------------

def _hz_to_bark(f):
    f = np.asarray(f, dtype=float)
    return 6.0 * np.arcsinh(f / 600.0)


def _equal_loudness(f):
    f2 = np.asarray(f, dtype=float) ** 2
    return (f2 + 56.8e6) * f2 ** 2 / ((f2 + 6.3e6) ** 2 * (f2 + 0.38e9))


@cache
def _bark_filter_matrix(n_bins: int, bin_hz: float):
    """Critical-band masking filters on the bark axis plus band center freqs,
    both shared and read-only."""
    freqs = np.arange(n_bins) * bin_hz
    barks = _hz_to_bark(freqs)
    max_bark = barks[-1]
    n_bands = int(np.floor(max_bark)) + 1
    centers = np.arange(n_bands) * max_bark / max(n_bands - 1, 1)
    fb = np.zeros((n_bands, n_bins))
    for b, c in enumerate(centers):
        d = barks - c
        w = np.zeros(n_bins)
        lo = (d >= -1.3) & (d < -0.5)
        mid = (d >= -0.5) & (d <= 0.5)
        hi = (d > 0.5) & (d <= 2.5)
        w[lo] = 10.0 ** (d[lo] + 0.5)
        w[mid] = 1.0
        w[hi] = 10.0 ** (-2.5 * (d[hi] - 0.5))
        fb[b] = w
    center_hz = 600.0 * np.sinh(centers / 6.0)
    fb.setflags(write=False)
    center_hz.setflags(write=False)
    return fb, center_hz


def _levinson(R: np.ndarray, order: int):
    """Levinson-Durbin recursion over the rows of R, one autocorrelation per row.

    Returns (a, gain, refl): lpc coefficients a[:, 0..order], prediction error
    and reflection coefficients, one row each.  A row stops updating after the
    step at which its error reaches <= 0.
    """
    n = R.shape[0]
    a = np.zeros((n, order + 1))
    a[:, 0] = 1.0
    err = R[:, 0].copy()
    refl = np.zeros((n, order))
    live = np.arange(n)
    for i in range(1, order + 1):
        ai = a[live]
        # a contiguous reversed copy makes matmul call one ddot per row, the
        # same call and summation order as np.dot on one row
        rev = np.ascontiguousarray(R[live, i - 1:0:-1])
        acc = R[live, i] + np.matmul(ai[:, None, 1:i], rev[:, :, None])[:, 0, 0]
        k = -acc / err[live]
        refl[live, i - 1] = k
        ai[:, 1:i + 1] += k[:, None] * ai[:, i - 1::-1][:, :i]
        a[live] = ai
        err[live] *= 1.0 - k * k
        live = live[~(err[live] <= 0)]
    return a, err, refl


def _lpc_to_cepstrum(A: np.ndarray, gain: np.ndarray, n_cep: int) -> np.ndarray:
    """Cepstral recursion for all-pole models, one per row; c0 = log(gain)."""
    order = A.shape[1] - 1
    c = np.zeros((A.shape[0], n_cep))
    c[:, 0] = np.log(np.maximum(gain, LOG_FLOOR))
    for n in range(1, n_cep):
        acc = -A[:, n] if n <= order else np.zeros(A.shape[0])
        for k in range(max(1, n - order), n):
            acc = acc - (k / n) * c[:, k] * A[:, n - k]
        c[:, n] = acc
    return c


def _plp_autocorrelation(spec: SpectralFrameSeq) -> np.ndarray:
    """Per-frame autocorrelation (n_frames x PLP_ORDER + 1) of the auditory
    spectrum: critical-band integration, equal-loudness pre-emphasis and
    cube-root compression, then a cosine transform."""
    fb, center_hz = _bark_filter_matrix(spec.frames.shape[1], spec.bin_hz)
    eq = _equal_loudness(np.maximum(center_hz, 1.0))
    band = spec.frames @ fb.T
    compressed = (band * eq) ** 0.33
    # duplicate edge bands before the inverse transform (standard practice)
    padded = np.concatenate(
        [compressed[:, :1], compressed, compressed[:, -1:]], axis=1
    )
    n_bands = padded.shape[1]
    # symmetric spectrum -> autocorrelation via cosine transform
    lags = np.arange(PLP_ORDER + 1)[:, None]
    k = np.arange(n_bands)[None, :]
    cos_mat = np.cos(np.pi * lags * k / (n_bands - 1))
    weights = np.ones(n_bands)
    weights[0] = weights[-1] = 0.5
    return (padded * weights) @ cos_mat.T / (n_bands - 1)


def plp_models(spec: SpectralFrameSeq):
    """Per-frame PLP all-pole models of the non-degenerate frames.

    Returns arrays (a, gain, reflection) with one row (or value) per kept
    frame.
    """
    autoc = _plp_autocorrelation(spec)
    # negated comparisons keep NaN rows in the recursion, as a per-frame test
    # "skip if r0 <= floor" does
    autoc = autoc[~(autoc[:, 0] <= LOG_FLOOR)]
    a, gain, refl = _levinson(autoc, PLP_ORDER)
    keep = ~(gain <= 0) & np.isfinite(a).all(axis=1)
    return a[keep], gain[keep], refl[keep]


def plp(spec: SpectralFrameSeq, clip_id: str = "") -> FeatureVector:
    """13 PLP cepstral coefficients averaged across frames."""
    a, gain, _ = plp_models(spec)
    if gain.size == 0:
        raise FeatureError("all frames degenerate; cannot compute PLP")
    ceps = _lpc_to_cepstrum(a, gain, PLP_ORDER + 1)
    names = tuple(f"plp_{i:02d}" for i in range(PLP_ORDER + 1))
    return FeatureVector("plp13", names, ceps.mean(axis=0), clip_id)
