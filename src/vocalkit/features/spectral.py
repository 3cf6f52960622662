"""Spectral feature families: log-mel filterbank, MFCC and PLP.

All three operate on a precomputed short-time power spectrum and reduce it
to a single clip-level vector by averaging across frames.
"""

from __future__ import annotations

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


def mel_filter_matrix(n_bins: int, bin_hz: float) -> np.ndarray:
    """Triangular mel filters (24 x n_bins) spanning 0..MEL_FMAX_HZ."""
    fmax = min(MEL_FMAX_HZ, (n_bins - 1) * bin_hz)
    edges_hz = _mel_to_hz(np.linspace(0.0, _hz_to_mel(fmax), N_MEL_BANDS + 2))
    freqs = np.arange(n_bins) * bin_hz
    fb = np.zeros((N_MEL_BANDS, n_bins))
    for b in range(N_MEL_BANDS):
        lo, mid, hi = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
        rising = (freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - freqs) / max(hi - mid, 1e-12)
        fb[b] = np.clip(np.minimum(rising, falling), 0.0, None)
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


def _dct2_ortho(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II matrix (n_out x n_in)."""
    k = np.arange(n_out)[:, None]
    n = np.arange(n_in)[None, :]
    mat = np.cos(np.pi * k * (2 * n + 1) / (2 * n_in)) * np.sqrt(2.0 / n_in)
    mat[0] /= np.sqrt(2.0)
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


def _bark_filter_matrix(n_bins: int, bin_hz: float):
    """Critical-band masking filters on the bark axis plus band center freqs."""
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
    return fb, center_hz


def _levinson(r: np.ndarray, order: int):
    """Levinson-Durbin recursion: returns (lpc a[0..order], gain, reflection)."""
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = r[0]
    refl = np.zeros(order)
    for i in range(1, order + 1):
        acc = r[i] + np.dot(a[1:i], r[i - 1:0:-1])
        k = -acc / err
        refl[i - 1] = k
        a[1:i + 1] += k * a[i - 1::-1][:i]
        err *= 1.0 - k * k
        if err <= 0:
            break
    return a, err, refl


def _lpc_to_cepstrum(a: np.ndarray, gain: float, n_cep: int) -> np.ndarray:
    """Cepstral recursion for an all-pole model; c0 = log(gain)."""
    order = len(a) - 1
    c = np.zeros(n_cep)
    c[0] = np.log(max(gain, LOG_FLOOR))
    for n in range(1, n_cep):
        acc = -a[n] if n <= order else 0.0
        for k in range(1, n):
            if n - k <= order:
                acc -= (k / n) * c[k] * a[n - k]
        c[n] = acc
    return c


def plp_models(spec: SpectralFrameSeq):
    """Per-frame PLP all-pole models.

    Returns a list of (a, gain, reflection) tuples, one per non-degenerate
    frame, after critical-band integration, equal-loudness pre-emphasis and
    cube-root compression.
    """
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
    autoc = (padded * weights) @ cos_mat.T / (n_bands - 1)
    models = []
    for r in autoc:
        if r[0] <= LOG_FLOOR:
            continue
        a, gain, refl = _levinson(r, PLP_ORDER)
        if gain <= 0 or not np.all(np.isfinite(a)):
            continue
        models.append((a, gain, refl))
    return models


def plp(spec: SpectralFrameSeq, clip_id: str = "") -> FeatureVector:
    """13 PLP cepstral coefficients averaged across frames."""
    models = plp_models(spec)
    if not models:
        raise FeatureError("all frames degenerate; cannot compute PLP")
    ceps = np.stack([_lpc_to_cepstrum(a, g, PLP_ORDER + 1) for a, g, _ in models])
    names = tuple(f"plp_{i:02d}" for i in range(PLP_ORDER + 1))
    return FeatureVector("plp13", names, ceps.mean(axis=0), clip_id)
