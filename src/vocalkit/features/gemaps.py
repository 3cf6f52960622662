"""Handcrafted 36-dimension acoustic descriptor set ("gemaps_lite").

Statistics over pitch, loudness and per-frame spectral measures: means,
percentiles, normalized deviations, rising/falling slopes, peak rates,
band-limited spectral slopes, Hammarberg index, alpha ratio and H1-A3.

Except for the five absolute-loudness statistics (listed in
LEVEL_DEPENDENT_DIMS), every dimension is invariant to scaling the clip
amplitude by any k > 0.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import find_peaks

from ..audio import AudioClip, runs
from .pitch import F0_REF_HZ, f0_contour, loudness_contour
from .vector import FeatureError, FeatureVector

EPS = 1e-12
DB_FLOOR = -120.0

# strongest-peak bands (Hz) for the Hammarberg index
HAMMARBERG_LOW = (0.0, 2000.0)
HAMMARBERG_HIGH = (2000.0, 5000.0)
# third-formant-region proxy band for H1-A3
A3_BAND = (2300.0, 3500.0)
ALPHA_LOW = (50.0, 1000.0)
ALPHA_HIGH = (1000.0, 5000.0)

LOUDNESS_PEAK_PROMINENCE_DB = 1.0
LOUDNESS_PEAK_MIN_GAP_FRAMES = 3

GEMAPS_LITE_NAMES = (
    "loudness_sma3_amean",
    "loudness_sma3_stddevNorm",
    "loudness_sma3_percentile20.0",
    "loudness_sma3_percentile50.0",
    "loudness_sma3_percentile80.0",
    "loudness_sma3_pctlrange0-2",
    "loudness_sma3_meanRisingSlope",
    "loudness_sma3_meanFallingSlope",
    "loudnessPeaksPerSec",
    "F0semitoneFrom27.5Hz_sma3nz_amean",
    "F0semitoneFrom27.5Hz_sma3nz_stddevNorm",
    "F0semitoneFrom27.5Hz_sma3nz_percentile20.0",
    "F0semitoneFrom27.5Hz_sma3nz_percentile50.0",
    "F0semitoneFrom27.5Hz_sma3nz_percentile80.0",
    "F0semitoneFrom27.5Hz_sma3nz_pctlrange0-2",
    "F0semitoneFrom27.5Hz_sma3nz_meanRisingSlope",
    "F0semitoneFrom27.5Hz_sma3nz_meanFallingSlope",
    "VoicedSegmentsPerSec",
    "MeanVoicedSegmentLengthSec",
    "StddevVoicedSegmentLengthSec",
    "MeanUnvoicedSegmentLength",
    "StddevUnvoicedSegmentLength",
    "slopeV0-500_sma3nz_amean",
    "slopeV0-500_sma3nz_stddevNorm",
    "slopeV500-1500_sma3nz_amean",
    "slopeV500-1500_sma3nz_stddevNorm",
    "slopeUV0-500_sma3nz_amean",
    "slopeUV500-1500_sma3nz_amean",
    "hammarbergIndexV_sma3nz_amean",
    "hammarbergIndexV_sma3nz_stddevNorm",
    "hammarbergIndexUV_sma3nz_amean",
    "alphaRatioV_sma3nz_amean",
    "alphaRatioV_sma3nz_stddevNorm",
    "alphaRatioUV_sma3nz_amean",
    "logRelF0-H1-A3_sma3nz_amean",
    "logRelF0-H1-A3_sma3nz_stddevNorm",
)

# absolute-level loudness statistics; everything else is gain-invariant
LEVEL_DEPENDENT_DIMS = frozenset(
    {
        "loudness_sma3_amean",
        "loudness_sma3_stddevNorm",
        "loudness_sma3_percentile20.0",
        "loudness_sma3_percentile50.0",
        "loudness_sma3_percentile80.0",
    }
)


def _amean(x: np.ndarray) -> float:
    return float(np.mean(x)) if x.size else 0.0


def _stddev_norm(x: np.ndarray) -> float:
    if x.size == 0:
        return 0.0
    mu = np.mean(x)
    if abs(mu) < EPS:
        return 0.0
    return float(np.std(x) / abs(mu))


def _percentile(x: np.ndarray, q: float) -> float:
    return float(np.percentile(x, q)) if x.size else 0.0


def _monotone_run_slopes(y: np.ndarray, dt: float, rising: bool) -> float:
    """Mean slope over maximal strictly rising (or falling) runs of y."""
    if y.size < 2:
        return 0.0
    d = np.diff(y)
    starts, ends = runs(d > 0 if rising else d < 0)
    if starts.size == 0:
        return 0.0
    return float(np.mean((y[ends] - y[starts]) / ((ends - starts) * dt)))


def _band_slope(db_frames: np.ndarray, freqs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Per-frame linear-regression slope of the dB spectrum over [lo, hi] Hz."""
    sel = (freqs >= lo) & (freqs <= hi)
    f = freqs[sel]
    y = db_frames[:, sel]
    fc = f - f.mean()
    denom = np.dot(fc, fc)
    if denom < EPS:
        return np.zeros(db_frames.shape[0])
    return (y @ fc) / denom


def _band_peak_db(db_frames: np.ndarray, freqs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    sel = (freqs >= lo) & (freqs < hi)
    return db_frames[:, sel].max(axis=1)


def _band_sum_db(power_frames: np.ndarray, freqs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    sel = (freqs >= lo) & (freqs < hi)
    total = power_frames[:, sel].sum(axis=1)
    return 10.0 * np.log10(np.maximum(total, 10.0 ** (DB_FLOOR / 10.0)))


def gemaps_lite(clip: AudioClip, clip_id: str = "") -> FeatureVector:
    """Extract the 36-dimension handcrafted feature vector of one clip.

    A fully unvoiced clip yields 0 for every pitch/voiced statistic and
    meta["voiced_valid"] = False; values are never silently dropped.
    """
    if clip.duration_s < 0.1:
        raise FeatureError(f"clip too short for gemaps_lite: {clip.duration_s:.3f}s")
    spec = clip.spectrogram
    loud = loudness_contour(clip)
    pitch = f0_contour(clip)
    dt = loud.frame_hop_s
    duration = clip.duration_s

    n = min(spec.n_frames, len(loud.loudness), len(pitch.f0_semitone))
    db_frames = 10.0 * np.log10(np.maximum(spec.frames[:n], 10.0 ** (DB_FLOOR / 10.0)))
    freqs = spec.freqs
    loudness = loud.loudness[:n]
    voiced = pitch.voicing[:n]
    f0_st = pitch.f0_semitone[:n]
    unvoiced = ~voiced
    f0v = f0_st[voiced]
    voiced_valid = bool(voiced.any())

    # loudness statistics
    peaks, _ = find_peaks(
        loudness,
        prominence=LOUDNESS_PEAK_PROMINENCE_DB,
        distance=LOUDNESS_PEAK_MIN_GAP_FRAMES,
    )
    vals = {
        "loudness_sma3_amean": _amean(loudness),
        "loudness_sma3_stddevNorm": _stddev_norm(loudness),
        "loudness_sma3_percentile20.0": _percentile(loudness, 20),
        "loudness_sma3_percentile50.0": _percentile(loudness, 50),
        "loudness_sma3_percentile80.0": _percentile(loudness, 80),
        "loudness_sma3_pctlrange0-2": _percentile(loudness, 80) - _percentile(loudness, 20),
        "loudness_sma3_meanRisingSlope": _monotone_run_slopes(loudness, dt, rising=True),
        "loudness_sma3_meanFallingSlope": _monotone_run_slopes(loudness, dt, rising=False),
        "loudnessPeaksPerSec": len(peaks) / duration,
    }

    # pitch statistics (voiced frames only; semitone slopes within voiced runs)
    v_starts, v_ends = runs(voiced)
    long_runs = [(i, j) for i, j in zip(v_starts, v_ends) if j - i >= 2]
    f0_slopes_rise = [_monotone_run_slopes(f0_st[i:j], dt, rising=True) for i, j in long_runs]
    f0_slopes_fall = [_monotone_run_slopes(f0_st[i:j], dt, rising=False) for i, j in long_runs]
    vals.update(
        {
            "F0semitoneFrom27.5Hz_sma3nz_amean": _amean(f0v),
            "F0semitoneFrom27.5Hz_sma3nz_stddevNorm": _stddev_norm(f0v),
            "F0semitoneFrom27.5Hz_sma3nz_percentile20.0": _percentile(f0v, 20),
            "F0semitoneFrom27.5Hz_sma3nz_percentile50.0": _percentile(f0v, 50),
            "F0semitoneFrom27.5Hz_sma3nz_percentile80.0": _percentile(f0v, 80),
            "F0semitoneFrom27.5Hz_sma3nz_pctlrange0-2": _percentile(f0v, 80)
            - _percentile(f0v, 20),
            "F0semitoneFrom27.5Hz_sma3nz_meanRisingSlope": _amean(np.asarray(f0_slopes_rise)),
            "F0semitoneFrom27.5Hz_sma3nz_meanFallingSlope": _amean(np.asarray(f0_slopes_fall)),
        }
    )

    # voicing temporal structure
    uv_starts, uv_ends = runs(unvoiced)
    v_lens = (v_ends - v_starts) * dt
    uv_lens = (uv_ends - uv_starts) * dt
    vals.update(
        {
            "VoicedSegmentsPerSec": len(v_starts) / duration,
            "MeanVoicedSegmentLengthSec": _amean(v_lens),
            "StddevVoicedSegmentLengthSec": float(np.std(v_lens)) if v_lens.size else 0.0,
            "MeanUnvoicedSegmentLength": _amean(uv_lens),
            "StddevUnvoicedSegmentLength": float(np.std(uv_lens)) if uv_lens.size else 0.0,
        }
    )

    # spectral measures, split by voicing
    slope_lo = _band_slope(db_frames, freqs, 0.0, 500.0)
    slope_hi = _band_slope(db_frames, freqs, 500.0, 1500.0)
    hammarberg = _band_peak_db(db_frames, freqs, *HAMMARBERG_LOW) - _band_peak_db(
        db_frames, freqs, *HAMMARBERG_HIGH
    )
    alpha = _band_sum_db(spec.frames[:n], freqs, *ALPHA_LOW) - _band_sum_db(
        spec.frames[:n], freqs, *ALPHA_HIGH
    )
    vals.update(
        {
            "slopeV0-500_sma3nz_amean": _amean(slope_lo[voiced]),
            "slopeV0-500_sma3nz_stddevNorm": _stddev_norm(slope_lo[voiced]),
            "slopeV500-1500_sma3nz_amean": _amean(slope_hi[voiced]),
            "slopeV500-1500_sma3nz_stddevNorm": _stddev_norm(slope_hi[voiced]),
            "slopeUV0-500_sma3nz_amean": _amean(slope_lo[unvoiced]),
            "slopeUV500-1500_sma3nz_amean": _amean(slope_hi[unvoiced]),
            "hammarbergIndexV_sma3nz_amean": _amean(hammarberg[voiced]),
            "hammarbergIndexV_sma3nz_stddevNorm": _stddev_norm(hammarberg[voiced]),
            "hammarbergIndexUV_sma3nz_amean": _amean(hammarberg[unvoiced]),
            "alphaRatioV_sma3nz_amean": _amean(alpha[voiced]),
            "alphaRatioV_sma3nz_stddevNorm": _stddev_norm(alpha[voiced]),
            "alphaRatioUV_sma3nz_amean": _amean(alpha[unvoiced]),
        }
    )

    # H1-A3: first pitch harmonic vs strongest peak in the A3 proxy band.
    # The power is taken per value with C pow: NumPy's array power can differ
    # in the last bit, which could move a harmonic bin that rounds near .5.
    f0_hz = F0_REF_HZ * np.array([2.0 ** e for e in (f0v / 12.0).tolist()])
    bins = np.rint(f0_hz / spec.bin_hz).astype(int)
    near = np.clip(bins[:, None] + np.arange(-1, 2), 0, db_frames.shape[1] - 1)
    h1 = np.take_along_axis(db_frames[voiced], near, axis=1).max(axis=1)
    h1a3 = h1 - _band_peak_db(db_frames, freqs, *A3_BAND)[voiced]
    vals.update(
        {
            "logRelF0-H1-A3_sma3nz_amean": _amean(h1a3),
            "logRelF0-H1-A3_sma3nz_stddevNorm": _stddev_norm(h1a3),
        }
    )

    values = np.array([vals[name] for name in GEMAPS_LITE_NAMES])
    return FeatureVector(
        "gemaps_lite",
        GEMAPS_LITE_NAMES,
        values,
        clip_id,
        meta={"voiced_valid": voiced_valid},
    )
