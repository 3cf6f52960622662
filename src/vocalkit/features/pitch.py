"""Pitch and loudness contours.

Pitch uses normalized autocorrelation in the 60-1600 Hz range with a clarity
threshold for voicing and a small octave cost favoring the shorter lag among
near-equal candidates.  Unvoiced frames carry NaN in the semitone track.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..audio import (
    DEFAULT_FRAME_HOP_S,
    DEFAULT_FRAME_LEN_S,
    AudioClip,
)

F0_MIN_HZ = 60.0
F0_MAX_HZ = 1600.0
F0_REF_HZ = 27.5
CLARITY_THRESHOLD = 0.45
OCTAVE_COST = 0.1
LOUDNESS_FLOOR_DB = -90.0


@dataclass(frozen=True)
class PitchContour:
    f0_semitone: np.ndarray  # NaN on unvoiced frames
    voicing: np.ndarray  # bool per frame
    frame_hop_s: float

    @property
    def voiced_values(self) -> np.ndarray:
        return self.f0_semitone[self.voicing]


@dataclass(frozen=True)
class LoudnessContour:
    loudness: np.ndarray  # dB relative to full scale
    frame_hop_s: float


def hz_to_semitone(f0_hz) -> np.ndarray:
    return 12.0 * np.log2(np.asarray(f0_hz) / F0_REF_HZ)


def f0_contour(clip: AudioClip) -> PitchContour:
    """Normalized-autocorrelation pitch track in semitones above 27.5 Hz."""
    sr = clip.sample_rate
    lag_min = max(2, int(np.floor(sr / F0_MAX_HZ)))
    lag_max = int(np.ceil(sr / F0_MIN_HZ))
    win = lag_max  # correlation window: one full period at the lowest pitch
    frame_len = win + lag_max
    hop = max(1, int(round(DEFAULT_FRAME_HOP_S * sr)))
    x = clip.samples
    if len(x) < frame_len:
        x = np.pad(x, (0, frame_len - len(x)))
    n_frames = (len(x) - frame_len) // hop + 1

    semis = np.full(n_frames, np.nan)
    voiced = np.zeros(n_frames, dtype=bool)
    lags = np.arange(lag_max + 1)
    octave_penalty = OCTAVE_COST * np.log2(np.maximum(lags, 1) / lag_min)

    for i in range(n_frames):
        frame = x[i * hop: i * hop + frame_len]
        ref = frame[:win]
        e0 = float(np.dot(ref, ref))
        if e0 <= 1e-12:
            continue
        num = np.correlate(frame, ref, mode="valid")  # num[L] = sum ref[n]*frame[n+L]
        csum = np.concatenate([[0.0], np.cumsum(frame * frame)])
        e_lag = csum[lags + win] - csum[lags]
        nccf = num / np.sqrt(e0 * np.maximum(e_lag, 1e-30))
        # candidate peaks in the admissible lag range
        seg = nccf[lag_min:lag_max + 1]
        interior = (seg[1:-1] >= seg[:-2]) & (seg[1:-1] >= seg[2:])
        cand = np.where(interior)[0] + lag_min + 1
        cand = cand[nccf[cand] >= CLARITY_THRESHOLD]
        if cand.size == 0:
            continue
        best = cand[np.argmax(nccf[cand] - octave_penalty[cand])]
        # parabolic interpolation around the winning lag
        if 1 <= best < lag_max:
            y0, y1, y2 = nccf[best - 1], nccf[best], nccf[best + 1]
            denom = y0 - 2.0 * y1 + y2
            delta = 0.0 if abs(denom) < 1e-30 else 0.5 * (y0 - y2) / denom
            delta = float(np.clip(delta, -0.5, 0.5))
        else:
            delta = 0.0
        f0 = sr / (best + delta)
        if F0_MIN_HZ * 0.9 <= f0 <= F0_MAX_HZ * 1.1:
            semis[i] = hz_to_semitone(f0)
            voiced[i] = True
    return PitchContour(semis, voiced, hop / sr)


def loudness_contour(clip: AudioClip) -> LoudnessContour:
    """Per-frame RMS level in dBFS, floored at -90 dB."""
    sr = clip.sample_rate
    frame_len = int(round(DEFAULT_FRAME_LEN_S * sr))
    hop = max(1, int(round(DEFAULT_FRAME_HOP_S * sr)))
    x = clip.samples
    if len(x) < frame_len:
        x = np.pad(x, (0, frame_len - len(x)))
    n_frames = (len(x) - frame_len) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop][:n_frames]
    rms = np.sqrt(np.mean(frames ** 2, axis=1))
    db = 20.0 * np.log10(np.maximum(rms, 10.0 ** (LOUDNESS_FLOOR_DB / 20.0)))
    return LoudnessContour(np.maximum(db, LOUDNESS_FLOOR_DB), hop / sr)
