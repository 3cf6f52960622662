"""Pitch and loudness contours.

Pitch uses normalized autocorrelation with a clarity threshold for voicing
and a small octave cost favoring the shorter lag among near-equal candidates.
Candidates are interior peaks of the lag grid from floor(sr / 1600) to
ceil(sr / 60), so a tone is tracked from about 61 Hz up to about 1,600 Hz:
1,520 Hz at 16 kHz, 1,570 Hz at 48 kHz and 1,600 Hz at 44.1 kHz.  Unvoiced frames carry NaN in the semitone track.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
# frames per f0_contour block: on a 2 s clip at 16 kHz, blocks of 16 frames
# peak at 0.4 MB of temporaries and blocks of 64 at 1.7 MB, in the same time
_F0_BLOCK = 16


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
    frames = sliding_window_view(x, frame_len)[::hop][:n_frames]

    semis = np.full(n_frames, np.nan)
    voiced = np.zeros(n_frames, dtype=bool)
    lags = np.arange(lag_max + 1)
    octave_penalty = OCTAVE_COST * np.log2(np.maximum(lags, 1) / lag_min)
    # candidates are interior peaks, lags lag_min + 1 .. lag_max - 1
    cand_penalty = octave_penalty[lag_min + 1:lag_max]

    for start in range(0, n_frames, _F0_BLOCK):
        block = frames[start:start + _F0_BLOCK]
        # matmul makes one ddot per (frame, lag): the same call, and so the
        # same rounding, as np.dot and np.correlate on a single frame
        ref = block[:, :win]
        e0 = np.matmul(ref[:, None, :], ref[:, :, None])[:, 0, 0]
        rows = np.flatnonzero(~(e0 <= 1e-12))
        frame = block[rows]
        ref = frame[:, :win]
        windows = sliding_window_view(frame, win, axis=1)  # windows[:, L] = frame[L:L + win]
        num = np.matmul(windows[:, :, None, :], ref[:, None, :, None])[:, :, 0, 0]
        csum = np.concatenate(
            [np.zeros((len(rows), 1)), np.cumsum(frame * frame, axis=1)], axis=1
        )
        e_lag = csum[:, lags + win] - csum[:, lags]
        nccf = num / np.sqrt(e0[rows, None] * np.maximum(e_lag, 1e-30))
        # candidate peaks in the admissible lag range
        seg = nccf[:, lag_min:lag_max + 1]
        mid = seg[:, 1:-1]
        cand = (mid >= seg[:, :-2]) & (mid >= seg[:, 2:]) & (mid >= CLARITY_THRESHOLD)
        hit = np.flatnonzero(cand.any(axis=1))
        if hit.size == 0:
            continue
        score = np.where(cand[hit], mid[hit] - cand_penalty, -np.inf)
        best = np.argmax(score, axis=1) + lag_min + 1  # first maximum wins
        # parabolic interpolation around the winning lag
        y0, y1, y2 = (nccf[hit, best + d] for d in (-1, 0, 1))
        denom = y0 - 2.0 * y1 + y2
        delta = np.zeros(hit.size)
        np.divide(0.5 * (y0 - y2), denom, out=delta, where=~(np.abs(denom) < 1e-30))
        f0 = sr / (best + np.clip(delta, -0.5, 0.5))
        ok = (F0_MIN_HZ * 0.9 <= f0) & (f0 <= F0_MAX_HZ * 1.1)
        idx = start + rows[hit[ok]]
        semis[idx] = hz_to_semitone(f0[ok])
        voiced[idx] = True
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
