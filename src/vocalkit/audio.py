"""Deterministic audio ingestion, spectral primitives and frame-mask runs.

Everything downstream (segmentation, features, syllable rates) is built on the
three types defined here: AudioClip, SpectralFrameSeq and EnvelopeSeq.  All
functions are pure; the same input bytes always produce the same output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.io import wavfile

CANONICAL_RATE = 16000
DEFAULT_FRAME_LEN_S = 0.025
DEFAULT_FRAME_HOP_S = 0.010

# half-width of the windowed-sinc resampling kernel (64 taps total)
_RESAMPLE_HALF_TAPS = 32
# output samples per evaluation block: the block x 64 temporaries are 512 KiB
# each.  Measured while segment, extract and speed still each decoded every
# clip, so three resamples per clip: resampling a 12-clip 48 kHz corpus that
# way took 0.29 s with blocks of 1024, 0.28 s with 512 (within the quartiles,
# and segment+extract+speed faster in only 12 of 20 alternated rounds), and
# 0.48 s and 0.73 s with 2048 and 4096
_RESAMPLE_BLOCK = 1024


class AudioError(Exception):
    """Raised for unreadable, unsupported or degenerate audio input."""


@dataclass(frozen=True)
class AudioClip:
    """Mono audio, float64 samples nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int
    id: str = ""

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise AudioError(f"sample_rate must be positive, got {self.sample_rate}")
        if len(self.samples) == 0:
            raise AudioError("empty audio")
        if not np.all(np.isfinite(self.samples)):
            raise AudioError("non-finite samples")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate

    @cached_property
    def spectrogram(self) -> "SpectralFrameSeq":
        """The clip's default power spectrogram, computed on first use; every
        feature set of the clip reads this one."""
        return power_spectrogram(self)

    def slice_s(self, start_s: float, end_s: float, id: str = "") -> "AudioClip":
        """Sub-clip between two times (clamped to the clip)."""
        i0 = max(0, int(round(start_s * self.sample_rate)))
        i1 = min(len(self.samples), int(round(end_s * self.sample_rate)))
        if i1 <= i0:
            raise AudioError(f"empty slice [{start_s}, {end_s}]")
        return AudioClip(self.samples[i0:i1], self.sample_rate, id or self.id)


@dataclass(frozen=True)
class SpectralFrameSeq:
    """Short-time power spectra: one row per frame, one column per bin.

    Powers are normalized so each row sums to the windowed time-domain
    energy of its frame (one-sided spectrum, interior bins doubled).
    """

    frames: np.ndarray
    frame_hop_s: float
    frame_len_s: float
    bin_hz: float

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def freqs(self) -> np.ndarray:
        return np.arange(self.frames.shape[1]) * self.bin_hz


@dataclass(frozen=True)
class EnvelopeSeq:
    """Non-negative amplitude envelope sampled at rate_hz."""

    values: np.ndarray
    rate_hz: float


def load_audio(path, id: str = "") -> AudioClip:
    """Read a RIFF/WAVE file (16-bit PCM, 32-bit PCM or 32-bit float).

    Multi-channel input is averaged to mono; integer PCM is scaled to
    [-1, 1].  The clip keeps the file's native sample rate.
    """
    try:
        with warnings.catch_warnings():
            # a data chunk cut short only warns, and the clip would be silently short
            warnings.filterwarnings(
                "error", "Reached EOF prematurely", wavfile.WavFileWarning
            )
            rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise AudioError(f"unreadable audio file {path}: {exc}") from exc
    if data.size == 0:
        raise AudioError(f"zero-length audio: {path}")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise AudioError(f"unsupported WAV encoding {data.dtype} in {path}")
    if samples.ndim == 2:
        if samples.shape[1] > 2:
            raise AudioError(f"more than 2 channels in {path}")
        samples = samples.mean(axis=1)
    return AudioClip(samples, int(rate), id or str(path))


def save_audio(path, clip: AudioClip) -> None:
    """Write a clip as 32-bit float WAV."""
    wavfile.write(path, clip.sample_rate, clip.samples.astype(np.float32))


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Band-limited resampling with a 64-tap Hann-windowed sinc kernel.

    Identity (bit-exact) when target_rate equals the clip rate.  Duration is
    preserved within one sample period.
    """
    if target_rate <= 0:
        raise AudioError(f"target_rate must be positive, got {target_rate}")
    if target_rate == clip.sample_rate:
        return clip
    x = clip.samples
    n = len(x)
    ratio = clip.sample_rate / target_rate
    n_out = max(1, int(round(n * target_rate / clip.sample_rate)))
    t = np.arange(n_out) * ratio
    base = np.floor(t)
    # a tap depends on t only through its phase t - floor(t), which is exact
    # for t >= 0, so phase - off rounds to the same float as t - (base + off):
    # one tap row per distinct phase gives the per-sample taps bit for bit
    phases, which = np.unique(t - base, return_inverse=True)
    offs = np.arange(-_RESAMPLE_HALF_TAPS + 1, _RESAMPLE_HALF_TAPS + 1)
    frac = phases[:, None] - offs[None, :]
    cutoff = min(1.0, 1.0 / ratio)
    taps = cutoff * np.sinc(cutoff * frac)
    taps *= 0.5 * (1.0 + np.cos(np.pi * frac / _RESAMPLE_HALF_TAPS))
    taps /= taps.sum(axis=1, keepdims=True)
    # each output's first tap index, non-decreasing; it takes base's place,
    # so one n_out-long index array is alive through the loop
    first = base.astype(np.int64)
    del base
    first += offs[0]
    n_taps = len(offs)
    windows = sliding_window_view(x, n_taps) if n >= n_taps else None
    out = np.empty(n_out)
    for i0 in range(0, n_out, _RESAMPLE_BLOCK):
        i1 = min(i0 + _RESAMPLE_BLOCK, n_out)
        if first[i0] >= 0 and first[i1 - 1] + n_taps <= n:
            # interior block: every window lies inside the clip, so rows of
            # the window view hold the samples the edge path would gather, in
            # the same contiguous rows of 64, and the row sums run in the same
            # order.  There np.clip would change no index and the mask would
            # be all 1.0, a multiply exact for every double (NaN, +-inf and
            # -0.0 included), so both paths give the same bits
            rows = windows[first[i0:i1]]
            out[i0:i1] = (rows * taps[which[i0:i1]]).sum(axis=1)
        else:
            # edge block: taps past either end are clamped, then zeroed
            idx = first[i0:i1, None] + np.arange(n_taps)[None, :]
            valid = (idx >= 0) & (idx < n)
            gathered = x[np.clip(idx, 0, n - 1)]
            out[i0:i1] = (gathered * taps[which[i0:i1]] * valid).sum(axis=1)
    return AudioClip(out, target_rate, clip.id)


def power_spectrogram(
    clip: AudioClip,
    frame_len_s: float = DEFAULT_FRAME_LEN_S,
    frame_hop_s: float = DEFAULT_FRAME_HOP_S,
) -> SpectralFrameSeq:
    """Hann-windowed short-time power spectrum.

    Frame count is floor((N - frame_len) / hop) + 1.  Per-frame powers obey
    Parseval: summing a row gives the windowed frame's time-domain energy.
    """
    frame_len = int(round(frame_len_s * clip.sample_rate))
    hop = int(round(frame_hop_s * clip.sample_rate))
    if frame_len < 2:
        raise AudioError("frame shorter than 2 samples")
    if hop > frame_len or hop < 1:
        raise AudioError("hop must satisfy 1 <= hop <= frame length")
    n = len(clip.samples)
    if n < frame_len:
        raise AudioError("clip shorter than one frame")
    n_frames = (n - frame_len) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, frame_len)[::hop][:n_frames]
    win = np.hanning(frame_len)
    spec = np.fft.rfft(frames * win, axis=1)
    power = (spec.real ** 2 + spec.imag ** 2) / frame_len
    # one-sided: double the interior bins so rows sum to frame energy
    power[:, 1:] *= 2.0
    if frame_len % 2 == 0:
        power[:, -1] /= 2.0
    return SpectralFrameSeq(
        frames=power,
        frame_hop_s=hop / clip.sample_rate,
        frame_len_s=frame_len / clip.sample_rate,
        bin_hz=clip.sample_rate / frame_len,
    )


def amplitude_envelope(clip: AudioClip, rate_hz: float = 100.0) -> EnvelopeSeq:
    """Per-window RMS envelope over contiguous windows of sr / rate_hz samples.

    Scaling the samples by k > 0 scales the envelope by k exactly.
    """
    if rate_hz > clip.sample_rate:
        raise AudioError("envelope rate above sample rate")
    win = max(1, int(round(clip.sample_rate / rate_hz)))
    n_win = len(clip.samples) // win
    if n_win == 0:
        trimmed = clip.samples
        n_win, win = 1, len(clip.samples)
    else:
        trimmed = clip.samples[: n_win * win]
    rms = np.sqrt(np.mean(trimmed.reshape(n_win, win) ** 2, axis=1))
    return EnvelopeSeq(values=rms, rate_hz=clip.sample_rate / win)


def runs(mask) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) indices of the maximal True runs of a 1-D mask."""
    edges = np.diff(np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0])))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
