import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.io import wavfile

from vocalkit.audio import (
    _RESAMPLE_BLOCK,
    _RESAMPLE_HALF_TAPS,
    AudioClip,
    AudioError,
    amplitude_envelope,
    load_audio,
    power_spectrogram,
    resample,
    runs,
)

from conftest import SR, noise_clip, silence, tone


def brute_dft_power(x):
    """O(N^2) DFT power oracle, independent of the FFT path."""
    n = len(x)
    k = np.arange(n)
    mat = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return np.abs(mat @ x) ** 2


def _resample_reference(clip, target_rate):
    """Per-sample taps over all n_out x 64 at once, to cross-check resample."""
    x = clip.samples
    n = len(x)
    ratio = clip.sample_rate / target_rate
    n_out = max(1, int(round(n * target_rate / clip.sample_rate)))
    t = np.arange(n_out) * ratio
    base = np.floor(t).astype(np.int64)
    offs = np.arange(-_RESAMPLE_HALF_TAPS + 1, _RESAMPLE_HALF_TAPS + 1)
    idx = base[:, None] + offs[None, :]
    frac = t[:, None] - idx
    cutoff = min(1.0, 1.0 / ratio)
    taps = cutoff * np.sinc(cutoff * frac)
    taps *= 0.5 * (1.0 + np.cos(np.pi * frac / _RESAMPLE_HALF_TAPS))
    taps /= taps.sum(axis=1, keepdims=True)
    valid = (idx >= 0) & (idx < n)
    gathered = x[np.clip(idx, 0, n - 1)]
    return (gathered * taps * valid).sum(axis=1)


RATE_PAIRS = [(sr, SR) for sr in (8000, 11025, 22050, 32000, 44100, 48000, 96000)]
RATE_PAIRS.append((SR, 44100))


class TestLoadAudio:
    def test_silence_int16(self, tmp_path):
        path = tmp_path / "sil.wav"
        wavfile.write(path, 16000, np.zeros(16000, dtype=np.int16))
        clip = load_audio(path)
        assert len(clip.samples) == 16000
        assert np.all(clip.samples == 0.0)
        assert clip.sample_rate == 16000

    def test_stereo_cancellation(self, tmp_path):
        path = tmp_path / "st.wav"
        x = (0.4 * np.sin(2 * np.pi * 200 * np.arange(8000) / 16000)).astype(np.float32)
        wavfile.write(path, 16000, np.stack([x, -x], axis=1))
        clip = load_audio(path)
        assert np.allclose(clip.samples, 0.0)

    def test_sine_count_and_peak(self, tmp_path):
        # oracle: synthesize the file directly and compare count and max
        sr, dur, amp = 44100, 0.5, 0.6
        t = np.arange(int(sr * dur)) / sr
        ref = (amp * np.sin(2 * np.pi * 440 * t)).astype(np.float32)
        path = tmp_path / "sine.wav"
        wavfile.write(path, sr, ref)
        clip = load_audio(path)
        assert len(clip.samples) == 22050
        assert clip.sample_rate == sr
        assert clip.samples.max() == pytest.approx(amp, abs=1e-3)

    def test_zero_length_rejected(self, tmp_path):
        path = tmp_path / "empty.wav"
        wavfile.write(path, 16000, np.zeros(0, dtype=np.int16))
        with pytest.raises(AudioError):
            load_audio(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises((AudioError, FileNotFoundError)):
            load_audio(tmp_path / "nope.wav")


class TestResample:
    def test_identity_bit_exact(self):
        clip = tone(440)
        out = resample(clip, SR)
        assert out.samples is clip.samples

    def test_length_arithmetic(self):
        clip = tone(440, duration_s=1.0, sr=48000)
        out = resample(clip, 16000)
        assert abs(len(out.samples) - 16000) <= 1

    def test_tone_survives_downsampling(self):
        # brute-force DFT oracle on the resampled signal
        clip = tone(440, duration_s=0.1, sr=48000)
        out = resample(clip, 16000)
        seg = out.samples[200:200 + 800]
        power = brute_dft_power(seg)
        half = len(seg) // 2
        peak_hz = np.argmax(power[:half]) * 16000 / len(seg)
        assert abs(peak_hz - 440) <= 16000 / len(seg)

    def test_round_trip_correlation(self):
        clip = tone(500, duration_s=0.5)
        back = resample(resample(clip, 44100), SR)
        n = min(len(back.samples), len(clip.samples))
        c = np.corrcoef(back.samples[:n], clip.samples[:n])[0, 1]
        assert c > 0.999

    def test_bad_rate(self):
        with pytest.raises(AudioError):
            resample(tone(440), 0)

    @pytest.mark.parametrize("length", [1, 63, 64, 65, "2s"])
    @pytest.mark.parametrize("rates", RATE_PAIRS, ids=lambda r: f"{r[0]}to{r[1]}")
    def test_matches_per_sample_taps(self, rates, length):
        sr, target = rates
        n = 2 * sr if length == "2s" else length
        clip = AudioClip(np.random.default_rng(n).uniform(-1, 1, n), sr)
        out = resample(clip, target)
        assert out.samples.tobytes() == _resample_reference(clip, target).tobytes()

    @pytest.mark.parametrize("edge", [-1, 0, 1])
    @pytest.mark.parametrize("sr", [44100, 48000])
    def test_matches_per_sample_taps_at_block_boundary(self, sr, edge):
        n_out = 2 * _RESAMPLE_BLOCK + edge
        n = int(round(n_out * sr / SR))
        clip = AudioClip(np.random.default_rng(n).uniform(-1, 1, n), sr)
        out = resample(clip, SR)
        assert len(out.samples) == n_out
        assert out.samples.tobytes() == _resample_reference(clip, SR).tobytes()

    # Blocks whose windows all lie inside the clip take resample's interior
    # path, the others its edge path; the cases below sit on the seams.

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize(
        "where", [0, 31, 3 * _RESAMPLE_BLOCK, "middle", -32, -1],
        ids=["first", "start+31", "block_seam", "middle", "end-32", "last"],
    )
    def test_non_finite_samples_match_per_sample_taps(self, monkeypatch, value, where):
        # AudioClip rejects non-finite samples, in resample's input and output
        monkeypatch.setattr(AudioClip, "__post_init__", lambda self: None)
        x = np.random.default_rng(3).uniform(-1, 1, 2 * 48000)
        x[len(x) // 2 if where == "middle" else where] = value
        clip = AudioClip(x, 48000)
        with np.errstate(invalid="ignore"):
            out = resample(clip, SR)
            want = _resample_reference(clip, SR)
        assert not np.isfinite(out.samples).all()
        assert out.samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("past", [0, 1], ids=["ends_at_n", "one_past_n"])
    @pytest.mark.parametrize("sr", [44100, 48000])
    def test_last_interior_window_at_the_clip_end(self, sr, past):
        # the second block's last window ends exactly at the clip's end, or
        # one sample past it, which makes it an edge block
        i_last = 2 * _RESAMPLE_BLOCK - 1
        n = int(np.floor(i_last * (sr / SR))) + _RESAMPLE_HALF_TAPS + 1 - past
        clip = AudioClip(np.random.default_rng(n).uniform(-1, 1, n), sr)
        out = resample(clip, SR)
        assert len(out.samples) > i_last + 1
        assert out.samples.tobytes() == _resample_reference(clip, SR).tobytes()

    @pytest.mark.parametrize("target, first", [(34000, -1), (32768, 0)])
    def test_first_interior_window_at_the_clip_start(self, target, first):
        # upsampling by about 33x: the second block's first window starts one
        # sample before the clip, which makes it an edge block, or at its start
        sr, n = 1000, 200
        assert np.floor(_RESAMPLE_BLOCK * (sr / target)) - _RESAMPLE_HALF_TAPS + 1 == first
        clip = AudioClip(np.random.default_rng(target).uniform(-1, 1, n), sr)
        out = resample(clip, target)
        assert out.samples.tobytes() == _resample_reference(clip, target).tobytes()


class TestPowerSpectrogram:
    def test_dc_energy_in_lowest_bins(self):
        # a Hann window's transform lives in bins 0 and +/-1, so a constant
        # signal concentrates essentially all power there
        clip = AudioClip(np.ones(SR), SR)
        spec = power_spectrogram(clip)
        frame = spec.frames[0]
        assert frame[:2].sum() / frame.sum() > 0.999

    def test_tone_bin(self):
        clip = tone(1000, duration_s=0.5)
        spec = power_spectrogram(clip, frame_len_s=0.032)
        peak_hz = np.argmax(spec.frames[3]) * spec.bin_hz
        assert abs(peak_hz - 1000) <= 31.25
        # cross-check one frame against the O(N^2) DFT oracle
        fl = int(0.032 * SR)
        frame = clip.samples[3 * int(0.01 * SR):][:fl] * np.hanning(fl)
        oracle = brute_dft_power(frame) / fl
        oracle_one_sided = oracle[: fl // 2 + 1].copy()
        oracle_one_sided[1:-1] *= 2
        assert np.allclose(spec.frames[3], oracle_one_sided, rtol=1e-8, atol=1e-12)

    def test_frame_count(self):
        clip = tone(440, duration_s=1.0)
        spec = power_spectrogram(clip, frame_len_s=0.025, frame_hop_s=0.010)
        assert spec.n_frames == 98

    def test_parseval(self, rng):
        x = rng.standard_normal(SR // 2) * 0.1
        clip = AudioClip(x, SR)
        spec = power_spectrogram(clip)
        fl, hop = int(0.025 * SR), int(0.01 * SR)
        win = np.hanning(fl)
        for i in range(0, spec.n_frames, 7):
            e_time = np.sum((x[i * hop:i * hop + fl] * win) ** 2)
            assert abs(spec.frames[i].sum() - e_time) / e_time < 1e-6

    def test_too_short(self):
        with pytest.raises(AudioError):
            power_spectrogram(AudioClip(np.ones(10), SR))


class TestAmplitudeEnvelope:
    def test_silence(self):
        env = amplitude_envelope(silence(), 100)
        assert np.all(env.values == 0.0)

    def test_sine_rms(self):
        a = 0.4
        env = amplitude_envelope(tone(400, amplitude=a), 100)
        assert np.allclose(env.values[1:], a / np.sqrt(2), atol=0.01)

    def test_gated_tone_alternates(self):
        # 4 Hz on/off gating: envelope crosses the midpoint 8 times per second
        t = np.arange(SR) / SR
        gate = (np.floor(t * 8) % 2 == 0).astype(float)
        clip = AudioClip(0.5 * np.sin(2 * np.pi * 500 * t) * gate, SR)
        env = amplitude_envelope(clip, 100)
        mid = env.values.max() / 2
        transitions = np.sum(np.diff((env.values > mid).astype(int)) != 0)
        assert 6 <= transitions <= 9

    def test_scaling_homogeneity(self, rng):
        x = rng.standard_normal(SR) * 0.1
        e1 = amplitude_envelope(AudioClip(x, SR), 50).values
        e2 = amplitude_envelope(AudioClip(3.0 * x, SR), 50).values
        assert np.allclose(e2, 3.0 * e1)


def test_determinism():
    clip = noise_clip(seed=7)
    a = power_spectrogram(clip).frames
    b = power_spectrogram(noise_clip(seed=7)).frames
    assert np.array_equal(a, b)


def naive_runs(mask):
    """Reference run-length scan: (start, end) of each maximal True run."""
    out, start = [], None
    for i, m in enumerate(mask):
        if m and start is None:
            start = i
        elif not m and start is not None:
            out.append((start, i))
            start = None
    if start is not None:
        out.append((start, len(mask)))
    return out


class TestRuns:
    @given(st.lists(st.booleans(), max_size=200))
    def test_matches_naive_scan(self, mask):
        starts, ends = runs(np.array(mask, dtype=bool))
        assert list(zip(starts.tolist(), ends.tolist())) == naive_runs(mask)

    @given(st.lists(st.booleans(), max_size=200))
    def test_runs_are_disjoint_and_cover_the_true_entries(self, mask):
        mask = np.array(mask, dtype=bool)
        starts, ends = runs(mask)
        assert np.all(starts < ends)
        assert np.all(ends[:-1] < starts[1:])  # disjoint, with a gap between runs
        covered = np.zeros(len(mask), dtype=bool)
        for i, j in zip(starts, ends):
            covered[i:j] = True
        assert np.array_equal(covered, mask)

    @pytest.mark.parametrize(
        "mask, want",
        [
            ([], []),
            ([True] * 5, [(0, 5)]),
            ([False] * 5, []),
            ([True, False, True, True], [(0, 1), (2, 4)]),
        ],
    )
    def test_edge_masks(self, mask, want):
        starts, ends = runs(np.array(mask, dtype=bool))
        assert starts.dtype.kind == ends.dtype.kind == "i"
        assert list(zip(starts.tolist(), ends.tolist())) == want
