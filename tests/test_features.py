import contextlib
import warnings

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from vocalkit.audio import (
    DEFAULT_FRAME_HOP_S,
    AudioClip,
    AudioError,
    SpectralFrameSeq,
    power_spectrogram,
)
from vocalkit.features import (
    FEATURE_SET_DIMS,
    FeatureError,
    FeatureVector,
    clip_vector,
    compare_feature_set,
    gemaps_lite,
    mel_filterbank,
    mfcc,
    plp,
    plp_models,
)
from vocalkit.features.gemaps import (
    A3_BAND,
    DB_FLOOR,
    GEMAPS_LITE_NAMES,
    LEVEL_DEPENDENT_DIMS,
    _amean,
    _band_peak_db,
    _band_slope,
    _monotone_run_slopes,
    _stddev_norm,
)
from vocalkit.features.pitch import (
    CLARITY_THRESHOLD,
    F0_MAX_HZ,
    F0_MIN_HZ,
    F0_REF_HZ,
    OCTAVE_COST,
    PitchContour,
    f0_contour,
    hz_to_semitone,
    loudness_contour,
)
from vocalkit.features.spectral import (
    LOG_FLOOR,
    PLP_ORDER,
    _bark_filter_matrix,
    _dct2_ortho,
    _levinson,
    _lpc_to_cepstrum,
    _plp_autocorrelation,
    log_mel_frames,
    mel_filter_matrix,
)
from vocalkit.features.store import read_feature_csv, write_feature_csv

from conftest import SR, harmonic_tone, noise_clip, silence, tone


def _levinson_reference(r, order):
    """Per-frame Levinson-Durbin recursion that _levinson batches over rows."""
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


def _lpc_to_cepstrum_reference(a, gain, n_cep):
    """Per-frame cepstral recursion that _lpc_to_cepstrum batches over rows."""
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


def _plp_reference(spec):
    """plp with one Levinson and one cepstral recursion per frame."""
    ceps = []
    for r in _plp_autocorrelation(spec):
        if r[0] <= LOG_FLOOR:
            continue
        a, gain, _ = _levinson_reference(r, PLP_ORDER)
        if gain <= 0 or not np.all(np.isfinite(a)):
            continue
        ceps.append(_lpc_to_cepstrum_reference(a, gain, PLP_ORDER + 1))
    return np.stack(ceps).mean(axis=0)


def _f0_contour_reference(clip):
    """f0_contour with one np.correlate per frame."""
    sr = clip.sample_rate
    lag_min = max(2, int(np.floor(sr / F0_MAX_HZ)))
    lag_max = int(np.ceil(sr / F0_MIN_HZ))
    win = lag_max
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
        num = np.correlate(frame, ref, mode="valid")
        csum = np.concatenate([[0.0], np.cumsum(frame * frame)])
        e_lag = csum[lags + win] - csum[lags]
        nccf = num / np.sqrt(e0 * np.maximum(e_lag, 1e-30))
        seg = nccf[lag_min:lag_max + 1]
        interior = (seg[1:-1] >= seg[:-2]) & (seg[1:-1] >= seg[2:])
        cand = np.where(interior)[0] + lag_min + 1
        cand = cand[nccf[cand] >= CLARITY_THRESHOLD]
        if cand.size == 0:
            continue
        best = cand[np.argmax(nccf[cand] - octave_penalty[cand])]
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


def _pitch_frames(n_frames, sr=SR):
    """Samples of a clip that f0_contour cuts into exactly n_frames frames."""
    lag_max = int(np.ceil(sr / F0_MIN_HZ))
    return 2 * lag_max + (n_frames - 1) * int(round(DEFAULT_FRAME_HOP_S * sr))


def pitch_cases():
    """Clips covering silence, noise, the pitch range edges, a clip shorter
    than one pitch frame and frame counts on either side of a block."""
    rng = np.random.default_rng(5)
    glide_t = np.arange(SR) / SR
    glide = 0.4 * np.sin(2 * np.pi * np.cumsum(80.0 + 1400.0 * glide_t) / SR)
    half_silent = noise_clip(seed=9).samples.copy()
    half_silent[: SR // 2] = 0.0
    cases = {
        "silence": silence(),
        "noise": noise_clip(seed=4),
        "tone60": tone(60),
        "tone1600": tone(1600),
        "harmonic300": harmonic_tone(300),
        "glide": AudioClip(glide, SR),
        "half_silent": AudioClip(half_silent, SR),
        "shorter_than_frame": AudioClip(0.3 * rng.standard_normal(300), SR),
    }
    for n in (15, 16, 17, 33):
        t = np.arange(_pitch_frames(n)) / SR
        cases[f"frames{n}"] = AudioClip(
            0.3 * np.sin(2 * np.pi * 220.0 * t) + 0.05 * rng.standard_normal(t.size), SR
        )
    return cases


PITCH_CASES = pitch_cases()


def _h1a3_reference(clip):
    """The two H1-A3 statistics of gemaps_lite, one voiced frame at a time."""
    spec = power_spectrogram(clip)
    pitch = f0_contour(clip)
    n = min(spec.n_frames, len(loudness_contour(clip).loudness), len(pitch.f0_semitone))
    db_frames = 10.0 * np.log10(np.maximum(spec.frames[:n], 10.0 ** (DB_FLOOR / 10.0)))
    h1a3 = []
    for i in np.where(pitch.voicing[:n])[0]:
        f0_hz = F0_REF_HZ * 2.0 ** (pitch.f0_semitone[i] / 12.0)
        bin_idx = int(round(f0_hz / spec.bin_hz))
        lo = max(0, bin_idx - 1)
        hi = min(db_frames.shape[1], bin_idx + 2)
        h1 = db_frames[i, lo:hi].max()
        a3 = _band_peak_db(db_frames[i:i + 1], spec.freqs, *A3_BAND)[0]
        h1a3.append(h1 - a3)
    h1a3 = np.asarray(h1a3)
    return np.array([_amean(h1a3), _stddev_norm(h1a3)])


def flat_spec(n_frames=4, n_bins=201, bin_hz=62.5, level=1.0):
    return SpectralFrameSeq(
        frames=np.full((n_frames, n_bins), level),
        frame_hop_s=0.010,
        frame_len_s=0.025,
        bin_hz=bin_hz,
    )


class TestVectorTypes:
    def test_registry(self):
        assert FEATURE_SET_DIMS == {
            "filterbank24": 24,
            "mfcc13": 13,
            "plp13": 13,
            "gemaps_lite": 36,
        }

    def test_dim_mismatch(self):
        with pytest.raises(FeatureError):
            FeatureVector("mfcc13", ("a",), np.zeros(1))

    def test_unknown_set(self):
        with pytest.raises(FeatureError):
            FeatureVector("mystery", ("a",), np.zeros(1))

    def test_nonfinite_rejected(self):
        vals = np.zeros(13)
        vals[3] = np.nan
        with pytest.raises(FeatureError):
            FeatureVector("mfcc13", tuple(f"c{i}" for i in range(13)), vals)

    def test_compare_feature_set(self):
        a = FeatureVector("mfcc13", tuple(f"c{i}" for i in range(13)), np.arange(13.0))
        b = FeatureVector("mfcc13", tuple(f"c{i}" for i in range(13)), np.arange(13.0) + 100)
        names, values = compare_feature_set(a, b)
        assert len(names) == 26 and len(values) == 26
        assert names[0] == "c0_left" and names[13] == "c0_right"
        assert values[13] == 100.0

    def test_compare_set_mismatch(self):
        a = FeatureVector("mfcc13", tuple(f"c{i}" for i in range(13)), np.zeros(13))
        b = FeatureVector("plp13", tuple(f"p{i}" for i in range(13)), np.zeros(13))
        with pytest.raises(FeatureError):
            compare_feature_set(a, b)


class TestMelFilterbank:
    def test_matrix_shape_and_range(self):
        fb = mel_filter_matrix(201, 62.5)
        assert fb.shape == (24, 201)
        assert fb.min() >= 0.0 and fb.max() <= 1.0 + 1e-12

    def test_centers_increase(self):
        fb = mel_filter_matrix(201, 62.5)
        centers = fb.argmax(axis=1)
        assert np.all(np.diff(centers) > 0)

    def test_triangle_against_mel_edges(self):
        # independent edge computation with the textbook mel formulas
        fb = mel_filter_matrix(201, 62.5)
        fmax = min(8000.0, 200 * 62.5)
        mel_edges = np.linspace(0.0, 2595.0 * np.log10(1 + fmax / 700.0), 26)
        hz_edges = 700.0 * (10 ** (mel_edges / 2595.0) - 1)
        freqs = np.arange(201) * 62.5
        for b in (0, 7, 15, 23):
            lo, mid, hi = hz_edges[b], hz_edges[b + 1], hz_edges[b + 2]
            want = np.clip(
                np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)), 0, None
            )
            assert np.allclose(fb[b], want)

    def test_coverage(self):
        # every bin between the first and last filter center gets some weight
        fb = mel_filter_matrix(201, 62.5)
        covered = fb.sum(axis=0)
        lo, hi = fb[0].argmax(), fb[-1].argmax()
        assert np.all(covered[lo:hi + 1] > 0)

    def test_log_floor(self):
        frames = log_mel_frames(flat_spec(level=0.0))
        assert np.allclose(frames, np.log(1e-10))

    def test_feature_vector(self):
        v = mel_filterbank(power_spectrogram(tone(500)), clip_id="x")
        assert v.set_id == "filterbank24"
        assert len(v.values) == 24
        assert v.names[0] == "logmel_00"

    def test_gain_shift(self):
        # multiplying amplitude by k adds log(k^2) to every unfloored band
        spec1 = power_spectrogram(tone(500, amplitude=0.2))
        spec2 = power_spectrogram(tone(500, amplitude=0.4))
        d = mel_filterbank(spec2).values - mel_filterbank(spec1).values
        unfloored = mel_filterbank(spec1).values > np.log(1e-10) + 1e-9
        assert np.allclose(d[unfloored], np.log(4.0), atol=1e-6)



@pytest.mark.parametrize(
    "build, args",
    [
        (mel_filter_matrix, (201, 62.5)),
        (mel_filter_matrix, (601, 40.0)),
        (_bark_filter_matrix, (201, 62.5)),
        (_dct2_ortho, (13, 24)),
    ],
    ids=["mel", "mel_wide", "bark", "dct"],
)
def test_filter_banks_are_built_once_and_read_only(build, args):
    cached, fresh = build(*args), build.__wrapped__(*args)
    assert build(*args) is cached
    if not isinstance(cached, tuple):
        cached, fresh = (cached,), (fresh,)
    for got, want in zip(cached, fresh, strict=True):
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            got[0] = 0.0


class TestMfcc:
    def test_dct_matrix_orthonormal_rows(self):
        m = _dct2_ortho(13, 24)
        assert np.allclose(m @ m.T, np.eye(13), atol=1e-12)

    def test_dct_against_scipy(self, rng):
        x = rng.standard_normal(24)
        want = scipy.fft.dct(x, type=2, norm="ortho")[:13]
        got = _dct2_ortho(13, 24) @ x
        assert np.allclose(got, want, atol=1e-12)

    def test_constant_logmel_gives_only_c0(self, monkeypatch):
        spec = flat_spec()
        v = mfcc(spec)
        # flat power spectrum is not flat in mel bands, so instead verify the
        # defining identity: coefficients equal DCT of the mean log-mel vector
        want = _dct2_ortho(13, 24) @ log_mel_frames(spec).mean(axis=0)
        assert np.allclose(v.values, want, atol=1e-12)

    def test_gain_moves_only_c0(self):
        # broadband input keeps every mel band above the log floor, so a gain
        # of k shifts all bands by log(k^2) and only c0 (= sum / sqrt(24)) moves
        clip = noise_clip(amplitude=0.1, seed=11)
        scaled = AudioClip(clip.samples * 4.0, clip.sample_rate)
        a = mfcc(power_spectrogram(clip)).values
        b = mfcc(power_spectrogram(scaled)).values
        assert b[0] - a[0] == pytest.approx(np.log(16.0) * np.sqrt(24), abs=1e-6)
        assert np.allclose(a[1:], b[1:], atol=1e-9)

    def test_shape(self):
        v = mfcc(power_spectrogram(noise_clip()), clip_id="n")
        assert v.set_id == "mfcc13" and len(v.values) == 13


class TestPlp:
    def test_levinson_against_toeplitz_solve(self, rng):
        # oracle: solve the Yule-Walker normal equations directly
        x = rng.standard_normal(512)
        r = np.array([np.dot(x[: 512 - k], x[k:]) for k in range(13)])
        a, gain, refl = (v[0] for v in _levinson(r[None], 12))
        want = scipy.linalg.solve_toeplitz((r[:12], r[:12]), -r[1:13])
        assert np.allclose(a[1:], want, atol=1e-8)
        # prediction error matches r0 + a.r
        assert gain == pytest.approx(r[0] + np.dot(a[1:], r[1:13]), rel=1e-8)
        assert np.all(np.abs(refl) < 1.0)

    def test_cepstrum_against_fft_oracle(self, rng):
        # oracle: cepstrum of 1/A(z) via complex log of the FFT of a
        x = rng.standard_normal(256)
        r = np.array([np.dot(x[: 256 - k], x[k:]) for k in range(9)])
        a, gain, _ = (v[0] for v in _levinson(r[None], 8))
        n_fft = 4096
        spec = np.fft.fft(a, n_fft)
        c_ref = np.fft.ifft(-np.log(spec)).real
        c = _lpc_to_cepstrum(a[None], gain[None], 13)[0]
        assert c[0] == pytest.approx(np.log(gain), rel=1e-10)
        assert np.allclose(c[1:], c_ref[1:13], atol=1e-8)

    def test_levinson_matches_per_frame_recursion(self):
        # real frames, then rows whose error reaches exactly 0 at step 1
        # (constant) and at step 2 (1, 0, -1, 0, ...)
        R = np.concatenate(
            [
                _plp_autocorrelation(power_spectrogram(harmonic_tone(300))),
                _plp_autocorrelation(power_spectrogram(noise_clip(seed=2))),
                np.ones((1, PLP_ORDER + 1)),
                np.resize([1.0, 0.0, -1.0, 0.0], (1, PLP_ORDER + 1)),
            ]
        )
        a, gain, refl = _levinson(R, PLP_ORDER)
        want = [_levinson_reference(r, PLP_ORDER) for r in R]
        assert a.tobytes() == np.stack([w[0] for w in want]).tobytes()
        assert gain.tobytes() == np.array([w[1] for w in want]).tobytes()
        assert refl.tobytes() == np.stack([w[2] for w in want]).tobytes()
        assert gain[-2] == 0.0 and gain[-1] == 0.0
        assert np.all(refl[-2, 1:] == 0.0) and np.all(refl[-1, 2:] == 0.0)

    def test_cepstrum_matches_per_frame_recursion(self):
        a, gain, _ = plp_models(power_spectrogram(harmonic_tone(300)))
        for n_cep in (PLP_ORDER + 1, 20):
            want = np.stack(
                [_lpc_to_cepstrum_reference(ai, gi, n_cep) for ai, gi in zip(a, gain)]
            )
            assert _lpc_to_cepstrum(a, gain, n_cep).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "case", sorted(set(PITCH_CASES) - {"silence", "shorter_than_frame"})
    )
    def test_matches_per_frame_plp(self, case):
        spec = power_spectrogram(PITCH_CASES[case])
        assert plp(spec).values.tobytes() == _plp_reference(spec).tobytes()

    def test_floored_frames_are_skipped(self):
        spec = power_spectrogram(PITCH_CASES["half_silent"])
        assert np.any(_plp_autocorrelation(spec)[:, 0] <= LOG_FLOOR)
        assert len(plp_models(spec)[1]) < spec.n_frames

    def test_shape_and_determinism(self):
        spec = power_spectrogram(harmonic_tone(300))
        v1, v2 = plp(spec), plp(spec)
        assert v1.set_id == "plp13" and len(v1.values) == 13
        assert np.array_equal(v1.values, v2.values)

    def test_gain_moves_only_c0(self):
        a = plp(power_spectrogram(harmonic_tone(300, amplitude=0.15))).values
        b = plp(power_spectrogram(harmonic_tone(300, amplitude=0.6))).values
        assert b[0] > a[0]
        assert np.allclose(a[1:], b[1:], atol=1e-6)

    def test_degenerate_input(self):
        with pytest.raises(FeatureError):
            plp(flat_spec(level=0.0))


class TestPitch:
    def test_pure_tones(self):
        for hz in (220, 440):
            pc = f0_contour(tone(hz))
            assert pc.voicing.mean() > 0.9
            assert np.median(pc.voiced_values) == pytest.approx(
                hz_to_semitone(hz), abs=0.1
            )

    def test_harmonic_tone_no_octave_error(self):
        pc = f0_contour(harmonic_tone(300))
        assert np.median(pc.voiced_values) == pytest.approx(hz_to_semitone(300), abs=0.1)

    def test_noise_unvoiced(self):
        pc = f0_contour(noise_clip())
        assert pc.voicing.mean() < 0.2

    def test_silence_unvoiced(self):
        pc = f0_contour(silence())
        assert not pc.voicing.any()
        assert np.all(np.isnan(pc.f0_semitone))

    @pytest.mark.parametrize("case", sorted(PITCH_CASES))
    def test_matches_per_frame_reference(self, case):
        clip = PITCH_CASES[case]
        got, want = f0_contour(clip), _f0_contour_reference(clip)
        assert got.f0_semitone.tobytes() == want.f0_semitone.tobytes()
        assert got.voicing.tobytes() == want.voicing.tobytes()
        assert got.frame_hop_s == want.frame_hop_s
        if case.startswith("frames"):
            assert got.voicing.size == int(case.removeprefix("frames"))

    def test_hz_to_semitone_anchors(self):
        assert hz_to_semitone(27.5) == pytest.approx(0.0)
        assert hz_to_semitone(55.0) == pytest.approx(12.0)
        assert hz_to_semitone(440.0) == pytest.approx(48.0)


class TestLoudness:
    def test_sine_level(self):
        a = 0.4
        lc = loudness_contour(tone(600, amplitude=a))
        want = 20 * np.log10(a / np.sqrt(2))
        assert np.median(lc.loudness) == pytest.approx(want, abs=0.1)

    def test_silence_floor(self):
        lc = loudness_contour(silence())
        assert np.all(lc.loudness == -90.0)

    def test_gain_shift(self):
        l1 = loudness_contour(tone(600, amplitude=0.1)).loudness
        l2 = loudness_contour(tone(600, amplitude=0.4)).loudness
        assert np.allclose(l2 - l1, 20 * np.log10(4.0), atol=1e-9)


class TestGemapsHelpers:
    def test_monotone_run_slopes(self):
        y = np.array([0.0, 1.0, 2.0, 1.0, 0.0, 2.0])
        assert _monotone_run_slopes(y, 1.0, rising=True) == pytest.approx(1.5)
        assert _monotone_run_slopes(y, 1.0, rising=False) == pytest.approx(-1.0)
        assert _monotone_run_slopes(np.array([1.0]), 1.0, rising=True) == 0.0

    def test_band_slope_against_polyfit(self, rng):
        freqs = np.arange(100) * 62.5
        db = rng.standard_normal((5, 100)) * 3
        got = _band_slope(db, freqs, 500.0, 1500.0)
        sel = (freqs >= 500) & (freqs <= 1500)
        for i in range(5):
            want = np.polyfit(freqs[sel], db[i, sel], 1)[0]
            assert got[i] == pytest.approx(want, abs=1e-10)


class TestGemapsLite:
    def test_names(self):
        assert len(GEMAPS_LITE_NAMES) == 36
        assert len(set(GEMAPS_LITE_NAMES)) == 36
        for prominent in (
            "F0semitoneFrom27.5Hz_sma3nz_amean",
            "F0semitoneFrom27.5Hz_sma3nz_percentile50.0",
            "loudness_sma3_amean",
            "loudness_sma3_percentile50.0",
            "loudnessPeaksPerSec",
            "VoicedSegmentsPerSec",
            "MeanVoicedSegmentLengthSec",
            "alphaRatioV_sma3nz_amean",
            "hammarbergIndexV_sma3nz_amean",
            "slopeV0-500_sma3nz_amean",
        ):
            assert prominent in GEMAPS_LITE_NAMES

    def test_level_dependent_subset(self):
        assert LEVEL_DEPENDENT_DIMS <= set(GEMAPS_LITE_NAMES)
        assert len(LEVEL_DEPENDENT_DIMS) == 5

    def test_steady_tone_statistics(self):
        a = 0.4
        v = gemaps_lite(tone(440, amplitude=a), clip_id="t")
        d = dict(zip(v.names, v.values))
        assert v.meta["voiced_valid"]
        assert d["F0semitoneFrom27.5Hz_sma3nz_amean"] == pytest.approx(48.0, abs=0.1)
        assert d["F0semitoneFrom27.5Hz_sma3nz_percentile50.0"] == pytest.approx(48.0, abs=0.1)
        assert abs(d["F0semitoneFrom27.5Hz_sma3nz_stddevNorm"]) < 0.01
        assert d["loudness_sma3_amean"] == pytest.approx(
            20 * np.log10(a / np.sqrt(2)), abs=0.5
        )
        assert abs(d["loudness_sma3_stddevNorm"]) < 0.05
        # one unbroken voiced stretch
        assert d["VoicedSegmentsPerSec"] == pytest.approx(1.0, abs=0.1)

    def test_gain_invariance(self):
        clip = harmonic_tone(250, amplitude=0.15)
        scaled = AudioClip(clip.samples * 4.0, clip.sample_rate)
        v1 = dict(zip(GEMAPS_LITE_NAMES, gemaps_lite(clip).values))
        v2 = dict(zip(GEMAPS_LITE_NAMES, gemaps_lite(scaled).values))
        for name in GEMAPS_LITE_NAMES:
            if name in LEVEL_DEPENDENT_DIMS:
                continue
            scale = max(1.0, abs(v1[name]))
            assert abs(v2[name] - v1[name]) / scale < 1e-6, name
        assert v2["loudness_sma3_amean"] - v1["loudness_sma3_amean"] == pytest.approx(
            20 * np.log10(4.0), abs=1e-6
        )

    def test_unvoiced_clip_sentinels(self):
        v = gemaps_lite(noise_clip())
        d = dict(zip(v.names, v.values))
        assert not v.meta["voiced_valid"]
        assert d["F0semitoneFrom27.5Hz_sma3nz_amean"] == 0.0
        assert d["MeanVoicedSegmentLengthSec"] == 0.0
        assert np.all(np.isfinite(v.values))

    def test_too_short(self):
        with pytest.raises(FeatureError):
            gemaps_lite(tone(440, duration_s=0.05))

    @pytest.mark.parametrize("case", sorted(set(PITCH_CASES) - {"shorter_than_frame"}))
    def test_h1a3_matches_per_frame_reference(self, case):
        clip = PITCH_CASES[case]
        got = gemaps_lite(clip).values[GEMAPS_LITE_NAMES.index("logRelF0-H1-A3_sma3nz_amean"):]
        assert got.tobytes() == _h1a3_reference(clip).tobytes()

    def test_determinism(self):
        a = gemaps_lite(noise_clip(seed=3)).values
        b = gemaps_lite(noise_clip(seed=3)).values
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case", sorted(PITCH_CASES))
def test_frame_features_raise_no_warnings(case):
    clip = PITCH_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f0_contour(clip)
        with contextlib.suppress(AudioError, FeatureError):
            plp(power_spectrogram(clip))
        with contextlib.suppress(FeatureError):
            gemaps_lite(clip)


class TestClipVector:
    def test_matches_the_set_functions(self):
        clip = harmonic_tone(300)
        spec = power_spectrogram(clip)
        for set_id, fn in (("filterbank24", mel_filterbank), ("mfcc13", mfcc), ("plp13", plp)):
            got = clip_vector(clip, set_id, "c")
            assert (got.set_id, got.clip_id) == (set_id, "c")
            assert got.values.tobytes() == fn(spec, "c").values.tobytes()
        got = clip_vector(clip, "gemaps_lite", "c")
        assert got.values.tobytes() == gemaps_lite(harmonic_tone(300), "c").values.tobytes()

    def test_clip_spectrogram_is_computed_once(self):
        clip = noise_clip(seed=4)
        assert clip.spectrogram is clip.spectrogram
        assert clip.spectrogram.frames.tobytes() == power_spectrogram(clip).frames.tobytes()

    def test_unknown_set(self):
        with pytest.raises(FeatureError, match="unknown feature set"):
            clip_vector(tone(300), "mfcc99")


class TestFeatureStore:
    def test_round_trip(self, tmp_path):
        vecs = [
            mfcc(power_spectrogram(tone(300)), clip_id="b"),
            mfcc(power_spectrogram(tone(500)), clip_id="a"),
        ]
        path = tmp_path / "feat.csv"
        write_feature_csv(path, vecs)
        back = read_feature_csv(path, "mfcc13")
        assert list(back) == ["a", "b"]  # sorted on write
        orig = {v.clip_id: v for v in vecs}
        for clip_id, v in back.items():
            assert np.array_equal(v.values, orig[clip_id].values)
            assert v.names == orig[clip_id].names
