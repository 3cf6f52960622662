import hashlib
import json

import numpy as np
import pytest

from vocalkit.audio import load_audio
from vocalkit.features.pitch import f0_contour, hz_to_semitone
from vocalkit.manifest import load_manifest
from vocalkit.syllables import detect_syllables
from vocalkit import synth
from vocalkit.synth import SynthError, SynthGroup, SynthSpec, generate


def small_spec(n=2, seed=0, **kw):
    groups = (
        SynthGroup("En", planted_f0_hz=450.0, planted_am_rate_hz=4.0),
        SynthGroup("Ja", planted_f0_hz=550.0, planted_am_rate_hz=6.0),
    )
    return SynthSpec(n_clips_per_group=n, groups=groups, seed=seed, **kw)


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestGenerate:
    def test_outputs_and_manifest_valid(self, tmp_path):
        manifest_path, sidecar_path = generate(small_spec(), tmp_path / "corpus")
        manifest = load_manifest(manifest_path)  # must validate cleanly
        dogs = manifest.by_kind("dog_vocal")
        hosts = manifest.by_kind("host_speech")
        assert len(dogs) == 4 and len(hosts) == 4
        sidecar = json.loads(open(sidecar_path).read())
        assert set(sidecar) == {c.id for c in manifest.clips}
        for c in manifest.clips:
            clip = load_audio(c.audio_path)
            assert clip.sample_rate == 16000
            assert clip.duration_s == pytest.approx(2.0, abs=0.01)

    def test_sidecar_fields(self, tmp_path):
        _, sidecar_path = generate(small_spec(), tmp_path / "c")
        sidecar = json.loads(open(sidecar_path).read())
        entry = next(v for v in sidecar.values() if v["kind"] == "dog_vocal")
        for key in ("lang_env", "f0_hz", "f0_semitone", "am_rate_hz",
                    "loudness_db", "word_boundaries_s"):
            assert key in entry
        assert entry["f0_semitone"] == pytest.approx(
            hz_to_semitone(entry["f0_hz"]), abs=1e-3
        )
        assert len(entry["word_boundaries_s"]) >= 2

    def test_seed_determinism(self, tmp_path):
        m1, s1 = generate(small_spec(seed=5), tmp_path / "a")
        m2, s2 = generate(small_spec(seed=5), tmp_path / "b")
        assert open(m1).read().replace("a/", "") == open(m2).read().replace("b/", "")
        assert open(s1).read() == open(s2).read()
        manifest = load_manifest(m1)
        twin = load_manifest(m2)
        for c1, c2 in zip(manifest.clips, twin.clips):
            assert sha(c1.audio_path) == sha(c2.audio_path)

    def test_seed_variation(self, tmp_path):
        _, s1 = generate(small_spec(seed=1), tmp_path / "a")
        _, s2 = generate(small_spec(seed=2), tmp_path / "b")
        assert open(s1).read() != open(s2).read()

    def test_planted_f0_recoverable(self, tmp_path):
        manifest_path, sidecar_path = generate(small_spec(), tmp_path / "c")
        manifest = load_manifest(manifest_path)
        sidecar = json.loads(open(sidecar_path).read())
        dog = manifest.by_kind("dog_vocal")[0]
        truth = sidecar[dog.id]
        # measure pitch inside the first planted burst
        on, off = truth["word_boundaries_s"][0]
        burst = load_audio(dog.audio_path).slice_s(on + 0.02, off - 0.02)
        pc = f0_contour(burst)
        assert pc.voicing.any()
        assert np.median(pc.voiced_values) == pytest.approx(
            truth["f0_semitone"], abs=0.5
        )

    def test_planted_am_rate_recoverable(self, tmp_path):
        manifest_path, sidecar_path = generate(small_spec(), tmp_path / "c")
        manifest = load_manifest(manifest_path)
        sidecar = json.loads(open(sidecar_path).read())
        for dog in manifest.by_kind("dog_vocal"):
            truth = sidecar[dog.id]
            units = detect_syllables(load_audio(dog.audio_path))
            assert units.rate_per_s == pytest.approx(truth["am_rate_hz"], abs=1.0)

    def test_planted_host_correlation(self, tmp_path):
        # statistics of the sidecar itself: dog f0 vs host f0 across clips
        spec = small_spec(n=120, clip_duration_s=0.5)
        _, sidecar_path = generate(spec, tmp_path / "c")
        sidecar = json.loads(open(sidecar_path).read())
        # the correlation is planted within each group; pooling groups with
        # different dog means would dilute it
        for lang in ("En", "Ja"):
            dog_st, host_st = [], []
            for cid, entry in sidecar.items():
                if entry["kind"] != "dog_vocal" or entry["lang_env"] != lang:
                    continue
                host = sidecar[cid.replace("dog_", "host_") + "_0"]
                dog_st.append(entry["f0_semitone"])
                host_st.append(host["f0_semitone"])
            r = np.corrcoef(dog_st, host_st)[0, 1]
            assert r == pytest.approx(0.6, abs=0.2), lang

    def test_snr_controls_noise_floor(self, tmp_path):
        quiet = generate(small_spec(n=1, noise_snr_db=40.0), tmp_path / "hi")[0]
        noisy = generate(small_spec(n=1, noise_snr_db=10.0), tmp_path / "lo")[0]

        def gap_rms(manifest_path):
            m = load_manifest(manifest_path)
            clip = load_audio(m.by_kind("dog_vocal")[0].audio_path)
            return np.sqrt(np.mean(clip.samples[: int(0.03 * 16000)] ** 2))

        assert gap_rms(noisy) > 5 * gap_rms(quiet)

    def test_scene_rotation(self, tmp_path):
        manifest_path, _ = generate(small_spec(n=8, n_scenes=4), tmp_path / "c")
        manifest = load_manifest(manifest_path)
        scenes = {c.context.scene for c in manifest.by_kind("dog_vocal")}
        assert len(scenes) == 4

    def test_validation(self):
        with pytest.raises(SynthError):
            SynthGroup("En", planted_f0_hz=-1.0, planted_am_rate_hz=4.0)
        with pytest.raises(SynthError):
            SynthSpec(n_clips_per_group=0, groups=(SynthGroup("En", 450.0, 4.0),))
        with pytest.raises(SynthError):
            SynthSpec(n_clips_per_group=1, groups=())


def full_length_gate(t, rate_hz, duration_s):
    """The gate with every burst evaluated over the whole clip."""
    period = 1.0 / rate_hz
    burst_len = 0.5 * period
    gate = np.zeros_like(t)
    bounds = []
    start = synth.CLIP_PAD_S
    while start + burst_len <= duration_s - synth.CLIP_PAD_S + 1e-9:
        on, off = start, start + burst_len
        rise = np.clip((t - on) / synth.BURST_EDGE_S, 0.0, 1.0)
        fall = np.clip((off - t) / synth.BURST_EDGE_S, 0.0, 1.0)
        gate = np.maximum(gate, 0.5 * (1 - np.cos(np.pi * rise)) * 0.5 * (1 - np.cos(np.pi * fall)))
        bounds.append((on, off))
        start += period
    return gate, bounds


class TestGate:
    @pytest.mark.parametrize("sr", [16000, 44100, 48000])
    @pytest.mark.parametrize(
        "rate_hz, duration_s",
        [(2.0, 2.0), (2.5, 2.0), (4.0, 2.0), (6.0, 2.0), (0.5, 3.3), (11.7, 0.83), (5.3, 1.37)],
    )
    def test_matches_full_length_gate(self, sr, rate_hz, duration_s):
        t = np.arange(int(round(duration_s * sr))) / sr
        gate, bounds = synth._gate(t, rate_hz, duration_s)
        want_gate, want_bounds = full_length_gate(t, rate_hz, duration_s)
        assert gate.tobytes() == want_gate.tobytes()
        assert bounds == want_bounds

    @pytest.mark.parametrize("sr", [16000, 44100, 48000])
    def test_burst_edges_on_sample_times(self, sr):
        # at 2.5 Hz the first burst runs from 0.05 s to 0.25 s, both sample times
        t = np.arange(2 * sr) / sr
        gate, bounds = synth._gate(t, 2.5, 2.0)
        on, off = bounds[0]
        assert on in t and off in t
        assert gate.tobytes() == full_length_gate(t, 2.5, 2.0)[0].tobytes()
