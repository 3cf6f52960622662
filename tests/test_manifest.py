import json

import numpy as np
import pytest

from vocalkit.audio import AudioClip, save_audio
from vocalkit.manifest import Manifest, ManifestError, corpus_stats, load_manifest
from vocalkit.pairing import ACTIVITY_DIM


def write_wav(path, duration_s=1.0):
    t = np.arange(int(16000 * duration_s)) / 16000
    save_audio(path, AudioClip(0.3 * np.sin(2 * np.pi * 440 * t), 16000))


def dog_record(i, scene="Play", location="lawn", lang="En", end_s=1.0, activity=None):
    return {
        "id": f"dog{i:03d}",
        "kind": "dog_vocal",
        "lang_env": lang,
        "audio_path": f"dog{i:03d}.wav",
        "start_s": 0.0,
        "end_s": end_s,
        "context": {
            "scene": scene,
            "location": location,
            "activity": activity if activity is not None else [1.0] * ACTIVITY_DIM,
        },
        "source_video_id": f"vid{i:03d}",
    }


def host_record(i, lang="En", end_s=1.0):
    return {
        "id": f"host{i:03d}",
        "kind": "host_speech",
        "lang_env": lang,
        "audio_path": f"host{i:03d}.wav",
        "start_s": 0.0,
        "end_s": end_s,
        "source_video_id": f"vid{i:03d}",
    }


def write_manifest(tmp_path, records, header=None, make_audio=True):
    header = header or {"version": 1, "declared_locations": ["lawn"], "defaults": {}}
    path = tmp_path / "manifest.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    if make_audio:
        for rec in records:
            write_wav(tmp_path / rec["audio_path"], max(rec.get("end_s", 1.0), 0.1))
    return path


class TestLoadManifest:
    def test_valid(self, tmp_path):
        path = write_manifest(tmp_path, [dog_record(0), host_record(0)])
        m = load_manifest(path)
        assert m.version == 1
        assert len(m.clips) == 2
        assert len(m.by_kind("dog_vocal")) == 1
        assert m.by_kind("dog_vocal")[0].context.scene == "Play"
        assert m.by_kind("host_speech")[0].context is None

    def test_blank_lines_tolerated(self, tmp_path):
        path = write_manifest(tmp_path, [dog_record(0)])
        with open(path, "a") as fh:
            fh.write("\n\n")
        assert len(load_manifest(path).clips) == 1

    def test_activity_blob(self, tmp_path):
        vec = np.linspace(0.1, 1.0, ACTIVITY_DIM).astype("<f4")
        vec.tofile(tmp_path / "act.bin")
        rec = dog_record(0, activity=None)
        rec["context"]["activity"] = "act.bin"
        path = write_manifest(tmp_path, [rec])
        m = load_manifest(path)
        got = m.clips[0].context.activity
        assert np.allclose(got, vec.astype(float))

    def test_activity_blob_paths_recorded(self, tmp_path):
        np.ones(ACTIVITY_DIM, dtype="<f4").tofile(tmp_path / "act.bin")
        rec = dog_record(1, activity=None)
        rec["context"]["activity"] = "act.bin"
        m = load_manifest(write_manifest(tmp_path, [dog_record(0), rec]))
        assert m.activity_paths == [str(tmp_path / "act.bin")]

    def test_all_violations_collected(self, tmp_path):
        records = [
            dog_record(0, scene="Mars"),               # unknown scene
            dog_record(1, location="moon"),            # undeclared location
            dog_record(2),
            dog_record(2),                             # duplicate id
            dog_record(3, end_s=0.0),                  # empty time span
        ]
        path = write_manifest(tmp_path, records)
        (tmp_path / "dog001.wav").unlink()             # missing audio
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        text = str(exc.value)
        assert "unknown scene" in text
        assert "not declared" in text
        assert "duplicate clip id" in text
        assert "not resolvable" in text
        assert len(exc.value.violations) >= 4

    def test_violations_carry_line_numbers(self, tmp_path):
        path = write_manifest(tmp_path, [dog_record(0, scene="Mars")])
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        assert any(":2:" in v for v in exc.value.violations)

    def test_bad_version(self, tmp_path):
        path = write_manifest(
            tmp_path, [dog_record(0)], header={"version": 99, "declared_locations": ["lawn"]}
        )
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        assert "version" in str(exc.value)

    def test_bad_header_json(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_bad_record_json(self, tmp_path):
        path = write_manifest(tmp_path, [dog_record(0)])
        with open(path, "a") as fh:
            fh.write("{not json}\n")
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        assert "bad JSON" in str(exc.value)

    def test_wrong_activity_size(self, tmp_path):
        rec = dog_record(0, activity=[1.0] * 10)
        path = write_manifest(tmp_path, [rec])
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        assert "768" in str(exc.value)


class TestCorpusStats:
    def test_counts_and_lengths(self, tmp_path):
        records = [
            dog_record(0, end_s=1.0),
            dog_record(1, end_s=2.0, lang="Ja", scene="Eat"),
            dog_record(2, end_s=3.0),
            host_record(3, end_s=2.0),
        ]
        path = write_manifest(tmp_path, records)
        stats = corpus_stats(load_manifest(path))
        dog = stats["kinds"]["dog_vocal"]
        assert dog["n_clips"] == 3
        assert dog["avg_len_s"] == pytest.approx(2.0)
        assert dog["var_len_s2"] == pytest.approx(np.var([1.0, 2.0, 3.0]))
        assert dog["english_pct"] == pytest.approx(100.0 * 2 / 3)
        host = stats["kinds"]["host_speech"]
        assert host["n_clips"] == 1 and host["english_pct"] == 100.0
        assert stats["scene_shares"]["Play"] == pytest.approx(100.0 * 2 / 3)
        assert stats["scene_shares"]["Eat"] == pytest.approx(100.0 / 3)
        assert stats["scene_shares"]["Bath"] == 0.0

    def test_empty_kind(self, tmp_path):
        path = write_manifest(tmp_path, [host_record(0)])
        stats = corpus_stats(load_manifest(path))
        assert stats["kinds"]["dog_vocal"]["n_clips"] == 0
        assert stats["scene_shares"] == {}
