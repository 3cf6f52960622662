import json

import numpy as np
import pytest

from vocalkit.audio import AudioClip
from vocalkit.segmentation import (
    DetectorSource,
    EventSpan,
    SegmentationConfig,
    SegmentationError,
    detect_events,
    extract_words,
    filter_noisy,
    sentence_segments,
    word_segments,
)

from conftest import SR


def spans(*triples):
    return [EventSpan(lbl, s, e) for lbl, s, e in triples]


def merge_oracle(intervals, gap):
    """O(n^2) interval-merge oracle: merge intervals closer than gap."""
    out = [list(iv) for iv in sorted(intervals)]
    changed = True
    while changed:
        changed = False
        for a in range(len(out)):
            for b in range(len(out)):
                if a == b:
                    continue
                s1, e1 = out[a]
                s2, e2 = out[b]
                if s2 - e1 < gap and s2 >= s1:
                    out[a] = [s1, max(e1, e2)]
                    out.pop(b)
                    changed = True
                    break
            if changed:
                break
    return sorted(tuple(iv) for iv in out)


def burst_clip(on_spans, duration_s=6.0, freq=600.0, sr=SR):
    """Tone bursts at the given (start, end) spans over otherwise-silent audio."""
    t = np.arange(int(duration_s * sr)) / sr
    x = np.zeros_like(t)
    for s, e in on_spans:
        mask = (t >= s) & (t < e)
        x[mask] = 0.5 * np.sin(2 * np.pi * freq * t[mask])
    return AudioClip(x, sr)


class TestEventSpan:
    def test_validation(self):
        with pytest.raises(SegmentationError):
            EventSpan("barking", 1.0, 1.0)
        with pytest.raises(SegmentationError):
            EventSpan("barking", -0.1, 1.0)
        with pytest.raises(SegmentationError):
            EventSpan("barking", 0.0, 1.0, confidence=1.5)

    def test_overlap(self):
        a = EventSpan("barking", 0.0, 2.0)
        b = EventSpan("speech", 1.5, 3.0)
        c = EventSpan("speech", 2.0, 3.0)
        assert a.overlap_s(b) == pytest.approx(0.5)
        assert a.overlap_s(c) == 0.0


class TestDetectEvents:
    def test_external_annotations(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(
            json.dumps(
                [
                    {"label": "barking", "start_s": 1.0, "end_s": 2.0},
                    {"label": "speech", "start_s": 0.2, "end_s": 0.8, "confidence": 0.9},
                ]
            )
        )
        clip = burst_clip([], duration_s=3.0)
        out = detect_events(
            clip, DetectorSource("external_annotations", {"annotation_path": str(path)})
        )
        assert [e.label for e in out] == ["speech", "barking"]
        assert out[0].confidence == pytest.approx(0.9)

    def test_annotation_outside_clip(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps([{"label": "barking", "start_s": 5.0, "end_s": 6.0}]))
        clip = burst_clip([], duration_s=3.0)
        with pytest.raises(SegmentationError):
            detect_events(
                clip, DetectorSource("external_annotations", {"annotation_path": str(path)})
            )

    def test_annotation_clipped_to_duration(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps([{"label": "barking", "start_s": 2.0, "end_s": 9.0}]))
        clip = burst_clip([], duration_s=3.0)
        out = detect_events(
            clip, DetectorSource("external_annotations", {"annotation_path": str(path)})
        )
        assert out[0].end_s == pytest.approx(3.0)

    def test_bad_annotation_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SegmentationError):
            detect_events(
                burst_clip([], 1.0),
                DetectorSource("external_annotations", {"annotation_path": str(path)}),
            )

    def test_energy_baseline_finds_bursts(self):
        clip = burst_clip([(1.0, 1.8), (3.0, 3.6)])
        out = detect_events(clip, DetectorSource("energy_baseline"))
        assert len(out) == 2
        assert out[0].start_s == pytest.approx(1.0, abs=0.05)
        assert out[0].end_s == pytest.approx(1.8, abs=0.05)
        assert out[1].start_s == pytest.approx(3.0, abs=0.05)

    def test_energy_baseline_silence(self):
        clip = burst_clip([], duration_s=2.0)
        assert detect_events(clip, DetectorSource("energy_baseline")) == []

    def test_hysteresis_rejects_weak_bump(self):
        # a bump between off and on thresholds must not trigger on its own
        t = np.arange(4 * SR) / SR
        x = np.zeros_like(t)
        main = (t >= 1.0) & (t < 1.5)
        x[main] = 0.5 * np.sin(2 * np.pi * 600 * t[main])
        weak = (t >= 3.0) & (t < 3.3)
        # -33 dB rel. peak envelope: above the -35 floor, below the -30 on level
        x[weak] = 0.5 * 10 ** (-33 / 20) * np.sin(2 * np.pi * 600 * t[weak])
        out = detect_events(AudioClip(x, SR), DetectorSource("energy_baseline"))
        assert len(out) == 1
        assert out[0].start_s == pytest.approx(1.0, abs=0.05)

    def test_unknown_detector(self):
        with pytest.raises(SegmentationError):
            DetectorSource("magic")


class TestSentenceSegments:
    def test_merges_close_spans(self):
        events = spans(
            ("barking", 0.0, 1.0), ("barking", 1.3, 2.0), ("barking", 3.0, 3.5)
        )
        out = sentence_segments(events)
        assert [(s.start_s, s.end_s) for s in out] == [(0.0, 2.0), (3.0, 3.5)]

    def test_ignores_noise_labels(self):
        events = spans(("speech", 0.0, 5.0), ("barking", 1.0, 2.0))
        out = sentence_segments(events)
        assert [(s.start_s, s.end_s) for s in out] == [(1.0, 2.0)]

    def test_boundary_gap_not_merged(self):
        # a gap of exactly min_sentence_gap_s counts as significant silence
        events = spans(("barking", 0.0, 1.0), ("barking", 1.5, 2.0))
        out = sentence_segments(events)
        assert len(out) == 2

    def test_against_merge_oracle(self, rng):
        for _ in range(30):
            n = rng.integers(1, 10)
            starts = np.sort(rng.uniform(0, 20, n))
            lens = rng.uniform(0.05, 2.0, n)
            ivals = [(float(s), float(s + l)) for s, l in zip(starts, lens)]
            events = [EventSpan("barking", s, e) for s, e in ivals]
            got = [(s.start_s, s.end_s) for s in sentence_segments(events)]
            want = merge_oracle(ivals, 0.5)
            assert len(got) == len(want)
            for (gs, ge), (ws, we) in zip(sorted(got), want):
                assert gs == pytest.approx(ws)
                assert ge == pytest.approx(we)

    def test_empty(self):
        assert sentence_segments([]) == []


class TestFilterNoisy:
    def test_any_overlap_drops(self):
        sentences = spans(("barking", 0.0, 2.0), ("barking", 5.0, 6.0))
        events = sentences + spans(("speech", 1.99, 3.0))
        kept = filter_noisy(sentences, events)
        assert [(s.start_s, s.end_s) for s in kept] == [(5.0, 6.0)]

    def test_touching_is_not_overlap(self):
        sentences = spans(("barking", 0.0, 2.0))
        events = sentences + spans(("speech", 2.0, 3.0))
        assert filter_noisy(sentences, events) == sentences

    def test_music_also_drops(self):
        sentences = spans(("barking", 0.0, 2.0))
        events = sentences + spans(("music", 1.0, 1.5))
        assert filter_noisy(sentences, events) == []


class TestWordSegments:
    def test_splits_at_silence(self):
        # two 0.3 s bursts separated by a 0.2 s pause inside one sentence
        clip = burst_clip([(0.5, 0.8), (1.0, 1.3)], duration_s=2.0)
        sentence = EventSpan("barking", 0.5, 1.3)
        words = word_segments(clip, sentence)
        assert len(words) == 2
        assert words[0].start_s == pytest.approx(0.5, abs=0.05)
        assert words[0].end_s == pytest.approx(0.8, abs=0.05)
        assert words[1].start_s == pytest.approx(1.0, abs=0.05)

    def test_short_pause_kept_whole(self):
        # 30 ms pause < 60 ms minimum: no split
        clip = burst_clip([(0.5, 0.8), (0.83, 1.1)], duration_s=2.0)
        words = word_segments(clip, EventSpan("barking", 0.5, 1.1))
        assert len(words) == 1

    def test_tiny_fragment_dropped(self):
        # 20 ms fragment < 50 ms minimum length
        clip = burst_clip([(0.5, 0.52), (0.8, 1.1)], duration_s=2.0)
        words = word_segments(clip, EventSpan("barking", 0.5, 1.1))
        assert len(words) == 1
        assert words[0].start_s == pytest.approx(0.8, abs=0.05)

    def test_words_within_sentence(self):
        clip = burst_clip([(0.5, 0.8), (1.0, 1.3)], duration_s=2.0)
        sentence = EventSpan("barking", 0.5, 1.3)
        for w in word_segments(clip, sentence):
            assert sentence.start_s - 0.01 <= w.start_s
            assert w.end_s <= sentence.end_s + 0.01


class TestExtractWords:
    def test_end_to_end(self):
        # sentence 1: two words; sentence 2 (0.9 s later): one word
        clip = burst_clip([(0.5, 0.8), (1.0, 1.3), (2.2, 2.6)], duration_s=4.0)
        words = extract_words(clip, DetectorSource("energy_baseline"))
        assert len(words) == 3
        starts = [w.start_s for w in words]
        assert starts == sorted(starts)

    def test_noise_kills_sentence(self, tmp_path):
        clip = burst_clip([(0.5, 0.8), (2.2, 2.6)], duration_s=4.0)
        ann = [
            {"label": "barking", "start_s": 0.5, "end_s": 0.8},
            {"label": "barking", "start_s": 2.2, "end_s": 2.6},
            {"label": "speech", "start_s": 0.6, "end_s": 0.7},
        ]
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(ann))
        words = extract_words(
            clip, DetectorSource("external_annotations", {"annotation_path": str(path)})
        )
        assert len(words) == 1
        assert words[0].start_s == pytest.approx(2.2, abs=0.05)


def test_config_validation():
    with pytest.raises(SegmentationError):
        SegmentationConfig(silence_floor_db=3.0)
    with pytest.raises(SegmentationError):
        SegmentationConfig(min_word_gap_s=0.9, min_sentence_gap_s=0.5)
    with pytest.raises(SegmentationError):
        SegmentationConfig(min_word_len_s=0.0)
