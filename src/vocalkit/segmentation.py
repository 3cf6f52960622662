"""Three-step extraction of clean, singular vocalizations from raw audio.

Step 1 groups detected vocal events into "sentences" (runs bounded by
significant silence), step 2 drops sentences overlapping speech/music noise,
step 3 splits each sentence at internal pauses into word-level clips.

Event spans can come from an external annotation file (the output of any
pretrained sound event detector) or from the built-in energy baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioClip, amplitude_envelope, runs

VOCAL_LABELS = ("barking",)
NOISE_LABELS = ("speech", "music")

ENVELOPE_RATE_HZ = 200.0  # 5 ms resolution for boundary placement


class SegmentationError(Exception):
    pass


@dataclass(frozen=True)
class EventSpan:
    label: str
    start_s: float
    end_s: float
    confidence: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.start_s < self.end_s):
            raise SegmentationError(
                f"invalid span [{self.start_s}, {self.end_s}] for {self.label!r}"
            )
        if not (0.0 <= self.confidence <= 1.0):
            raise SegmentationError(f"confidence {self.confidence} outside [0, 1]")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def overlap_s(self, other: "EventSpan") -> float:
        return max(0.0, min(self.end_s, other.end_s) - max(self.start_s, other.start_s))


@dataclass(frozen=True)
class DetectorSource:
    kind: str  # "external_annotations" | "energy_baseline"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("external_annotations", "energy_baseline"):
            raise SegmentationError(f"unknown detector kind {self.kind!r}")


@dataclass(frozen=True)
class SegmentationConfig:
    silence_floor_db: float = -35.0  # relative to clip peak
    min_sentence_gap_s: float = 0.5
    min_word_gap_s: float = 0.06
    min_word_len_s: float = 0.05
    hysteresis_db: float = 5.0

    def __post_init__(self):
        if self.silence_floor_db >= 0:
            raise SegmentationError("silence_floor_db must be negative (dB rel. peak)")
        if min(self.min_sentence_gap_s, self.min_word_gap_s, self.min_word_len_s) <= 0:
            raise SegmentationError("durations must be positive")
        if self.min_word_gap_s > self.min_sentence_gap_s:
            raise SegmentationError("min_word_gap_s must not exceed min_sentence_gap_s")


def _envelope_db(clip: AudioClip) -> tuple[np.ndarray, float]:
    """Envelope in dB relative to the clip's peak envelope value."""
    env = amplitude_envelope(clip, ENVELOPE_RATE_HZ)
    peak = env.values.max()
    if peak <= 0:
        return np.full_like(env.values, -120.0), env.rate_hz
    db = 20.0 * np.log10(np.maximum(env.values, peak * 1e-6) / peak)
    return db, env.rate_hz


def _active_regions(db: np.ndarray, rate: float, on_db: float, off_db: float):
    """Hysteresis detection: regions above off_db containing a sample above on_db."""
    starts, ends = runs(db > off_db)
    n_on = np.concatenate(([0], np.cumsum(db > on_db)))
    hit = n_on[ends] > n_on[starts]
    return list(zip((starts[hit] / rate).tolist(), (ends[hit] / rate).tolist()))


def _read_annotation_file(path) -> list[EventSpan]:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise SegmentationError(f"annotation file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SegmentationError(f"ill-formed annotation file {path}: {exc}")
    if not isinstance(raw, list):
        raise SegmentationError(f"annotation file {path} must hold a JSON array")
    spans = []
    for i, entry in enumerate(raw):
        try:
            spans.append(
                EventSpan(
                    label=str(entry["label"]),
                    start_s=float(entry["start_s"]),
                    end_s=float(entry["end_s"]),
                    confidence=float(entry.get("confidence", 1.0)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SegmentationError(f"bad annotation entry {i} in {path}: {exc}")
    return spans


def detect_events(
    clip: AudioClip,
    source: DetectorSource,
    config: SegmentationConfig | None = None,
) -> list[EventSpan]:
    """Return detected event spans, sorted by start time and clipped to the clip.

    external_annotations reads a JSON span file (params["annotation_path"]);
    energy_baseline synthesizes "barking" spans wherever the envelope exceeds
    the silence floor, with hysteresis against chatter.
    """
    config = config or SegmentationConfig()
    duration = clip.duration_s
    if source.kind == "external_annotations":
        path = source.params.get("annotation_path")
        if path is None:
            raise SegmentationError("external_annotations requires params['annotation_path']")
        spans = _read_annotation_file(path)
        out = []
        for s in spans:
            if s.start_s >= duration:
                raise SegmentationError(
                    f"span [{s.start_s}, {s.end_s}] lies outside clip of {duration:.3f}s"
                )
            out.append(EventSpan(s.label, s.start_s, min(s.end_s, duration), s.confidence))
        return sorted(out, key=lambda s: (s.start_s, s.end_s))

    db, rate = _envelope_db(clip)
    on_db = config.silence_floor_db + config.hysteresis_db
    regions = _active_regions(db, rate, on_db, config.silence_floor_db)
    return [
        EventSpan("barking", start, min(end, duration))
        for start, end in regions
        if end > start
    ]


def sentence_segments(
    events: list[EventSpan],
    config: SegmentationConfig | None = None,
) -> list[EventSpan]:
    """Merge vocal spans separated by gaps below min_sentence_gap_s."""
    config = config or SegmentationConfig()
    vocal = sorted(
        (e for e in events if e.label in VOCAL_LABELS), key=lambda e: (e.start_s, e.end_s)
    )
    if not vocal:
        return []
    merged = [vocal[0]]
    for span in vocal[1:]:
        last = merged[-1]
        if span.start_s - last.end_s < config.min_sentence_gap_s:
            merged[-1] = EventSpan(
                last.label,
                last.start_s,
                max(last.end_s, span.end_s),
                min(last.confidence, span.confidence),
            )
        else:
            merged.append(span)
    return merged


def filter_noisy(sentences: list[EventSpan], events: list[EventSpan]) -> list[EventSpan]:
    """Drop sentences that temporally overlap speech or music events.

    Any positive overlap disqualifies a sentence (strictest reading of
    "co-existing" noise).
    """
    noise = [e for e in events if e.label in NOISE_LABELS]
    kept = []
    for sent in sentences:
        if any(sent.overlap_s(nz) > 0 for nz in noise):
            continue
        kept.append(sent)
    return kept


def word_segments(
    clip: AudioClip,
    sentence: EventSpan,
    config: SegmentationConfig | None = None,
) -> list[EventSpan]:
    """Split a sentence at internal silences into singular vocalizations.

    A silence is a run of envelope below the silence floor lasting at least
    min_word_gap_s; fragments shorter than min_word_len_s are discarded.
    """
    config = config or SegmentationConfig()
    sub = clip.slice_s(sentence.start_s, sentence.end_s)
    db, rate = _envelope_db(sub)
    starts, ends = runs(db > config.silence_floor_db)
    min_gap = max(1, int(round(config.min_word_gap_s * rate)))
    # merge loud runs across silent gaps shorter than min_word_gap_s
    split = np.flatnonzero(starts[1:] - ends[:-1] >= min_gap)
    starts = np.concatenate((starts[:1], starts[split + 1]))
    ends = np.concatenate((ends[split], ends[-1:]))
    word_starts = sentence.start_s + starts / rate
    word_ends = sentence.start_s + ends / rate
    keep = word_ends - word_starts >= config.min_word_len_s
    return [
        EventSpan("word", start, min(end, sentence.end_s), sentence.confidence)
        for start, end in zip(word_starts[keep].tolist(), word_ends[keep].tolist())
    ]


def extract_words(
    clip: AudioClip,
    source: DetectorSource,
    config: SegmentationConfig | None = None,
) -> list[EventSpan]:
    """Full pipeline: detect events, build sentences, drop noisy ones, split words."""
    config = config or SegmentationConfig()
    events = detect_events(clip, source, config)
    sentences = sentence_segments(events, config)
    clean = filter_noisy(sentences, events)
    out = []
    for sent in clean:
        out.extend(word_segments(clip, sent, config))
    return out
