"""Manifest loading, validation and corpus statistics.

A manifest is a JSON-lines file: a header object on the first line
({"version", "declared_locations", "defaults"}) followed by one clip record
per line.  Activity vectors may be inline JSON arrays or a relative path to
a little-endian float32 blob of length 768.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .pairing import ACTIVITY_DIM, Context, ClipRecord, PairingError, SCENES
from .segmentation import SegmentationConfig, SegmentationError
from .syllables import OscillatorConfig, SyllableError

SUPPORTED_VERSIONS = (1,)
# header "defaults" sections and the settings each one holds
_DEFAULT_SECTIONS = {"segmentation": SegmentationConfig, "oscillator": OscillatorConfig}


class ManifestError(Exception):
    """Carries every validation violation, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("\n".join(self.violations))


@dataclass
class Manifest:
    version: int
    clips: list
    declared_locations: list
    defaults: dict
    path: str = ""
    # resolved activity blob files, in manifest order; pairing reads them
    activity_paths: list = field(default_factory=list)

    def by_kind(self, kind: str) -> list:
        return [c for c in self.clips if c.kind == kind]


def _load_activity(raw, base_dir: str, errors: list, where: str, blobs: list):
    if isinstance(raw, list):
        return np.asarray(raw, dtype=float)
    if isinstance(raw, str):
        blob_path = os.path.join(base_dir, raw)
        if not os.path.isfile(blob_path):
            errors.append(f"{where}: activity blob not found: {raw}")
            return None
        blobs.append(blob_path)
        data = np.fromfile(blob_path, dtype="<f4").astype(float)
        return data
    errors.append(f"{where}: activity must be an array or a blob path")
    return None


def load_manifest(path) -> Manifest:
    """Parse and validate a manifest; raises ManifestError listing all
    violations with line numbers."""
    errors: list[str] = []
    base_dir = os.path.dirname(os.path.abspath(path))
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise ManifestError([f"{path}:1: empty manifest"])
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ManifestError([f"{path}:1: bad header JSON: {exc}"])
    version = header.get("version")
    if version not in SUPPORTED_VERSIONS:
        errors.append(f"{path}:1: unsupported manifest version {version!r}")
    declared_locations = header.get("declared_locations", [])
    defaults = header.get("defaults", {})
    if not isinstance(defaults, dict):
        errors.append(f"{path}:1: defaults must be an object")
        defaults = {}
    for section in sorted(set(defaults) - set(_DEFAULT_SECTIONS)):
        errors.append(f"{path}:1: defaults.{section}: unknown section")
    for section, config in _DEFAULT_SECTIONS.items():
        try:
            config(**defaults.get(section, {}))
        except (TypeError, ValueError, SegmentationError, SyllableError) as exc:
            errors.append(f"{path}:1: defaults.{section}: {exc}")

    clips = []
    blobs: list[str] = []
    seen_ids = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{where}: bad JSON: {exc}")
            continue
        cid = raw.get("id", "")
        if cid in seen_ids:
            errors.append(f"{where}: duplicate clip id {cid!r}")
        seen_ids.add(cid)
        audio_path = raw.get("audio_path", "")
        if not os.path.isfile(os.path.join(base_dir, audio_path)):
            errors.append(f"{where}: audio path not resolvable: {audio_path!r}")
        context = None
        raw_ctx = raw.get("context")
        if raw_ctx is not None:
            activity = _load_activity(
                raw_ctx.get("activity"), base_dir, errors, where, blobs
            )
            scene = raw_ctx.get("scene", "")
            location = raw_ctx.get("location", "")
            if scene not in SCENES:
                errors.append(f"{where}: unknown scene {scene!r}")
            if declared_locations and location not in declared_locations:
                errors.append(f"{where}: location {location!r} not declared")
            if activity is not None and activity.shape != (ACTIVITY_DIM,):
                errors.append(
                    f"{where}: activity has {activity.size} entries, expected {ACTIVITY_DIM}"
                )
                activity = None
            if activity is not None and scene in SCENES:
                try:
                    context = Context(scene=scene, location=location, activity=activity)
                except PairingError as exc:
                    errors.append(f"{where}: {exc}")
        try:
            clips.append(
                ClipRecord(
                    id=cid,
                    kind=raw.get("kind", ""),
                    lang_env=raw.get("lang_env", ""),
                    audio_path=os.path.join(base_dir, audio_path),
                    start_s=float(raw.get("start_s", 0.0)),
                    end_s=float(raw.get("end_s", 0.0)),
                    context=context,
                    source_video_id=raw.get("source_video_id", ""),
                    syllable_count=raw.get("syllable_count"),
                )
            )
        except (PairingError, TypeError, ValueError) as exc:
            errors.append(f"{where}: {exc}")
    if errors:
        raise ManifestError(errors)
    return Manifest(
        version=version,
        clips=clips,
        declared_locations=list(declared_locations),
        defaults=dict(defaults),
        path=str(path),
        activity_paths=blobs,
    )


def corpus_stats(manifest: Manifest) -> dict:
    """Clip counts, length statistics, language shares and scene shares."""
    out = {"kinds": {}, "scene_shares": {}}
    for kind in ("dog_vocal", "host_speech"):
        clips = manifest.by_kind(kind)
        if not clips:
            out["kinds"][kind] = {
                "n_clips": 0, "avg_len_s": 0.0, "var_len_s2": 0.0, "english_pct": 0.0,
            }
            continue
        lens = np.array([c.duration_s for c in clips])
        en = sum(1 for c in clips if c.lang_env == "En")
        out["kinds"][kind] = {
            "n_clips": len(clips),
            "avg_len_s": float(np.mean(lens)),
            "var_len_s2": float(np.var(lens)),
            "english_pct": 100.0 * en / len(clips),
        }
    dogs = manifest.by_kind("dog_vocal")
    if dogs:
        for scene in SCENES:
            share = sum(1 for c in dogs if c.context and c.context.scene == scene)
            out["scene_shares"][scene] = 100.0 * share / len(dogs)
    return out
