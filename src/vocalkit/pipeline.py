"""Manifest-driven batch pipeline with content-hash idempotence.

Stages run in dependency order: segment -> extract -> pair -> train ->
explain -> speed -> report.  STAGE_TABLE declares, once per stage, the
stages whose artifacts it needs, the RunConfig settings it reads, and the
files it reads and writes.  Each stage records a content hash of the files
it reads and of its settings in the run ledger; a stage re-runs only when
either hash changed or a file it writes is missing.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv, write_file, write_json, write_jsonl
from .audio import CANONICAL_RATE, AudioError, load_audio, resample
from .classify import FAMILIES, accuracy_grid, train, write_cv_reports, write_grid_csv
from .explain import (
    correlate_pairs,
    mean_abs_shap,
    write_attribution_csv,
    write_correlation_csv,
)
from .features import clip_vector, read_feature_csv, write_feature_csv
from .manifest import Manifest, load_manifest
from .pairing import ClipPair, PairClass, build_pairs, pair_dataset
from .segmentation import DetectorSource, SegmentationConfig, extract_words
from .syllables import (
    OscillatorConfig,
    SyllableError,
    detect_syllables,
    speed_report,
    write_nuclei_jsonl,
    write_speed_csv,
)


@dataclass(frozen=True)
class Stage:
    """One row of STAGE_TABLE.  ``reads`` and ``writes`` hold names that
    ``_paths`` expands: a corpus file set, the feature CSVs, the report
    copies, or a file in the output directory."""

    deps: tuple  # stages whose ``writes`` must exist before this one runs
    settings: tuple  # the RunConfig fields it reads; others leave its ledger entry valid
    reads: tuple
    writes: tuple


# report section -> the output file it copies into report/
REPORT_SECTIONS = {
    "accuracy_grid": "grid.csv",
    "attribution": "attribution.csv",
    "correlation": "correlation.csv",
    "speed": "speed.csv",
}

# one row per stage, in run order
STAGE_TABLE = {
    "segment": Stage(
        deps=(), settings=(),
        reads=("manifest", "audio", "annotations"), writes=("segments.jsonl",),
    ),
    "extract": Stage(
        deps=(), settings=("feature_sets",),
        reads=("manifest", "audio"), writes=("features",),
    ),
    "pair": Stage(
        deps=(), settings=("seed", "cos_threshold", "per_class_quota"),
        reads=("manifest", "activity"), writes=("pairs.csv",),
    ),
    "train": Stage(
        deps=("extract", "pair"), settings=("seed", "feature_sets", "families", "folds"),
        reads=("pairs.csv", "features"), writes=("grid.csv", "cv_reports.json"),
    ),
    "explain": Stage(
        deps=("extract",), settings=("seed", "feature_sets", "prominence_cutoff"),
        reads=("manifest", "features"), writes=("attribution.csv", "correlation.csv"),
    ),
    "speed": Stage(
        deps=(), settings=(),
        reads=("manifest", "audio"), writes=("speed.csv", "nuclei.jsonl"),
    ),
    "report": Stage(
        deps=(), settings=(),
        reads=tuple(REPORT_SECTIONS.values()), writes=("report copies", "report/index.json"),
    ),
}

STAGES = tuple(STAGE_TABLE)

LEDGER_NAME = "ledger.json"


class StageError(Exception):
    def __init__(self, stage, message):
        self.stage = stage
        super().__init__(f"stage {stage}: {message}")


@dataclass
class RunConfig:
    manifest_path: str
    out_dir: str
    seed: int = 0
    feature_sets: tuple = ("filterbank24", "mfcc13", "plp13", "gemaps_lite")
    families: tuple = FAMILIES
    cos_threshold: float = 0.95
    prominence_cutoff: float = 0.04
    folds: int = 5
    per_class_quota: int = 500

    def stage_seed(self, stage: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{stage}".encode()).digest()
        return int.from_bytes(digest[:8], "little") % (2 ** 31)


def _file_digest(path) -> bytes:
    if not os.path.isfile(path):
        return b"M"
    content = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            content.update(chunk)
    return b"F" + content.digest()


def _hash_files(paths, digests: dict) -> str:
    """Digest of the files' contents in the given order, not of their paths,
    so a moved or copied directory keeps its ledger; a missing file hashes as
    a marker that no content digest can produce.  ``digests`` memoises each
    file's digest by path, so stages that read the same file read it once."""
    h = hashlib.sha256()
    for p in paths:
        key = os.fspath(p)
        if key not in digests:
            digests[key] = _file_digest(p)
        h.update(digests[key])
    return h.hexdigest()


def _config_hash(cfg: RunConfig, stage: str) -> str:
    relevant = {name: getattr(cfg, name) for name in STAGE_TABLE[stage].settings}
    relevant["stage"] = stage
    return hashlib.sha256(json.dumps(relevant, sort_keys=True).encode()).hexdigest()


def _load_ledger(out_dir) -> dict:
    """The run ledger.  It is a cache: one that is missing or not a JSON
    object reads as empty, so every requested stage re-runs."""
    try:
        with open(os.path.join(out_dir, LEDGER_NAME)) as fh:
            ledger = json.load(fh)
    except (FileNotFoundError, ValueError):  # JSONDecodeError, UnicodeDecodeError
        return {}
    return ledger if isinstance(ledger, dict) else {}


def _annotation_path(record) -> str:
    """The event-annotation file segment uses for a clip when it exists."""
    return record.audio_path + ".events.json"


def _paths(cfg: RunConfig, manifest: Manifest, names) -> list:
    """Expand a STAGE_TABLE row's ``reads`` or ``writes`` into file paths."""
    out_dir = cfg.out_dir
    paths = []
    for name in names:
        if name == "manifest":
            paths.append(cfg.manifest_path)
        elif name == "audio":
            paths.extend(c.audio_path for c in manifest.clips)
        elif name == "annotations":
            paths.extend(_annotation_path(c) for c in manifest.clips)
        elif name == "activity":
            paths.extend(manifest.activity_paths)
        elif name == "features":
            paths.extend(os.path.join(out_dir, f"features_{s}.csv") for s in cfg.feature_sets)
        elif name == "report copies":
            # a section is copied only when its source exists
            paths.extend(
                os.path.join(out_dir, "report", f) for f in REPORT_SECTIONS.values()
                if os.path.isfile(os.path.join(out_dir, f))
            )
        else:
            paths.append(os.path.join(out_dir, name))
    return paths


def _clip_audio(record, stage: str):
    """The record's span of audio at the canonical rate; a file that cannot be
    decoded fails the stage with the clip's id and path."""
    try:
        clip = load_audio(record.audio_path, id=record.id)
        if record.start_s > 0 or record.end_s < clip.duration_s - 1e-6:
            clip = clip.slice_s(record.start_s, min(record.end_s, clip.duration_s), id=record.id)
        return resample(clip, CANONICAL_RATE)
    except (AudioError, OSError) as exc:
        raise StageError(stage, f"clip {record.id} ({record.audio_path}): {exc}") from exc


def run_segment(cfg: RunConfig, manifest: Manifest) -> None:
    seg_cfg = SegmentationConfig(**manifest.defaults.get("segmentation", {}))
    records = []
    for rec in sorted(manifest.clips, key=lambda r: r.id):
        clip = _clip_audio(rec, "segment")
        ann = _annotation_path(rec)
        if os.path.isfile(ann):
            source = DetectorSource("external_annotations", {"annotation_path": ann})
        else:
            source = DetectorSource("energy_baseline")
        try:
            words = extract_words(clip, source, seg_cfg)
        except Exception as exc:
            raise StageError("segment", f"clip {rec.id}: {exc}")
        spans = [[round(w.start_s, 4), round(w.end_s, 4)] for w in words]
        records.append({"clip_id": rec.id, "words": spans})
    write_jsonl(os.path.join(cfg.out_dir, "segments.jsonl"), records)


def run_extract(cfg: RunConfig, manifest: Manifest) -> None:
    vectors = {s: [] for s in cfg.feature_sets}
    for rec in sorted(manifest.clips, key=lambda r: r.id):
        clip = _clip_audio(rec, "extract")
        for set_id in cfg.feature_sets:
            try:
                vectors[set_id].append(clip_vector(clip, set_id, rec.id))
            except Exception as exc:
                raise StageError("extract", f"clip {rec.id} ({set_id}): {exc}")
    for set_id, vecs in vectors.items():
        write_feature_csv(os.path.join(cfg.out_dir, f"features_{set_id}.csv"), vecs)


def run_pair(cfg: RunConfig, manifest: Manifest) -> None:
    dogs = manifest.by_kind("dog_vocal")
    pairs = build_pairs(
        dogs, cfg.per_class_quota, cfg.stage_seed("pair"), cfg.cos_threshold
    )
    rows = ([p.left, p.right, p.label.name] for p in pairs)
    write_csv(os.path.join(cfg.out_dir, "pairs.csv"), ["left", "right", "label"], rows)


def _read_pairs(path) -> list:
    pairs = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for left, right, label in reader:
            pairs.append(ClipPair(left, right, PairClass[label]))
    return pairs


def run_train(cfg: RunConfig, manifest: Manifest) -> None:
    pairs = _read_pairs(os.path.join(cfg.out_dir, "pairs.csv"))
    datasets = {}
    for set_id in cfg.feature_sets:
        features = read_feature_csv(
            os.path.join(cfg.out_dir, f"features_{set_id}.csv"), set_id
        )
        X, y, _, _ = pair_dataset(pairs, features, set_id)
        datasets[set_id] = (X, y)
    try:
        grid = accuracy_grid(
            datasets, list(cfg.families), folds=cfg.folds, seed=cfg.stage_seed("train")
        )
    except BrokenExecutor as exc:  # BrokenProcessPool: a worker process died
        raise StageError("train", f"a cross-validation worker process died: {exc}") from exc
    write_grid_csv(
        os.path.join(cfg.out_dir, "grid.csv"), grid, list(cfg.feature_sets),
        list(cfg.families),
    )
    write_cv_reports(os.path.join(cfg.out_dir, "cv_reports.json"), grid)


def run_explain(cfg: RunConfig, manifest: Manifest) -> None:
    if "gemaps_lite" not in cfg.feature_sets:
        raise StageError("explain", "explain requires the gemaps_lite feature set")
    features = read_feature_csv(
        os.path.join(cfg.out_dir, "features_gemaps_lite.csv"), "gemaps_lite"
    )
    dogs = [r for r in manifest.by_kind("dog_vocal") if r.id in features]
    if not dogs:
        raise StageError("explain", "no dog clips with extracted features")
    dogs = sorted(dogs, key=lambda r: r.id)
    X = np.stack([features[r.id].values for r in dogs])
    y = np.array([0 if r.lang_env == "En" else 1 for r in dogs])
    names = features[dogs[0].id].names
    seed = cfg.stage_seed("explain")
    model = train("gradient_boosted_trees", X, y, seed=seed)
    rows = mean_abs_shap(
        model, X, names,
        sample_size=min(100, len(X)),
        seed=seed,
        cutoff=cfg.prominence_cutoff,
    )
    write_attribution_csv(os.path.join(cfg.out_dir, "attribution.csv"), rows)
    host_ids = {r.id for r in manifest.by_kind("host_speech")}
    host_features = {cid: fv for cid, fv in features.items() if cid in host_ids}
    dog_features = {r.id: features[r.id] for r in dogs}
    try:
        corr = correlate_pairs(
            manifest.clips, dog_features, host_features, list(names), seed=seed
        )
        write_correlation_csv(os.path.join(cfg.out_dir, "correlation.csv"), corr)
    except Exception as exc:
        raise StageError("explain", str(exc))


def run_speed(cfg: RunConfig, manifest: Manifest) -> None:
    osc_cfg = OscillatorConfig(**manifest.defaults.get("oscillator", {}))
    rates = {}
    units_by_clip = {}
    for rec in sorted(manifest.clips, key=lambda r: r.id):
        group = f"{rec.kind}/{rec.lang_env}"
        if rec.syllable_count is not None:
            # externally supplied (text-derived) syllable count overrides audio
            rate = rec.syllable_count / rec.duration_s
            rates.setdefault(group, []).append(rate)
            continue
        clip = _clip_audio(rec, "speed")
        try:
            units = detect_syllables(clip, osc_cfg)
        except (AudioError, SyllableError) as exc:
            raise StageError("speed", f"clip {rec.id}: {exc}")
        units_by_clip[rec.id] = units
        rates.setdefault(group, []).append(units.rate_per_s)
    rows = speed_report(rates)
    write_speed_csv(os.path.join(cfg.out_dir, "speed.csv"), rows)
    write_nuclei_jsonl(os.path.join(cfg.out_dir, "nuclei.jsonl"), units_by_clip)


def run_report(cfg: RunConfig, manifest: Manifest) -> None:
    report_dir = os.path.join(cfg.out_dir, "report")
    os.makedirs(report_dir, exist_ok=True)
    index = {"sections": {}}
    for section, name in REPORT_SECTIONS.items():
        src = os.path.join(cfg.out_dir, name)
        if os.path.isfile(src):
            with open(src, newline="") as fh:
                text = fh.read()
            write_file(os.path.join(report_dir, name), lambda fh: fh.write(text))
            index["sections"][section] = {"file": name, "present": True}
        else:
            # a copy from a run that had the source would be a section the
            # index disowns
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(report_dir, name))
            index["sections"][section] = {"file": name, "present": False}
    write_json(os.path.join(report_dir, "index.json"), index)


_RUNNERS = {
    "segment": run_segment,
    "extract": run_extract,
    "pair": run_pair,
    "train": run_train,
    "explain": run_explain,
    "speed": run_speed,
    "report": run_report,
}


def run_stages(cfg: RunConfig, stages=None) -> dict:
    """Run the requested stages (defaults to all) with ledger-based skipping.

    Returns the updated ledger.  Raises StageError when a stage's upstream
    artifacts are missing or a stage fails.
    """
    digests = {}  # file digests taken by this call, shared by its stages
    manifest = load_manifest(cfg.manifest_path)
    os.makedirs(cfg.out_dir, exist_ok=True)
    ledger = _load_ledger(cfg.out_dir)
    requested = list(stages) if stages else list(STAGES)
    for stage in requested:
        if stage not in STAGES:
            raise StageError(stage, "unknown stage")
    for stage, row in STAGE_TABLE.items():
        if stage not in requested:
            continue
        for dep in row.deps:
            if dep in requested and STAGES.index(dep) < STAGES.index(stage):
                continue
            dep_writes = _paths(cfg, manifest, STAGE_TABLE[dep].writes)
            if not all(os.path.isfile(p) for p in dep_writes):
                raise StageError(stage, f"missing dependency artifacts from stage {dep!r}")
        input_hash = _hash_files(_paths(cfg, manifest, row.reads), digests)
        config_hash = _config_hash(cfg, stage)
        entry = ledger.get(stage)
        outputs = _paths(cfg, manifest, row.writes)
        if (
            entry
            and entry.get("input_hash") == input_hash
            and entry.get("config_hash") == config_hash
            and all(os.path.isfile(p) for p in outputs)
        ):
            continue  # ledger hit
        _RUNNERS[stage](cfg, manifest)
        for p in outputs:
            digests.pop(p, None)
        ledger[stage] = {
            "input_hash": input_hash,
            "config_hash": config_hash,
            "outputs": [os.path.relpath(p, cfg.out_dir) for p in outputs],
        }
        write_json(os.path.join(cfg.out_dir, LEDGER_NAME), ledger)
    return ledger
