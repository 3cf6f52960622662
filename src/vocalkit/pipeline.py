"""Manifest-driven batch pipeline with content-hash idempotence.

Stages run in dependency order: segment -> extract -> pair -> train ->
explain -> speed -> report.  STAGE_TABLE declares, once per stage, the
stages whose artifacts it needs, the RunConfig settings it reads, and the
files it reads and writes.  Each stage records a content hash of the files
it reads and of its settings in the run ledger; a stage re-runs only when
either hash changed or a file it writes is missing.

segment, extract and speed are the frontend: each is a per-clip function
and a writer (_FRONTEND), and the frontend stages that miss the ledger run
together in one pass over the clips (_frontend), which decodes and resamples
each clip once.  The pass maps one task per clip (_clip_task) over
``vocalkit.workers``' fork pool, one worker per usable CPU, and runs the
writers in this process; every file is the same, byte for byte, however many
workers ran it.  That pass runs at the place of the first of them, so speed
runs ahead of pair, train and explain, none of which reads its files.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Callable

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
from .workers import map_tasks


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
    """A stage that failed; ``str()`` is "stage <stage>: <message>".  It
    pickles, so a frontend worker can return one."""

    def __init__(self, stage, message):
        super().__init__(stage, message)
        self.stage = stage

    def __str__(self) -> str:
        return f"stage {self.stage}: {self.args[1]}"


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


def _segment_clip(cfg: RunConfig, manifest: Manifest, rec, clip) -> dict:
    """The clip's segments.jsonl record."""
    seg_cfg = SegmentationConfig(**manifest.defaults.get("segmentation", {}))
    ann = _annotation_path(rec)
    if os.path.isfile(ann):
        source = DetectorSource("external_annotations", {"annotation_path": ann})
    else:
        source = DetectorSource("energy_baseline")
    try:
        words = extract_words(clip, source, seg_cfg)
    except Exception as exc:
        raise StageError("segment", f"clip {rec.id}: {exc}")
    return {"clip_id": rec.id, "words": [[round(w.start_s, 4), round(w.end_s, 4)] for w in words]}


def _write_segment(cfg: RunConfig, records: list) -> None:
    write_jsonl(os.path.join(cfg.out_dir, "segments.jsonl"), records)


def _extract_clip(cfg: RunConfig, manifest: Manifest, rec, clip) -> list:
    """The clip's vector for each feature set, in ``cfg.feature_sets`` order."""
    vectors = []
    for set_id in cfg.feature_sets:
        try:
            vectors.append(clip_vector(clip, set_id, rec.id))
        except Exception as exc:
            raise StageError("extract", f"clip {rec.id} ({set_id}): {exc}")
    return vectors


def _write_extract(cfg: RunConfig, per_clip: list) -> None:
    for i, set_id in enumerate(cfg.feature_sets):
        write_feature_csv(
            os.path.join(cfg.out_dir, f"features_{set_id}.csv"), [v[i] for v in per_clip]
        )


def _speed_clip(cfg: RunConfig, manifest: Manifest, rec, clip) -> tuple:
    """The clip's (id, group, syllable rate, nuclei).  A record that supplies
    its syllable count gets no audio (``clip`` is None) and no nuclei."""
    group = f"{rec.kind}/{rec.lang_env}"
    if rec.syllable_count is not None:
        # externally supplied (text-derived) syllable count overrides audio
        return rec.id, group, rec.syllable_count / rec.duration_s, None
    osc_cfg = OscillatorConfig(**manifest.defaults.get("oscillator", {}))
    try:
        units = detect_syllables(clip, osc_cfg)
    except (AudioError, SyllableError) as exc:
        raise StageError("speed", f"clip {rec.id}: {exc}")
    return rec.id, group, units.rate_per_s, units


def _write_speed(cfg: RunConfig, per_clip: list) -> None:
    rates = {}
    for _, group, rate, _ in per_clip:
        rates.setdefault(group, []).append(rate)
    units_by_clip = {cid: units for cid, _, _, units in per_clip if units is not None}
    write_speed_csv(os.path.join(cfg.out_dir, "speed.csv"), speed_report(rates))
    write_nuclei_jsonl(os.path.join(cfg.out_dir, "nuclei.jsonl"), units_by_clip)


@dataclass(frozen=True)
class _ClipStage:
    """A frontend stage, split for ``_frontend``."""

    clip: Callable  # (cfg, manifest, record, canonical-rate clip) -> the clip's result
    write: Callable  # (cfg, results in clip id order) -> None; writes the stage's files
    needs_audio: Callable = lambda rec: True  # false: ``clip`` gets None for that record


# the stages that run per clip, on the same decoded clips
_FRONTEND = {
    "segment": _ClipStage(_segment_clip, _write_segment),
    "extract": _ClipStage(_extract_clip, _write_extract),
    "speed": _ClipStage(
        _speed_clip, _write_speed, needs_audio=lambda rec: rec.syllable_count is None
    ),
}


def _clip_task(shared: tuple, index: int) -> list:
    """Each frontend stage's outcome on the index-th clip in id order: its
    per-clip result, the StageError it failed with, or None for a stage
    that already failed on an earlier clip of this process.

    The clip is decoded and resampled once, and only when some stage that
    has not failed needs its audio; a clip that cannot be decoded fails
    every such stage.  A process sees its clips in increasing id order, so
    the stages it skips have failed on an earlier clip, whose error the
    failure rule of ``_frontend`` keeps.
    """
    cfg, manifest, records, stages, held, failed = shared
    rec = records[index]
    live = [s for s in stages if s not in failed]
    need_audio = [s for s in live if _FRONTEND[s].needs_audio(rec)]
    clip = undecodable = None
    if need_audio:
        try:
            clip = _clip_audio(rec, need_audio[0])
        except StageError as exc:
            undecodable = exc
        # ``held`` keeps this process's last clip until this one is decoded;
        # freed first, its memory went back to the OS and was faulted in
        # again for every clip (55,000 minor page faults per 96-clip 16 kHz
        # pass, against 13,000)
        held[0] = clip
    outcomes = []
    for stage in stages:
        if stage not in live:
            outcome = None
        elif undecodable is not None and stage in need_audio:
            outcome = undecodable
        else:
            try:
                outcome = _FRONTEND[stage].clip(cfg, manifest, rec, clip)
            except StageError as exc:
                outcome = exc
        if isinstance(outcome, StageError):
            failed.add(stage)
        outcomes.append(outcome)
    return outcomes


def _frontend(cfg: RunConfig, manifest: Manifest, stages, done=lambda stage: None) -> None:
    """Run the frontend ``stages`` (_FRONTEND keys, in STAGES order) in one
    pass over the clips in id order.

    Each clip is one ``_clip_task``, mapped over ``vocalkit.workers``' fork
    pool: the workers inherit the config, manifest and stages, and return
    every stage's per-clip result.  After the last clip each stage's writer
    runs, in this process, then ``done(stage)``.  A worker that dies fails
    the pass as its first stage, with nothing written.

    Failure rule, applied to the outcomes in clip id order: a stage that
    fails on a clip drops out of the pass, and each process stops running it
    on its later clips.  It writes no file, so its files and ledger entry
    from an earlier run stay as they were.  The other
    stages write their files and are passed to ``done``, so ``run_stages``
    records them and a re-run repeats only the failed stages.  Then the
    earliest failed stage's error is raised: the stage and clip that running
    the stages one after another would have failed on.
    """
    records = sorted(manifest.clips, key=lambda r: r.id)
    shared = cfg, manifest, records, stages, [None], set()
    try:
        per_clip = map_tasks(_clip_task, shared, range(len(records)))
    except BrokenExecutor as exc:  # BrokenProcessPool: a worker process died
        raise StageError(stages[0], f"a worker process died: {exc}") from exc
    results = {stage: [] for stage in stages}
    failed = {}
    for outcomes in per_clip:
        for stage, outcome in zip(stages, outcomes):
            if stage in failed:
                continue
            if isinstance(outcome, StageError):
                failed[stage] = outcome  # its first clip in id order
            else:
                results[stage].append(outcome)
    for stage in stages:
        if stage not in failed:
            _FRONTEND[stage].write(cfg, results[stage])
            done(stage)
    for stage in stages:
        if stage in failed:
            raise failed[stage]


def run_segment(cfg: RunConfig, manifest: Manifest) -> None:
    _frontend(cfg, manifest, ["segment"])


def run_extract(cfg: RunConfig, manifest: Manifest) -> None:
    _frontend(cfg, manifest, ["extract"])


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
    _frontend(cfg, manifest, ["speed"])


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

    The frontend stages that miss the ledger run together, in one
    ``_frontend`` pass, at the place of the first requested one.  Returns the
    updated ledger.  Raises StageError when a stage's upstream artifacts are
    missing or a stage fails.
    """
    digests = {}  # file digests taken by this call, shared by its stages
    manifest = load_manifest(cfg.manifest_path)
    os.makedirs(cfg.out_dir, exist_ok=True)
    ledger = _load_ledger(cfg.out_dir)
    requested = list(stages) if stages else list(STAGES)
    for stage in requested:
        if stage not in STAGES:
            raise StageError(stage, "unknown stage")
    misses = {}  # stage -> (its outputs, its ledger entry once it has run)

    def check(stage) -> None:
        """Add the stage to ``misses`` unless the ledger serves it."""
        row = STAGE_TABLE[stage]
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
            return  # ledger hit
        misses[stage] = outputs, {
            "input_hash": input_hash,
            "config_hash": config_hash,
            "outputs": [os.path.relpath(p, cfg.out_dir) for p in outputs],
        }

    def record(stage) -> None:
        outputs, ledger[stage] = misses.pop(stage)
        for p in outputs:
            digests.pop(p, None)
        write_json(os.path.join(cfg.out_dir, LEDGER_NAME), ledger)

    frontend = [s for s in STAGES if s in requested and s in _FRONTEND]
    for stage in STAGES:
        if stage not in requested or stage in frontend[1:]:
            continue  # the first frontend stage runs them all
        for s in frontend if stage in _FRONTEND else [stage]:
            check(s)
        if not misses:
            continue  # ledger hit
        if stage in _FRONTEND:
            _frontend(cfg, manifest, list(misses), done=record)
        else:
            _RUNNERS[stage](cfg, manifest)
            record(stage)
    return ledger
