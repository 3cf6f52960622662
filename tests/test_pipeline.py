import dataclasses
import json
import multiprocessing
import os
import pickle
import shutil
import signal
from pathlib import Path

import numpy as np
import pytest

from vocalkit import audio, pipeline
from vocalkit.classify import cv
from vocalkit.manifest import Manifest, corpus_stats, load_manifest
from vocalkit.pipeline import (
    STAGE_TABLE,
    STAGES,
    RunConfig,
    StageError,
    run_speed,
    run_stages,
)
from vocalkit.syllables import SyllableError
from vocalkit.synth import SynthGroup, SynthSpec, generate

from conftest import count_pools, usable_cpus

FEATURE_SETS = ("mfcc13", "gemaps_lite")
FAMILIES = ("k_nearest_neighbors", "logistic_regression")


SPEC = SynthSpec(
    n_clips_per_group=4,
    groups=(
        SynthGroup("En", planted_f0_hz=450.0, planted_am_rate_hz=4.0),
        SynthGroup("Ja", planted_f0_hz=550.0, planted_am_rate_hz=6.0),
    ),
    seed=0,
    noise_snr_db=40.0,
    n_scenes=2,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    manifest_path, sidecar_path = generate(SPEC, tmp_path_factory.mktemp("corpus"))
    return manifest_path, sidecar_path


def make_cfg(corpus, out_dir, **kw):
    defaults = dict(
        manifest_path=corpus[0],
        out_dir=str(out_dir),
        seed=0,
        feature_sets=FEATURE_SETS,
        families=FAMILIES,
        folds=3,
        per_class_quota=10,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def full_run(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    cfg = make_cfg(corpus, out)
    ledger = run_stages(cfg)
    return cfg, ledger


def _files(root) -> set:
    """Every file under root, as a path relative to it."""
    return {
        os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names
    }


def _contents(root) -> dict:
    """Every file under root, relative path -> bytes."""
    return {name: Path(root, name).read_bytes() for name in _files(root)}


def fails_alike_on_one_and_two_cpus(monkeypatch, cfg_for, stages=None):
    """run_stages on 1 and on 2 usable CPUs, into the output dir of
    ``cfg_for(cpus)``: it must fail alike on both, with the same error text,
    files and ledger.  Returns the StageError and the config of the 2-CPU run."""
    seen = {}
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        cfg = cfg_for(cpus)
        with pytest.raises(StageError) as exc:
            run_stages(cfg, stages)
        seen[cpus] = str(exc.value), exc.value.stage, _contents(cfg.out_dir)
    assert seen[1] == seen[2]
    return exc.value, cfg


def test_a_stage_error_survives_pickling():
    # a frontend worker returns the StageError a clip failed with
    err = pickle.loads(pickle.dumps(StageError("extract", "clip x: boom")))
    assert type(err) is StageError
    assert str(err) == "stage extract: clip x: boom"
    assert err.stage == "extract"


class TestStageGraph:
    def test_stage_order_covers_dependencies(self):
        for stage, row in STAGE_TABLE.items():
            for dep in row.deps:
                assert STAGES.index(dep) < STAGES.index(stage)

    def test_runners_match_the_table(self):
        assert list(pipeline._RUNNERS) == list(STAGE_TABLE)
        for stage, runner in pipeline._RUNNERS.items():
            assert runner is getattr(pipeline, f"run_{stage}")

    def test_each_stage_writes_exactly_its_row(self, corpus, tmp_path):
        cfg = make_cfg(corpus, tmp_path / "o")
        manifest = load_manifest(corpus[0])
        before = set()
        for stage in STAGES:
            run_stages(cfg, [stage])
            writes = pipeline._paths(cfg, manifest, STAGE_TABLE[stage].writes)
            expected = {os.path.relpath(p, cfg.out_dir) for p in writes}
            after = _files(cfg.out_dir)
            assert after - before == expected | ({"ledger.json"} - before), stage
            before = after

    def test_frontend_stages_can_run_first(self):
        # the frontend pass runs at the first frontend stage's place, so no
        # frontend stage may need a stage or read a file that a stage writes
        written = {name for row in STAGE_TABLE.values() for name in row.writes}
        for stage in pipeline._FRONTEND:
            assert STAGE_TABLE[stage].deps == ()
            assert not written & set(STAGE_TABLE[stage].reads), stage

    def test_unknown_stage(self, corpus, tmp_path):
        cfg = make_cfg(corpus, tmp_path / "o")
        with pytest.raises(StageError):
            run_stages(cfg, ["fly"])

    def test_missing_dependency_artifacts(self, corpus, tmp_path):
        cfg = make_cfg(corpus, tmp_path / "o")
        with pytest.raises(StageError) as exc:
            run_stages(cfg, ["train"])
        assert "extract" in str(exc.value) or "pair" in str(exc.value)

    def test_pair_runs_alone_on_a_fresh_out_dir(self, full_run, corpus, tmp_path):
        # pair reads only the manifest and its activity vectors
        cfg = make_cfg(corpus, tmp_path / "o")
        run_stages(cfg, ["pair"])
        assert sorted(os.listdir(cfg.out_dir)) == ["ledger.json", "pairs.csv"]
        full_cfg, _ = full_run
        assert Path(cfg.out_dir, "pairs.csv").read_bytes() == Path(
            full_cfg.out_dir, "pairs.csv"
        ).read_bytes()


class TestFullRun:
    def test_all_outputs_exist(self, full_run):
        cfg, ledger = full_run
        for name in (
            "segments.jsonl",
            "features_mfcc13.csv",
            "features_gemaps_lite.csv",
            "pairs.csv",
            "grid.csv",
            "cv_reports.json",
            "attribution.csv",
            "correlation.csv",
            "speed.csv",
            "nuclei.jsonl",
            "ledger.json",
        ):
            assert os.path.isfile(os.path.join(cfg.out_dir, name)), name
        assert os.path.isfile(os.path.join(cfg.out_dir, "report", "index.json"))
        assert set(ledger) == set(STAGES)

    def test_segments_cover_all_clips(self, full_run, corpus):
        cfg, _ = full_run
        manifest = load_manifest(corpus[0])
        lines = [
            json.loads(l)
            for l in open(os.path.join(cfg.out_dir, "segments.jsonl"))
        ]
        assert {l["clip_id"] for l in lines} == {c.id for c in manifest.clips}
        sidecar = json.loads(open(corpus[1]).read())
        for l in lines:
            truth = sidecar[l["clip_id"]]
            # one detected word per planted burst, boundaries within 60 ms
            assert len(l["words"]) == len(truth["word_boundaries_s"])
            for (ws, we), (ts, te) in zip(l["words"], truth["word_boundaries_s"]):
                assert abs(ws - ts) < 0.06 and abs(we - te) < 0.06

    def test_feature_csv_rows(self, full_run, corpus):
        cfg, _ = full_run
        manifest = load_manifest(corpus[0])
        lines = open(os.path.join(cfg.out_dir, "features_gemaps_lite.csv")).read().splitlines()
        assert len(lines) == len(manifest.clips) + 1
        assert lines[0].split(",")[0] == "clip_id"
        assert len(lines[0].split(",")) == 37

    def test_extract_computes_one_spectrogram_per_clip(self, corpus, tmp_path, monkeypatch):
        calls = []
        real = audio.power_spectrogram

        def counting(clip):
            calls.append(clip.id)
            return real(clip)

        monkeypatch.setattr(audio, "power_spectrogram", counting)
        usable_cpus(monkeypatch, 1)  # the counter sees this process only
        cfg = make_cfg(
            corpus, tmp_path, feature_sets=("filterbank24", "mfcc13", "plp13", "gemaps_lite")
        )
        run_stages(cfg, ["extract"])
        assert sorted(calls) == sorted(c.id for c in load_manifest(corpus[0]).clips)

    def test_pairs_csv(self, full_run):
        cfg, _ = full_run
        lines = open(os.path.join(cfg.out_dir, "pairs.csv")).read().splitlines()
        assert lines[0] == "left,right,label"
        labels = {l.split(",")[2] for l in lines[1:]}
        assert labels == {"EnEn", "JaJa", "EnJa", "JaEn"}

    def test_grid_csv_shape(self, full_run):
        cfg, _ = full_run
        lines = open(os.path.join(cfg.out_dir, "grid.csv")).read().splitlines()
        assert lines[0] == "feature_set," + ",".join(FAMILIES)
        assert [l.split(",")[0] for l in lines[1:]] == list(FEATURE_SETS)

    def test_attribution_csv(self, full_run):
        cfg, _ = full_run
        lines = open(os.path.join(cfg.out_dir, "attribution.csv")).read().splitlines()
        assert len(lines) == 37  # header + 36 dims
        vals = [float(l.split(",")[2]) for l in lines[1:]]
        assert vals == sorted(vals, reverse=True)

    def test_correlation_csv(self, full_run):
        cfg, _ = full_run
        lines = open(os.path.join(cfg.out_dir, "correlation.csv")).read().splitlines()
        assert len(lines) == 37

    def test_speed_groups_recover_planted_rates(self, full_run):
        cfg, _ = full_run
        rows = {
            l.split(",")[0]: l.split(",")
            for l in open(os.path.join(cfg.out_dir, "speed.csv")).read().splitlines()[1:]
        }
        assert float(rows["dog_vocal/En"][2]) == pytest.approx(4.0, abs=1.0)
        assert float(rows["dog_vocal/Ja"][2]) == pytest.approx(6.0, abs=1.0)
        # synthetic hosts are gated at 4 Hz (En) and 6 Hz (Ja)
        assert float(rows["host_speech/En"][2]) < float(rows["host_speech/Ja"][2])

    def test_report_index(self, full_run):
        cfg, _ = full_run
        index = json.loads(open(os.path.join(cfg.out_dir, "report", "index.json")).read())
        assert all(s["present"] for s in index["sections"].values())


class TestLedger:
    def test_rerun_is_skipped(self, full_run):
        cfg, _ = full_run
        grid = os.path.join(cfg.out_dir, "grid.csv")
        before = os.stat(grid).st_mtime_ns
        run_stages(cfg)
        assert os.stat(grid).st_mtime_ns == before

    def test_config_change_triggers_rerun(self, full_run):
        cfg, _ = full_run
        grid = os.path.join(cfg.out_dir, "grid.csv")
        before = os.stat(grid).st_mtime_ns
        cfg2 = dataclasses.replace(cfg, seed=cfg.seed + 1)
        run_stages(cfg2, ["pair", "train"])
        assert os.stat(grid).st_mtime_ns != before
        # restore the original artifacts for later tests
        run_stages(cfg, ["pair", "train"])

    def test_missing_output_triggers_rerun(self, full_run):
        cfg, _ = full_run
        speed = os.path.join(cfg.out_dir, "speed.csv")
        os.unlink(speed)
        run_stages(cfg, ["speed"])
        assert os.path.isfile(speed)

    def test_stage_seeds_differ(self, full_run):
        cfg, _ = full_run
        seeds = {cfg.stage_seed(s) for s in STAGES}
        assert len(seeds) == len(STAGES)
        assert cfg.stage_seed("pair") == cfg.stage_seed("pair")


# each RunConfig setting, a changed value, and the stages that read it
SETTING_READERS = {
    "seed": (1, {"pair", "train", "explain"}),
    "feature_sets": (("gemaps_lite",), {"extract", "train", "explain"}),
    "families": (("k_nearest_neighbors",), {"train"}),
    "cos_threshold": (0.9, {"pair"}),
    "prominence_cutoff": (0.05, {"explain"}),
    "folds": (2, {"train"}),
    "per_class_quota": (5, {"pair"}),
}


def record_runs(monkeypatch):
    """Record stage names instead of running, so no artifact or input hash changes."""
    ran = []
    for stage in STAGES:
        monkeypatch.setitem(
            pipeline._RUNNERS, stage, lambda c, m, stage=stage: ran.append(stage)
        )

    def frontend(cfg, manifest, stages, done):
        for stage in stages:
            ran.append(stage)
            done(stage)

    monkeypatch.setattr(pipeline, "_frontend", frontend)
    return ran


class TestLedgerScope:
    def test_every_setting_is_covered(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(SETTING_READERS) == fields - {"manifest_path", "out_dir"}

    @pytest.mark.parametrize("setting", sorted(SETTING_READERS))
    def test_setting_reruns_only_the_stages_that_read_it(self, full_run, monkeypatch, setting):
        cfg, _ = full_run
        value, readers = SETTING_READERS[setting]
        ledger = Path(cfg.out_dir, "ledger.json")
        saved = ledger.read_bytes()
        ran = record_runs(monkeypatch)
        try:
            run_stages(cfg)
            assert ran == []
            run_stages(dataclasses.replace(cfg, **{setting: value}))
        finally:
            ledger.write_bytes(saved)
        assert set(ran) == readers

    def test_inputs_hashed_once_per_stage(self, corpus, tmp_path, monkeypatch):
        hashed = []
        real = pipeline._hash_files

        def counting(paths, digests):
            hashed.append(paths)
            return real(paths, digests)

        monkeypatch.setattr(pipeline, "_hash_files", counting)
        stages = ["segment", "speed", "report"]
        cfg = make_cfg(corpus, tmp_path)
        ledger = run_stages(cfg, stages)
        assert len(hashed) == len(stages)
        assert set(ledger) == set(stages)
        # report copied only speed.csv, and that copy keeps the ledger valid
        ran = record_runs(monkeypatch)
        run_stages(cfg, stages)
        assert ran == []


    def test_noop_rerun_reads_each_corpus_file_once(self, full_run, monkeypatch):
        cfg, _ = full_run
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(os.fspath(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "open", counting_open, raising=False)
        ran = record_runs(monkeypatch)
        run_stages(cfg, ["segment", "extract", "speed"])
        assert ran == []
        manifest = load_manifest(cfg.manifest_path)
        corpus_files = {cfg.manifest_path, *(c.audio_path for c in manifest.clips)}
        assert sorted(p for p in opened if p in corpus_files) == sorted(corpus_files)


class TestLedgerContent:
    @pytest.fixture
    def copied(self, full_run, corpus, tmp_path):
        """A copy of the corpus and of the finished out_dir, and its config."""
        cfg, _ = full_run
        corpus_dir = tmp_path / "corpus"
        shutil.copytree(os.path.dirname(corpus[0]), corpus_dir)
        shutil.copytree(cfg.out_dir, tmp_path / "out")
        manifest = corpus_dir / os.path.basename(corpus[0])
        return dataclasses.replace(
            cfg, manifest_path=str(manifest), out_dir=str(tmp_path / "out")
        )

    def test_hash_reads_contents_in_order(self, tmp_path):
        a, b, empty = tmp_path / "a", tmp_path / "b", tmp_path / "empty"
        a.write_bytes(b"x")
        b.write_bytes(b"y")
        empty.write_bytes(b"")
        copy = tmp_path / "sub" / "a"
        copy.parent.mkdir()
        copy.write_bytes(b"x")

        def digest(paths):
            return pipeline._hash_files(paths, {})

        assert digest([a, b]) == digest([copy, b])
        assert digest([a, b]) != digest([b, a])
        assert digest([empty]) != digest([tmp_path / "missing"])

    def test_copied_corpus_and_out_dir_keep_the_ledger(self, copied, monkeypatch):
        ran = record_runs(monkeypatch)
        run_stages(copied)
        assert ran == []

    def test_audio_byte_change_reruns_audio_stages(self, copied, monkeypatch):
        ran = record_runs(monkeypatch)
        wav = load_manifest(copied.manifest_path).clips[0].audio_path
        data = bytearray(Path(wav).read_bytes())
        data[-1] ^= 0xFF
        Path(wav).write_bytes(bytes(data))
        run_stages(copied)
        assert ran == ["segment", "extract", "speed"]

    def test_activity_blobs_are_pair_inputs(self, copied, monkeypatch):
        manifest_path = Path(copied.manifest_path)
        (manifest_path.parent / "act").mkdir()
        header, *lines = manifest_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        for rec in records:
            if rec.get("context"):
                blob = f"act/{rec['id']}.bin"
                vec = np.asarray(rec["context"]["activity"], dtype="<f4")
                vec.tofile(manifest_path.parent / blob)
                rec["context"]["activity"] = blob
        manifest_path.write_text(
            "\n".join([header, *(json.dumps(r) for r in records)]) + "\n"
        )
        ran = record_runs(monkeypatch)
        run_stages(copied)
        ran.clear()
        run_stages(copied)
        assert ran == []  # unchanged blobs: ledger hit
        dog = next(r for r in records if r.get("context"))
        blob = manifest_path.parent / f"act/{dog['id']}.bin"
        vec = np.fromfile(blob, dtype="<f4")
        vec[::-1].tofile(blob)
        run_stages(copied)
        assert ran == ["pair"]

    def test_annotation_files_are_segment_inputs(self, copied, tmp_path):
        first, second = sorted(load_manifest(copied.manifest_path).clips, key=lambda c: c.id)[:2]

        def annotate(clip, start_s, end_s):
            spans = [{"label": "barking", "start_s": start_s, "end_s": end_s}]
            Path(pipeline._annotation_path(clip)).write_text(json.dumps(spans))

        annotate(first, 0.1, 0.9)
        run_stages(copied, ["segment"])
        results = []
        for change in (
            lambda: annotate(first, 1.0, 1.9),  # edit
            lambda: annotate(second, 0.1, 0.9),  # add
            lambda: os.remove(pipeline._annotation_path(first)),  # remove
        ):
            change()
            run_stages(copied, ["segment"])
            fresh = tmp_path / f"fresh{len(results)}"
            run_stages(dataclasses.replace(copied, out_dir=str(fresh)), ["segment"])
            got = Path(copied.out_dir, "segments.jsonl").read_bytes()
            assert got == (fresh / "segments.jsonl").read_bytes()
            results.append(got)
        assert len(set(results)) == len(results)  # each change moved the words

    def test_rerun_restores_a_deleted_report_copy(self, copied):
        copy = Path(copied.out_dir, "report", "grid.csv")
        copy.unlink()
        run_stages(copied, ["report"])
        assert copy.read_bytes() == Path(copied.out_dir, "grid.csv").read_bytes()

    def test_rerun_removes_the_copy_of_a_deleted_source(self, copied):
        Path(copied.out_dir, "speed.csv").unlink()
        run_stages(copied, ["report"])
        index = json.loads(Path(copied.out_dir, "report", "index.json").read_text())
        assert index["sections"]["speed"]["present"] is False
        assert not Path(copied.out_dir, "report", "speed.csv").exists()
        assert Path(copied.out_dir, "report", "grid.csv").is_file()


def test_a_killed_cv_worker_fails_the_train_stage(full_run, tmp_path, monkeypatch):
    cfg, _ = full_run
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    os.remove(out / "grid.csv")  # so the ledger re-runs train
    parent = os.getpid()

    def die_in_worker(*args, **kwargs):
        assert os.getpid() != parent, "a grid fit ran in the parent process"
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cv, "train", die_in_worker)
    with pytest.raises(StageError, match="stage train: a cross-validation worker process died"):
        run_stages(dataclasses.replace(cfg, out_dir=str(out)), ["train"])
    assert multiprocessing.active_children() == []
    assert not (out / "grid.csv").exists()


def test_oscillator_error_names_the_clip(corpus, tmp_path):
    # an envelope rate under 4x the natural frequency fails inside detect_syllables
    manifest = dataclasses.replace(
        load_manifest(corpus[0]), defaults={"oscillator": {"natural_freq_hz": 40.0}}
    )
    first = min(c.id for c in manifest.clips if c.syllable_count is None)
    with pytest.raises(StageError, match=f"stage speed: clip {first}: envelope rate"):
        run_speed(make_cfg(corpus, tmp_path), manifest)


def test_a_constant_feature_names_itself_in_the_explain_error(tmp_path):
    # both groups planted alike at 48 kHz: every dog clip reads the same
    # VoicedSegmentsPerSec, so its correlation with the host speech is undefined
    same = dict(planted_f0_hz=450.0, planted_am_rate_hz=4.0)
    spec = SynthSpec(4, (SynthGroup("En", **same), SynthGroup("Ja", **same)), seed=7,
                     sample_rate=48000)
    manifest_path, _ = generate(spec, tmp_path / "corpus")
    cfg = RunConfig(manifest_path=manifest_path, out_dir=str(tmp_path / "out"), seed=0)
    with pytest.raises(StageError) as exc:
        run_stages(cfg, ["extract", "explain"])
    assert str(exc.value) == (
        "stage explain: feature 'VoicedSegmentsPerSec' over the 8 matched dog clips"
        " has zero variance (every value is 3.5)"
    )


def count_decodes(monkeypatch):
    """Record the clip id of every load_audio and resample call.  Pins the
    run to 1 usable CPU: the counter sees this process only."""
    usable_cpus(monkeypatch, 1)
    calls = {"load_audio": [], "resample": []}
    real_load, real_resample = pipeline.load_audio, pipeline.resample

    def load_audio(path, id=""):
        calls["load_audio"].append(id)
        return real_load(path, id=id)

    def resample(clip, target_rate):
        calls["resample"].append(clip.id)
        return real_resample(clip, target_rate)

    monkeypatch.setattr(pipeline, "load_audio", load_audio)
    monkeypatch.setattr(pipeline, "resample", resample)
    return calls


def count_clip_work(monkeypatch):
    """Record (stage, clip id) for every per-clip call of a frontend stage.
    Pins the run to 1 usable CPU: the counter sees this process only."""
    usable_cpus(monkeypatch, 1)
    work = []
    for stage, row in pipeline._FRONTEND.items():

        def per_clip(cfg, manifest, rec, clip, stage=stage, real=row.clip):
            work.append((stage, rec.id))
            return real(cfg, manifest, rec, clip)

        monkeypatch.setitem(pipeline._FRONTEND, stage, dataclasses.replace(row, clip=per_clip))
    return work


def with_syllable_counts(manifest_path, ids):
    """Give the records in ``ids`` a supplied syllable count, in place."""
    header, *lines = Path(manifest_path).read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for rec in records:
        if rec["id"] in ids:
            rec["syllable_count"] = 7
    Path(manifest_path).write_text(
        "\n".join([header, *(json.dumps(r) for r in records)]) + "\n"
    )


FRONTEND_STAGES = ["segment", "extract", "speed"]


class TestFrontend:
    @pytest.fixture
    def copied_corpus(self, corpus, tmp_path):
        copy = tmp_path / "corpus"
        shutil.copytree(os.path.dirname(corpus[0]), copy)
        return str(copy / os.path.basename(corpus[0]))

    def test_each_clip_decoded_once_per_run(self, corpus, tmp_path, monkeypatch):
        calls = count_decodes(monkeypatch)
        run_stages(make_cfg(corpus, tmp_path / "o"))
        ids = sorted(c.id for c in load_manifest(corpus[0]).clips)
        assert calls == {"load_audio": ids, "resample": ids}

    def test_each_clip_goes_to_every_stage_in_turn(self, corpus, tmp_path, monkeypatch):
        work = count_clip_work(monkeypatch)
        run_stages(make_cfg(corpus, tmp_path / "o"), FRONTEND_STAGES)
        ids = sorted(c.id for c in load_manifest(corpus[0]).clips)
        assert work == [(stage, cid) for cid in ids for stage in FRONTEND_STAGES]

    def test_a_ledger_hit_does_no_clip_work(self, full_run, corpus, tmp_path, monkeypatch):
        cfg, _ = full_run
        out = tmp_path / "out"
        shutil.copytree(cfg.out_dir, out)
        os.remove(out / "speed.csv")  # only speed misses
        calls = count_decodes(monkeypatch)
        work = count_clip_work(monkeypatch)
        run_stages(dataclasses.replace(cfg, out_dir=str(out)), FRONTEND_STAGES)
        ids = sorted(c.id for c in load_manifest(corpus[0]).clips)
        assert calls["load_audio"] == ids
        assert work == [("speed", cid) for cid in ids]
        assert (out / "speed.csv").read_bytes() == Path(cfg.out_dir, "speed.csv").read_bytes()
        calls["load_audio"].clear()
        work.clear()
        run_stages(dataclasses.replace(cfg, out_dir=str(out)), FRONTEND_STAGES)
        assert calls["load_audio"] == [] and work == []

    def test_speed_decodes_no_clip_with_a_syllable_count(
        self, copied_corpus, tmp_path, monkeypatch
    ):
        hosts = sorted(c.id for c in load_manifest(copied_corpus).by_kind("host_speech"))
        with_syllable_counts(copied_corpus, hosts)
        calls = count_decodes(monkeypatch)
        cfg = make_cfg((copied_corpus,), tmp_path / "o")
        run_stages(cfg, ["speed"])
        ids = sorted(c.id for c in load_manifest(copied_corpus).clips)
        assert calls["load_audio"] == [cid for cid in ids if cid not in hosts]
        # with segment in the pass, every clip is decoded, still once
        calls["load_audio"].clear()
        run_stages(dataclasses.replace(cfg, out_dir=str(tmp_path / "o2")), ["segment", "speed"])
        assert calls["load_audio"] == ids

    def test_a_failing_stage_leaves_the_others_whole(
        self, full_run, corpus, tmp_path, monkeypatch
    ):
        clean, _ = full_run
        victim = sorted(c.id for c in load_manifest(corpus[0]).clips)[3]
        real = pipeline.clip_vector

        def failing(clip, set_id, clip_id):
            if clip_id == victim:
                raise ValueError("planted fault")
            return real(clip, set_id, clip_id)

        monkeypatch.setattr(pipeline, "clip_vector", failing)
        exc, cfg = fails_alike_on_one_and_two_cpus(
            monkeypatch, lambda cpus: make_cfg(corpus, tmp_path / f"o{cpus}")
        )
        # the stage and clip that running the stages one by one fails on
        assert str(exc) == f"stage extract: clip {victim} (mfcc13): planted fault"
        assert exc.stage == "extract"
        # the failed stage wrote nothing; what is left is whole and in the ledger
        ledger = json.loads(Path(cfg.out_dir, "ledger.json").read_text())
        clean_ledger = json.loads(Path(clean.out_dir, "ledger.json").read_text())
        assert set(ledger) == {"segment", "speed"}
        left = _files(cfg.out_dir) - {"ledger.json"}
        assert left == {p for stage in ledger for p in ledger[stage]["outputs"]}
        for stage, entry in ledger.items():
            assert entry == clean_ledger[stage]
        for name in left:
            assert Path(cfg.out_dir, name).read_bytes() == Path(clean.out_dir, name).read_bytes()
        # with the fault gone, only extract and what needs it re-run
        monkeypatch.setattr(pipeline, "clip_vector", real)
        work = count_clip_work(monkeypatch)
        ran = []
        for stage in ("pair", "train", "explain", "report"):
            real_runner = pipeline._RUNNERS[stage]

            def runner(c, m, stage=stage, real_runner=real_runner):
                ran.append(stage)
                real_runner(c, m)

            monkeypatch.setitem(pipeline._RUNNERS, stage, runner)
        run_stages(cfg)
        assert {stage for stage, _ in work} == {"extract"}
        assert ran == ["pair", "train", "explain", "report"]
        assert _files(cfg.out_dir) == _files(clean.out_dir)
        for name in _files(clean.out_dir) - {"ledger.json"}:
            assert Path(cfg.out_dir, name).read_bytes() == Path(clean.out_dir, name).read_bytes()
        assert json.loads(Path(cfg.out_dir, "ledger.json").read_text()) == clean_ledger

    def test_the_earliest_failed_stage_is_raised(self, corpus, tmp_path, monkeypatch):
        # extract fails on an earlier clip than segment; run one by one,
        # segment would fail first
        ids = sorted(c.id for c in load_manifest(corpus[0]).clips)

        def fail_on(clip_id, real):
            def failing(clip, *args):
                if clip.id == clip_id:
                    raise ValueError("planted fault")
                return real(clip, *args)

            return failing

        monkeypatch.setattr(pipeline, "extract_words", fail_on(ids[5], pipeline.extract_words))
        monkeypatch.setattr(pipeline, "clip_vector", fail_on(ids[2], pipeline.clip_vector))
        exc, cfg = fails_alike_on_one_and_two_cpus(
            monkeypatch, lambda cpus: make_cfg(corpus, tmp_path / f"o{cpus}"), FRONTEND_STAGES
        )
        assert str(exc) == f"stage segment: clip {ids[5]}: planted fault"
        assert _files(cfg.out_dir) == {"ledger.json", "speed.csv", "nuclei.jsonl"}

    def test_an_undecodable_clip_fails_every_stage_that_needs_it(
        self, copied_corpus, tmp_path, monkeypatch
    ):
        clips = sorted(load_manifest(copied_corpus).clips, key=lambda c: c.id)
        Path(clips[1].audio_path).write_bytes(Path(clips[1].audio_path).read_bytes()[:30])

        def cfg_for(cpus):
            return make_cfg((copied_corpus,), tmp_path / f"o{cpus}")

        exc, cfg = fails_alike_on_one_and_two_cpus(monkeypatch, cfg_for, FRONTEND_STAGES)
        assert str(exc).startswith(f"stage segment: clip {clips[1].id} (")
        assert _files(cfg.out_dir) == set()
        # a supplied syllable count spares speed that clip
        with_syllable_counts(copied_corpus, {clips[1].id})
        exc, cfg = fails_alike_on_one_and_two_cpus(monkeypatch, cfg_for, FRONTEND_STAGES)
        assert str(exc).startswith(f"stage segment: clip {clips[1].id} (")
        assert set(json.loads(Path(cfg.out_dir, "ledger.json").read_text())) == {"speed"}

    def test_a_failed_stage_runs_on_no_later_clip(self, corpus, tmp_path, monkeypatch):
        # speed fails on every clip; each process runs it on its first clip only
        ids = sorted(c.id for c in load_manifest(corpus[0]).clips)
        log = {}

        def failing(clip, osc_cfg):
            with open(log["path"], "a") as fh:
                fh.write(f"{os.getpid()} {clip.id}\n")
            raise SyllableError("planted fault")

        def cfg_for(cpus):
            log["path"] = tmp_path / f"speed_calls{cpus}"
            log["path"].touch()
            return make_cfg(corpus, tmp_path / f"o{cpus}")

        monkeypatch.setattr(pipeline, "detect_syllables", failing)
        exc, cfg = fails_alike_on_one_and_two_cpus(monkeypatch, cfg_for, FRONTEND_STAGES)
        assert str(exc) == f"stage speed: clip {ids[0]}: planted fault"
        assert set(json.loads(Path(cfg.out_dir, "ledger.json").read_text())) == {
            "segment", "extract"
        }
        for cpus in (1, 2):
            lines = (tmp_path / f"speed_calls{cpus}").read_text().splitlines()
            calls = [line.split() for line in lines]
            pids = [pid for pid, _ in calls]
            assert len(pids) == len(set(pids)) <= cpus  # once per process
            assert ids[0] in [cid for _, cid in calls]
        # alone in the pass, the failed stage leaves no clip to decode
        calls = count_decodes(monkeypatch)
        with pytest.raises(StageError, match=f"^stage speed: clip {ids[0]}: planted fault$"):
            run_stages(make_cfg(corpus, tmp_path / "alone"), ["speed"])
        assert calls["load_audio"] == [ids[0]]

    @pytest.mark.parametrize("sample_rate", [16000, 48000])
    def test_a_full_run_is_the_same_on_one_and_two_cpus(
        self, tmp_path, monkeypatch, sample_rate
    ):
        manifest_path, _ = generate(
            dataclasses.replace(SPEC, sample_rate=sample_rate), tmp_path / "corpus"
        )
        created = count_pools(monkeypatch)
        contents = {}
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            cfg = make_cfg((manifest_path,), tmp_path / f"o{cpus}")
            run_stages(cfg)
            contents[cpus] = _contents(cfg.out_dir)
        assert created == [2, 2]  # the frontend pass and the grid, on 2 CPUs only
        assert contents[1] == contents[2]

    def test_a_killed_worker_fails_the_pass(self, full_run, tmp_path, monkeypatch):
        cfg, _ = full_run
        out = tmp_path / "out"
        shutil.copytree(cfg.out_dir, out)
        # so the ledger re-runs extract and speed, in one pass
        os.remove(out / "features_mfcc13.csv")
        os.remove(out / "speed.csv")
        before = _contents(out)
        parent = os.getpid()

        def die_in_worker(*args, **kwargs):
            assert os.getpid() != parent, "a clip's features were computed in the parent process"
            os.kill(os.getpid(), signal.SIGKILL)

        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(pipeline, "clip_vector", die_in_worker)
        with pytest.raises(StageError, match="^stage extract: a worker process died"):
            run_stages(dataclasses.replace(cfg, out_dir=str(out)), FRONTEND_STAGES)
        assert multiprocessing.active_children() == []
        assert _contents(out) == before


class TestSyllableCountOverride:
    def test_text_derived_rate(self, corpus, tmp_path):
        manifest = load_manifest(corpus[0])
        host = next(c for c in manifest.clips if c.kind == "host_speech")
        counted = dataclasses.replace(host, syllable_count=9)
        tiny = Manifest(
            version=1, clips=[counted], declared_locations=["lawn"], defaults={},
        )
        out = tmp_path / "o"
        out.mkdir()
        cfg = make_cfg(corpus, out)
        run_speed(cfg, tiny)
        lines = open(out / "speed.csv").read().splitlines()
        group, n, mean_rate = lines[1].split(",")[:3]
        assert group == f"host_speech/{host.lang_env}"
        assert float(mean_rate) == pytest.approx(9 / host.duration_s, abs=1e-6)
        # override means no audio analysis: nuclei file has no entry
        assert open(out / "nuclei.jsonl").read() == ""


def test_stats_report(corpus):
    stats = corpus_stats(load_manifest(corpus[0]))
    assert stats["kinds"]["dog_vocal"]["n_clips"] == 8
    assert stats["kinds"]["host_speech"]["n_clips"] == 8
    assert stats["kinds"]["dog_vocal"]["english_pct"] == pytest.approx(50.0)
