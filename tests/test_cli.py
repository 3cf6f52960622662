import dataclasses
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from vocalkit.classify import FAMILIES
from vocalkit.cli import EXIT_OK, EXIT_STAGE, EXIT_VALIDATION, _build_parser, main
from vocalkit.features import FEATURE_SET_DIMS
from vocalkit.manifest import load_manifest
from vocalkit.pipeline import RunConfig
from vocalkit.synth import SynthGroup, SynthSpec, generate

# The checkout root, found from this file: an installed vocalkit lives in
# site-packages, away from pyproject.toml.
_REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    spec = SynthSpec(
        n_clips_per_group=3,
        groups=(
            SynthGroup("En", planted_f0_hz=450.0, planted_am_rate_hz=4.0),
            SynthGroup("Ja", planted_f0_hz=550.0, planted_am_rate_hz=6.0),
        ),
        seed=0,
        noise_snr_db=40.0,
        n_scenes=1,
    )
    manifest_path, _ = generate(spec, root)
    return str(manifest_path)


SMALL_FLAGS = [
    "--feature-set", "mfcc13",
    "--family", "k_nearest_neighbors",
    "--folds", "3",
    "--per-class-quota", "5",
]


class TestStats:
    def test_stats_ok(self, corpus, capsys):
        assert main(["stats", "--manifest", corpus]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["kinds"]["dog_vocal"]["n_clips"] == 6

    def test_invalid_manifest_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"version": 1}\n{"id": "x", "kind": "alien"}\n')
        assert main(["stats", "--manifest", str(bad)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "alien" in err or "not resolvable" in err


class TestStages:
    def test_pipeline_subcommand(self, corpus, tmp_path):
        out = str(tmp_path / "out")
        code = main(
            ["pipeline", "--manifest", corpus, "--out", out, *SMALL_FLAGS,
             "--stages", "extract,pair,speed"]
        )
        assert code == EXIT_OK
        for name in ("features_mfcc13.csv", "pairs.csv", "speed.csv"):
            assert os.path.isfile(os.path.join(out, name))

    def test_single_stage_subcommand(self, corpus, tmp_path):
        out = str(tmp_path / "out")
        assert main(["speed", "--manifest", corpus, "--out", out]) == EXIT_OK
        assert os.path.isfile(os.path.join(out, "speed.csv"))

    def test_missing_dependency_exit_2(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["train", "--manifest", corpus, "--out", out, *SMALL_FLAGS])
        assert code == EXIT_STAGE
        assert "stage" in capsys.readouterr().err

    def test_out_env_default(self, corpus, tmp_path, monkeypatch):
        env_out = str(tmp_path / "env_out")
        monkeypatch.setenv("VOCALKIT_OUT", env_out)
        assert main(["speed", "--manifest", corpus]) == EXIT_OK
        assert os.path.isfile(os.path.join(env_out, "speed.csv"))

    def test_unreadable_ledger_reruns_every_stage(self, corpus, tmp_path):
        out = tmp_path / "out"
        argv = ["pipeline", "--manifest", corpus, "--out", str(out), *SMALL_FLAGS,
                "--stages", "segment,extract,pair,speed"]
        assert main(argv) == EXIT_OK
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        ledger = out / "ledger.json"
        ledger.write_bytes(first["ledger.json"][: len(first["ledger.json"]) // 2])
        assert main(argv) == EXIT_OK
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_manifest_validation_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"version": 7}\n')
        out = str(tmp_path / "out")
        assert main(["speed", "--manifest", str(bad), "--out", out]) == EXIT_VALIDATION
        assert "version" in capsys.readouterr().err


def _corpus_copy(corpus, tmp_path):
    copy = tmp_path / "corpus"
    shutil.copytree(os.path.dirname(corpus), copy)
    return str(copy / os.path.basename(corpus))


class TestDecodeErrors:
    @staticmethod
    def _cut_clip(corpus, tmp_path, keep, rank=0):
        """A copy of the corpus whose rank-th clip, in id order, keeps
        keep(size) bytes of its WAV."""
        manifest = _corpus_copy(corpus, tmp_path)
        clip = sorted(load_manifest(manifest).clips, key=lambda c: c.id)[rank]
        data = Path(clip.audio_path).read_bytes()
        Path(clip.audio_path).write_bytes(data[:keep(len(data))])
        return manifest, clip.id

    @pytest.fixture
    def truncated(self, corpus, tmp_path):
        """Cut off mid-header."""
        return self._cut_clip(corpus, tmp_path, lambda size: 30)

    @pytest.fixture
    def half_cut(self, corpus, tmp_path):
        """A whole header whose data chunk holds half the samples it declares."""
        return self._cut_clip(corpus, tmp_path, lambda size: size // 2)

    @staticmethod
    def _assert_stage_fails_naming_clip(cut, tmp_path, capsys, stage):
        manifest, clip_id = cut
        out = str(tmp_path / "out")
        assert main([stage, "--manifest", manifest, "--out", out]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert f"stage {stage}" in err and f"clip {clip_id} (" in err
        return err

    @pytest.mark.parametrize("stage", ["segment", "extract", "speed"])
    def test_truncated_wav_fails_the_stage_naming_the_clip(
        self, truncated, tmp_path, capsys, stage
    ):
        self._assert_stage_fails_naming_clip(truncated, tmp_path, capsys, stage)

    @pytest.mark.parametrize("stage", ["segment", "extract", "speed"])
    def test_half_cut_wav_fails_the_stage_naming_the_clip(
        self, half_cut, tmp_path, capsys, stage
    ):
        err = self._assert_stage_fails_naming_clip(half_cut, tmp_path, capsys, stage)
        assert "Reached EOF prematurely" in err

    def test_failed_segment_leaves_no_partial_segments_file(self, corpus, tmp_path, capsys):
        cut = self._cut_clip(corpus, tmp_path, lambda size: 30, rank=1)
        self._assert_stage_fails_naming_clip(cut, tmp_path, capsys, "segment")
        assert os.listdir(tmp_path / "out") == []


class TestManifestDefaults:
    @staticmethod
    def _with_defaults(corpus, tmp_path, defaults):
        manifest = _corpus_copy(corpus, tmp_path)
        lines = Path(manifest).read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["defaults"] = defaults
        lines[0] = json.dumps(header) + "\n"
        Path(manifest).write_text("".join(lines))
        return manifest

    @pytest.mark.parametrize(
        "section, values, stage, message",
        [
            ("oscillator", {"damping_ratio": 2.0}, "speed", "damping_ratio must lie in (0, 1)"),
            ("segmentation", {"silence_floor_db": 3.0}, "segment", "silence_floor_db"),
            ("oscillator", {"dampng_ratio": 0.3}, "speed", "dampng_ratio"),
            ("segmentation", {"min_gap": 0.1}, "segment", "min_gap"),
            ("oscilator", {"damping_ratio": 2.0}, "speed", "unknown section"),
        ],
    )
    def test_bad_defaults_exit_1_naming_the_section(
        self, corpus, tmp_path, capsys, section, values, stage, message
    ):
        manifest = self._with_defaults(corpus, tmp_path, {section: values})
        out = str(tmp_path / "out")
        assert main([stage, "--manifest", manifest, "--out", out]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"defaults.{section}: " in err and message in err
        assert "Traceback" not in err
        assert not os.path.exists(out)

    def test_valid_defaults_are_used(self, corpus, tmp_path):
        manifest = self._with_defaults(
            corpus, tmp_path, {"oscillator": {"damping_ratio": 0.5}}
        )
        assert main(["speed", "--manifest", manifest, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_parser_values_come_from_their_sources():
    settings = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    for command in ("extract", "pipeline"):
        args = _build_parser().parse_args([command, "--manifest", "m"])
        for name in ("seed", "cos_threshold", "prominence_cutoff", "folds", "per_class_quota"):
            assert getattr(args, name) == settings[name]
            assert type(getattr(args, name)) is type(settings[name])
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    actions = {a.dest: a for a in sub.choices["extract"]._actions}
    assert actions["feature_sets"].choices == list(FEATURE_SET_DIMS)
    assert actions["families"].choices == list(FAMILIES)


# Runs an entry point the way the script an installer generates for it does.
_LAUNCHER = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "ep = EntryPoint('vocalkit', sys.argv[1], 'console_scripts')\n"
    "sys.argv = ['vocalkit', *sys.argv[2:]]\n"
    "sys.exit(ep.load()())\n"
)


def _vocalkit_installed() -> bool:
    try:
        importlib.metadata.distribution("vocalkit")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_installed(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with open(_REPO / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "vocalkit" in scripts
    value = scripts["vocalkit"]
    ep = importlib.metadata.EntryPoint("vocalkit", value, "console_scripts")
    assert ep.load() is main

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_REPO / "src"), env.get("PYTHONPATH")) if p
    )

    def launch(*args):
        return subprocess.run(
            [sys.executable, "-c", _LAUNCHER, value, *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    result = launch("--help")
    assert result.returncode == EXIT_OK, result.stderr
    assert result.stdout.startswith("usage: vocalkit")

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"version": 1}\n{"id": "x", "kind": "alien"}\n')
    result = launch("stats", "--manifest", str(bad))
    assert result.returncode == EXIT_VALIDATION, result.stderr


@pytest.mark.skipif(
    not _vocalkit_installed(), reason="the vocalkit distribution is not installed"
)
def test_installed_console_script_on_path():
    exe = shutil.which("vocalkit")
    assert exe is not None
    eps = [
        ep for ep in importlib.metadata.distribution("vocalkit").entry_points
        if ep.group == "console_scripts" and ep.name == "vocalkit"
    ]
    assert len(eps) == 1
    assert eps[0].load() is main
    result = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=120)
    assert result.returncode == EXIT_OK, result.stderr
