"""Command-line interface.

Exit codes: 0 success, 1 manifest validation failure, 2 stage failure.
The default output directory can be set via the VOCALKIT_OUT environment
variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .classify import FAMILIES
from .features import FEATURE_SET_DIMS
from .manifest import ManifestError, corpus_stats, load_manifest
from .pipeline import STAGES, RunConfig, StageError, run_stages

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_STAGE = 2

OUT_ENV_VAR = "VOCALKIT_OUT"

# RunConfig settings given as one flag each, defaulting to the field default
_SCALAR_SETTINGS = ("seed", "cos_threshold", "prominence_cutoff", "folds", "per_class_quota")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vocalkit",
        description="Manifest-driven vocalization analysis pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = {f.name: f.default for f in fields(RunConfig)}

    def add_common(p):
        p.add_argument("--manifest", required=True, help="manifest JSON-lines file")
        p.add_argument(
            "--out",
            default=os.environ.get(OUT_ENV_VAR, "out"),
            help=f"output directory (default: ${OUT_ENV_VAR} or ./out)",
        )
        p.add_argument(
            "--feature-set",
            action="append",
            dest="feature_sets",
            choices=list(FEATURE_SET_DIMS),
            help="repeatable; defaults to all four sets",
        )
        p.add_argument(
            "--family",
            action="append",
            dest="families",
            choices=list(FAMILIES),
            help="repeatable; defaults to all four families",
        )
        for name in _SCALAR_SETTINGS:
            default = defaults[name]
            p.add_argument(f"--{name.replace('_', '-')}", type=type(default), default=default)

    stats = sub.add_parser("stats", help="corpus statistics report")
    stats.add_argument("--manifest", required=True)

    for stage in STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        add_common(p)

    pipe = sub.add_parser("pipeline", help="run stages in dependency order")
    add_common(pipe)
    pipe.add_argument(
        "--stages",
        default=",".join(STAGES),
        help="comma-separated ordered subset of stages",
    )
    return parser


def _run_config(args) -> RunConfig:
    kwargs = {name: getattr(args, name) for name in _SCALAR_SETTINGS}
    if args.feature_sets:
        kwargs["feature_sets"] = tuple(args.feature_sets)
    if args.families:
        kwargs["families"] = tuple(args.families)
    return RunConfig(manifest_path=args.manifest, out_dir=args.out, **kwargs)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "stats":
            stats = corpus_stats(load_manifest(args.manifest))
            print(json.dumps(stats, indent=1, sort_keys=True))
            return EXIT_OK
        cfg = _run_config(args)
        if args.command == "pipeline":
            stages = [s for s in args.stages.split(",") if s]
        else:
            stages = [args.command]
        run_stages(cfg, stages)
        return EXIT_OK
    except ManifestError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return EXIT_VALIDATION
    except StageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
