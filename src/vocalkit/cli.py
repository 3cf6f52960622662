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

from .manifest import ManifestError
from .pipeline import STAGES, RunConfig, StageError, run_stages, stats_report

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_STAGE = 2

OUT_ENV_VAR = "VOCALKIT_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vocalkit",
        description="Manifest-driven vocalization analysis pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_out=True):
        p.add_argument("--manifest", required=True, help="manifest JSON-lines file")
        if need_out:
            p.add_argument(
                "--out",
                default=os.environ.get(OUT_ENV_VAR, "out"),
                help=f"output directory (default: ${OUT_ENV_VAR} or ./out)",
            )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--feature-set",
            action="append",
            dest="feature_sets",
            choices=["filterbank24", "mfcc13", "plp13", "gemaps_lite"],
            help="repeatable; defaults to all four sets",
        )
        p.add_argument(
            "--family",
            action="append",
            dest="families",
            choices=[
                "gradient_boosted_trees",
                "k_nearest_neighbors",
                "logistic_regression",
                "random_forest",
            ],
            help="repeatable; defaults to all four families",
        )
        p.add_argument("--cos-threshold", type=float, default=0.95)
        p.add_argument("--prominence-cutoff", type=float, default=0.04)
        p.add_argument("--folds", type=int, default=5)
        p.add_argument("--per-class-quota", type=int, default=500)

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
    kwargs = {}
    if args.feature_sets:
        kwargs["feature_sets"] = tuple(args.feature_sets)
    if args.families:
        kwargs["families"] = tuple(args.families)
    return RunConfig(
        manifest_path=args.manifest,
        out_dir=args.out,
        seed=args.seed,
        cos_threshold=args.cos_threshold,
        prominence_cutoff=args.prominence_cutoff,
        folds=args.folds,
        per_class_quota=args.per_class_quota,
        **kwargs,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "stats":
            print(json.dumps(stats_report(args.manifest), indent=1, sort_keys=True))
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
