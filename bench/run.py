"""Seeded benchmark of vocalkit's staged pipeline.

Run from the repository root:

    python3 bench/run.py --workload frontend_16k --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --self-check

A run synthesizes a corpus from ``--seed`` with ``vocalkit.synth.generate``,
sets up (synthesis plus the stages the workload does not measure) three
times, then, through ``vocalkit.pipeline.run_stages``, alternates fresh runs of
the measured stages (each followed by no-op re-runs) and re-runs after an
unrelated config change for ``--seconds`` (at least two of each), checking the
outputs of each.  ``--trace 0`` reports the end-to-end metrics, with tracing off.
``--trace 1`` sets up once, alternates two untraced and two traced passes,
and reports per-layer metrics; ``--seconds`` does not apply.  The last line
of standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 1 when a check failed.  The run record,
metrics and output digests are also written to
``.bench_out/``, and the traced run's spans next to them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
SETUPS = 3  # set-ups per timed run; setup_s is their median
MIN_SAMPLES = 2  # fresh and reconfigured runs per timed run, at least
TRACED_PASSES = 2  # per-clip functions get at least 100 calls on the frontend workloads
COVERAGE_MIN = 0.8  # share of the traced passes that named layers must account for
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# The matrices here are small: a second OpenBLAS thread saves about 5% of
# wall time on an idle 2-core machine, doubles cpu_s by spinning, and makes
# wall time swing by 2x when another process holds the other core.
BLAS_THREADS = 1


def _pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "vocalkit", "__init__.py")):
        sys.exit(f"bench: no vocalkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import vocalkit

    if not os.path.abspath(vocalkit.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported vocalkit from {vocalkit.__file__}, not {SRC}")


_pin_blas_threads()
_import_program()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
from vocalkit import manifest  # noqa: E402


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "vocalkit"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src.update(name.encode() + fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _pass_total(p: workloads.Pass) -> float:
    return p.wall_s + sum(p.rerun_s) + p.reconfig_s


def _rates(w: workloads.Workload, cfg, wall_s: float) -> dict:
    """Throughput of the measured stages, with its base."""
    records = manifest.load_manifest(cfg.manifest_path).clips
    if "speed" in w.stages:
        return {"clips_per_s": (len(records) / wall_s, f"{len(records)} clips")}
    if "train" in w.stages:
        fits = len(cfg.feature_sets) * len(cfg.families) * cfg.folds
        return {"fits_per_s": (fits / wall_s, f"{fits} CV fits")}
    dogs = sum(1 for r in records if r.kind == "dog_vocal")
    rows = min(100, dogs)  # run_explain's sample size
    return {"shap_rows_per_s": (rows / wall_s, f"{rows} rows")}


def timed_run(w, seed: int, seconds: float, work: str, tally: workloads.Tally):
    setup_s = []
    for i in range(SETUPS):
        start = time.perf_counter()
        prepared = workloads.set_up(w, seed, os.path.join(work, f"setup{i}"))
        setup_s.append(time.perf_counter() - start)
    # Fresh runs and reconfigured re-runs alternate until --seconds is up, one
    # at a time, so that the heavy workloads get a sample of each as often as
    # the time allows.  Past MIN_SAMPLES of each, a run of either kind is
    # skipped when, taking as long as the last one, it would end more than
    # half of itself past the deadline.
    passes = []
    deadline = time.perf_counter() + seconds

    def over(began: float) -> bool:
        now = time.perf_counter()
        return now + 0.5 * (now - began) > deadline

    while True:
        began = time.perf_counter()
        out_dir = os.path.join(work, f"pass{len(passes)}")
        passes.append(workloads.fresh_run(w, prepared, out_dir, seed, tally))
        if len(passes) > MIN_SAMPLES and over(began):
            break
        began = time.perf_counter()
        workloads.reconfigure(w, passes[-1], tally)
        if len(passes) >= MIN_SAMPLES and over(began):
            break
    reconfig_s = [p.reconfig_s for p in passes if p.reconfig_s is not None]
    for p in passes[1:]:
        tally.check(p.digests == passes[0].digests, "outputs differ between passes")
    cfg = passes[0].cfg
    if "explain" in w.stages:
        workloads.efficiency_residual(cfg, tally)
    wall_s = statistics.median(p.wall_s for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "rerun_s": (statistics.median(t for p in passes for t in p.rerun_s), "s"),
        "reconfig_s": (statistics.median(reconfig_s), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    info = {
        "samples": {
            "setup_s": len(setup_s),
            "wall_s": len(passes),
            "cpu_s": len(passes),
            "rerun_s": sum(len(p.rerun_s) for p in passes),
            "reconfig_s": len(reconfig_s),
        },
        "rates": _rates(w, cfg, wall_s),
    }
    return metrics, info, passes[0].digests


def traced_run(w, seed: int, work: str, tally: workloads.Tally, spans_path: str):
    rec = tracer.Recorder()
    setup_traced = [t for t in tracer.TRACED if t.module == "vocalkit.synth"]
    measured_traced = [t for t in tracer.TRACED if t.module != "vocalkit.synth"]
    uninstall = tracer.install(rec, setup_traced)
    try:
        prepared = workloads.set_up(w, seed, os.path.join(work, "setup"))
    finally:
        uninstall()
    plain, traced = [], []
    for i in range(TRACED_PASSES):  # alternate, so drift in machine speed hits both
        out_dir = os.path.join(work, f"pass{i}")
        plain.append(workloads.measured_pass(w, prepared, out_dir, seed, tally))
        uninstall = tracer.install(rec, measured_traced)
        try:
            traced.append(workloads.measured_pass(w, prepared, out_dir + "t", seed, tally))
        finally:
            uninstall()
    for p in plain + traced:
        tally.check(p.digests == plain[0].digests, "outputs differ between passes")
    residual = 0.0
    if "explain" in w.stages:
        residual = workloads.efficiency_residual(
            workloads.config(w, prepared, os.path.join(work, "pass0"), seed), tally
        )
    traced_wall = sum(_pass_total(p) for p in traced)
    total, attributed = tracer.self_time_total(rec)
    tally.check(
        total <= traced_wall,
        f"self times sum to {total:.3f}s, more than the traced passes' {traced_wall:.3f}s",
    )
    tally.check(
        attributed >= COVERAGE_MIN * traced_wall,
        f"named layers cover {attributed:.3f}s of the traced passes' {traced_wall:.3f}s",
    )
    rec.write(spans_path)
    metrics = tracer.layer_metrics(rec)
    metrics["explain.efficiency_residual"] = (residual, "prob")
    plain_wall = sum(_pass_total(p) for p in plain)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    info = {"traced_s": traced_wall, "self_s_total": total, "self_s_in_layers": attributed}
    return metrics, info, plain[0].digests


def run(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    w = workloads.WORKLOADS[name]
    if smoke:
        w = workloads.smoke(w)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}")
    work = os.path.join(WORK, f"{name}-seed{seed}-{os.getpid()}")
    tally = workloads.Tally()
    try:
        if trace:
            metrics, info, digests = traced_run(w, seed, work, tally, stem + ".spans.jsonl")
        else:
            metrics, info, digests = timed_run(w, seed, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "record": run_record(name, seed, seconds, trace),
        "failed_frac": f"{tally.failed}/{tally.attempted}",
        "failures": tally.messages,
        "info": info,
        "output_sha256": digests,
        "result": result,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
        [w["name"] for w in bench["workloads"]],
    )


def self_check() -> int:
    """Smoke-size timed and traced run of every workload: each declared metric
    is emitted with its declared unit, and every check passes."""
    end_to_end, per_layer, names = _declared()
    problems = []
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    for name in names:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            record = run(name, seed=0, seconds=0, trace=trace, smoke=True)
            result = record["result"]
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            if emitted != declared:
                missing = sorted(set(declared) - set(emitted))
                extra = sorted(set(emitted) - set(declared))
                wrong = sorted(k for k in declared if k in emitted and emitted[k] != declared[k])
                problems.append(
                    f"{name} trace={trace}: missing {missing}, undeclared {extra}, "
                    f"wrong unit {wrong}"
                )
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {record['failures']}")
            print(f"{name} trace={trace}: {len(emitted)} metrics, "
                  f"failed {record['failed_frac']}", flush=True)
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="smoke-size run of every workload; checks the emitted metrics")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    record = run(args.workload, args.seed, args.seconds, args.trace)
    print("# record " + json.dumps(record["record"], sort_keys=True))
    print("# info " + json.dumps(record["info"], sort_keys=True))
    print(f"# failed_frac {record['failed_frac']} (failed / attempted operations)")
    for name, digest in record["output_sha256"].items():
        print(f"# sha256 {digest}  {name}")
    for message in record["failures"]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
