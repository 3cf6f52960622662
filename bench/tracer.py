"""Span recorder that traces vocalkit's public functions from outside the package.

``install`` wraps each function listed in ``TRACED`` and rebinds the wrapper
under every name a vocalkit module looks it up by: the defining module, the
package ``__init__`` re-exports, every module that imported the name with
``from ... import`` (``vocalkit.features.gemaps.f0_contour``,
``vocalkit.explain.predict_proba``, ...) and module-level registries such as
``vocalkit.pipeline._RUNNERS``.  Methods (``Tree.predict``) are replaced on
their class.  The returned undo function restores every original, so a run
with tracing off executes the package untouched.

Spans (name, start, end, parent) are kept in memory and written out when the
run ends.  Hot leaf functions are aggregated into per-name call counts and
seconds instead of one span per call; the seconds they spend inside a span
are still subtracted from that span's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from vocalkit.classify import FAMILIES

MEASURED_STAGES = ("segment", "extract", "pair", "train", "explain", "speed")


@dataclass(frozen=True)
class Traced:
    module: str  # defining module
    attr: str  # function name, or "Class.method"
    name: str = ""  # metric prefix; defaults to "<layer>.<attr>"
    hot: bool = False  # aggregate instead of recording spans; leaf functions only
    per_clip: bool = False  # called once per clip: also report p50/p90 duration
    family_arg: int | None = None  # positional index of a classifier family argument
    count: Callable | None = None  # (args, kwargs, result) -> {counter: increment}

    @property
    def metric(self) -> str:
        return self.name or f"{self.module.removeprefix('vocalkit.')}.{self.attr}"

    def span_names(self) -> list[str]:
        if self.family_arg is None:
            return [self.metric]
        return [f"{self.metric}.{family}" for family in FAMILIES]


def _counter(name: str, fn: Callable) -> Callable:
    return lambda args, kwargs, result: {name: fn(args, kwargs, result)}


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


def _voicing(args, kwargs, result) -> dict:
    return {
        "features.pitch.voiced_frames": int(result.voicing.sum()),
        "features.pitch.frames": len(result.voicing),
    }


TRACED = (
    Traced("vocalkit.audio", "load_audio"),
    Traced("vocalkit.audio", "resample", per_clip=True),
    Traced("vocalkit.audio", "power_spectrogram"),
    Traced("vocalkit.audio", "amplitude_envelope"),
    Traced("vocalkit.features.spectral", "mel_filterbank", per_clip=True),
    Traced("vocalkit.features.spectral", "mfcc", per_clip=True),
    Traced("vocalkit.features.spectral", "plp", per_clip=True),
    Traced("vocalkit.features.pitch", "f0_contour", per_clip=True, count=_voicing),
    Traced("vocalkit.features.pitch", "loudness_contour"),
    Traced("vocalkit.features.gemaps", "gemaps_lite", per_clip=True),
    Traced("vocalkit.features.store", "write_feature_csv"),
    Traced("vocalkit.features.store", "read_feature_csv"),
    Traced(
        "vocalkit.segmentation", "extract_words", per_clip=True,
        count=_counter("segmentation.words", lambda a, k, r: len(r)),
    ),
    Traced(
        "vocalkit.segmentation", "filter_noisy",
        count=_counter(
            "segmentation.sentences_dropped",
            lambda a, k, r: len(_arg(a, k, 0, "sentences")) - len(r),
        ),
    ),
    Traced("vocalkit.syllables", "detect_syllables", per_clip=True),
    Traced("vocalkit.manifest", "load_manifest"),
    # run_stages minus its traced children is the ledger: hashing, dependency
    # checks and ledger I/O.
    Traced(
        "vocalkit.pipeline", "run_stages", name="pipeline.ledger",
        count=_counter(
            "pipeline.stages_requested",
            lambda a, k, r: len(_arg(a, k, 1, "stages") or ()),
        ),
    ),
    *(Traced("vocalkit.pipeline", f"run_{stage}") for stage in MEASURED_STAGES),
    Traced(
        "vocalkit.pairing", "build_pairs",
        count=_counter("pairing.pairs", lambda a, k, r: len(r)),
    ),
    Traced("vocalkit.pairing", "pair_dataset"),
    Traced(
        "vocalkit.classify.trees", "grow_newton_tree", hot=True,
        count=_counter("classify.trees.grow_newton_tree.nodes", lambda a, k, r: len(r.feature)),
    ),
    Traced(
        "vocalkit.classify.trees", "grow_gini_tree", hot=True,
        count=_counter("classify.trees.grow_gini_tree.nodes", lambda a, k, r: len(r.feature)),
    ),
    Traced(
        "vocalkit.classify.trees", "Tree.predict", hot=True,
        count=_counter("classify.trees.Tree.predict.rows", lambda a, k, r: len(r)),
    ),
    Traced("vocalkit.classify.models", "train", family_arg=0),
    Traced(
        "vocalkit.classify.models", "predict_proba",
        count=_counter("classify.models.predict_proba.rows", lambda a, k, r: len(r)),
    ),
    Traced("vocalkit.classify.cv", "cross_validate", family_arg=2),
    Traced(
        "vocalkit.classify.cv", "accuracy_grid",
        count=_counter(
            "classify.cv.errored_cells", lambda a, k, r: sum(1 for c in r.values() if c.error)
        ),
    ),
    Traced("vocalkit.explain", "shapley_values"),
    Traced("vocalkit.explain", "mean_abs_shap"),
    Traced("vocalkit.explain", "correlate_pairs"),
    Traced("vocalkit.synth", "generate"),
)


class Recorder:
    """In-memory spans plus aggregated hot calls and counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.hot = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.hot_inside = defaultdict(float)  # span index -> seconds of hot calls in it
        self.counters = Counter()
        self._open: list[int] = []

    def call(self, name: str, hot: bool, fn, args, kwargs):
        start = time.perf_counter()
        if hot:
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                entry = self.hot[name]
                entry[0] += 1
                entry[1] += seconds
                if self._open:
                    self.hot_inside[self._open[-1]] += seconds
        index = len(self.spans)
        self.spans.append([name, start, None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def stats(self) -> dict:
        """name -> {"calls", "self_s", "durations_s"}; self = span minus traced children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations_s": []})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i] - self.hot_inside[i]
            entry["durations_s"].append(end - start)
        for name, (calls, seconds) in self.hot.items():
            out[name] = {"calls": calls, "self_s": seconds, "durations_s": []}
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")
            for name, (calls, seconds) in sorted(self.hot.items()):
                fh.write(json.dumps(
                    {"name": name, "calls": calls, "total_s": seconds, "aggregated": True}
                ) + "\n")


def _wrapper(rec: Recorder, t: Traced, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = t.metric
        if t.family_arg is not None:
            name = f"{name}.{_arg(args, kwargs, t.family_arg, 'family')}"
        result = rec.call(name, t.hot, fn, args, kwargs)
        if t.count is not None:
            rec.counters.update(t.count(args, kwargs, result))
        return result

    return traced


def install(rec: Recorder, traced=TRACED) -> Callable[[], None]:
    """Wrap every function in ``traced``; returns a function that undoes it."""
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "vocalkit" or name.startswith("vocalkit."))
    ]
    undo = []
    for t in traced:
        owner = sys.modules[t.module]
        if "." in t.attr:
            cls_name, meth = t.attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _wrapper(rec, t, original))
            undo.append((setattr, cls, meth, original))
            continue
        original = getattr(owner, t.attr)
        wrapped = _wrapper(rec, t, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((setattr, module, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped
                            undo.append((dict.__setitem__, value, k, original))

    def uninstall():
        for setter, target, key, original in reversed(undo):
            setter(target, key, original)

    return uninstall


def layer_metrics(rec: Recorder, traced=TRACED) -> dict:
    """Per-function calls/self_s (and p50/p90 for per-clip functions) plus counters."""
    stats = rec.stats()
    out = {}
    for t in traced:
        for name in t.span_names():
            entry = stats.get(name, {"calls": 0, "self_s": 0.0, "durations_s": []})
            out[f"{name}.calls"] = (entry["calls"], "count")
            out[f"{name}.self_s"] = (entry["self_s"], "s")
            if t.per_clip:
                p50, p90 = (
                    np.percentile(entry["durations_s"], [50, 90]) * 1e3
                    if entry["durations_s"] else (0.0, 0.0)
                )
                out[f"{name}.p50_ms"] = (float(p50), "ms")
                out[f"{name}.p90_ms"] = (float(p90), "ms")
    c = rec.counters
    stages_run = sum(stats.get(f"pipeline.run_{s}", {"calls": 0})["calls"] for s in MEASURED_STAGES)
    out["features.pitch.voiced_frac"] = (
        c["features.pitch.voiced_frames"] / max(c["features.pitch.frames"], 1), "ratio"
    )
    for name in (
        "segmentation.words",
        "segmentation.sentences_dropped",
        "pairing.pairs",
        "classify.trees.grow_newton_tree.nodes",
        "classify.trees.grow_gini_tree.nodes",
        "classify.trees.Tree.predict.rows",
        "classify.models.predict_proba.rows",
        "classify.cv.errored_cells",
    ):
        out[name] = (c[name], "count")
    out["pipeline.stages_run"] = (stages_run, "count")
    out["pipeline.stages_skipped"] = (c["pipeline.stages_requested"] - stages_run, "count")
    return out


def self_time_total(rec: Recorder) -> tuple[float, float]:
    """Self seconds of the measured pass: (all spans, the part outside the
    pipeline.run_* stage bodies).  Corpus synthesis (synth.*) is set-up."""
    total = attributed = 0.0
    for name, entry in rec.stats().items():
        if name.startswith("synth."):
            continue
        total += entry["self_s"]
        if not name.startswith("pipeline.run_"):
            attributed += entry["self_s"]
    return total, attributed
