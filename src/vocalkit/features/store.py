"""CSV feature store: one file per feature set, one row per clip id."""

from __future__ import annotations

import csv

import numpy as np

from ..artifacts import write_csv
from .vector import FEATURE_SET_DIMS, FeatureError, FeatureVector


def write_feature_csv(path, vectors: list[FeatureVector]) -> None:
    """Write vectors (all of one set) with a deterministic column and row order."""
    if not vectors:
        raise FeatureError("nothing to write")
    set_id = vectors[0].set_id
    names = vectors[0].names
    for v in vectors:
        if v.set_id != set_id or v.names != names:
            raise FeatureError(f"mixed feature sets in store: {set_id} vs {v.set_id}")
    ordered = sorted(vectors, key=lambda v: v.clip_id)
    rows = ([v.clip_id, *(repr(float(x)) for x in v.values)] for v in ordered)
    write_csv(path, ["clip_id", *names], rows)


def read_feature_csv(path, set_id: str) -> dict[str, FeatureVector]:
    """Load a feature CSV back into {clip_id: FeatureVector}."""
    if set_id not in FEATURE_SET_DIMS:
        raise FeatureError(f"unknown feature set {set_id!r}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[0] != "clip_id":
            raise FeatureError(f"bad feature CSV header in {path}")
        names = tuple(header[1:])
        out = {}
        for row in reader:
            clip_id = row[0]
            values = np.array([float(x) for x in row[1:]])
            out[clip_id] = FeatureVector(set_id, names, values, clip_id)
    return out
