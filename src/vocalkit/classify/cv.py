"""Cross-validation harness and the feature-set x family accuracy grid."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .models import ClassifyError, predict, train


@dataclass
class CVReport:
    feature_set: str
    family: str
    fold_accuracies: list
    mean_accuracy: float
    confusion: np.ndarray  # (K, K) counts, rows = true class
    stratified: bool = True
    error: str = ""


def make_folds(y: np.ndarray, folds: int, seed: int):
    """Seeded stratified fold assignment; unstratified fallback when a class
    has fewer members than folds.

    Returns (assignment array, stratified flag).  Folds are disjoint and
    exhaustive by construction.
    """
    n = len(y)
    if n < folds:
        raise ClassifyError(f"n={n} smaller than folds={folds}")
    rng = np.random.default_rng(seed)
    assign = np.empty(n, dtype=np.int64)
    stratified = all(np.sum(y == c) >= folds for c in np.unique(y))
    if stratified:
        offset = 0
        for c in np.unique(y):
            idx = np.where(y == c)[0]
            rng.shuffle(idx)
            for pos, i in enumerate(idx):
                assign[i] = (pos + offset) % folds
            offset += len(idx)
    else:
        idx = rng.permutation(n)
        for pos, i in enumerate(idx):
            assign[i] = pos % folds
    return assign, stratified


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    family: str,
    hyper: dict | None = None,
    folds: int = 5,
    seed: int = 0,
    feature_set: str = "",
) -> CVReport:
    """Seeded k-fold cross-validation; per-fold accuracy and pooled confusion."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    n_classes = int(y.max()) + 1
    assign, stratified = make_folds(y, folds, seed)
    fold_acc = []
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for f in range(folds):
        test = assign == f
        model = train(family, X[~test], y[~test], hyper=hyper, seed=seed,
                      n_classes=n_classes)
        pred = predict(model, X[test])
        fold_acc.append(float(np.mean(pred == y[test])))
        for t, p in zip(y[test], pred):
            confusion[t, p] += 1
    return CVReport(
        feature_set=feature_set,
        family=family,
        fold_accuracies=fold_acc,
        mean_accuracy=float(np.mean(fold_acc)),
        confusion=confusion,
        stratified=stratified,
    )


def accuracy_grid(
    datasets: dict,
    families: list,
    folds: int = 5,
    seed: int = 0,
    hyper_by_family: dict | None = None,
) -> dict:
    """Full cross-product of feature sets and families.

    datasets maps set_id -> (X, y).  Per-cell failures are recorded in the
    report's error field instead of aborting the grid.
    """
    grid = {}
    for set_id, (X, y) in datasets.items():
        for family in families:
            hyper = (hyper_by_family or {}).get(family)
            try:
                report = cross_validate(
                    X, y, family, hyper=hyper, folds=folds, seed=seed,
                    feature_set=set_id,
                )
            except Exception as exc:
                report = CVReport(
                    feature_set=set_id,
                    family=family,
                    fold_accuracies=[],
                    mean_accuracy=float("nan"),
                    confusion=np.zeros((0, 0), dtype=np.int64),
                    error=str(exc),
                )
            grid[(set_id, family)] = report
    return grid


def write_grid_csv(path, grid: dict, feature_sets: list, families: list) -> None:
    """Emit the accuracy grid as CSV: rows = feature sets, columns = families.

    Cells show mean accuracy to 4 decimals; failed cells are marked ERR.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature_set", *families])
        for set_id in feature_sets:
            row = [set_id]
            for family in families:
                report = grid.get((set_id, family))
                if report is None or report.error:
                    row.append("ERR")
                else:
                    row.append(f"{report.mean_accuracy:.4f}")
            writer.writerow(row)
