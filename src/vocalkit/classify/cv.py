"""Cross-validation harness and the feature-set x family accuracy grid.

Every (feature set, family, fold) fit of the grid is independent and seeded,
so ``accuracy_grid`` maps them over ``vocalkit.workers``' fork pool, one
worker per CPU in this process's affinity mask (``taskset -c 0`` runs the
grid in-process).  The workers inherit the datasets through the fork; only
each fit's task and predictions are pickled.  The grid is the same, byte
for byte, however many workers ran it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..artifacts import write_csv, write_json
from ..workers import map_tasks
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


@dataclass(frozen=True)
class _Split:
    """One dataset with its fold assignment."""

    X: np.ndarray
    y: np.ndarray
    n_classes: int
    assign: np.ndarray
    stratified: bool


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


def _split(X, y, folds: int, seed: int) -> _Split:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    n_classes = int(y.max()) + 1
    assign, stratified = make_folds(y, folds, seed)
    return _Split(X, y, n_classes, assign, stratified)


def _fit_fold(split: _Split, fold: int, family: str, hyper, seed: int) -> np.ndarray:
    """Train on every other fold; the predicted class of each row of ``fold``."""
    test = split.assign == fold
    model = train(family, split.X[~test], split.y[~test], hyper=hyper, seed=seed,
                  n_classes=split.n_classes)
    return predict(model, split.X[test])


def _report(split: _Split, preds: list, feature_set: str, family: str) -> CVReport:
    """Per-fold accuracy and pooled confusion from each fold's predictions."""
    fold_acc = []
    confusion = np.zeros((split.n_classes, split.n_classes), dtype=np.int64)
    for fold, pred in enumerate(preds):
        truth = split.y[split.assign == fold]
        fold_acc.append(float(np.mean(pred == truth)))
        np.add.at(confusion, (truth, pred), 1)
    return CVReport(
        feature_set=feature_set,
        family=family,
        fold_accuracies=fold_acc,
        mean_accuracy=float(np.mean(fold_acc)),
        confusion=confusion,
        stratified=split.stratified,
    )


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
    split = _split(X, y, folds, seed)
    preds = [_fit_fold(split, fold, family, hyper, seed) for fold in range(folds)]
    return _report(split, preds, feature_set, family)


def _grid_task(splits: dict, task: tuple) -> tuple:
    """One fold of one grid cell: (predictions, None) or (None, error message)."""
    set_id, family, hyper, fold, seed = task
    try:
        return _fit_fold(splits[set_id], fold, family, hyper, seed), None
    except Exception as exc:
        return None, str(exc)


def _error_report(feature_set: str, family: str, error: str) -> CVReport:
    return CVReport(
        feature_set=feature_set,
        family=family,
        fold_accuracies=[],
        mean_accuracy=float("nan"),
        confusion=np.zeros((0, 0), dtype=np.int64),
        error=error,
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
    report's error field instead of aborting the grid: a dataset that cannot
    be split into folds fails all its cells, and a cell takes the error of
    its first failing fold.
    """
    hyper_by_family = hyper_by_family or {}
    splits, split_errors = {}, {}
    for set_id, (X, y) in datasets.items():
        try:
            splits[set_id] = _split(X, y, folds, seed)
        except Exception as exc:
            split_errors[set_id] = str(exc)
    tasks = [
        (set_id, family, hyper_by_family.get(family), fold, seed)
        for set_id in splits for family in families for fold in range(folds)
    ]
    outcomes = iter(map_tasks(_grid_task, splits, tasks))
    grid = {}
    for set_id in datasets:
        for family in families:
            if set_id in split_errors:
                grid[(set_id, family)] = _error_report(set_id, family, split_errors[set_id])
                continue
            cell = [next(outcomes) for _ in range(folds)]
            failed = [error for pred, error in cell if pred is None]
            grid[(set_id, family)] = (
                _error_report(set_id, family, failed[0]) if failed
                else _report(splits[set_id], [pred for pred, _ in cell], set_id, family)
            )
    return grid


def write_grid_csv(path, grid: dict, feature_sets: list, families: list) -> None:
    """Emit the accuracy grid as CSV: rows = feature sets, columns = families.

    Cells show mean accuracy to 4 decimals; failed cells are marked ERR.
    """
    def cell(report):
        return "ERR" if report is None or report.error else f"{report.mean_accuracy:.4f}"

    write_csv(
        path,
        ["feature_set", *families],
        ([set_id, *(cell(grid.get((set_id, f))) for f in families)] for set_id in feature_sets),
    )


def write_cv_reports(path, grid: dict) -> None:
    """Every cell's report as JSON keyed "<feature set>/<family>", rounded to
    6 decimals."""
    reports = {}
    for (set_id, family), rep in grid.items():
        reports[f"{set_id}/{family}"] = {
            "fold_accuracies": [round(a, 6) for a in rep.fold_accuracies],
            "mean_accuracy": None if np.isnan(rep.mean_accuracy) else round(rep.mean_accuracy, 6),
            "confusion": rep.confusion.tolist(),
            "stratified": rep.stratified,
            "error": rep.error,
        }
    write_json(path, reports)
