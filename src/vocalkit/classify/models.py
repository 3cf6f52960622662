"""The four classifier families behind one train/predict contract.

All families are deterministic given (data, hyperparameters, seed) and
predict a probability vector per row.  Features are z-scored (statistics from
the training data only) for the distance- and margin-based families; the tree
ensembles consume raw values.  Argmax ties resolve to the lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import Tree, grow_gini_tree, grow_newton_tree, sort_columns

FAMILIES = (
    "gradient_boosted_trees",
    "k_nearest_neighbors",
    "logistic_regression",
    "random_forest",
)

DEFAULT_HYPER = {
    "gradient_boosted_trees": {
        "n_rounds": 200,
        "max_depth": 4,
        "learning_rate": 0.1,
        "reg_lambda": 1.0,
    },
    "k_nearest_neighbors": {"k": 5},
    "logistic_regression": {"l2": 1e-3, "tol": 1e-7, "max_iter": 5000},
    "random_forest": {"n_trees": 200, "max_depth": 16},
}


class ClassifyError(Exception):
    pass


@dataclass
class TrainedModel:
    family: str
    params: dict
    hyper: dict
    seed: int
    n_classes: int
    feature_dim: int
    scaler: tuple | None = None  # (mean, std) for standardized families


def _softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _standardize_fit(X: np.ndarray):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def _train_gbt(X, y, hyper, seed, n_classes):
    n = len(y)
    onehot = np.eye(n_classes)[y]
    scores = np.zeros((n, n_classes))
    order = sort_columns(X)
    leaf_values = np.empty(n)
    trees: list[list[Tree]] = []
    for _ in range(hyper["n_rounds"]):
        p = _softmax(scores)
        round_trees = []
        for k in range(n_classes):
            g = p[:, k] - onehot[:, k]
            h = np.maximum(p[:, k] * (1.0 - p[:, k]), 1e-12)
            tree = grow_newton_tree(
                X, g, h, max_depth=hyper["max_depth"], lam=hyper["reg_lambda"],
                order=order, out=leaf_values,
            )
            scores[:, k] += hyper["learning_rate"] * leaf_values
            round_trees.append(tree)
        trees.append(round_trees)
    return {"trees": trees}


def boosted_proba(model: TrainedModel, n_rows: int, leaves) -> np.ndarray:
    """Class probabilities of n_rows rows from a boosted model.

    ``leaves(tree)`` is (values, index): the leaf values of the rows the
    tree routes, and which of them each of the n_rows rows is (None: the
    rows themselves).  Trees add ``learning_rate * leaf`` to the scores in
    boosting order, so the probabilities do not depend on how ``leaves``
    routes the rows.
    """
    scores = np.zeros((model.n_classes, n_rows))  # class-major: each add is contiguous
    lr = model.hyper["learning_rate"]
    for round_trees in model.params["trees"]:
        for k, tree in enumerate(round_trees):
            values, index = leaves(tree)
            step = lr * values
            scores[k] += step if index is None else step.take(index)
    return _softmax(np.ascontiguousarray(scores.T))


def _predict_gbt(model: TrainedModel, X):
    return boosted_proba(model, len(X), lambda tree: (tree.predict(X), None))


def lr_loss_grad(W, X1, onehot, l2):
    """Loss and gradient of L2-penalized multinomial logistic regression.

    W has shape (d+1, K); the last row is the unpenalized bias.
    """
    n = len(X1)
    scores = X1 @ W
    p = _softmax(scores)
    loss = -np.mean(
        np.log(np.maximum(p[onehot.astype(bool)], 1e-300))
    ) + 0.5 * l2 * np.sum(W[:-1] ** 2)
    grad = X1.T @ (p - onehot) / n
    grad[:-1] += l2 * W[:-1]
    return loss, grad


def _train_lr(X, y, hyper, seed, n_classes):
    X1 = np.concatenate([X, np.ones((len(X), 1))], axis=1)
    onehot = np.eye(n_classes)[y]
    W = np.zeros((X1.shape[1], n_classes))
    step = 1.0
    loss, grad = lr_loss_grad(W, X1, onehot, hyper["l2"])
    for it in range(hyper["max_iter"]):
        if np.max(np.abs(grad)) < hyper["tol"]:
            break
        # backtracking line search on the full-batch gradient step
        while step > 1e-12:
            W_new = W - step * grad
            loss_new, grad_new = lr_loss_grad(W_new, X1, onehot, hyper["l2"])
            if loss_new <= loss - 0.5 * step * np.sum(grad ** 2):
                break
            step *= 0.5
        W, loss, grad = W_new, loss_new, grad_new
        step *= 1.3  # let the step recover between iterations
    return {"weights": W, "final_loss": loss, "iterations": it + 1}


def _predict_lr(model: TrainedModel, X):
    X1 = np.concatenate([X, np.ones((len(X), 1))], axis=1)
    return _softmax(X1 @ model.params["weights"])


def _train_rf(X, y, hyper, seed, n_classes):
    rng = np.random.default_rng(seed)
    d = X.shape[1]
    max_features = max(1, int(round(np.sqrt(d))))
    trees = []
    for _ in range(hyper["n_trees"]):
        boot = rng.integers(0, len(y), size=len(y))
        tree = grow_gini_tree(
            X[boot],
            y[boot],
            n_classes,
            rng,
            max_depth=hyper["max_depth"],
            max_features=max_features,
        )
        trees.append(tree)
    return {"trees": trees}


def _predict_rf(model: TrainedModel, X):
    votes = np.zeros((len(X), model.n_classes))
    for tree in model.params["trees"]:
        counts = tree.predict(X)
        votes[np.arange(len(X)), np.argmax(counts, axis=1)] += 1.0
    return votes / len(model.params["trees"])


_KNN_CHUNK_ELEMS = 1 << 16  # bounds the (chunk, n_train, d) difference array to 512 KiB


def _predict_knn(model: TrainedModel, X):
    train_X = model.params["X"]
    train_y = model.params["y"]
    k = model.hyper["k"]
    chunk = max(1, _KNN_CHUNK_ELEMS // max(train_X.size, 1))
    probs = np.zeros((len(X), model.n_classes))
    for start in range(0, len(X), chunk):
        diff = train_X - X[start:start + chunk, None, :]
        dist = np.sqrt(np.square(diff, out=diff).sum(axis=2))
        # stable sort: equal distances resolve to the lower training index
        neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]
        counts = (train_y[neighbors][:, :, None] == np.arange(model.n_classes)).sum(axis=1)
        probs[start:start + chunk] = counts / k
    return probs


def train(
    family: str,
    X: np.ndarray,
    y: np.ndarray,
    hyper: dict | None = None,
    seed: int = 0,
    n_classes: int | None = None,
) -> TrainedModel:
    """Fit one classifier family on a design matrix with integer labels."""
    if family not in FAMILIES:
        raise ClassifyError(f"unknown family {family!r}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if len(X) != len(y) or len(y) == 0:
        raise ClassifyError("X and y must be non-empty and aligned")
    merged = dict(DEFAULT_HYPER[family])
    merged.update(hyper or {})
    n_classes = n_classes or int(y.max()) + 1
    present = np.unique(y)
    if family in ("gradient_boosted_trees", "logistic_regression") and len(present) < 2:
        raise ClassifyError(f"{family} needs at least 2 classes, got {len(present)}")
    scaler = None
    if family in ("k_nearest_neighbors", "logistic_regression"):
        scaler = _standardize_fit(X)
        X = (X - scaler[0]) / scaler[1]
    if family == "k_nearest_neighbors":
        if merged["k"] > len(y):
            raise ClassifyError(f"k={merged['k']} exceeds n={len(y)}")
        params = {"X": X, "y": y}
    elif family == "gradient_boosted_trees":
        params = _train_gbt(X, y, merged, seed, n_classes)
    elif family == "logistic_regression":
        params = _train_lr(X, y, merged, seed, n_classes)
    else:
        params = _train_rf(X, y, merged, seed, n_classes)
    return TrainedModel(
        family=family,
        params=params,
        hyper=merged,
        seed=seed,
        n_classes=n_classes,
        feature_dim=X.shape[1],
        scaler=scaler,
    )


def predict_proba(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Class probabilities (rows sum to 1) for a batch of feature rows."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.feature_dim:
        raise ClassifyError(
            f"feature dimension {X.shape[1]} != training dimension {model.feature_dim}"
        )
    if model.scaler is not None:
        X = (X - model.scaler[0]) / model.scaler[1]
    if model.family == "gradient_boosted_trees":
        return _predict_gbt(model, X)
    if model.family == "logistic_regression":
        return _predict_lr(model, X)
    if model.family == "random_forest":
        return _predict_rf(model, X)
    return _predict_knn(model, X)


def predict(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Predicted class per row; ties break to the lowest class index."""
    return np.argmax(predict_proba(model, X), axis=1)
