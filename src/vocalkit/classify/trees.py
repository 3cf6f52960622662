"""Decision trees shared by the boosted and bagged ensembles.

Exact greedy splitting, vectorized over (sorted) feature columns.  Trees are
stored as flat parallel arrays; prediction routes every row a fixed number of
steps, a handful of numpy operations per depth level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MIN_GAIN = 1e-12


@dataclass
class Tree:
    feature: np.ndarray  # -1 for leaves
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # scalar leaf value or class distribution per node

    @cached_property
    def _routing(self):
        """(depth, feature, threshold, children) with absorbing leaves.

        A leaf tests feature 0 against +inf and both its children are itself,
        so a row that reaches a leaf early stays there.  Node i's left child is
        children[2 * i] and its right child children[2 * i + 1].
        """
        internal = self.feature >= 0
        is_internal, left, right = internal.tolist(), self.left.tolist(), self.right.tolist()
        depth, stack = 0, [(0, 0)]
        while stack:
            node, node_depth = stack.pop()
            if is_internal[node]:
                stack += ((left[node], node_depth + 1), (right[node], node_depth + 1))
            else:
                depth = max(depth, node_depth)
        nodes = np.arange(len(internal))
        children = np.stack(
            [np.where(internal, self.left, nodes), np.where(internal, self.right, nodes)],
            axis=1,
        ).ravel()
        feature = np.where(internal, self.feature, 0)
        threshold = np.where(internal, self.threshold, np.inf)
        return depth, feature, threshold, children

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route all rows to their leaf and return the leaf values.

        Every row takes exactly `depth` steps.  A row goes right unless
        x <= threshold, so NaN goes right.
        """
        depth, feature, threshold, children = self._routing
        if depth == 0:
            return self.value[np.zeros(len(X), dtype=np.int64)]
        node = np.where(X[:, feature[0]] <= threshold[0], children[0], children[1])
        if depth > 1:
            flat = X.ravel()  # row-major, copied when X is not C-contiguous
            row_start = np.arange(len(X)) * X.shape[1]
            for _ in range(depth - 1):
                go_right = ~(flat.take(row_start + feature.take(node)) <= threshold.take(node))
                node = children.take(2 * node + go_right)
        return self.value.take(node, axis=0)


class _Builder:
    def __init__(self, value_dim: int):
        self.feature, self.threshold = [], []
        self.left, self.right = [], []
        self.value = []
        self.value_dim = value_dim

    def add(self, feature=-1, threshold=0.0, value=0.0) -> int:
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def finish(self) -> Tree:
        value = np.array(self.value)
        return Tree(
            np.array(self.feature, dtype=np.int64),
            np.array(self.threshold),
            np.array(self.left, dtype=np.int64),
            np.array(self.right, dtype=np.int64),
            value,
        )


def _best_split_newton(Xn, gn, hn, lam):
    """Best (feature, threshold) maximizing the Newton gain; None if no gain."""
    order = np.argsort(Xn, axis=0, kind="stable")
    Xs = np.take_along_axis(Xn, order, axis=0)
    GL = np.cumsum(gn[order], axis=0)[:-1]
    HL = np.cumsum(hn[order], axis=0)[:-1]
    G, H = gn.sum(), hn.sum()
    GR, HR = G - GL, H - HL
    gains = GL ** 2 / (HL + lam) + GR ** 2 / (HR + lam) - G ** 2 / (H + lam)
    gains = np.where(Xs[1:] > Xs[:-1], gains, -np.inf)
    if gains.size == 0:
        return None
    t, f = np.unravel_index(np.argmax(gains), gains.shape)
    if not np.isfinite(gains[t, f]) or gains[t, f] <= _MIN_GAIN:
        return None
    return f, 0.5 * (Xs[t, f] + Xs[t + 1, f])


def grow_newton_tree(
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    max_depth: int,
    lam: float = 1.0,
) -> Tree:
    """Regression tree on a gradient/hessian pair; leaf = -sum(g)/(sum(h)+lam)."""
    b = _Builder(value_dim=1)

    def build(idx, depth) -> int:
        g, h = grad[idx], hess[idx]
        leaf_value = -g.sum() / (h.sum() + lam)
        if depth >= max_depth or len(idx) < 2:
            return b.add(value=leaf_value)
        split = _best_split_newton(X[idx], g, h, lam)
        if split is None:
            return b.add(value=leaf_value)
        f, thr = split
        node = b.add(feature=f, threshold=thr, value=leaf_value)
        mask = X[idx, f] <= thr
        b.left[node] = build(idx[mask], depth + 1)
        b.right[node] = build(idx[~mask], depth + 1)
        return node

    build(np.arange(len(X)), 0)
    return b.finish()


def _best_split_gini(Xn, onehot):
    """Best split maximizing sum-of-squares purity; None if no gain."""
    n = len(Xn)
    order = np.argsort(Xn, axis=0, kind="stable")
    Xs = np.take_along_axis(Xn, order, axis=0)
    CL = np.cumsum(onehot[order], axis=0)[:-1]  # (n-1, d, K)
    total = onehot.sum(axis=0)
    CR = total[None, None, :] - CL
    nL = np.arange(1, n)[:, None]
    nR = n - nL
    score = (CL ** 2).sum(axis=2) / nL + (CR ** 2).sum(axis=2) / nR
    parent = (total ** 2).sum() / n
    gains = np.where(Xs[1:] > Xs[:-1], score - parent, -np.inf)
    if gains.size == 0:
        return None
    t, f = np.unravel_index(np.argmax(gains), gains.shape)
    if not np.isfinite(gains[t, f]) or gains[t, f] <= _MIN_GAIN:
        return None
    return f, 0.5 * (Xs[t, f] + Xs[t + 1, f])


def grow_gini_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    rng: np.random.Generator,
    max_depth: int = 16,
    max_features: int | None = None,
) -> Tree:
    """Classification tree (gini criterion) with per-node feature subsampling.

    Leaves hold the class-count distribution of their training rows.
    """
    onehot = np.eye(n_classes)[y]
    d = X.shape[1]
    b = _Builder(value_dim=n_classes)

    def build(idx, depth) -> int:
        counts = onehot[idx].sum(axis=0)
        if depth >= max_depth or len(idx) < 2 or np.max(counts) == counts.sum():
            return b.add(value=counts)
        cols = (
            np.sort(rng.choice(d, size=max_features, replace=False))
            if max_features is not None and max_features < d
            else np.arange(d)
        )
        split = _best_split_gini(X[np.ix_(idx, cols)], onehot[idx])
        if split is None:
            return b.add(value=counts)
        f, thr = split
        f = cols[f]
        node = b.add(feature=f, threshold=thr, value=counts)
        mask = X[idx, f] <= thr
        b.left[node] = build(idx[mask], depth + 1)
        b.right[node] = build(idx[~mask], depth + 1)
        return node

    build(np.arange(len(X)), 0)
    return b.finish()
