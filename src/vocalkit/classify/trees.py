"""Decision trees shared by the boosted and bagged ensembles.

Exact greedy splitting, vectorized over sorted feature columns.  Trees are
stored as flat parallel arrays; prediction routes every row a fixed number of
steps, a handful of numpy operations per depth level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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

    @cached_property
    def split_features(self) -> tuple:
        """The features its splits read, ascending."""
        return tuple(np.unique(self.feature[self.feature >= 0]).tolist())

    def renumbered(self, columns) -> Tree:
        """A copy that reads column j of a row wherever this tree reads
        feature columns[j]; ``columns`` ascends and holds its split features.

        Only ``feature`` differs; the routing is this tree's with the features
        renumbered, not worked out again.
        """
        feature = np.where(self.feature >= 0, np.searchsorted(columns, self.feature), -1)
        tree = replace(self, feature=feature)
        depth, _, threshold, children = self._routing
        tree.__dict__["_routing"] = depth, np.maximum(feature, 0), threshold, children
        return tree

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
    def __init__(self):
        self.feature, self.threshold = [], []
        self.left, self.right = [], []
        self.value = []

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


def sort_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's row ids in ascending order of value, and those values.

    Both arrays are (d, n).  The sort is stable, so tied values keep
    ascending row ids, and NaN sorts last.
    """
    rows = np.argsort(X.T, axis=1, kind="stable")
    return rows, np.take_along_axis(X.T, rows, axis=1)


def _subset(rows, values, keep_row):
    """The rows with keep_row[row] set, from every column, in sorted order."""
    keep = keep_row[rows].ravel()
    return (
        rows.ravel().compress(keep).reshape(len(rows), -1),
        values.ravel().compress(keep).reshape(len(rows), -1),
    )


def grow_newton_tree(
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    max_depth: int,
    lam: float = 1.0,
    *,
    order: tuple[np.ndarray, np.ndarray] | None = None,
    out: np.ndarray | None = None,
) -> Tree:
    """Regression tree on a gradient/hessian pair; leaf = -sum(g)/(sum(h)+lam).

    `order` is `sort_columns(X)`, computed here unless given; a boosted fit
    sorts once and shares it among all its trees.  Each node holds its rows
    sorted per column and hands each child the stable subset that
    `X[:, f] <= thr` sends there, so ties stay in row-id order.  The best
    split maximizes the Newton gain, first in (rank, feature) order.  If
    `out` is given, each training row's leaf value is written to it, equal
    to `tree.predict(X)`.
    """
    rows, values = sort_columns(X) if order is None else order
    d = X.shape[1]
    gh = np.array((grad, hess), dtype=float)
    b = _Builder()

    def build(idx, rows, values, depth) -> int:
        # idx: the node's row ids, ascending; rows/values: (d, len(idx))
        G, H = grad[idx].sum(), hess[idx].sum()
        leaf_value = -G / (H + lam)
        if depth < max_depth and len(idx) >= 2 and d:
            # Newton gain of a cut after rank t of feature f, as an (m-1, d) array,
            # GL²/(HL+lam) + GR²/(HR+lam) - G²/(H+lam) computed in place
            GL, HL = gh.take(rows.T[:-1], axis=1).cumsum(axis=1)
            GR, HR = G - GL, H - HL
            np.square(GL, out=GL)
            HL += lam
            GL /= HL
            np.square(GR, out=GR)
            HR += lam
            GR /= HR
            gains = np.add(GL, GR, out=GL)
            gains -= G ** 2 / (H + lam)
            gains[~(values.T[1:] > values.T[:-1])] = -np.inf
            t, f = divmod(int(gains.argmax()), d)
            if np.isfinite(gains[t, f]) and gains[t, f] > _MIN_GAIN:
                thr = 0.5 * (values[f, t] + values[f, t + 1])
                node = b.add(feature=f, threshold=thr, value=leaf_value)
                goes_left = X[:, f] <= thr
                goes_right = ~goes_left
                b.left[node] = build(
                    idx[goes_left[idx]], *_subset(rows, values, goes_left), depth + 1
                )
                b.right[node] = build(
                    idx[goes_right[idx]], *_subset(rows, values, goes_right), depth + 1
                )
                return node
        if out is not None:
            out[idx] = leaf_value
        return b.add(value=leaf_value)

    build(np.arange(len(X)), rows, values, 0)
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
    b = _Builder()

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
