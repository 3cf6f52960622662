import concurrent.futures
import multiprocessing
import os
import signal
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
import scipy.optimize

from vocalkit.classify.cv import (
    CVReport,
    accuracy_grid,
    cross_validate,
    make_folds,
    write_cv_reports,
    write_grid_csv,
)
from vocalkit.classify import cv, models
from vocalkit.classify.models import (
    DEFAULT_HYPER,
    FAMILIES,
    ClassifyError,
    lr_loss_grad,
    predict,
    predict_proba,
    train,
)
from vocalkit.classify.trees import (
    Tree,
    _Builder,
    _MIN_GAIN,
    grow_gini_tree,
    grow_newton_tree,
    sort_columns,
)

from conftest import count_pools, usable_cpus


def softmax_cross_entropy(scores, y):
    """Mean cross-entropy of softmax(scores) against integer labels y."""
    p = models._softmax(scores)
    return float(-np.mean(np.log(np.maximum(p[np.arange(len(y)), y], 1e-300))))


def predict_row_slow(tree, row):
    """Reference single-row traversal, to cross-check Tree.predict."""
    i = 0
    while tree.feature[i] >= 0:
        i = tree.left[i] if row[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return tree.value[i]


def predict_masked_reference(tree, X):
    """The masked level-by-level traversal Tree.predict replaced: only rows
    not yet at a leaf take the next step."""
    node = np.zeros(len(X), dtype=np.int64)
    active = tree.feature[node] >= 0
    while np.any(active):
        idx = node[active]
        go_left = X[active, tree.feature[idx]] <= tree.threshold[idx]
        node[active] = np.where(go_left, tree.left[idx], tree.right[idx])
        active = tree.feature[node] >= 0
    return tree.value[node]


def best_split_newton_reference(Xn, gn, hn, lam):
    """The per-node split search grow_newton_tree replaced: a stable argsort
    of the node's rows at every node."""
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


def grow_newton_tree_reference(X, grad, hess, max_depth, lam=1.0):
    """The per-node argsort builder grow_newton_tree replaced."""
    b = _Builder()

    def build(idx, depth):
        g, h = grad[idx], hess[idx]
        leaf_value = -g.sum() / (h.sum() + lam)
        if depth >= max_depth or len(idx) < 2:
            return b.add(value=leaf_value)
        split = best_split_newton_reference(X[idx], g, h, lam)
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


def train_gbt_reference(X, y, hyper, n_classes):
    """Boosted trees from the reference builder, updating the training
    scores with a predict on the training rows after every tree."""
    onehot = np.eye(n_classes)[y]
    scores = np.zeros((len(y), n_classes))
    trees = []
    for _ in range(hyper["n_rounds"]):
        p = models._softmax(scores)
        round_trees = []
        for k in range(n_classes):
            g = p[:, k] - onehot[:, k]
            h = np.maximum(p[:, k] * (1.0 - p[:, k]), 1e-12)
            tree = grow_newton_tree_reference(
                X, g, h, max_depth=hyper["max_depth"], lam=hyper["reg_lambda"]
            )
            scores[:, k] += hyper["learning_rate"] * tree.predict(X)
            round_trees.append(tree)
        trees.append(round_trees)
    return trees


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def tree_bytes(tree):
    return [getattr(tree, name).tobytes() for name in TREE_ARRAYS]


def tree_depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]), tree_depth(tree, tree.right[node]))


def blobs(n_per_class=30, n_classes=3, d=4, spread=0.5, seed=0):
    """Well-separated gaussian clusters."""
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c in range(n_classes):
        center = np.zeros(d)
        center[c % d] = 4.0 * (1 + c // d)
        X.append(center + spread * rng.standard_normal((n_per_class, d)))
        y.append(np.full(n_per_class, c))
    return np.concatenate(X), np.concatenate(y)


def newton_split_oracle(X, g, h, lam):
    """Brute-force best Newton split over every feature/threshold candidate."""
    base = g.sum() ** 2 / (h.sum() + lam)
    best = (None, -np.inf)
    for f in range(X.shape[1]):
        for thr in np.unique(X[:, f])[:-1]:
            m = X[:, f] <= thr
            gain = (
                g[m].sum() ** 2 / (h[m].sum() + lam)
                + g[~m].sum() ** 2 / (h[~m].sum() + lam)
                - base
            )
            if gain > best[1]:
                best = ((f, thr), gain)
    return best


class TestTrees:
    def test_newton_leaf_value(self):
        # depth 0: a single leaf with value -sum(g)/(sum(h)+lam)
        X = np.zeros((4, 1))
        g = np.array([1.0, 2.0, 3.0, 4.0])
        h = np.array([1.0, 1.0, 1.0, 1.0])
        tree = grow_newton_tree(X, g, h, max_depth=0, lam=1.0)
        assert tree.predict(X)[0] == pytest.approx(-10.0 / 5.0)

    def test_newton_split_matches_oracle(self, rng):
        X = rng.standard_normal((40, 3))
        g = rng.standard_normal(40)
        h = np.abs(rng.standard_normal(40)) + 0.1
        tree = grow_newton_tree(X, g, h, max_depth=1, lam=1.0)
        (f, thr), gain = newton_split_oracle(X, g, h, 1.0)
        assert gain > 0
        assert tree.feature[0] == f
        # threshold is the midpoint of the two values straddling the cut
        col = np.sort(X[:, f])
        below = col[col <= thr].max()
        above = col[col > thr].min()
        assert tree.threshold[0] == pytest.approx(0.5 * (below + above))

    def test_vectorized_predict_matches_slow_path(self, rng):
        X = rng.standard_normal((200, 5))
        g = rng.standard_normal(200)
        h = np.abs(rng.standard_normal(200)) + 0.1
        tree = grow_newton_tree(X, g, h, max_depth=5, lam=1.0)
        fast = tree.predict(X)
        for i in range(0, 200, 13):
            assert fast[i] == predict_row_slow(tree, X[i])

    def test_gini_tree_fits_separable(self):
        X, y = blobs(seed=1)
        tree = grow_gini_tree(X, y, 3, np.random.default_rng(0), max_depth=16)
        pred = np.argmax(tree.predict(X), axis=1)
        assert np.mean(pred == y) == 1.0

    def test_gini_pure_node_is_leaf(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.zeros(10, dtype=int)
        tree = grow_gini_tree(X, y, 2, np.random.default_rng(0))
        assert len(tree.feature) == 1 and tree.feature[0] == -1



def sorted_grower_data(kind, rng):
    """Design matrices that stress the sort-once grower's tie handling."""
    X = rng.standard_normal((90, 6))
    if kind == "ties":
        X = np.round(X)
    elif kind == "constant_column":
        X[:, 2] = 1.5
    elif kind == "duplicated_columns":
        X[:, 3] = X[:, 1]
        X[:, 5] = np.round(X[:, 0], 1)
        X[:, 4] = X[:, 5]
    elif kind == "nan_column":
        X[:, 1] = np.round(X[:, 1], 1)
        X[rng.permutation(90)[:25], 1] = np.nan
    elif kind == "tiny":
        X = np.round(X[:5], 1)
    return X


class TestSortedGrower:
    """grow_newton_tree against the per-node argsort builder, byte for byte."""

    @pytest.mark.parametrize(
        "kind", ["random", "ties", "constant_column", "duplicated_columns", "nan_column", "tiny"]
    )
    @pytest.mark.parametrize("max_depth", [0, 1, 4])
    def test_matches_reference_builder(self, rng, kind, max_depth):
        X = sorted_grower_data(kind, rng)
        n = len(X)
        order = sort_columns(X)
        for seed in range(6):
            g = np.random.default_rng(seed).standard_normal(n)
            h = np.abs(np.random.default_rng(seed + 100).standard_normal(n)) + 0.05
            if seed % 3 == 2:
                g = np.round(g)  # tied gains
            want = grow_newton_tree_reference(X, g, h, max_depth=max_depth, lam=0.7)
            got = grow_newton_tree(X, g, h, max_depth=max_depth, lam=0.7)
            assert tree_bytes(got) == tree_bytes(want)
            out = np.full(n, np.nan)
            shared = grow_newton_tree(X, g, h, max_depth, lam=0.7, order=order, out=out)
            assert tree_bytes(shared) == tree_bytes(want)
            assert out.tobytes() == want.predict(X).tobytes()

    def test_single_row_nodes(self):
        # one large gradient is cut off on its own, leaving a 1-row node
        X = np.array([[0.0, 3.0], [1.0, 3.0], [2.0, 1.0], [3.0, np.nan], [4.0, 2.0]])
        g = np.array([-9.0, 0.5, 0.4, 0.6, 0.5])
        h = np.ones(5)
        for max_depth in (1, 2, 4):
            out = np.empty(5)
            tree = grow_newton_tree(X, g, h, max_depth, order=sort_columns(X), out=out)
            want = grow_newton_tree_reference(X, g, h, max_depth)
            assert tree_bytes(tree) == tree_bytes(want)
            assert out.tobytes() == want.predict(X).tobytes()
            leaf_ids = Tree(tree.feature, tree.threshold, tree.left, tree.right,
                            np.arange(len(tree.feature))).predict(X)
            assert 1 in np.unique(leaf_ids, return_counts=True)[1]
        for Xn in (X[:1], X[:2], X[:, :0]):  # one row, two rows, no features
            n = len(Xn)
            out = np.empty(n)
            tree = grow_newton_tree(Xn, g[:n], h[:n], 4, out=out)
            assert tree_bytes(tree) == tree_bytes(grow_newton_tree_reference(Xn, g[:n], h[:n], 4))
            assert out.tobytes() == tree.predict(Xn).tobytes()

    def test_boosted_ensemble_matches_reference(self, rng):
        X = rng.standard_normal((48, 72))
        X[:, ::4] = np.round(X[:, ::4], 1)
        X[:, 7] = 0.0
        y = np.repeat(np.arange(4), 12)
        X[:, :8] += 0.8 * np.eye(4)[y].repeat(2, axis=1)
        model = train("gradient_boosted_trees", X, y)
        want = train_gbt_reference(X, y, model.hyper, 4)
        assert len(model.params["trees"]) == len(want) == 200
        for got_round, want_round in zip(model.params["trees"], want):
            assert [tree_bytes(t) for t in got_round] == [tree_bytes(t) for t in want_round]

    def test_boosted_fit_predicts_nothing(self, monkeypatch):
        calls = []
        real_predict = Tree.predict

        def counting_predict(tree, X):
            calls.append(len(X))
            return real_predict(tree, X)

        monkeypatch.setattr(Tree, "predict", counting_predict)
        X, y = blobs(n_per_class=15, seed=18)
        train("gradient_boosted_trees", X, y, hyper={"n_rounds": 10})
        assert calls == []


class TestFixedStepPredict:
    """Tree.predict against the masked traversal, compared byte for byte."""

    @staticmethod
    def queries(rng, X):
        Q = np.concatenate([X, rng.standard_normal((150, X.shape[1])) * X.std(axis=0)])
        Q[::7, :] = np.nan  # whole rows of NaN
        Q[3::5, 0] = np.nan  # NaN in one split feature
        return Q

    def assert_matches(self, tree, Q):
        for view in (Q, Q[:1], Q[:0], np.asfortranarray(Q), Q[::2]):
            assert tree.predict(view).tobytes() == predict_masked_reference(tree, view).tobytes()

    @pytest.mark.parametrize("max_depth", [0, 1, 4])
    def test_newton_trees(self, rng, max_depth):
        X = rng.standard_normal((120, 6))
        X[:, 2] = np.round(X[:, 2])  # ties
        Q = self.queries(rng, X)
        for seed in range(5):
            g = np.random.default_rng(seed).standard_normal(120)
            h = np.abs(np.random.default_rng(seed + 100).standard_normal(120)) + 0.1
            tree = grow_newton_tree(X, g, h, max_depth=max_depth)
            assert tree_depth(tree) <= max_depth
            self.assert_matches(tree, Q)
        assert tree_depth(tree) == max_depth

    def test_deep_gini_trees(self, rng):
        X = rng.standard_normal((400, 8))
        y = rng.integers(0, 3, size=400)  # random labels grow deep trees
        Q = self.queries(rng, X)
        depths = []
        for seed in range(3):
            tree = grow_gini_tree(X, y, 3, np.random.default_rng(seed), max_depth=16,
                                  max_features=3)
            depths.append(tree_depth(tree))
            self.assert_matches(tree, Q)
        assert min(depths) >= 12

    def test_non_contiguous_columns(self, rng):
        X = rng.standard_normal((100, 5))
        tree = grow_newton_tree(X, rng.standard_normal(100), np.ones(100), max_depth=4)
        reversed_cols = X[:, ::-1]
        assert not reversed_cols.flags.c_contiguous
        assert tree.predict(reversed_cols).tobytes() == (
            predict_masked_reference(tree, reversed_cols).tobytes()
        )
        assert tree.predict(np.asfortranarray(X)).tobytes() == tree.predict(X).tobytes()

    @pytest.mark.parametrize(
        "family, hyper",
        [("gradient_boosted_trees", {"n_rounds": 20}), ("random_forest", {"n_trees": 20})],
    )
    def test_fitted_models(self, rng, monkeypatch, family, hyper):
        X, y = blobs(spread=2.5, seed=12)
        model = train(family, X, y, hyper=hyper, seed=3)
        Q = self.queries(rng, X)
        fast = predict_proba(model, Q)
        monkeypatch.setattr(Tree, "predict", predict_masked_reference)
        assert fast.tobytes() == predict_proba(model, Q).tobytes()


def predict_knn_reference(model, X):
    """The per-row loop _predict_knn replaced."""
    train_X, train_y, k = model.params["X"], model.params["y"], model.hyper["k"]
    probs = np.zeros((len(X), model.n_classes))
    for i, row in enumerate(X):
        dist = np.sqrt(((train_X - row) ** 2).sum(axis=1))
        neighbors = np.argsort(dist, kind="stable")[:k]
        probs[i] = np.bincount(train_y[neighbors], minlength=model.n_classes) / k
    return probs


class TestKnn:
    @pytest.mark.parametrize("chunk_elems", [1, 700, 1 << 19])
    def test_matches_row_loop(self, rng, monkeypatch, chunk_elems):
        monkeypatch.setattr(models, "_KNN_CHUNK_ELEMS", chunk_elems)
        for n, d in ((40, 3), (48, 72)):
            X = np.round(rng.standard_normal((n, d)))  # many tied distances
            X[5] = X[9]  # duplicated training rows
            y = rng.integers(0, 4, size=n)
            Q = np.concatenate([X[:10], np.round(rng.standard_normal((37, d)))])
            model = train("k_nearest_neighbors", X, y, hyper={"k": 4})
            Qs = (Q - model.scaler[0]) / model.scaler[1]
            assert predict_proba(model, Q).tobytes() == predict_knn_reference(model, Qs).tobytes()

    def test_against_brute_force(self, rng):
        X, y = blobs(n_per_class=20, spread=2.0, seed=2)
        Xq = rng.standard_normal((15, X.shape[1])) * 3
        model = train("k_nearest_neighbors", X, y)
        got = predict_proba(model, Xq)
        # oracle: re-standardize and count the 5 nearest by plain loops
        mean, std = X.mean(axis=0), X.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        Xs, Qs = (X - mean) / std, (Xq - mean) / std
        for i in range(len(Qs)):
            d = np.array([np.linalg.norm(Qs[i] - row) for row in Xs])
            nn = np.argsort(d, kind="stable")[:5]
            want = np.bincount(y[nn], minlength=3) / 5
            assert np.allclose(got[i], want)

    def test_k_exceeds_n(self):
        with pytest.raises(ClassifyError):
            train("k_nearest_neighbors", np.zeros((3, 2)), np.array([0, 1, 0]))

    def test_memorizes_training_points(self):
        X, y = blobs(seed=3)
        model = train("k_nearest_neighbors", X, y, hyper={"k": 1})
        assert np.mean(predict(model, X) == y) == 1.0


class TestLogisticRegression:
    def test_gradient_against_finite_differences(self, rng):
        X1 = np.concatenate([rng.standard_normal((12, 3)), np.ones((12, 1))], axis=1)
        y = rng.integers(0, 3, 12)
        onehot = np.eye(3)[y]
        W = rng.standard_normal((4, 3)) * 0.3
        _, grad = lr_loss_grad(W, X1, onehot, 1e-2)
        eps = 1e-6
        for r in range(4):
            for c in range(3):
                Wp, Wm = W.copy(), W.copy()
                Wp[r, c] += eps
                Wm[r, c] -= eps
                lp, _ = lr_loss_grad(Wp, X1, onehot, 1e-2)
                lm, _ = lr_loss_grad(Wm, X1, onehot, 1e-2)
                assert grad[r, c] == pytest.approx((lp - lm) / (2 * eps), abs=1e-6)

    def test_matches_scipy_optimum(self, rng):
        # oracle: minimize the same objective with scipy's BFGS
        X, y = blobs(n_per_class=15, n_classes=3, d=2, spread=1.5, seed=4)
        model = train("logistic_regression", X, y)
        mean, std = model.scaler
        X1 = np.concatenate([(X - mean) / std, np.ones((len(X), 1))], axis=1)
        onehot = np.eye(3)[y]

        def obj(w):
            return lr_loss_grad(w.reshape(3, 3), X1, onehot, 1e-3)[0]

        res = scipy.optimize.minimize(obj, np.zeros(9), method="BFGS")
        assert model.params["final_loss"] == pytest.approx(res.fun, abs=1e-5)

    def test_separable_accuracy(self):
        X, y = blobs(seed=5)
        model = train("logistic_regression", X, y)
        assert np.mean(predict(model, X) == y) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ClassifyError):
            train("logistic_regression", np.zeros((5, 2)), np.zeros(5, dtype=int))


class TestGradientBoostedTrees:
    def test_loss_curve_decreases(self):
        X, y = blobs(n_per_class=20, seed=6)
        model = train("gradient_boosted_trees", X, y, hyper={"n_rounds": 40})
        # training loss after each round, summing the trees in fitting order
        scores = np.zeros((len(y), model.n_classes))
        curve = []
        for round_trees in model.params["trees"]:
            for k, tree in enumerate(round_trees):
                scores[:, k] += model.hyper["learning_rate"] * tree.predict(X)
            curve.append(softmax_cross_entropy(scores, y))
        assert len(curve) == 40
        assert curve[-1] < curve[0]
        assert all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))

    def test_separable_accuracy(self):
        X, y = blobs(seed=7)
        model = train("gradient_boosted_trees", X, y, hyper={"n_rounds": 50})
        assert np.mean(predict(model, X) == y) == 1.0

    def test_determinism(self):
        X, y = blobs(seed=8)
        a = train("gradient_boosted_trees", X, y, hyper={"n_rounds": 10})
        b = train("gradient_boosted_trees", X, y, hyper={"n_rounds": 10})
        assert np.array_equal(predict_proba(a, X), predict_proba(b, X))


class TestRandomForest:
    def test_separable_accuracy(self):
        X, y = blobs(seed=9)
        model = train("random_forest", X, y, hyper={"n_trees": 50})
        assert np.mean(predict(model, X) == y) == 1.0

    def test_seed_controls_forest(self):
        X, y = blobs(spread=2.5, seed=10)
        a = train("random_forest", X, y, hyper={"n_trees": 20}, seed=1)
        b = train("random_forest", X, y, hyper={"n_trees": 20}, seed=1)
        c = train("random_forest", X, y, hyper={"n_trees": 20}, seed=2)
        assert np.array_equal(predict_proba(a, X), predict_proba(b, X))
        assert not np.array_equal(predict_proba(a, X), predict_proba(c, X))

    def test_probabilities_are_vote_fractions(self):
        X, y = blobs(spread=3.0, seed=11)
        model = train("random_forest", X, y, hyper={"n_trees": 8})
        p = predict_proba(model, X[:5])
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.allclose(p * 8, np.round(p * 8))


class TestContract:
    def test_families_registry(self):
        assert set(FAMILIES) == set(DEFAULT_HYPER)
        assert len(FAMILIES) == 4

    def test_unknown_family(self):
        with pytest.raises(ClassifyError):
            train("neural_net", np.zeros((5, 2)), np.arange(5) % 2)

    def test_probability_rows_sum_to_one(self):
        X, y = blobs(n_per_class=12, seed=12)
        for family in FAMILIES:
            model = train(family, X, y, hyper={"n_rounds": 5} if "boost" in family else None)
            p = predict_proba(model, X[:7])
            assert p.shape == (7, 3)
            assert np.allclose(p.sum(axis=1), 1.0), family
            assert np.all(p >= 0), family

    def test_tie_breaks_to_lowest_class(self):
        # k=2 with one neighbor of each class: proba (0.5, 0.5) -> class 0
        X = np.array([[0.0], [2.0]])
        y = np.array([1, 0])
        model = train("k_nearest_neighbors", X, y, hyper={"k": 2})
        assert predict(model, np.array([[1.0]]))[0] == 0

    def test_dim_mismatch(self):
        X, y = blobs(n_per_class=10, seed=13)
        model = train("k_nearest_neighbors", X, y)
        with pytest.raises(ClassifyError):
            predict(model, np.zeros((2, X.shape[1] + 1)))


class TestFolds:
    def test_disjoint_exhaustive(self):
        y = np.arange(37) % 4
        assign, stratified = make_folds(y, 5, seed=0)
        assert stratified
        assert set(assign) == set(range(5))
        assert len(assign) == 37

    def test_stratified_balance(self):
        y = np.repeat(np.arange(4), 25)
        assign, stratified = make_folds(y, 5, seed=1)
        assert stratified
        for c in range(4):
            counts = np.bincount(assign[y == c], minlength=5)
            assert counts.max() - counts.min() <= 1

    def test_fallback_when_class_too_small(self):
        y = np.array([0] * 20 + [1] * 2)
        assign, stratified = make_folds(y, 5, seed=0)
        assert not stratified
        assert set(assign) == set(range(5))

    def test_seed_determinism(self):
        y = np.arange(40) % 4
        a, _ = make_folds(y, 5, seed=3)
        b, _ = make_folds(y, 5, seed=3)
        c, _ = make_folds(y, 5, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_too_few_rows(self):
        with pytest.raises(ClassifyError):
            make_folds(np.array([0, 1]), 5, seed=0)


class TestCrossValidate:
    def test_separable_high_accuracy(self):
        X, y = blobs(n_per_class=25, seed=14)
        report = cross_validate(X, y, "k_nearest_neighbors", folds=5, seed=0)
        assert len(report.fold_accuracies) == 5
        assert report.mean_accuracy > 0.95
        assert report.confusion.sum() == len(y)

    def test_confusion_diagonal(self):
        X, y = blobs(n_per_class=25, seed=15)
        report = cross_validate(X, y, "logistic_regression", folds=5, seed=0)
        assert np.trace(report.confusion) == report.confusion.sum()

    def test_label_shuffle_near_chance(self, rng):
        # destroying the labels must drop accuracy to ~1/K
        X, y = blobs(n_per_class=40, n_classes=2, seed=16)
        y_shuffled = rng.permutation(y)
        report = cross_validate(X, y_shuffled, "k_nearest_neighbors", folds=5, seed=0)
        assert 0.25 < report.mean_accuracy < 0.75


class TestGrid:
    def test_grid_and_csv(self, tmp_path):
        X, y = blobs(n_per_class=20, seed=17)
        datasets = {"setA": (X, y), "tiny": (X[:3], y[:3])}
        grid = accuracy_grid(datasets, ["k_nearest_neighbors"], folds=5, seed=0)
        assert grid[("setA", "k_nearest_neighbors")].mean_accuracy > 0.9
        assert grid[("tiny", "k_nearest_neighbors")].error  # n < folds
        path = tmp_path / "grid.csv"
        write_grid_csv(path, grid, ["setA", "tiny"], ["k_nearest_neighbors"])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "feature_set,k_nearest_neighbors"
        cell = lines[1].split(",")[1]
        assert lines[1].startswith("setA,")
        assert float(cell) > 0.9 and len(cell.split(".")[1]) == 4
        assert lines[2] == "tiny,ERR"


def fail_in_worker(parent_pid, fail):
    """A stand-in for models.train that calls fail() in a worker process."""
    def train(*args, **kwargs):
        assert os.getpid() != parent_pid, "a grid fit ran in the parent process"
        fail()

    return train


class TestParallelGrid:
    FAMILIES = list(FAMILIES)
    FOLDS = 5
    # k above every fold's training size (38 or 39 rows): a different error
    # message in different folds
    HYPER = {
        "gradient_boosted_trees": {"n_rounds": 4},
        "random_forest": {"n_trees": 4},
        "k_nearest_neighbors": {"k": 40},
    }

    @staticmethod
    def datasets():
        X, y = blobs(n_per_class=16, spread=2.5, seed=23)
        return {"setA": (X, y), "tiny": (X[:3], y[:3])}

    def grid(self):
        return accuracy_grid(
            self.datasets(), self.FAMILIES, folds=self.FOLDS, seed=7,
            hyper_by_family=self.HYPER,
        )

    def written(self, grid, out):
        out.mkdir()
        write_grid_csv(out / "grid.csv", grid, list(self.datasets()), self.FAMILIES)
        write_cv_reports(out / "cv_reports.json", grid)
        return (out / "grid.csv").read_bytes(), (out / "cv_reports.json").read_bytes()

    def test_pooled_grid_equals_in_process_grid(self, monkeypatch, tmp_path):
        created = count_pools(monkeypatch)
        usable_cpus(monkeypatch, 2)
        pooled = self.grid()
        assert created == [2]
        assert multiprocessing.active_children() == []
        usable_cpus(monkeypatch, 1)
        in_process = self.grid()
        assert created == [2]
        assert self.written(pooled, tmp_path / "pooled") == self.written(
            in_process, tmp_path / "in_process"
        )
        X, y = self.datasets()["setA"]
        for family in self.FAMILIES:
            a, b = pooled[("setA", family)], in_process[("setA", family)]
            assert a.fold_accuracies == b.fold_accuracies
            assert np.array_equal(a.confusion, b.confusion)
            assert a.error == b.error
            if family != "k_nearest_neighbors":
                ref = cross_validate(
                    X, y, family, hyper=self.HYPER.get(family), folds=self.FOLDS,
                    seed=7, feature_set="setA",
                )
                assert not a.error and a.fold_accuracies == ref.fold_accuracies
                assert np.array_equal(a.confusion, ref.confusion)
        for family in self.FAMILIES:
            assert pooled[("tiny", family)].error == "n=3 smaller than folds=5"
            assert in_process[("tiny", family)].error == "n=3 smaller than folds=5"

    def test_cell_error_is_that_of_its_first_failing_fold(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        X, y = self.datasets()["setA"]
        assign, _ = make_folds(y, self.FOLDS, seed=7)
        n_train = [int(np.sum(assign != f)) for f in range(self.FOLDS)]
        failing = [n for n in n_train if n < self.HYPER["k_nearest_neighbors"]["k"]]
        assert len(set(failing)) > 1 and failing[0] != failing[-1]
        expected = f"k=40 exceeds n={failing[0]}"
        assert self.grid()[("setA", "k_nearest_neighbors")].error == expected
        with pytest.raises(ClassifyError, match=expected):
            cross_validate(X, y, "k_nearest_neighbors", hyper=self.HYPER[
                "k_nearest_neighbors"], folds=self.FOLDS, seed=7)

    def test_one_usable_cpu_creates_no_pool(self, monkeypatch):
        usable_cpus(monkeypatch, 1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was created with one usable CPU")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        grid = self.grid()
        assert grid[("setA", "logistic_regression")].mean_accuracy > 0.25

    def test_another_thread_creates_no_pool(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        created = count_pools(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            self.grid()
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert created == []

    def test_pool_is_never_larger_than_the_task_count(self, monkeypatch):
        created = count_pools(monkeypatch)
        usable_cpus(monkeypatch, 64)
        X, y = self.datasets()["setA"]
        accuracy_grid({"setA": (X, y)}, ["logistic_regression"], folds=3, seed=0)
        assert created == [3]

    def test_no_worker_left_after_a_worker_raised(self, monkeypatch):
        usable_cpus(monkeypatch, 2)

        def fail():
            raise ClassifyError("fit failed in a worker")

        monkeypatch.setattr(cv, "train", fail_in_worker(os.getpid(), fail))
        grid = self.grid()
        assert all(grid[("setA", f)].error == "fit failed in a worker" for f in self.FAMILIES)
        assert multiprocessing.active_children() == []

    def test_a_killed_worker_breaks_the_grid(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(cv, "train", fail_in_worker(
            os.getpid(), lambda: os.kill(os.getpid(), signal.SIGKILL)
        ))
        with pytest.raises(BrokenProcessPool):
            self.grid()
        assert multiprocessing.active_children() == []
