import csv

import mpmath
import numpy as np
import pytest
import scipy.stats

from vocalkit.explain import (
    ExplainError,
    PearsonRow,
    SHAP_BACKGROUND_SIZE,
    ShapRow,
    correlate_pairs,
    dim_type_of,
    efficiency_check,
    mean_abs_shap,
    pearson,
    shapley_values,
    write_attribution_csv,
    write_correlation_csv,
    _ROW_CUT,
    _design_rows,
)
from vocalkit import explain
from vocalkit.classify import Tree, predict_proba, train
from vocalkit.features import FeatureVector
from vocalkit.pairing import ClipRecord


class TestDimTypes:
    def test_explicit_names(self):
        assert dim_type_of("loudness_sma3_amean") == "Energy"
        assert dim_type_of("F0semitoneFrom27.5Hz_sma3nz_percentile50.0") == "Frequency"
        assert dim_type_of("loudnessPeaksPerSec") == "Temporal"
        assert dim_type_of("hammarbergIndexV_sma3nz_stddevNorm") == "Spectral"

    def test_pair_suffixes_stripped(self):
        assert dim_type_of("loudness_sma3_amean_left") == "Energy"
        assert dim_type_of("loudnessPeaksPerSec_right") == "Temporal"

    def test_fallback_rules(self):
        assert dim_type_of("loudness_sma3_percentile20.0") == "Energy"
        assert dim_type_of("F0semitoneFrom27.5Hz_sma3nz_amean") == "Frequency"
        assert dim_type_of("MeanVoicedSegmentLengthSec") == "Temporal"
        assert dim_type_of("alphaRatioV_sma3nz_amean") == "Spectral"
        assert dim_type_of("mfcc_03") == "Spectral"


def permutation_shapley_reference(model, background, x, n_permutations, seed):
    """The per-row loop the batched permutation design replaced: each
    permutation copies the previous row and sets one more feature to x."""
    if callable(model):
        value = lambda rows: np.array([float(model(r)) for r in rows])
    else:
        target = int(np.argmax(predict_proba(model, x[None, :])[0]))
        value = lambda rows: predict_proba(model, rows)[:, target]
    d = len(x)
    rng = np.random.default_rng(seed)
    rows = np.empty((n_permutations * (d + 1), d))
    orders = np.empty((n_permutations, d), dtype=np.int64)
    for p in range(n_permutations):
        b = background[rng.integers(len(background))]
        order = rng.permutation(d)
        orders[p] = order
        z = b.copy()
        rows[p * (d + 1)] = z
        for step, i in enumerate(order):
            z = z.copy()
            z[i] = x[i]
            rows[p * (d + 1) + step + 1] = z
    evals = value(rows)
    phi = np.zeros(d)
    for p in range(n_permutations):
        phi[orders[p]] += np.diff(evals[p * (d + 1):(p + 1) * (d + 1)])
    return phi / n_permutations


@pytest.fixture(scope="module")
def three_class_gbt():
    rng = np.random.default_rng(21)
    X = np.concatenate([rng.normal(c, 1.0, (12, 5)) for c in (-2.0, 0.0, 2.0)])
    X[:, 3] = rng.standard_normal(36)
    y = np.repeat([0, 1, 2], 12)
    return X, train("gradient_boosted_trees", X, y, hyper={"n_rounds": 15}, seed=2)


class TestShapley:
    def test_linear_model_closed_form_exhaustive(self, rng):
        # oracle: for f(x) = w.x, phi_i = w_i * (x_i - mean(background_i))
        d = 5
        w = rng.standard_normal(d)
        background = rng.standard_normal((8, d))
        x = rng.standard_normal(d)
        phi = shapley_values(lambda r: np.dot(w, r), background, x, exhaustive=True)
        want = w * (x - background.mean(axis=0))
        assert np.allclose(phi, want, atol=1e-10)

    def test_linear_model_monte_carlo(self, rng):
        d = 4
        w = np.array([2.0, -1.0, 0.5, 0.0])
        background = rng.standard_normal((16, d))
        x = np.array([1.0, 1.0, 1.0, 1.0])
        phi = shapley_values(
            lambda r: np.dot(w, r), background, x, n_permutations=4000, seed=0
        )
        want = w * (x - background.mean(axis=0))
        assert np.allclose(phi, want, atol=0.15)

    def test_dummy_feature_zero(self, rng):
        # a feature the model ignores gets exactly zero in exhaustive mode
        background = rng.standard_normal((6, 3))
        x = np.array([1.0, 2.0, 3.0])
        phi = shapley_values(lambda r: r[0] ** 2 + r[1], background, x, exhaustive=True)
        assert phi[2] == 0.0

    def test_symmetry(self):
        # interchangeable features receive equal attribution
        background = np.zeros((4, 2))
        x = np.array([1.0, 1.0])
        phi = shapley_values(lambda r: r[0] * r[1], background, x, exhaustive=True)
        assert phi[0] == pytest.approx(phi[1], abs=1e-12)

    def test_efficiency_exhaustive(self, rng):
        background = rng.standard_normal((5, 4))
        x = rng.standard_normal(4)
        model = lambda r: np.tanh(r).sum() + r[0] * r[2]
        phi = shapley_values(model, background, x, exhaustive=True)
        assert efficiency_check(model, background, x, phi) < 1e-10

    def test_efficiency_monte_carlo_single_background(self, rng):
        # with one background row MC efficiency holds exactly per permutation
        background = rng.standard_normal((1, 4))
        x = rng.standard_normal(4)
        model = lambda r: float(np.sum(r ** 2))
        phi = shapley_values(model, background, x, n_permutations=20, seed=1)
        assert efficiency_check(model, background, x, phi) < 1e-10

    def test_exhaustive_matches_monte_carlo(self, rng):
        background = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        model = lambda r: float(r[0] * r[1] - np.abs(r[2]))
        exact = shapley_values(model, background, x, exhaustive=True)
        mc = shapley_values(model, background, x, n_permutations=6000, seed=2)
        assert np.allclose(exact, mc, atol=0.1)

    def test_trained_model_argmax_class(self):
        # attribution targets the argmax-class probability of a real model
        rng = np.random.default_rng(3)
        X = np.concatenate([rng.normal(-2, 0.5, (30, 2)), rng.normal(2, 0.5, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        model = train("logistic_regression", X, y)
        x = np.array([2.0, 2.0])
        phi = shapley_values(model, X, x, exhaustive=True)
        resid = efficiency_check(model, X, x, phi)
        assert resid < 1e-10
        assert np.sum(phi) > 0  # x is deep in class 1: above-baseline probability

    def test_seed_determinism(self, rng):
        background = rng.standard_normal((8, 3))
        x = rng.standard_normal(3)
        model = lambda r: float(np.sum(r))
        a = shapley_values(model, background, x, n_permutations=50, seed=9)
        b = shapley_values(model, background, x, n_permutations=50, seed=9)
        assert np.array_equal(a, b)

    def test_matches_per_row_reference(self, three_class_gbt):
        X, model = three_class_gbt
        for i in (0, 13, 30):
            phi = shapley_values(model, X[::3], X[i], n_permutations=40, seed=i)
            ref = permutation_shapley_reference(model, X[::3], X[i], 40, seed=i)
            assert phi.tobytes() == ref.tobytes()

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ExplainError):
            shapley_values(lambda r: 0.0, rng.standard_normal((3, 4)), np.zeros(5))

    def test_exhaustive_dim_limit(self):
        with pytest.raises(ExplainError):
            shapley_values(lambda r: 0.0, np.zeros((2, 17)), np.zeros(17), exhaustive=True)


class TestMeanAbsShap:
    def test_ranking_and_prominence(self, rng):
        # linear model with one dominant weight: that feature must rank first
        d = 4
        w = np.array([3.0, 0.3, 0.0, 0.0])
        X = rng.standard_normal((40, d))
        names = ["big", "small", "zero_a", "zero_b"]
        rows = mean_abs_shap(
            lambda r: float(np.dot(w, r)), X, names,
            sample_size=8, n_permutations=100, cutoff=0.04,
        )
        assert rows[0].feature_name == "big"
        assert rows[0].prominent
        by_name = {r.feature_name: r for r in rows}
        assert by_name["zero_a"].mean_abs_shap < 0.02
        assert not by_name["zero_a"].prominent
        assert [r.mean_abs_shap for r in rows] == sorted(
            (r.mean_abs_shap for r in rows), reverse=True
        )

    def test_dim_type_attached(self, rng):
        X = rng.standard_normal((10, 2))
        rows = mean_abs_shap(
            lambda r: float(r[0]), X, ["loudness_sma3_amean", "mfcc_01"],
            sample_size=2, n_permutations=20,
        )
        types = {r.feature_name: r.dim_type for r in rows}
        assert types == {"loudness_sma3_amean": "Energy", "mfcc_01": "Spectral"}

    def test_matches_per_row_reference(self, three_class_gbt):
        X, model = three_class_gbt
        seed, sample_size = 4, 9
        rows = mean_abs_shap(
            model, X, [f"f{i}" for i in range(5)], sample_size=sample_size, seed=seed,
            n_permutations=25,
        )
        rng = np.random.default_rng(seed)
        sample_idx = np.sort(rng.choice(len(X), size=sample_size, replace=False))
        bg_idx = np.sort(rng.choice(len(X), size=SHAP_BACKGROUND_SIZE, replace=False))
        targets = np.argmax(predict_proba(model, X[sample_idx]), axis=1)
        assert len(set(targets)) == 3  # rows explain different classes
        total = np.zeros(5)
        for pos, i in enumerate(sample_idx):
            total += np.abs(permutation_shapley_reference(
                model, X[bg_idx], X[i], 25, seed=seed + 1000003 * (pos + 1)
            ))
        want = total / sample_size
        assert [r.mean_abs_shap for r in rows] == [want[int(r.feature_name[1:])] for r in rows]

    def test_name_length_mismatch(self, rng):
        with pytest.raises(ExplainError):
            mean_abs_shap(lambda r: 0.0, rng.standard_normal((5, 3)), ["a", "b"])


def mean_abs_shap_reference(model, X, sample_size, seed, n_permutations):
    """mean_abs_shap's per-feature values, each row from the per-row reference."""
    rng = np.random.default_rng(seed)
    sample_idx = np.sort(rng.choice(len(X), size=sample_size, replace=False))
    bg_idx = np.sort(rng.choice(len(X), size=min(SHAP_BACKGROUND_SIZE, len(X)), replace=False))
    total = np.zeros(X.shape[1])
    for pos, i in enumerate(sample_idx):
        total += np.abs(permutation_shapley_reference(
            model, X[bg_idx], X[i], n_permutations, seed=seed + 1000003 * (pos + 1)
        ))
    return total / sample_size


def random_label_gbt(n, d, n_classes, seed, **hyper):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = np.arange(n) % n_classes
    rng.shuffle(y)
    return X, train("gradient_boosted_trees", X, y, hyper={"n_rounds": 12, **hyper}, seed=seed)


def leaf_only_tree(value):
    one = np.array([-1])
    return Tree(one, np.array([0.0]), one, one, np.array([value]))


def split_feature_counts(model):
    return [len(tree.split_features) for trees in model.params["trees"] for tree in trees]


def compact_and_wide(model, d):
    """Whether some tree routes compact rows and some routes every design row."""
    compact = [_ROW_CUT * (m + 1) <= d + 1 for m in split_feature_counts(model)]
    return any(compact), not all(compact)


def stumps_gbt():
    return random_label_gbt(40, 6, 2, 1, max_depth=1)


def deep_gbt():
    return random_label_gbt(30, 24, 2, 2, max_depth=4)


def three_class_deep_gbt():
    return random_label_gbt(30, 21, 3, 3, max_depth=3)


def gbt_with_a_leaf_only_tree():
    X, model = random_label_gbt(40, 8, 2, 4, max_depth=2)
    model.params["trees"][2][1] = leaf_only_tree(0.25)
    return X, model


def gbt_reading(n_read, d, n_classes, seed, **hyper):
    """A GBT fitted to random labels where only the first n_read of d
    features vary, so its trees read only those; the returned X varies on
    every feature."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((40, d))
    y = np.arange(40) % n_classes
    rng.shuffle(y)
    fit = X.copy()
    fit[:, n_read:] = 0.0  # a constant column offers no split
    return X, train("gradient_boosted_trees", fit, y, hyper={"n_rounds": 12, **hyper}, seed=seed)


def few_features_gbt():
    return gbt_reading(4, 24, 3, 6, max_depth=2)


def stumps_on_one_feature_gbt():
    return gbt_reading(1, 12, 2, 7, max_depth=1)


def read_features(model):
    """The union of the trees' split features, and how many sets of them the trees have."""
    sets = {tree.split_features for trees in model.params["trees"] for tree in trees}
    return set().union(*sets), len(sets)


def all_leaves_gbt():
    """A GBT whose every tree is a leaf, so no tree reads a feature."""
    X, model = random_label_gbt(40, 8, 2, 8, max_depth=2)
    model.params["trees"] = [[leaf_only_tree(0.1 * (r % 3) - 0.05 * k) for k in range(2)]
                             for r in range(len(model.params["trees"]))]
    return X, model


def spy_boosted_rows(monkeypatch):
    """The row count of each ``boosted_proba`` call the Shapley design makes."""
    n_rows = []
    real = explain.boosted_proba

    def boosted_proba(model, n, leaves):
        n_rows.append(n)
        return real(model, n, leaves)

    monkeypatch.setattr(explain, "boosted_proba", boosted_proba)
    return n_rows


def gbt_with_nan():
    X, model = random_label_gbt(40, 7, 2, 5, max_depth=2)
    X = X.copy()
    X[::3, 1] = np.nan  # in background rows and explained rows alike
    X[1::4, 4] = np.nan
    return X, model


class TestCompactRows:
    """Each boosted tree routes only the design rows its split features tell
    apart; the attributions are the per-row reference's, bit for bit."""

    @pytest.mark.parametrize("make", [
        stumps_gbt, deep_gbt, three_class_deep_gbt, gbt_with_a_leaf_only_tree, gbt_with_nan,
        few_features_gbt, stumps_on_one_feature_gbt,
    ])
    def test_matches_the_per_row_reference(self, make):
        X, model = make()
        for i in (0, 7, 20):
            phi = shapley_values(model, X[1::2], X[i], n_permutations=15, seed=i)
            ref = permutation_shapley_reference(model, X[1::2], X[i], 15, seed=i)
            assert phi.tobytes() == ref.tobytes()
        rows = mean_abs_shap(
            model, X, [f"f{i}" for i in range(X.shape[1])], sample_size=5, seed=3,
            n_permutations=10,
        )
        want = mean_abs_shap_reference(model, X, 5, 3, 10)
        got = np.array([dict((r.feature_name, r.mean_abs_shap) for r in rows)[f"f{i}"]
                        for i in range(X.shape[1])])
        assert got.tobytes() == want.tobytes()

    def test_the_cases_cover_what_they_name(self):
        _, stumps = stumps_gbt()
        assert set(split_feature_counts(stumps)) == {1}
        for make in (deep_gbt, three_class_deep_gbt):
            X, model = make()
            assert compact_and_wide(model, X.shape[1]) == (True, True)
        assert three_class_deep_gbt()[1].n_classes == 3
        assert 0 in split_feature_counts(gbt_with_a_leaf_only_tree()[1])
        X, _ = gbt_with_nan()
        assert np.isnan(X[0]).any() and np.isnan(X[1::2]).any()
        # the read features pass the cut, with trees in several groups or in one
        X, model = few_features_gbt()
        read, n_sets = read_features(model)
        assert _ROW_CUT * (len(read) + 1) <= X.shape[1] + 1 and n_sets > 2
        assert model.n_classes == 3
        X, model = stumps_on_one_feature_gbt()
        read, n_sets = read_features(model)
        assert len(read) == 1 and n_sets == 1
        # a deep model reads too many features: its scores cover every design row
        X, model = deep_gbt()
        assert _ROW_CUT * (len(read_features(model)[0]) + 1) > X.shape[1] + 1

    def test_a_callable_matches_the_per_row_reference(self, rng):
        background = rng.standard_normal((6, 5))
        model = lambda r: float(np.tanh(r[0] * r[3]) + r[1] ** 2 - r[4])
        for seed in range(3):
            x = rng.standard_normal(5)
            phi = shapley_values(model, background, x, n_permutations=12, seed=seed)
            ref = permutation_shapley_reference(model, background, x, 12, seed=seed)
            assert phi.tobytes() == ref.tobytes()
        X = rng.standard_normal((9, 5))
        rows = mean_abs_shap(model, X, list("abcde"), sample_size=4, seed=1, n_permutations=8)
        want = mean_abs_shap_reference(model, X, 4, 1, 8)
        got = [r.mean_abs_shap for r in rows]
        assert got == [want["abcde".index(r.feature_name)] for r in rows]

    def test_each_tree_routes_only_the_rows_it_tells_apart(self, monkeypatch):
        X, model = deep_gbt()
        d, n_permutations = X.shape[1], 15
        routed = []
        real = Tree.predict

        def predict(tree, rows):
            routed.append((len(tree.split_features), len(rows)))
            return real(tree, rows)

        monkeypatch.setattr(Tree, "predict", predict)
        shapley_values(model, X[1::2], X[0], n_permutations=n_permutations, seed=0)
        routed = routed[-len(split_feature_counts(model)):]  # after the target's prediction
        for m, n_rows in routed:
            compact = _ROW_CUT * (m + 1) <= d + 1
            assert n_rows == n_permutations * ((m if compact else d) + 1)

    @pytest.mark.parametrize("make", [
        few_features_gbt, stumps_on_one_feature_gbt, deep_gbt, stumps_gbt,
    ])
    def test_scores_are_added_over_the_rows_the_model_tells_apart(self, make, monkeypatch):
        X, model = make()
        d, n_permutations = X.shape[1], 15
        n_rows = spy_boosted_rows(monkeypatch)
        shapley_values(model, X[1::2], X[0], n_permutations=n_permutations, seed=0)
        u = len(read_features(model)[0])
        steps = u + 1 if _ROW_CUT * (u + 1) <= d + 1 else d + 1
        assert n_rows == [n_permutations * steps]

    def test_design_rows(self, rng):
        # x differs per permutation; compact rows hold only the given features' columns
        n_perm, d = 7, 9
        rank = np.argsort(np.stack([rng.permutation(d) for _ in range(n_perm)]), axis=1)
        x, base = rng.standard_normal((n_perm, d)), rng.standard_normal((n_perm, d))
        design = np.where(rank[:, None, :] < np.arange(d + 1)[None, :, None],
                          x[:, None, :], base[:, None, :])
        design = design.reshape(-1, d)
        rows, index = _design_rows(x, base, rank, range(d))
        assert rows.tobytes() == design.tobytes() and index is None
        for features in ((), (4,), (0, 5, 8), (1, 2, 3, 6)):
            rows, index = _design_rows(x, base, rank, features)
            m = len(features)
            assert rows.shape == (n_perm * (m + 1), m)
            assert rows[index].tobytes() == design[:, list(features)].tobytes()
            # each permutation's compact rows are distinct, in switching order
            assert np.array_equal(index.reshape(n_perm, d + 1)[:, [0, -1]],
                                  np.arange(n_perm)[:, None] * (m + 1) + [0, m])

    @pytest.mark.parametrize("make, sample_size", [
        (few_features_gbt, 40), (stumps_on_one_feature_gbt, 40), (deep_gbt, 5),
        (all_leaves_gbt, 12),
    ])
    def test_one_boosted_call_per_batch_of_explained_rows(self, make, sample_size, monkeypatch):
        X, model = make()
        d, n_permutations = X.shape[1], 6
        u = len(read_features(model)[0])
        if _ROW_CUT * (u + 1) > d + 1:
            u = d  # the space is every feature
        batch = max(1, (d + 1) * d // ((u + 1) * max(u, 1)))
        n_rows = spy_boosted_rows(monkeypatch)
        rows = mean_abs_shap(model, X, [f"f{i}" for i in range(d)], sample_size=sample_size,
                             seed=5, n_permutations=n_permutations)
        sizes = [min(batch, sample_size - start) for start in range(0, sample_size, batch)]
        assert n_rows == [b * n_permutations * (u + 1) for b in sizes]
        want = mean_abs_shap_reference(model, X, sample_size, 5, n_permutations)
        got = np.array([dict((r.feature_name, r.mean_abs_shap) for r in rows)[f"f{i}"]
                        for i in range(d)])
        assert got.tobytes() == want.tobytes()

    def test_the_batch_cases_cover_what_they_name(self):
        X, model = few_features_gbt()
        u, d = len(read_features(model)[0]), X.shape[1]
        batch = (d + 1) * d // ((u + 1) * u)
        assert 1 < batch < len(X) and len(X) % batch  # full batches and a short last one
        assert read_features(all_leaves_gbt()[1])[0] == set()

    def test_no_tree_reads_a_feature_so_every_value_is_zero(self, monkeypatch):
        X, model = all_leaves_gbt()
        n_rows = spy_boosted_rows(monkeypatch)
        for i in (0, 7):
            phi = shapley_values(model, X[1::2], X[i], n_permutations=15, seed=i)
            ref = permutation_shapley_reference(model, X[1::2], X[i], 15, seed=i)
            assert phi.tobytes() == ref.tobytes() == np.zeros(X.shape[1]).tobytes()
        assert n_rows == [15, 15]  # one row per permutation: nothing switches
        rows = mean_abs_shap(model, X, [f"f{i}" for i in range(X.shape[1])], sample_size=4)
        assert [r.mean_abs_shap for r in rows] == [0.0] * X.shape[1]

    def test_a_feature_no_tree_reads_gets_exactly_zero(self):
        X, model = few_features_gbt()
        read = read_features(model)[0]
        unread = [i for i in range(X.shape[1]) if i not in read]
        assert unread and read
        for i in (0, 7, 20):
            phi = shapley_values(model, X[1::2], X[i], n_permutations=15, seed=i)
            ref = permutation_shapley_reference(model, X[1::2], X[i], 15, seed=i)
            assert phi.tobytes() == ref.tobytes()
            assert phi[unread].tobytes() == np.zeros(len(unread)).tobytes()  # +0.0, not -0.0
            assert np.any(phi[sorted(read)] != 0.0)
        rows = mean_abs_shap(model, X, [f"f{i}" for i in range(X.shape[1])], sample_size=6)
        by_name = {r.feature_name: r.mean_abs_shap for r in rows}
        assert all(by_name[f"f{i}"] == 0.0 for i in unread)


class TestMeanAbsShapSizes:
    @pytest.mark.parametrize("X", [np.empty((0, 3)), np.empty(0), np.zeros(3)])
    def test_no_rows(self, X):
        with pytest.raises(ExplainError, match="at least one row"):
            mean_abs_shap(lambda r: 0.0, X, ["a", "b", "c"])

    @pytest.mark.parametrize("sample_size", [0, -3])
    def test_sample_size_below_one(self, rng, sample_size):
        message = f"sample_size must be at least 1, got {sample_size}"
        with pytest.raises(ExplainError, match=message):
            mean_abs_shap(lambda r: 0.0, rng.standard_normal((5, 3)), ["a", "b", "c"],
                          sample_size=sample_size)

    def test_none_and_oversized_sample_every_row(self, rng):
        X = rng.standard_normal((4, 2))
        model = lambda r: float(r[0] - 2 * r[1])
        rows = [mean_abs_shap(model, X, ["a", "b"], sample_size=s, n_permutations=5)
                for s in (None, 4, 9)]
        assert rows[0] == rows[1] == rows[2]


class TestPearson:
    def test_against_scipy(self, rng):
        for n in (5, 20, 100):
            x = rng.standard_normal(n)
            y = 0.4 * x + rng.standard_normal(n)
            r, p = pearson(x, y)
            want = scipy.stats.pearsonr(x, y)
            assert r == pytest.approx(want.statistic, abs=1e-12)
            assert p == pytest.approx(want.pvalue, rel=1e-9)

    def test_against_mpmath(self):
        # high-precision oracle: p = I_{df/(df+t^2)}(df/2, 1/2)
        x = np.array([0.1, 0.9, 1.7, 2.2, 3.4, 4.1, 5.3])
        y = np.array([0.3, 1.2, 1.1, 2.9, 3.0, 4.9, 4.8])
        r, p = pearson(x, y)
        mpmath.mp.dps = 50
        n = len(x)
        df = n - 2
        t2 = r * r * df / (1 - r * r)
        want = mpmath.betainc(
            df / 2, mpmath.mpf(1) / 2, 0, df / (df + t2), regularized=True
        )
        assert p == pytest.approx(float(want), rel=1e-10)

    def test_perfect_correlation(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        r, p = pearson(x, 2 * x + 1)
        assert r == pytest.approx(1.0, abs=1e-12) and p < 1e-10
        r, p = pearson(x, -x)
        assert r == pytest.approx(-1.0, abs=1e-12) and p < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input(self, bad):
        clean = [2.0, 1.0, 3.0, 5.0, 4.0]
        with pytest.raises(ExplainError, match=r"^x holds a non-finite value \((nan|inf|-inf)\) at 2$"):
            pearson([1.0, 2.0, bad, 4.0, 5.0], clean)
        with pytest.raises(ExplainError, match=r"^y holds a non-finite value .* at 4$"):
            pearson(clean, [1.0, 2.0, 3.0, 4.0, bad])

    def test_zero_variance_names_the_argument(self):
        with pytest.raises(ExplainError, match=r"^x has zero variance \(every value is 1.0\)$"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ExplainError, match=r"^host has zero variance \(every value is -2.0\)$"):
            pearson([1.0, 2.0, 3.0], [-2.0, -2.0, -2.0], names=("dog", "host"))

    def test_degenerate_inputs(self):
        with pytest.raises(ExplainError):
            pearson([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ExplainError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ExplainError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])


def _fv(values, clip_id):
    names = tuple(f"c{i}" for i in range(13))
    v = np.zeros(13)
    v[: len(values)] = values
    return FeatureVector("mfcc13", names, v, clip_id)


class TestCorrelatePairs:
    def _make(self, n_videos=40, rho=0.9, hosts_per_video=1, seed=0):
        from vocalkit.pairing import ACTIVITY_DIM, Context

        rng = np.random.default_rng(seed)
        ctx = Context("Play", "park", np.ones(ACTIVITY_DIM))
        records, dog_feats, host_feats = [], {}, {}
        for v in range(n_videos):
            vid = f"vid{v:03d}"
            z = rng.standard_normal()
            dog_id = f"dog{v:03d}"
            records.append(
                ClipRecord(dog_id, "dog_vocal", "En", "a.wav", 0.0, 1.0,
                           context=ctx, source_video_id=vid)
            )
            dog_feats[dog_id] = _fv([z], dog_id)
            for h in range(hosts_per_video):
                host_id = f"host{v:03d}_{h}"
                host_val = rho * z + np.sqrt(1 - rho ** 2) * rng.standard_normal()
                records.append(
                    ClipRecord(host_id, "host_speech", "En", "a.wav", 0.0, 1.0,
                               source_video_id=vid)
                )
                host_feats[host_id] = _fv([host_val], host_id)
        return records, dog_feats, host_feats

    def test_planted_correlation_detected(self):
        records, dog_feats, host_feats = self._make()
        rows = correlate_pairs(records, dog_feats, host_feats, ["c0"], seed=0)
        row = rows[0]
        assert row.r_host > 0.7
        assert row.significant
        assert abs(row.r_random) < 0.45
        # cross-check r against scipy on the same per-video pairing
        dog_vals = [dog_feats[f"dog{v:03d}"].values[0] for v in range(40)]
        host_vals = [host_feats[f"host{v:03d}_0"].values[0] for v in range(40)]
        want = scipy.stats.pearsonr(dog_vals, host_vals)
        assert row.r_host == pytest.approx(want.statistic, abs=1e-12)
        assert row.p_host == pytest.approx(want.pvalue, rel=1e-9)

    def test_host_rows_averaged_per_video(self):
        records, dog_feats, host_feats = self._make(n_videos=10, hosts_per_video=3)
        rows = correlate_pairs(records, dog_feats, host_feats, ["c0"], seed=0)
        dog_vals = np.array([dog_feats[f"dog{v:03d}"].values[0] for v in range(10)])
        host_vals = np.array(
            [
                np.mean([host_feats[f"host{v:03d}_{h}"].values[0] for h in range(3)])
                for v in range(10)
            ]
        )
        want = scipy.stats.pearsonr(dog_vals, host_vals)
        assert rows[0].r_host == pytest.approx(want.statistic, abs=1e-12)

    def test_no_matches_lists_videos(self):
        records, dog_feats, host_feats = self._make(n_videos=3)
        # drop all host clips: every dog video becomes unmatched
        host_only = [r for r in records if r.kind == "dog_vocal"]
        with pytest.raises(ExplainError) as exc:
            correlate_pairs(host_only, dog_feats, {}, ["c0"])
        assert "vid000" in str(exc.value)

    def test_unknown_dimension(self):
        records, dog_feats, host_feats = self._make(n_videos=5)
        with pytest.raises(ExplainError):
            correlate_pairs(records, dog_feats, host_feats, ["nope"])

    @pytest.mark.parametrize("side, bad, message", [
        ("dog", 2.5,
         "feature 'c0' over the 6 matched dog clips has zero variance (every value is 2.5)"),
        ("host", -1.0,
         "feature 'c0' over their videos' host speech has zero variance (every value is -1.0)"),
    ])
    def test_a_constant_feature_is_named_with_its_side(self, side, bad, message):
        records, dog_feats, host_feats = self._make(n_videos=6)
        feats = dog_feats if side == "dog" else host_feats
        for clip_id in feats:
            feats[clip_id] = _fv([bad], clip_id)
        with pytest.raises(ExplainError) as exc:
            correlate_pairs(records, dog_feats, host_feats, ["c0"])
        assert str(exc.value) == message

    def test_a_non_finite_feature_is_named_with_its_side(self):
        # two finite host rows whose per-video mean overflows
        records, dog_feats, host_feats = self._make(n_videos=6, hosts_per_video=2)
        for clip_id in ("host003_0", "host003_1"):
            host_feats[clip_id] = _fv([1e308], clip_id)
        with pytest.raises(ExplainError) as exc, np.errstate(over="ignore"):
            correlate_pairs(records, dog_feats, host_feats, ["c0"])
        assert str(exc.value) == (
            "feature 'c0' over their videos' host speech holds a non-finite value (inf) at 3"
        )

    def test_seeded_baseline_deterministic(self):
        records, dog_feats, host_feats = self._make()
        a = correlate_pairs(records, dog_feats, host_feats, ["c0"], seed=5)
        b = correlate_pairs(records, dog_feats, host_feats, ["c0"], seed=5)
        assert a == b


class TestCsvWriters:
    def test_attribution_csv(self, tmp_path):
        rows = [
            ShapRow("loudness_sma3_amean", 0.1234, "Energy", True),
            ShapRow("mfcc_01", 0.01, "Spectral", False),
        ]
        path = tmp_path / "attr.csv"
        write_attribution_csv(path, rows)
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["feature_name", "dim_type", "mean_abs_shap", "prominent"]
        assert got[1] == ["loudness_sma3_amean", "Energy", "0.1234", "true"]
        assert got[2][3] == "false"

    def test_correlation_csv(self, tmp_path):
        rows = [PearsonRow("c0", 0.6012, 1.2e-5, 0.05, 0.71, True)]
        path = tmp_path / "corr.csv"
        write_correlation_csv(path, rows)
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[1][0] == "c0"
        assert got[1][1] == "0.601"
        assert got[1][5] == "true"
