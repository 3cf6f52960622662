"""Feature attribution and correlation analysis.

Shapley values are estimated model-agnostically by permutation sampling; the
value function is the predicted probability of the instance's argmax class.
``shapley_values(..., exhaustive=True)`` enumerates every feature subset
instead (d <= 16); ``mean_abs_shap`` always samples.
An instance's sampled permutations form a design of d + 1 rows per
permutation.  A boosted model is evaluated only on the features its trees
read, the union U of their split features, when U is small: its rows hold
only U's columns, P * (|U| + 1) of them per instance, and a feature that no
tree reads gets exactly 0.0 with no design row built for it (the structure
behind TreeSHAP; Lundberg et al., Nature MI 2020).  A tree with m split
features routes only the m + 1 rows per permutation at which one of them
switches.  ``mean_abs_shap`` scores its sampled rows in batches, as many as
keep a batch's rows within one instance's every-feature design, so one
instance at a time for a black box or a model that reads too many
features.  The values are the same, bit for bit, as routing and scoring
every design row of one instance at a time.
Pearson correlation against matched host-speech features comes with a
seeded random-pairing baseline; non-finite input or a constant feature is
an error that names the feature and the side.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import factorial

import numpy as np
from scipy.special import betainc

from .artifacts import write_csv
from .classify import TrainedModel, boosted_proba, predict_proba

PROMINENCE_CUTOFF = 0.04
SHAP_BACKGROUND_SIZE = 32  # background rows drawn by mean_abs_shap
SIGNIFICANCE_ALPHA = 0.05
# A boosted tree routes its compact Shapley rows only when they are at most
# 1/_ROW_CUT of the design rows (_boosted_design_values); measured in CHANGES.md
_ROW_CUT = 5

# fixed name -> type assignments for the prominent handcrafted dimensions
_EXPLICIT_DIM_TYPES = {
    "loudness_sma3_amean": "Energy",
    "F0semitoneFrom27.5Hz_sma3nz_percentile50.0": "Frequency",
    "loudness_sma3_meanRisingSlope": "Energy",
    "logRelF0-H1-A3_sma3nz_stddevNorm": "Frequency",
    "loudnessPeaksPerSec": "Temporal",
    "F0semitoneFrom27.5Hz_sma3nz_percentile80.0": "Frequency",
    "hammarbergIndexV_sma3nz_stddevNorm": "Spectral",
    "slopeV0-500_sma3nz_amean": "Temporal",
    "loudness_sma3_percentile80.0": "Energy",
    "slopeV500-1500_sma3nz_stddevNorm": "Temporal",
}


class ExplainError(Exception):
    pass


@dataclass(frozen=True)
class ShapRow:
    feature_name: str
    mean_abs_shap: float
    dim_type: str
    prominent: bool


@dataclass(frozen=True)
class PearsonRow:
    feature_name: str
    r_host: float
    p_host: float
    r_random: float
    p_random: float
    significant: bool


def dim_type_of(name: str) -> str:
    """Category of a feature dimension (Energy/Frequency/Temporal/Spectral)."""
    if name in _EXPLICIT_DIM_TYPES:
        return _EXPLICIT_DIM_TYPES[name]
    base = name.removesuffix("_left").removesuffix("_right")
    if base in _EXPLICIT_DIM_TYPES:
        return _EXPLICIT_DIM_TYPES[base]
    if base.startswith("loudnessPeaksPerSec") or "Segment" in base:
        return "Temporal"
    if base.startswith("loudness"):
        return "Energy"
    if base.startswith("F0") or base.startswith("logRelF0"):
        return "Frequency"
    return "Spectral"


def _value_fn(model, d):
    """A model or callable as (batched value function, argmax-class targets,
    space, permutation-design values).

    fn(rows, target) is each row's value, target one class or one per row;
    targets_of(rows) is each row's explained class, from one batched
    prediction.  ``space`` holds the features that can change the model's
    output, ascending (every feature of a black box).  sampled(target, x,
    base, rank) is the value of every row of the permutation design over the
    space alone (_design_rows with every space feature), in (permutation,
    step) order, row p for class target[p]: row p of x, base and rank holds
    permutation p's instance, its background row and each space feature's
    rank among the space's features, on the space's columns only.
    """
    if isinstance(model, TrainedModel):
        def fn(rows, target):
            return predict_proba(model, rows)[np.arange(len(rows)), target]

        def targets_of(rows):
            return np.argmax(predict_proba(model, rows), axis=1)

        if model.family == "gradient_boosted_trees":
            return fn, targets_of, *_boosted_design_values(model)
    else:
        # plain callable returning a scalar (or vector) per row
        def fn(rows, target):
            return np.array([float(np.asarray(model(r)).ravel()[0]) for r in rows])

        def targets_of(rows):
            return np.zeros(len(rows), dtype=np.int64)

    def sampled(target, x, base, rank):
        # a black box may read every feature: one group that holds all d
        rows, _ = _design_rows(x, base, rank, range(d))
        return fn(rows, np.repeat(target, d + 1))

    return fn, targets_of, tuple(range(d)), sampled


def _boosted_design_values(model):
    """``space`` and ``sampled`` of _value_fn for a boosted model.

    The space is the union U of all the trees' split features when it
    passes the cut below, and every feature otherwise.  Each tree routes
    only the space rows its split features tell apart, and trees that split
    on the same features share those rows (a group); a group's rows are
    freed after its last tree.  A tree that would route more than 1/_ROW_CUT
    of a design's rows is in the group of the whole space.  A group's rows
    hold only its features' columns, so each tree routes them as a copy,
    made here once, that reads the same features by their column.

    ``boosted_proba`` adds the scores over the space rows.  Design rows that
    agree on U reach the same leaf in every tree, and each row adds the same
    ``learning_rate * leaf`` values in the same order, with the softmax
    working row by row, so the values are the same, bit for bit, as
    predicting every design row."""
    d = model.feature_dim
    trees = [tree for round_trees in model.params["trees"] for tree in round_trees]

    def compact(features):
        return _ROW_CUT * (len(features) + 1) <= d + 1

    space = tuple(sorted(set().union(*(tree.split_features for tree in trees))))
    if not compact(space):
        space = tuple(range(d))
    routed = {}  # tree identity -> (copy reading its group's columns, the group in the space)
    for tree in trees:
        group = tree.split_features if compact(tree.split_features) else space
        routed[id(tree)] = tree.renumbered(group), tuple(np.searchsorted(space, group).tolist())
    uses = Counter(key for _, key in routed.values())

    def sampled(target, x, base, rank):
        left, built = dict(uses), {}

        def leaves(tree):
            copy, key = routed[id(tree)]
            design = built.get(key)
            if design is None:
                design = built[key] = _design_rows(x, base, rank, key)
            left[key] -= 1
            if not left[key]:  # the group's last tree: free its rows
                del built[key]
            rows, index = design
            return copy.predict(rows), index

        n_rows = len(x) * (len(space) + 1)
        values = boosted_proba(model, n_rows, leaves)
        return values[np.arange(n_rows), np.repeat(target, len(space) + 1)]

    return space, sampled


def _design_rows(x, base, rank, features):
    """The rows of a permutation design that a model reading only
    ``features`` (m of them) tells apart, holding only their columns, and
    which one each design row is.

    Design row (p, s), s = 0..d, takes x[p] on the features ranked below s
    in permutation p (``rank[p, i]`` is feature i's position), base[p]
    elsewhere.  Compact row (p, j), j = 0..m, takes x[p] on the first j of
    ``features`` to switch, base[p] on the others.  With every feature, in
    order, the compact rows are the design rows, and the index is None.
    """
    features = np.asarray(features, dtype=np.int64)
    n_perm, d = base.shape
    m = len(features)
    rank_f = rank[:, features]
    # starts[p, j]: the first design step of compact row j, then d + 1
    starts = np.empty((n_perm, m + 2), dtype=np.int64)
    starts[:, 0] = 0
    starts[:, 1:-1] = np.sort(rank_f, axis=1) + 1
    starts[:, -1] = d + 1
    rows = np.where(
        rank_f[:, None, :] < starts[:, :-1, None], x[:, None, features], base[:, None, features]
    ).reshape(n_perm * (m + 1), m)
    if m == d:
        return rows, None
    return rows, np.repeat(np.arange(len(rows)), np.diff(starts, axis=1).ravel())


def shapley_values(
    model,
    background: np.ndarray,
    x: np.ndarray,
    n_permutations: int = 200,
    seed: int = 0,
    exhaustive: bool = False,
) -> np.ndarray:
    """Per-feature attribution of the model's argmax-class probability at x.

    Monte-Carlo mode averages marginal contributions over sampled feature
    orderings, each grounded in one sampled background row.  Exhaustive mode
    enumerates all feature subsets against the whole background (d <= 16).
    """
    background = np.atleast_2d(np.asarray(background, dtype=float))
    x = np.asarray(x, dtype=float).ravel()
    d = len(x)
    if background.shape[1] != d:
        raise ExplainError("background/instance dimension mismatch")
    if len(background) == 0:
        raise ExplainError("empty background")
    fn, targets_of, space, sampled = _value_fn(model, d)
    target = int(targets_of(x[None, :])[0])

    if exhaustive:
        if d > 16:
            raise ExplainError(f"exhaustive mode limited to d <= 16, got {d}")
        # v(S) = mean over background rows of f(x on S, background elsewhere)
        values = {}
        subsets = [s for r in range(d + 1) for s in combinations(range(d), r)]
        rows = []
        for s in subsets:
            z = background.copy()
            z[:, list(s)] = x[list(s)]
            rows.append(z)
        evals = fn(np.concatenate(rows), target)
        nb = len(background)
        for i, s in enumerate(subsets):
            values[s] = float(evals[i * nb:(i + 1) * nb].mean())
        phi = np.zeros(d)
        for s in subsets:
            in_s = set(s)
            for i in range(d):
                if i in in_s:
                    continue
                w = factorial(len(s)) * factorial(d - len(s) - 1) / factorial(d)
                phi[i] += w * (values[tuple(sorted(in_s | {i}))] - values[s])
        return phi

    return _permutation_shapley(
        space, sampled, [target], background, x[None, :], n_permutations, [seed]
    )[0]


def _permutation_shapley(space, sampled, targets, background, X, n_permutations, seeds):
    """Permutation-sampling estimates of the Shapley values of the rows of X
    (Strumbelj & Kononenko, KAIS 2014), row b explaining class targets[b]
    with permutations drawn from seeds[b]; ``space`` and ``sampled`` are
    _value_fn's, and every permutation of every row is evaluated in one
    call of ``sampled``.  A feature outside the space switches between rows
    the model cannot tell apart, so each of its steps is v - v = +0.0 and
    its value is 0.0.
    """
    if n_permutations < 1:
        raise ExplainError("n_permutations must be >= 1")
    n_rows, d = X.shape
    space = np.asarray(space, dtype=np.int64)
    m = len(space)
    base = np.empty((n_rows, n_permutations, m))
    rank = np.empty((n_rows, n_permutations, m), dtype=np.int64)
    picks = np.empty(n_permutations, dtype=np.int64)
    orders = np.empty((n_permutations, d), dtype=np.int64)
    for b, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for p in range(n_permutations):
            picks[p] = rng.integers(len(background))
            orders[p] = rng.permutation(d)
        base[b] = background[np.ix_(picks, space)]
        # each space feature's position in each order, then its rank among the space's
        rank[b] = np.argsort(np.argsort(np.argsort(orders, axis=1)[:, space], axis=1), axis=1)
    # row s of permutation p takes x on the space features ranked below s, b_p elsewhere
    n_perm = n_rows * n_permutations
    evals = sampled(
        np.repeat(targets, n_permutations), np.repeat(X[:, space], n_permutations, axis=0),
        base.reshape(n_perm, m), rank.reshape(n_perm, m),
    ).reshape(n_rows, n_permutations, m + 1)
    # feature i's marginal contribution in permutation p is the step at its rank
    contrib = np.take_along_axis(np.diff(evals, axis=2), rank, axis=2)
    # phi adds the permutations one at a time from +0.0: the addition order
    # fixes the bits, and a cumulative sum keeps it
    steps = np.zeros((n_rows, n_permutations + 1, m))
    steps[:, 1:] = contrib
    phi = np.zeros((n_rows, d))
    phi[:, space] = np.cumsum(steps, axis=1)[:, -1] / n_permutations
    return phi


def efficiency_check(model, background, x, attributions) -> float:
    """Residual of the efficiency axiom: |sum(phi) - (f(x) - mean f(bg))|."""
    background = np.atleast_2d(np.asarray(background, dtype=float))
    x = np.asarray(x, dtype=float).ravel()
    fn, targets_of, _, _ = _value_fn(model, len(x))
    target = int(targets_of(x[None, :])[0])
    fx = float(fn(x[None, :], target)[0])
    fbg = float(fn(background, target).mean())
    return abs(float(np.sum(attributions)) - (fx - fbg))


def mean_abs_shap(
    model,
    X: np.ndarray,
    feature_names,
    sample_size: int | None = None,
    seed: int = 0,
    n_permutations: int = 200,
    cutoff: float = PROMINENCE_CUTOFF,
) -> list[ShapRow]:
    """Mean |Shapley value| per feature over sampled rows, sorted descending.

    ``sample_size`` rows of X are explained (all of them when None, or when
    it exceeds their number), in batches scored by one call each.  Features
    above the cutoff are flagged prominent.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) == 0:
        raise ExplainError(f"X must hold at least one row of features, got shape {X.shape}")
    n, d = X.shape
    if len(feature_names) != d:
        raise ExplainError("feature_names length mismatch")
    if sample_size is not None and sample_size < 1:
        raise ExplainError(f"sample_size must be at least 1, got {sample_size}")
    sample_size = n if sample_size is None else min(sample_size, n)
    rng = np.random.default_rng(seed)
    sample_idx = np.sort(rng.choice(n, size=sample_size, replace=False))
    bg_idx = np.sort(rng.choice(n, size=min(SHAP_BACKGROUND_SIZE, n), replace=False))
    background = X[bg_idx]
    _, targets_of, space, sampled = _value_fn(model, d)
    targets = targets_of(X[sample_idx])
    # a batch's design over the space's m features, B * P * (m + 1) * m
    # values, holds at most one row's every-feature design, P * (d + 1) * d
    m = len(space)
    batch = max(1, (d + 1) * d // ((m + 1) * max(m, 1)))
    total = np.zeros(d)
    for start in range(0, sample_size, batch):
        pos = np.arange(start, min(start + batch, sample_size))
        for phi in _permutation_shapley(
            space, sampled, targets[pos], background, X[sample_idx[pos]], n_permutations,
            seeds=[seed + 1000003 * (p + 1) for p in pos.tolist()],
        ):
            total += np.abs(phi)
    mean_abs = total / sample_size
    order = np.argsort(-mean_abs, kind="stable")
    return [
        ShapRow(
            feature_name=feature_names[i],
            mean_abs_shap=float(mean_abs[i]),
            dim_type=dim_type_of(feature_names[i]),
            prominent=bool(mean_abs[i] > cutoff),
        )
        for i in order
    ]


def pearson(x, y, names=("x", "y")) -> tuple[float, float]:
    """Pearson r and the two-tailed p-value from Student's t with n-2 dof.

    A NaN or infinity in x or y, or an x or y of zero variance, raises
    ExplainError naming the argument by its entry in ``names``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if len(y) != n:
        raise ExplainError("length mismatch")
    if n < 3:
        raise ExplainError("need at least 3 observations")
    for name, values in zip(names, (x, y)):
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise ExplainError(f"{name} holds a non-finite value ({values[bad[0]]}) at {bad[0]}")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt(np.dot(xc, xc))
    sy = np.sqrt(np.dot(yc, yc))
    for name, values, spread in zip(names, (x, y), (sx, sy)):
        if spread == 0.0:
            raise ExplainError(f"{name} has zero variance (every value is {values[0]})")
    r = float(np.dot(xc, yc) / (sx * sy))
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if abs(r) == 1.0:
        return r, 0.0
    t2 = r * r * df / (1.0 - r * r)
    p = float(betainc(df / 2.0, 0.5, df / (df + t2)))
    return r, p


def correlate_pairs(
    records,
    dog_features: dict,
    host_features: dict,
    feature_names,
    seed: int = 0,
    alpha: float = SIGNIFICANCE_ALPHA,
) -> list[PearsonRow]:
    """Correlate dog-clip features with same-video host-speech features.

    Host features are averaged per source video.  The random baseline repeats
    the computation after a seeded permutation of the per-video host rows.
    A feature that is constant or non-finite over the matched dog clips or
    their host speech raises ExplainError naming the feature and the side.
    """
    name_idx = None
    host_by_video: dict[str, list[np.ndarray]] = {}
    for rec in records:
        if rec.kind != "host_speech" or rec.id not in host_features:
            continue
        fv = host_features[rec.id]
        host_by_video.setdefault(rec.source_video_id, []).append(np.asarray(fv.values))
        name_idx = name_idx or {n: i for i, n in enumerate(fv.names)}
    host_mean = {vid: np.mean(rows, axis=0) for vid, rows in host_by_video.items()}

    dog_rows, host_rows = [], []
    unmatched = set()
    for rec in records:
        if rec.kind != "dog_vocal" or rec.id not in dog_features:
            continue
        if rec.source_video_id in host_mean:
            dog_rows.append(np.asarray(dog_features[rec.id].values))
            host_rows.append(host_mean[rec.source_video_id])
        else:
            unmatched.add(rec.source_video_id)
    if not dog_rows:
        raise ExplainError(
            "no dog clips with matching host speech; unmatched videos: "
            + ", ".join(sorted(unmatched))
        )
    dog_mat = np.stack(dog_rows)
    host_mat = np.stack(host_rows)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(host_mat))

    out = []
    for name in feature_names:
        if name_idx is None or name not in name_idx:
            raise ExplainError(f"unknown feature dimension {name!r}")
        i = name_idx[name]
        sides = (f"feature {name!r} over the {len(dog_mat)} matched dog clips",
                 f"feature {name!r} over their videos' host speech")
        r_host, p_host = pearson(dog_mat[:, i], host_mat[:, i], sides)
        r_rand, p_rand = pearson(dog_mat[:, i], host_mat[perm, i], sides)
        out.append(
            PearsonRow(
                feature_name=name,
                r_host=r_host,
                p_host=p_host,
                r_random=r_rand,
                p_random=p_rand,
                significant=bool(p_host < alpha),
            )
        )
    return out


def write_attribution_csv(path, rows: list[ShapRow]) -> None:
    write_csv(
        path,
        ["feature_name", "dim_type", "mean_abs_shap", "prominent"],
        ([row.feature_name, row.dim_type, f"{row.mean_abs_shap:.4f}",
          str(row.prominent).lower()] for row in rows),
    )


def write_correlation_csv(path, rows: list[PearsonRow]) -> None:
    write_csv(
        path,
        ["feature_name", "r_host", "p_host", "r_random", "p_random", "significant"],
        ([row.feature_name, f"{row.r_host:.3f}", f"{row.p_host:.2e}", f"{row.r_random:.3f}",
          f"{row.p_random:.2e}", str(row.significant).lower()] for row in rows),
    )
