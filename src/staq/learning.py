"""Quality maps: fixed linear scoring and Gaussian-process regression
learned from examples, with variance-driven active querying.

The GP uses a squared-exponential kernel and a constant prior mean, fit by
Cholesky factorization. Active learning repeatedly labels the pool point
with the highest posterior variance, which for a GP is the maximum-entropy
choice; the comparison baseline labels uniformly random points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .model import ContractViolation, InvalidInput, _positive_finite, _real_vector

VAR_ROUNDOFF = 1e-10
NOISE_FLOOR = 1e-8
LABEL_TOL = 1e-9

# gp_fit's default hyperparameters, which the learning loops always use;
# the length scale defaults to sqrt(n_features)
SIGNAL_VAR = 0.25
NOISE_VAR = 1e-4
PRIOR_MEAN = 0.5


@dataclass(frozen=True, eq=False)
class LinearQualityMap:
    """Quality as a non-negative weighted trait sum scaled by a normalizer.

    Non-negative weights keep the map monotone in every trait, which the
    search's suboptimality guarantee relies on. Equality is identity: a
    weight array has no single truth value.
    """

    weights: np.ndarray
    normalizer: float

    def __post_init__(self) -> None:
        weights = _real_vector(self.weights, "weights")
        object.__setattr__(self, "weights", weights)
        if weights.ndim != 1 or weights.size < 1:
            raise InvalidInput("weights must be a non-empty vector")
        if not (np.all(np.isfinite(weights)) and np.all(weights >= 0)):
            raise InvalidInput("weights must be non-negative and finite")
        if not _positive_finite(self.normalizer):
            raise InvalidInput(f"normalizer must be positive and finite, got {self.normalizer!r}")

    @property
    def width(self) -> int:
        """Length of the trait vector the map reads."""
        return self.weights.size

    def __call__(self, traits: np.ndarray) -> float:
        return float(np.dot(self.weights, traits)) / self.normalizer


def rbf_kernel(a: np.ndarray, b: np.ndarray, signal_var: float, length_scale: float) -> np.ndarray:
    """Squared-exponential kernel matrix between row sets a and b."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise InvalidInput(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return signal_var * np.exp(-sq / (2.0 * length_scale * length_scale))


@dataclass(frozen=True, eq=False)
class GPModel:
    """A fit Gaussian process: training data, hyperparameters, and the cached
    Cholesky factor of the regularized kernel matrix. Equality is identity,
    as for LinearQualityMap."""

    x_train: np.ndarray
    y_train: np.ndarray
    length_scale: float
    signal_var: float
    noise_var: float
    prior_mean: float
    chol: np.ndarray = field(repr=False, default=None)
    weights: np.ndarray = field(repr=False, default=None)


def _check_features(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise InvalidInput("features must be finite")


def _check_labels(y: np.ndarray) -> None:
    # written so that NaN fails too
    if not np.logical_and(y >= -LABEL_TOL, y <= 1.0 + LABEL_TOL).all():
        raise InvalidInput("labels must lie in [0, 1]")


def gp_fit(
    x: np.ndarray,
    y: np.ndarray,
    *,
    length_scale: Optional[float] = None,
    signal_var: float = SIGNAL_VAR,
    noise_var: float = NOISE_VAR,
    prior_mean: float = PRIOR_MEAN,
) -> GPModel:
    """Fit the GP to labeled points. length_scale defaults to sqrt(n_features),
    the distance scale between random corners of the unit cube."""
    x = np.array(x, dtype=float, ndmin=2)
    y = np.array(y, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise InvalidInput(f"{x.shape[0]} inputs but {y.shape[0]} labels")
    if x.shape[0] == 0:
        raise InvalidInput("need at least one training point")
    _check_features(x)
    _check_labels(y)
    if not _positive_finite(signal_var):
        raise InvalidInput("signal_var must be positive and finite")
    if length_scale is None:
        length_scale = math.sqrt(x.shape[1])
    if not _positive_finite(length_scale):
        raise InvalidInput("length_scale must be positive and finite")
    if not math.isfinite(noise_var):
        raise InvalidInput("noise_var must be finite")
    if not math.isfinite(prior_mean):
        raise InvalidInput("prior_mean must be finite")
    noise_var = max(noise_var, NOISE_FLOOR)
    k = rbf_kernel(x, x, signal_var, length_scale)
    k[np.diag_indices_from(k)] += noise_var
    chol = np.linalg.cholesky(k)
    residual = y - prior_mean
    weights = np.linalg.solve(chol.T, np.linalg.solve(chol, residual))
    for arr in (x, y, chol, weights):
        arr.setflags(write=False)
    return GPModel(x, y, length_scale, signal_var, noise_var, prior_mean, chol, weights)


def _mean_and_cross_kernel(model: GPModel, x_query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean at each query row, and the train-by-query kernel it
    was read from."""
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    k_star = rbf_kernel(model.x_train, x_query, model.signal_var, model.length_scale)
    return model.prior_mean + k_star.T @ model.weights, k_star


def gp_mean(model: GPModel, x_query: np.ndarray) -> np.ndarray:
    """Posterior mean at each query row, raw as in gp_predict; no variance
    is computed, so the Cholesky solve is skipped."""
    return _mean_and_cross_kernel(model, x_query)[0]


def gp_predict(model: GPModel, x_query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at each query row.

    Means are raw (not clamped to [0,1]); clamping happens where qualities
    are consumed, so learning sees the unclipped values. Variance round-off
    below zero is tolerated to -1e-10 and clamped.
    """
    mean, k_star = _mean_and_cross_kernel(model, x_query)
    v = np.linalg.solve(model.chol, k_star)
    var = model.signal_var - np.sum(v * v, axis=0)
    low = float(var.min()) if var.size else 0.0
    if low < -VAR_ROUNDOFF:
        raise ContractViolation(f"posterior variance {low} below round-off tolerance")
    np.maximum(var, 0.0, out=var)
    return mean, var


@dataclass(frozen=True)
class GPQualityMap:
    """Quality map backed by a GP posterior mean."""

    model: GPModel

    @property
    def width(self) -> int:
        """Length of the trait vector the map reads."""
        return self.model.x_train.shape[1]

    def __call__(self, traits: np.ndarray) -> float:
        return float(gp_mean(self.model, np.asarray(traits, dtype=float)[None, :])[0])


class QueryPool:
    """Candidate points for labeling, tracking which are already labeled."""

    def __init__(self, features: np.ndarray):
        self.features = np.array(features, dtype=float, ndmin=2)
        self.labeled_mask = np.zeros(self.features.shape[0], dtype=bool)

    def unlabeled_indices(self) -> np.ndarray:
        return np.nonzero(~self.labeled_mask)[0]

    def n_unlabeled(self) -> int:
        return int(np.sum(~self.labeled_mask))

    def mark_labeled(self, index: int) -> None:
        if self.labeled_mask[index]:
            raise InvalidInput(f"pool point {index} is already labeled")
        self.labeled_mask[index] = True


Labeler = Callable[[int], float]
EvalSet = tuple[np.ndarray, np.ndarray]


class LabelingAborted(RuntimeError):
    """The labeler failed mid-run; carries the partial model and rmse trace."""

    def __init__(self, cause: BaseException, model: Optional[GPModel], trace: list[float]):
        super().__init__(f"labeler failed after {len(trace)} queries: {cause}")
        self.model = model
        self.trace = trace


def select_query(model: Optional[GPModel], pool: QueryPool) -> int:
    """Index of the unlabeled candidate with the highest posterior variance.

    With no model yet every candidate sits at the prior variance, so the
    smallest index wins; ties in general go to the smallest index.
    """
    unlabeled = pool.unlabeled_indices()
    if unlabeled.size == 0:
        raise InvalidInput("no unlabeled candidates left")
    if model is None:
        return int(unlabeled[0])
    _, var = gp_predict(model, pool.features[unlabeled])
    return int(unlabeled[int(np.argmax(var))])


def _checked_eval_set(eval_set: EvalSet, pool: QueryPool) -> EvalSet:
    """The eval set as float arrays, rejected unless its rows match its
    labels and the pool's feature width and every value is finite."""
    x_eval = np.array(eval_set[0], dtype=float, ndmin=2)
    y_eval = np.array(eval_set[1], dtype=float).ravel()
    if x_eval.ndim != 2 or x_eval.shape[0] == 0:
        raise InvalidInput("the eval set needs a 2-D array of at least one row")
    if x_eval.shape[1] != pool.features.shape[1]:
        raise InvalidInput(
            f"eval rows have {x_eval.shape[1]} features but pool rows {pool.features.shape[1]}"
        )
    if y_eval.size != x_eval.shape[0]:
        raise InvalidInput(f"{x_eval.shape[0]} eval rows but {y_eval.size} eval labels")
    _check_features(x_eval)
    if not np.all(np.isfinite(y_eval)):
        raise InvalidInput("eval labels must be finite")
    return x_eval, y_eval


def _rmse_trace(model: Optional[GPModel], x_eval: np.ndarray, y_eval: np.ndarray) -> list[float]:
    """Eval rmse after each of the model's training points, in order.

    The leading k x k block of a Cholesky factor is the factor of the first
    k points (Rasmussen & Williams 2006, Alg. 2.1), so with L the model's
    factor, rows = L^-1 k(X, X_eval) and z = L^-1 (y - prior), the eval
    mean after k labels is prior plus the sum of the first k rows weighted
    by z. One factor gives the whole curve.
    """
    if model is None:
        return []
    k_eval = rbf_kernel(model.x_train, x_eval, model.signal_var, model.length_scale)
    rows = np.linalg.solve(model.chol, k_eval)
    z = np.linalg.solve(model.chol, model.y_train - model.prior_mean)
    means = model.prior_mean + np.cumsum(rows * z[:, None], axis=0)
    return np.sqrt(np.mean((means - y_eval) ** 2, axis=1)).tolist()


def _learning_loop(
    labeler: Labeler,
    pool: QueryPool,
    eval_set: EvalSet,
    picks: Sequence[Optional[int]],
) -> tuple[Optional[GPModel], list[float]]:
    """Shared query loop; a None pick means choose by maximum variance.

    Variance picks, the returned model and the model a LabelingAborted
    carries are gp_fit of the labels so far. The rmse trace is read off
    that model's Cholesky factor, which equals a fit per label to round-off.
    """
    x_eval, y_eval = _checked_eval_set(eval_set, pool)
    labels: list[float] = []
    queried: list[int] = []

    def fit() -> Optional[GPModel]:
        return gp_fit(pool.features[queried], np.asarray(labels)) if queried else None

    for pick in picks:
        index = select_query(fit(), pool) if pick is None else int(pick)
        try:
            label = float(labeler(index))
        except Exception as exc:
            model = fit()
            raise LabelingAborted(exc, model, _rmse_trace(model, x_eval, y_eval)) from exc
        pool.mark_labeled(index)
        _check_features(pool.features[index])
        _check_labels(label)
        queried.append(index)
        labels.append(label)
    model = fit()
    return model, _rmse_trace(model, x_eval, y_eval)


def active_learn(
    labeler: Labeler,
    pool: QueryPool,
    eval_set: EvalSet,
    budget: int,
) -> tuple[Optional[GPModel], list[float]]:
    """Label the most uncertain pool point, refit, repeat `budget` times.

    Returns the final model (None for budget 0) and the evaluation rmse
    after each label. The eval set must be disjoint from the pool, or the
    trace measures memorization.
    """
    if not (0 <= budget <= pool.n_unlabeled()):
        raise InvalidInput(f"budget must be in [0, {pool.n_unlabeled()}]")
    return _learning_loop(labeler, pool, eval_set, [None] * budget)


def uniform_baseline(
    labeler: Labeler,
    pool: QueryPool,
    eval_set: EvalSet,
    budget: int,
    seed: int,
) -> tuple[Optional[GPModel], list[float]]:
    """Label seeded uniform-random pool points; the active-learning control."""
    if not (0 <= budget <= pool.n_unlabeled()):
        raise InvalidInput(f"budget must be in [0, {pool.n_unlabeled()}]")
    rng = np.random.default_rng(seed)
    unlabeled = pool.unlabeled_indices()
    picks = unlabeled[rng.permutation(unlabeled.size)[:budget]]
    return _learning_loop(labeler, pool, eval_set, [int(p) for p in picks])


def synthetic_position_dataset(
    *,
    n_players: int = 500,
    n_traits: int = 53,
    n_positions: int = 6,
    n_active: int = 8,
    seed: int = 7,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Synthetic roster ratings: each position scores a sparse weighted sum
    of a player's traits. Returns (features, labels, position names) with
    labels of shape (n_players, n_positions), all values in [0, 1].

    Players are drawn from a small set of archetypes with uneven frequencies,
    so traits are strongly correlated across the roster (a rating sheet has
    far fewer degrees of freedom than columns). Each trait is then mapped to
    its rank, spreading values evenly over [0, 1] while keeping the archetype
    structure intact."""
    rng = np.random.default_rng(seed)
    n_archetypes, latent_dim = 10, 2
    centers = rng.normal(scale=3.0, size=(n_archetypes, latent_dim))
    # Dirichlet(0.5) makes some archetypes rare; spread varies per archetype.
    frequencies = rng.dirichlet(np.full(n_archetypes, 0.5))
    assigned = rng.choice(n_archetypes, size=n_players, p=frequencies)
    spread = rng.uniform(0.5, 1.5, size=(n_archetypes, latent_dim))
    latent = centers[assigned] + spread[assigned] * rng.normal(size=(n_players, latent_dim))
    mix = rng.normal(size=(latent_dim, n_traits))
    offset = rng.normal(size=n_traits)
    raw = latent @ mix + offset + 0.05 * rng.normal(size=(n_players, n_traits))
    ranks = raw.argsort(axis=0).argsort(axis=0)
    features = (ranks + 0.5) / n_players
    labels = np.empty((n_players, n_positions))
    for p in range(n_positions):
        active = rng.choice(n_traits, size=n_active, replace=False)
        weights = np.zeros(n_traits)
        weights[active] = rng.dirichlet(np.ones(n_active))
        labels[:, p] = np.clip(features @ weights, 0.0, 1.0)
    names = tuple(f"position_{p}" for p in range(n_positions))
    return features, labels, names


def split_eval(n_points: int, eval_fraction: float, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle split into (pool indices, eval indices)."""
    if not (0.0 < eval_fraction < 1.0):
        raise InvalidInput("eval_fraction must be in (0, 1)")
    n_eval = max(1, int(round(n_points * eval_fraction)))
    if n_eval >= n_points:
        raise InvalidInput("eval split leaves no pool points")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_points)
    return np.sort(order[n_eval:]), np.sort(order[:n_eval])
