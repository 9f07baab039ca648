import dataclasses
import math

import numpy as np
import pytest

from staq.model import ContractViolation, InvalidInput
from staq import learning
from staq.learning import (
    GPQualityMap,
    LabelingAborted,
    LinearQualityMap,
    QueryPool,
    active_learn,
    gp_fit,
    gp_predict,
    rbf_kernel,
    select_query,
    split_eval,
    synthetic_position_dataset,
    uniform_baseline,
)

from helpers import (
    dense_gp_reference,
    log_marginal_likelihood,
    reference_learning_loop,
    rmse,
    tune_hyperparameters,
)


# -------------------------------------------------------- linear quality

def test_linear_map_value_and_validation():
    qmap = LinearQualityMap(weights=np.array([0.5, 0.5]), normalizer=1.0)
    assert qmap(np.array([0.2, 0.4])) == pytest.approx(0.3)
    qmap = LinearQualityMap(weights=np.array([1.0, 2.0]), normalizer=4.0)
    assert qmap(np.array([2.0, 1.0])) == pytest.approx(1.0)
    with pytest.raises(InvalidInput):
        LinearQualityMap(weights=np.array([-1.0, 2.0]), normalizer=1.0)
    with pytest.raises(InvalidInput):
        LinearQualityMap(weights=np.array([1.0]), normalizer=0.0)
    with pytest.raises(InvalidInput):
        LinearQualityMap(weights=np.array([]), normalizer=1.0)


@pytest.mark.parametrize("weight, normalizer", [
    (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
])
def test_linear_map_rejects_non_finite_values(weight, normalizer):
    # a NaN quality would be clamped to 0 without a word downstream
    with pytest.raises(InvalidInput, match="finite"):
        LinearQualityMap([weight], normalizer)


def test_linear_map_is_monotone_in_every_trait():
    rng = np.random.default_rng(4)
    qmap = LinearQualityMap(weights=rng.uniform(0, 2, size=5), normalizer=3.0)
    for _ in range(50):
        base = rng.uniform(0, 3, size=5)
        bumped = base.copy()
        bumped[rng.integers(5)] += rng.uniform(0, 2)
        assert qmap(bumped) >= qmap(base) - 1e-12


# ---------------------------------------------------------------- kernel

def test_rbf_kernel_diagonal_is_signal_variance():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    k = rbf_kernel(pts, pts, signal_var=0.25, length_scale=1.7)
    assert np.allclose(np.diag(k), 0.25)
    assert np.all(k <= 0.25 + 1e-15)
    assert np.allclose(k, k.T)


def test_rbf_kernel_unit_example():
    a = np.array([[0.0, 0.0]])
    b = np.array([[1.0, 1.0]])   # squared distance 2
    k = rbf_kernel(a, b, signal_var=1.0, length_scale=1.0)
    assert k[0, 0] == pytest.approx(math.exp(-1.0))


def test_rbf_kernel_rejects_dimension_mismatch():
    with pytest.raises(InvalidInput):
        rbf_kernel(np.ones((2, 3)), np.ones((2, 2)), 1.0, 1.0)


# ------------------------------------------------------------------- fit

def test_gp_fit_rejects_bad_inputs():
    x = np.array([[0.0], [1.0]])
    with pytest.raises(InvalidInput):
        gp_fit(np.empty((0, 2)), np.array([]))
    with pytest.raises(InvalidInput):
        gp_fit(x, np.array([0.5]))
    with pytest.raises(InvalidInput):
        gp_fit(x, np.array([0.5, 1.2]))
    with pytest.raises(InvalidInput):
        gp_fit(x, np.array([-0.2, 0.5]))
    with pytest.raises(InvalidInput):
        gp_fit(x, np.array([0.5, 0.5]), signal_var=0.0)
    with pytest.raises(InvalidInput):
        gp_fit(x, np.array([0.5, 0.5]), length_scale=-1.0)
    # a hair outside [0,1] is measurement slop, not an error
    gp_fit(x, np.array([0.0, 1.0 + 5e-10]))


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_gp_fit_rejects_non_finite_inputs(bad):
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([0.5, 0.5])
    with pytest.raises(InvalidInput):
        gp_fit(x, np.array([0.5, bad]))
    with pytest.raises(InvalidInput):
        gp_fit(np.array([[0.0, bad], [1.0, 0.0]]), y)
    for name in ("noise_var", "length_scale", "signal_var", "prior_mean"):
        with pytest.raises(InvalidInput):
            gp_fit(x, y, **{name: bad})


def test_gp_fit_defaults():
    x = np.random.default_rng(0).uniform(size=(4, 3))
    model = gp_fit(x, np.full(4, 0.5))
    assert model.length_scale == pytest.approx(math.sqrt(3))
    assert model.signal_var == 0.25
    assert model.prior_mean == 0.5
    assert model.noise_var == 1e-4
    floored = gp_fit(x, np.full(4, 0.5), noise_var=0.0)
    assert floored.noise_var == 1e-8


def test_gp_interpolates_a_single_sample():
    model = gp_fit(np.array([[0.3, 0.7]]), np.array([0.9]), noise_var=1e-8)
    mean, var = gp_predict(model, np.array([[0.3, 0.7]]))
    assert abs(mean[0] - 0.9) < 1e-6
    assert var[0] < 1e-6


def test_gp_far_query_reverts_to_the_prior():
    model = gp_fit(np.array([[0.0]]), np.array([1.0]))
    mean, var = gp_predict(model, np.array([[1000.0]]))
    assert mean[0] == pytest.approx(0.5)
    assert var[0] == pytest.approx(0.25)


def test_gp_nails_a_linear_function_in_sample():
    x = np.linspace(0.0, 1.0, 5)[:, None]
    y = 0.2 + 0.6 * x.ravel()
    model = gp_fit(x, y, length_scale=10.0, noise_var=1e-8)
    assert rmse(model, x, y) < 1e-3


def test_gp_matches_dense_reference():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 30))
        u = int(rng.integers(1, 9))
        x = rng.uniform(size=(n, u))
        y = rng.uniform(size=n)
        xq = rng.uniform(size=(7, u))
        ls = float(rng.uniform(0.3, 3.0))
        model = gp_fit(x, y, length_scale=ls)
        mean, var = gp_predict(model, xq)
        want_mean, want_var = dense_gp_reference(x, y, xq, length_scale=ls)
        assert np.max(np.abs(mean - want_mean)) < 1e-8
        assert np.max(np.abs(var - want_var)) < 1e-8


def test_gp_variance_is_clamped_not_negative():
    x = np.array([[0.5, 0.5]] * 4)      # duplicated rows, ill-conditioned
    model = gp_fit(x, np.full(4, 0.3), noise_var=1e-8)
    _, var = gp_predict(model, x)
    assert np.all(var >= 0.0)


def test_gp_variance_below_round_off_is_a_contract_violation():
    x = np.array([[0.0, 0.0], [1.0, 0.5]])
    model = gp_fit(x, np.array([0.2, 0.7]))
    # a factor 100 times too small inflates the explained variance 10^4-fold
    broken = dataclasses.replace(model, chol=model.chol / 100.0)
    with pytest.raises(ContractViolation, match="below round-off tolerance"):
        gp_predict(broken, x)


def test_gp_variance_bounded_and_shrinking():
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(12, 2))
    y = rng.uniform(size=12)
    xq = rng.uniform(size=(20, 2))
    model = gp_fit(x[:8], y[:8])
    _, var_small = gp_predict(model, xq)
    assert np.all(var_small <= 0.25 + 1e-12)
    # one more training point never makes any query less certain
    bigger = gp_fit(x[:9], y[:9])
    _, var_big = gp_predict(bigger, xq)
    assert np.all(var_big <= var_small + 1e-9)


def test_log_marginal_likelihood_matches_dense_formula():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(8, 2))
    y = rng.uniform(size=8)
    model = gp_fit(x, y, length_scale=1.2)
    k = rbf_kernel(x, x, 0.25, 1.2) + model.noise_var * np.eye(8)
    resid = y - 0.5
    sign, logdet = np.linalg.slogdet(k)
    want = (-0.5 * resid @ np.linalg.solve(k, resid)
            - 0.5 * logdet - 4 * math.log(2 * math.pi))
    assert log_marginal_likelihood(model) == pytest.approx(want)


def test_tuning_maximizes_marginal_likelihood_over_the_grid():
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(15, 2))
    y = np.clip(0.5 + 0.3 * np.sin(4 * x[:, 0]), 0, 1)
    scales = [0.2, 0.7, 2.0]
    signals = [0.1, 0.25]
    best = tune_hyperparameters(x, y, length_scales=scales, signal_vars=signals)
    lmls = [log_marginal_likelihood(gp_fit(x, y, length_scale=ls, signal_var=sv))
            for ls in scales for sv in signals]
    assert log_marginal_likelihood(best) == pytest.approx(max(lmls))
    assert best.length_scale in scales and best.signal_var in signals
    with pytest.raises(InvalidInput):
        tune_hyperparameters(x, y, length_scales=[], signal_vars=signals)


def test_gp_quality_map_returns_the_posterior_mean():
    model = gp_fit(np.array([[0.2], [0.8]]), np.array([0.1, 0.9]))
    qmap = GPQualityMap(model)
    want, _ = gp_predict(model, np.array([[0.5]]))
    assert qmap(np.array([0.5])) == pytest.approx(float(want[0]))


# ------------------------------------------------------------ query pool

def test_query_pool_bookkeeping():
    pool = QueryPool(np.eye(3))
    assert pool.n_unlabeled() == 3
    assert list(pool.unlabeled_indices()) == [0, 1, 2]
    pool.mark_labeled(1)
    assert list(pool.unlabeled_indices()) == [0, 2]
    assert pool.n_unlabeled() == 2
    with pytest.raises(InvalidInput):
        pool.mark_labeled(1)


def test_select_query_without_a_model_takes_the_first_unlabeled():
    pool = QueryPool(np.eye(3))
    assert select_query(None, pool) == 0
    pool.mark_labeled(0)
    assert select_query(None, pool) == 1


def test_select_query_takes_the_highest_variance_candidate():
    # train at the origin; the farthest unlabeled point is least certain
    model = gp_fit(np.array([[0.0, 0.0]]), np.array([0.5]), length_scale=1.0)
    features = np.array([[0.1, 0.0], [2.0, 0.0], [0.5, 0.5], [0.0, 0.0]])
    pool = QueryPool(features)
    got = select_query(model, pool)
    _, var = gp_predict(model, features)
    assert got == int(np.argmax(var)) == 1


def test_select_query_breaks_variance_ties_by_index():
    model = gp_fit(np.array([[0.0, 0.0]]), np.array([0.5]), length_scale=1.0)
    # two candidates mirror each other around the training point
    pool = QueryPool(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert select_query(model, pool) == 0


def test_select_query_is_order_invariant():
    rng = np.random.default_rng(2)
    features = rng.uniform(size=(10, 2))
    model = gp_fit(features[:3], np.array([0.2, 0.5, 0.8]))
    candidates = features[3:]
    first = candidates[select_query(model, QueryPool(candidates)) ]
    perm = rng.permutation(len(candidates))
    second = candidates[perm][select_query(model, QueryPool(candidates[perm]))]
    assert np.array_equal(first, second)


def test_select_query_exhausted_pool_raises():
    pool = QueryPool(np.eye(2))
    pool.mark_labeled(0)
    pool.mark_labeled(1)
    with pytest.raises(InvalidInput):
        select_query(None, pool)


def test_labeling_a_point_reduces_its_own_variance():
    p = np.array([[0.8, 0.2]])
    before = gp_fit(np.array([[0.1, 0.1]]), np.array([0.4]))
    _, var_before = gp_predict(before, p)
    after = gp_fit(np.array([[0.1, 0.1], [0.8, 0.2]]), np.array([0.4, 0.6]))
    _, var_after = gp_predict(after, p)
    assert var_after[0] < var_before[0]


# -------------------------------------------------------- learning loops

def _toy_problem(n_pool=12, n_eval=6, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.uniform(size=(n_pool + n_eval, 2))

    def truth(rows):
        return np.clip(0.3 + 0.4 * rows[:, 0], 0.0, 1.0)

    pool_x = features[:n_pool]
    eval_set = (features[n_pool:], truth(features[n_pool:]))
    pool_labels = truth(pool_x)
    return pool_x, eval_set, lambda i: float(pool_labels[i])


def test_active_learning_with_full_budget_equals_passive():
    pool_x, eval_set, labeler = _toy_problem()
    active_model, active_trace = active_learn(
        labeler, QueryPool(pool_x), eval_set, budget=len(pool_x))
    passive_model, passive_trace = uniform_baseline(
        labeler, QueryPool(pool_x), eval_set, budget=len(pool_x), seed=3)
    assert len(active_trace) == len(passive_trace) == len(pool_x)
    xq = eval_set[0]
    got, _ = gp_predict(active_model, xq)
    want, _ = gp_predict(passive_model, xq)
    assert np.max(np.abs(got - want)) < 1e-8
    assert active_trace[-1] == pytest.approx(passive_trace[-1], abs=1e-8)


def test_budget_zero_returns_no_model_and_empty_trace():
    pool_x, eval_set, labeler = _toy_problem()
    model, trace = active_learn(labeler, QueryPool(pool_x), eval_set, budget=0)
    assert model is None and trace == []


def test_budget_outside_pool_size_is_rejected():
    pool_x, eval_set, labeler = _toy_problem()
    with pytest.raises(InvalidInput):
        active_learn(labeler, QueryPool(pool_x), eval_set, budget=-1)
    with pytest.raises(InvalidInput):
        active_learn(labeler, QueryPool(pool_x), eval_set,
                     budget=len(pool_x) + 1)
    with pytest.raises(InvalidInput):
        uniform_baseline(labeler, QueryPool(pool_x), eval_set,
                         budget=len(pool_x) + 1, seed=0)


def test_uniform_baseline_is_reproducible():
    pool_x, eval_set, labeler = _toy_problem()
    _, first = uniform_baseline(labeler, QueryPool(pool_x), eval_set,
                                budget=6, seed=11)
    _, second = uniform_baseline(labeler, QueryPool(pool_x), eval_set,
                                 budget=6, seed=11)
    assert first == second


def test_labeler_failure_carries_partial_progress():
    pool_x, eval_set, _ = _toy_problem()
    calls = {"n": 0}

    def flaky(index):
        calls["n"] += 1
        if calls["n"] == 3:
            raise ValueError("sensor offline")
        return 0.5

    with pytest.raises(LabelingAborted) as excinfo:
        active_learn(flaky, QueryPool(pool_x), eval_set, budget=6)
    err = excinfo.value
    assert len(err.trace) == 2
    assert err.model is not None
    assert isinstance(err.__cause__, ValueError)


def test_labeler_failure_matches_the_refit_reference():
    pool_x, eval_set, _ = _toy_problem()

    def flaky(index):
        if index == 7:
            raise ValueError("sensor offline")
        return 0.25 + 0.05 * index

    for picks in ([None] * 12, [3, 5, 7, 1], [7, 2]):
        errors = []
        for loop in (learning._learning_loop, reference_learning_loop):
            with pytest.raises(LabelingAborted) as excinfo:
                loop(flaky, QueryPool(pool_x), eval_set, picks)
            errors.append(excinfo.value)
        got, want = errors
        _assert_same_model(got.model, want.model)
        _assert_close_traces(got.trace, want.trace)


def _assert_same_model(got, want):
    if want is None:
        assert got is None
        return
    for name in ("x_train", "y_train", "chol", "weights"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _assert_close_traces(got, want):
    assert len(got) == len(want)
    assert np.allclose(got, want, rtol=1e-9, atol=0.0)


def _assert_loop_matches_reference(labeler, pool_x, eval_set, picks):
    pools = QueryPool(pool_x), QueryPool(pool_x)
    got_model, got_trace = learning._learning_loop(labeler, pools[0], eval_set, picks)
    want_model, want_trace = reference_learning_loop(labeler, pools[1], eval_set, picks)
    _assert_same_model(got_model, want_model)
    assert np.array_equal(pools[0].labeled_mask, pools[1].labeled_mask)
    _assert_close_traces(got_trace, want_trace)


def _uniform_picks(n_pool, budget, seed):
    # the picks uniform_baseline draws on a fresh pool
    return [int(p) for p in np.random.default_rng(seed).permutation(n_pool)[:budget]]


def test_factor_read_off_matches_refitting_on_the_roster():
    """Active picks, returned models (so the x_train order, i.e. the picks)
    equal a refit per label exactly; the rmse traces to round-off."""
    features, labels, _ = synthetic_position_dataset()
    pool_idx, eval_idx = split_eval(features.shape[0], 0.3, seed=0)
    budget = 50
    for position in range(labels.shape[1]):
        column = labels[:, position]
        eval_set = (features[eval_idx], column[eval_idx])

        def labeler(i):
            return float(column[pool_idx[i]])

        for picks in [[None] * budget] + [
            _uniform_picks(pool_idx.size, budget, seed) for seed in range(3)
        ]:
            _assert_loop_matches_reference(labeler, features[pool_idx], eval_set, picks)


def test_factor_read_off_matches_refitting_on_random_data():
    rng = np.random.default_rng(12)
    for _ in range(8):
        n_pool = int(rng.integers(1, 40))
        width = int(rng.integers(1, 6))
        pool_x = rng.uniform(size=(n_pool, width)) * rng.uniform(0.1, 3.0)
        pool_y = rng.uniform(size=n_pool)
        n_eval = int(rng.integers(1, 20))
        eval_set = (rng.uniform(size=(n_eval, width)), rng.uniform(size=n_eval))
        budget = int(rng.integers(0, n_pool + 1))

        def labeler(i):
            return float(pool_y[i])

        _assert_loop_matches_reference(labeler, pool_x, eval_set, [None] * budget)
        _assert_loop_matches_reference(
            labeler, pool_x, eval_set, _uniform_picks(n_pool, budget, int(rng.integers(99))))


def test_duplicate_labels_keep_the_running_factor_positive():
    # the same point labelled twice: the noise term alone keeps the factor positive definite
    pool_x = np.array([[0.2, 0.4], [0.2, 0.4], [0.9, 0.1]])
    eval_set = (np.array([[0.2, 0.4], [0.5, 0.5]]), np.array([0.3, 0.6]))
    _assert_loop_matches_reference(lambda i: 0.3, pool_x, eval_set, [0, 1, 2])


def test_the_trace_ends_at_the_returned_models_rmse():
    pool_x, eval_set, labeler = _toy_problem()
    for picks in ([None] * 7, [4, 0, 9, 2]):
        model, trace = learning._learning_loop(labeler, QueryPool(pool_x), eval_set, picks)
        assert len(trace) == len(picks)
        assert trace[-1] == pytest.approx(rmse(model, *eval_set), rel=1e-12, abs=0.0)

    def flaky(index):
        if index == 7:
            raise ValueError("sensor offline")
        return labeler(index)

    with pytest.raises(LabelingAborted) as excinfo:
        learning._learning_loop(flaky, QueryPool(pool_x), eval_set, [3, 5, 1, 7])
    err = excinfo.value
    assert len(err.trace) == 3
    assert err.trace[-1] == pytest.approx(rmse(err.model, *eval_set), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bad", (math.nan, math.inf, 1.5, -0.5))
def test_a_bad_label_is_rejected_when_it_arrives(bad):
    pool_x, eval_set, labeler = _toy_problem()
    calls = []

    def spoiled(index):
        calls.append(index)
        return bad if index == 4 else labeler(index)

    pool = QueryPool(pool_x)
    with pytest.raises(InvalidInput):
        uniform_baseline(spoiled, pool, eval_set, budget=len(pool_x), seed=0)
    assert calls[-1] == 4         # no label is requested after the bad one
    assert pool.labeled_mask[4]   # marked labelled before the label is checked
    calls.clear()
    with pytest.raises(InvalidInput):
        active_learn(spoiled, QueryPool(pool_x), eval_set, budget=len(pool_x))
    assert calls[-1] == 4


def test_non_finite_pool_features_are_rejected_when_labelled():
    pool_x, eval_set, labeler = _toy_problem()
    pool_x = pool_x.copy()
    pool_x[2, 1] = math.nan
    calls = []

    def logged(index):
        calls.append(index)
        return labeler(index)

    with pytest.raises(InvalidInput):
        uniform_baseline(logged, QueryPool(pool_x), eval_set, budget=len(pool_x), seed=1)
    assert calls[-1] == 2
    calls.clear()
    with pytest.raises(InvalidInput):
        active_learn(logged, QueryPool(pool_x), eval_set, budget=len(pool_x))
    assert calls[-1] == 2


@pytest.mark.parametrize("make_eval", (
    lambda x, y: (x[:3], y[:1]),                  # one label for three rows
    lambda x, y: (x[:3], y[:2]),                  # two labels for three rows
    lambda x, y: (x[:3, :1], y[:3]),              # narrower than the pool
    lambda x, y: (x[:0], y[:0]),                  # no rows
    lambda x, y: (x[:3], np.array([0.5, math.nan, 0.5])),
    lambda x, y: (np.where(x[:3] > 0.5, math.inf, x[:3]), y[:3]),
))
def test_a_bad_eval_set_is_rejected_before_any_label(make_eval):
    pool_x, (x_eval, y_eval), _ = _toy_problem()
    calls = []

    def labeler(index):
        calls.append(index)
        return 0.5

    eval_set = make_eval(x_eval, y_eval)
    with pytest.raises(InvalidInput):
        active_learn(labeler, QueryPool(pool_x), eval_set, budget=2)
    with pytest.raises(InvalidInput):
        uniform_baseline(labeler, QueryPool(pool_x), eval_set, budget=2, seed=0)
    assert calls == []


def test_rmse_against_a_known_constant_predictor():
    # training data far away: predictions collapse to the 0.5 prior
    model = gp_fit(np.array([[500.0]]), np.array([0.5]), length_scale=1.0)
    x_eval = np.array([[0.0], [1.0]])
    y_eval = np.array([0.0, 1.0])
    assert rmse(model, x_eval, y_eval) == pytest.approx(0.5)


# ---------------------------------------------------------------- dataset

def test_split_eval_partitions_the_indices():
    pool, evalset = split_eval(10, 0.3, seed=4)
    assert len(evalset) == 3 and len(pool) == 7
    assert sorted(np.concatenate([pool, evalset])) == list(range(10))
    assert list(pool) == sorted(pool) and list(evalset) == sorted(evalset)
    again = split_eval(10, 0.3, seed=4)
    assert np.array_equal(pool, again[0]) and np.array_equal(evalset, again[1])
    assert len(split_eval(50, 0.01, seed=0)[1]) == 1     # at least one
    with pytest.raises(InvalidInput):
        split_eval(10, 0.0)
    with pytest.raises(InvalidInput):
        split_eval(10, 1.0)
    with pytest.raises(InvalidInput):
        split_eval(1, 0.5)


def test_synthetic_dataset_shape_and_determinism():
    features, labels, names = synthetic_position_dataset()
    assert features.shape == (500, 53)
    assert labels.shape == (500, 6)
    assert len(names) == 6 and len(set(names)) == 6
    assert np.all(labels >= 0.0) and np.all(labels <= 1.0)
    assert np.all(features > 0.0) and np.all(features < 1.0)
    again, _, _ = synthetic_position_dataset()
    assert np.array_equal(features, again)
    other, _, _ = synthetic_position_dataset(seed=8)
    assert not np.array_equal(features, other)


def test_synthetic_dataset_traits_are_rank_uniform():
    features, _, _ = synthetic_position_dataset(n_players=200)
    grid = (np.arange(200) + 0.5) / 200
    for col in (0, 17, 52):
        assert np.allclose(np.sort(features[:, col]), grid)
