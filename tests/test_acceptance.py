"""End-to-end acceptance suite.

One test per advertised guarantee, run under `pytest -v` for a one-line
verdict each. The first four share a module-scoped suite of 50 seeded
random instances, each solved across blend weights and compared against
the exhaustive oracle. Expect a few minutes of runtime.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

from staq.analysis import OracleBudgetExceeded, brute_force_optimal, bound_report, random_instance
from staq.learning import (
    LinearQualityMap,
    QueryPool,
    active_learn,
    gp_fit,
    gp_predict,
    split_eval,
    synthetic_position_dataset,
    uniform_baseline,
)
from staq.model import (
    Allocation,
    ProblemDomain,
    Robot,
    Task,
    TaskNetwork,
    WorldMap,
    successors,
    total_allocation_quality,
    validate_solution,
)
from staq.motion import GridPlanner, euclidean_estimate, plan_path
from staq.scheduler import solve_milp, worst_makespan
from staq.search import solve

from helpers import (
    bfs_grid_distance,
    dense_gp_reference,
    drop_one_domain,
    enumerate_schedules,
    random_constraint_set,
)

N_INSTANCES = 50
ALPHAS = (0.0, 0.1, 0.2, 0.3, 0.4)
SCHEDULE_CAP = 3000


@dataclass
class Case:
    seed: int
    planner: GridPlanner
    oracle: object
    # alpha -> (domain, solution, stats, report)
    runs: dict


@pytest.fixture(scope="module")
def suite():
    cases = []
    seed = 0
    while len(cases) < N_INSTANCES and seed < 400:
        domain = random_instance(seed)
        seed += 1
        planner = GridPlanner(domain.world)
        try:
            oracle = brute_force_optimal(domain, planner, schedule_cap=SCHEDULE_CAP)
        except OracleBudgetExceeded:
            continue
        assert oracle.feasible, f"seed {seed - 1}: generator promised a feasible instance"
        cache = {}
        runs = {}
        for alpha in ALPHAS + (1.0,):
            tuned = dataclasses.replace(domain, alpha=alpha)
            solution, stats = solve(tuned, planner=planner, schedule_cache=cache)
            assert solution is not None, f"seed {seed - 1}: search found nothing at alpha {alpha}"
            report = bound_report(tuned, solution, stats, oracle=oracle)
            runs[alpha] = (tuned, solution, stats, report)
        cases.append(Case(seed - 1, planner, oracle, runs))
    assert len(cases) == N_INSTANCES, f"only {len(cases)} instances accepted"
    return cases


def test_quality_gap_within_apriori_bound(suite):
    violations = []
    for case in suite:
        for alpha in ALPHAS:
            _, solution, stats, _ = case.runs[alpha]
            gap = case.oracle.quality - solution.total_quality
            bound = alpha / (1.0 - alpha) * (stats.quality_root - stats.quality_null)
            if gap > bound + 1e-9:
                violations.append((case.seed, alpha, gap, bound))
    assert not violations, f"{len(violations)} bound violations: {violations[:5]}"


def test_quality_gap_within_posthoc_bound(suite):
    violations = []
    for case in suite:
        for alpha in ALPHAS:
            _, solution, _, report = case.runs[alpha]
            gap = case.oracle.quality - solution.total_quality
            if gap > report.posthoc_bound + 1e-9:
                violations.append((case.seed, alpha, gap, report.posthoc_bound))
            if report.overrun_of_best_open <= 1.0 and \
                    report.posthoc_bound > report.apriori_bound:
                violations.append((case.seed, alpha, "posthoc above apriori"))
    assert not violations, f"{len(violations)} bound violations: {violations[:5]}"


def test_alpha_extremes_bracket_the_quality_range(suite):
    satisfied = 0
    for case in suite:
        qualities = {a: run[1].total_quality for a, run in case.runs.items()}
        lo, hi = min(qualities.values()), max(qualities.values())
        if qualities[0.0] >= hi - 1e-9 and qualities[1.0] <= lo + 1e-9:
            satisfied += 1
    assert satisfied >= math.ceil(0.95 * len(suite)), \
        f"extremes bracket the range in only {satisfied}/{len(suite)} instances"


def test_every_solution_passes_validation(suite):
    failures = []
    for case in suite:
        for alpha, (domain, solution, _, _) in case.runs.items():
            report = validate_solution(domain, solution, case.planner)
            if not report.ok:
                failures.append((case.seed, alpha, report.violations[:2]))
            if solution.schedule.makespan > domain.time_budget:
                failures.append((case.seed, alpha, "budget exceeded"))
    assert not failures, f"{len(failures)} invalid solutions: {failures[:5]}"


# Seeds whose oracle passes SCHEDULE_CAP allocations, so the suite skips them.
SKIPPED_SEEDS = [0, 4, 5, 7, 10, 13, 15, 22, 26, 31, 39, 41, 45, 50, 52, 59, 64, 66, 67]


def test_oracle_cap_skips_the_same_seeds(suite):
    accepted = {case.seed for case in suite}
    assert sorted(set(range(suite[-1].seed + 1)) - accepted) == SKIPPED_SEEDS


def test_scheduler_agrees_with_exhaustive_enumeration():
    rng = np.random.default_rng(12345)
    for _ in range(200):
        cs = random_constraint_set(rng, max_mutex=8)
        outcome = solve_milp(cs)
        want = enumerate_schedules(cs)
        if want is None:
            assert outcome.schedule is None
        else:
            assert outcome.schedule is not None
            assert outcome.schedule.makespan == want


def _random_linear_domain(rng):
    m = int(rng.integers(1, 4))
    n = int(rng.integers(2, 5))
    u = int(rng.integers(1, 4))
    world = WorldMap.from_ascii(["...", "...", "..."])
    robots = tuple(
        Robot(traits=rng.uniform(0.0, 2.0, size=u), start_cell=(0, 0), speed=1.0)
        for i in range(n)
    )
    tasks = tuple(
        Task(duration=1.0, start_site=(1, 1), end_site=(1, 1)) for j in range(m)
    )
    maps = tuple(
        LinearQualityMap(rng.uniform(0.0, 1.0, size=u) + 1e-3, float(rng.uniform(0.5, 3.0)))
        for _ in range(m)
    )
    return ProblemDomain(network=TaskNetwork(tasks=tasks), robots=robots,
                         quality_maps=maps, world=world, time_budget=100.0)


def test_loss_is_monotone_under_assignment_removal():
    """Under linear maps no child's quality exceeds its parent's, with no
    slack, so the normalized loss never drops: the guarantee's monotonicity
    holds wherever it applies, and the search need not check it."""
    rng = np.random.default_rng(2024)
    checks = 0
    violations = 0
    while checks < 10_000:
        domain = _random_linear_domain(rng)
        m, n = domain.n_tasks, domain.n_robots
        for _ in range(8):
            key = int(rng.integers(1, 2 ** (m * n)))
            parent = Allocation(key, (m, n))
            parent_quality = total_allocation_quality(parent.coalition_masks(), domain)
            for child in successors(parent):
                masks = Allocation(child, (m, n)).coalition_masks()
                if total_allocation_quality(masks, domain) > parent_quality:
                    violations += 1
                checks += 1
    assert checks >= 10_000
    assert violations == 0, f"{violations} monotonicity violations in {checks} expansions"


def test_gp_posterior_matches_dense_reference():
    rng = np.random.default_rng(31415)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        u = int(rng.integers(1, 54))
        x = rng.uniform(size=(n, u))
        y = rng.uniform(size=n)
        length_scale = float(rng.uniform(0.5, 5.0))
        signal_var = float(rng.uniform(0.05, 1.0))
        noise_var = float(rng.uniform(1e-6, 1e-2))
        model = gp_fit(x, y, length_scale=length_scale,
                       signal_var=signal_var, noise_var=noise_var)
        xq = rng.uniform(size=(20, u))
        got_mean, got_var = gp_predict(model, xq)
        want_mean, want_var = dense_gp_reference(
            x, y, xq, length_scale=length_scale,
            signal_var=signal_var, noise_var=noise_var)
        assert np.max(np.abs(got_mean - want_mean)) < 1e-8
        assert np.max(np.abs(got_var - want_var)) < 1e-8


def test_active_learning_outperforms_uniform_sampling():
    features, labels, names = synthetic_position_dataset()
    pool_idx, eval_idx = split_eval(features.shape[0], 0.3, 0)
    pool_features = features[pool_idx]
    budget = 50
    checkpoints = range(10, budget + 1)
    for position in range(labels.shape[1]):
        column = labels[:, position]
        eval_set = (features[eval_idx], column[eval_idx])

        def labeler(i, column=column):
            return float(column[pool_idx[i]])

        _, active_trace = active_learn(
            labeler, QueryPool(pool_features), eval_set, budget)
        uniform_traces = [
            uniform_baseline(labeler, QueryPool(pool_features), eval_set, budget, seed)[1]
            for seed in range(20)
        ]
        mean_uniform = np.mean(np.array(uniform_traces), axis=0)

        wins = sum(active_trace[step - 1] <= mean_uniform[step - 1]
                   for step in checkpoints)
        assert wins >= 0.8 * len(checkpoints), \
            f"{names[position]}: ahead at only {wins}/{len(checkpoints)} checkpoints"
        assert active_trace[-1] <= mean_uniform[-1], \
            f"{names[position]}: final rmse {active_trace[-1]:.4f} " \
            f"vs uniform mean {mean_uniform[-1]:.4f}"


def test_planner_agrees_with_bfs_distances():
    rng = np.random.default_rng(99)
    accepted = 0
    while accepted < 100:
        width = int(rng.integers(2, 21))
        height = int(rng.integers(2, 21))
        p_blocked = float(rng.choice([0.0, 0.1, 0.25]))
        rows = ["".join("#" if rng.random() < p_blocked else "."
                        for _ in range(width)) for _ in range(height)]
        world = WorldMap.from_ascii(rows)
        free = [(x, y) for x in range(width) for y in range(height)
                if world.is_free((x, y))]
        if len(free) < 2:
            continue
        accepted += 1
        for _ in range(8):
            start = free[int(rng.integers(len(free)))]
            goal = free[int(rng.integers(len(free)))]
            want = bfs_grid_distance(world, start, goal)
            plan = plan_path(world, start, goal)
            if want is None:
                assert plan is None
            else:
                assert plan is not None
                assert plan.length == want
                assert euclidean_estimate(start, goal) <= plan.length


def test_infeasibility_is_signaled_consistently():
    domains = [drop_one_domain(time_budget=0.5)]
    seed = 100
    while len(domains) < 7 and seed < 200:
        domain = random_instance(seed)
        seed += 1
        if domain.n_tasks * domain.n_robots > 10:
            continue
        longest = max(t.duration for t in domain.network.tasks)
        domains.append(dataclasses.replace(domain, time_budget=0.99 * longest))
    assert len(domains) == 7
    for domain in domains:
        solution, _ = solve(domain)
        oracle = brute_force_optimal(domain)
        assert solution is None
        assert not oracle.feasible
