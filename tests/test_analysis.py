import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from staq.analysis import (
    FIRST_CHUNK,
    OracleBudgetExceeded,
    _quality_order,
    alpha_sweep,
    apriori_bound,
    bound_report,
    brute_force_optimal,
    posthoc_bound,
    random_instance,
)
from staq.learning import GPQualityMap, gp_fit
from staq.model import (
    Allocation,
    InvalidInput,
    ProblemDomain,
    Robot,
    Task,
    TaskNetwork,
    WorldMap,
    total_allocation_quality,
    validate_solution,
)
from staq.motion import GridPlanner, estimated_leg_seconds
from staq.scheduler import (
    build_constraints_fast,
    make_travel_tables,
    solve_milp,
    worst_makespan,
)
from staq.search import solve

from helpers import (
    LinearMap,
    drop_one_domain,
    open_world,
    oracle_by_enumeration,
    reference_brute_force_optimal,
    two_task_domain,
)


# ------------------------------------------------------------ bound algebra

def test_apriori_bound_values():
    assert apriori_bound(0.0, 3.0, 0.0) == 0.0
    assert apriori_bound(0.25, 3.0, 0.0) == pytest.approx(1.0)
    assert apriori_bound(0.5, 3.0, 0.0) == pytest.approx(3.0)
    assert apriori_bound(1.0, 3.0, 0.0) == math.inf
    assert apriori_bound(0.4, 2.5, 0.5) == pytest.approx(0.4 / 0.6 * 2.0)
    # a root below null, which only a map that is not monotone gives, bounds nothing
    assert apriori_bound(0.4, 0.0, 1.0) == 0.0
    assert posthoc_bound(0.4, 0.0, 1.0, 2.0) == 0.0


def test_apriori_bound_rejects_bad_inputs():
    with pytest.raises(InvalidInput):
        apriori_bound(-0.1, 1.0, 0.0)
    with pytest.raises(InvalidInput):
        apriori_bound(1.1, 1.0, 0.0)


def test_posthoc_bound_values():
    assert posthoc_bound(0.25, 3.0, 0.0, 0.0) == 0.0
    assert posthoc_bound(0.25, 3.0, 0.0, 1.0) == pytest.approx(
        apriori_bound(0.25, 3.0, 0.0))
    assert posthoc_bound(0.25, 3.0, 0.0, 0.5) == pytest.approx(0.5)
    # zero overrun beats even the infinite alpha=1 bound
    assert posthoc_bound(1.0, 3.0, 0.0, 0.0) == 0.0
    with pytest.raises(InvalidInput):
        posthoc_bound(0.25, 3.0, 0.0, -0.1)


def test_posthoc_bound_is_zero_when_the_apriori_bound_is_zero():
    # an infinite overrun times a zero a-priori bound once gave NaN
    assert posthoc_bound(0.2, 0.0, 0.0, math.inf) == 0.0   # zero quality span
    assert posthoc_bound(0.0, 1.0, 0.0, math.inf) == 0.0   # alpha 0


# ------------------------------------------------------------- bound report

def test_bound_report_without_an_oracle():
    domain = drop_one_domain(time_budget=9.0, alpha=0.4)
    sol, stats = solve(domain)
    report = bound_report(domain, sol, stats)
    assert report.alpha == 0.4
    assert report.q_root == pytest.approx(2.0)
    assert report.q_null == 0.0
    assert report.q_solution == pytest.approx(1.5)
    assert report.apriori_bound == pytest.approx(0.4 / 0.6 * 2.0)
    # best open node: quality 1.5 at key 0b0111, left open with overrun 1
    assert report.overrun_of_best_open == pytest.approx(1.0)
    assert report.posthoc_bound == pytest.approx(report.apriori_bound)
    assert not report.apriori_trivial
    assert report.guarantee_applies      # worst case 10 >= budget 9
    assert report.q_optimal is None
    assert report.gap is None
    assert report.holds_apriori is None and report.holds_posthoc is None


def test_bound_report_with_an_oracle():
    domain = drop_one_domain(time_budget=9.0, alpha=0.4)
    planner = GridPlanner(domain.world)
    sol, stats = solve(domain, planner=planner)
    oracle = brute_force_optimal(domain, planner)
    report = bound_report(domain, sol, stats, oracle=oracle)
    assert report.q_optimal == pytest.approx(1.5)
    assert report.gap == pytest.approx(0.0)
    assert report.holds_apriori and report.holds_posthoc


def test_bound_report_flags_trivial_and_inapplicable_regimes():
    domain = drop_one_domain(time_budget=9.0, alpha=0.6)
    sol, stats = solve(domain)
    report = bound_report(domain, sol, stats)
    # alpha/(1-alpha) = 1.5 stretches the bound past the whole span
    assert report.apriori_trivial

    generous = drop_one_domain(time_budget=60.0, alpha=0.4)
    sol, stats = solve(generous)
    report = bound_report(generous, sol, stats)
    assert not report.guarantee_applies   # worst case 10 << budget 60
    assert report.overrun_of_best_open == 0.0   # empty frontier
    assert report.posthoc_bound == 0.0


def test_guarantee_applies_only_to_linear_quality_maps():
    domain = drop_one_domain(time_budget=9.0)
    coalitions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    model = gp_fit(coalitions, [0.0, 0.5, 0.5, 1.0])
    learned = dataclasses.replace(
        domain, quality_maps=tuple(GPQualityMap(model) for _ in domain.network.tasks))
    sol, stats = solve(learned)
    assert stats.worst_makespan >= learned.time_budget   # the budget precondition holds
    assert not bound_report(learned, sol, stats).guarantee_applies
    assert bound_report(domain, *solve(domain)).guarantee_applies


# ------------------------------------------------------------------ oracle

def test_oracle_returns_the_root_under_a_generous_budget():
    domain = two_task_domain(time_budget=60.0)
    result = brute_force_optimal(domain)
    assert result.feasible
    assert result.allocation == Allocation.root(2, 2)
    assert result.quality == pytest.approx(
        total_allocation_quality(Allocation.root(2, 2).coalition_masks(), domain))
    assert result.n_strictly_better == 0


def test_oracle_matches_independent_enumeration():
    domain = drop_one_domain(time_budget=9.0)
    planner = GridPlanner(domain.world)
    result = brute_force_optimal(domain, planner)
    want = oracle_by_enumeration(domain, GridPlanner(domain.world))
    assert result.feasible
    assert result.quality == pytest.approx(want[0])
    assert result.makespan == pytest.approx(want[2])
    assert result.quality == pytest.approx(1.5)
    assert result.makespan == pytest.approx(9.0)


def test_oracle_breaks_quality_ties_toward_the_smaller_key():
    domain = drop_one_domain(time_budget=9.0)
    result = brute_force_optimal(domain)
    # keys 0b1011 and 0b1101 both score 1.5 and fit; 0b0111 scores 1.5
    # but needs 10s. Scan order is quality-descending, then key-ascending.
    assert result.allocation.key == 0b1011
    assert result.n_strictly_better == 1     # only the root scores higher
    assert result.n_scheduled == 3           # root, 0b0111, then the winner


def test_oracle_reports_infeasible_when_nothing_fits():
    domain = drop_one_domain(time_budget=0.5)
    result = brute_force_optimal(domain)
    assert not result.feasible
    assert result.quality is None and result.allocation is None
    assert result.n_strictly_better == 16
    assert result.n_scheduled == 0   # the arrival floor prunes everything


def test_oracle_degrades_to_the_null_allocation_when_walled_off():
    world = WorldMap.from_ascii((".#.", ".#.", ".#."))
    robots = (Robot(traits=np.array([1.0]), start_cell=(0, 0), speed=1.0),)
    tasks = (Task(duration=1.0, start_site=(2, 0), end_site=(2, 0)),)
    net = TaskNetwork(tasks=tasks, precedence=frozenset(), mutex=frozenset())
    domain = ProblemDomain(network=net, robots=robots,
                           quality_maps=(LinearMap([1.0], 2.0),),
                           world=world, time_budget=100.0)
    result = brute_force_optimal(domain)
    assert result.feasible
    assert result.allocation == Allocation.null(1, 1)
    assert result.quality == 0.0


def test_oracle_schedule_cap_aborts_before_the_next_solve():
    domain = drop_one_domain(time_budget=9.0)
    with pytest.raises(OracleBudgetExceeded):
        brute_force_optimal(domain, schedule_cap=2)
    result = brute_force_optimal(domain, schedule_cap=3)
    assert result.feasible and result.n_scheduled == 3


def test_oracle_rejects_oversized_instances():
    world = open_world(10, 10)
    robots = tuple(Robot(traits=np.array([1.0]), start_cell=(i, 0),
                         speed=1.0) for i in range(3))
    tasks = tuple(Task(duration=1.0, start_site=(i, 2), end_site=(i, 2))
                  for i in range(7))
    net = TaskNetwork(tasks=tasks, precedence=frozenset(), mutex=frozenset())
    domain = ProblemDomain(network=net, robots=robots,
                           quality_maps=(LinearMap([1.0]),) * 7,
                           world=world, time_budget=100.0)
    with pytest.raises(InvalidInput):
        brute_force_optimal(domain)    # 21 assignment bits


def test_oracle_agrees_with_search_on_feasibility():
    checked = 0
    for seed in range(12):
        if checked == 6:
            break
        domain = random_instance(seed)
        planner = GridPlanner(domain.world)
        try:
            result = brute_force_optimal(domain, planner, schedule_cap=2000)
        except OracleBudgetExceeded:
            continue
        checked += 1
        sol, _ = solve(domain, planner=planner)
        assert result.feasible == (sol is not None)
        if sol is not None:
            assert sol.total_quality <= result.quality + 1e-9
    assert checked == 6


# Oracle results on generated instances. Sharing branch-and-bound runs among
# allocations with equal constraint sets must leave them, and the allocation
# count the cap applies to, exactly as they are. Seeds 0 and 5 need 32,768 and
# 254,969 allocations, so they are checked against the cap instead.
ORACLE_CAP = 6000
ORACLE_PINNED = (
    # seed, allocations scheduled, quality, allocation key, makespan
    (1, 41, 2.520409893242477, 3966, 48.05130555531302),
    (2, 175, 3.016299682787169, 2555, 37.728867227943866),
    (3, 1380, 2.267236468578827, 2255, 44.957103340494996),
    (4, 5415, 3.152565964171837, 1021439, 53.826874626668896),
    (6, 1330, 1.7166314835780336, 3749, 29.233215622626663),
    (7, 5131, 2.768511106637532, 12253, 49.15213991258618),
)


@pytest.mark.parametrize("seed,scheduled,quality,key,makespan", ORACLE_PINNED)
def test_oracle_results_are_pinned(seed, scheduled, quality, key, makespan):
    domain = random_instance(seed)
    result = brute_force_optimal(domain, schedule_cap=ORACLE_CAP)
    assert (result.n_scheduled, result.quality, result.allocation.key, result.makespan) == (
        scheduled, quality, key, makespan)


@pytest.mark.parametrize("seed", (0, 5))
def test_oracle_cap_counts_allocations_not_solver_runs(seed):
    with pytest.raises(OracleBudgetExceeded, match=f"after scheduling {ORACLE_CAP} allocations"):
        brute_force_optimal(random_instance(seed), schedule_cap=ORACLE_CAP)


def _oracle_outcome(oracle, domain, cap):
    try:
        return oracle(domain, GridPlanner(domain.world), schedule_cap=cap)
    except OracleBudgetExceeded as exc:
        return str(exc)


@pytest.mark.parametrize(
    "seed,cap",
    [(seed, cap) for cap in (3000, 20000) for seed in range(17)]
    + [(pinned[0], ORACLE_CAP) for pinned in ORACLE_PINNED],
)
def test_oracle_equals_the_per_allocation_scan(seed, cap):
    """Every field, n_scheduled included, and each cap message."""
    domain = random_instance(seed)
    assert _oracle_outcome(brute_force_optimal, domain, cap) == _oracle_outcome(
        reference_brute_force_optimal, domain, cap)


def test_an_uncapped_oracle_streams_past_one_block():
    """20 assignment bits, uncapped: the scan reads its order block after
    block, far past one chunk's width, and still finds the optimum."""
    result = brute_force_optimal(random_instance(5))
    assert (result.n_scheduled, result.allocation.key) == (254969, 217068)


def test_oracle_holds_no_array_over_every_allocation():
    """20 assignment bits: arrays over all 2^20 keys (totals, arrival
    floors, a partition copy) peaked at about 20 MB; blocks of BLOCK_KEYS
    keys stay near 3 MB."""
    domain = random_instance(5)
    assert domain.n_tasks * domain.n_robots == 20
    tracemalloc.start()
    try:
        with pytest.raises(OracleBudgetExceeded):
            brute_force_optimal(domain, schedule_cap=ORACLE_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_oracle_decides_infeasibility_from_the_empty_allocation():
    """20 assignment bits and a budget just under the empty allocation's
    makespan: the per-allocation scan schedules 524,288 allocations."""
    domain = random_instance(4)
    assert domain.n_tasks * domain.n_robots == 20
    tables = make_travel_tables(domain, estimated_leg_seconds(domain))
    empty = solve_milp(build_constraints_fast(tables, [0] * domain.n_tasks)).schedule.makespan
    domain = dataclasses.replace(domain, time_budget=0.999 * empty)
    start = time.perf_counter()
    result = brute_force_optimal(domain, schedule_cap=ORACLE_CAP)
    assert time.perf_counter() - start < 1.0
    assert not result.feasible
    assert (result.n_strictly_better, result.n_scheduled) == (2**20, 1)


def test_oracle_tabulates_a_wide_team():
    """One task, 20 robots, and a budget the whole team meets, so the root
    is the first allocation scanned. Filling the 2^20 masks' qualities and
    arrivals one mask at a time took about 30 s on a 2-CPU host."""
    robots = tuple(Robot(traits=np.array([1.0 + k % 3]), start_cell=(k % 5, k // 5), speed=1.0)
                   for k in range(20))
    task = Task(duration=4.0, start_site=(0, 0), end_site=(0, 0))
    domain = ProblemDomain(network=TaskNetwork(tasks=(task,)), robots=robots,
                           quality_maps=(LinearMap([1.0], 50.0),), world=open_world(5, 4),
                           time_budget=100.0)
    result = brute_force_optimal(domain)
    root = Allocation.root(1, 20)
    # the farthest robot walks 4 + 3 cells at one cell per second
    assert (result.allocation, result.makespan, result.n_scheduled) == (root, 11.0, 1)
    assert (result.quality, result.n_strictly_better) == (domain.task_quality(0, root.key), 0)


def test_oracle_on_lazy_tables_matches_the_tabulated_oracle(monkeypatch):
    import staq.model as model

    for seed in (1, 2, 6):   # 41, 175 and 1,330 allocations scheduled
        domain = random_instance(seed)
        want = brute_force_optimal(domain)
        with monkeypatch.context() as patch:
            patch.setattr(model, "TABLE_MAX_ROBOTS", 0)
            assert brute_force_optimal(dataclasses.replace(domain)) == want


def _stable_order(totals, too_slow):
    return [int(k) for k in np.argsort(-totals, kind="stable") if not too_slow[k]]


def _blocked_chunks(totals, too_slow, width):
    """_quality_order's chunks over the flat arrays cut into blocks of
    width keys."""
    def block(b):
        return totals[b * width:(b + 1) * width], too_slow[b * width:(b + 1) * width]

    chunks = [chunk.tolist() for chunk in _quality_order(block, totals.size, width)]
    assert all(chunks)
    return chunks


def _joined(chunks):
    return [key for chunk in chunks for key in chunk]


def _block_widths(size):
    """1 and 7 straddle ties across blocks and chunks; the last is whole."""
    return (1, 7, FIRST_CHUNK, max(size, 1))


@pytest.mark.parametrize(
    "size", (0, 1, FIRST_CHUNK - 1, FIRST_CHUNK, FIRST_CHUNK + 1, 5000))
@pytest.mark.parametrize("distinct", (3, 40, None))
def test_quality_order_is_the_filtered_stable_argsort(size, distinct):
    """Few distinct totals put ties across every chunk threshold; None draws
    (almost surely) distinct ones, whose chunks stop growing at the block
    width. Each case runs at every block width."""
    rng = np.random.default_rng(size)
    if distinct is None:
        totals = rng.random(size)
    else:
        totals = rng.integers(0, distinct, size) / 4.0
    too_slow = rng.random(size) < 0.3
    kept = totals.copy()
    for width in _block_widths(size):
        chunks = _blocked_chunks(totals, too_slow, width)
        assert _joined(chunks) == _stable_order(totals, too_slow)
        assert np.array_equal(totals, kept)
        assert _joined(_blocked_chunks(totals, np.zeros(size, dtype=bool), width)) == _stable_order(
            totals, np.zeros(size, dtype=bool))
        if distinct is None:
            assert max(map(len, chunks), default=0) <= max(width, FIRST_CHUNK)


def test_quality_order_is_empty_when_every_key_is_too_slow():
    totals = np.random.default_rng(0).integers(0, 5, 5000) / 4.0
    for width in _block_widths(5000):
        assert _blocked_chunks(totals, np.ones(5000, dtype=bool), width) == []


# ------------------------------------------------------------------- sweep

def test_sweep_covers_the_default_alpha_grid():
    domain = drop_one_domain(time_budget=9.0)
    rows = alpha_sweep(domain)
    assert [r.alpha for r in rows] == [round(i / 10, 1) for i in range(11)]
    for row in rows:
        assert -1e-9 <= row.norm_gap <= 1.0 + 1e-9
        assert row.makespan <= domain.time_budget + 1e-9


def test_sweep_hand_checked_row():
    domain = drop_one_domain(time_budget=9.0)
    rows = alpha_sweep(domain)
    row = rows[4]    # alpha = 0.4
    assert row.alpha == 0.4
    assert row.quality == pytest.approx(1.5)
    assert row.makespan == pytest.approx(9.0)
    assert row.norm_gap == pytest.approx(0.0)
    assert row.norm_apriori_bound == pytest.approx((0.4 / 0.6 * 2.0) / 2.0)
    assert row.holds_apriori and row.holds_posthoc


def test_sweep_quality_extremes_sit_at_the_alpha_endpoints():
    domain = drop_one_domain(time_budget=9.0)
    rows = alpha_sweep(domain)
    qualities = [r.quality for r in rows]
    assert rows[0].norm_gap <= 1e-9                  # alpha = 0 is exact here
    assert qualities[0] >= max(qualities) - 1e-9
    assert qualities[-1] <= min(qualities) + 1e-9
    for row in rows:
        if row.alpha < 0.5:
            assert row.holds_apriori


def test_sweep_normalized_bound_is_one_at_the_midpoint():
    domain = drop_one_domain(time_budget=9.0)
    rows = alpha_sweep(domain)
    assert rows[5].alpha == 0.5
    assert rows[5].norm_apriori_bound == pytest.approx(1.0)
    assert math.isinf(rows[10].norm_apriori_bound)


def test_sweep_returns_none_on_an_infeasible_instance():
    domain = drop_one_domain(time_budget=0.5)
    assert alpha_sweep(domain) is None


def test_sweep_is_deterministic():
    domain = drop_one_domain(time_budget=9.0)
    assert alpha_sweep(domain) == alpha_sweep(domain)


def test_sweep_accepts_a_precomputed_oracle():
    domain = drop_one_domain(time_budget=9.0)
    planner = GridPlanner(domain.world)
    oracle = brute_force_optimal(domain, planner)
    rows = alpha_sweep(domain, alphas=(0.0, 0.4), planner=planner, oracle=oracle)
    assert len(rows) == 2
    assert rows == alpha_sweep(domain, alphas=(0.0, 0.4))


# -------------------------------------------------------- random instances

def test_random_instances_are_deterministic_per_seed():
    a = random_instance(12)
    b = random_instance(12)
    assert a.n_tasks == b.n_tasks and a.n_robots == b.n_robots
    assert a.time_budget == b.time_budget
    assert a.world.occupied == b.world.occupied
    assert np.array_equal(a.traits, b.traits)
    assert [r.start_cell for r in a.robots] == [r.start_cell for r in b.robots]


def test_random_instances_stay_inside_the_documented_envelope():
    for seed in range(8):
        domain = random_instance(seed)
        assert 2 <= domain.n_tasks <= 4
        assert 3 <= domain.n_robots <= 5
        assert 2 <= domain.n_traits <= 3
        assert domain.n_tasks * domain.n_robots <= 20
        # full team scores one per task...
        root = Allocation.root(domain.n_tasks, domain.n_robots)
        assert total_allocation_quality(root.coalition_masks(), domain) == pytest.approx(
            domain.n_tasks)
        # ...and the worst-case makespan reaches the budget
        assert worst_makespan(domain) >= domain.time_budget - 1e-9


def test_random_instances_always_admit_the_empty_allocation():
    for seed in range(8):
        domain = random_instance(seed)
        planner = GridPlanner(domain.world)
        sol, _ = solve(domain, planner=planner)
        assert sol is not None
        assert validate_solution(domain, sol, planner).ok


def test_random_instance_alpha_override():
    assert random_instance(0).alpha == 0.4
    assert random_instance(0, alpha=0.2).alpha == 0.2
