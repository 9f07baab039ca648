import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from staq import scheduler, search
from staq.analysis import alpha_sweep, bound_report, brute_force_optimal, random_instance
from staq.heuristics import node_scorer
from staq.learning import LinearQualityMap
from staq.model import (
    Allocation,
    ContractViolation,
    ProblemDomain,
    Robot,
    Task,
    TaskNetwork,
    WorldMap,
    total_allocation_quality,
    validate_solution,
)
from staq.motion import GridPlanner, estimated_leg_seconds, planned_leg_seconds
from staq.scheduler import (
    build_constraints_fast,
    make_travel_tables,
    solve_milp,
    worst_makespan,
)
from staq.search import FrontierEntry, OpenSet, solve

from helpers import (
    LinearMap,
    allocation_from_entries,
    blend,
    budget_overrun,
    drop_one_domain,
    gp_below_null_domain,
    normalized_quality_loss,
    one_robot_peak_domain,
    open_world,
    two_task_domain,
    wide_team_domain,
)


# --------------------------------------------------------------- open set

def _push(heap, key, blended, depth):
    heap.push(depth, key, 0.0, None, blended)


def _pop(heap):
    """(rounded blend, depth, key) of the entry popped."""
    rounded, depth, key, _, _ = heap.pop()
    return rounded, depth, key


def test_open_set_orders_by_blended_score():
    heap = OpenSet()
    _push(heap, 1, 0.4, 1)
    _push(heap, 2, 0.3, 2)
    assert _pop(heap)[0] == 0.3
    assert _pop(heap)[0] == 0.4


def test_open_set_ties_prefer_shallower_nodes():
    heap = OpenSet()
    _push(heap, 1, 0.3, 2)
    _push(heap, 2, 0.3, 1)
    assert _pop(heap)[1] == 1


def test_open_set_ties_prefer_smaller_keys():
    heap = OpenSet()
    _push(heap, 9, 0.3, 1)
    _push(heap, 5, 0.3, 1)
    assert _pop(heap)[2] == 5


def test_open_set_rounds_scores_before_comparing():
    heap = OpenSet()
    _push(heap, 9, 0.3 + 1e-12, 1)   # ties with 0.3 after rounding
    _push(heap, 5, 0.3, 2)
    assert _pop(heap)[1] == 1


def test_open_set_pop_empty_is_a_contract_violation():
    with pytest.raises(ContractViolation):
        OpenSet().pop()


def test_open_set_best_picks_quality_then_key():
    assert OpenSet().best() is None
    heap = OpenSet()
    heap.push(1, 9, 1.5, 3.0, 0.1)
    heap.push(1, 4, 1.5, 7.0, 0.2)
    heap.push(1, 2, 0.9, None, 0.0)
    # quality tie resolved toward the smaller key
    assert heap.best() == (0.2, 1, 4, 1.5, 7.0)


class RecordingOpenSet(OpenSet):
    """An open set that keeps every entry it stored: those popped, and
    those still open when best() is read at acceptance."""

    def __init__(self):
        super().__init__()
        self.popped = []
        self.open_at_acceptance = None

    def pop(self):
        entry = super().pop()
        self.popped.append(entry)
        return entry

    def best(self):
        self.open_at_acceptance = list(self._heap)
        return super().best()


@pytest.fixture
def recorded(monkeypatch):
    """The open sets each solve makes while the fixture is active."""
    made = []

    def make():
        made.append(RecordingOpenSet())
        return made[-1]

    monkeypatch.setattr(search, "OpenSet", make)
    return made


def _stored(open_set):
    return open_set.popped + (open_set.open_at_acceptance or [])


def test_open_entries_hold_numbers_only(recorded):
    domains = [random_instance(seed) for seed in range(4)]
    for domain in domains + [drop_one_domain()]:
        solve(domain)
        entries = _stored(recorded[-1])
        assert len(entries) > 1
        for entry in entries:
            assert type(entry) is tuple and len(entry) == 5
            assert all(type(x) in (int, float, type(None)) for x in entry), entry


def test_best_open_is_the_best_recorded_open_entry(recorded):
    for domain in [random_instance(seed) for seed in range(10)] + [drop_one_domain()]:
        sol, stats = solve(domain)
        assert sol is not None
        score = node_scorer(stats.quality_root, stats.quality_null, stats.worst_makespan,
                            domain.time_budget, domain.alpha)
        want = None
        open_entries = sorted(recorded[-1].open_at_acceptance, key=lambda e: e[2])
        for _, _, key, quality, makespan in open_entries:
            if want is None or quality > want.quality:
                want = FrontierEntry(key, quality, *score(quality, makespan)[1:])
        assert stats.best_open == want


def test_open_set_stays_small_per_generated_node():
    # an open entry holds numbers only; with its outcome and three scores
    # as well it took about 500 B per node (Python 3.11), now about 350 B
    domain = random_instance(7, alpha=0.1)
    tracemalloc.start()
    try:
        _, stats = solve(domain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.nodes_generated > 7000
    assert peak / stats.nodes_generated <= 380


# ------------------------------------------------------------ termination

def test_generous_budget_accepts_the_full_team_immediately():
    domain = two_task_domain(time_budget=60.0)
    sol, stats = solve(domain)
    assert sol is not None
    assert sol.allocation == Allocation.root(2, 2)
    assert stats.nodes_expanded == 0
    assert stats.nodes_generated == 1
    assert sol.quality_loss == 0.0
    assert sol.overrun == 0.0
    assert validate_solution(domain, sol).ok
    assert stats.worst_makespan == pytest.approx(worst_makespan(domain))


def test_budget_equal_to_worst_case_still_accepts_the_root():
    domain = drop_one_domain(time_budget=10.0)
    sol, stats = solve(domain)
    assert sol.allocation == Allocation.root(2, 2)
    assert sol.total_quality == pytest.approx(2.0)
    assert sol.schedule.makespan == pytest.approx(10.0)
    assert stats.nodes_expanded == 0


def test_tight_budget_drops_exactly_one_assignment():
    domain = drop_one_domain(time_budget=9.0)
    sol, stats = solve(domain)
    assert sol is not None
    assert sol.allocation.key.bit_count() == 3
    # deterministic tie-break: the smaller-key optimum wins
    assert sol.allocation == allocation_from_entries(np.array([[1, 0], [1, 1]]))
    assert sol.total_quality == pytest.approx(1.5)
    assert sol.schedule.makespan == pytest.approx(9.0)
    assert sol.quality_loss == pytest.approx(0.25)
    assert validate_solution(domain, sol).ok


def test_stats_account_for_the_whole_expansion(recorded):
    domain = drop_one_domain(time_budget=9.0)
    sol, stats = solve(domain)
    assert stats.nodes_generated == 5        # root + its four children
    assert stats.nodes_expanded == 1
    assert stats.duplicates_skipped == 0
    assert stats.scheduler_calls == 5
    assert stats.quality_root == pytest.approx(2.0)
    assert stats.quality_null == 0.0
    assert stats.worst_makespan == pytest.approx(10.0)
    open_keys = sorted(e[2] for e in recorded[-1].open_at_acceptance)
    assert open_keys == [0b0111, 0b1101, 0b1110]
    assert all(e[3] == pytest.approx(1.5) for e in recorded[-1].open_at_acceptance)
    assert stats.best_open.key == 0b0111
    assert stats.best_open.quality == pytest.approx(1.5)


def test_solve_normalizes_by_the_domain_quality_extremes():
    domain = two_task_domain(alpha=0.3)
    sol, stats = solve(domain)
    m, n = domain.n_tasks, domain.n_robots
    assert stats.quality_root == total_allocation_quality(
        Allocation.root(m, n).coalition_masks(), domain)
    assert stats.quality_null == 0.0
    assert stats.worst_makespan == worst_makespan(domain)
    loss = normalized_quality_loss(sol.total_quality, stats.quality_root, stats.quality_null)
    overrun = budget_overrun(sol.schedule.makespan, stats.worst_makespan, domain.time_budget)
    assert (sol.quality_loss, sol.overrun, sol.blended) == (loss, overrun, blend(loss, overrun, 0.3))


def test_impossible_budget_is_decided_by_the_empty_allocation():
    domain = drop_one_domain(time_budget=0.5)
    sol, stats = solve(domain)
    assert sol is None
    assert stats.best_open is None
    assert stats.nodes_generated == 1        # the root, never expanded
    assert stats.nodes_expanded == 0
    assert stats.bnb_runs == 2               # the root and the empty allocation


def test_an_impossible_budget_reads_no_whole_table(monkeypatch):
    class Counting:
        def __init__(self, inner):
            self.inner, self.calls = inner, 0

        def __call__(self, traits):
            self.calls += 1
            return self.inner(traits)

    base = drop_one_domain(time_budget=0.5)
    maps = tuple(Counting(qm) for qm in base.quality_maps)
    domain = dataclasses.replace(base, quality_maps=maps)
    derived = []
    real_piece = scheduler._piece
    monkeypatch.setattr(
        scheduler, "_piece", lambda t, c, mask: derived.append(mask) or real_piece(t, c, mask)
    )
    assert solve(domain)[0] is None
    # only the root's coalition and the empty one, per task and per column
    full = 2 ** domain.n_robots - 1
    assert [qm.calls for qm in maps] == [2] * domain.n_tasks
    assert sorted(set(derived)) == [0, full]


def _empty_outcome(domain):
    """The empty allocation's branch-and-bound outcome."""
    tables = make_travel_tables(domain, estimated_leg_seconds(domain))
    return solve_milp(build_constraints_fast(tables, [0] * domain.n_tasks))


def test_an_empty_allocation_just_over_budget_ends_the_search_at_once():
    # 4 tasks x 5 robots: expanding all 2^20 allocations took about 26 s on a
    # 2-CPU host
    domain = random_instance(4)
    budget = 0.999 * _empty_outcome(domain).schedule.makespan
    domain = dataclasses.replace(domain, time_budget=budget)
    started = time.perf_counter()
    sol, stats = solve(domain)
    assert time.perf_counter() - started < 1.0
    assert sol is None
    assert (stats.nodes_expanded, stats.bnb_runs) == (0, 2)


def test_exhausting_the_graph_while_the_empty_allocation_fits_is_a_contract_violation(
        monkeypatch):
    # with no children the overrunning root is the whole graph: a search bug
    monkeypatch.setattr(search, "successors", lambda alloc: [])
    with pytest.raises(ContractViolation):
        solve(drop_one_domain(time_budget=9.0))


def test_unreachable_task_degrades_to_the_empty_allocation():
    # the only robot is walled off from the only task's site: estimates say
    # fine, planned refinement says never, so the root is reinserted and the
    # search falls back to assigning nobody
    world = WorldMap.from_ascii((".#.", ".#.", ".#."))
    robots = (Robot(traits=np.array([1.0]), start_cell=(0, 0), speed=1.0),)
    tasks = (Task(duration=1.0, start_site=(2, 0), end_site=(2, 0)),)
    net = TaskNetwork(tasks=tasks, precedence=frozenset(), mutex=frozenset())
    domain = ProblemDomain(network=net, robots=robots,
                           quality_maps=(LinearMap([1.0], 2.0),),
                           world=world, time_budget=100.0)
    sol, stats = solve(domain)
    assert sol is not None
    assert sol.allocation == Allocation.null(1, 1)
    assert sol.total_quality == 0.0
    assert stats.reinserted >= 1
    report = validate_solution(domain, sol)
    assert report.ok
    assert report.empty_coalitions == (0,)


def test_unreachable_handover_in_the_unused_direction_still_validates():
    # a wall splits the map, so the only robot can go from task 1's end to
    # task 0's start but never from task 0's end to task 1's start
    world = WorldMap.from_ascii(("...#...", "...#...", "...#..."))
    robots = (Robot(traits=np.array([1.0]), start_cell=(0, 0), speed=1.0),)
    tasks = (Task(duration=1.0, start_site=(1, 0), end_site=(5, 0)),
             Task(duration=1.0, start_site=(2, 1), end_site=(0, 2)))
    domain = ProblemDomain(network=TaskNetwork(tasks=tasks), robots=robots,
                           quality_maps=(LinearMap([1.0]),) * 2,
                           world=world, time_budget=100.0)
    sol, _ = solve(domain)
    assert sol.allocation == Allocation.root(2, 1)
    assert sol.orderings == {(0, 1): -1}
    report = validate_solution(domain, sol)
    assert report.ok, report.violations


def _margin_dwarfs_excess_domain(fast_cell, phase):
    # one 1e-9 s task at (0, 0), a robot of speed 1e10 next to it and one of
    # speed 1e-300 in the far corner: the root's makespan, about 1e301 s,
    # sets the overrun's margin, so an excess of one ulp over the budget
    # scores an overrun of 0.0. The budget is one ulp below the fast
    # robot's makespan alone under the given phase's travel.
    robots = (Robot(traits=np.array([1.0]), start_cell=fast_cell, speed=1e10),
              Robot(traits=np.array([1.0]), start_cell=(7, 7), speed=1e-300))
    tasks = (Task(duration=1e-9, start_site=(0, 0), end_site=(0, 0)),)
    domain = ProblemDomain(network=TaskNetwork(tasks=tasks), robots=robots,
                           quality_maps=(LinearQualityMap([1.0], 2.0),),
                           world=open_world(8, 8), time_budget=1.0)
    leg_seconds = {"estimated": estimated_leg_seconds(domain),
                   "planned": planned_leg_seconds(GridPlanner(domain.world), domain)}[phase]
    fast_only = [0b10]   # robot 0 is the mask's high bit
    tables = make_travel_tables(domain, leg_seconds)
    makespan = solve_milp(build_constraints_fast(tables, fast_only)).schedule.makespan
    return dataclasses.replace(domain, time_budget=math.nextafter(makespan, 0.0)), makespan


@pytest.mark.parametrize("fast_cell,phase,makespan", [
    # the fast-only node scores overrun 0.0 though its estimated makespan is
    # over the budget: it has no kept set, where the pop test read overrun
    ((1, 0), "estimated", 1.1e-09),
    # the straight-line estimate fits, and the planned makespan's overrun
    # scores 0.0: the acceptance test read overrun and took it
    ((1, 1), "planned", 1.2e-09),
])
def test_the_budget_is_judged_by_makespan_where_overrun_rounds_to_zero(
        fast_cell, phase, makespan):
    domain, fast_only = _margin_dwarfs_excess_domain(fast_cell, phase)
    assert fast_only == pytest.approx(makespan, rel=1e-12)
    score = node_scorer(1.0, 0.0, worst_makespan(domain), domain.time_budget, domain.alpha)
    assert score(0.5, fast_only)[1] == 0.0
    oracle = brute_force_optimal(domain)
    sol, _ = solve(domain)
    assert sol.allocation == oracle.allocation
    assert sol.allocation.key == 0
    assert sol.schedule.makespan == oracle.makespan <= domain.time_budget
    assert validate_solution(domain, sol).ok


# ------------------------------------------------------------- invariants

def dip_domain():
    """Quality map with a deliberate dip: removing help can raise quality.

    One task, three interchangeable robots; quality by coalition size is
    0, 0.5, 0.2, 1, so going from two helpers down to one gains quality
    while staying inside the null-to-root range.
    """
    world = open_world(4, 4)
    robots = tuple(Robot(traits=np.array([1.0]), start_cell=(i, 0),
                         speed=1.0) for i in range(3))
    tasks = (Task(duration=1.0, start_site=(0, 0), end_site=(0, 0)),)
    net = TaskNetwork(tasks=tasks, precedence=frozenset(), mutex=frozenset())
    by_size = {0: 0.0, 1: 0.5, 2: 0.2, 3: 1.0}
    maps = (lambda y: by_size[round(float(y[0]))],)
    # the root (makespan 3) and robots {0, 1} (makespan 2) overrun, so the
    # search expands that pair and meets the dip; robot 0 alone fits
    return ProblemDomain(network=net, robots=robots, quality_maps=maps,
                         world=world, time_budget=1.5)


def test_non_monotone_maps_pass_without_the_checker():
    sol, stats = solve(dip_domain())
    assert sol is not None and stats.nodes_expanded >= 2


@pytest.mark.parametrize("make", [gp_below_null_domain, one_robot_peak_domain])
def test_maps_that_are_not_monotone_solve_and_sweep(make):
    """A learned map whose root scores below the empty allocation, and a map
    that peaks at one robot, both of which the model accepts: the search and
    the sweep score them, the solution validates and scores no better than
    the optimum, and no bound report or sweep row has a NaN field."""
    domain = make()
    oracle = brute_force_optimal(domain)
    sol, stats = solve(domain)
    assert validate_solution(domain, sol).ok
    assert sol.total_quality <= oracle.quality + 1e-9
    report = bound_report(domain, sol, stats, oracle=oracle)
    assert not report.guarantee_applies
    rows = alpha_sweep(domain, oracle=oracle)
    assert len(rows) == 11
    for record in [report, *rows]:
        assert not any(isinstance(x, float) and math.isnan(x) for x in dataclasses.astuple(record))


# ---------------------------------------------------------- schedule cache

def test_schedule_cache_is_shared_across_alpha_values():
    domain = two_task_domain(time_budget=60.0)
    cache = {}
    sol1, stats1 = solve(domain, schedule_cache=cache)
    (memo,) = cache.values()   # one table
    # the sets the memo holds: by signature, and refinement's by content;
    # the root and the empty allocation are in both
    assert stats1.bnb_runs == len(memo.makespans) + len(memo.outcomes) - 2 > 0

    other = dataclasses.replace(domain, alpha=0.1)
    sol2, stats2 = solve(other, schedule_cache=cache)
    assert (stats2.bnb_runs, stats2.bnb_nodes) == (0, 0)   # every set was cached
    assert stats2.scheduler_calls == stats1.scheduler_calls   # allocations, served or not
    assert sol2.allocation == sol1.allocation
    assert sol2.schedule == sol1.schedule


def test_cached_and_uncached_runs_agree():
    domain = drop_one_domain(time_budget=9.0)
    cache = {}
    sol1, _ = solve(domain, schedule_cache=cache)
    sol2, _ = solve(domain, schedule_cache=cache)
    sol3, _ = solve(domain)
    assert sol1.allocation == sol2.allocation == sol3.allocation
    assert sol1.schedule.start_times == sol2.schedule.start_times
    assert sol1.schedule.start_times == sol3.schedule.start_times


def _assert_same_search(got, want):
    """Equal solutions and schedules, and equal stats but for the
    branch-and-bound runs a shared cache may have served."""
    (sol, stats), (want_sol, want_stats) = got, want
    assert sol.allocation == want_sol.allocation
    assert sol.schedule == want_sol.schedule
    assert sol.orderings == want_sol.orderings
    assert (sol.total_quality, sol.blended) == (want_sol.total_quality, want_sol.blended)
    unserved = dict(bnb_runs=0, bnb_nodes=0)
    assert dataclasses.replace(stats, **unserved) == dataclasses.replace(want_stats, **unserved)


def _recording_milp(monkeypatch):
    """The sets branch and bound runs on from now on, in order."""
    scheduled = []
    real_milp = search.solve_milp

    def recording(cs):
        scheduled.append(cs)
        return real_milp(cs)

    monkeypatch.setattr(search, "solve_milp", recording)
    return scheduled


def test_a_shared_cache_keeps_one_memo_per_budget():
    for seed in (1, 3):
        domain = random_instance(seed)
        wider = dataclasses.replace(domain, time_budget=1.1 * domain.time_budget)
        cache = {}
        for tuned in (domain, wider):
            got, want = solve(tuned, schedule_cache=cache), solve(tuned)
            _assert_same_search(got, want)
            assert got[1] == want[1], f"seed {seed}"   # bnb_runs included
        assert sorted(budget for _, budget in cache) == [domain.time_budget, wider.time_budget]


def test_an_alpha_sweep_past_the_table_cap_shares_one_cache(monkeypatch):
    # past model.TABLE_MAX_ROBOTS piece ids follow first reads, so solves
    # share the first solve's table object, and with it its numbering
    import staq.model as model

    monkeypatch.setattr(model, "TABLE_MAX_ROBOTS", 0)
    # the solves read pieces in different orders: numbered per solve, the
    # ids of the later ones would name other sets than the memo's
    domain = random_instance(5)
    cache = {}
    for alpha in (0.2, 0.4, 1.0):
        tuned = dataclasses.replace(domain, alpha=alpha)
        _assert_same_search(solve(tuned, schedule_cache=cache), solve(tuned))
    assert len(cache) == 1


def test_different_instances_may_share_one_cache():
    cache = {}
    for seed in (0, 1, 0, 1):
        domain = random_instance(seed)
        _assert_same_search(solve(domain, schedule_cache=cache), solve(domain))
    assert len(cache) == 2   # one memo per estimated travel table


def test_a_repeated_solve_on_a_shared_cache_runs_nothing(monkeypatch):
    scheduled = _recording_milp(monkeypatch)
    for seed in (0, 5):
        domain = random_instance(seed)
        cache = {}
        solve(domain, schedule_cache=cache)
        scheduled.clear()
        again = solve(domain, schedule_cache=cache)
        assert scheduled == []
        assert (again[1].bnb_runs, again[1].bnb_nodes) == (0, 0)
        _assert_same_search(again, solve(domain))


def test_planner_calls_count_the_astar_runs_of_one_solve():
    domain = two_task_domain(time_budget=60.0)
    planner = GridPlanner(domain.world)
    counts = [solve(domain, planner=planner)[1].planner_calls for _ in range(3)]
    assert counts[0] == planner.calls - planner.cache_hits > 0
    assert counts[1:] == [0, 0]   # every leg is a memo hit the second time


class _NoPathPlanner(GridPlanner):
    """A GridPlanner whose A* finds no path for one leg; its distances, and
    so the search's planned travel, are the world's."""

    def __init__(self, world, leg):
        super().__init__(world)
        self.leg = leg

    def plan(self, start, goal):
        return None if (start, goal) == self.leg else super().plan(start, goal)


def test_an_accepted_leg_without_a_path_is_a_contract_violation():
    domain = two_task_domain(time_budget=60.0)
    solution, _ = solve(domain)
    plan = next(iter(solution.motion_plans.values()))
    planner = _NoPathPlanner(domain.world, (plan.cells[0], plan.cells[-1]))
    with pytest.raises(ContractViolation, match="cannot reach"):
        solve(domain, planner=planner)


def test_search_on_lazy_tables_matches_the_tabulated_search(monkeypatch):
    import staq.model as model

    for seed in (0, 1, 2, 3, 6, 8):
        domain = random_instance(seed)
        want = solve(domain)
        with monkeypatch.context() as patch:
            patch.setattr(model, "TABLE_MAX_ROBOTS", 0)
            got = solve(dataclasses.replace(domain))
        assert got[1] == want[1]
        assert got[0].allocation == want[0].allocation
        assert got[0].schedule == want[0].schedule
        assert got[0].total_quality == want[0].total_quality


@pytest.mark.parametrize("n_robots, seed", [(8, 0), (8, 3), (9, 0), (9, 1), (9, 5)])
def test_a_team_past_the_table_cap_searches_as_a_tabulated_one(monkeypatch, n_robots, seed):
    import staq.model as model

    domain = wide_team_domain(seed, n_robots)
    assert n_robots > model.TABLE_MAX_ROBOTS
    solution, stats = solve(domain)
    with monkeypatch.context() as patch:
        patch.setattr(model, "TABLE_MAX_ROBOTS", n_robots)
        want_solution, want_stats = solve(dataclasses.replace(domain))
    assert stats == want_stats   # every field
    assert solution == want_solution
    report = bound_report(domain, solution, stats, oracle=brute_force_optimal(domain))
    assert report.guarantee_applies and report.holds_apriori


def test_each_distinct_constraint_set_is_scheduled_once(monkeypatch):
    built, scheduled, nodes = [], [], []

    def counting_build(tables, masks):
        cs = real_build(tables, masks)
        built.append(cs)
        return cs

    def counting_milp(cs):
        outcome = real_milp(cs)
        scheduled.append(cs)
        nodes.append(outcome.nodes_explored)
        return outcome

    real_build, real_milp = search.build_constraints_fast, search.solve_milp
    monkeypatch.setattr(search, "build_constraints_fast", counting_build)
    monkeypatch.setattr(search, "solve_milp", counting_milp)
    for seed in range(10):
        for log in (built, scheduled, nodes):
            log.clear()
        _, stats = solve(random_instance(seed))
        assert len(set(scheduled)) == len(scheduled), f"seed {seed}: a constraint set was scheduled twice"
        assert (stats.bnb_runs, stats.bnb_nodes) == (len(scheduled), sum(nodes))
        assert stats.bnb_runs <= stats.scheduler_calls + stats.refinement_rounds
        # allocations outnumber their distinct sets under estimates
        assert len(set(built)) < stats.scheduler_calls

    domain = random_instance(1)
    cache = {}
    solve(domain, schedule_cache=cache)
    scheduled.clear()
    _, again = solve(domain, schedule_cache=cache)
    assert scheduled == []   # a repeat solve on a shared cache schedules nothing
    assert (again.bnb_runs, again.bnb_nodes) == (0, 0)


def test_children_build_one_set_per_new_signature(monkeypatch):
    # builds through staq.search are the root's, the empty allocation's, one
    # per child whose signature is new, and one per popped node that fits:
    # its planned set, the only build on the planned table, which the change
    # test gets as argument 0; the node's estimated set, argument 2, is the
    # one built when it was generated, and the root's and the children's
    # sets are all distinct
    built, refined, planned = [], [], []

    def counting_build(tables, masks):
        cs = real_build(tables, masks)
        built.append((tables, cs))
        return cs

    def recording_refine(planned_cs, orderings, cs):
        refined.append(cs)
        planned.append(planned_cs)
        return real_refine(planned_cs, orderings, cs)

    real_build, real_refine = search.build_constraints_fast, search.refine_with_motion_plans
    monkeypatch.setattr(search, "build_constraints_fast", counting_build)
    monkeypatch.setattr(search, "refine_with_motion_plans", recording_refine)
    for seed in range(10):
        built.clear()
        refined.clear()
        planned.clear()
        _, stats = solve(random_instance(seed))
        estimated = built[0][0]   # the root's set is built first
        on_planned = [cs for tables, cs in built if tables is not estimated]
        assert len(on_planned) == stats.reinserted + 1, f"seed {seed}"
        assert all(a is b for a, b in zip(on_planned, planned)) and len(planned) == len(on_planned)
        scored = [cs for tables, cs in built if tables is estimated]
        assert len(built) - len(scored) == len(planned)   # a popped node builds only its planned set
        assert len(set(scored)) == len(scored), f"seed {seed}: a set was built twice"
        assert set(refined) <= set(scored)
        assert all(any(cs is kept for kept in scored) for cs in refined)
        assert len(scored) < stats.nodes_generated   # children share signatures


def test_a_popped_node_is_refined_in_one_step(monkeypatch):
    # each popped node that fits makes one change test, and runs its planned
    # set (the test's argument 0) at most once, right after a test that
    # found a change; every re-queued node changed, and the accepted one may
    events = []

    def recording_refine(planned_cs, orderings, cs):
        refined, changed = real_refine(planned_cs, orderings, cs)
        events.append(("refine", planned_cs, changed))
        return refined, changed

    def recording_milp(cs):
        events.append(("run", cs, None))
        return real_milp(cs)

    real_refine, real_milp = search.refine_with_motion_plans, search.solve_milp
    monkeypatch.setattr(search, "refine_with_motion_plans", recording_refine)
    monkeypatch.setattr(search, "solve_milp", recording_milp)
    planned_runs = 0
    for seed in range(10):
        events.clear()
        _, stats = solve(random_instance(seed))
        tests = [(at, cs, changed) for at, (kind, cs, changed) in enumerate(events) if kind == "refine"]
        assert len(tests) == stats.reinserted + 1, f"seed {seed}"
        for at, planned_cs, changed in tests:
            runs = [i for i, (kind, cs, _) in enumerate(events) if kind == "run" and cs is planned_cs]
            assert runs in ([], [at + 1]) and (changed or not runs), f"seed {seed}"
            planned_runs += len(runs)
        assert stats.refinement_rounds == sum(changed for _, _, changed in tests)
        assert stats.reinserted <= stats.refinement_rounds <= stats.reinserted + 1
    assert planned_runs > 0


@pytest.mark.parametrize("speed_factor", [1.0, 1e10])
def test_fast_robots_meet_planned_travel_exactly(speed_factor):
    # the accepted schedule meets every planned term its orientation uses
    # and is optimal for the planned set; at 1e10 times the speed every leg
    # takes under 1e-9 s, so a change test with a tolerance would accept
    # schedules on estimates
    for seed in range(10):
        domain = random_instance(seed)
        fast = tuple(dataclasses.replace(r, speed=r.speed * speed_factor) for r in domain.robots)
        domain = dataclasses.replace(domain, robots=fast)
        sol, _ = solve(domain)
        planned = make_travel_tables(domain, planned_leg_seconds(GridPlanner(domain.world), domain))
        cs = build_constraints_fast(planned, sol.allocation.coalition_masks())
        s, d = sol.schedule.start_times, cs.durations
        assert all(si >= x for si, x in zip(s, cs.initial_offsets)), f"seed {seed}"
        arcs = [(i, j, x) for (i, j), x in cs.precedence_travel]
        for (i, j), (x_ij, x_ji) in cs.mutex_pairs:
            arcs.append((i, j, x_ij) if sol.orderings[(i, j)] == 1 else (j, i, x_ji))
        assert all(s[j] >= s[i] + (d[i] + x) for i, j, x in arcs), f"seed {seed}"
        assert sol.schedule.makespan == solve_milp(cs).schedule.makespan, f"seed {seed}"


def test_node_qualities_equal_the_total_of_their_masks(recorded):
    # exact equality: the search folds a child's quality from its parent's
    # prefixes, and must reproduce total_allocation_quality to the last bit
    checked = 0
    for seed in range(10):
        domain = random_instance(seed)
        shape = (domain.n_tasks, domain.n_robots)
        sol, stats = solve(domain)
        nodes = [(sol.allocation.key, sol.total_quality)]
        nodes += [(entry[2], entry[3]) for entry in _stored(recorded[-1])]
        for key, quality in nodes:
            assert quality == total_allocation_quality(Allocation(key, shape).coalition_masks(), domain)
            checked += 1
    assert checked > 500


# Search results on generated instances. Refactors of the search, the
# scheduler or the travel tables must leave node order and every counter
# exactly as they are.
PINNED = (
    # seed, allocation key, makespan, expanded, refinement rounds, reinserted
    (0, 2383, 32.74497788907867, 43, 1, 0),
    (1, 4054, 49.19148813334264, 10, 17, 16),
    (2, 2399, 39.71652589970252, 11, 11, 10),
    (3, 2759, 44.60609057469941, 13, 3, 2),
    (4, 1032169, 53.979412712564056, 147, 520, 519),
    (5, 134141, 33.328205438044506, 33, 11, 10),
    (6, 3809, 27.910483862180357, 47, 4, 3),
    (7, 19391, 47.92793466985958, 5, 3, 2),
    (8, 1365, 28.592560814657595, 34, 13, 12),
    (9, 31511, 27.95464897451987, 34, 37, 36),
)


@pytest.mark.parametrize("seed,key,makespan,expanded,rounds,reinserted", PINNED)
def test_search_results_are_pinned(seed, key, makespan, expanded, rounds, reinserted):
    sol, stats = solve(random_instance(seed))
    assert (sol.allocation.key, sol.schedule.makespan) == (key, makespan)
    assert (stats.nodes_expanded, stats.refinement_rounds, stats.reinserted) == (
        expanded, rounds, reinserted)


# The work behind PINNED, for the same seeds: nodes generated, duplicate
# children skipped, allocations scheduled, and the expansion's own
# branch-and-bound runs and nodes. No such search reaches the empty
# allocation, so scheduling it after the root adds one run and its nodes.
PINNED_WORK = (
    (0, 328, 90, 328, 142, 1966),
    (1, 82, 21, 82, 30, 312),
    (2, 90, 17, 90, 67, 2757),
    (3, 97, 12, 97, 52, 310),
    (4, 1452, 1037, 1452, 159, 1809),
    (5, 386, 61, 386, 130, 3864),
    (6, 272, 97, 272, 76, 442),
    (7, 71, 0, 71, 42, 664),
    (8, 163, 96, 163, 131, 1069),
    (9, 280, 88, 280, 69, 717),
)


@pytest.mark.parametrize("seed,generated,duplicates,scheduled,runs,bnb_nodes", PINNED_WORK)
def test_search_work_is_pinned(seed, generated, duplicates, scheduled, runs, bnb_nodes):
    domain = random_instance(seed)
    _, stats = solve(domain)
    empty_nodes = _empty_outcome(domain).nodes_explored
    assert (stats.nodes_generated, stats.duplicates_skipped, stats.scheduler_calls,
            stats.bnb_runs, stats.bnb_nodes) == (
        generated, duplicates, scheduled, runs + 1, bnb_nodes + empty_nodes)


# ------------------------------------------------------------ solution body

def test_solution_motion_plans_cover_every_assignment():
    domain = drop_one_domain(time_budget=9.0)
    sol, _ = solve(domain)
    m, n = sol.allocation.shape
    for i in range(m):
        for j in range(n):
            if sol.allocation.entries[i, j]:
                assert (j, i) in sol.motion_plans
    # exactly one plan per set bit
    assert len(sol.motion_plans) == sol.allocation.key.bit_count()
