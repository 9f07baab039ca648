import math

import numpy as np
import pytest
from scipy.optimize import linprog

from staq.model import (
    Allocation,
    InvalidInput,
    ProblemDomain,
    Robot,
    Task,
    TaskNetwork,
    WorldMap,
)
from staq.motion import GridPlanner, estimated_leg_seconds, planned_leg_seconds
from staq import model, scheduler
from staq.analysis import random_instance
from staq.scheduler import (
    ConstraintSet,
    ScheduleOutcome,
    build_constraints_fast,
    make_travel_tables,
    realized_orderings,
    refine_with_motion_plans,
    solve_milp,
    worst_makespan,
)

from helpers import (
    LinearMap,
    allocation_from_entries,
    build_constraints,
    enumerate_schedules,
    evaluate_fixed_order,
    open_world,
    random_constraint_set,
    reference_solve_milp,
    two_task_domain,
    walled_world,
)


def _cs(durations, offsets=None, precedence=None, mutex=None):
    m = len(durations)
    return ConstraintSet(
        durations=tuple(float(d) for d in durations),
        initial_offsets=tuple(float(x) for x in (offsets or [0.0] * m)),
        precedence_travel=tuple(sorted((precedence or {}).items())),
        mutex_pairs=tuple(sorted((mutex or {}).items())),
    )


def _build(domain, alloc, leg):
    return build_constraints_fast(make_travel_tables(domain, leg), alloc.coalition_masks())


def _planned(domain, alloc):
    return _build(domain, alloc, planned_leg_seconds(GridPlanner(domain.world), domain))


def linprog_makespan(cs, orderings):
    """LP reference for a fixed orientation: min C over start times."""
    m = len(cs.durations)
    arcs = [(i, j, cs.durations[i] + x)
            for (i, j), x in cs.precedence_travel]
    mutex = dict(cs.mutex_pairs)
    for (i, j), direction in orderings.items():
        x_ij, x_ji = mutex[(i, j)]
        if direction == 1:
            arcs.append((i, j, cs.durations[i] + x_ij))
        else:
            arcs.append((j, i, cs.durations[j] + x_ji))

    c = [0.0] * m + [1.0]
    a_ub, b_ub = [], []
    for i, x in enumerate(cs.initial_offsets):
        row = [0.0] * (m + 1)
        row[i] = -1.0
        a_ub.append(row)
        b_ub.append(-x)
    for i, j, w in arcs:
        row = [0.0] * (m + 1)
        row[i], row[j] = 1.0, -1.0
        a_ub.append(row)
        b_ub.append(-w)
    for i, d in enumerate(cs.durations):
        row = [0.0] * (m + 1)
        row[i], row[m] = 1.0, -1.0
        a_ub.append(row)
        b_ub.append(-d)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    return res.fun if res.status == 0 else None


# -------------------------------------------------- constraint derivation

def test_disjoint_coalitions_create_no_disjunctions():
    domain = two_task_domain()
    leg = estimated_leg_seconds(domain)
    cs = _build(domain, allocation_from_entries(np.array([[1, 0], [0, 1]])), leg)
    assert cs.mutex_pairs == ()
    assert cs.precedence_travel == ()
    assert cs.durations == (4.0, 3.0)


def test_shared_robot_induces_a_mutex_pair():
    domain = two_task_domain()
    leg = estimated_leg_seconds(domain)
    cs = _build(domain, allocation_from_entries(np.array([[1, 0], [1, 0]])), leg)
    [(pair, (x_ij, x_ji))] = cs.mutex_pairs
    assert pair == (0, 1)
    # robot 0 (speed 1) moves end of task 0 (3,0) -> start of task 1 (5,7)
    want_fwd = math.hypot(5 - 3, 7 - 0)
    # and start of task 0 (2,0) from end of task 1 (5,6) the other way
    want_rev = math.hypot(5 - 2, 6 - 0)
    assert x_ij == pytest.approx(want_fwd)
    assert x_ji == pytest.approx(want_rev)


def test_precedence_pair_is_not_doubled_as_mutex():
    domain = two_task_domain(precedence={(0, 1)}, mutex={(0, 1)})
    leg = estimated_leg_seconds(domain)
    cs = _build(domain, allocation_from_entries(np.array([[1, 0], [1, 0]])), leg)
    assert [pair for pair, _ in cs.precedence_travel] == [(0, 1)]
    assert cs.mutex_pairs == ()


def test_release_offsets_take_the_slowest_assigned_robot():
    domain = two_task_domain()
    leg = estimated_leg_seconds(domain)
    cs = _build(domain, Allocation.root(2, 2), leg)
    # task 0 at (2,0): robot 0 needs 2.0s, robot 1 needs hypot(5,7)/2
    assert cs.initial_offsets[0] == pytest.approx(max(2.0, math.hypot(5, 7) / 2))
    # empty coalition -> no travel requirement
    cs = _build(domain, Allocation.null(2, 2), leg)
    assert cs.initial_offsets == (0.0, 0.0)


def test_branch_and_bound_finds_no_schedule_across_an_unreachable_leg():
    ok = _cs([1.0, 1.0], mutex={(0, 1): (math.inf, 0.0)})
    outcome = solve_milp(ok)   # one direction still open
    assert outcome.schedule is not None
    assert realized_orderings(ok, outcome.schedule) == {(0, 1): -1}
    assert outcome.schedule.makespan == 2.0
    for cs in (
        _cs([1.0], offsets=[math.inf]),
        _cs([1.0, 1.0], precedence={(0, 1): math.inf}),
        _cs([1.0, 1.0], mutex={(0, 1): (math.inf, math.inf)}),
    ):
        outcome = solve_milp(cs)
        assert outcome.schedule is None
        assert outcome.nodes_explored >= 1
        assert (outcome, None) == reference_solve_milp(cs)


# ------------------------------------------------------ fixed-order solve

def test_single_task_starts_after_travel():
    cs = _cs([4.0], offsets=[1.0])
    assert evaluate_fixed_order(cs, {}) == pytest.approx(5.0)


def test_precedence_with_travel_hand_example():
    cs = _cs([5.0, 3.0], precedence={(0, 1): 2.0})
    assert evaluate_fixed_order(cs, {}) == pytest.approx(10.0)


def test_mutex_symmetric_example_either_direction():
    cs = _cs([5.0, 3.0], mutex={(0, 1): (0.0, 0.0)})
    assert evaluate_fixed_order(cs, {(0, 1): 1}) == pytest.approx(8.0)
    assert evaluate_fixed_order(cs, {(0, 1): -1}) == pytest.approx(8.0)


def test_fixed_order_rejects_missing_or_bad_orderings():
    cs = _cs([5.0, 3.0], mutex={(0, 1): (0.0, 0.0)})
    with pytest.raises(InvalidInput):
        evaluate_fixed_order(cs, {})
    with pytest.raises(InvalidInput):
        evaluate_fixed_order(cs, {(0, 1): 0})
    # keys outside the mutex set are ignored
    assert evaluate_fixed_order(cs, {(0, 1): 1, (5, 9): 1}) == pytest.approx(8.0)


def test_fixed_order_infeasible_on_unreachable_leg():
    cs = _cs([5.0, 3.0], mutex={(0, 1): (math.inf, 0.0)})
    assert evaluate_fixed_order(cs, {(0, 1): 1}) is None
    assert evaluate_fixed_order(cs, {(0, 1): -1}) == pytest.approx(8.0)


def test_fixed_order_matches_lp_reference():
    rng = np.random.default_rng(11)
    for _ in range(60):
        cs = random_constraint_set(rng)
        orderings = {p: (1 if rng.random() < 0.5 else -1)
                     for p, _ in cs.mutex_pairs}
        got = evaluate_fixed_order(cs, orderings)
        want = linprog_makespan(cs, orderings)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-6)


# --------------------------------------------------------- exact solver

def test_solver_equals_fixed_order_without_disjunctions():
    cs = _cs([5.0, 3.0], offsets=[1.0, 0.0], precedence={(0, 1): 2.0})
    outcome = solve_milp(cs)
    assert outcome.schedule is not None
    assert outcome.schedule.makespan == pytest.approx(
        evaluate_fixed_order(cs, {}))
    assert realized_orderings(cs, outcome.schedule) == {}


def test_three_mutually_exclusive_tasks_serialize():
    mutex = {(0, 1): (0.0, 0.0), (0, 2): (0.0, 0.0), (1, 2): (0.0, 0.0)}
    outcome = solve_milp(_cs([2.0, 2.0, 2.0], mutex=mutex))
    assert outcome.schedule is not None
    assert outcome.schedule.makespan == pytest.approx(6.0)


def test_solver_reports_realized_orderings():
    cs = _cs([5.0, 3.0], mutex={(0, 1): (0.0, 0.0)})
    outcome = solve_milp(cs)
    orderings = realized_orderings(cs, outcome.schedule)
    assert set(orderings) == {(0, 1)}
    assert orderings[(0, 1)] in (1, -1)
    # orderings read off the start times replay to the same makespan
    assert evaluate_fixed_order(cs, orderings) == pytest.approx(outcome.schedule.makespan)


def test_solver_matches_exhaustive_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(60):
        cs = random_constraint_set(rng)
        outcome = solve_milp(cs)
        want = enumerate_schedules(cs)
        if want is None:
            assert outcome.schedule is None
        else:
            assert outcome.schedule is not None
            assert outcome.schedule.makespan == pytest.approx(want)
            assert outcome.nodes_explored >= 1


def test_solver_is_deterministic():
    rng = np.random.default_rng(5)
    cs = random_constraint_set(rng)
    first = solve_milp(cs)
    second = solve_milp(cs)
    assert first.schedule.makespan == second.schedule.makespan
    assert first.schedule.start_times == second.schedule.start_times


def test_solver_start_times_respect_all_constraints():
    rng = np.random.default_rng(13)
    for _ in range(30):
        cs = random_constraint_set(rng)
        outcome = solve_milp(cs)
        if outcome.schedule is None:
            continue
        s = outcome.schedule.start_times
        for i, x in enumerate(cs.initial_offsets):
            assert s[i] >= x - 1e-9
        for (i, j), x in cs.precedence_travel:
            assert s[j] >= s[i] + cs.durations[i] + x - 1e-9
        for (i, j), (x_ij, x_ji) in cs.mutex_pairs:
            assert (s[j] >= s[i] + cs.durations[i] + x_ij - 1e-9
                    or s[i] >= s[j] + cs.durations[j] + x_ji - 1e-9)


def test_solver_matches_full_relaxation_at_every_node():
    # ScheduleOutcome equality covers the schedule's start times, makespan
    # and nodes_explored, all exactly
    rng = np.random.default_rng(21)
    for _ in range(2000):
        cs = random_constraint_set(rng)
        assert solve_milp(cs) == reference_solve_milp(cs)[0]


def test_orderings_read_off_the_start_times_are_the_branched_directions():
    # durations are positive and travel non-negative, so no mutex pair
    # starts together and the start times fix each pair's direction
    rng = np.random.default_rng(22)
    scheduled = 0
    for _ in range(20_000):
        cs = random_constraint_set(rng)
        outcome, directions = reference_solve_milp(cs)
        if outcome.schedule is None:
            assert directions is None
            continue
        starts = outcome.schedule.start_times
        assert all(starts[i] != starts[j] for (i, j), _ in cs.mutex_pairs)
        assert realized_orderings(cs, solve_milp(cs).schedule) == directions
        scheduled += 1
    assert scheduled > 10_000


def test_solver_matches_full_relaxation_on_hand_built_sets():
    cycle = _cs([3.0, 2.0], precedence={(0, 1): 1.0}, mutex={(0, 1): (0.5, 0.5)})
    unreachable = _cs([3.0, 2.0], mutex={(0, 1): (math.inf, 1.0)})
    no_pairs = _cs([3.0, 2.0, 4.0], offsets=[1.0, 0.0, 2.0], precedence={(0, 2): 1.0})
    no_tasks = _cs([])
    incumbent_first = _cs([1.0, 1.0, 3.0, 2.0], offsets=[2.0, 0.0, 1.0, 1.0],
                          precedence={(0, 1): 0.0, (1, 2): 0.0, (2, 3): 0.0},
                          mutex={(0, 2): (2.0, 1.0)})
    for cs in (cycle, unreachable, no_pairs, no_tasks, incumbent_first):
        assert solve_milp(cs) == reference_solve_milp(cs)[0]
    assert solve_milp(no_tasks) == ScheduleOutcome(None, 1)

    # task 1 first would close a cycle with the precedence: infeasible branch
    outcome = solve_milp(cycle)
    assert realized_orderings(cycle, outcome.schedule) == {(0, 1): 1}
    assert outcome.schedule.start_times == (0.0, 4.0)
    assert outcome.nodes_explored == 3
    # 0 before 1 is unreachable, so the only schedule runs 1 first
    outcome = solve_milp(unreachable)
    assert realized_orderings(unreachable, outcome.schedule) == {(0, 1): -1}
    assert outcome.schedule.makespan == 6.0
    assert outcome.nodes_explored == 3
    # nothing to branch on: the root relaxation is the schedule
    outcome = solve_milp(no_pairs)
    assert outcome.schedule.start_times == (1.0, 0.0, 5.0)
    assert (realized_orderings(no_pairs, outcome.schedule), outcome.nodes_explored) == ({}, 1)
    # The chain 0 -> 1 -> 2 -> 3 starts the tasks at (2, 3, 4, 7). Task 0
    # first gives the incumbent: task 2 starts at 2 + 1 + 2 = 5, task 3 at
    # 8, makespan 10. Task 2 first raises task 0 to 4 + 3 + 1 = 8 and task 1
    # to 9, whose finish, 10, reaches the incumbent, so propagation stops
    # there; going on would raise task 2 itself, a cycle. Either way the
    # child is cut: the same 3 nodes as the full relaxation.
    outcome = solve_milp(incumbent_first)
    assert outcome.schedule.start_times == (2.0, 3.0, 5.0, 8.0)
    assert (outcome.schedule.makespan, outcome.nodes_explored) == (10.0, 3)


# ---------------------------------------------------- travel table variant

# random_instance seeds 0-9 with at most 12 assignment bits; between them
# they have user mutex pairs, precedence chains and 3 to 4 robots
SMALL_SEEDS = (1, 2, 3, 6, 8)


def test_fast_constraints_match_reference_everywhere():
    domains = [two_task_domain(precedence=precedence, mutex=mutex)
               for precedence, mutex in (((), ()), ({(0, 1)}, ()), ((), {(0, 1)}))]
    domains += [random_instance(seed) for seed in SMALL_SEEDS]
    for domain in domains:
        m, n = domain.n_tasks, domain.n_robots
        planner = GridPlanner(domain.world)
        for leg in (estimated_leg_seconds(domain),
                    planned_leg_seconds(planner, domain)):
            tables = make_travel_tables(domain, leg)
            for key in range(1 << (m * n)):
                alloc = Allocation(key, (m, n))
                want = build_constraints(domain, alloc, leg)
                got = build_constraints_fast(tables, alloc.coalition_masks())
                # item order included
                assert got == want


def test_a_table_derives_only_the_pieces_it_is_asked_for(monkeypatch):
    # one solution's check or one makespan reference builds one set
    derived = []
    real_piece = scheduler._piece
    monkeypatch.setattr(
        scheduler, "_piece", lambda t, c, mask: derived.append((c, mask)) or real_piece(t, c, mask)
    )
    for seed in SMALL_SEEDS:
        domain = random_instance(seed)
        m, n = domain.n_tasks, domain.n_robots
        tables = make_travel_tables(domain, estimated_leg_seconds(domain))
        masks = Allocation.root(m, n).coalition_masks()
        derived.clear()
        for _ in range(2):
            build_constraints_fast(tables, masks)
        assert derived == [(c, 2**n - 1) for c in range(len(tables.columns))]
        assert not any(isinstance(pieces, list) for pieces in tables.pieces)


def test_piece_ids_depend_on_the_table_alone():
    for seed in SMALL_SEEDS:
        domain = random_instance(seed)
        planner = GridPlanner(domain.world)
        for leg in (estimated_leg_seconds(domain), planned_leg_seconds(planner, domain)):
            first, second = make_travel_tables(domain, leg), make_travel_tables(domain, leg)
            # pieces read before the numbers, or numbers read in different
            # orders, leave the tables as tabulated
            build_constraints_fast(second, Allocation(5, (domain.n_tasks, domain.n_robots)).coalition_masks())
            n_masks = 1 << domain.n_robots
            for c in range(len(first.columns)):
                for mask in range(n_masks):
                    first.piece_ids[c][mask]
                for mask in reversed(range(n_masks)):
                    second.piece_ids[c][mask]
            assert first.piece_ids == second.piece_ids
            assert first.pieces == second.pieces
            for c, (ids, pieces) in enumerate(zip(first.piece_ids, first.pieces)):
                assert type(ids) is list and type(pieces) is list
                assert pieces == [scheduler._piece(first, c, mask) for mask in range(n_masks)]
                # numbered from 0 in the order of the first mask giving each
                first_seen = {}
                assert ids == [first_seen.setdefault(piece, len(first_seen)) for piece in pieces]


def test_lazy_piece_ids_give_the_eager_sets(monkeypatch):
    for seed in SMALL_SEEDS:
        domain = random_instance(seed)
        m, n = domain.n_tasks, domain.n_robots
        planner = GridPlanner(domain.world)
        for leg in (estimated_leg_seconds(domain), planned_leg_seconds(planner, domain)):
            eager = make_travel_tables(domain, leg)
            assert type(eager.piece_ids[0]) is list
            with monkeypatch.context() as patch:
                patch.setattr(model, "TABLE_MAX_ROBOTS", 0)
                lazy = make_travel_tables(domain, leg)
                derived = []
                real_piece = scheduler._piece

                def counting_piece(tables, column, mask):
                    derived.append((column, mask))
                    return real_piece(tables, column, mask)

                patch.setattr(scheduler, "_piece", counting_piece)
                assert all(ids == {} for ids in lazy.piece_ids + lazy.pieces)   # nothing derived yet
                for key in range(1 << (m * n)):
                    masks = Allocation(key, (m, n)).coalition_masks()
                    assert build_constraints_fast(lazy, masks) == build_constraints_fast(eager, masks)
                for c, pieces in enumerate(lazy.pieces):
                    ids = [lazy.piece_ids[c][mask] for mask in range(1 << n)]
                    # numbered in the order first read, equal exactly when the pieces are
                    first_seen = {}
                    assert ids == [first_seen.setdefault(pieces[mask], len(first_seen))
                                   for mask in range(1 << n)]
            # each (column, mask) derived once: every shared mask occurs over all allocations
            assert sorted(derived) == [(c, mask) for c in range(len(lazy.columns))
                                       for mask in range(1 << n)]


def test_constraint_items_are_sorted_by_pair():
    for seed in SMALL_SEEDS:
        domain = random_instance(seed)
        m, n = domain.n_tasks, domain.n_robots
        tables = make_travel_tables(domain, estimated_leg_seconds(domain))
        for key in range(1 << (m * n)):
            cs = build_constraints_fast(tables, Allocation(key, (m, n)).coalition_masks())
            for items in (cs.precedence_travel, cs.mutex_pairs):
                pairs = [pair for pair, _ in items]
                assert pairs == sorted(set(pairs))


def test_different_allocations_with_equal_sets_are_one_key():
    domain = random_instance(8)
    m, n = domain.n_tasks, domain.n_robots
    tables = make_travel_tables(domain, estimated_leg_seconds(domain))
    by_set = {}
    for key in range(1 << (m * n)):
        cs = build_constraints_fast(tables, Allocation(key, (m, n)).coalition_masks())
        by_set.setdefault(cs, []).append(cs)
    shared = [sets for sets in by_set.values() if len(sets) > 1]
    assert shared, "no two allocations share a constraint set"
    for first, *others in shared:
        for other in others:
            assert other is not first
            assert other == first and hash(other) == hash(first)


def test_piece_ids_are_equal_exactly_when_sets_are():
    # the search keys its children by these packed ids, so equal ids must
    # mean equal sets, and unequal ids unequal sets, whatever order the
    # ids were first asked for in
    rng = np.random.default_rng(12)
    equal = unequal = 0
    for seed in range(20):
        domain = random_instance(seed)
        m, n = domain.n_tasks, domain.n_robots
        tables = make_travel_tables(domain, estimated_leg_seconds(domain))

        def signature(key):
            masks = Allocation(key, (m, n)).coalition_masks()
            ids = [tables.piece_ids[c][masks[i] & masks[j]] for c, (i, j) in enumerate(tables.columns)]
            assert all(0 <= x < 1 << n for x in ids)
            return sum(x << n * c for c, x in enumerate(ids))

        for _ in range(150):
            a = int(rng.integers(0, 1 << m * n))
            # half the pairs differ in one assignment, where equal sets are common
            b = a ^ 1 << int(rng.integers(m * n)) if rng.random() < 0.5 else int(rng.integers(0, 1 << m * n))
            same = (build_constraints_fast(tables, Allocation(a, (m, n)).coalition_masks())
                    == build_constraints_fast(tables, Allocation(b, (m, n)).coalition_masks()))
            assert (signature(a) == signature(b)) == same, (seed, a, b)
            equal += same
            unequal += not same
    assert equal > 100 and unequal > 100


def test_fast_constraints_reject_shape_mismatch(monkeypatch):
    domain = two_task_domain()
    for cap in (model.TABLE_MAX_ROBOTS, 0):   # tabulated, then lazy
        monkeypatch.setattr(model, "TABLE_MAX_ROBOTS", cap)
        tables = make_travel_tables(domain, estimated_leg_seconds(domain))
        assert isinstance(tables.piece_ids[0], list) == (cap > 0)
        with pytest.raises(InvalidInput):
            build_constraints_fast(tables, Allocation.root(3, 2).coalition_masks())
        # two robots: masks lie in [0, 4); a list would wrap a negative one
        for masks in ((4, 0), (0, -1), (-1, -1), (-4, 3)):
            with pytest.raises(InvalidInput):
                build_constraints_fast(tables, masks)


# ----------------------------------------------------------- worst case

def test_worst_makespan_single_task_is_travel_plus_duration():
    world = open_world(6, 6)
    robot = Robot(traits=np.array([1.0]), start_cell=(0, 0), speed=1.0)
    task = Task(duration=4.0, start_site=(3, 4), end_site=(3, 4))
    net = TaskNetwork(tasks=(task,), precedence=frozenset(), mutex=frozenset())
    domain = ProblemDomain(network=net, robots=(robot,),
                           quality_maps=(LinearMap([1.0]),),
                           world=world, time_budget=100.0)
    assert worst_makespan(domain) == pytest.approx(5.0 + 4.0)


def test_worst_makespan_serializes_tasks_sharing_the_whole_team():
    domain = two_task_domain()
    # root allocation puts both robots on both tasks -> induced mutex
    assert worst_makespan(domain) >= 4.0 + 3.0


def test_worst_makespan_chain_without_travel():
    world = open_world(4, 4)
    robot = Robot(traits=np.array([1.0]), start_cell=(1, 1), speed=1.0)
    tasks = tuple(Task(duration=1.0, start_site=(1, 1), end_site=(1, 1))
                  for i in range(3))
    net = TaskNetwork(tasks=tasks, precedence=frozenset({(0, 1), (1, 2)}),
                      mutex=frozenset())
    domain = ProblemDomain(network=net, robots=(robot,),
                           quality_maps=(LinearMap([1.0]),) * 3,
                           world=world, time_budget=100.0)
    assert worst_makespan(domain) == pytest.approx(3.0)


# ------------------------------------------------------------- refinement

def test_refinement_fixpoint_on_open_map():
    # axis-aligned legs: straight-line estimate equals the grid path
    world = open_world(6, 6)
    robots = (Robot(traits=np.array([1.0]), start_cell=(0, 0), speed=1.0),)
    tasks = (Task(duration=2.0, start_site=(3, 0), end_site=(3, 0)),)
    net = TaskNetwork(tasks=tasks, precedence=frozenset(), mutex=frozenset())
    domain = ProblemDomain(network=net, robots=robots,
                           quality_maps=(LinearMap([1.0]),),
                           world=world, time_budget=50.0)
    alloc = Allocation.root(1, 1)
    cs = _build(domain, alloc, estimated_leg_seconds(domain))
    outcome = solve_milp(cs)
    refined, changed = refine_with_motion_plans(
        _planned(domain, alloc), realized_orderings(cs, outcome.schedule), cs)
    assert not changed
    assert refined.initial_offsets == cs.initial_offsets


def test_refinement_grows_travel_around_walls():
    world = walled_world()
    robots = (Robot(traits=np.array([1.0]), start_cell=(4, 0), speed=1.0),)
    tasks = (Task(duration=2.0, start_site=(6, 0), end_site=(6, 0)),)
    net = TaskNetwork(tasks=tasks, precedence=frozenset(), mutex=frozenset())
    domain = ProblemDomain(network=net, robots=robots,
                           quality_maps=(LinearMap([1.0]),),
                           world=world, time_budget=50.0)
    alloc = Allocation.root(1, 1)
    cs = _build(domain, alloc, estimated_leg_seconds(domain))
    before = solve_milp(cs).schedule.makespan
    planned = _planned(domain, alloc)
    refined, changed = refine_with_motion_plans(
        planned, realized_orderings(cs, solve_milp(cs).schedule), cs)
    assert changed
    after_outcome = solve_milp(refined)
    assert after_outcome.schedule.makespan >= before
    assert after_outcome.schedule.makespan == pytest.approx(20.0 + 2.0)
    # second pass is a fixpoint
    again, changed2 = refine_with_motion_plans(
        planned, realized_orderings(refined, after_outcome.schedule), refined)
    assert not changed2
    assert again == refined


def _grow_one_direction(cs, at, side):
    """cs with mutex pair number at's term on side (0: after i, 1: after j)
    raised by one second, every other term as it is."""
    pairs = list(cs.mutex_pairs)
    pair, terms = pairs[at]
    pairs[at] = (pair, tuple(x + 1.0 if k == side else x for k, x in enumerate(terms)))
    return ConstraintSet(cs.durations, cs.initial_offsets, cs.precedence_travel, tuple(pairs))


def test_refinement_updates_only_the_realized_mutex_direction():
    world = walled_world()
    # two tasks on opposite sides of the wall share the only robot
    robots = (Robot(traits=np.array([1.0]), start_cell=(4, 0), speed=1.0),)
    tasks = (Task(duration=2.0, start_site=(4, 1), end_site=(4, 1)),
             Task(duration=2.0, start_site=(6, 0), end_site=(6, 0)))
    net = TaskNetwork(tasks=tasks, precedence=frozenset(), mutex=frozenset())
    domain = ProblemDomain(network=net, robots=robots,
                           quality_maps=(LinearMap([1.0]),) * 2,
                           world=world, time_budget=200.0)
    alloc = allocation_from_entries(np.array([[1], [1]]))
    cs = _build(domain, alloc, estimated_leg_seconds(domain))
    outcome = solve_milp(cs)
    orderings = realized_orderings(cs, outcome.schedule)
    planned = _planned(domain, alloc)
    assert refine_with_motion_plans(planned, orderings, cs) == (planned, True)
    # only the direction the schedule realized is compared
    realized = 0 if orderings[(0, 1)] == 1 else 1
    unrealized = _grow_one_direction(cs, 0, 1 - realized)
    assert refine_with_motion_plans(unrealized, orderings, cs) == (unrealized, False)
    grown = _grow_one_direction(cs, 0, realized)
    assert refine_with_motion_plans(grown, orderings, cs) == (grown, True)


def test_refinement_keeps_the_fresh_sets_pair_order():
    # on sets with several mutex pairs, each pair's unrealized direction is
    # ignored and its realized direction is compared, pair by pair
    checked = 0
    for seed in range(10):
        domain = random_instance(seed)
        alloc = Allocation.root(domain.n_tasks, domain.n_robots)
        cs = _build(domain, alloc, estimated_leg_seconds(domain))
        if len(cs.mutex_pairs) < 2:
            continue
        schedule = solve_milp(cs).schedule
        starts = schedule.start_times
        orderings = realized_orderings(cs, schedule)
        assert refine_with_motion_plans(cs, orderings, cs) == (cs, False)
        for at, ((i, j), _) in enumerate(cs.mutex_pairs):
            realized = 0 if starts[i] <= starts[j] else 1   # 0: i runs first
            assert not refine_with_motion_plans(
                _grow_one_direction(cs, at, 1 - realized), orderings, cs)[1], f"seed {seed}"
            assert refine_with_motion_plans(
                _grow_one_direction(cs, at, realized), orderings, cs)[1], f"seed {seed}"
        checked += 1
    assert checked >= 3


def test_refinement_marks_unreachable_legs_infinite():
    # task site reachable only... nowhere: separate component
    world = WorldMap.from_ascii((".#.", ".#.", ".#."))
    robots = (Robot(traits=np.array([1.0]), start_cell=(0, 0), speed=1.0),)
    tasks = (Task(duration=1.0, start_site=(2, 0), end_site=(2, 0)),)
    net = TaskNetwork(tasks=tasks, precedence=frozenset(), mutex=frozenset())
    domain = ProblemDomain(network=net, robots=robots,
                           quality_maps=(LinearMap([1.0]),),
                           world=world, time_budget=50.0)
    alloc = Allocation.root(1, 1)
    cs = _build(domain, alloc, estimated_leg_seconds(domain))
    outcome = solve_milp(cs)
    refined, changed = refine_with_motion_plans(
        _planned(domain, alloc), realized_orderings(cs, outcome.schedule), cs)
    assert changed
    assert math.isinf(refined.initial_offsets[0])
    assert solve_milp(refined).schedule is None
