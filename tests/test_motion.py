import math

import numpy as np
import pytest

from staq.model import InvalidInput, ProblemDomain, Robot, Task, TaskNetwork, WorldMap
from staq.motion import (
    GridPlanner,
    estimated_leg_seconds,
    euclidean_estimate,
    plan_path,
    planned_leg_seconds,
    steps_field,
    travel_time,
)

from helpers import (
    LinearMap,
    bfs_grid_distance,
    open_world,
    reference_plan_path,
    two_task_domain,
    walled_world,
)


# ------------------------------------------------------------ estimates

def test_euclidean_estimate_values():
    assert euclidean_estimate((0, 0), (0, 0)) == 0.0
    assert euclidean_estimate((0, 0), (3, 4)) == pytest.approx(5.0)
    assert euclidean_estimate((0, 0), (2, 0), cell_size=0.5) == pytest.approx(1.0)


def test_travel_time_values():
    assert travel_time(0.0, 3.0) == 0.0
    assert travel_time(10.0, 2.0) == pytest.approx(5.0)
    assert travel_time(math.inf, 2.0) == math.inf
    with pytest.raises(InvalidInput):
        travel_time(10.0, 0.0)
    with pytest.raises(InvalidInput):
        travel_time(10.0, -1.0)


# ------------------------------------------------------------ plan_path

def test_shortest_path_on_open_grid():
    world = open_world(5, 5)
    result = plan_path(world, (0, 0), (2, 3))
    assert result is not None
    assert result.length == pytest.approx(5.0)
    assert len(result.cells) == 6
    assert result.cells[0] == (0, 0) and result.cells[-1] == (2, 3)
    for a, b in zip(result.cells, result.cells[1:]):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def test_trivial_path_when_start_equals_goal():
    world = open_world(3, 3)
    result = plan_path(world, (1, 1), (1, 1))
    assert result.cells == ((1, 1),)
    assert result.length == 0.0
    assert result.expanded == 0


def test_no_path_across_a_full_wall():
    # middle column fully blocked; the two sides are disconnected
    world = WorldMap.from_ascii((".#.", ".#.", ".#."))
    assert plan_path(world, (0, 0), (2, 2)) is None
    assert plan_path(world, (0, 2), (2, 0)) is None


def test_blocked_endpoints_are_rejected():
    world = WorldMap.from_ascii((".#", ".."))
    with pytest.raises(InvalidInput):
        plan_path(world, (1, 0), (0, 0))
    with pytest.raises(InvalidInput):
        plan_path(world, (0, 0), (1, 0))
    with pytest.raises(InvalidInput):
        plan_path(world, (0, 0), (5, 5))


def test_path_length_scales_with_cell_size():
    world = WorldMap(width=4, height=4, occupied=frozenset(), cell_size=0.5)
    result = plan_path(world, (0, 0), (3, 0))
    assert result.length == pytest.approx(1.5)


def test_planning_is_deterministic():
    world = walled_world()
    a = plan_path(world, (0, 0), (9, 0))
    b = plan_path(world, (0, 0), (9, 0))
    assert a.cells == b.cells


def test_path_detours_around_wall():
    world = walled_world()
    result = plan_path(world, (4, 0), (6, 0))
    # wall spans rows 0..8 at column 5; only gap is row 9
    assert result is not None
    assert result.length == pytest.approx(20.0)
    assert euclidean_estimate((4, 0), (6, 0)) < result.length


def test_matches_breadth_first_search_on_random_maps():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = int(rng.integers(2, 13))
        h = int(rng.integers(2, 13))
        occupied = frozenset(
            (int(c), int(r)) for c in range(w) for r in range(h)
            if rng.random() < 0.25)
        world = WorldMap(width=w, height=h, occupied=occupied)
        free = [(c, r) for c in range(w) for r in range(h)
                if world.is_free((c, r))]
        if len(free) < 2:
            continue
        for _ in range(12):
            start = free[int(rng.integers(len(free)))]
            goal = free[int(rng.integers(len(free)))]
            want = bfs_grid_distance(world, start, goal)
            got = plan_path(world, start, goal)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got.length == pytest.approx(want * world.cell_size)
                assert euclidean_estimate(start, goal) <= got.length + 1e-9


@pytest.mark.parametrize("cell_size", [1.0, 0.5])
def test_plan_path_equals_the_reference_astar(cell_size):
    # cells, length and expansion count, not just the length: the inlined
    # occupancy test and heuristic must not move a tie
    rng = np.random.default_rng(17)
    unreachable = same = 0
    for _ in range(30):
        w = int(rng.integers(1, 14))
        h = int(rng.integers(1, 14))
        occupied = frozenset(
            (int(c), int(r)) for c in range(w) for r in range(h) if rng.random() < 0.3)
        world = WorldMap(width=w, height=h, occupied=occupied, cell_size=cell_size)
        free = [(c, r) for c in range(w) for r in range(h) if world.is_free((c, r))]
        for _ in range(min(len(free), 10)):
            start = free[int(rng.integers(len(free)))]
            goal = free[int(rng.integers(len(free)))]
            got = plan_path(world, start, goal)
            assert got == reference_plan_path(world, start, goal)
            unreachable += got is None
            same += start == goal
    assert unreachable and same


# ----------------------------------------------------------- GridPlanner

def test_planner_memoizes_identical_queries():
    planner = GridPlanner(open_world(5, 5))
    first = planner.plan((0, 0), (4, 4))
    second = planner.plan((0, 0), (4, 4))
    assert second is first
    assert planner.calls == 2
    assert planner.cache_hits == 1


def test_planner_keeps_distinct_queries_separate():
    planner = GridPlanner(open_world(5, 5))
    a = planner.plan((0, 0), (4, 4))
    b = planner.plan((4, 4), (0, 0))
    assert a is not b
    assert planner.cache_hits == 0
    assert a.length == pytest.approx(b.length)


def test_planner_caches_unreachable_results_too():
    world = WorldMap.from_ascii((".#.", ".#.", ".#."))
    planner = GridPlanner(world)
    assert planner.plan((0, 0), (2, 0)) is None
    assert planner.plan((0, 0), (2, 0)) is None
    assert planner.cache_hits == 1


def test_planned_leg_seconds_is_infinite_when_unreachable():
    world = WorldMap.from_ascii((".#.", ".#.", ".#."))
    robot = Robot(traits=np.array([1.0]), start_cell=(0, 0), speed=1.0)
    task = Task(duration=1.0, start_site=(2, 0), end_site=(2, 0))
    domain = ProblemDomain(network=TaskNetwork(tasks=(task,)), robots=(robot,),
                           quality_maps=(LinearMap([1.0]),), world=world,
                           time_budget=10.0)
    leg = planned_leg_seconds(GridPlanner(world), domain)
    assert leg(0, (0, 0), (2, 0)) == math.inf
    assert leg(0, (0, 0), (0, 2)) == pytest.approx(2.0)


# --------------------------------------------------------- distance fields

def _fenced_worlds():
    """Seeded worlds with random walls, each with a walled-off pocket in
    its top-left corner, at two cell sizes."""
    rng = np.random.default_rng(21)
    for k in range(6):
        w, h = int(rng.integers(5, 9)), int(rng.integers(5, 9))
        blocked = {(c, r) for c in range(w) for r in range(h) if rng.random() < 0.2}
        blocked -= {(0, 0)}
        blocked |= {(1, 0), (1, 1), (0, 1)}   # (0, 0) sealed in
        yield WorldMap(width=w, height=h, occupied=frozenset(blocked),
                       cell_size=0.5 if k % 2 else 1.0)


def test_steps_match_astar_path_lengths_on_every_pair():
    unreachable = 0
    for world in _fenced_worlds():
        planner = GridPlanner(world)
        free = [(c, r) for c in range(world.width) for r in range(world.height)
                if world.is_free((c, r))]
        for goal in free:
            field = steps_field(world, goal)
            assert [k for k, x in enumerate(field) if x == -2] == sorted(
                r * world.width + c for c, r in world.occupied)
            for start in free:
                path = plan_path(world, start, goal)
                steps = planner.steps(start, goal)
                assert field[start[1] * world.width + start[0]] == (-1 if steps is None else steps)
                if path is None:
                    assert steps is None
                    unreachable += 1
                else:
                    assert steps == len(path.cells) - 1
                    assert steps * world.cell_size == path.length
        assert planner.calls == 0   # no A* run behind a distance
    assert unreachable


def test_steps_reject_blocked_and_outside_cells():
    world = WorldMap.from_ascii(("..#", "...", "..."))
    planner = GridPlanner(world)
    for bad in ((2, 0), (3, 0), (0, -1), (-1, 1), (0, 3)):
        with pytest.raises(InvalidInput):
            steps_field(world, bad)
        with pytest.raises(InvalidInput):
            planner.steps(bad, (0, 0))
        with pytest.raises(InvalidInput):
            planner.steps((0, 0), bad)


def test_planner_keeps_one_distance_field_per_goal(monkeypatch):
    import staq.motion as motion

    made = []
    real = motion.steps_field

    def counting(world, goal):
        made.append(goal)
        return real(world, goal)

    monkeypatch.setattr(motion, "steps_field", counting)
    planner = GridPlanner(open_world(5, 5))
    for start in ((0, 0), (4, 4), (2, 3), (0, 0)):
        assert planner.steps(start, (1, 1)) == abs(start[0] - 1) + abs(start[1] - 1)
    assert planner.steps((1, 1), (4, 0)) == 4
    assert made == [(1, 1), (4, 0)]


# ------------------------------------------------------- leg time sources

def test_estimated_leg_seconds_uses_straight_line():
    domain = two_task_domain()
    leg = estimated_leg_seconds(domain)
    # robot 0: speed 1, distance (0,0)->(3,4) is 5
    assert leg(0, (0, 0), (3, 4)) == pytest.approx(5.0)
    # robot 1: speed 2 halves the time
    assert leg(1, (0, 0), (3, 4)) == pytest.approx(2.5)


def test_planned_leg_seconds_uses_grid_paths():
    domain = two_task_domain()
    planner = GridPlanner(domain.world)
    leg = planned_leg_seconds(planner, domain)
    # Manhattan distance 7 for the diagonal-ish move on the grid
    assert leg(0, (0, 0), (3, 4)) == pytest.approx(7.0)
    assert leg(1, (0, 0), (3, 4)) == pytest.approx(3.5)


def test_planned_never_beats_estimate():
    domain = two_task_domain()
    planner = GridPlanner(domain.world)
    est = estimated_leg_seconds(domain)
    planned = planned_leg_seconds(planner, domain)
    cells = [(0, 0), (3, 4), (7, 7), (2, 0), (5, 6)]
    for a in cells:
        for b in cells:
            for r in (0, 1):
                assert est(r, a, b) <= planned(r, a, b) + 1e-9
