import dataclasses
import math
import re

import numpy as np
import pytest

from staq.analysis import brute_force_optimal, random_instance
from staq.learning import GPQualityMap, LinearQualityMap, gp_fit
from staq.model import (
    Allocation,
    InvalidInput,
    ProblemDomain,
    Robot,
    Schedule,
    Solution,
    Task,
    TaskNetwork,
    ValidationReport,
    WorldMap,
    by_mask,
    successors,
    total_allocation_quality,
    validate_solution,
)
from staq.motion import GridPlanner, PathResult
from staq.search import solve

from helpers import (
    LinearMap,
    allocation_from_entries,
    child_quality,
    open_world,
    two_task_domain,
)


# ---------------------------------------------------------------- WorldMap

def test_world_from_ascii_roundtrip():
    rows = ("..#", "#..", "...")
    world = WorldMap.from_ascii(rows)
    assert world.width == 3 and world.height == 3
    assert world.occupied == {(2, 0), (0, 1)}
    assert tuple(world.to_ascii()) == rows


def test_world_is_free_and_bounds():
    world = WorldMap.from_ascii(("..", ".#"))
    assert world.is_free((0, 0))
    assert not world.is_free((1, 1))      # occupied
    assert not world.is_free((2, 0))      # out of bounds
    assert not world.in_bounds((-1, 0))
    assert world.in_bounds((1, 1))


def test_world_rejects_bad_input():
    with pytest.raises(InvalidInput):
        WorldMap(width=0, height=3, occupied=frozenset())
    with pytest.raises(InvalidInput):
        WorldMap(width=3, height=3, occupied=frozenset(), cell_size=0.0)
    with pytest.raises(InvalidInput):
        WorldMap(width=2, height=2, occupied=frozenset({(5, 5)}))
    with pytest.raises(InvalidInput):
        WorldMap.from_ascii(("..", "."))     # ragged
    with pytest.raises(InvalidInput):
        WorldMap.from_ascii((".x",))         # unknown character
    with pytest.raises(InvalidInput):
        WorldMap.from_ascii(())


def _one_task(start_site=(0, 0), end_site=(1, 0)):
    return Task(duration=1.0, start_site=start_site, end_site=end_site)


NOT_INTEGER = [   # (the field the error names, a construction that must fail)
    pytest.param("map (width, height)", lambda: WorldMap(width=3.5, height=3), id="float-width"),
    pytest.param("occupied cell", lambda: WorldMap(width=3, height=3, occupied={(1.0, 2)}),
                 id="float-occupied-cell"),
    pytest.param("robot start_cell", lambda: Robot(np.ones(2), start_cell=(0.0, 1), speed=1.0),
                 id="float-robot-cell"),
    pytest.param("robot start_cell", lambda: Robot(np.ones(2), start_cell=(0, 1, 2), speed=1.0),
                 id="three-coordinate-robot-cell"),
    pytest.param("task start_site", lambda: _one_task(start_site=(0, 0.5)), id="float-start-site"),
    pytest.param("task end_site", lambda: _one_task(end_site=(1.0, 0)), id="float-end-site"),
    pytest.param("precedence pair", lambda: TaskNetwork((_one_task(),) * 2, precedence={(0, 1.5)}),
                 id="float-precedence"),
    pytest.param("precedence pair", lambda: TaskNetwork((_one_task(),) * 2, precedence={(0, "1")}),
                 id="string-precedence"),
    # a bool is an int to operator.index, but not a size, a coordinate or a task
    pytest.param("map (width, height)", lambda: WorldMap(width=True, height=3), id="bool-width"),
    pytest.param("occupied cell", lambda: WorldMap(width=3, height=3, occupied={(True, 2)}),
                 id="bool-occupied-cell"),
    pytest.param("robot start_cell", lambda: Robot(np.ones(2), start_cell=(False, 1), speed=1.0),
                 id="bool-robot-cell"),
    pytest.param("task end_site", lambda: _one_task(end_site=(True, 0)), id="bool-end-site"),
    pytest.param("precedence pair", lambda: TaskNetwork((_one_task(),) * 2, precedence={(0, True)}),
                 id="bool-precedence"),
]


@pytest.mark.parametrize("field, make", NOT_INTEGER)
def test_grid_input_must_be_integers(field, make):
    with pytest.raises(InvalidInput, match=re.escape(field)):
        make()


NOT_ITERABLE = [   # (the container the error names, a construction that must fail)
    pytest.param("occupied cells", lambda: WorldMap(width=3, height=3, occupied=5), id="occupied"),
    pytest.param("tasks", lambda: TaskNetwork(5), id="tasks"),
    pytest.param("precedence pairs", lambda: TaskNetwork(_tasks(2), precedence=5),
                 id="precedence"),
    pytest.param("robots", lambda: dataclasses.replace(two_task_domain(), robots=5), id="robots"),
    pytest.param("quality_maps", lambda: dataclasses.replace(two_task_domain(), quality_maps=5),
                 id="quality-maps"),
]


@pytest.mark.parametrize("field, make", NOT_ITERABLE)
def test_containers_must_be_iterable(field, make):
    with pytest.raises(InvalidInput, match=re.escape(f"{field} must be iterable, got 5")):
        make()


WRONG_MEMBER = [   # (the field the error names, a construction that must fail)
    pytest.param("robots[0] must be a Robot",
                 lambda: dataclasses.replace(two_task_domain(), robots=(5,)), id="robot"),
    pytest.param("world must be a WorldMap",
                 lambda: dataclasses.replace(two_task_domain(), world=5), id="world"),
    pytest.param("network must be a TaskNetwork",
                 lambda: dataclasses.replace(two_task_domain(), network=5), id="network"),
    pytest.param("tasks[0] must be a Task", lambda: TaskNetwork(tasks=(1, 2)), id="task"),
    pytest.param("quality_maps[0] must be callable",
                 lambda: dataclasses.replace(two_task_domain(), quality_maps=(5, 5)),
                 id="quality-map"),
]


@pytest.mark.parametrize("field, make", WRONG_MEMBER)
def test_members_must_have_their_type(field, make):
    with pytest.raises(InvalidInput, match=re.escape(f"{field}, got ")):
        make()


NUMBER_FIELDS = [   # (the field the error names, a construction from the value under test)
    pytest.param("cell_size", lambda v: WorldMap(width=3, height=3, cell_size=v), id="cell-size"),
    pytest.param("robot speed", lambda v: Robot(np.ones(2), start_cell=(0, 0), speed=v),
                 id="speed"),
    pytest.param("task duration", lambda v: Task(duration=v, start_site=(0, 0), end_site=(1, 0)),
                 id="duration"),
    pytest.param("time budget", lambda v: two_task_domain(time_budget=v), id="time-budget"),
    pytest.param("alpha", lambda v: two_task_domain(alpha=v), id="alpha"),
    pytest.param("normalizer", lambda v: LinearQualityMap(np.ones(2), v), id="normalizer"),
]


@pytest.mark.parametrize("value", [True, "1"], ids=["bool", "string"])
@pytest.mark.parametrize("field, make", NUMBER_FIELDS)
def test_number_input_must_be_a_real_number(field, make, value):
    # the message quotes the value, so a string reads '1', not 1
    with pytest.raises(InvalidInput, match=re.escape(f"{field} must be") + ".* got "
                       + re.escape(repr(value))):
        make(value)


VECTOR_FIELDS = [   # (the field the error names, a construction from the vector under test)
    pytest.param("robot traits", lambda v: Robot(v, start_cell=(0, 0), speed=1.0), id="traits"),
    pytest.param("weights", lambda v: LinearQualityMap(v, 1.0), id="weights"),
]


@pytest.mark.parametrize("value", [[True], np.array([True]), ["a"]],
                         ids=["bool", "numpy-bool", "string"])
@pytest.mark.parametrize("field, make", VECTOR_FIELDS)
def test_vector_input_must_be_real_numbers(field, make, value):
    with pytest.raises(InvalidInput, match=re.escape(f"{field} must be real numbers, got ")):
        make(value)


@pytest.mark.parametrize("field, make", [p for p in NUMBER_FIELDS if p.id != "alpha"])
def test_an_int_beyond_the_float_range_is_not_finite(field, make):
    with pytest.raises(InvalidInput, match=re.escape(f"{field} must be positive and finite")):
        make(10**400)


def test_numpy_integer_grid_input_is_read_as_ints():
    i = np.int64
    world = WorldMap(width=i(8), height=np.int32(8), occupied=frozenset({(i(4), i(4))}))
    robot = Robot(traits=np.ones(2), start_cell=np.array([0, 1]), speed=1.0)
    task = _one_task(start_site=(i(2), i(3)))
    network = TaskNetwork(tasks=(task, task), mutex={(i(1), i(0))})
    ints = [world.width, world.height, *next(iter(world.occupied)), *robot.start_cell,
            *task.start_site, *next(iter(network.mutex))]
    assert all(type(x) is int for x in ints)
    assert (world.occupied, robot.start_cell, network.mutex) == ({(4, 4)}, (0, 1), {(0, 1)})


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("value", NON_FINITE)
def test_world_rejects_non_finite_cell_size(value):
    with pytest.raises(InvalidInput, match="cell_size"):
        WorldMap(width=3, height=3, cell_size=value)


# ------------------------------------------------------------ Robot / Task

def test_robot_validation():
    Robot(traits=np.array([0.0, 1.5]), start_cell=(0, 0), speed=1.0)
    with pytest.raises(InvalidInput):
        Robot(traits=np.array([-0.1, 1.0]), start_cell=(0, 0), speed=1.0)
    with pytest.raises(InvalidInput):
        Robot(traits=np.array([]), start_cell=(0, 0), speed=1.0)
    with pytest.raises(InvalidInput):
        Robot(traits=np.array([1.0]), start_cell=(0, 0), speed=0.0)


@pytest.mark.parametrize("value", NON_FINITE)
def test_robot_rejects_non_finite_speed(value):
    with pytest.raises(InvalidInput, match="speed"):
        Robot(traits=np.array([1.0]), start_cell=(0, 0), speed=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_robot_rejects_non_finite_traits(value):
    with pytest.raises(InvalidInput, match="traits must be finite"):
        Robot(traits=np.array([1.0, value]), start_cell=(0, 0), speed=1.0)


@pytest.mark.parametrize("value", NON_FINITE)
def test_task_rejects_non_finite_duration(value):
    with pytest.raises(InvalidInput, match="duration"):
        Task(duration=value, start_site=(0, 0), end_site=(1, 0))


def test_task_validation():
    Task(duration=2.0, start_site=(0, 0), end_site=(1, 0))
    with pytest.raises(InvalidInput):
        Task(duration=0.0, start_site=(0, 0), end_site=(1, 0))
    with pytest.raises(InvalidInput):
        Task(duration=-3.0, start_site=(0, 0), end_site=(1, 0))


# ------------------------------------------------------------- TaskNetwork

def _tasks(m):
    return tuple(Task(duration=1.0, start_site=(i, 0), end_site=(i, 0))
                 for i in range(m))


def test_network_canonicalizes_mutex_pairs():
    net = TaskNetwork(tasks=_tasks(3), precedence=frozenset(),
                      mutex=frozenset({(2, 0), (1, 2)}))
    assert net.mutex == {(0, 2), (1, 2)}


def test_network_rejects_self_pairs_and_range():
    with pytest.raises(InvalidInput):
        TaskNetwork(tasks=_tasks(2), precedence=frozenset({(1, 1)}),
                    mutex=frozenset())
    with pytest.raises(InvalidInput):
        TaskNetwork(tasks=_tasks(2), precedence=frozenset(),
                    mutex=frozenset({(0, 5)}))
    with pytest.raises(InvalidInput):
        TaskNetwork(tasks=(), precedence=frozenset(), mutex=frozenset())


def test_network_rejects_precedence_cycle():
    with pytest.raises(InvalidInput):
        TaskNetwork(tasks=_tasks(2), precedence=frozenset({(0, 1), (1, 0)}),
                    mutex=frozenset())
    # A diamond is fine: 0->1, 0->2, 1->3, 2->3.
    TaskNetwork(tasks=_tasks(4),
                precedence=frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}),
                mutex=frozenset())


# -------------------------------------------------------------- Allocation

def test_allocation_key_is_row_major_most_significant_first():
    alloc = allocation_from_entries(np.array([[1, 0], [0, 1]]))
    assert alloc.key == 0b1001
    assert allocation_from_entries(np.array([[1, 1, 0]])).key == 0b110
    assert Allocation.root(2, 2).key == 0b1111
    assert Allocation.null(2, 2).key == 0


def test_allocation_from_key_roundtrip():
    for key in range(16):
        alloc = Allocation(key, (2, 2))
        assert alloc.key == key
        assert allocation_from_entries(alloc.entries.copy()).key == key


def test_allocation_from_entries_inverts_entries_for_every_key():
    for key in range(1 << 6):
        alloc = Allocation(key, (2, 3))
        assert allocation_from_entries(alloc.entries) == alloc


def test_allocation_rejects_keys_outside_its_shape():
    for key, shape in ((-1, (2, 2)), (16, (2, 2)), (1, (0, 3)), (0, (-1, 2)), (0, (2, -1))):
        with pytest.raises(InvalidInput):
            Allocation(key, shape)
    assert Allocation(15, (2, 2)) == Allocation.root(2, 2)
    assert Allocation(0, (0, 3)).entries.shape == (0, 3)


def test_allocation_equality_and_hash():
    a = allocation_from_entries(np.array([[1, 0], [0, 1]]))
    b = allocation_from_entries(np.array([[1, 0], [0, 1]], dtype=bool))
    c = allocation_from_entries(np.array([[1, 0, 0, 1]]))   # same bits, different shape
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_allocation_rejects_non_binary_entries():
    for bad in ([[0.5, 0.0]], [[2, 0]], [[-1, 1]], [[256, 0]]):
        with pytest.raises(InvalidInput):
            allocation_from_entries(np.array(bad))
    with pytest.raises(InvalidInput):
        allocation_from_entries(np.array([1, 0]))   # 1-D
    # exact floats and bools are accepted
    assert allocation_from_entries(np.array([[1.0, 0.0]])).key == 0b10
    assert allocation_from_entries(np.array([[True, False]])).key == 0b10


def test_allocation_entries_are_read_only():
    alloc = Allocation.root(2, 2)
    with pytest.raises(ValueError):
        alloc.entries[0, 0] = 0


def test_values_holding_arrays_are_identity_equal():
    first, second = random_instance(1), random_instance(1)
    values = [first, second, first.robots[0], second.robots[0],
              first.quality_maps[0], second.quality_maps[0],
              gp_fit([[0.0, 1.0], [1.0, 0.0]], [0.2, 0.8]),
              gp_fit([[0.0, 1.0], [1.0, 0.0]], [0.2, 0.8])]
    for a in values:
        for b in values:
            assert (a == b) is (a is b)
            assert (a != b) is (a is not b)
    assert len({first, second, first.robots[0]}) == 3   # hashable by identity


def test_allocation_coalition_and_popcount():
    alloc = allocation_from_entries(np.array([[1, 0, 1], [0, 0, 0]]))
    assert alloc.coalition(0) == (0, 2)
    assert alloc.coalition(1) == ()
    assert alloc.key.bit_count() == 2


# -------------------------------------------------- trait aggregation

class RecordingMap:
    """Quality 0.5 for any coalition; keeps every trait vector it is given."""

    def __init__(self):
        self.seen = []

    def __call__(self, traits):
        self.seen.append(np.array(traits))
        return 0.5


def _aggregated(alloc, traits):
    """The trait vector each task's quality map receives under alloc."""
    maps = [RecordingMap() for _ in range(alloc.shape[0])]
    total_allocation_quality(alloc.coalition_masks(), _domain_with_maps(maps, traits))
    return np.array([qm.seen[-1] for qm in maps])


def test_task_quality_sees_each_lone_robots_traits():
    traits = np.array([[3.0, 1.0], [2.0, 5.0]])
    assert np.array_equal(_aggregated(allocation_from_entries(np.eye(2, dtype=int)), traits),
                          traits)
    swapped = _aggregated(allocation_from_entries(np.array([[0, 1], [1, 0]])), traits)
    assert np.array_equal(swapped, traits[::-1])


def test_task_quality_of_the_empty_coalition_sees_zero_traits():
    traits = np.array([[3.0, 1.0], [2.0, 5.0]])
    assert np.array_equal(_aggregated(Allocation.null(2, 2), traits), np.zeros((2, 2)))


def test_task_quality_sums_the_coalition_traits():
    traits = np.array([[1.0, 0.0], [0.0, 2.0]])
    alloc = allocation_from_entries(np.array([[1, 1], [0, 1]]))
    assert np.array_equal(_aggregated(alloc, traits), np.array([[1.0, 2.0], [0.0, 2.0]]))


def test_quality_rejects_allocations_and_masks_outside_the_domain():
    domain = _domain_with_maps([LinearMap([1, 1]), LinearMap([1, 1])], np.ones((2, 2)))
    for masks in (Allocation.root(2, 3).coalition_masks(), (0, 0, 0)):
        with pytest.raises(InvalidInput):
            total_allocation_quality(masks, domain)
    for task, mask in ((2, 0), (-1, 0), (0, 4), (0, -1)):
        with pytest.raises(InvalidInput):
            domain.task_quality(task, mask)


def test_solves_and_the_oracle_read_a_domain_without_changing_it():
    class Counting:
        def __init__(self, inner):
            self.inner, self.calls = inner, 0

        def __call__(self, traits):
            self.calls += 1
            return self.inner(traits)

    base = random_instance(1)
    maps = tuple(Counting(qm) for qm in base.quality_maps)
    domain = dataclasses.replace(base, quality_maps=maps)
    attributes = dict(vars(domain))
    assert set(attributes) == {f.name for f in dataclasses.fields(domain)}
    every_mask = 2 ** domain.n_robots
    solution, _ = solve(domain)
    assert solution is not None
    # the root's and the empty allocation's qualities, then the tables
    assert all(0 < qm.calls <= every_mask + 2 for qm in maps)
    for qm in maps:
        qm.calls = 0
    oracle = brute_force_optimal(domain)   # reads every (task, mask) once
    assert [qm.calls for qm in maps] == [every_mask] * domain.n_tasks
    assert vars(domain).keys() == attributes.keys()
    assert all(getattr(domain, name) is value for name, value in attributes.items())
    assert brute_force_optimal(base) == oracle


def test_quality_tables_hold_what_task_quality_reads(monkeypatch):
    import staq.model as model

    for seed in range(6):
        base = random_instance(seed)
        m, n = base.n_tasks, base.n_robots
        one_by_one = dataclasses.replace(base)
        want = [[one_by_one.task_quality(t, mask) for mask in range(1 << n)] for t in range(m)]
        tables = dataclasses.replace(base).quality_tables()
        assert all(type(table) is list for table in tables)
        assert [table for table in tables] == want   # the same floats, bit for bit
        # past the cap the tables stay memos, and the oracle's arrays agree
        with monkeypatch.context() as patch:
            patch.setattr(model, "TABLE_MAX_ROBOTS", 0)
            wide = dataclasses.replace(base)
            assert [array.tolist() for array in wide.quality_arrays()] == want
            tables = wide.quality_tables()
            assert not any(isinstance(table, list) for table in tables)
            assert [[table[mask] for mask in range(1 << n)] for table in tables] == want


def test_coalition_trait_sums_follow_the_mask_layout():
    traits = np.array([[1.0, 0.5], [2.0, 0.25], [4.0, 0.125]])
    sums = by_mask(traits, np.add)
    # the same doubling gives a travel table's slowest robot of every mask
    travel = np.array([[3.0, math.inf], [5.0, 1.0], [0.5, 2.0]])
    slowest = by_mask(travel, np.maximum)
    assert sums.shape == slowest.shape == (8, 2)
    for mask in range(8):
        members = [r for r in range(3) if (mask >> (2 - r)) & 1]   # robot 0 most significant
        assert sums[mask].tolist() == traits[members].sum(axis=0).tolist()
        assert slowest[mask].tolist() == travel[members].max(axis=0, initial=0.0).tolist()


# ---------------------------------------------- total allocation quality

def _domain_with_maps(maps, traits):
    robots = tuple(Robot(traits=traits[n], start_cell=(n, 0), speed=1.0)
                   for n in range(traits.shape[0]))
    tasks = tuple(Task(duration=1.0, start_site=(m, 1), end_site=(m, 1))
                  for m in range(len(maps)))
    net = TaskNetwork(tasks=tasks, precedence=frozenset(), mutex=frozenset())
    return ProblemDomain(network=net, robots=robots, quality_maps=tuple(maps),
                         world=open_world(), time_budget=100.0)


def test_quality_of_null_allocation_under_nonnegative_maps():
    traits = np.array([[0.4, 0.2], [0.1, 0.9]])
    domain = _domain_with_maps([LinearMap([1, 1]), LinearMap([2, 1])], traits)
    assert total_allocation_quality(Allocation.null(2, 2).coalition_masks(), domain) == 0.0


def test_quality_sums_per_task_and_clamps():
    traits = np.array([[0.4, 0.2], [0.1, 0.9]])
    domain = _domain_with_maps([lambda y: 1.0, lambda y: 1.0], traits)
    assert total_allocation_quality(Allocation.root(2, 2).coalition_masks(), domain) == 2.0
    domain = _domain_with_maps([lambda y: 1.5, lambda y: -0.5], traits)
    assert total_allocation_quality(Allocation.root(2, 2).coalition_masks(), domain) == 1.0


def test_quality_weighted_sum_example():
    traits = np.array([[0.2, 0.4], [0.8, 0.6]])
    domain = _domain_with_maps([LinearMap([0.5, 0.5]), LinearMap([0.5, 0.5])],
                               traits)
    alloc = allocation_from_entries(np.array([[1, 0], [1, 1]]))
    # rows of A @ Q are (0.2, 0.4) and (1.0, 1.0)
    assert total_allocation_quality(alloc.coalition_masks(), domain) == pytest.approx(1.3)


# --------------------------------------------------------------- successors

def test_successors_of_root_clear_one_bit_each():
    children = successors(Allocation.root(2, 2))
    assert len(children) == 4
    assert all(c.bit_count() == 3 for c in children)
    # row-major emission: first child clears entry (0, 0)
    assert Allocation(children[0], (2, 2)).entries[0, 0] == 0
    assert len(set(children)) == 4


def test_successors_of_null_is_empty():
    assert successors(Allocation.null(2, 2)) == []


def test_successors_exact_set():
    alloc = allocation_from_entries(np.array([[1, 0], [0, 1]]))
    got = set(successors(alloc))
    want = {allocation_from_entries(np.array([[0, 0], [0, 1]])).key,
            allocation_from_entries(np.array([[1, 0], [0, 0]])).key}
    assert got == want


def test_successors_and_coalition_masks_follow_the_key_layout():
    entries = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 0]])
    alloc = allocation_from_entries(entries)
    set_cells = [(0, 0), (0, 2), (1, 1), (1, 2), (2, 0)]   # row-major
    children = successors(alloc)
    assert all(isinstance(c, int) for c in children)
    assert [alloc.key ^ c for c in children] == [1 << (8 - 3 * i - j) for i, j in set_cells]
    for child, (i, j) in zip(children, set_cells):
        want = entries.copy()
        want[i, j] = 0
        assert np.array_equal(Allocation(child, alloc.shape).entries, want)
    assert [alloc.coalition_mask(t) for t in range(3)] == [0b101, 0b011, 0b100]
    assert alloc.coalition_masks() == (0b101, 0b011, 0b100)
    for task in range(3):
        mask = alloc.coalition_mask(task)
        assert tuple(r for r in range(3) if mask >> (2 - r) & 1) == alloc.coalition(task)
    for task in (-1, 3):
        with pytest.raises(InvalidInput):
            alloc.coalition_mask(task)


def test_child_quality_equals_the_total_of_the_childs_masks():
    # exact equality: the search ranks nodes on these values and must
    # reproduce total_allocation_quality to the last bit
    rng = np.random.default_rng(99)
    checked = 0
    for seed in range(20):
        domain = random_instance(seed)
        m, n = domain.n_tasks, domain.n_robots
        for _ in range(10):
            parent = Allocation(int(rng.integers(0, 1 << m * n)), (m, n))
            masks = parent.coalition_masks()
            qualities = [domain.task_quality(t, mask) for t, mask in enumerate(masks)]
            assert child_quality(qualities, -1, 0.0) == total_allocation_quality(masks, domain)
            for child in successors(parent):
                child_masks = Allocation(child, (m, n)).coalition_masks()
                task = next(t for t in range(m) if child_masks[t] != masks[t])
                got = child_quality(qualities, task, domain.task_quality(task, child_masks[task]))
                assert got == total_allocation_quality(child_masks, domain)
                checked += 1
    assert checked > 500


# ---------------------------------------------------------- ProblemDomain

def test_domain_validation_errors():
    traits = np.array([[1.0, 0.0]])
    robot = Robot(traits=traits[0], start_cell=(0, 0), speed=1.0)
    task = Task(duration=1.0, start_site=(1, 0), end_site=(1, 0))
    net = TaskNetwork(tasks=(task,), precedence=frozenset(), mutex=frozenset())
    world = open_world(4, 4)
    kw = dict(network=net, robots=(robot,), quality_maps=(LinearMap([1, 1]),),
              world=world, time_budget=10.0)

    ProblemDomain(**kw)
    with pytest.raises(InvalidInput):
        ProblemDomain(**{**kw, "time_budget": 0.0})
    with pytest.raises(InvalidInput):
        ProblemDomain(**{**kw, "alpha": 1.5})
    with pytest.raises(InvalidInput):
        ProblemDomain(**{**kw, "quality_maps": ()})
    with pytest.raises(InvalidInput):
        ProblemDomain(**{**kw, "robots": ()})
    bad_robot = Robot(traits=np.array([1.0, 0.0, 0.0]),
                      start_cell=(0, 0), speed=1.0)
    with pytest.raises(InvalidInput):
        ProblemDomain(**{**kw, "robots": (robot, bad_robot)})
    blocked = WorldMap(width=4, height=4, occupied=frozenset({(0, 0)}))
    with pytest.raises(InvalidInput):
        ProblemDomain(**{**kw, "world": blocked})


def test_domain_rejects_a_quality_map_of_another_width():
    # built in code, not loaded from a document: the width is checked at
    # construction, where solve would otherwise fail on a shape mismatch
    base = random_instance(1)
    u = base.n_traits
    linear = base.quality_maps[0]
    wider = LinearQualityMap(np.append(linear.weights, 0.5), linear.normalizer)
    x = np.random.default_rng(0).random((3, u + 1))
    gp = GPQualityMap(gp_fit(x, np.full(3, 0.5)))
    for bad in (wider, gp):
        assert bad.width == u + 1
        with pytest.raises(InvalidInput, match=f"task 0: quality map reads {u + 1} traits"):
            dataclasses.replace(base, quality_maps=(bad,) + base.quality_maps[1:])
    fitting = GPQualityMap(gp_fit(x[:, :u], np.full(3, 0.5)))
    assert linear.width == fitting.width == u
    domain = dataclasses.replace(base, quality_maps=(fitting,) + base.quality_maps[1:])
    assert solve(domain)[0] is not None
    # a map without a width property is not checked
    dataclasses.replace(base, quality_maps=(LinearMap(np.ones(u + 1)),) + base.quality_maps[1:])


@pytest.mark.parametrize("value", NON_FINITE)
def test_domain_rejects_non_finite_time_budget(value):
    with pytest.raises(InvalidInput, match="time budget"):
        two_task_domain(time_budget=value)


def test_robots_and_tasks_are_known_by_position():
    with pytest.raises(TypeError):
        Robot(id=0, traits=np.array([1.0]), start_cell=(0, 0), speed=1.0)
    with pytest.raises(TypeError):
        Task(id=0, duration=1.0, start_site=(1, 0), end_site=(1, 0))
    # the domain names a robot or task by its position
    near = Robot(traits=np.array([1.0]), start_cell=(0, 0), speed=1.0)
    lost = Robot(traits=np.array([1.0]), start_cell=(6, 0), speed=1.0)
    task = Task(duration=1.0, start_site=(1, 0), end_site=(1, 0))
    off_map = Task(duration=1.0, start_site=(1, 0), end_site=(1, 1))

    def domain(robots, tasks):
        return ProblemDomain(network=TaskNetwork(tasks=tasks), robots=robots,
                             quality_maps=(LinearMap([1.0]),) * len(tasks),
                             world=open_world(6, 1), time_budget=10.0)

    with pytest.raises(InvalidInput, match=r"robot 1: start cell \(6, 0\)"):
        domain((near, lost), (task,))
    with pytest.raises(InvalidInput, match=r"task 1: site \(1, 1\)"):
        domain((near,), (task, off_map))


def test_domain_traits_matrix_is_stacked():
    domain = two_task_domain()
    assert domain.traits.shape == (2, 2)
    assert np.array_equal(domain.traits, np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert domain.n_tasks == 2 and domain.n_robots == 2 and domain.n_traits == 2


# --------------------------------------------------------- validate_solution

def _single_task_domain():
    """One robot already standing on the only task's start site."""
    world = open_world(4, 4)
    robot = Robot(traits=np.array([1.0]), start_cell=(1, 1), speed=1.0)
    task = Task(duration=5.0, start_site=(1, 1), end_site=(2, 1))
    net = TaskNetwork(tasks=(task,), precedence=frozenset(), mutex=frozenset())
    return ProblemDomain(network=net, robots=(robot,),
                         quality_maps=(LinearMap([1.0]),), world=world,
                         time_budget=5.0)


def _solution(domain, alloc, starts, makespan, plans):
    return Solution(allocation=alloc,
                    schedule=Schedule(start_times=starts, makespan=makespan),
                    orderings={}, motion_plans=plans, total_quality=0.0, quality_loss=0.0,
                    overrun=0.0, blended=0.0)


def test_validate_accepts_makespan_exactly_at_budget():
    domain = _single_task_domain()
    plan = PathResult(cells=((1, 1),), length=0.0, expanded=0)
    sol = _solution(domain, Allocation.root(1, 1), (0.0,), 5.0,
                    {(0, 0): plan})
    report = validate_solution(domain, sol)
    assert report.ok
    assert report.empty_coalitions == ()


def test_validate_flags_budget_and_makespan_mismatch():
    domain = _single_task_domain()
    plan = PathResult(cells=((1, 1),), length=0.0, expanded=0)
    sol = _solution(domain, Allocation.root(1, 1), (1.0,), 6.0,
                    {(0, 0): plan})
    report = validate_solution(domain, sol)
    assert any("exceeds time budget" in v for v in report.violations)

    sol = _solution(domain, Allocation.root(1, 1), (0.0,), 4.0,
                    {(0, 0): plan})
    report = validate_solution(domain, sol)
    assert any("recorded makespan" in v for v in report.violations)


def test_validate_flags_precedence_violation():
    domain = two_task_domain(precedence={(0, 1)}, time_budget=100.0)
    planner = GridPlanner(domain.world)
    alloc = allocation_from_entries(np.array([[1, 0], [0, 1]]))
    plans = {
        (0, 0): planner.plan((0, 0), (2, 0)),
        (1, 1): planner.plan((7, 7), (5, 7)),
    }
    # both tasks start immediately: task 1 ignores the precedence arc
    sol = _solution(domain, alloc, (2.0, 1.0), 6.0, plans)
    report = validate_solution(domain, sol, planner)
    assert any("precedence" in v for v in report.violations)


def test_validate_flags_negative_start_and_early_start():
    domain = _single_task_domain()
    plan = PathResult(cells=((1, 1),), length=0.0, expanded=0)
    sol = _solution(domain, Allocation.root(1, 1), (-1.0,), 4.0,
                    {(0, 0): plan})
    report = validate_solution(domain, sol)
    assert any("negative start" in v for v in report.violations)


def test_validate_flags_bad_motion_plans():
    domain = _single_task_domain()
    alloc = Allocation.root(1, 1)

    report = validate_solution(domain, _solution(domain, alloc, (0.0,), 5.0, {}))
    assert any("no motion plan" in v for v in report.violations)

    wrong_origin = PathResult(cells=((0, 0), (1, 0), (1, 1)), length=2.0,
                              expanded=3)
    report = validate_solution(
        domain, _solution(domain, alloc, (2.0,), 7.0, {(0, 0): wrong_origin}))
    assert any("path starts at" in v for v in report.violations)

    jump = PathResult(cells=((1, 1), (3, 3), (1, 1)), length=2.0, expanded=0)
    report = validate_solution(
        domain, _solution(domain, alloc, (2.0,), 7.0, {(0, 0): jump}))
    assert any("not 4-adjacent" in v for v in report.violations)

    bad_length = PathResult(cells=((1, 1),), length=3.0, expanded=0)
    report = validate_solution(
        domain, _solution(domain, alloc, (0.0,), 5.0, {(0, 0): bad_length}))
    assert any("recorded length" in v for v in report.violations)

    stay = PathResult(cells=((1, 1),), length=0.0, expanded=0)
    report = validate_solution(
        domain, _solution(domain, alloc, (0.0, 0.0), 5.0, {(0, 0): stay}))
    assert report.violations == ("schedule has 2 start times for 1 tasks",)

    empty = PathResult(cells=(), length=0.0, expanded=0)
    report = validate_solution(
        domain, _solution(domain, alloc, (0.0,), 5.0, {(0, 0): empty}))
    assert report.violations == ("robot 0 -> task 0: empty path",)

    off_site = PathResult(cells=((1, 1), (1, 2)), length=1.0, expanded=2)
    report = validate_solution(
        domain, _solution(domain, alloc, (1.0,), 6.0, {(0, 0): off_site}))
    assert any("path ends at (1, 2), expected (1, 1)" in v for v in report.violations)

    walled = dataclasses.replace(domain, world=WorldMap(4, 4, occupied=frozenset({(1, 2)})))
    through_wall = PathResult(cells=((1, 1), (1, 2), (1, 1)), length=2.0, expanded=3)
    report = validate_solution(
        walled, _solution(walled, alloc, (2.0,), 7.0, {(0, 0): through_wall}))
    assert any("crosses blocked cell (1, 2)" in v for v in report.violations)


def test_validate_flags_overlapping_mutex_pair():
    domain = two_task_domain(mutex={(0, 1)}, time_budget=100.0)
    planner = GridPlanner(domain.world)
    alloc = allocation_from_entries(np.array([[1, 0], [0, 1]]))
    plans = {
        (0, 0): planner.plan((0, 0), (2, 0)),
        (1, 1): planner.plan((7, 7), (5, 7)),
    }
    # each robot arrives in time, but the declared mutex pair runs at once
    sol = _solution(domain, alloc, (2.0, 1.0), 6.0, plans)
    report = validate_solution(domain, sol, planner)
    assert report.violations == ("mutex (0,1): tasks overlap under both orderings",)


def test_validate_flags_travel_slower_than_schedule():
    domain = two_task_domain(time_budget=100.0)
    planner = GridPlanner(domain.world)
    alloc = allocation_from_entries(np.array([[1, 0], [0, 0]]))
    plans = {(0, 0): planner.plan((0, 0), (2, 0))}
    # robot 0 needs 2s to reach the site but the task is scheduled at t=1
    sol = _solution(domain, alloc, (1.0, 50.0), 53.0, plans)
    report = validate_solution(domain, sol, planner)
    assert any("travel takes" in v for v in report.violations)


def test_validate_reports_empty_coalitions_without_violation():
    domain = two_task_domain(time_budget=100.0)
    planner = GridPlanner(domain.world)
    alloc = allocation_from_entries(np.array([[1, 0], [0, 0]]))
    plans = {(0, 0): planner.plan((0, 0), (2, 0))}
    sol = _solution(domain, alloc, (2.0, 0.0), 6.0, plans)
    report = validate_solution(domain, sol, planner)
    assert report.ok
    assert report.empty_coalitions == (1,)


def test_validation_report_ok_property():
    assert ValidationReport(()).ok
    assert not ValidationReport(("boom",)).ok
