"""Domain model: robots, tasks, allocations, schedules, and solution validation.

Values are immutable after construction and safe to share across
threads; the module-level operations are pure functions. MaskMemo, a table
by coalition mask filled as it is read, and by_mask, a fold over every mask
at once, serve ProblemDomain's quality tables and the scheduler's travel
tables alike.
"""

from __future__ import annotations

import numbers
import operator
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

Cell = tuple[int, int]
"""Grid coordinate as (col, row)."""

QualityMap = Callable[[np.ndarray], float]
"""Maps a task's aggregated trait vector to a quality score in [0, 1].

ProblemDomain checks a map's `width` property, the trait vector length it
reads, against the robots' trait count; a map without one is unchecked."""

TOL = 1e-9

TABLE_MAX_ROBOTS = 7
"""Widest team whose per-mask tables (a task's qualities, a travel table's
pieces and piece ids) are tabulated whole, 2^n entries at a time with
by_mask, when the search first reads them; a wider team keeps them as
MaskMemos, each mask derived when first read. Set from whole solves
timed both ways (scripts/table_costs.py, the `table_costs` record in
BENCH_21.json): up to 7 robots tabulating won on every search of 20 or
more expansions; at 8 one search ran 19% slower tabulated, and the
tabulation's own cost doubles with each robot (about 1.6 ms at 8
robots, 45 ms at 12), which short solves pay in full."""


class InvalidInput(ValueError):
    """An operation received arguments that violate its contract."""


def _real(x) -> bool:
    """A real number, not a bool: numpy numbers pass, numpy bools do not."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _positive_finite(x) -> bool:
    """NaN fails every comparison, so a plain `x <= 0` check lets it through;
    an infinity or an int beyond the float range fails the upper bound."""
    return _real(x) and 0 < x <= sys.float_info.max


def _integer_pair(value, what: str) -> tuple[int, int]:
    """value as a pair of ints, such as a (col, row) cell or a task pair; a
    numpy integer passes, a bool, a float or a string does not."""
    try:
        a, b = value
        if not (isinstance(a, bool) or isinstance(b, bool)):
            return operator.index(a), operator.index(b)
    except (TypeError, ValueError):
        pass
    raise InvalidInput(f"{what} must be a pair of integers, got {value!r}")


def _as_tuple(value, what: str) -> tuple:
    try:
        return tuple(value)
    except TypeError:
        raise InvalidInput(f"{what} must be iterable, got {value!r}") from None


def _real_vector(values, what: str) -> np.ndarray:
    """values as a read-only float array, each member a real number and not
    a bool (_real); a numpy array of ints or floats passes whole."""
    members = values
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        members = _as_tuple(values, what)
        if not all(map(_real, members)):
            raise InvalidInput(f"{what} must be real numbers, got {values!r}")
    vector = np.array(members, dtype=float)
    vector.setflags(write=False)
    return vector


def _of_type(value, kind: type, what: str) -> None:
    if not isinstance(value, kind):
        raise InvalidInput(f"{what} must be a {kind.__name__}, got {value!r}")


class ContractViolation(RuntimeError):
    """A numeric precondition was broken beyond tolerance."""


@dataclass(frozen=True)
class WorldMap:
    """Occupancy grid. Cells are addressed as (col, row), row 0 at the top.
    Sizes and cells are integers; numpy integers are stored as ints."""

    width: int
    height: int
    occupied: frozenset[Cell] = frozenset()
    cell_size: float = 1.0

    def __post_init__(self) -> None:
        width, height = _integer_pair((self.width, self.height), "map (width, height)")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        if self.width < 1 or self.height < 1:
            raise InvalidInput("map dimensions must be positive")
        if not _positive_finite(self.cell_size):
            raise InvalidInput(f"cell_size must be positive and finite, got {self.cell_size!r}")
        occupied = frozenset(_integer_pair(cell, "occupied cell")
                             for cell in _as_tuple(self.occupied, "occupied cells"))
        object.__setattr__(self, "occupied", occupied)
        for cell in occupied:
            if not self.in_bounds(cell):
                raise InvalidInput(f"occupied cell {cell} outside map bounds")

    def in_bounds(self, cell: Cell) -> bool:
        col, row = cell
        return 0 <= col < self.width and 0 <= row < self.height

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.occupied

    @classmethod
    def from_ascii(cls, rows: Sequence[str], cell_size: float = 1.0) -> WorldMap:
        """Parse a map from strings: '.' free, '#' occupied."""
        if not rows:
            raise InvalidInput("empty map")
        width = len(rows[0])
        occupied = set()
        for r, line in enumerate(rows):
            if len(line) != width:
                raise InvalidInput(f"map row {r} has length {len(line)}, expected {width}")
            for c, ch in enumerate(line):
                if ch == "#":
                    occupied.add((c, r))
                elif ch != ".":
                    raise InvalidInput(f"map cell ({c},{r}): unknown character {ch!r}")
        return cls(width=width, height=len(rows), occupied=frozenset(occupied), cell_size=cell_size)

    def to_ascii(self) -> list[str]:
        return [
            "".join("#" if (c, r) in self.occupied else "." for c in range(self.width))
            for r in range(self.height)
        ]


@dataclass(frozen=True, eq=False)
class Robot:
    """A robot: a trait vector plus its start cell and speed (cells/second).

    A robot is known by its position in ProblemDomain.robots. Equality is
    identity: a trait array has no single truth value.
    """

    traits: np.ndarray
    start_cell: Cell
    speed: float

    def __post_init__(self) -> None:
        traits = _real_vector(self.traits, "robot traits")
        object.__setattr__(self, "traits", traits)
        object.__setattr__(self, "start_cell", _integer_pair(self.start_cell, "robot start_cell"))
        if traits.ndim != 1 or traits.size < 1:
            raise InvalidInput("robot traits must be a non-empty vector")
        if not np.all(np.isfinite(traits)):
            raise InvalidInput("robot traits must be finite")
        if np.any(traits < 0):
            raise InvalidInput("robot traits must be non-negative")
        if not _positive_finite(self.speed):
            raise InvalidInput(f"robot speed must be positive and finite, got {self.speed!r}")


@dataclass(frozen=True)
class Task:
    """A task with a fixed duration and start/end sites on the grid, known
    by its position in TaskNetwork.tasks."""

    duration: float
    start_site: Cell
    end_site: Cell

    def __post_init__(self) -> None:
        if not _positive_finite(self.duration):
            raise InvalidInput(f"task duration must be positive and finite, got {self.duration!r}")
        for name in ("start_site", "end_site"):
            object.__setattr__(self, name, _integer_pair(getattr(self, name), f"task {name}"))


def _canonical_pairs(pairs, m: int, *, ordered: bool, kind: str) -> frozenset[tuple[int, int]]:
    out = set()
    for pair in _as_tuple(pairs, f"{kind} pairs"):
        i, j = _integer_pair(pair, f"{kind} pair")
        if i == j:
            raise InvalidInput(f"{kind} pair ({i},{j}) is a self-pair")
        if not (0 <= i < m and 0 <= j < m):
            raise InvalidInput(f"{kind} pair ({i},{j}) outside task range [0,{m})")
        out.add((i, j) if ordered else (min(i, j), max(i, j)))
    return frozenset(out)


@dataclass(frozen=True)
class TaskNetwork:
    """Tasks plus precedence (ordered) and mutex (unordered) constraints."""

    tasks: tuple[Task, ...]
    precedence: frozenset[tuple[int, int]] = frozenset()
    mutex: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        tasks = _as_tuple(self.tasks, "tasks")
        object.__setattr__(self, "tasks", tasks)
        for k, task in enumerate(tasks):
            _of_type(task, Task, f"tasks[{k}]")
        m = len(tasks)
        if m < 1:
            raise InvalidInput("task network needs at least one task")
        object.__setattr__(
            self, "precedence", _canonical_pairs(self.precedence, m, ordered=True, kind="precedence")
        )
        object.__setattr__(
            self, "mutex", _canonical_pairs(self.mutex, m, ordered=False, kind="mutex")
        )
        if self._has_cycle():
            raise InvalidInput("precedence graph contains a cycle")

    def _has_cycle(self) -> bool:
        m = len(self.tasks)
        indeg = [0] * m
        succ: list[list[int]] = [[] for _ in range(m)]
        for i, j in self.precedence:
            succ[i].append(j)
            indeg[j] += 1
        queue = [i for i in range(m) if indeg[i] == 0]
        seen = 0
        while queue:
            i = queue.pop()
            seen += 1
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        return seen != m

    def __len__(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True, slots=True)
class Allocation:
    """Binary M x N assignment; entry (m, n) = 1 iff robot n works on task m.

    Stored only as an integer key holding the entries row-major, first cell
    most significant, so within each task's row robot 0 is the most
    significant bit. The search breaks ties on this key and the oracle
    indexes its per-allocation tables by it.
    """

    key: int
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        m, n = self.shape
        if m < 0 or n < 0:
            raise InvalidInput(f"allocation shape must be non-negative, got {self.shape}")
        if not 0 <= self.key < 1 << (m * n):
            raise InvalidInput(f"allocation key {self.key} outside [0, 2^{m * n})")

    @classmethod
    def root(cls, m: int, n: int) -> Allocation:
        return cls((1 << (m * n)) - 1, (m, n))

    @classmethod
    def null(cls, m: int, n: int) -> Allocation:
        return cls(0, (m, n))

    @property
    def entries(self) -> np.ndarray:
        """The 0/1 matrix, derived from the key on each access (read-only)."""
        m, n = self.shape
        bits = [(self.key >> shift) & 1 for shift in range(m * n - 1, -1, -1)]
        entries = np.array(bits, dtype=np.int8).reshape(m, n)
        entries.setflags(write=False)
        return entries

    def coalition_mask(self, task: int) -> int:
        """The task's row of the key: bit n - 1 - r is set iff robot r works on it."""
        m, n = self.shape
        if not 0 <= task < m:
            raise InvalidInput(f"task {task} outside [0, {m})")
        return (self.key >> ((m - 1 - task) * n)) & ((1 << n) - 1)

    def coalition_masks(self) -> tuple[int, ...]:
        """Every task's coalition_mask, in task order."""
        m, n = self.shape
        key, full = self.key, (1 << n) - 1
        masks = [0] * m
        for task in range(m - 1, -1, -1):
            masks[task] = key & full
            key >>= n
        return tuple(masks)

    def coalition(self, task: int) -> tuple[int, ...]:
        """Indices of the robots assigned to a task."""
        mask = self.coalition_mask(task)
        n = self.shape[1]
        return tuple(r for r in range(n) if (mask >> (n - 1 - r)) & 1)


@dataclass(frozen=True, eq=False)
class ProblemDomain:
    """The full problem: tasks, team, quality maps, world, and budget.

    Equality is identity, as for Robot; quality maps need not compare.
    """

    network: TaskNetwork
    robots: tuple[Robot, ...]
    quality_maps: tuple[QualityMap, ...]
    world: WorldMap
    time_budget: float
    alpha: float = 0.4
    traits: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _of_type(self.network, TaskNetwork, "network")
        _of_type(self.world, WorldMap, "world")
        robots = _as_tuple(self.robots, "robots")
        object.__setattr__(self, "robots", robots)
        object.__setattr__(self, "quality_maps", _as_tuple(self.quality_maps, "quality_maps"))
        if not robots:
            raise InvalidInput("need at least one robot")
        for k, r in enumerate(robots):
            _of_type(r, Robot, f"robots[{k}]")
        u = robots[0].traits.size
        for k, r in enumerate(robots):
            if r.traits.size != u:
                raise InvalidInput(f"robot {k}: trait vector length {r.traits.size} != {u}")
            if not self.world.is_free(r.start_cell):
                raise InvalidInput(f"robot {k}: start cell {r.start_cell} blocked or out of bounds")
        for k, t in enumerate(self.network.tasks):
            for site in (t.start_site, t.end_site):
                if not self.world.is_free(site):
                    raise InvalidInput(f"task {k}: site {site} blocked or out of bounds")
        if len(self.quality_maps) != len(self.network):
            raise InvalidInput("need exactly one quality map per task")
        for k, q in enumerate(self.quality_maps):
            if not callable(q):
                raise InvalidInput(f"quality_maps[{k}] must be callable, got {q!r}")
            width = getattr(q, "width", u)
            if width != u:
                raise InvalidInput(f"task {k}: quality map reads {width} traits, robots have {u}")
        if not _positive_finite(self.time_budget):
            raise InvalidInput(f"time budget must be positive and finite, got {self.time_budget!r}")
        if not (_real(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise InvalidInput(f"alpha must be in [0,1], got {self.alpha!r}")
        traits = np.stack([r.traits for r in robots])
        traits.setflags(write=False)
        object.__setattr__(self, "traits", traits)

    def task_quality(self, task: int, mask: int) -> float:
        """Quality of one task under a coalition, clamped to [0, 1].

        mask is laid out as Allocation.coalition_mask (robot 0 in the most
        significant bit). The task's map is called on each read.
        """
        n = self.n_robots
        if not (0 <= task < self.n_tasks and 0 <= mask < 1 << n):
            raise InvalidInput(f"no task {task} or coalition mask {mask} for {n} robots")
        return _coalition_quality(self.traits, self.quality_maps[task], mask)

    def quality_tables(self) -> tuple[Sequence[float], ...]:
        """Every task's quality of every coalition, read as
        tables[task][mask]; the caller keeps masks in [0, 2^n).

        Made afresh on each call: up to TABLE_MAX_ROBOTS robots, the lists
        of _tabulated_qualities; past that, per task a MaskMemo that
        evaluates a mask when first read.
        """
        if self.n_robots > TABLE_MAX_ROBOTS:
            return tuple(MaskMemo(partial(_coalition_quality, self.traits, q))
                         for q in self.quality_maps)
        return tuple(self._tabulated_qualities())

    def quality_arrays(self) -> list[np.ndarray]:
        """_tabulated_qualities as arrays, for a team of any width."""
        return [np.array(table) for table in self._tabulated_qualities()]

    def _tabulated_qualities(self) -> list[list[float]]:
        """Every task's quality of every mask, indexed by mask: each map
        called once per row of by_mask(traits, np.add), which sums as
        task_quality does."""
        sums = by_mask(self.traits, np.add)
        return [[_clamp(float(q(row))) for row in sums] for q in self.quality_maps]

    @property
    def n_tasks(self) -> int:
        return len(self.network)

    @property
    def n_robots(self) -> int:
        return len(self.robots)

    @property
    def n_traits(self) -> int:
        return self.traits.shape[1]


class MaskMemo(dict):
    """A table by coalition mask whose entries are derived when first read:
    derive(mask) runs once per mask and its value is kept."""

    def __init__(self, derive: Callable[[int], object]):
        super().__init__()
        self.derive = derive

    def __missing__(self, mask: int):
        value = self[mask] = self.derive(mask)
        return value


def by_mask(rows: np.ndarray, combine: Callable) -> np.ndarray:
    """Given one row per robot, row mask of the result folds the rows of
    the robots in mask with combine, in robot order from a row of zeros,
    robot 0 in the most significant bit (the Allocation.coalition_mask
    layout). by_mask(traits, np.add) sums coalition traits as task_quality
    does; a max does no rounding, so by_mask(travel, np.maximum) is exact.

    Built by doubling: each robot in turn becomes the new least
    significant bit, its rows the old ones combined with its own.
    """
    width = rows.shape[1]
    out = np.zeros((1, width))
    for row in rows:
        out = np.stack([out, combine(out, row)], axis=1).reshape(-1, width)
    return out


def _clamp(x: float) -> float:
    """min(1.0, max(0.0, x)), NaN to 0.0 as there, in two comparisons."""
    return x if 0.0 < x < 1.0 else 1.0 if x >= 1.0 else 0.0


def _coalition_quality(traits: np.ndarray, quality_map: QualityMap, mask: int) -> float:
    """One task's quality of a coalition, from its robots' traits summed in
    robot order (robot 0 in the most significant bit of mask)."""
    n = len(traits)
    aggregated = np.zeros(traits.shape[1])
    for robot in range(n):
        if (mask >> (n - 1 - robot)) & 1:
            aggregated += traits[robot]
    return _clamp(float(quality_map(aggregated)))


@dataclass(frozen=True, slots=True)
class Schedule:
    """Start times and makespan; which task of a mutex pair runs first is
    read off the start times (scheduler.realized_orderings)."""

    start_times: tuple[float, ...]
    makespan: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    empty_coalitions: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Solution:
    """A budget-respecting allocation with its schedule and motion plans."""

    allocation: Allocation
    schedule: Schedule
    orderings: dict[tuple[int, int], int]  # mutex pair (i, j), i < j: 1 if i ran first, else -1
    motion_plans: dict  # (robot, task) positions -> PathResult for the arrival leg
    total_quality: float
    quality_loss: float
    overrun: float
    blended: float


def total_allocation_quality(masks: Sequence[int], domain: ProblemDomain) -> float:
    """Sum of per-task qualities in task order, each clamped to [0, 1].

    masks are an allocation's coalition masks (Allocation.coalition_masks);
    task_quality rejects a mask outside the domain's robot range.
    """
    if len(masks) != domain.n_tasks:
        raise InvalidInput(f"{len(masks)} coalition masks for {domain.n_tasks} tasks")
    # a left fold: builtin sum() compensates on Python >= 3.12, which can
    # change the last bit
    total = 0.0
    for task, mask in enumerate(masks):
        total += domain.task_quality(task, mask)
    return total


def robot_routes(alloc: Allocation, starts: Sequence[float]) -> list[list[int]]:
    """Each robot's tasks in the order it visits them: by start time, ties
    by task index."""
    m, n = alloc.shape
    masks = alloc.coalition_masks()
    return [
        sorted((i for i in range(m) if (masks[i] >> (n - 1 - r)) & 1), key=lambda i: (starts[i], i))
        for r in range(n)
    ]


def successors(alloc: Allocation) -> list[int]:
    """Keys of the children in the allocation graph: one per set bit of the
    key, that bit cleared.

    Emitted in row-major order (highest set bit first), so the list is
    deterministic.
    """
    key = rest = alloc.key
    children = []
    while rest:
        bit = 1 << (rest.bit_length() - 1)
        children.append(key ^ bit)
        rest ^= bit
    return children


def validate_solution(domain: ProblemDomain, sol: Solution, planner=None) -> ValidationReport:
    """Check a solution against the budget, temporal constraints, and motion plans.

    Violations are data, not errors: the report lists every broken constraint
    under planned travel times. Empty coalitions are flagged separately and do
    not invalidate the solution.
    """
    from .motion import planned_leg_seconds, planner_for
    from .scheduler import build_constraints_fast, make_travel_tables

    planner = planner_for(domain, planner)
    violations: list[str] = []
    sched = sol.schedule
    m = domain.n_tasks
    durations = [t.duration for t in domain.network.tasks]

    starts = sched.start_times
    if len(starts) != m:
        return ValidationReport((f"schedule has {len(starts)} start times for {m} tasks",))
    for i, s in enumerate(starts):
        if s < -TOL:
            violations.append(f"task {i}: negative start time {s}")

    makespan = max(s + d for s, d in zip(starts, durations))
    if abs(makespan - sched.makespan) > TOL:
        violations.append(
            f"recorded makespan {sched.makespan} != max completion time {makespan}"
        )
    if makespan > domain.time_budget + TOL:
        violations.append(
            f"makespan {makespan} exceeds time budget {domain.time_budget}"
        )

    tables = make_travel_tables(domain, planned_leg_seconds(planner, domain))
    cs = build_constraints_fast(tables, sol.allocation.coalition_masks())
    for i, x in enumerate(cs.initial_offsets):
        if starts[i] < x - TOL:
            violations.append(f"task {i}: starts at {starts[i]} before initial travel {x}")
    for (i, j), x in cs.precedence_travel:
        if starts[j] < starts[i] + durations[i] + x - TOL:
            violations.append(
                f"precedence ({i},{j}): start {starts[j]} < {starts[i]} + {durations[i]} + {x}"
            )
    for (i, j), (x_ij, x_ji) in cs.mutex_pairs:
        fwd = starts[j] >= starts[i] + durations[i] + x_ij - TOL
        rev = starts[i] >= starts[j] + durations[j] + x_ji - TOL
        if not (fwd or rev):
            violations.append(f"mutex ({i},{j}): tasks overlap under both orderings")

    violations.extend(_check_motion_plans(domain, sol))

    empties = tuple(i for i in range(m) if not sol.allocation.coalition(i))
    return ValidationReport(tuple(violations), empties)


def _check_motion_plans(domain: ProblemDomain, sol: Solution) -> list[str]:
    violations: list[str] = []
    starts = sol.schedule.start_times
    tasks = domain.network.tasks
    routes = robot_routes(sol.allocation, starts)
    for r, robot in enumerate(domain.robots):
        origin = robot.start_cell
        depart = 0.0
        for i in routes[r]:
            plan = sol.motion_plans.get((r, i))
            if plan is None:
                violations.append(f"robot {r}: no motion plan for task {i}")
            else:
                violations.extend(_check_path(domain.world, plan, origin, tasks[i].start_site,
                                              f"robot {r} -> task {i}"))
                duration = plan.length / (robot.speed * domain.world.cell_size)
                gap = starts[i] - depart
                if duration > gap + TOL:
                    violations.append(
                        f"robot {r} -> task {i}: travel takes {duration}s "
                        f"but only {gap}s scheduled"
                    )
            origin = tasks[i].end_site
            depart = starts[i] + tasks[i].duration
    return violations


def _check_path(world: WorldMap, plan, origin: Cell, goal: Cell, label: str) -> list[str]:
    violations = []
    cells = plan.cells
    if not cells:
        return [f"{label}: empty path"]
    if cells[0] != origin:
        violations.append(f"{label}: path starts at {cells[0]}, expected {origin}")
    if cells[-1] != goal:
        violations.append(f"{label}: path ends at {cells[-1]}, expected {goal}")
    for cell in cells:
        if not world.is_free(cell):
            violations.append(f"{label}: path crosses blocked cell {cell}")
            break
    for a, b in zip(cells, cells[1:]):
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            violations.append(f"{label}: cells {a} and {b} are not 4-adjacent")
            break
    expected = (len(cells) - 1) * world.cell_size
    if abs(plan.length - expected) > TOL:
        violations.append(f"{label}: recorded length {plan.length} != {expected}")
    return violations
