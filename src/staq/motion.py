"""Grid motion planning: A* shortest paths and breadth-first distance
fields, both memoized.

Paths live on a 4-connected grid with unit cost per move, so A* under the
Euclidean heuristic is optimal, and a breadth-first search from a goal
counts the moves of a shortest path from every cell to it. Travel estimates
used before planning are straight-line distances, which never exceed the
planned path length; planned travel times are read off the distance
fields, and A* draws the paths themselves.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

from .model import Cell, InvalidInput, ProblemDomain, WorldMap

LegSeconds = Callable[[int, Cell, Cell], float]
"""Travel time in seconds for a robot (by position) to move between two cells."""


@dataclass(frozen=True)
class PathResult:
    """A planned path: the cell sequence and its metric length."""

    cells: tuple[Cell, ...]
    length: float
    expanded: int


def euclidean_estimate(a: Cell, b: Cell, cell_size: float = 1.0) -> float:
    """Straight-line distance between cell centers, in map units."""
    return math.hypot(a[0] - b[0], a[1] - b[1]) * cell_size


def travel_time(length: float, speed: float) -> float:
    if speed <= 0:
        raise InvalidInput(f"speed must be positive, got {speed}")
    return length / speed


def plan_path(world: WorldMap, start: Cell, goal: Cell) -> Optional[PathResult]:
    """Shortest 4-connected path from start to goal, or None if unreachable.

    Ties on f are broken by (row, col) of the popped cell, and neighbors are
    generated in N, E, S, W order, so the returned path is deterministic.
    """
    for cell, name in ((start, "start"), (goal, "goal")):
        if not world.is_free(cell):
            raise InvalidInput(f"{name} cell {cell} is blocked or out of bounds")
    if start == goal:
        return PathResult((start,), 0.0, 0)

    width, height, occupied = world.width, world.height, world.occupied
    goal_col, goal_row = goal
    hypot, push = math.hypot, heapq.heappush
    g_cost: dict[Cell, float] = {start: 0.0}
    parent: dict[Cell, Cell] = {}
    h0 = euclidean_estimate(start, goal)
    frontier: list[tuple[float, int, int, Cell]] = [(h0, start[1], start[0], start)]
    closed: set[Cell] = set()
    expanded = 0

    while frontier:
        f, _, _, cell = heapq.heappop(frontier)
        if cell in closed:
            continue
        closed.add(cell)
        expanded += 1
        if cell == goal:
            cells = [cell]
            while cell in parent:
                cell = parent[cell]
                cells.append(cell)
            cells.reverse()
            return PathResult(tuple(cells), (len(cells) - 1) * world.cell_size, expanded)
        col, row = cell
        g_new = g_cost[cell] + 1.0
        for nxt in ((col, row - 1), (col + 1, row), (col, row + 1), (col - 1, row)):
            c, r = nxt
            if not (0 <= c < width and 0 <= r < height) or nxt in occupied or nxt in closed:
                continue
            if g_new < g_cost.get(nxt, math.inf):
                g_cost[nxt] = g_new
                parent[nxt] = cell
                # euclidean_estimate at unit cell size
                push(frontier, (g_new + hypot(c - goal_col, r - goal_row), r, c, nxt))
    return None


def steps_field(world: WorldMap, goal: Cell) -> array:
    """Fewest 4-connected moves from each cell to goal, indexed
    row * width + col, by breadth-first search from goal; -1 where a free
    cell cannot reach goal, -2 on a blocked cell. Moves are symmetric, so
    each count is the length of plan_path(world, cell, goal) minus one.
    Searched on a list, which is faster; returned as an array('i'), 4
    bytes a cell where a list keeps a pointer and past 256 an int object."""
    if not world.is_free(goal):
        raise InvalidInput(f"goal cell {goal} is blocked or out of bounds")
    width, size = world.width, world.width * world.height
    steps = [-1] * size
    for col, row in world.occupied:
        steps[row * width + col] = -2
    start = goal[1] * width + goal[0]
    steps[start] = 0
    queue = [start]
    for i in queue:  # grows as it is read: first in, first out
        d = steps[i] + 1
        col = i % width
        # the neighbors up, right, down and left, each inside the grid
        if i >= width and steps[i - width] == -1:
            steps[i - width] = d
            queue.append(i - width)
        if col + 1 < width and steps[i + 1] == -1:
            steps[i + 1] = d
            queue.append(i + 1)
        if i + width < size and steps[i + width] == -1:
            steps[i + width] = d
            queue.append(i + width)
        if col and steps[i - 1] == -1:
            steps[i - 1] = d
            queue.append(i - 1)
    return array("i", steps)


class GridPlanner:
    """Memoizing wrapper around plan_path, one entry per (start, goal) pair,
    and around steps_field, one per goal."""

    def __init__(self, world: WorldMap):
        self.world = world
        self._cache: dict[tuple[Cell, Cell], Optional[PathResult]] = {}
        self._fields: dict[Cell, array] = {}
        self.calls = 0
        self.cache_hits = 0

    def plan(self, start: Cell, goal: Cell) -> Optional[PathResult]:
        self.calls += 1
        key = (start, goal)
        if key in self._cache:
            self.cache_hits += 1
            return self._cache[key]
        result = plan_path(self.world, start, goal)
        self._cache[key] = result
        return result

    def steps(self, start: Cell, goal: Cell) -> Optional[int]:
        """Moves on a shortest path from start to goal, None if unreachable:
        the length plan(start, goal) would have, in cells, without running
        A*. Read off goal's steps_field, made at the first call for goal."""
        field = self._fields.get(goal)
        if field is None:
            field = self._fields[goal] = steps_field(self.world, goal)
        col, row = start
        steps = field[row * self.world.width + col] if self.world.in_bounds(start) else -2
        if steps == -2:
            raise InvalidInput(f"start cell {start} is blocked or out of bounds")
        return None if steps == -1 else steps


def planner_for(domain: ProblemDomain, planner: Optional[GridPlanner] = None) -> GridPlanner:
    """planner, or a new GridPlanner on domain.world when None; a planner for
    another map is InvalidInput, as its paths would cross the domain's walls."""
    if planner is None:
        return GridPlanner(domain.world)
    if planner.world != domain.world:
        raise InvalidInput("planner plans on another map than the domain's world")
    return planner


def estimated_leg_seconds(domain: ProblemDomain) -> LegSeconds:
    """Travel times from straight-line distances; used before paths exist."""
    cell_size = domain.world.cell_size
    robots = domain.robots

    def leg(robot: int, a: Cell, b: Cell) -> float:
        length = euclidean_estimate(a, b, cell_size)
        return travel_time(length, robots[robot].speed * cell_size)

    return leg


def planned_leg_seconds(planner: GridPlanner, domain: ProblemDomain) -> LegSeconds:
    """Travel times along shortest grid paths; inf where the goal is
    unreachable. The path length, steps times the cell size, is read off
    the planner's distance field (GridPlanner.steps) and equals the length
    of the path A* would plan."""
    cell_size = domain.world.cell_size
    step_length = planner.world.cell_size
    robots = domain.robots

    def leg(robot: int, a: Cell, b: Cell) -> float:
        steps = planner.steps(a, b)
        if steps is None:
            return math.inf
        return travel_time(steps * step_length, robots[robot].speed * cell_size)

    return leg
