"""Grid motion planning: A* shortest paths with memoization.

Paths live on a 4-connected grid with unit cost per move, so A* under the
Euclidean heuristic is optimal. Travel estimates used before planning are
straight-line distances, which never exceed the planned path length.
"""

from __future__ import annotations

import heapq
import math
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


class GridPlanner:
    """Memoizing wrapper around plan_path; one entry per (start, goal) pair."""

    def __init__(self, world: WorldMap):
        self.world = world
        self._cache: dict[tuple[Cell, Cell], Optional[PathResult]] = {}
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


def estimated_leg_seconds(domain: ProblemDomain) -> LegSeconds:
    """Travel times from straight-line distances; used before paths exist."""
    cell_size = domain.world.cell_size
    robots = domain.robots

    def leg(robot: int, a: Cell, b: Cell) -> float:
        length = euclidean_estimate(a, b, cell_size)
        return travel_time(length, robots[robot].speed * cell_size)

    return leg


def planned_leg_seconds(planner: GridPlanner, domain: ProblemDomain) -> LegSeconds:
    """Travel times from planned grid paths; inf where the goal is unreachable."""
    cell_size = domain.world.cell_size
    robots = domain.robots

    def leg(robot: int, a: Cell, b: Cell) -> float:
        result = planner.plan(a, b)
        if result is None:
            return math.inf
        return travel_time(result.length, robots[robot].speed * cell_size)

    return leg
