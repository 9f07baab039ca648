"""Instance documents for the benchmark, generated without calling staq.

The generator is a parameterized copy of the library's random instance
generator: with the default spec it draws the same random stream and builds
the same instance (the local tests check that against the library), and the
scaled specs change the grid, team size, speeds, precedence probability and
budget rule. The budget reference (the root allocation's minimal makespan
under straight-line travel) is computed here by enumerating task orders, so
a change to the library's travel model cannot silently move the inputs.

Every document is then mapped through one of the eight symmetries of the
square grid, chosen from the workload seed. Straight-line and grid-path
travel lengths are invariant under them, so the search does the same work on
every variant, while the cells, paths and A* tie-breaking differ.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

BUDGET_DIGITS = 6
OBSTACLES = 0.10  # share of blocked cells
P_MUTEX = 0.15  # chance that an unordered task pair is declared mutex


@dataclass(frozen=True)
class Spec:
    """Generator parameters; the defaults reproduce the library's
    `random_instance`. A size left as None is drawn from the seed."""

    n_tasks: Optional[int] = None
    n_robots: Optional[int] = None
    n_traits: Optional[int] = None
    side: int = 12
    speeds: str = "ranked"  # "ranked": capable robots are slow; "uniform": U(0.8, 2)
    p_precedence: float = 0.25
    alpha: float = 0.4
    budget_fraction: Optional[float] = None  # None: drawn between floor and ceiling


def _largest_free_component(blocked: np.ndarray) -> list[tuple[int, int]]:
    side_r, side_c = blocked.shape
    seen: set[tuple[int, int]] = set()
    best: list[tuple[int, int]] = []
    for row in range(side_r):
        for col in range(side_c):
            if blocked[row, col] or (col, row) in seen:
                continue
            component = [(col, row)]
            seen.add((col, row))
            queue = deque([(col, row)])
            while queue:
                c, r = queue.popleft()
                for nc, nr in ((c, r - 1), (c + 1, r), (c, r + 1), (c - 1, r)):
                    if (
                        0 <= nc < side_c
                        and 0 <= nr < side_r
                        and not blocked[nr, nc]
                        and (nc, nr) not in seen
                    ):
                        seen.add((nc, nr))
                        component.append((nc, nr))
                        queue.append((nc, nr))
            if len(component) > len(best):
                best = component
    return sorted(best)


def _leg_seconds(a, b, speed: float) -> float:
    # straight-line length over speed, with the same operations as the
    # library's estimate at cell size 1
    return (math.hypot(a[0] - b[0], a[1] - b[1]) * 1.0) / (speed * 1.0)


def _linear_extensions(n_tasks: int, precedence) -> list[tuple[int, ...]]:
    return [
        order
        for order in itertools.permutations(range(n_tasks))
        if all(order.index(i) < order.index(j) for i, j in precedence)
    ]


def _order_makespan(order, durations, offsets, weight) -> float:
    """Longest-path makespan when tasks run one after another in `order`;
    weight(j, k) is the edge from an earlier task j to k (None: no edge)."""
    starts: dict[int, float] = {}
    makespan = -math.inf
    for pos, k in enumerate(order):
        start = offsets[k]
        for j in order[:pos]:
            w = weight(j, k)
            if w is not None and starts[j] + w > start:
                start = starts[j] + w
        starts[k] = start
        if start + durations[k] > makespan:
            makespan = start + durations[k]
    return makespan


def budget_references(doc: dict) -> tuple[float, float]:
    """(floor, ceiling): the minimal makespans of the empty and the full
    allocation under straight-line travel.

    The full allocation puts every robot on every task, so all tasks share
    robots and run in some order consistent with precedence; each ordered
    pair is separated by the slowest robot's handover. The empty allocation
    only orders precedence and declared mutex pairs, with no travel.
    """
    tasks = doc["tasks"]
    robots = doc["robots"]
    m = len(tasks)
    durations = [t["duration"] for t in tasks]
    precedence = {tuple(p) for p in doc["precedence"]}
    related = precedence | {tuple(p) for p in doc["mutex"]}
    related |= {(j, i) for i, j in related}
    offsets = [
        max(_leg_seconds(r["start"], t["start_site"], r["speed"]) for r in robots)
        for t in tasks
    ]
    hand = [
        [
            max(_leg_seconds(tasks[i]["end_site"], tasks[j]["start_site"], r["speed"]) for r in robots)
            for j in range(m)
        ]
        for i in range(m)
    ]
    orders = _linear_extensions(m, precedence)
    ceiling = min(
        _order_makespan(o, durations, offsets, lambda j, k: durations[j] + hand[j][k])
        for o in orders
    )
    floor = min(
        _order_makespan(
            o, durations, [0.0] * m,
            lambda j, k: durations[j] + 0.0 if (j, k) in related else None,
        )
        for o in orders
    )
    return floor, ceiling


def generate(seed: int, spec: Spec = Spec()) -> dict:
    """One instance document, in the library's instance schema."""
    rng = np.random.default_rng(seed)
    n_tasks = int(rng.integers(2, 5))
    n_robots = int(rng.integers(3, 6))
    n_traits = int(rng.integers(2, 4))
    n_tasks = spec.n_tasks or n_tasks
    n_robots = spec.n_robots or n_robots
    n_traits = spec.n_traits or n_traits
    side = spec.side

    while True:
        blocked = rng.random((side, side)) < OBSTACLES
        free = _largest_free_component(blocked)
        if len(free) >= n_robots + 2 * n_tasks + 5:
            break

    picks = rng.choice(len(free), size=n_robots, replace=False)
    traits = rng.uniform(0.0, 1.0, size=(n_robots, n_traits))
    if spec.speeds == "ranked":
        rank = np.argsort(np.argsort(traits.sum(axis=1))) / max(n_robots - 1, 1)
        speeds = (2.0 - 1.2 * rank) * rng.uniform(0.9, 1.0, size=n_robots)
    else:
        speeds = rng.uniform(0.8, 2.0, size=n_robots)
    robots = [
        {
            "traits": [float(t) for t in traits[i]],
            "start": list(free[int(picks[i])]),
            "speed": float(speeds[i]),
        }
        for i in range(n_robots)
    ]
    sites = []
    for _ in range(n_tasks):
        duration = float(rng.uniform(4.0, 12.0))
        start = free[int(rng.integers(len(free)))]
        end = free[int(rng.integers(len(free)))]
        sites.append((duration, start, end))

    precedence = []
    for i in range(n_tasks):
        for j in range(i + 1, n_tasks):
            if rng.random() < spec.p_precedence:
                precedence.append([i, j])
    mutex = []
    for i in range(n_tasks):
        for j in range(i + 1, n_tasks):
            if [i, j] not in precedence and rng.random() < P_MUTEX:
                mutex.append([i, j])

    team_traits = traits.sum(axis=0)
    tasks = []
    for duration, start, end in sites:
        weights = rng.uniform(0.2, 1.0, size=n_traits)
        tasks.append(
            {
                "duration": duration,
                "start_site": list(start),
                "end_site": list(end),
                "quality_map": {
                    "type": "linear",
                    "weights": [float(w) for w in weights],
                    "normalizer": float(weights @ team_traits),
                },
            }
        )

    rows = ["".join("#" if blocked[r, c] else "." for c in range(side)) for r in range(side)]
    doc = {
        "map": rows,
        "cell_size": 1.0,
        "robots": robots,
        "tasks": tasks,
        "precedence": precedence,
        "mutex": mutex,
        "time_budget": 1.0,
        "alpha": spec.alpha,
        "seed": seed,
    }
    floor, ceiling = budget_references(doc)
    if spec.budget_fraction is None:
        u = float(rng.uniform(0.25, 0.9))
        budget = max(floor + u * max(ceiling - floor, 0.0), floor)
    else:
        budget = spec.budget_fraction * ceiling
    doc["time_budget"] = round(budget, BUDGET_DIGITS)
    return doc


def transform(doc: dict, symmetry: int) -> dict:
    """The document mapped through one of the 8 symmetries of its square
    grid: bit 0 mirrors columns, bit 1 mirrors rows, bit 2 transposes."""
    side = len(doc["map"])
    if any(len(row) != side for row in doc["map"]):
        raise ValueError("symmetries need a square map")

    def cell(c: int, r: int) -> tuple[int, int]:
        if symmetry & 1:
            c = side - 1 - c
        if symmetry & 2:
            r = side - 1 - r
        if symmetry & 4:
            c, r = r, c
        return c, r

    grid = [["."] * side for _ in range(side)]
    for r, row in enumerate(doc["map"]):
        for c, ch in enumerate(row):
            nc, nr = cell(c, r)
            grid[nr][nc] = ch
    out = dict(doc)
    out["map"] = ["".join(row) for row in grid]
    out["robots"] = [dict(rd, start=list(cell(*rd["start"]))) for rd in doc["robots"]]
    out["tasks"] = [
        dict(td, start_site=list(cell(*td["start_site"])), end_site=list(cell(*td["end_site"])))
        for td in doc["tasks"]
    ]
    return out
