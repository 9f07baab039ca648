"""Exact scheduling of an allocated task set under temporal constraints.

The scheduling problem is a system of difference constraints (release
offsets, precedence with travel, fixed durations) plus a disjunction per
mutex pair: one task must finish, and the shared robots travel, before the
other starts. A fixed orientation of every disjunction leaves a longest-path
computation; the solver branches over orientations with the relaxed longest
path as a lower bound, so the returned makespan is exactly minimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from .model import Allocation, InvalidInput, ProblemDomain, Schedule
from .motion import LegSeconds, estimated_leg_seconds

TOL = 1e-9


@dataclass(frozen=True)
class ConstraintSet:
    """Numeric scheduling inputs for one allocation.

    mutex_pairs holds both travel terms of each disjunction, keyed by the
    canonical (i, j) with i < j: (x_ij, x_ji) = travel after i resp. after j.
    """

    durations: tuple[float, ...]
    initial_offsets: tuple[float, ...]
    precedence_travel: dict[tuple[int, int], float]
    mutex_pairs: dict[tuple[int, int], tuple[float, float]]

    @cached_property
    def key(self) -> tuple:
        """Every field as one hashable value. solve_milp is a pure function of
        the set, so equal keys give equal outcomes; dict order is part of the
        key, and build_constraints_fast fills both dicts in sorted order."""
        return (
            self.durations,
            self.initial_offsets,
            tuple(self.precedence_travel.items()),
            tuple(self.mutex_pairs.items()),
        )

    @property
    def n_quantities(self) -> int:
        return (
            len(self.initial_offsets)
            + len(self.precedence_travel)
            + 2 * len(self.mutex_pairs)
        )

    @property
    def infeasible_on_construction(self) -> bool:
        """True when some constraint can never be met: an unreachable arrival
        or precedence leg, or a mutex pair unreachable in both directions."""
        return (
            any(math.isinf(x) for x in self.initial_offsets)
            or any(math.isinf(x) for x in self.precedence_travel.values())
            or any(
                math.isinf(a) and math.isinf(b) for a, b in self.mutex_pairs.values()
            )
        )


@dataclass(frozen=True)
class ScheduleOutcome:
    status: str  # "optimal" or "infeasible"
    schedule: Optional[Schedule]
    nodes_explored: int = 0


@dataclass(frozen=True)
class TravelTables:
    """Per-domain travel times, precomputed so constraint sets for many
    allocations can be assembled without re-querying the travel source.

    arrive[n][i] is robot n's time from its start cell to task i's start
    site; hand[n][i][j] its time from task i's end site to task j's start
    site (diagonal unused, stored as 0).
    """

    durations: tuple[float, ...]
    arrive: tuple[tuple[float, ...], ...]
    hand: tuple[tuple[tuple[float, ...], ...], ...]
    precedence: tuple[tuple[int, int], ...]
    precedence_canonical: frozenset[tuple[int, int]]
    user_mutex: frozenset[tuple[int, int]]


def make_travel_tables(domain: ProblemDomain, leg_seconds: LegSeconds) -> TravelTables:
    """Evaluate every travel leg an allocation could need, once."""
    tasks = domain.network.tasks
    m = len(tasks)
    n = domain.n_robots
    arrive = tuple(
        tuple(leg_seconds(r, domain.robots[r].start_cell, tasks[i].start_site) for i in range(m))
        for r in range(n)
    )
    hand = tuple(
        tuple(
            tuple(
                leg_seconds(r, tasks[i].end_site, tasks[j].start_site) if i != j else 0.0
                for j in range(m)
            )
            for i in range(m)
        )
        for r in range(n)
    )
    return TravelTables(
        durations=tuple(t.duration for t in tasks),
        arrive=arrive,
        hand=hand,
        precedence=tuple(sorted(domain.network.precedence)),
        precedence_canonical=frozenset(
            (min(i, j), max(i, j)) for i, j in domain.network.precedence
        ),
        user_mutex=domain.network.mutex,
    )


def build_constraints_fast(tables: TravelTables, alloc: Allocation) -> ConstraintSet:
    """Derive the constraint set for an allocation from a travel table.

    Mutex pairs are the user-declared ones plus every pair of tasks sharing a
    robot, minus pairs already ordered by direct precedence. Travel terms take
    the max over the robots that actually make the move; no robot means 0.
    """
    m = len(tables.durations)
    n = len(tables.arrive)
    if alloc.shape != (m, n):
        raise InvalidInput(f"allocation {alloc.shape} does not match tables ({m},{n})")
    # Robot r sits in bit n - 1 - r of each coalition mask.
    masks = [alloc.coalition_mask(i) for i in range(m)]
    arrive = tables.arrive
    hand = tables.hand

    offsets = []
    for i in range(m):
        mask = masks[i]
        x = 0.0
        while mask:
            low = mask & -mask
            t = arrive[n - low.bit_length()][i]
            if t > x:
                x = t
            mask ^= low
        offsets.append(x)

    def handover(i: int, j: int, shared: int) -> float:
        x = 0.0
        while shared:
            low = shared & -shared
            t = hand[n - low.bit_length()][i][j]
            if t > x:
                x = t
            shared ^= low
        return x

    precedence_travel = {
        (i, j): handover(i, j, masks[i] & masks[j]) for i, j in tables.precedence
    }

    pairs = set(tables.user_mutex)
    for i in range(m):
        mi = masks[i]
        for j in range(i + 1, m):
            if mi & masks[j]:
                pairs.add((i, j))
    pairs -= tables.precedence_canonical
    mutex_pairs = {
        (i, j): (handover(i, j, shared), handover(j, i, shared))
        for i, j in sorted(pairs)
        for shared in (masks[i] & masks[j],)
    }

    return ConstraintSet(
        durations=tables.durations,
        initial_offsets=tuple(offsets),
        precedence_travel=precedence_travel,
        mutex_pairs=mutex_pairs,
    )


def _edges(cs: ConstraintSet, oriented: dict[tuple[int, int], int]) -> list[tuple[int, int, float]]:
    edges = [
        (i, j, cs.durations[i] + x) for (i, j), x in cs.precedence_travel.items()
    ]
    for (i, j), direction in oriented.items():
        x_ij, x_ji = cs.mutex_pairs[(i, j)]
        if direction == 1:
            edges.append((i, j, cs.durations[i] + x_ij))
        else:
            edges.append((j, i, cs.durations[j] + x_ji))
    return edges


def _relax(
    offsets: tuple[float, ...],
    durations: tuple[float, ...],
    edges: list[tuple[int, int, float]],
    m: int,
) -> Optional[tuple[list[float], float]]:
    """Longest-path start times under a fixed edge list.

    Returns None when the constraints admit no schedule: an ordering cycle
    (every cycle has positive weight since durations are positive) or an
    unreachable travel leg encoded as an infinite quantity.
    """
    starts = list(offsets)
    for _ in range(m - 1):
        changed = False
        for i, j, w in edges:
            candidate = starts[i] + w
            if candidate > starts[j]:
                starts[j] = candidate
                changed = True
        if not changed:
            break
    else:
        for i, j, w in edges:
            if starts[i] + w > starts[j]:
                return None
    makespan = -math.inf
    for s, d in zip(starts, durations):
        if math.isinf(s):
            return None
        if s + d > makespan:
            makespan = s + d
    if math.isinf(makespan):
        return None
    return starts, makespan


def _earliest_starts(
    cs: ConstraintSet, oriented: dict[tuple[int, int], int]
) -> Optional[tuple[list[float], float]]:
    """Longest-path start times under the oriented constraints."""
    return _relax(cs.initial_offsets, cs.durations, _edges(cs, oriented), len(cs.durations))


def evaluate_fixed_order(
    cs: ConstraintSet, orderings: dict[tuple[int, int], int]
) -> Optional[float]:
    """Minimal makespan once every mutex pair is given a direction.

    orderings maps each canonical pair (i, j) to 1 (i first) or -1 (j first).
    Returns None when the fixed orientation is unschedulable.
    """
    missing = set(cs.mutex_pairs) - set(orderings)
    if missing:
        raise InvalidInput(f"orderings missing mutex pairs {sorted(missing)}")
    for pair, direction in orderings.items():
        if pair in cs.mutex_pairs and direction not in (1, -1):
            raise InvalidInput(f"ordering for {pair} must be 1 or -1, got {direction}")
    result = _earliest_starts(cs, {p: orderings[p] for p in cs.mutex_pairs})
    return None if result is None else result[1]


def solve_milp(cs: ConstraintSet) -> ScheduleOutcome:
    """Minimal-makespan schedule via branch and bound over mutex orientations.

    The relaxation drops undecided disjunctions, so its makespan lower-bounds
    every completion; a subtree is cut once that bound reaches the incumbent.
    Branching handles pairs with the largest travel stakes first, and tries
    the direction the relaxed start times already suggest, so results are
    deterministic and ties go to the first schedule found.
    """
    if cs.infeasible_on_construction:
        return ScheduleOutcome("infeasible", None, 0)
    durations = cs.durations
    offsets = cs.initial_offsets
    m = len(durations)
    pairs = sorted(cs.mutex_pairs, key=lambda p: (-max(cs.mutex_pairs[p]), p))
    n_pairs = len(pairs)
    # Both orientations of every disjunction, built once: (i before j, j before i).
    pair_arcs = []
    for i, j in pairs:
        x_ij, x_ji = cs.mutex_pairs[(i, j)]
        pair_arcs.append(((i, j, durations[i] + x_ij), (j, i, durations[j] + x_ji)))
    edges: list[tuple[int, int, float]] = [
        (i, j, durations[i] + x) for (i, j), x in cs.precedence_travel.items()
    ]
    directions = [0] * n_pairs
    best: Optional[tuple[tuple[float, ...], dict[tuple[int, int], int]]] = None
    best_makespan = math.inf
    nodes = 0

    def dfs(depth: int) -> None:
        nonlocal best, best_makespan, nodes
        nodes += 1
        relaxed = _relax(offsets, durations, edges, m)
        if relaxed is None:
            return
        starts, makespan = relaxed
        if makespan >= best_makespan:
            return
        if depth == n_pairs:
            best = (tuple(starts), dict(zip(pairs, directions)))
            best_makespan = makespan
            return
        i, j = pairs[depth]
        fwd, rev = pair_arcs[depth]
        ordered = ((1, fwd), (-1, rev)) if starts[i] <= starts[j] else ((-1, rev), (1, fwd))
        for direction, arc in ordered:
            directions[depth] = direction
            edges.append(arc)
            dfs(depth + 1)
            edges.pop()

    dfs(0)
    if best is None:
        return ScheduleOutcome("infeasible", None, nodes)
    starts, orderings = best
    return ScheduleOutcome("optimal", Schedule(starts, best_makespan, orderings), nodes)


def worst_makespan(domain: ProblemDomain) -> float:
    """Minimal makespan of the everyone-everywhere allocation under
    straight-line travel estimates; the reference point for normalizing
    budget overruns."""
    root = Allocation.root(domain.n_tasks, domain.n_robots)
    tables = make_travel_tables(domain, estimated_leg_seconds(domain))
    outcome = solve_milp(build_constraints_fast(tables, root))
    if outcome.status != "optimal":
        raise InvalidInput("root allocation admits no schedule")
    return outcome.schedule.makespan


def refine_with_motion_plans(
    planned: TravelTables,
    alloc: Allocation,
    schedule: Schedule,
    cs: ConstraintSet,
) -> tuple[ConstraintSet, bool]:
    """Replace the travel quantities this schedule relies on with planned ones.

    planned holds travel times along grid paths (infinite where a leg is
    unreachable, which the solver reports as infeasible). Every release
    offset and precedence travel term is active in any schedule, so those
    come from planned; of each mutex disjunction only the direction the
    schedule realized is, and the other keeps its value from cs. Returns the
    updated set and whether anything grew; planned paths are never shorter
    than the straight-line estimate, so quantities only increase and repeated
    refinement reaches a fixpoint.
    """
    fresh = build_constraints_fast(planned, alloc)
    mutex_pairs = {}
    for pair, (x_ij, x_ji) in fresh.mutex_pairs.items():
        old_ij, old_ji = cs.mutex_pairs[pair]
        mutex_pairs[pair] = (x_ij, old_ji) if schedule.orderings[pair] == 1 else (old_ij, x_ji)
    refined = replace(fresh, mutex_pairs=mutex_pairs)
    changed = (
        any(x > old + TOL for x, old in zip(refined.initial_offsets, cs.initial_offsets))
        or any(x > cs.precedence_travel[p] + TOL for p, x in refined.precedence_travel.items())
        or any(
            x > old + TOL
            for p, pair in mutex_pairs.items()
            for x, old in zip(pair, cs.mutex_pairs[p])
        )
    )
    return refined, changed
