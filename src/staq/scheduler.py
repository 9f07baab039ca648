"""Exact scheduling of an allocated task set under temporal constraints.

The scheduling problem is a system of difference constraints (release
offsets, precedence with travel, fixed durations) plus a disjunction per
mutex pair: one task must finish, and the shared robots travel, before the
other starts. A fixed orientation of every disjunction leaves a longest-path
computation; the solver branches over orientations with the relaxed longest
path as a lower bound, so the returned makespan is exactly minimal. Each
branch adds one arc and propagates it from its parent's start times, as in
incremental consistency on a simple temporal network. The search is one
flat loop over an explicit stack; it keeps each node's makespan
incrementally and stops propagating once a raised start pushes a finish to
the incumbent, which cuts exactly the children that propagating to the
fixpoint would cut, so it explores the same tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import add
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import model
from .model import Allocation, InvalidInput, MaskMemo, ProblemDomain, Schedule, by_mask
from .motion import LegSeconds, estimated_leg_seconds


class ConstraintSet(NamedTuple):
    """Numeric scheduling inputs for one allocation, compared and hashed by
    content. solve_milp is a pure function of the set, so the set is its own
    memo key.

    precedence_travel holds ((i, j), x) items: the travel after i before j.
    mutex_pairs holds ((i, j), (x_ij, x_ji)) items, i < j: both travel terms
    of a disjunction, after i resp. after j. Both are sorted by pair.
    """

    durations: tuple[float, ...]
    initial_offsets: tuple[float, ...]
    precedence_travel: tuple[tuple[tuple[int, int], float], ...]
    mutex_pairs: tuple[tuple[tuple[int, int], tuple[float, float]], ...]


@dataclass(frozen=True, slots=True)
class ScheduleOutcome:
    schedule: Optional[Schedule]  # None: no schedule meets the constraints
    nodes_explored: int = 0


@dataclass(frozen=True)
class TravelTables:
    """Per-domain travel times, precomputed so constraint sets for many
    allocations can be assembled without re-querying the travel source.

    arrive[n][i] is robot n's time from its start cell to task i's start
    site; hand[n][i][j] its time from task i's end site to task j's start
    site (diagonal unused, stored as 0). unordered lists, sorted, the
    canonical pairs (i, j), i < j, that no direct precedence orders: the
    candidates for mutex pairs.

    columns lists a set's pieces in its order, each as the pair (i, j) whose
    shared mask, masks[i] & masks[j], is all it depends on: (i, i) for task
    i's release offset, then the precedence pairs, each with its precedence
    item, then the unordered pairs, each with its mutex item or None. Per
    column, pieces[column][mask] is the piece of every set whose column
    tasks share the robots in mask, and piece_ids[column][mask] its number,
    in [0, 2^n) for n robots: masks with equal pieces get equal numbers.
    build_constraints_fast assembles a set from these pieces as they are,
    so allocations with equal pieces give equal sets, and equal piece ids
    in every column name one set.

    A column's pieces start as a model.MaskMemo that derives each mask's
    piece when first read, so a table that builds a few sets (one
    solution's check, a makespan reference) pays for those masks only.
    The numbers are made at the first read of piece_ids: up to
    model.TABLE_MAX_ROBOTS robots every column is then tabulated whole
    (tabulate_pieces), pieces becoming lists too, so a number depends on
    the table alone; past that each column's numbers are a MaskMemo too,
    its pieces numbered in the order they are first read. Either way the
    tables are pure caches; replace() starts fresh ones.
    """

    durations: tuple[float, ...]
    arrive: tuple[tuple[float, ...], ...]
    hand: tuple[tuple[tuple[float, ...], ...], ...]
    precedence: tuple[tuple[int, int], ...]
    unordered: tuple[tuple[int, int], ...]
    user_mutex: frozenset[tuple[int, int]]
    columns: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    pieces: tuple[Sequence, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        columns = tuple((i, i) for i in range(len(self.durations)))
        columns += self.precedence + self.unordered
        object.__setattr__(self, "columns", columns)
        # a lambda, so _piece is looked up when a mask is first read
        pieces = [MaskMemo(lambda mask, c=c: _piece(self, c, mask)) for c in range(len(columns))]
        object.__setattr__(self, "pieces", tuple(pieces))

    @cached_property
    def piece_ids(self) -> tuple[Sequence[int], ...]:
        if len(self.arrive) > model.TABLE_MAX_ROBOTS:
            return tuple(map(_first_read_ids, self.pieces))
        piece_ids, pieces = tabulate_pieces(self)
        object.__setattr__(self, "pieces", pieces)
        return piece_ids


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
    ordered = {(min(i, j), max(i, j)) for i, j in domain.network.precedence}
    return TravelTables(
        durations=tuple(t.duration for t in tasks),
        arrive=arrive,
        hand=hand,
        precedence=tuple(sorted(domain.network.precedence)),
        unordered=tuple(
            (i, j) for i in range(m) for j in range(i + 1, m) if (i, j) not in ordered
        ),
        user_mutex=domain.network.mutex,
    )


def _slowest(travel: list[float], mask: int) -> float:
    """Max of travel[r] over the robots r in mask, robot 0 in the most
    significant of len(travel) bits; 0 for the empty mask."""
    n = len(travel)
    x = 0.0
    while mask:
        low = mask & -mask
        t = travel[n - low.bit_length()]
        if t > x:
            x = t
        mask ^= low
    return x


def _piece(tables: TravelTables, column: int, mask: int):
    """The piece in a column (tables.columns) of every constraint set whose
    column tasks share the robots in mask (the Allocation.coalition_mask
    layout): a task's release offset, its slowest robot's arrival; a
    precedence item ((i, j), travel after i before j); or an unordered
    pair's mutex item ((i, j), (x_ij, x_ji)), None when it is no mutex pair.
    """
    i, j = tables.columns[column]
    if i == j:
        return _slowest([row[i] for row in tables.arrive], mask)

    def handover(a: int, b: int) -> float:
        return _slowest([row[a][b] for row in tables.hand], mask)

    if column < len(tables.durations) + len(tables.precedence):
        return ((i, j), handover(i, j))
    # a pair is a mutex pair when declared or when a robot serves both
    if mask or (i, j) in tables.user_mutex:
        return ((i, j), (handover(i, j), handover(j, i)))
    return None


def tabulate_pieces(tables: TravelTables) -> tuple[tuple[list[int], ...], tuple[list, ...]]:
    """Per column (tables.columns), every mask's piece number and piece,
    both indexed by mask: _piece of each mask, with the travel maxima of
    every column tabulated at once by by_mask with np.maximum.

    A column's distinct pieces are numbered from 0 in the order of the
    first mask giving each, so the numbers depend on the table alone and
    lie in [0, 2^n) for n robots.
    """
    m = len(tables.durations)
    k = m + len(tables.precedence)
    arrive, hand = np.array(tables.arrive), np.array(tables.hand)
    # one row per robot; one column per travel vector: each offset's arrivals,
    # each pair's handovers i -> j, then each unordered pair's handovers j -> i
    pairs = tables.columns[m:]
    travel = np.concatenate([
        arrive,
        hand[:, [i for i, _ in pairs], [j for _, j in pairs]],
        hand[:, [j for _, j in tables.unordered], [i for i, _ in tables.unordered]],
    ], axis=1)
    slowest = by_mask(travel, np.maximum).T.tolist()
    piece_ids, pieces = [], []
    for c, (i, j) in enumerate(tables.columns):
        keys = slowest[c]
        if c >= k:
            keys = list(zip(keys, slowest[c + len(tables.unordered)]))
            if (i, j) not in tables.user_mutex:
                keys[0] = None  # no robot serves both: no mutex pair
        numbers: dict = {}
        ids = [numbers.setdefault(key, len(numbers)) for key in keys]
        if c >= m:  # one item per distinct key, shared by its masks
            items = [None if key is None else ((i, j), key) for key in numbers]
            keys = [items[x] for x in ids]
        piece_ids.append(ids)
        pieces.append(keys)
    return tuple(piece_ids), tuple(pieces)


def _first_read_ids(pieces: MaskMemo) -> MaskMemo:
    """A wide team's piece numbers in one column, by mask: its pieces
    numbered in the order first read."""
    numbers: dict = {}
    return MaskMemo(lambda mask: numbers.setdefault(pieces[mask], len(numbers)))


def build_constraints_fast(tables: TravelTables, masks: Sequence[int]) -> ConstraintSet:
    """Derive the constraint set for an allocation, given as its coalition
    masks (Allocation.coalition_masks), from a travel table: per column,
    the piece of the column tasks' shared mask (tables.pieces).

    Mutex pairs are the user-declared ones plus every pair of tasks sharing a
    robot, minus pairs already ordered by direct precedence. Travel terms take
    the max over the robots that actually make the move; no robot means 0.
    """
    m = len(tables.durations)
    if len(masks) != m:
        raise InvalidInput(f"{len(masks)} coalition masks for {m} tasks")
    n = len(tables.arrive)
    if not (0 <= min(masks) and max(masks) < 1 << n):
        raise InvalidInput(f"coalition masks {tuple(masks)} outside [0, 2^{n})")
    row = [pieces[masks[i] & masks[j]] for pieces, (i, j) in zip(tables.pieces, tables.columns)]
    k = m + len(tables.precedence)
    return ConstraintSet(
        tables.durations, tuple(row[:m]), tuple(row[m:k]), tuple(filter(None, row[k:]))
    )


def solve_milp(cs: ConstraintSet) -> ScheduleOutcome:
    """Minimal-makespan schedule via branch and bound over mutex orientations.

    The relaxation drops undecided disjunctions, so its makespan lower-bounds
    every completion; a subtree is cut once that bound reaches the incumbent.
    Start times are built one arc at a time, each propagated from the start
    times before it: the precedence arcs at the root, then one mutex arc per
    branch. Branching handles pairs with the largest travel stakes first, and
    tries the direction the relaxed start times already suggest, so results
    are deterministic and ties go to the first schedule found. An
    unreachable leg (an infinite term) gives an infinite start, so no
    schedule is found past it.

    The search is one flat loop, with no recursion: a node tries its first
    arc at once and leaves a (depth, start times, makespan, arc still to
    try) frame for its second on an explicit stack, depth counting the arcs
    joined above it. The root's precedence arcs and the branches' mutex
    arcs go through the same propagation, which raises start times from the
    arc's head along the joined arcs until nothing moves. A child's makespan
    is kept incrementally, as the larger of its parent's and each raised
    task's finish: starts only rise, and max does no rounding. Propagation
    stops as soon as a raised task finishes at the incumbent or later, or
    the arc's tail is raised (a positive cycle through the new arc, the only
    kind it can close). The child is cut either way, so the tree, its node
    count and the schedule are those of propagating to the fixpoint and
    then comparing the child's makespan with the incumbent.
    """
    durations = cs.durations
    m = len(durations)
    items = sorted(cs.mutex_pairs, key=lambda item: (-max(item[1]), item[0]))
    # The arcs joined along a path, one level per depth: each precedence arc
    # alone, then both orientations of each disjunction, (i before j, j before i).
    levels = [((i, j, durations[i] + x),) for (i, j), x in cs.precedence_travel]
    n_fixed = len(levels)
    levels += [
        ((i, j, durations[i] + x_ij), (j, i, durations[j] + x_ji))
        for (i, j), (x_ij, x_ji) in items
    ]
    n_levels = len(levels)
    best: Optional[tuple[float, ...]] = None
    best_makespan = math.inf
    nodes = 1
    out: list[list[tuple[int, float]]] = [[] for _ in range(m)]
    path: list[int] = []  # the tail of each arc joined, one per level above depth
    stack: list[tuple[int, list[float], float, tuple[int, int, float]]] = []
    # the node in hand: its depth, start times and makespan; None once cut
    depth = 0
    starts: Optional[list[float]] = list(cs.initial_offsets)
    makespan = max(map(add, starts, durations), default=math.inf)  # no tasks: infeasible
    if makespan >= best_makespan:  # an unreachable release
        starts = None
    while True:
        if starts is not None and depth < n_levels:
            # try the node's first arc now and leave its second on the stack
            if depth < n_fixed:
                arc = levels[depth][0]
            else:
                fwd, rev = levels[depth]
                arc, second = (fwd, rev) if starts[fwd[0]] <= starts[fwd[1]] else (rev, fwd)
                stack.append((depth, starts, makespan, second))
                nodes += 2  # each arc of the pair is tried once
        else:
            if starts is not None:  # a leaf below the incumbent
                best = tuple(starts)
                best_makespan = makespan
            if not stack:
                break
            depth, starts, makespan, arc = stack.pop()
            # the incumbent may have improved since the frame was pushed
            if makespan >= best_makespan:
                starts = None
                continue
            while len(path) > depth:
                out[path.pop()].pop()
        a, b, w = arc
        x = starts[a] + w
        if x > starts[b]:
            finish = x + durations[b]
            # an infinite start (an unreachable direction) is cut here too
            if finish >= best_makespan:
                starts = None
                continue
            starts = starts.copy()
            starts[b] = x
            if finish > makespan:
                makespan = finish
            work = [b]
            while work:
                i = work.pop()
                si = starts[i]
                for j, wj in out[i]:
                    c = si + wj
                    if c > starts[j]:
                        finish = c + durations[j]
                        if j == a or finish >= best_makespan:
                            work = None
                            break
                        starts[j] = c
                        work.append(j)
                        if finish > makespan:
                            makespan = finish
            if work is None:
                starts = None
                continue
        path.append(a)
        out[a].append((b, w))
        depth += 1
    if best is None:
        return ScheduleOutcome(None, nodes)
    return ScheduleOutcome(Schedule(best, best_makespan), nodes)


def realized_orderings(cs: ConstraintSet, schedule: Schedule) -> dict[tuple[int, int], int]:
    """The direction each mutex pair (i, j) of cs takes in a schedule of
    cs's allocation: 1 when i starts no later than j (i runs first), else -1.

    Durations are positive and travel is never negative, so either arc of
    a pair starts one task strictly after the other, and the start times
    alone say which arc branch and bound chose; <= matches its preference
    for the direction the relaxed start times suggest.
    """
    starts = schedule.start_times
    return {(i, j): 1 if starts[i] <= starts[j] else -1 for (i, j), _ in cs.mutex_pairs}


def worst_makespan(domain: ProblemDomain) -> float:
    """Minimal makespan of the everyone-everywhere allocation under
    straight-line travel estimates; the reference point for normalizing
    budget overruns."""
    root = Allocation.root(domain.n_tasks, domain.n_robots)
    tables = make_travel_tables(domain, estimated_leg_seconds(domain))
    outcome = solve_milp(build_constraints_fast(tables, root.coalition_masks()))
    if outcome.schedule is None:
        raise InvalidInput("root allocation admits no schedule")
    return outcome.schedule.makespan


def refine_with_motion_plans(
    planned: ConstraintSet,
    orderings: dict[tuple[int, int], int],
    cs: ConstraintSet,
) -> tuple[ConstraintSet, bool]:
    """Whether a travel term a schedule of cs relies on differs in planned,
    the set of cs's allocation under grid-path travel (infinite where a
    leg is unreachable); returns (planned, that flag). The terms are every
    release offset and precedence travel term, and each mutex pair's
    realized direction, orderings giving it as realized_orderings does;
    planned lists cs's pairs in cs's order. They are compared exactly. A
    grid path is never shorter than the straight line, so in search.solve,
    where cs is a node's estimated set, a change is a term below its
    planned value.
    """
    changed = (
        planned.initial_offsets != cs.initial_offsets
        or planned.precedence_travel != cs.precedence_travel
        or any(
            new[0] != old[0] if orderings[pair] == 1 else new[1] != old[1]
            for (pair, new), (_, old) in zip(planned.mutex_pairs, cs.mutex_pairs)
        )
    )
    return planned, changed
