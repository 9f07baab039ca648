"""Greedy best-first search over the allocation graph.

The root assigns every robot to every task; each edge clears one assignment.
Nodes are scored with a blend of normalized quality loss and budget overrun
computed under straight-line travel estimates. When a node's schedule fits
the budget it is re-checked under planned grid paths before being accepted,
and re-queued if the planned travel pushes it over.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import accumulate
from operator import lshift
from typing import Callable, NamedTuple, Optional, Sequence

from .heuristics import node_scorer
from .model import (
    Allocation,
    ContractViolation,
    InvalidInput,
    ProblemDomain,
    Schedule,
    Solution,
    robot_routes,
    successors,
    total_allocation_quality,
)
from .motion import GridPlanner, estimated_leg_seconds, planned_leg_seconds
from .scheduler import (
    ConstraintSet,
    ScheduleOutcome,
    TravelTables,
    build_constraints_fast,
    make_travel_tables,
    realized_orderings,
    refine_with_motion_plans,
    solve_milp,
)

LOSS_SLACK = 1e-12
_UNSEEN = object()  # a signature no solve on the memo has scheduled


@dataclass
class TableMemo:
    """Schedules of the sets one estimated travel table derives, kept by the
    solves on that table and time budget.

    makespans maps a set's signature to its makespan, None when the set has
    no schedule. fitting keeps, for a signature whose makespan meets the
    budget, the set and its outcome, which refinement starts from. outcomes
    maps the root's, the empty allocation's and the refinement sets by
    content, as refinement reads their start times.
    """

    tables: TravelTables
    makespans: dict[int, Optional[float]] = field(default_factory=dict)
    fitting: dict[int, tuple[ConstraintSet, ScheduleOutcome]] = field(default_factory=dict)
    outcomes: dict[ConstraintSet, ScheduleOutcome] = field(default_factory=dict)


ScheduleCache = dict[tuple[TravelTables, float], TableMemo]
"""Schedule memos by estimated travel table and time budget, equal tables at
one budget sharing one."""


class FrontierEntry(NamedTuple):
    """What the suboptimality analysis needs to know about an open node."""

    key: int
    quality: float
    overrun: float
    blended: float


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    nodes_generated: int = 0
    duplicates_skipped: int = 0
    refinement_rounds: int = 0  # re-solves triggered by planned travel times
    bnb_runs: int = 0  # branch-and-bound runs, both phases; memo hits excluded
    bnb_nodes: int = 0  # sum of nodes_explored over those runs
    reinserted: int = 0
    planner_calls: int = 0  # A* runs this solve made; memo hits excluded
    worst_makespan: float = 0.0
    quality_root: float = 0.0
    quality_null: float = 0.0
    best_open: Optional[FrontierEntry] = None  # OpenSet.best at acceptance, scored

    @property
    def scheduler_calls(self) -> int:
        """Estimate-phase schedules, one per generated allocation."""
        return self.nodes_generated


OpenEntry = tuple[float, int, int, float, Optional[float]]
"""(rounded blend, depth, key, quality, makespan); makespan is None when the
node's set has no schedule. Numbers only, so the collector stops tracking
the entries; the solve's node_scorer gives loss, overrun and blend again."""


class OpenSet:
    """Min-heap of flat open entries, ordered by (rounded blend, depth, key).

    Blends are rounded to 9 decimals before comparison so nodes within 1e-9
    of each other tie and fall through to the shallower-then-smaller-key rule.
    A key is in the heap at most once, so comparison never reaches past it.
    """

    def __init__(self) -> None:
        self._heap: list[OpenEntry] = []

    def push(
        self, depth: int, key: int, quality: float, makespan: Optional[float], blended: float
    ) -> None:
        heapq.heappush(self._heap, (round(blended, 9), depth, key, quality, makespan))

    def pop(self) -> OpenEntry:
        if not self._heap:
            raise ContractViolation("pop from an empty open set")
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def best(self) -> Optional[OpenEntry]:
        """Highest-quality open node; ties go to the smallest key. None when empty."""
        return max(self._heap, key=lambda e: (e[3], -e[2]), default=None)


def solve(
    domain: ProblemDomain,
    *,
    planner: Optional[GridPlanner] = None,
    check_invariants: bool = False,
    schedule_cache: Optional[ScheduleCache] = None,
) -> tuple[Optional[Solution], SearchStats]:
    """Find a budget-respecting allocation, greedily favoring high quality.

    Returns (solution, stats); the solution is None when no allocation in the
    graph admits a schedule within the budget under planned travel, which
    the empty allocation decides before any expansion: scheduled right
    after the root, its makespan bounds every allocation's from below. With
    check_invariants the search asserts that removing an assignment never
    reduces normalized quality loss, which the suboptimality bound relies on.

    successors gives a popped node's child keys; a visited child is skipped
    before any other work. At its first new child the node derives, once,
    its masks, its per-task qualities (read off domain.quality_tables) with
    their left-fold prefixes, and its signature: each column c's piece id
    (tables.piece_ids[c] at the column's shared mask) shifted left by
    n * c, equal for two allocations exactly when their sets are. Both are
    tables indexed by mask, lists up to model.TABLE_MAX_ROBOTS robots, so a
    read is a list subscript. A child re-reads only the columns of the task
    whose bit it clears; its quality is that task's prefix plus the new
    entry plus the rest, the additions of
    total_allocation_quality in their order. The schedule memo (TableMemo)
    keeps a makespan per signature, so only a new signature builds its set
    and runs branch and bound, once per distinct set; only a set that fits
    the budget is kept too, with its outcome. An open node is held as its
    quality and makespan (OpenEntry) and scored again when popped, with the
    same scorer on the same inputs. The planned travel table is made once,
    after the empty allocation fits, its legs read off the planner's
    breadth-first distance fields. A popped node that fits the budget takes
    its kept set and outcome (kept when first scheduled, as every solve on
    the memo has this budget), builds its set under planned travel, refines
    until refining gives back the set exactly (_refine; refinement sets are
    memoized by content), and is scored once after; it is accepted if it
    still fits, else re-queued with its refined makespan. At acceptance
    only OpenSet.best, the open node the post-hoc bound reads, is scored
    into stats.best_open; it stays None when no allocation fits. A* runs
    only to draw the accepted allocation's paths; planner_calls counts
    those runs that the planner's memo did not serve.

    schedule_cache, when given, maps each estimated travel table (compared
    by content) and time budget to the first such solve's table and its
    memo, so solves on an equal table and budget (e.g. one instance at
    several alpha values) reuse its piece ids and share its runs.
    Signatures are read off that one table object, so they agree between
    solves even past model.TABLE_MAX_ROBOTS, where ids follow first reads.
    Any solves may share one cache; one at another budget gets a memo of
    its own. scheduler_calls and refinement_rounds count every allocation
    and round this solve scheduled, served by a memo or not; bnb_runs
    counts only its own runs.
    """
    if planner is None:
        planner = GridPlanner(domain.world)
    astar_before = planner.calls - planner.cache_hits
    m, n = domain.n_tasks, domain.n_robots
    tables = make_travel_tables(domain, estimated_leg_seconds(domain))
    cache: ScheduleCache = {} if schedule_cache is None else schedule_cache
    memo = cache.setdefault((tables, domain.time_budget), TableMemo(tables))
    tables, makespans, fitting = memo.tables, memo.makespans, memo.fitting
    stats = SearchStats()

    def run(cs: ConstraintSet) -> ScheduleOutcome:
        outcome = solve_milp(cs)
        stats.bnb_runs += 1
        stats.bnb_nodes += outcome.nodes_explored
        return outcome

    def schedule(cs: ConstraintSet) -> ScheduleOutcome:
        outcome = memo.outcomes.get(cs)
        if outcome is None:
            outcome = memo.outcomes[cs] = run(cs)
        return outcome

    def keep(sig: int, cs: ConstraintSet, outcome: ScheduleOutcome) -> Optional[float]:
        """Record a set's makespan by its signature, and the set with its
        outcome when it fits the budget; returns the makespan."""
        makespan = makespans[sig] = None if outcome.schedule is None else outcome.schedule.makespan
        if makespan is not None and makespan <= domain.time_budget:
            fitting[sig] = cs, outcome
        return makespan

    # The root's minimal makespan under estimates is the normalization
    # reference for overruns; reuse its solve for the root node.
    root = Allocation.root(m, n)
    root_masks = root.coalition_masks()
    root_quality = total_allocation_quality(root_masks, domain)
    root_cs = build_constraints_fast(tables, root_masks)
    root_outcome = schedule(root_cs)
    if root_outcome.schedule is None:
        raise InvalidInput("root allocation admits no schedule")
    null_masks = [0] * m
    root_makespan = root_outcome.schedule.makespan
    stats.worst_makespan = root_makespan
    stats.quality_root = root_quality
    stats.quality_null = total_allocation_quality(null_masks, domain)
    score = node_scorer(
        root_quality, stats.quality_null, root_makespan, domain.time_budget, domain.alpha
    )
    open_set = OpenSet()
    open_set.push(0, root.key, root_quality, root_makespan, score(root_quality, root_makespan)[2])
    stats.nodes_generated = 1
    # The empty allocation has no travel and only the declared mutex pairs,
    # so its makespan bounds every allocation's from below, planned or not:
    # if it overruns, nothing fits, and no whole table is read.
    null_cs = build_constraints_fast(tables, null_masks)
    null_outcome = schedule(null_cs)
    if null_outcome.schedule.makespan > domain.time_budget:
        return None, stats

    planned = make_travel_tables(domain, planned_leg_seconds(planner, domain))
    piece_ids, columns = tables.piece_ids, tables.columns
    quality_tables = domain.quality_tables()
    shifts = [n * c for c in range(len(columns))]
    # per task, the columns its mask enters: (column, its piece ids, the
    # other task, shift); an offset's other task is its own, as a child's
    # mask lies within masks[task]
    touching: list[list[tuple[int, Sequence[int], int, int]]] = [[] for _ in range(m)]
    for c, (i, j) in enumerate(columns):
        touching[i].append((c, piece_ids[c], j, shifts[c]))
        if j != i:
            touching[j].append((c, piece_ids[c], i, shifts[c]))

    def signature(masks: Sequence[int]) -> tuple[int, list[int]]:
        ids = [column[masks[i] & masks[j]] for column, (i, j) in zip(piece_ids, columns)]
        return sum(map(lshift, ids, shifts)), ids

    keep(signature(root_masks)[0], root_cs, root_outcome)
    keep(signature(null_masks)[0], null_cs, null_outcome)
    visited = {root.key}

    while len(open_set):
        _, depth, key, quality, makespan = open_set.pop()
        loss, overrun, blended = score(quality, makespan)
        alloc = Allocation(key, root.shape)
        if overrun == 0.0:  # so makespan is not None: the node has a schedule
            masks = alloc.coalition_masks()
            cs, outcome = fitting[signature(masks)[0]]
            outcome = _refine(cs, outcome, build_constraints_fast(planned, masks), stats, schedule)
            makespan = None if outcome.schedule is None else outcome.schedule.makespan
            loss, overrun, blended = score(quality, makespan)
            if overrun == 0.0:
                best = open_set.best()
                if best is not None:
                    _, _, best_key, best_quality, best_makespan = best
                    _, best_overrun, best_blend = score(best_quality, best_makespan)
                    stats.best_open = FrontierEntry(best_key, best_quality, best_overrun, best_blend)
                plans = _motion_plans(domain, alloc, outcome.schedule, planner)
                stats.planner_calls = planner.calls - planner.cache_hits - astar_before
                orderings = realized_orderings(cs, outcome.schedule)
                solution = Solution(
                    alloc, outcome.schedule, orderings, plans, quality, loss, overrun, blended
                )
                return solution, stats
            stats.reinserted += 1
            open_set.push(depth, key, quality, makespan, blended)
            continue
        stats.nodes_expanded += 1
        children = successors(alloc)
        fresh = 0
        for child_key in children:
            if child_key in visited:
                continue
            visited.add(child_key)
            if not fresh:
                masks = alloc.coalition_masks()
                sig, ids = signature(masks)
                qualities = [table[mask] for table, mask in zip(quality_tables, masks)]
                prefixes = list(accumulate(qualities, initial=0.0))
            fresh += 1
            # the child clears one robot's bit in one task's row
            shift = (key ^ child_key).bit_length() - 1
            task = m - 1 - shift // n
            mask = masks[task] ^ (1 << shift % n)
            child_sig = sig
            for c, column, other, at in touching[task]:
                child_sig ^= (column[mask & masks[other]] ^ ids[c]) << at
            child_makespan = makespans.get(child_sig, _UNSEEN)
            if child_makespan is _UNSEEN:
                child_masks = list(masks)
                child_masks[task] = mask
                child_cs = build_constraints_fast(tables, child_masks)
                child_makespan = keep(child_sig, child_cs, run(child_cs))
            child_q = prefixes[task] + quality_tables[task][mask]
            for q in qualities[task + 1:]:
                child_q += q
            child_loss, _, child_blended = score(child_q, child_makespan)
            if check_invariants and child_loss < loss - LOSS_SLACK:
                raise ContractViolation(
                    f"quality loss dropped from {loss} to {child_loss} on removing an assignment"
                )
            open_set.push(depth + 1, child_key, child_q, child_makespan, child_blended)
        stats.nodes_generated += fresh
        stats.duplicates_skipped += len(children) - fresh

    raise ContractViolation("search exhausted the graph although the empty allocation fits")


def _refine(
    cs: ConstraintSet,
    outcome: ScheduleOutcome,
    planned: ConstraintSet,
    stats: SearchStats,
    schedule: Callable[[ConstraintSet], ScheduleOutcome],
) -> ScheduleOutcome:
    """Swap estimated travel for planned travel until the set is a fixpoint.

    cs is the node's set under estimated travel and outcome its schedule;
    planned is the node's set under planned travel. Each round refines the
    set for the orderings its schedule realizes and schedules it again,
    until refining gives back the set exactly. That ends: a term moves at
    most once, from its estimate to its planned value (offsets and
    precedence terms in the first round; a mutex direction, once planned,
    stays planned), so there are no more changing rounds than terms. A
    schedule that realizes the previous round's orderings ends it without
    a call, as refining would give back its own set. Returns the last
    round's outcome.
    """
    orderings = None
    while outcome.schedule is not None:
        previous, orderings = orderings, realized_orderings(cs, outcome.schedule)
        if orderings == previous:
            break
        cs, changed = refine_with_motion_plans(planned, orderings, cs)
        if not changed:
            break
        stats.refinement_rounds += 1
        outcome = schedule(cs)
    return outcome


def _motion_plans(
    domain: ProblemDomain, alloc: Allocation, schedule: Schedule, planner: GridPlanner
) -> dict:
    """Each robot's arrival leg to each task on its route, by (robot, task)."""
    motion_plans = {}
    tasks = domain.network.tasks
    routes = robot_routes(alloc, schedule.start_times)
    for r, robot in enumerate(domain.robots):
        origin = robot.start_cell
        for i in routes[r]:
            plan = planner.plan(origin, tasks[i].start_site)
            if plan is None:
                raise ContractViolation(f"accepted allocation: robot {r} cannot reach task {i}")
            motion_plans[(r, i)] = plan
            origin = tasks[i].end_site
    return motion_plans
