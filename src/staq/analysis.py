"""Suboptimality bounds, a brute-force oracle, parameter sweeps, and random
instance generation for empirical validation.

The search's greedy choice costs a bounded amount of quality: with blend
weight a, the optimal feasible quality exceeds the returned one by at most
a/(1-a) times the root-to-null quality span. The post-hoc variant tightens
that by the budget overrun of the best-quality open node when the search
stopped. Both are validated here against an exhaustive oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .learning import LinearQualityMap
from .model import (
    TOL,
    Allocation,
    InvalidInput,
    ProblemDomain,
    Robot,
    Solution,
    Task,
    TaskNetwork,
    WorldMap,
)
from .motion import GridPlanner, estimated_leg_seconds, planned_leg_seconds, steps_field
from .scheduler import build_constraints_fast, make_travel_tables, solve_milp, tabulate_pieces
from .search import ScheduleCache, SearchStats, solve

ORACLE_MAX_BITS = 20


class OracleBudgetExceeded(RuntimeError):
    """The exhaustive oracle hit its caller-imposed scheduling cap."""


@dataclass(frozen=True)
class BoundReport:
    """Bounds on how far the returned quality can sit below the optimum.

    Oracle-dependent fields (q_optimal, gap, holds_*) are None until an
    exhaustive result is supplied. guarantee_applies records the two
    preconditions of the guarantee: every quality map is a LinearQualityMap,
    the one kind known to be monotone, and the worst-case makespan reaches
    the budget, without which the overrun normalization can exceed 1.
    """

    alpha: float
    q_root: float
    q_null: float
    q_solution: float
    apriori_bound: float
    posthoc_bound: float
    overrun_of_best_open: float
    apriori_trivial: bool  # bound at least as wide as the whole quality span
    guarantee_applies: bool
    q_optimal: Optional[float] = None
    gap: Optional[float] = None
    holds_apriori: Optional[bool] = None
    holds_posthoc: Optional[bool] = None


@dataclass(frozen=True)
class OracleResult:
    quality: Optional[float]
    allocation: Optional[Allocation]  # None: no allocation fits the budget
    makespan: Optional[float]
    n_strictly_better: int
    n_scheduled: int

    @property
    def feasible(self) -> bool:
        return self.allocation is not None


def apriori_bound(alpha: float, q_root: float, q_null: float) -> float:
    """Worst-case quality gap guaranteed before running the search.

    Returns +inf at alpha = 1; values at alpha >= 0.5 are computed but wider
    than the whole quality span, hence vacuous.
    """
    if not (0.0 <= alpha <= 1.0):
        raise InvalidInput(f"alpha must be in [0,1], got {alpha}")
    if q_root < q_null - TOL:
        raise InvalidInput(f"root quality {q_root} below null quality {q_null}")
    if alpha >= 1.0:
        return math.inf
    return alpha / (1.0 - alpha) * (q_root - q_null)


def posthoc_bound(
    alpha: float, q_root: float, q_null: float, overrun_best_open: float
) -> float:
    """The a-priori bound tightened by the realized overrun of the best open
    node; 0 when no node was open (the search exhausted the graph) or when
    the a-priori bound is 0, whatever the overrun: 0 x inf would be NaN."""
    if overrun_best_open < 0:
        raise InvalidInput(f"overrun must be non-negative, got {overrun_best_open}")
    if overrun_best_open == 0.0:
        return 0.0
    apriori = apriori_bound(alpha, q_root, q_null)
    return apriori if apriori == 0.0 else apriori * overrun_best_open


def bound_report(
    domain: ProblemDomain,
    solution: Solution,
    stats: SearchStats,
    *,
    oracle: Optional[OracleResult] = None,
) -> BoundReport:
    span = stats.quality_root - stats.quality_null
    apriori = apriori_bound(domain.alpha, stats.quality_root, stats.quality_null)
    overrun_best = 0.0 if stats.best_open is None else stats.best_open.overrun
    posthoc = posthoc_bound(domain.alpha, stats.quality_root, stats.quality_null, overrun_best)

    report = BoundReport(
        alpha=domain.alpha,
        q_root=stats.quality_root,
        q_null=stats.quality_null,
        q_solution=solution.total_quality,
        apriori_bound=apriori,
        posthoc_bound=posthoc,
        overrun_of_best_open=overrun_best,
        apriori_trivial=apriori >= span - 1e-12,
        guarantee_applies=(
            stats.worst_makespan >= domain.time_budget - TOL
            and all(isinstance(q, LinearQualityMap) for q in domain.quality_maps)
        ),
    )
    if oracle is not None and oracle.feasible:
        gap = oracle.quality - solution.total_quality
        report = replace(
            report,
            q_optimal=oracle.quality,
            gap=gap,
            holds_apriori=gap <= apriori + TOL,
            holds_posthoc=gap <= posthoc + TOL,
        )
    return report


FIRST_CHUNK = 1024
BLOCK_KEYS = 2**16


def _quality_order(
    block: Callable[[int], tuple[np.ndarray, np.ndarray]], n_keys: int, width: int
) -> Iterator[np.ndarray]:
    """The keys that are not too slow, by descending total with ties to the
    smaller key: the order of a stable argsort of -totals, produced as
    non-empty chunks so that a scan which stops early sorts only what it
    read.

    block(b) gives the totals and too-slow flags of keys [b*width,
    (b+1)*width) (the last block may be shorter), so no array here spans
    all n_keys. Each chunk is every key whose total lies at or above the
    chunk's threshold and below the previous one. One pass over the blocks
    selects it: it keeps the size largest totals read so far and every tie
    of the smallest kept, so ties stay whole. Chunks grow from FIRST_CHUNK
    keys, four times each, up to the block width.
    """
    last = math.inf
    size = FIRST_CHUNK
    while True:
        totals, keys = np.empty(0), np.empty(0, dtype=np.int64)
        floor = -math.inf  # the size-th largest total kept; -inf while at most size are
        for b in range(-(-n_keys // width)):
            block_totals, too_slow = block(b)
            new = np.flatnonzero(~too_slow & (block_totals < last) & (block_totals >= floor))
            totals = np.concatenate((totals, block_totals[new]))
            keys = np.concatenate((keys, new + b * width))
            if totals.size > size:
                floor = np.partition(totals, totals.size - size)[totals.size - size]
                kept = totals >= floor
                totals, keys = totals[kept], keys[kept]
        if keys.size:
            yield keys[np.argsort(-totals, kind="stable")]
        if floor == -math.inf:  # this chunk took every key left
            return
        last = floor
        size = min(4 * size, max(width, FIRST_CHUNK))


def brute_force_optimal(
    domain: ProblemDomain,
    planner: Optional[GridPlanner] = None,
    *,
    schedule_cap: Optional[int] = None,
) -> OracleResult:
    """Exhaustive optimum under planned travel: scan allocations in quality
    order (ties by smaller key) and return the first that schedules within
    the budget.

    Scheduling is skipped when the slowest arrival alone already overshoots
    the budget: some task's slowest assigned robot plus its duration ends
    after it. The empty allocation is scheduled first: its makespan is a
    lower bound on every allocation's, so when it overruns the instance is
    infeasible after that one run (n_scheduled 1), outside schedule_cap.

    Qualities and piece ids are tabulated over every mask
    (ProblemDomain.quality_arrays, scheduler.tabulate_pieces). Allocation
    totals (total_allocation_quality's left fold) and too-slow flags are
    derived BLOCK_KEYS keys at a time and never held for every key, so
    besides those tables no array exceeds about BLOCK_KEYS entries unless
    one total has more ties. An allocation's constraint set is a row of
    piece ids, one per column of the travel table. The scan reads its
    order chunk by chunk (_quality_order) and builds and schedules only
    each row's first occurrence, so allocations with equal sets share one
    branch and bound run; a row that overruns is kept as its bytes alone,
    with no outcome. n_scheduled counts every allocation scanned up to the
    answer. Guarded to at most 2^20
    allocations; schedule_cap, when given, aborts with
    OracleBudgetExceeded after that many.
    """
    m, n = domain.n_tasks, domain.n_robots
    if m * n > ORACLE_MAX_BITS:
        raise InvalidInput(
            f"oracle limited to {ORACLE_MAX_BITS} assignment bits, got {m * n}"
        )
    if planner is None:
        planner = GridPlanner(domain.world)
    tables = make_travel_tables(domain, planned_leg_seconds(planner, domain))

    qualities = domain.quality_arrays()
    # (i, j, piece ids by the mask tasks i and j share)
    piece_ids, pieces = tabulate_pieces(tables)
    columns = [(i, j, np.array(ids)) for (i, j), ids in zip(tables.columns, piece_ids)]
    # the first m columns are the offsets: each task's slowest arrival by mask
    late = [
        np.array(pieces[i]) + duration > domain.time_budget
        for i, duration in enumerate(tables.durations)
    ]
    n_keys = 2 ** (m * n)
    width = min(BLOCK_KEYS, n_keys)
    dtype = np.min_scalar_type(2**n - 1)

    def block(b: int) -> tuple[np.ndarray, np.ndarray]:
        """Totals and too-slow flags of keys [b*width, (b+1)*width), task
        0's coalition mask the most significant: each task spans the
        masks its bits take within the block."""
        totals, too_slow = np.zeros(1), np.zeros(1, dtype=bool)
        for i in range(m):
            shift = n * (m - 1 - i)
            first = (b * width >> shift) & (2**n - 1)
            masks = slice(first, first + max(width >> shift, 1))
            totals = (totals[:, None] + qualities[i][None, masks]).ravel()
            too_slow = (too_slow[:, None] | late[i][None, masks]).ravel()
        return totals, too_slow

    def piece_rows(keys: np.ndarray) -> np.ndarray:
        task_masks = [(keys >> (n * (m - 1 - i))) & (2**n - 1) for i in range(m)]
        rows = np.empty((keys.size, len(columns)), dtype)
        for c, (i, j, ids) in enumerate(columns):
            rows[:, c] = ids[task_masks[i] & task_masks[j]]
        return rows

    def fits(outcome) -> bool:
        """The search's acceptance rule: a schedule within the budget."""
        return outcome.schedule is not None and outcome.schedule.makespan <= domain.time_budget

    # The scan returns at the first row that fits, so of the rows it has
    # scheduled only the empty allocation's can fit: every other is kept
    # as a row alone.
    empty_row, empty, overrun = None, None, set()
    if not any(flags[0] for flags in late):
        empty = solve_milp(build_constraints_fast(tables, [0] * m))
        if not fits(empty):
            return OracleResult(None, None, None, n_keys, 1)
        empty_row = piece_rows(np.zeros(1, dtype=np.int64))[0].tobytes()

    n_scheduled = 0
    for keys in _quality_order(block, n_keys, width):
        over = schedule_cap is not None and keys.size > schedule_cap - n_scheduled
        if over:
            keys = keys[: max(schedule_cap - n_scheduled, 0)]
        rows = piece_rows(keys)
        _, first = np.unique(rows, axis=0, return_index=True)
        for position in np.sort(first).tolist():
            row = rows[position].tobytes()
            if row in overrun:
                continue
            alloc = Allocation(int(keys[position]), (m, n))
            if row == empty_row:
                outcome = empty
            else:
                outcome = solve_milp(build_constraints_fast(tables, alloc.coalition_masks()))
            if fits(outcome):
                quality = float(block(alloc.key // width)[0][alloc.key % width])
                return OracleResult(
                    quality=quality,
                    allocation=alloc,
                    makespan=outcome.schedule.makespan,
                    n_strictly_better=sum(
                        int(np.count_nonzero(block(b)[0] > quality + 1e-12))
                        for b in range(n_keys // width)
                    ),
                    n_scheduled=n_scheduled + position + 1,
                )
            overrun.add(row)
        n_scheduled += keys.size
        if over:
            raise OracleBudgetExceeded(
                f"gave up after scheduling {n_scheduled} allocations"
            )
    return OracleResult(None, None, None, n_keys, n_scheduled)


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    quality: float
    makespan: float
    norm_gap: float
    norm_apriori_bound: float
    norm_posthoc_bound: float
    holds_apriori: bool
    holds_posthoc: bool


def alpha_sweep(
    domain: ProblemDomain,
    alphas: Optional[Sequence[float]] = None,
    *,
    planner: Optional[GridPlanner] = None,
    oracle: Optional[OracleResult] = None,
) -> Optional[list[SweepRow]]:
    """Solve the same instance across blend weights and report gaps against
    the exhaustive optimum, all normalized by the root-to-null quality span.
    Returns None when the instance has no feasible allocation at all.

    The runs share one schedule cache, so the estimated travel table's
    piece ids are tabulated once and a constraint set is scheduled once
    across all of them.
    """
    if alphas is None:
        alphas = tuple(round(i / 10, 1) for i in range(11))
    if planner is None:
        planner = GridPlanner(domain.world)
    schedule_cache: ScheduleCache = {}
    if oracle is None:
        oracle = brute_force_optimal(domain, planner)
    if not oracle.feasible:
        return None

    rows = []
    for alpha in alphas:
        domain_a = replace(domain, alpha=float(alpha))
        solution, stats = solve(domain_a, planner=planner, schedule_cache=schedule_cache)
        if solution is None:
            raise InvalidInput(
                "search found no feasible allocation on an instance the oracle solved"
            )
        report = bound_report(domain_a, solution, stats, oracle=oracle)
        span = stats.quality_root - stats.quality_null
        norm = span if span > TOL else 1.0
        rows.append(
            SweepRow(
                alpha=float(alpha),
                quality=solution.total_quality,
                makespan=solution.schedule.makespan,
                norm_gap=report.gap / norm,
                norm_apriori_bound=report.apriori_bound / norm,
                norm_posthoc_bound=report.posthoc_bound / norm,
                holds_apriori=bool(report.holds_apriori),
                holds_posthoc=bool(report.holds_posthoc),
            )
        )
    return rows


def _largest_free_component(world: WorldMap) -> list[tuple[int, int]]:
    """The largest 4-connected set of free cells, sorted; of equal sizes,
    the one reached first in row-major order."""
    width = world.width
    seen: set[int] = set()
    best: list[int] = []
    for i in range(width * world.height):
        cell = (i % width, i // width)
        if i in seen or not world.is_free(cell):
            continue
        component = [k for k, steps in enumerate(steps_field(world, cell)) if steps >= 0]
        seen.update(component)
        if len(component) > len(best):
            best = component
    return sorted((k % width, k // width) for k in best)


def random_instance(seed: int, *, alpha: float = 0.4) -> ProblemDomain:
    """A small random instance: connected placements, non-negative linear
    quality maps normalized so the full team scores 1 per task, and a budget
    drawn between the empty-team and full-team makespans (so the worst-case
    makespan always reaches the budget)."""
    rng = np.random.default_rng(seed)
    n_tasks = int(rng.integers(2, 5))
    n_robots = int(rng.integers(3, 6))
    n_traits = int(rng.integers(2, 4))

    while True:
        blocked = rng.random((12, 12)) < 0.10
        world = WorldMap(
            12, 12,
            frozenset(
                (c, r) for r in range(12) for c in range(12) if blocked[r, c]
            ),
        )
        free = _largest_free_component(world)
        if len(free) >= n_robots + 2 * n_tasks + 5:
            break

    picks = rng.choice(len(free), size=n_robots, replace=False)
    traits = rng.uniform(0.0, 1.0, size=(n_robots, n_traits))
    # capability costs speed: the most capable robots are the slowest, so
    # shrinking a coalition buys time at a real quality price (without this
    # tension the alpha sweep is flat and the trade-off invisible)
    rank = np.argsort(np.argsort(traits.sum(axis=1))) / max(n_robots - 1, 1)
    speeds = (2.0 - 1.2 * rank) * rng.uniform(0.9, 1.0, size=n_robots)
    robots = tuple(
        Robot(
            traits=traits[i],
            start_cell=free[int(picks[i])],
            speed=float(speeds[i]),
        )
        for i in range(n_robots)
    )

    tasks = tuple(
        Task(
            duration=float(rng.uniform(4.0, 12.0)),
            start_site=free[int(rng.integers(len(free)))],
            end_site=free[int(rng.integers(len(free)))],
        )
        for i in range(n_tasks)
    )

    precedence = set()
    for i in range(n_tasks):
        for j in range(i + 1, n_tasks):
            if rng.random() < 0.25:
                precedence.add((i, j))
    mutex = set()
    for i in range(n_tasks):
        for j in range(i + 1, n_tasks):
            if (i, j) not in precedence and rng.random() < 0.15:
                mutex.add((i, j))
    network = TaskNetwork(tasks, frozenset(precedence), frozenset(mutex))

    team_traits = traits.sum(axis=0)
    quality_maps = []
    for _ in range(n_tasks):
        weights = rng.uniform(0.2, 1.0, size=n_traits)
        quality_maps.append(LinearQualityMap(weights, float(weights @ team_traits)))

    base = ProblemDomain(
        network=network,
        robots=robots,
        quality_maps=tuple(quality_maps),
        world=world,
        time_budget=1.0,
        alpha=alpha,
    )
    tables = make_travel_tables(base, estimated_leg_seconds(base))
    # the empty team's makespan and the full team's, worst_makespan(base)
    floor, ceiling = (
        solve_milp(build_constraints_fast(tables, alloc.coalition_masks())).schedule.makespan
        for alloc in (Allocation.null(n_tasks, n_robots), Allocation.root(n_tasks, n_robots))
    )
    u = float(rng.uniform(0.25, 0.9))
    budget = floor + u * max(ceiling - floor, 0.0)
    return replace(base, time_budget=max(budget, floor))
