"""Shared oracle utilities for the test suite.

Everything here is deliberately independent of the library internals:
breadth-first search instead of A*, dense linear algebra instead of the
cached Cholesky path, exhaustive enumeration and full relaxation at every
node instead of incremental branch and bound, and per-leg travel callbacks
instead of bitmasks over travel tables. Tests compare library output
against these references. The GP marginal-likelihood grid search lives
here too, as only tests use it, and so do the learning loop that refits
the GP after every label, the rmse of a fit model, the search's child
quality as a left fold over replaced entries, A* with its occupancy test
and heuristic behind their own calls, the node score's loss, overrun and
blend as three functions, an allocation built from its 0/1 matrix, a
dataset CSV writer, and a generator of teams wider than the table cap.
"""

from __future__ import annotations

import csv
import dataclasses
import heapq
import itertools
import math
from collections import deque
from typing import Optional

import numpy as np

from staq.analysis import OracleBudgetExceeded, OracleResult
from staq.learning import (
    GPModel,
    GPQualityMap,
    LabelingAborted,
    LinearQualityMap,
    gp_fit,
    gp_mean,
    select_query,
)
from staq.model import (
    Allocation,
    ContractViolation,
    InvalidInput,
    ProblemDomain,
    Robot,
    Schedule,
    Task,
    TaskNetwork,
    WorldMap,
    total_allocation_quality,
)
from staq.motion import PathResult, estimated_leg_seconds, euclidean_estimate, planned_leg_seconds
from staq.scheduler import (
    ConstraintSet,
    ScheduleOutcome,
    build_constraints_fast,
    make_travel_tables,
    solve_milp,
)


# The search's node score as three separate formulas, the reference for
# heuristics.node_scorer. Quality and overrun tolerances are 1e-9, as there.
SCORE_TOL = 1e-9


def normalized_quality_loss(quality, quality_root, quality_null):
    """Fraction of the root-to-null quality range given up by this allocation.

    0 at root quality, 1 at null quality, clamped to [0, 1] outside the
    range. A span (root - null) of at most SCORE_TOL, a root below null
    included, yields 0: no range is there to give up.
    """
    span = quality_root - quality_null
    if span <= SCORE_TOL:
        return 0.0
    return min(1.0, max(0.0, (quality_root - quality) / span))


def budget_overrun(makespan, makespan_worst, time_budget):
    """Excess of the makespan over the budget, scaled by the worst-case margin.

    0 when the schedule fits the budget. Degenerate margin (worst-case equals
    the budget) yields 0 when within budget and +inf otherwise, so overruns
    still dominate any quality term.
    """
    if makespan < 0:
        raise ContractViolation(f"negative makespan {makespan}")
    margin = abs(makespan_worst - time_budget)
    excess = makespan - time_budget
    if excess <= 0.0:
        return 0.0
    if margin <= SCORE_TOL:
        return float("inf")
    return excess / margin


def blend(loss, overrun, alpha):
    """Convex blend: (1 - alpha) * quality loss + alpha * budget overrun.

    At alpha = 0 an infinite overrun is ignored rather than producing nan;
    the budget side simply has no weight.
    """
    if not (0.0 <= alpha <= 1.0):
        raise InvalidInput(f"alpha must be in [0,1], got {alpha}")
    if overrun == float("inf"):
        return float("inf") if alpha > 0.0 else loss
    return (1.0 - alpha) * loss + alpha * overrun


def child_quality(qualities, task, quality):
    """Total quality of an allocation that differs from a parent in one task.

    qualities are the parent's per-task qualities in task order and quality
    is the task's new one: the left fold in task order of
    total_allocation_quality, with that task's entry replaced.
    """
    total = 0.0
    for t, q in enumerate(qualities):
        total += quality if t == task else q
    return total


def reference_plan_path(world, start, goal):
    """A* through WorldMap.is_free and euclidean_estimate, one call each per
    neighbor: what plan_path computes, tie-breaking included."""
    for cell, name in ((start, "start"), (goal, "goal")):
        if not world.is_free(cell):
            raise InvalidInput(f"{name} cell {cell} is blocked or out of bounds")
    if start == goal:
        return PathResult((start,), 0.0, 0)
    g_cost = {start: 0.0}
    parent = {}
    frontier = [(euclidean_estimate(start, goal), start[1], start[0], start)]
    closed = set()
    expanded = 0
    while frontier:
        _, _, _, cell = heapq.heappop(frontier)
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
        g_here = g_cost[cell]
        for nxt in ((col, row - 1), (col + 1, row), (col, row + 1), (col - 1, row)):
            if not world.is_free(nxt) or nxt in closed:
                continue
            g_new = g_here + 1.0
            if g_new < g_cost.get(nxt, math.inf):
                g_cost[nxt] = g_new
                parent[nxt] = cell
                f_new = g_new + euclidean_estimate(nxt, goal)
                heapq.heappush(frontier, (f_new, nxt[1], nxt[0], nxt))
    return None


def bfs_grid_distance(world, start, goal):
    """Unweighted shortest path length in cells, or None if unreachable."""
    if not (world.is_free(start) and world.is_free(goal)):
        return None
    if start == goal:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        (cx, cy), dist = queue.popleft()
        for nxt in ((cx, cy - 1), (cx + 1, cy), (cx, cy + 1), (cx - 1, cy)):
            if nxt in seen or not world.is_free(nxt):
                continue
            if nxt == goal:
                return dist + 1
            seen.add(nxt)
            queue.append((nxt, dist + 1))
    return None


def dense_gp_reference(x_train, y_train, x_query, *, length_scale,
                       signal_var=0.25, noise_var=1e-4, prior_mean=0.5):
    """Textbook GP posterior via one dense solve. No caching, no clamping."""
    x_train = np.atleast_2d(np.asarray(x_train, dtype=float))
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    y_train = np.asarray(y_train, dtype=float)

    def k(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return signal_var * np.exp(-d2 / (2.0 * length_scale ** 2))

    gram = k(x_train, x_train) + noise_var * np.eye(len(x_train))
    cross = k(x_query, x_train)
    solve = np.linalg.solve(gram, y_train - prior_mean)
    mean = prior_mean + cross @ solve
    var = signal_var - np.einsum(
        "ij,ji->i", cross, np.linalg.solve(gram, cross.T))
    return mean, var


def log_marginal_likelihood(model: GPModel) -> float:
    residual = model.y_train - model.prior_mean
    n = residual.size
    log_det = 2.0 * float(np.sum(np.log(np.diag(model.chol))))
    return -0.5 * float(residual @ model.weights) - 0.5 * log_det - 0.5 * n * math.log(2.0 * math.pi)


def tune_hyperparameters(x, y, *, length_scales, signal_vars, noise_var=1e-4, prior_mean=0.5):
    """Grid search maximizing marginal likelihood; ties keep the earliest
    grid entry so results are reproducible."""
    if not length_scales or not signal_vars:
        raise InvalidInput("hyperparameter grids must be non-empty")
    best = None
    best_lml = -math.inf
    for ls in length_scales:
        for sv in signal_vars:
            model = gp_fit(x, y, length_scale=ls, signal_var=sv,
                           noise_var=noise_var, prior_mean=prior_mean)
            lml = log_marginal_likelihood(model)
            if lml > best_lml:
                best, best_lml = model, lml
    return best


def rmse(model, x_eval, y_eval):
    """Root-mean-square error of the model's posterior mean."""
    mean = gp_mean(model, x_eval)
    return float(np.sqrt(np.mean((mean - np.asarray(y_eval, dtype=float).ravel()) ** 2)))


def reference_learning_loop(labeler, pool, eval_set, picks):
    """The learning loop that refits the GP from scratch after every label
    and reads each rmse from that fit; a None pick means choose by maximum
    variance. staq.learning._learning_loop fits once per variance pick and
    reads the whole trace off its final fit's Cholesky factor instead."""
    x_eval, y_eval = eval_set
    model = None
    labels = []
    queried = []
    trace = []
    for pick in picks:
        index = select_query(model, pool) if pick is None else int(pick)
        try:
            label = float(labeler(index))
        except Exception as exc:
            raise LabelingAborted(exc, model, trace) from exc
        pool.mark_labeled(index)
        queried.append(index)
        labels.append(label)
        model = gp_fit(pool.features[queried], np.asarray(labels))
        trace.append(rmse(model, x_eval, y_eval))
    return model, trace


def relax(
    offsets: tuple[float, ...],
    durations: tuple[float, ...],
    edges: list[tuple[int, int, float]],
    m: int,
) -> Optional[tuple[list[float], float]]:
    """Longest-path start times under a fixed edge list, by Bellman-Ford.

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


def _edges(cs, oriented):
    edges = [
        (i, j, cs.durations[i] + x) for (i, j), x in cs.precedence_travel
    ]
    mutex = dict(cs.mutex_pairs)
    for (i, j), direction in oriented.items():
        x_ij, x_ji = mutex[(i, j)]
        if direction == 1:
            edges.append((i, j, cs.durations[i] + x_ij))
        else:
            edges.append((j, i, cs.durations[j] + x_ji))
    return edges


def evaluate_fixed_order(cs: ConstraintSet, orderings):
    """Minimal makespan once every mutex pair is given a direction.

    orderings maps each canonical pair (i, j) to 1 (i first) or -1 (j first).
    Returns None when the fixed orientation is unschedulable. One longest-path
    pass, checked against a linear program in the scheduler tests.
    """
    pairs = {pair for pair, _ in cs.mutex_pairs}
    missing = pairs - set(orderings)
    if missing:
        raise InvalidInput(f"orderings missing mutex pairs {sorted(missing)}")
    for pair, direction in orderings.items():
        if pair in pairs and direction not in (1, -1):
            raise InvalidInput(f"ordering for {pair} must be 1 or -1, got {direction}")
    oriented = {p: orderings[p] for p in sorted(pairs)}
    result = relax(cs.initial_offsets, cs.durations, _edges(cs, oriented), len(cs.durations))
    return None if result is None else result[1]


def enumerate_schedules(cs: ConstraintSet):
    """Minimum makespan over every orientation of every disjunction.

    Exhaustive 2^k reference for the branch-and-bound solver.  Returns
    None when no orientation admits a schedule.
    """
    pairs = sorted(pair for pair, _ in cs.mutex_pairs)
    best = None
    for signs in itertools.product((1, -1), repeat=len(pairs)):
        orderings = dict(zip(pairs, signs))
        makespan = evaluate_fixed_order(cs, orderings)
        if makespan is not None and (best is None or makespan < best):
            best = makespan
    return best


def reference_solve_milp(cs: ConstraintSet):
    """Branch and bound that relaxes every node from scratch.

    The same branching order, pruning and node count as
    staq.scheduler.solve_milp, but each node runs a full Bellman-Ford pass
    over the precedence arcs plus the orientations decided so far, where
    the library adds one arc to its parent's start times. Returns the
    outcome and the direction each mutex pair took in its schedule, as
    branched (1: i before j, -1: j before i), or None without a schedule;
    the library reads these directions off the start times instead.
    """
    durations = cs.durations
    offsets = cs.initial_offsets
    m = len(durations)
    items = sorted(cs.mutex_pairs, key=lambda item: (-max(item[1]), item[0]))
    pairs = [pair for pair, _ in items]
    n_pairs = len(pairs)
    pair_arcs = [
        ((i, j, durations[i] + x_ij), (j, i, durations[j] + x_ji))
        for (i, j), (x_ij, x_ji) in items
    ]
    edges = [(i, j, durations[i] + x) for (i, j), x in cs.precedence_travel]
    directions = [0] * n_pairs
    best = None
    best_makespan = math.inf
    nodes = 0

    def dfs(depth):
        nonlocal best, best_makespan, nodes
        nodes += 1
        relaxed = relax(offsets, durations, edges, m)
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
        return ScheduleOutcome(None, nodes), None
    starts, orderings = best
    return ScheduleOutcome(Schedule(starts, best_makespan), nodes), orderings


def build_constraints(domain, alloc, leg_seconds):
    """Derive the constraint set for an allocation from a travel-time source.

    Mutex pairs are the user-declared ones plus every pair of tasks sharing a
    robot, minus pairs already ordered by direct precedence. Travel terms take
    the max over the robots that actually make the move; no robot means 0.
    """
    tasks = domain.network.tasks
    m = len(tasks)
    coalitions = [alloc.coalition(i) for i in range(m)]

    def arrival(i: int) -> float:
        return max(
            (leg_seconds(r, domain.robots[r].start_cell, tasks[i].start_site) for r in coalitions[i]),
            default=0.0,
        )

    def handover(i: int, j: int) -> float:
        shared = set(coalitions[i]) & set(coalitions[j])
        return max(
            (leg_seconds(r, tasks[i].end_site, tasks[j].start_site) for r in sorted(shared)),
            default=0.0,
        )

    precedence_travel = tuple(((i, j), handover(i, j)) for i, j in sorted(domain.network.precedence))

    pairs = set(domain.network.mutex)
    for i in range(m):
        for j in range(i + 1, m):
            if set(coalitions[i]) & set(coalitions[j]):
                pairs.add((i, j))
    pairs -= {
        (min(i, j), max(i, j)) for i, j in domain.network.precedence
    }
    mutex_pairs = tuple(((i, j), (handover(i, j), handover(j, i))) for i, j in sorted(pairs))

    return ConstraintSet(
        durations=tuple(t.duration for t in tasks),
        initial_offsets=tuple(arrival(i) for i in range(m)),
        precedence_travel=precedence_travel,
        mutex_pairs=mutex_pairs,
    )


def random_constraint_set(rng, *, max_tasks=6, max_mutex=8):
    """Random scheduling instance with at most eight disjunctions."""
    m = int(rng.integers(2, max_tasks + 1))
    durations = tuple(float(d) for d in rng.uniform(1.0, 9.0, size=m))
    offsets = tuple(float(x) for x in rng.uniform(0.0, 6.0, size=m))

    precedence = {}
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.2:
                precedence[(i, j)] = float(rng.uniform(0.0, 4.0))

    candidates = [(i, j) for i in range(m) for j in range(i + 1, m)
                  if (i, j) not in precedence]
    rng.shuffle(candidates)
    n_mutex = int(rng.integers(0, min(max_mutex, len(candidates)) + 1))
    mutex = {}
    for (i, j) in candidates[:n_mutex]:
        mutex[(i, j)] = (float(rng.uniform(0.0, 3.0)),
                         float(rng.uniform(0.0, 3.0)))

    return ConstraintSet(
        durations=durations,
        initial_offsets=offsets,
        precedence_travel=tuple(precedence.items()),
        mutex_pairs=tuple(sorted(mutex.items())),
    )


def open_world(width=8, height=8, cell_size=1.0):
    return WorldMap(width=width, height=height, occupied=frozenset(),
                    cell_size=cell_size)


class LinearMap:
    """Clamped weighted sum of an aggregated trait row."""

    def __init__(self, weights, normalizer=1.0):
        self.weights = np.asarray(weights, dtype=float)
        self.normalizer = float(normalizer)

    def __call__(self, traits):
        return float(self.weights @ np.asarray(traits, dtype=float)
                     / self.normalizer)


def two_task_domain(*, alpha=0.4, time_budget=60.0, precedence=frozenset(),
                    mutex=frozenset()):
    """Small deterministic instance used across the suite.

    Robot 0 sits near task 0, robot 1 near task 1, on an open 8x8 grid,
    so every hand-computed travel distance is a short Manhattan walk.
    """
    world = open_world()
    robots = (
        Robot(traits=np.array([1.0, 0.0]), start_cell=(0, 0), speed=1.0),
        Robot(traits=np.array([0.0, 2.0]), start_cell=(7, 7), speed=2.0),
    )
    tasks = (
        Task(duration=4.0, start_site=(2, 0), end_site=(3, 0)),
        Task(duration=3.0, start_site=(5, 7), end_site=(5, 6)),
    )
    network = TaskNetwork(tasks=tasks, precedence=frozenset(precedence),
                          mutex=frozenset(mutex))
    quality_maps = (LinearMap([1.0, 1.0], 3.0), LinearMap([1.0, 1.0], 3.0))
    return ProblemDomain(network=network, robots=robots,
                         quality_maps=quality_maps, world=world,
                         time_budget=time_budget, alpha=alpha)


def walled_world():
    """10x10 grid split by a wall with a single gap at the bottom row."""
    occupied = frozenset((5, row) for row in range(9))
    return WorldMap(width=10, height=10, occupied=occupied, cell_size=1.0)


def drop_one_domain(time_budget=9.0, alpha=0.4):
    """Two unit-distance tasks where the budget decides how much to share.

    The all-hands allocation serializes both tasks (makespan 10); dropping
    one assignment brings the best makespan down to 9 at quality 1.5 of 2.
    """
    world = open_world(4, 4)
    robots = (
        Robot(traits=np.array([1.0, 0.0]), start_cell=(0, 0), speed=1.0),
        Robot(traits=np.array([0.0, 1.0]), start_cell=(1, 0), speed=1.0),
    )
    tasks = (
        Task(duration=4.0, start_site=(0, 0), end_site=(0, 0)),
        Task(duration=4.0, start_site=(1, 0), end_site=(1, 0)),
    )
    network = TaskNetwork(tasks=tasks, precedence=frozenset(), mutex=frozenset())
    # the library's linear maps: monotone, so the bound report's guarantee
    # applies, and serializable, so the domain round-trips through JSON
    maps = (LinearQualityMap([1.0, 1.0], 2.0), LinearQualityMap([1.0, 1.0], 2.0))
    return ProblemDomain(network=network, robots=robots, quality_maps=maps,
                         world=world, time_budget=time_budget, alpha=alpha)


def _one_task_two_robots(quality_map, time_budget):
    """One 1 s task at (2, 2) of an open 6x6 grid, and two unit-speed robots
    of one unit trait at (0, 0) and (5, 5)."""
    robots = tuple(Robot(traits=np.array([1.0]), start_cell=cell, speed=1.0)
                   for cell in ((0, 0), (5, 5)))
    tasks = (Task(duration=1.0, start_site=(2, 2), end_site=(2, 2)),)
    return ProblemDomain(network=TaskNetwork(tasks=tasks), robots=robots,
                         quality_maps=(quality_map,), world=open_world(6, 6),
                         time_budget=time_budget)


def gp_below_null_domain():
    """A learned map fit to quality 1 at one robot and 0.2 at two: the whole
    team (the root) scores 0.2003, below the empty allocation's 1.0. The
    root fits the budget of 7.5."""
    return _one_task_two_robots(GPQualityMap(gp_fit([[1.0], [2.0]], [1.0, 0.2])), 7.5)


def one_robot_peak_domain():
    """A map that peaks at one robot: quality 0, 1 and 0.3 by team size. The
    root fits the budget of 5.5 under straight-line travel but not under
    planned travel, so the search expands it and scores children above it."""
    by_size = {0: 0.0, 1: 1.0, 2: 0.3}
    return _one_task_two_robots(lambda y: by_size[round(float(y[0]))], 5.5)


def wide_team_domain(seed, n_robots, *, n_tasks=2, alpha=0.4):
    """A seeded domain for teams wider than model.TABLE_MAX_ROBOTS: robots
    and task sites on distinct cells of an open 10x10 grid, the most capable
    robots the slowest, linear maps normalized so the whole team scores 1
    per task, and a budget drawn between the empty allocation's makespan
    and the root's under estimated travel."""
    rng = np.random.default_rng(seed)
    cells = [(c, r) for r in range(10) for c in range(10)]
    picks = [cells[k] for k in rng.choice(len(cells), size=n_robots + 2 * n_tasks, replace=False)]
    traits = rng.uniform(0.0, 1.0, size=(n_robots, 3))
    rank = np.argsort(np.argsort(traits.sum(axis=1))) / (n_robots - 1)
    robots = tuple(Robot(traits[k], picks[k], float(2.0 - 1.2 * rank[k])) for k in range(n_robots))
    sites = picks[n_robots:]
    tasks = tuple(Task(float(rng.uniform(2.0, 6.0)), sites[2 * i], sites[2 * i + 1])
                  for i in range(n_tasks))
    weights = rng.uniform(0.2, 1.0, size=(n_tasks, 3))
    maps = tuple(LinearQualityMap(w, float(w @ traits.sum(axis=0))) for w in weights)
    base = ProblemDomain(TaskNetwork(tasks, mutex={(0, 1)}), robots, maps, open_world(10, 10),
                         time_budget=1.0, alpha=alpha)
    tables = make_travel_tables(base, estimated_leg_seconds(base))
    floor, ceiling = (
        solve_milp(build_constraints_fast(tables, [mask] * n_tasks)).schedule.makespan
        for mask in (0, 2**n_robots - 1)
    )
    budget = floor + rng.uniform(0.25, 0.9) * (ceiling - floor)
    return dataclasses.replace(base, time_budget=budget)


def oracle_by_enumeration(domain, planner):
    """Independent optimum: try all allocations with the reference constraint
    builder and the 2^k orientation enumeration, no pruning anywhere."""
    m, n = domain.n_tasks, domain.n_robots
    leg = planned_leg_seconds(planner, domain)
    best = None
    for key in range(2 ** (m * n)):
        alloc = Allocation(key, (m, n))
        makespan = enumerate_schedules(build_constraints(domain, alloc, leg))
        if makespan is None or makespan > domain.time_budget:
            continue
        quality = total_allocation_quality(alloc.coalition_masks(), domain)
        if best is None or quality > best[0] + 1e-12:
            best = (quality, key, makespan)
    return best


def reference_brute_force_optimal(domain, planner, *, schedule_cap=None):
    """The oracle's scan one allocation at a time: every key the arrival
    floor keeps, in the order of a stable argsort of -totals, each building
    its constraint set and looking its schedule up by that set, and the cap
    checked before each. staq.analysis.brute_force_optimal builds and
    schedules only each distinct piece row of a chunk, and schedules the
    empty allocation first."""
    m, n = domain.n_tasks, domain.n_robots
    tables = make_travel_tables(domain, planned_leg_seconds(planner, domain))
    totals, floor = np.zeros(1), np.zeros(1)
    for i in range(m):
        quality = np.array([domain.task_quality(i, mask) for mask in range(2**n)])
        totals = (totals[:, None] + quality[None, :]).ravel()
        finish = tables.durations[i] + np.array([
            max((tables.arrive[r][i] for r in range(n) if mask >> (n - 1 - r) & 1), default=0.0)
            for mask in range(2**n)
        ])
        floor = np.maximum(floor[:, None], finish[None, :]).ravel()
    order = np.argsort(-totals, kind="stable")
    n_scheduled = 0
    memo = {}
    for key in order[floor[order] <= domain.time_budget].tolist():
        if schedule_cap is not None and n_scheduled >= schedule_cap:
            raise OracleBudgetExceeded(f"gave up after scheduling {n_scheduled} allocations")
        alloc = Allocation(key, (m, n))
        cs = build_constraints_fast(tables, alloc.coalition_masks())
        if cs not in memo:
            memo[cs] = solve_milp(cs)
        outcome = memo[cs]
        n_scheduled += 1
        if outcome.schedule is not None and outcome.schedule.makespan <= domain.time_budget:
            quality = float(totals[key])
            return OracleResult(quality, alloc, outcome.schedule.makespan,
                                int(np.sum(totals > quality + 1e-12)), n_scheduled)
    return OracleResult(None, None, None, int(totals.size), n_scheduled)


def allocation_from_entries(entries) -> Allocation:
    """The allocation of a task-by-robot 0/1 matrix."""
    raw = np.asarray(entries)
    if raw.ndim != 2:
        raise InvalidInput("allocation must be a 2-D matrix")
    if raw.size:
        if raw.dtype.kind in "iub":
            if int(raw.min()) < 0 or int(raw.max()) > 1:
                raise InvalidInput("allocation entries must be 0 or 1")
        elif not np.all((raw == 0) | (raw == 1)):
            raise InvalidInput("allocation entries must be 0 or 1")
    key = 0
    for bit in raw.ravel().tolist():
        key = (key << 1) | int(bit)
    return Allocation(key, raw.shape)


def save_dataset_csv(features, labels, path, *, trait_names=None, label_name="label"):
    """Write a labeled dataset in the layout staq.instance_io.load_dataset_csv
    reads: a header row, then trait columns and a final label column."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.asarray(labels, dtype=float).ravel()
    if features.shape[0] != labels.shape[0]:
        raise InvalidInput(f"{features.shape[0]} rows but {labels.shape[0]} labels")
    if trait_names is None:
        trait_names = [f"trait_{i}" for i in range(features.shape[1])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(trait_names) + [label_name])
        for row, label in zip(features, labels):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(label))])
