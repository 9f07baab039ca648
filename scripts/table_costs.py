"""Measure what the per-mask tables and the distance fields cost, as JSON.

    PYTHONPATH=src python scripts/table_costs.py [cap|one_set|legs ...]

cap      A whole `solve` with the per-mask tables tabulated whole (the
         cap at n) and filled one mask at a time (the cap at n - 1),
         alternated, best of three each, on 4 tasks and 30x30 maps (the
         perfbench `loose` shape). For 6 to 13 robots with the budget at
         the worst-case makespan, where most searches expand a handful of
         nodes, plus the tabulation alone; for 6 to 8 robots at 0.9 of
         it. An instance whose solve takes over LIMIT_S seconds is left
         out (at 9 or more robots and 0.9, searches expand 10^5 to 10^6
         nodes, half a minute to minutes each).
one_set  A planned travel table plus one allocation's constraint set, what
         `validate_solution` builds, at 6, 10 and 12 robots on an open
         30x30 grid with a warm planner.
legs     Planned legs for 4 tasks and 6 robots on maps of side 30, 100 and
         300 (the generator's obstacles): every leg read off breadth-first
         distance fields (`planned_leg_seconds`) against one A* run per
         distinct leg, each on a fresh planner, best of three; then, on
         one more pass under tracemalloc, the peak traced memory and what
         the planner keeps.

Instances come from the benchmark's generator (perfbench/generator.py),
which this script only reads.
"""

from __future__ import annotations

import dataclasses
import json
import math
import signal
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from generator import Spec, generate  # noqa: E402

from staq import model  # noqa: E402
from staq.instance_io import instance_from_document  # noqa: E402
from staq.model import Allocation, WorldMap  # noqa: E402
from staq.motion import GridPlanner, estimated_leg_seconds, planned_leg_seconds, travel_time  # noqa: E402
from staq.scheduler import build_constraints_fast, make_travel_tables  # noqa: E402
from staq.search import solve  # noqa: E402

SCALED = dict(n_traits=3, side=30, speeds="uniform", p_precedence=0.2, alpha=0.3)
LIMIT_S = 10.0


def _clock(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class _TooLong(Exception):
    pass


def _on_alarm(signum, frame):
    raise _TooLong


def _solve_times(domain, n: int) -> dict:
    """Best of three alternated solves each way, and the expansions; an
    instance whose first solve takes over LIMIT_S seconds is left out."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        model.TABLE_MAX_ROBOTS = n
        _, stats = solve(dataclasses.replace(domain))
    except _TooLong:
        return {"left_out": f"a solve takes over {LIMIT_S} s"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    times = {"tabulated": [], "per_mask": []}
    for _ in range(3):
        for side, limit in (("tabulated", n), ("per_mask", n - 1)):
            model.TABLE_MAX_ROBOTS = limit
            fresh = dataclasses.replace(domain)
            times[side].append(_clock(lambda: solve(fresh)))
    return {
        "nodes_expanded": stats.nodes_expanded,
        "solve_s_tabulated": min(times["tabulated"]),
        "solve_s_per_mask": min(times["per_mask"]),
    }


def cap() -> list[dict]:
    rows = []
    for n in range(6, 14):
        for seed in range(3):
            spec = Spec(n_tasks=4, n_robots=n, budget_fraction=1.0, **SCALED)
            domain = instance_from_document(generate(seed, spec)).domain
            tables = make_travel_tables(domain, estimated_leg_seconds(domain))
            fresh = dataclasses.replace(domain)
            model.TABLE_MAX_ROBOTS = n
            tabulate = _clock(lambda: (tables.piece_ids, fresh.quality_tables()))
            rows.append({"n_robots": n, "seed": seed, "budget_fraction": 1.0,
                         "tabulate_s": tabulate, **_solve_times(domain, n)})
            print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    for n in range(6, 9):
        for seed in range(5):
            spec = Spec(n_tasks=4, n_robots=n, budget_fraction=0.9, **SCALED)
            domain = instance_from_document(generate(seed, spec)).domain
            rows.append({"n_robots": n, "seed": seed, "budget_fraction": 0.9,
                         **_solve_times(domain, n)})
            print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    return rows


def _domain(n_robots: int, side: int, *, open_map: bool):
    """4 tasks and n_robots robots on a side x side map drawn by the
    benchmark's generator, its obstacles kept or cleared."""
    doc = generate(0, Spec(n_tasks=4, n_robots=n_robots, n_traits=3, side=side,
                           speeds="uniform", budget_fraction=0.9))
    domain = instance_from_document(doc).domain
    if open_map:
        domain = dataclasses.replace(domain, world=WorldMap(side, side))
    return domain


def one_set() -> list[dict]:
    rows = []
    for n in (6, 10, 12):
        domain = _domain(n, 30, open_map=True)
        planner = GridPlanner(domain.world)
        masks = Allocation.root(domain.n_tasks, n).coalition_masks()

        def check():
            tables = make_travel_tables(domain, planned_leg_seconds(planner, domain))
            build_constraints_fast(tables, masks)

        check()   # warms the planner
        rows.append({"n_robots": n, "ms": 1e3 * min(_clock(check) for _ in range(20))})
    return rows


def _astar_leg_seconds(planner: GridPlanner, domain):
    robots, cell_size = domain.robots, domain.world.cell_size

    def leg(robot, a, b):
        path = planner.plan(a, b)
        if path is None:
            return math.inf
        return travel_time(path.length, robots[robot].speed * cell_size)

    return leg


def legs() -> list[dict]:
    rows = []
    for side in (30, 100, 300):
        domain = _domain(6, side, open_map=False)
        row = {"side": side}
        for name, source in (("fields", planned_leg_seconds), ("astar", _astar_leg_seconds)):
            best = math.inf
            for _ in range(3):
                planner = GridPlanner(domain.world)
                best = min(best, _clock(lambda: make_travel_tables(domain, source(planner, domain))))
            row[f"{name}_s"] = best
            row[f"{name}_runs"] = len(planner._fields) + len(planner._cache)
            # memory on one more, untimed pass: the peak, and what the planner keeps
            tracemalloc.start()
            planner = GridPlanner(domain.world)
            make_travel_tables(domain, source(planner, domain))
            kept, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            row[f"{name}_peak_mb"], row[f"{name}_kept_mb"] = peak / 1e6, kept / 1e6
        rows.append(row)
        print(json.dumps(row), file=sys.stderr, flush=True)
    return rows


if __name__ == "__main__":
    parts = {"cap": cap, "one_set": one_set, "legs": legs}
    chosen = sys.argv[1:] or list(parts)
    print(json.dumps({name: parts[name]() for name in chosen}, indent=1))
