"""Solve a hand-built three-task instance and walk through the result.

Run:  python demos/solve_small_team.py
"""

import dataclasses

import numpy as np

from staq.analysis import bound_report
from staq.instance_io import save_instance, solution_document, write_json_result
from staq.learning import LinearQualityMap
from staq.model import ProblemDomain, Robot, Task, TaskNetwork, WorldMap, validate_solution
from staq.search import solve


def build_domain(time_budget=26.0):
    # 8x8 warehouse floor with a shelf wall through the middle
    world = WorldMap.from_ascii([
        "........",
        "..####..",
        "..#..#..",
        "..#..#..",
        "........",
        "........",
        "........",
        "........",
    ])
    robots = (
        Robot(traits=np.array([2.0, 0.0]), start_cell=(0, 0), speed=1.0),
        Robot(traits=np.array([1.0, 1.0]), start_cell=(7, 0), speed=1.5),
        Robot(traits=np.array([0.0, 2.0]), start_cell=(0, 7), speed=0.8),
    )
    tasks = (
        Task(duration=6.0, start_site=(6, 3), end_site=(6, 4)),
        Task(duration=5.0, start_site=(1, 6), end_site=(2, 6)),
        Task(duration=4.0, start_site=(4, 7), end_site=(4, 7)),
    )
    network = TaskNetwork(
        tasks=tasks,
        precedence=frozenset({(0, 2)}),   # unload before restock
        mutex=frozenset({(1, 2)}),        # one forklift lane
    )
    maps = (
        LinearQualityMap(np.array([1.0, 0.5]), 4.0),
        LinearQualityMap(np.array([0.5, 1.0]), 4.0),
        LinearQualityMap(np.array([1.0, 1.0]), 6.0),
    )
    return ProblemDomain(network=network, robots=robots, quality_maps=maps,
                         world=world, time_budget=time_budget, alpha=0.4)


def describe(domain, solution, stats):
    print(f"allocation (tasks x robots):\n{solution.allocation.entries}")
    print(f"total quality  {solution.total_quality:.4f}  "
          f"(root would score {stats.quality_root:.4f})")
    print(f"makespan       {solution.schedule.makespan:.2f}s "
          f"of a {domain.time_budget:.0f}s budget")
    for task, start in enumerate(solution.schedule.start_times):
        print(f"  task {task}: starts {start:6.2f}s, "
              f"runs {domain.network.tasks[task].duration:.0f}s")
    for (i, j), direction in sorted(solution.orderings.items()):
        first, second = (i, j) if direction == 1 else (j, i)
        print(f"  mutex {i}-{j}: task {first} goes first")
    print(f"search         {stats.nodes_expanded} expanded / "
          f"{stats.nodes_generated} generated, "
          f"{stats.scheduler_calls} schedules, {stats.planner_calls} paths")


def main():
    domain = build_domain()
    solution, stats = solve(domain)
    if solution is None:
        print("no allocation fits the budget")
        return
    describe(domain, solution, stats)

    report = validate_solution(domain, solution)
    print(f"validation     {'ok' if report.ok else report.violations}")

    save_instance(domain, "warehouse_instance.json")
    write_json_result(
        solution_document(domain, solution, stats, bound_report(domain, solution, stats)),
        "warehouse_solution.json",
    )
    print("wrote warehouse_instance.json and warehouse_solution.json")

    # tighten the budget until sharing stops being affordable; a light
    # overrun weight keeps the search focused on quality
    print("\nbudget sweep (alpha 0.1):")
    for budget in (40.0, 30.0, 26.0, 22.0, 18.0):
        sol, _ = solve(dataclasses.replace(build_domain(budget), alpha=0.1))
        if sol is None:
            print(f"  {budget:5.0f}s  infeasible")
        else:
            print(f"  {budget:5.0f}s  quality {sol.total_quality:.4f}  "
                  f"makespan {sol.schedule.makespan:5.2f}s")


if __name__ == "__main__":
    main()
