"""Property tests: library contracts checked on drawn inputs.

Examples are derandomized so that every run draws the same ones; the
example counts keep the suite fast.
"""

import csv
import json
import math
from dataclasses import astuple, replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from staq.analysis import bound_report, brute_force_optimal, random_instance  # noqa: E402
from staq.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main  # noqa: E402
from staq.instance_io import (  # noqa: E402
    instance_from_document,
    instance_to_document,
    save_instance,
)
from staq.learning import LinearQualityMap  # noqa: E402
from staq.model import (  # noqa: E402
    TOL,
    ProblemDomain,
    Robot,
    Task,
    TaskNetwork,
    WorldMap,
    validate_solution,
)
from staq.motion import GridPlanner, estimated_leg_seconds, planned_leg_seconds  # noqa: E402
from staq.scheduler import (  # noqa: E402
    ConstraintSet,
    build_constraints_fast,
    make_travel_tables,
    solve_milp,
    worst_makespan,
)
from staq.search import solve  # noqa: E402

from helpers import (  # noqa: E402
    build_constraints,
    enumerate_schedules,
    oracle_by_enumeration,
    reference_solve_milp,
)

MAX_TASKS = 6
MAX_PAIRS = 8
MAX_BITS = 12  # allocation bits of a drawn instance; larger graphs are slow at alpha 0
ORACLE_BITS = 9  # the enumeration oracle schedules all 2^bits allocations


def _bits(seed):
    domain = random_instance(seed)
    return domain.n_tasks * domain.n_robots


# a quarter of the seeds are this small: drawing from them filters nothing
ORACLE_SEEDS = tuple(seed for seed in range(200) if _bits(seed) <= ORACLE_BITS)


@st.composite
def constraint_sets(draw):
    """At most 6 tasks and 8 mutex pairs; some travel terms unreachable."""
    m = draw(st.integers(1, MAX_TASKS))
    durations = draw(st.lists(st.floats(0.5, 9.0), min_size=m, max_size=m))
    offsets = draw(st.lists(st.floats(0.0, 6.0), min_size=m, max_size=m))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    kinds = draw(st.lists(st.sampled_from("npm"), min_size=len(pairs), max_size=len(pairs)))
    travel = st.floats(0.0, 4.0)
    leg = st.one_of(travel, travel, travel, st.just(math.inf))
    precedence, mutex = [], []
    for (i, j), kind in zip(pairs, kinds):
        if kind == "p":
            # arcs point from the smaller index to the larger: acyclic
            precedence.append(((i, j), draw(travel)))
        elif kind == "m" and len(mutex) < MAX_PAIRS:
            mutex.append(((i, j), (draw(leg), draw(leg))))
    return ConstraintSet(tuple(durations), tuple(offsets), tuple(precedence), tuple(mutex))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(constraint_sets())
def test_branch_and_bound_agrees_with_enumeration(cs):
    outcome = solve_milp(cs)
    want = enumerate_schedules(cs)
    if want is None:
        assert outcome.schedule is None
    else:
        assert outcome.schedule is not None
        assert abs(outcome.schedule.makespan - want) <= TOL


@st.composite
def unreachable_terms(draw):
    """A drawn constraint set with one release offset or one precedence
    travel term made infinite."""
    cs = draw(constraint_sets())
    if cs.precedence_travel and draw(st.booleans()):
        k = draw(st.integers(0, len(cs.precedence_travel) - 1))
        pair, _ = cs.precedence_travel[k]
        terms = list(cs.precedence_travel)
        terms[k] = (pair, math.inf)
        return cs._replace(precedence_travel=tuple(terms))
    offsets = list(cs.initial_offsets)
    offsets[draw(st.integers(0, len(offsets) - 1))] = math.inf
    return cs._replace(initial_offsets=tuple(offsets))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(constraint_sets(), unreachable_terms()))
def test_branch_and_bound_matches_full_relaxation_with_infinite_terms(cs):
    # the same start times, makespan and nodes_explored as relaxing every
    # node from scratch, on sets whose unreachable legs give infinite starts
    assert solve_milp(cs) == reference_solve_milp(cs)[0]


def _assert_optimal_under_planned_travel(domain, solution):
    """The accepted schedule's makespan is exactly the optimum of its
    allocation's constraint set under planned travel: refinement never
    raises a term above its planned value, and at its fixpoint every mutex
    direction the schedule uses carries its planned value (docs/format.md,
    makespan)."""
    planned = make_travel_tables(domain, planned_leg_seconds(GridPlanner(domain.world), domain))
    cs = build_constraints_fast(planned, solution.allocation.coalition_masks())
    assert solve_milp(cs).schedule.makespan == solution.schedule.makespan


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 199),
    alpha=st.floats(0.0, 1.0),
    budget_fraction=st.floats(0.7, 1.5),
)
def test_every_solution_validates(seed, alpha, budget_fraction):
    """Solutions on drawn instances, blend weights and budgets (a fraction
    of the instance's own) pass validate_solution and are optimal for
    their allocation under planned travel; None means the search found
    nothing within the budget."""
    domain = random_instance(seed)
    assume(domain.n_tasks * domain.n_robots <= MAX_BITS)
    domain = replace(domain, alpha=alpha, time_budget=domain.time_budget * budget_fraction)
    solution, _ = solve(domain)
    if solution is not None:
        report = validate_solution(domain, solution)
        assert report.ok, report.violations
        _assert_optimal_under_planned_travel(domain, solution)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.sampled_from(ORACLE_SEEDS), budget_fraction=st.floats(0.7, 1.5))
def test_oracle_matches_enumeration(seed, budget_fraction):
    """The pruned, memoized oracle returns the optimum that trying every
    allocation with the reference builder and enumeration finds: the same
    quality and, as both break ties toward the smaller key, the same key."""
    domain = random_instance(seed)
    domain = replace(domain, time_budget=domain.time_budget * budget_fraction)
    planner = GridPlanner(domain.world)
    result = brute_force_optimal(domain, planner)
    want = oracle_by_enumeration(domain, planner)
    if want is None:
        assert not result.feasible
    else:
        assert result.feasible
        assert result.allocation.key == want[1]
        assert result.quality == pytest.approx(want[0], abs=1e-9)
        assert result.makespan == pytest.approx(want[2], abs=TOL)


@st.composite
def domains(draw):
    """At most 12 allocation bits on a 5x4 grid with about a quarter of its
    cells walled, so some legs are unreachable. A robot may be fast enough
    that its legs take under 1e-9 s. Traits and weights may be 0,
    tasks may form precedence chains and declare mutex pairs, and the team
    or the task list may have one member. The budget is the empty
    allocation's makespan, 5e-10 either side of it, or the worst case."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, min(4, MAX_BITS // m)))
    u = draw(st.integers(1, 2))
    width, height = 5, 4
    walled = draw(st.lists(st.sampled_from((True, False, False, False)),
                           min_size=width * height, max_size=width * height))
    cells = [(c, r) for r in range(height) for c in range(width)]
    free = [cell for cell, wall in zip(cells, walled) if not wall]
    assume(free)
    world = WorldMap(width, height, frozenset(cells) - set(free))
    cell = st.sampled_from(free)
    amount = st.sampled_from((0.0, 0.0, 0.5, 1.0, 2.0))
    robots = tuple(
        Robot(traits=draw(st.lists(amount, min_size=u, max_size=u)), start_cell=draw(cell),
              speed=draw(st.sampled_from((0.5, 1.0, 2.0, 1e10))))
        for _ in range(n)
    )
    tasks = tuple(
        Task(duration=draw(st.floats(0.5, 6.0)), start_site=draw(cell), end_site=draw(cell))
        for _ in range(m)
    )
    chain = {(i, i + 1) for i in range(m - 1) if draw(st.booleans())}
    mutex = {(i, j) for i in range(m) for j in range(i + 1, m)
             if (i, j) not in chain and draw(st.booleans())}
    maps = tuple(
        LinearQualityMap(draw(st.lists(amount, min_size=u, max_size=u)),
                         draw(st.sampled_from((1.0, 2.0, 4.0))))
        for _ in range(m)
    )
    domain = ProblemDomain(
        network=TaskNetwork(tasks, frozenset(chain), frozenset(mutex)),
        robots=robots, quality_maps=maps, world=world, time_budget=1.0,
        alpha=draw(st.sampled_from((0.0, 0.4, 0.9, 1.0))),
    )
    tables = make_travel_tables(domain, estimated_leg_seconds(domain))
    empty = solve_milp(build_constraints_fast(tables, [0] * m)).schedule.makespan
    budget = draw(st.sampled_from((empty - 5e-10, empty, empty + 5e-10, worst_makespan(domain))))
    return replace(domain, time_budget=budget)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(domains())
def test_search_and_oracle_agree_on_drawn_domains(domain):
    """The search finds no solution exactly when the oracle finds no
    allocation within the budget, both judging it by makespan <= budget.
    The instance written as a JSON document and read back solves to the
    same solution and stats. Each solution validates, is optimal for its
    allocation under planned travel, gives one direction for each mutex
    pair of its allocation's set and nothing else, scores no better than
    the optimum, and gets a bound report with no NaN field, whose bounds
    hold wherever the guarantee applies and alpha is below 0.5."""
    oracle = brute_force_optimal(domain, GridPlanner(domain.world))
    solution, stats = solve(domain)
    assert (solution is None) == (not oracle.feasible)
    assert solve(instance_from_document(instance_to_document(domain)).domain) == (solution, stats)
    if solution is not None:
        report = validate_solution(domain, solution)
        assert report.ok, report.violations
        _assert_optimal_under_planned_travel(domain, solution)
        cs = build_constraints(domain, solution.allocation, estimated_leg_seconds(domain))
        assert sorted(solution.orderings) == [pair for pair, _ in cs.mutex_pairs]
        assert set(solution.orderings.values()) <= {1, -1}
        assert solution.total_quality <= oracle.quality + 1e-9
        bounds = bound_report(domain, solution, stats, oracle=oracle)
        assert not any(isinstance(x, float) and math.isnan(x) for x in astuple(bounds))
        if bounds.guarantee_applies and domain.alpha < 0.5:
            assert bounds.holds_apriori and bounds.holds_posthoc


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(domain=domains())
def test_cli_exit_codes_and_files_on_drawn_domains(domain, tmp_path_factory):
    """staq solve, oracle and sweep exit 0, 1 or 2 on a drawn instance
    file, and solve and oracle agree on infeasibility. Each JSON file
    written parses with NaN and the infinities refused, and a sweep CSV
    has no nan cell."""
    work = tmp_path_factory.mktemp("cli")
    instance = work / "instance.json"
    save_instance(domain, instance)
    codes = {}
    for command, name in (("solve", "solution.json"), ("oracle", "oracle.json"),
                          ("sweep", "sweep.csv")):
        out = work / name
        codes[command] = main([command, str(instance), "-o", str(out)])
        assert codes[command] in (EXIT_OK, EXIT_ERROR, EXIT_INFEASIBLE)
        if not out.exists():
            continue
        if name.endswith(".json"):
            json.loads(out.read_text(encoding="utf-8"), parse_constant=_refuse_constant)
        else:
            with open(out, newline="", encoding="utf-8") as fh:
                assert "nan" not in {cell for row in csv.reader(fh) for cell in row}
    assert (codes["solve"] == EXIT_INFEASIBLE) == (codes["oracle"] == EXIT_INFEASIBLE)
