"""Property tests: library contracts checked on drawn inputs.

Examples are derandomized so that every run draws the same ones; the
example counts keep the suite fast.
"""

import math
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from staq.analysis import brute_force_optimal, random_instance  # noqa: E402
from staq.model import validate_solution  # noqa: E402
from staq.motion import GridPlanner  # noqa: E402
from staq.scheduler import TOL, ConstraintSet, solve_milp  # noqa: E402
from staq.search import solve  # noqa: E402

from helpers import enumerate_schedules, oracle_by_enumeration  # noqa: E402

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
        assert outcome.status == "infeasible"
    else:
        assert outcome.status == "optimal"
        assert abs(outcome.schedule.makespan - want) <= TOL


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 199),
    alpha=st.floats(0.0, 1.0),
    budget_fraction=st.floats(0.7, 1.5),
)
def test_every_solution_validates(seed, alpha, budget_fraction):
    """Solutions on drawn instances, blend weights and budgets (a fraction
    of the instance's own) pass validate_solution; None means the search
    found nothing within the budget."""
    domain = random_instance(seed)
    assume(domain.n_tasks * domain.n_robots <= MAX_BITS)
    domain = replace(domain, alpha=alpha, time_budget=domain.time_budget * budget_fraction)
    solution, _ = solve(domain)
    if solution is not None:
        report = validate_solution(domain, solution)
        assert report.ok, report.violations


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
