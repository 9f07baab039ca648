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

from staq.analysis import random_instance  # noqa: E402
from staq.model import validate_solution  # noqa: E402
from staq.scheduler import TOL, ConstraintSet, solve_milp  # noqa: E402
from staq.search import solve  # noqa: E402

from helpers import enumerate_schedules  # noqa: E402

MAX_TASKS = 6
MAX_PAIRS = 8
MAX_BITS = 12  # allocation bits of a drawn instance; larger graphs are slow at alpha 0


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
