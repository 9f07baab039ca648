"""Search guidance: normalized quality loss, budget overrun, and their blend.

Both components are normalized against the root allocation (every robot on
every task) so they share a scale and can be mixed with a single weight.
node_scorer applies the three formulas to a node in one step; the search
scores every node with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .model import (
    Allocation,
    ContractViolation,
    InvalidInput,
    ProblemDomain,
    total_allocation_quality,
)

TOL = 1e-9


@dataclass(frozen=True)
class HeuristicContext:
    """Root/null reference values the per-node heuristics normalize against."""

    quality_root: float
    quality_null: float
    makespan_worst: float
    time_budget: float
    alpha: float

    def __post_init__(self) -> None:
        if self.quality_root < self.quality_null - TOL:
            raise ContractViolation(
                f"root quality {self.quality_root} below null quality {self.quality_null}"
            )


def make_context(domain: ProblemDomain, makespan_worst: float) -> HeuristicContext:
    m, n = domain.n_tasks, domain.n_robots
    return HeuristicContext(
        quality_root=total_allocation_quality(Allocation.root(m, n).coalition_masks(), domain),
        quality_null=total_allocation_quality(Allocation.null(m, n).coalition_masks(), domain),
        makespan_worst=makespan_worst,
        time_budget=domain.time_budget,
        alpha=domain.alpha,
    )


def normalized_quality_loss(quality: float, ctx: HeuristicContext) -> float:
    """Fraction of the root-to-null quality range given up by this allocation.

    0 at root quality, 1 at null quality. Degenerate range (root == null)
    yields 0: no quality is at stake, so nothing is lost.
    """
    span = ctx.quality_root - ctx.quality_null
    if abs(span) <= TOL:
        return 0.0
    loss = (ctx.quality_root - quality) / span
    if loss < -TOL or loss > 1.0 + TOL:
        raise ContractViolation(
            f"quality {quality} outside [{ctx.quality_null}, {ctx.quality_root}]"
        )
    return min(1.0, max(0.0, loss))


def budget_overrun(makespan: float, ctx: HeuristicContext) -> float:
    """Excess of the makespan over the budget, scaled by the worst-case margin.

    0 when the schedule fits the budget. Degenerate margin (worst-case equals
    the budget) yields 0 when within budget and +inf otherwise, so overruns
    still dominate any quality term.
    """
    if makespan < 0:
        raise ContractViolation(f"negative makespan {makespan}")
    margin = abs(ctx.makespan_worst - ctx.time_budget)
    excess = makespan - ctx.time_budget
    if excess <= 0.0:
        return 0.0
    if margin <= TOL:
        return float("inf")
    return excess / margin


def blend(loss: float, overrun: float, alpha: float) -> float:
    """Convex blend: (1 - alpha) * quality loss + alpha * budget overrun.

    At alpha = 0 an infinite overrun is ignored rather than producing nan;
    the budget side simply has no weight.
    """
    if not (0.0 <= alpha <= 1.0):
        raise InvalidInput(f"alpha must be in [0,1], got {alpha}")
    if overrun == float("inf"):
        return float("inf") if alpha > 0.0 else loss
    return (1.0 - alpha) * loss + alpha * overrun


NodeScorer = Callable[[float, Optional[float]], tuple[float, float, float]]
"""Maps a node's quality and makespan to (loss, overrun, blend)."""


def node_scorer(ctx: HeuristicContext) -> NodeScorer:
    """normalized_quality_loss, budget_overrun and blend of a node in one step.

    The span, the margin and the alpha check are settled once here; the
    returned function applies the same formulas and raises the same errors
    as the three functions. A makespan of None means the node has no
    schedule: its overrun and blend are inf, whatever alpha is.
    """
    alpha = ctx.alpha
    if not (0.0 <= alpha <= 1.0):
        raise InvalidInput(f"alpha must be in [0,1], got {alpha}")
    beta = 1.0 - alpha
    root, null, budget = ctx.quality_root, ctx.quality_null, ctx.time_budget
    span = root - null
    no_span = abs(span) <= TOL
    margin = abs(ctx.makespan_worst - budget)
    no_margin = margin <= TOL
    inf = math.inf

    def score(quality: float, makespan: Optional[float]) -> tuple[float, float, float]:
        if no_span:
            loss = 0.0
        else:
            loss = (root - quality) / span
            if loss < -TOL or loss > 1.0 + TOL:
                raise ContractViolation(f"quality {quality} outside [{null}, {root}]")
            loss = min(1.0, max(0.0, loss))
        if makespan is None:
            return loss, inf, inf
        if makespan < 0:
            raise ContractViolation(f"negative makespan {makespan}")
        excess = makespan - budget
        if excess <= 0.0:
            overrun = 0.0
        elif no_margin:
            overrun = inf
        else:
            overrun = excess / margin
        if overrun == inf:
            return loss, overrun, inf if alpha > 0.0 else loss
        return loss, overrun, beta * loss + alpha * overrun

    return score
