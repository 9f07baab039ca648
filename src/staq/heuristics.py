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
    TOL,
    Allocation,
    ContractViolation,
    InvalidInput,
    ProblemDomain,
    total_allocation_quality,
)


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


NodeScorer = Callable[[float, Optional[float]], tuple[float, float, float]]
"""Maps a node's quality and makespan to (loss, overrun, blend)."""


def node_scorer(ctx: HeuristicContext) -> NodeScorer:
    """Normalized quality loss, budget overrun and their blend, in one step.

    loss is the fraction of the root-to-null quality range given up: 0 at
    root quality, 1 at null quality, and 0 when the range is degenerate
    (nothing is at stake); a quality outside the range beyond TOL is a
    ContractViolation. overrun is the makespan's excess over the budget
    scaled by the worst-case margin: 0 within budget, and inf over it when
    the margin is degenerate, so overruns still dominate any quality term.
    blend is (1 - alpha) * loss + alpha * overrun; at alpha = 0 an infinite
    overrun is ignored rather than producing nan. A makespan of None means
    the node has no schedule: its overrun and blend are inf, whatever alpha
    is. The span, the margin and the alpha check are settled once here.
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
