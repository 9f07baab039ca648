"""Search guidance: normalized quality loss, budget overrun, and their blend.

Both components are normalized against the root allocation (every robot on
every task) so they share a scale and can be mixed with a single weight.
node_scorer applies the three formulas to a node in one step; the search
scores every node with it.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .model import TOL, ContractViolation, InvalidInput


NodeScorer = Callable[[float, Optional[float]], tuple[float, float, float]]
"""Maps a node's quality and makespan to (loss, overrun, blend)."""


def node_scorer(
    quality_root: float,
    quality_null: float,
    makespan_worst: float,
    time_budget: float,
    alpha: float,
) -> NodeScorer:
    """Normalized quality loss, budget overrun and their blend, in one step.

    quality_root and quality_null are the qualities of the root allocation
    (every robot on every task) and the empty one, makespan_worst the
    root's minimal makespan under straight-line travel; a root quality
    below the null quality beyond TOL is a ContractViolation.

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
    root, null, budget = quality_root, quality_null, time_budget
    if root < null - TOL:
        raise ContractViolation(f"root quality {root} below null quality {null}")
    if not (0.0 <= alpha <= 1.0):
        raise InvalidInput(f"alpha must be in [0,1], got {alpha}")
    beta = 1.0 - alpha
    span = root - null
    no_span = abs(span) <= TOL
    margin = abs(makespan_worst - budget)
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
