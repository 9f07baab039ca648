import math

import pytest

from staq.heuristics import node_scorer
from staq.model import ContractViolation, InvalidInput

from helpers import blend, budget_overrun, normalized_quality_loss


def _ctx(root=2.0, null=0.0, worst=200.0, budget=100.0, alpha=0.4):
    """node_scorer's arguments: root and null quality, worst-case makespan,
    budget and alpha."""
    return root, null, worst, budget, alpha


# ------------------------------------------------------- quality loss
# normalized_quality_loss(quality, root, null)

def test_loss_is_zero_at_root_and_one_at_null():
    assert normalized_quality_loss(2.0, 2.0, 0.0) == 0.0
    assert normalized_quality_loss(0.0, 2.0, 0.0) == 1.0


def test_loss_interpolates_linearly():
    assert normalized_quality_loss(1.5, 2.0, 0.0) == pytest.approx(0.25)
    assert normalized_quality_loss(0.5, 2.0, 0.0) == pytest.approx(0.75)


def test_loss_clamps_within_tolerance():
    assert normalized_quality_loss(2.0 + 5e-10, 2.0, 0.0) == 0.0
    assert normalized_quality_loss(-5e-10, 2.0, 0.0) == 1.0


def test_loss_degenerate_range_is_zero():
    assert normalized_quality_loss(1.0, 1.0, 1.0) == 0.0
    assert normalized_quality_loss(7.0, 1.0, 1.0) == 0.0
    assert normalized_quality_loss(0.7, 0.5, 1.0) == 0.0   # root below null


# ----------------------------------------------------- budget overrun
# budget_overrun(makespan, worst-case makespan, budget)

def test_overrun_zero_at_or_below_budget():
    assert budget_overrun(100.0, 200.0, 100.0) == 0.0
    assert budget_overrun(40.0, 200.0, 100.0) == 0.0
    assert budget_overrun(0.0, 200.0, 100.0) == 0.0


def test_overrun_scales_by_worst_case_margin():
    assert budget_overrun(120.0, 200.0, 100.0) == pytest.approx(0.2)
    assert budget_overrun(200.0, 200.0, 100.0) == pytest.approx(1.0)
    assert budget_overrun(300.0, 200.0, 100.0) == pytest.approx(2.0)


def test_overrun_degenerate_margin():
    assert budget_overrun(90.0, 100.0, 100.0) == 0.0
    assert budget_overrun(110.0, 100.0, 100.0) == math.inf


def test_overrun_negative_makespan_is_a_contract_violation():
    with pytest.raises(ContractViolation):
        budget_overrun(-1.0, 200.0, 100.0)


# -------------------------------------------------------------- blend

def test_blend_endpoints_select_one_component():
    assert blend(0.7, 0.3, 0.0) == 0.7
    assert blend(0.7, 0.3, 1.0) == 0.3


def test_blend_hand_example():
    assert blend(0.4, 0.2, 0.5) == pytest.approx(0.3)
    composed = blend(normalized_quality_loss(1.5, 2.0, 0.0), budget_overrun(120.0, 200.0, 100.0),
                     0.5)
    assert composed == pytest.approx(0.5 * 0.25 + 0.5 * 0.2)


def test_blend_ignores_infinite_overrun_at_alpha_zero():
    assert blend(0.4, math.inf, 0.0) == 0.4
    assert blend(0.4, math.inf, 0.5) == math.inf
    assert blend(0.4, math.inf, 1.0) == math.inf


def test_blend_rejects_alpha_outside_unit_interval():
    with pytest.raises(InvalidInput):
        blend(0.1, 0.1, -0.01)
    with pytest.raises(InvalidInput):
        blend(0.1, 0.1, 1.01)


# ------------------------------------------------------ one-step score

SCORED_CONTEXTS = (
    _ctx(),
    _ctx(alpha=0.0),
    _ctx(alpha=1.0),
    _ctx(root=1.0, null=1.0),                # degenerate span
    _ctx(root=0.5, null=1.0),                # root below null: no span
    _ctx(worst=100.0, budget=100.0),         # degenerate margin
    _ctx(worst=100.0, budget=100.0, alpha=0.0),
    _ctx(root=2.7, null=0.3, worst=61.3, budget=47.9, alpha=0.3),
)


@pytest.mark.parametrize("ctx", SCORED_CONTEXTS)
def test_one_step_score_equals_the_three_functions(ctx):
    score = node_scorer(*ctx)
    root, null, worst, budget, alpha = ctx
    # the last two lie outside the root-to-null range, as a map that is
    # not monotone gives
    qualities = (null, root, root + 5e-10, null - 5e-10, (root + null) / 3,
                 max(root, null) + 1.0, min(root, null) - 1.0)
    makespans = (0.0, 12.5, budget, budget + 1e-7, 1.7 * budget, math.inf)
    for quality in qualities:
        loss = normalized_quality_loss(quality, root, null)
        for makespan in makespans:
            overrun = budget_overrun(makespan, worst, budget)
            want = (loss, overrun, blend(loss, overrun, alpha))
            assert score(quality, makespan) == want
        # no schedule: overrun and blend are inf, also at alpha = 0
        assert score(quality, None) == (loss, math.inf, math.inf)


@pytest.mark.parametrize("alpha", [-0.1, 1.5, math.nan])
def test_one_step_score_rejects_a_bad_alpha(alpha):
    with pytest.raises(InvalidInput):
        node_scorer(*_ctx(alpha=alpha))


def test_one_step_score_raises_what_the_three_functions_raise():
    score = node_scorer(*_ctx(root=2.0, null=0.0))
    with pytest.raises(ContractViolation):
        score(1.0, -1.0)
