"""Checks of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

The generator must reproduce the library's random instances and its
worst-case makespan, so that the benchmark's inputs are what they claim to
be; the tracer must be repeatable and must fail loudly.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from staq import analysis, instance_io, motion, scheduler, search  # noqa: E402

from generator import Spec, budget_references, generate, transform  # noqa: E402
from tracer import TARGETS, Tracer, TracerError, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    LOOSE,
    TIGHT,
    CertifyWorkload,
    CombinedWorkload,
    LearnedWorkload,
    SolveWorkload,
    Tally,
)


def _domain(doc):
    return instance_io.instance_from_document(doc).domain


@pytest.mark.parametrize("seed", range(60))
def test_generator_reproduces_random_instance(seed):
    got = _domain(generate(seed))
    want = analysis.random_instance(seed)
    assert got.world == want.world
    assert got.network == want.network
    assert np.array_equal(got.traits, want.traits)
    assert [(r.start_cell, r.speed) for r in got.robots] == [
        (r.start_cell, r.speed) for r in want.robots
    ]
    for mine, theirs in zip(got.quality_maps, want.quality_maps):
        assert np.array_equal(mine.weights, theirs.weights)
        assert mine.normalizer == theirs.normalizer
    assert got.alpha == want.alpha
    assert got.time_budget == pytest.approx(want.time_budget, abs=1e-6)


def _all_specs():
    yield Spec(), range(40)
    for workload in (TIGHT, LOOSE, LearnedWorkload):
        yield workload.spec, workload.seeds


@pytest.mark.parametrize("spec, seeds", list(_all_specs()))
def test_budget_reference_is_the_worst_case_makespan(spec, seeds):
    for seed in seeds:
        doc = generate(seed, spec)
        _, ceiling = budget_references(doc)
        assert ceiling == scheduler.worst_makespan(_domain(doc))


def test_symmetries_leave_the_search_unchanged():
    doc = generate(1, LOOSE.spec)
    reference = None
    for symmetry in range(8):
        domain = _domain(transform(doc, symmetry))
        solution, stats = search.solve(domain, planner=motion.GridPlanner(domain.world))
        outcome = (
            stats.nodes_expanded,
            stats.nodes_generated,
            stats.refinement_rounds,
            solution.allocation.key,
            solution.total_quality,
            solution.schedule.makespan,
        )
        reference = reference or outcome
        assert outcome == reference


def _small_workloads():
    certify = CertifyWorkload()
    certify.seeds = (0, 1, 2)  # one oracle past its cap, two certified
    learned = LearnedWorkload()
    learned.seeds = (1,)
    return [
        SolveWorkload("tight", TIGHT.spec, (9,)),
        SolveWorkload("loose", LOOSE.spec, (0, 1), extra_spans=("scheduler.refine",)),
        CombinedWorkload("certify_learn", (certify, learned)),
    ]


def _traced_counts(workload, workdir: Path):
    workdir.mkdir()
    ops = workload.ops(workload.setup(workdir, 5))
    tracer, tally = Tracer(), Tally()
    with tracer.install():
        for label, op in ops:
            tally.run(label, op, tracer)
    tracer.require(workload.expected_spans)
    assert tally.failures == []
    metrics = layer_metrics(tracer, tally.search)
    # times vary between runs; everything else is a count or a ratio of counts
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("index", range(3))
def test_two_traced_runs_give_identical_counts(index, tmp_path):
    workload = _small_workloads()[index]
    first = _traced_counts(workload, tmp_path / "first")
    second = _traced_counts(workload, tmp_path / "second")
    assert first == second
    assert any(v for v in first.values())


def test_tracing_restores_every_target():
    def current():
        out = []
        for module, cls, attr, _, _ in TARGETS:
            owner = sys.modules[module]
            if cls:
                owner = getattr(owner, cls)
            out.append(owner.__dict__[attr])
        return out

    before = current()
    with Tracer().install():
        assert current() != before
    assert current() == before


def test_missing_target_fails_loudly(monkeypatch):
    monkeypatch.delattr(search, "refine_with_motion_plans")
    with pytest.raises(TracerError, match="refine_with_motion_plans"):
        with Tracer().install():
            pass
    assert search.solve_milp is scheduler.solve_milp


def test_target_never_called_fails_loudly():
    tracer = Tracer()
    with tracer.install():
        pass  # every target installed, none called
    with pytest.raises(TracerError, match="model.successors"):
        tracer.require(["model.successors"])


def test_self_time_excludes_children():
    tracer = Tracer()

    def child():
        return sum(range(10_000))

    wrapped_child = tracer.wrap(child, "child")

    def parent():
        return wrapped_child() + wrapped_child()

    tracer.wrap(parent, "parent")()
    summary = tracer.summary()
    assert summary["child"]["calls"] == 2
    assert summary["child"]["under"] == {"parent": 2}
    assert summary["parent"]["self_s"] == pytest.approx(
        summary["parent"]["s"] - summary["child"]["s"]
    )


def test_summary_of_a_range_keeps_its_own_spans():
    tracer = Tracer()
    child = tracer.wrap(lambda: sum(range(10_000)), "child")
    parent = tracer.wrap(lambda: child() + child(), "parent")
    parent()
    middle = len(tracer)
    parent()
    whole, second = tracer.summary(), tracer.summary(middle)
    assert second["parent"]["calls"] == 1 and second["child"]["calls"] == 2
    assert second["child"]["under"] == {"parent": 2}
    assert second["child"]["under_s"]["parent"] == pytest.approx(second["child"]["s"])
    assert tracer.summary(0, middle)["parent"]["s"] + second["parent"]["s"] == pytest.approx(
        whole["parent"]["s"]
    )
    assert second["parent"]["self_s"] == pytest.approx(
        second["parent"]["s"] - second["child"]["s"]
    )


def test_end_to_end_scales_times_by_host_speed():
    import run

    host = run.HostSpeed(samples=[2 * run.REFERENCE_CALIBRATION_S])
    tally = Tally()
    tally.time("solve", "a", 4.0)
    tally.op_busy["a"].append(4.0)
    tally.qualities["a"] = 0.75
    result = run.Run("solve", host, [0.2], tally)
    assert host.factor == pytest.approx(0.5)
    scaled, measured = run.end_to_end(result, host.factor), run.end_to_end(result)
    assert measured["batch_s"] == 4.0 and measured["setup_s"] == 0.2
    for name in ("setup_s", "solve_s", "batch_s"):
        assert scaled[name] == pytest.approx(measured[name] / 2)
    assert scaled["quality_mean"] == measured["quality_mean"] == 0.75
    assert scaled["peak_rss_mb"] == pytest.approx(measured["peak_rss_mb"], rel=0.01)
