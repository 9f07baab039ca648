"""The benchmark's workloads: their inputs, their operations, and the checks.

Each workload writes instance documents in `setup`; the library only ever
sees those documents. `ops` lists the workload's operations in the order of
one pass. An operation times its calls into the library in a `Tally`, keyed
by instance, and checks every result outside the timed regions. An
exception or a failed check counts one failed operation and the run goes
on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from staq import analysis, instance_io, learning, model, motion, search

from generator import Spec, budget_references, generate, transform

TOL = 1e-9
SCALED = dict(n_traits=3, side=30, speeds="uniform", p_precedence=0.2, alpha=0.3)
ALPHAS = (0.0, 0.1, 0.2, 0.3, 0.4, 1.0)
ORACLE_CAP = 3000
MAP_LABELS = 12
ROSTER_BUDGET = 50
ROSTER_UNIFORM_SEEDS = 20
ROSTER_EVAL_FRACTION = 0.3

Op = Callable[["Tally", object], list]  # (tally, tracer or None) -> problems


@dataclass(frozen=True)
class Instance:
    path: Path
    floor: float  # makespan of the empty allocation; the budget admits it when <= budget
    budget: float


@dataclass
class Inputs:
    instances: list[Instance]
    roster: Optional[tuple[np.ndarray, np.ndarray]] = None


@dataclass
class Tally:
    """What operations measured: timed samples by kind and key, the time
    each operation spent in the library (`op_busy`; checks excluded), the
    result of each key (quality, certified gap, learning error), summed
    search counters, and failures."""

    samples: defaultdict = field(default_factory=lambda: defaultdict(lambda: defaultdict(list)))
    op_busy: defaultdict = field(default_factory=lambda: defaultdict(list))
    busy: float = 0.0
    qualities: dict = field(default_factory=dict)
    gaps: dict = field(default_factory=dict)
    rmse: dict = field(default_factory=dict)
    search: Counter = field(default_factory=Counter)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def time(self, kind: str, key, seconds: float, *, busy: bool = True) -> None:
        self.samples[kind][key].append(seconds)
        if busy:
            self.busy += seconds

    def run(self, label: str, op: Op, tracer=None) -> None:
        """One operation: its problems, or the exception it raised, count as
        one failure; the run continues either way."""
        self.attempted += 1
        before = self.busy
        try:
            problems = op(self, tracer)
        except Exception:  # a failing operation is data, not a crash
            problems = [traceback.format_exc()]
        self.op_busy[label].append(self.busy - before)
        if problems:
            self.failures.append((label, problems))

    def add_stats(self, stats: search.SearchStats, *, shared_cache: bool = False) -> None:
        self.search["expansions"] += stats.nodes_expanded
        self.search["generated"] += stats.nodes_generated
        self.search["reinserted"] += stats.reinserted
        self.search["refinement_rounds"] += stats.refinement_rounds
        if shared_cache:
            self.search["cached_scheduler_calls"] += stats.scheduler_calls
            self.search["cached_generated"] += stats.nodes_generated


def _quiet(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _write_instances(workdir: Path, prefix: str, docs) -> list[Instance]:
    out = []
    for seed, doc in docs:
        path = workdir / f"{prefix}_{seed}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        floor, _ = budget_references(doc)
        out.append(Instance(path, floor, doc["time_budget"]))
    return out


def _variants(spec: Spec, instance_seeds, run_seed: int):
    symmetries = np.random.default_rng(run_seed).integers(0, 8, size=len(instance_seeds))
    return [
        (s, transform(generate(s, spec), int(k))) for s, k in zip(instance_seeds, symmetries)
    ]


def _check_solution(domain, solution, planner, instance: Instance, tally: Tally, key) -> list[str]:
    if solution is None:
        if instance.floor <= instance.budget + TOL:
            return ["no solution, although the empty allocation fits the budget"]
        return []
    problems = list(model.validate_solution(domain, solution, planner).violations)
    if solution.schedule.makespan > domain.time_budget + TOL:
        problems.append("makespan exceeds the budget")
    tally.qualities[key] = solution.total_quality
    return problems


def _solve_op(instance: Instance, tally: Tally, tracer) -> list[str]:
    """The `staq solve` path without interpreter start-up: read the
    document, build the domain, solve, render the solution document."""
    start = perf_counter()
    doc = json.loads(instance.path.read_text(encoding="utf-8"))
    loaded = instance_io.instance_from_document(doc, base_dir=instance.path.parent)
    planner = motion.GridPlanner(loaded.domain.world)
    solution, stats = search.solve(loaded.domain, planner=planner)
    if solution is not None:
        instance_io.solution_document(loaded.domain, solution, stats)
    tally.time("solve", instance.path.name, perf_counter() - start)
    tally.add_stats(stats)
    with _quiet(tracer):
        return _check_solution(loaded.domain, solution, planner, instance, tally, instance.path.name)


class SolveWorkload:
    """Scaled instances solved one by one, each with a fresh planner."""

    expected_spans = (
        "search.solve", "model.successors", "model.quality", "scheduler.build",
        "scheduler.milp", "instance_io.load", "instance_io.document",
    )

    def __init__(self, name: str, spec: Spec, seeds, extra_spans=()):
        self.name, self.spec, self.seeds = name, spec, tuple(seeds)
        self.expected_spans = type(self).expected_spans + tuple(extra_spans)

    def setup(self, workdir: Path, run_seed: int) -> Inputs:
        docs = _variants(self.spec, self.seeds, run_seed)
        return Inputs(_write_instances(workdir, self.name, docs))

    def ops(self, inputs: Inputs) -> list[tuple[str, Op]]:
        return [(i.path.name, functools.partial(_solve_op, i)) for i in inputs.instances]


class CertifyWorkload:
    """The acceptance suite's bound certification on a prefix of its seeds:
    the exhaustive oracle (skipped past its scheduling cap, as the suite
    does), a solve per alpha on one shared planner and schedule cache, and
    the bound report checked against the oracle."""

    name = "certify"
    seeds = tuple(range(17))
    expected_spans = (
        "analysis.oracle", "analysis.bounds", "search.solve", "scheduler.build",
        "scheduler.milp", "motion.plan", "motion.astar", "instance_io.load",
    )

    def setup(self, workdir: Path, run_seed: int) -> Inputs:
        docs = _variants(Spec(), self.seeds, run_seed)
        return Inputs(_write_instances(workdir, self.name, docs))

    def ops(self, inputs: Inputs) -> list[tuple[str, Op]]:
        return [(i.path.name, functools.partial(self._certify, i)) for i in inputs.instances]

    @staticmethod
    def _certify(instance: Instance, tally: Tally, tracer) -> list[str]:
        key = instance.path.name
        start = perf_counter()
        doc = json.loads(instance.path.read_text(encoding="utf-8"))
        domain = instance_io.instance_from_document(doc).domain
        planner = motion.GridPlanner(domain.world)
        oracle_start = perf_counter()
        try:
            oracle = analysis.brute_force_optimal(domain, planner, schedule_cap=ORACLE_CAP)
        except analysis.OracleBudgetExceeded:
            oracle = None  # past the scheduling cap: skipped, as the suite skips it
        tally.time("oracle", key, perf_counter() - oracle_start, busy=False)
        runs = []
        if oracle is not None and oracle.feasible:
            cache: search.ScheduleCache = {}
            for alpha in ALPHAS:
                tuned = dataclasses.replace(domain, alpha=alpha)
                solution, stats = search.solve(tuned, planner=planner, schedule_cache=cache)
                report = analysis.bound_report(tuned, solution, stats, oracle=oracle)
                runs.append((tuned, solution, stats, report))
            tally.time("certify", key, perf_counter() - oracle_start, busy=False)
        tally.busy += perf_counter() - start

        if oracle is None:
            return []
        if not oracle.feasible:
            return ["oracle found no feasible allocation"]
        problems = []
        with _quiet(tracer):
            for tuned, solution, stats, report in runs:
                tally.add_stats(stats, shared_cache=True)
                problems += _check_solution(
                    tuned, solution, planner, instance, tally, (key, tuned.alpha)
                )
                if tuned.alpha >= 0.5:
                    continue
                if not (report.holds_apriori and report.holds_posthoc):
                    problems.append(f"alpha {tuned.alpha}: a bound does not hold: {report}")
                span = stats.quality_root - stats.quality_null
                tally.gaps[(key, tuned.alpha)] = report.gap / span if span > TOL else 0.0
        return problems


class LearnedWorkload:
    """Scaled instances whose quality maps are Gaussian processes, actively
    learned over every coalition's aggregated traits and labelled by the
    hidden linear map; the roster active-vs-uniform learning curves; then
    the solves under the learned maps."""

    name = "learned"
    spec = Spec(n_tasks=4, n_robots=5, budget_fraction=0.7, **SCALED)
    seeds = tuple(range(4))
    expected_spans = (
        "learning.fit", "learning.predict", "learning.active_learn",
        "learning.uniform_baseline", "search.solve", "model.quality",
    )

    def setup(self, workdir: Path, run_seed: int) -> Inputs:
        docs = _variants(self.spec, self.seeds, run_seed)
        features, labels, _ = learning.synthetic_position_dataset()
        return Inputs(_write_instances(workdir, "hidden", docs), (features, labels))

    def ops(self, inputs: Inputs) -> list[tuple[str, Op]]:
        features, labels = inputs.roster
        pool_idx, eval_idx = learning.split_eval(features.shape[0], ROSTER_EVAL_FRACTION, 0)
        learned = [
            dataclasses.replace(i, path=i.path.with_name(i.path.name.replace("hidden", "learned")))
            for i in inputs.instances
        ]
        return (
            [
                (f"maps {hidden.path.name}", functools.partial(self._learn_maps, hidden, target.path))
                for hidden, target in zip(inputs.instances, learned)
            ]
            + [
                (
                    f"roster position {p}",
                    functools.partial(self._roster, p, features, labels[:, p], pool_idx, eval_idx),
                )
                for p in range(labels.shape[1])
            ]
            + [(i.path.name, functools.partial(_solve_op, i)) for i in learned]
        )

    @staticmethod
    def _learn_maps(hidden: Instance, target: Path, tally: Tally, tracer) -> list[str]:
        start = perf_counter()
        doc = json.loads(hidden.path.read_text(encoding="utf-8"))
        traits = np.array([r["traits"] for r in doc["robots"]])
        n = traits.shape[0]
        masks = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        coalitions = masks.astype(float) @ traits
        errors = []
        for task_index, task in enumerate(doc["tasks"]):
            hidden_map = task["quality_map"]
            truth = np.clip(
                coalitions @ np.array(hidden_map["weights"]) / hidden_map["normalizer"], 0.0, 1.0
            )
            gp, trace = learning.active_learn(
                lambda i: float(truth[i]),
                learning.QueryPool(coalitions),
                (coalitions, truth),
                MAP_LABELS,
            )
            errors.append(trace[-1])
            model_name = f"{target.stem}_map{task_index}.json"
            instance_io.save_gp_model(gp, target.parent / model_name)
            task["quality_map"] = {"type": "learned", "model_path": model_name}
        target.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        tally.time("learn", hidden.path.name, perf_counter() - start)
        return [f"learned map error is {e}" for e in errors if not np.isfinite(e)]

    @staticmethod
    def _roster(position, features, column, pool_idx, eval_idx, tally: Tally, tracer) -> list[str]:
        start = perf_counter()
        pool = features[pool_idx]
        eval_set = (features[eval_idx], column[eval_idx])

        def labeler(i: int) -> float:
            return float(column[pool_idx[i]])

        _, active = learning.active_learn(labeler, learning.QueryPool(pool), eval_set, ROSTER_BUDGET)
        uniform = [
            learning.uniform_baseline(labeler, learning.QueryPool(pool), eval_set, ROSTER_BUDGET, s)[1]
            for s in range(ROSTER_UNIFORM_SEEDS)
        ]
        tally.time("learn", f"roster {position}", perf_counter() - start)
        uniform_final = float(np.mean([trace[-1] for trace in uniform]))
        tally.rmse[position] = active[-1]
        if active[-1] > uniform_final:
            return [f"active learning ends at rmse {active[-1]} above uniform {uniform_final}"]
        return []


class CombinedWorkload:
    """Several workloads run as one: their inputs side by side, their
    operations one after the other."""

    def __init__(self, name: str, parts):
        self.name, self.parts = name, tuple(parts)
        self.expected_spans = tuple(dict.fromkeys(s for p in self.parts for s in p.expected_spans))

    def setup(self, workdir: Path, run_seed: int) -> list[Inputs]:
        return [part.setup(workdir, run_seed) for part in self.parts]

    def pieces(self, inputs: list[Inputs]) -> list[tuple[str, list[tuple[str, Op]]]]:
        """Each part's name and operations, in the order of one pass."""
        return [(part.name, part.ops(own)) for part, own in zip(self.parts, inputs)]

    def ops(self, inputs: list[Inputs]) -> list[tuple[str, Op]]:
        return [op for _, ops in self.pieces(inputs) for op in ops]


TIGHT = SolveWorkload(
    "tight", Spec(n_tasks=4, n_robots=5, budget_fraction=0.5, **SCALED), (2, 5, 6, 7, 9, 10)
)
LOOSE = SolveWorkload(
    "loose",
    Spec(n_tasks=4, n_robots=6, budget_fraction=0.9, **SCALED),
    range(6),
    extra_spans=("scheduler.refine", "motion.plan", "motion.astar"),
)

# Two workloads, each made of two parts, so that every run can be long: a
# shared host's speed drifts over tens of seconds, and only long runs average
# it out. The report splits the traced pass by part.
WORKLOADS = {
    "solve": CombinedWorkload("solve", (TIGHT, LOOSE)),
    "certify_learn": CombinedWorkload("certify_learn", (CertifyWorkload(), LearnedWorkload())),
}
