"""File formats: JSON problem instances, JSON results, CSV experiment tables,
and CSV datasets for quality-map learning.

Everything written here is deterministic byte-for-byte given the same inputs:
JSON uses sorted keys and shortest-roundtrip floats, CSV uses '\\n' line ends
and '.' decimals. The full schemas live in docs/format.md.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .analysis import BoundReport, OracleResult, SweepRow
from .learning import GPModel, GPQualityMap, LinearQualityMap, gp_fit
from .model import (
    InvalidInput,
    ProblemDomain,
    Robot,
    Solution,
    Task,
    TaskNetwork,
    WorldMap,
)
from .search import SearchStats


@dataclass(frozen=True)
class LoadedInstance:
    domain: ProblemDomain
    seed: Optional[int]


def _fail(path: str, message: str) -> None:
    raise InvalidInput(f"{path}: {message}")


def _at(where: str, make, *args):
    """make(*args), its InvalidInput prefixed with where: a robot or task
    does not know its own position."""
    try:
        return make(*args)
    except InvalidInput as exc:
        _fail(where, str(exc))


def _as_cell(value, where: str) -> tuple[int, int]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        _fail(where, f"expected [col, row] integer pair, got {value!r}")
    return (value[0], value[1])


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        _fail(where, "expected a finite number, got an integer too large for a float")
    if not math.isfinite(number):
        _fail(where, f"expected a finite number, got {value!r}")
    return number


def _as_pairs(value, where: str) -> list[tuple[int, int]]:
    if value is None:
        return []
    if not isinstance(value, list):
        _fail(where, f"expected a list of [i, j] pairs, got {value!r}")
    out = []
    for k, pair in enumerate(value):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        ):
            _fail(f"{where}[{k}]", f"expected an [i, j] integer pair, got {pair!r}")
        out.append((pair[0], pair[1]))
    return out


def load_gp_model(path: Union[str, Path]) -> GPModel:
    """Read a GP quality-map model from its JSON document."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        _fail(str(path), "model document must be a JSON object")
    for key in ("x_train", "y_train"):
        if key not in doc:
            _fail(str(path), f"model document missing key {key!r}")
    rows, labels = doc["x_train"], doc["y_train"]
    if (
        not isinstance(rows, list)
        or not rows
        or not all(isinstance(row, list) and row for row in rows)
        or len({len(row) for row in rows}) != 1
    ):
        _fail(f"{path}: x_train", "expected a non-empty rectangular matrix of numbers")
    if not isinstance(labels, list) or len(labels) != len(rows):
        _fail(f"{path}: y_train", f"expected a list of {len(rows)} numbers, one per x_train row")
    x = [[_as_number(v, f"{path}: x_train[{i}]") for v in row] for i, row in enumerate(rows)]
    y = [_as_number(v, f"{path}: y_train") for v in labels]
    hyperparameters = {
        key: _as_number(doc[key], f"{path}: {key}")
        for key in ("length_scale", "signal_var", "noise_var", "prior_mean")
        if key in doc
    }
    return gp_fit(np.asarray(x), np.asarray(y), **hyperparameters)


def save_gp_model(model: GPModel, path: Union[str, Path]) -> None:
    doc = {
        "x_train": model.x_train.tolist(),
        "y_train": model.y_train.tolist(),
        "length_scale": model.length_scale,
        "signal_var": model.signal_var,
        "noise_var": model.noise_var,
        "prior_mean": model.prior_mean,
    }
    _write_json(doc, path)


def _parse_quality_map(doc, where: str, base_dir: Path):
    if not isinstance(doc, dict) or "type" not in doc:
        _fail(where, "quality_map must be an object with a 'type' key")
    kind = doc["type"]
    if kind == "linear":
        if "weights" not in doc or "normalizer" not in doc:
            _fail(where, "linear quality_map needs 'weights' and 'normalizer'")
        weights = doc["weights"]
        if not isinstance(weights, list) or not weights:
            _fail(f"{where}.weights", "expected a non-empty list of numbers")
        return LinearQualityMap(
            np.asarray([_as_number(w, f"{where}.weights") for w in weights]),
            _as_number(doc["normalizer"], f"{where}.normalizer"),
        )
    if kind == "learned":
        if "model_path" not in doc:
            _fail(where, "learned quality_map needs 'model_path'")
        model_path = Path(doc["model_path"])
        if not model_path.is_absolute():
            model_path = base_dir / model_path
        return GPQualityMap(load_gp_model(model_path))
    _fail(f"{where}.type", f"unknown quality_map type {kind!r}")


def _read_json(path: Union[str, Path]) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _write_json(doc, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8"
    )


def instance_from_document(
    doc: dict, *, base_dir: Union[str, Path] = ".", alpha_override: Optional[float] = None
) -> LoadedInstance:
    """Build a validated problem domain from a parsed instance document."""
    if not isinstance(doc, dict):
        raise InvalidInput("instance document must be a JSON object")
    base_dir = Path(base_dir)
    for key in ("robots", "tasks", "map", "time_budget"):
        if key not in doc:
            _fail("instance", f"missing required key {key!r}")

    map_rows = doc["map"]
    if not isinstance(map_rows, list) or not all(isinstance(r, str) for r in map_rows):
        _fail("map", "expected a list of strings of '.' and '#'")
    cell_size = _as_number(doc.get("cell_size", 1.0), "cell_size")
    world = WorldMap.from_ascii(map_rows, cell_size=cell_size)

    robots_doc = doc["robots"]
    if not isinstance(robots_doc, list) or not robots_doc:
        _fail("robots", "expected a non-empty list")
    robots = []
    for i, rd in enumerate(robots_doc):
        where = f"robots[{i}]"
        if not isinstance(rd, dict):
            _fail(where, "expected an object")
        for key in ("traits", "start", "speed"):
            if key not in rd:
                _fail(where, f"missing key {key!r}")
        traits = rd["traits"]
        if not isinstance(traits, list) or not traits:
            _fail(f"{where}.traits", "expected a non-empty list of numbers")
        robots.append(_at(
            where,
            Robot,
            np.asarray([_as_number(t, f"{where}.traits") for t in traits]),
            _as_cell(rd["start"], f"{where}.start"),
            _as_number(rd["speed"], f"{where}.speed"),
        ))

    tasks_doc = doc["tasks"]
    if not isinstance(tasks_doc, list) or not tasks_doc:
        _fail("tasks", "expected a non-empty list")
    tasks = []
    quality_maps = []
    for i, td in enumerate(tasks_doc):
        where = f"tasks[{i}]"
        if not isinstance(td, dict):
            _fail(where, "expected an object")
        for key in ("duration", "start_site", "end_site", "quality_map"):
            if key not in td:
                _fail(where, f"missing key {key!r}")
        tasks.append(_at(
            where,
            Task,
            _as_number(td["duration"], f"{where}.duration"),
            _as_cell(td["start_site"], f"{where}.start_site"),
            _as_cell(td["end_site"], f"{where}.end_site"),
        ))
        quality_map = _parse_quality_map(td["quality_map"], f"{where}.quality_map", base_dir)
        # a map reads the summed traits of a coalition, one entry per robot trait
        if quality_map.width != robots[0].traits.size:
            _fail(
                f"{where}.quality_map",
                f"reads {quality_map.width} traits, but the robots have {robots[0].traits.size}",
            )
        quality_maps.append(quality_map)

    network = TaskNetwork(
        tasks=tuple(tasks),
        precedence=frozenset(_as_pairs(doc.get("precedence"), "precedence")),
        mutex=frozenset(_as_pairs(doc.get("mutex"), "mutex")),
    )

    alpha = _as_number(doc.get("alpha", 0.4), "alpha")
    if alpha_override is not None:
        alpha = float(alpha_override)

    domain = ProblemDomain(
        network=network,
        robots=tuple(robots),
        quality_maps=tuple(quality_maps),
        world=world,
        time_budget=_as_number(doc["time_budget"], "time_budget"),
        alpha=alpha,
    )

    # big_m is accepted for compatibility with older documents and ignored:
    # the solver branches on disjunctions instead of a large constant.
    if "big_m" in doc and _as_number(doc["big_m"], "big_m") <= 0:
        _fail("big_m", f"must be positive, got {doc['big_m']!r}")

    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        _fail("seed", f"expected an integer, got {seed!r}")
    return LoadedInstance(domain=domain, seed=seed)


def load_instance(
    path: Union[str, Path], *, alpha_override: Optional[float] = None
) -> LoadedInstance:
    doc = _read_json(path)
    return instance_from_document(
        doc, base_dir=Path(path).parent, alpha_override=alpha_override
    )


def _quality_map_document(qm, index: int, model_paths: Optional[dict]) -> dict:
    if isinstance(qm, LinearQualityMap):
        return {
            "type": "linear",
            "weights": [float(w) for w in qm.weights],
            "normalizer": qm.normalizer,
        }
    if isinstance(qm, GPQualityMap):
        if not model_paths or index not in model_paths:
            raise InvalidInput(
                f"task {index} uses a learned quality map; pass model_paths[{index}]"
            )
        return {"type": "learned", "model_path": str(model_paths[index])}
    raise InvalidInput(f"task {index}: quality map {type(qm).__name__} is not serializable")


def instance_to_document(
    domain: ProblemDomain,
    *,
    seed: Optional[int] = None,
    model_paths: Optional[dict] = None,
) -> dict:
    """Serialize a domain back to the instance schema. Learned quality maps
    need model_paths {task index: path written by save_gp_model}."""
    doc = {
        "map": domain.world.to_ascii(),
        "cell_size": domain.world.cell_size,
        "robots": [
            {
                "traits": [float(t) for t in r.traits],
                "start": list(r.start_cell),
                "speed": r.speed,
            }
            for r in domain.robots
        ],
        "tasks": [
            {
                "duration": t.duration,
                "start_site": list(t.start_site),
                "end_site": list(t.end_site),
                "quality_map": _quality_map_document(domain.quality_maps[k], k, model_paths),
            }
            for k, t in enumerate(domain.network.tasks)
        ],
        "precedence": [list(p) for p in sorted(domain.network.precedence)],
        "mutex": [list(p) for p in sorted(domain.network.mutex)],
        "time_budget": domain.time_budget,
        "alpha": domain.alpha,
    }
    if seed is not None:
        doc["seed"] = seed
    return doc


def save_instance(
    domain: ProblemDomain,
    path: Union[str, Path],
    *,
    seed: Optional[int] = None,
    model_paths: Optional[dict] = None,
) -> None:
    _write_json(instance_to_document(domain, seed=seed, model_paths=model_paths), path)


def _bound_report_document(report: Optional[BoundReport]) -> Optional[dict]:
    if report is None:
        return None
    return {
        "alpha": report.alpha,
        "q_root": report.q_root,
        "q_null": report.q_null,
        "q_solution": report.q_solution,
        "q_optimal": report.q_optimal,
        "apriori_bound": _json_number(report.apriori_bound),
        "posthoc_bound": _json_number(report.posthoc_bound),
        "gap": report.gap,
        "overrun_of_best_open": _json_number(report.overrun_of_best_open),
        "apriori_trivial": report.apriori_trivial,
        "guarantee_applies": report.guarantee_applies,
        "holds_apriori": report.holds_apriori,
        "holds_posthoc": report.holds_posthoc,
    }


def _json_number(x: float):
    # JSON has no inf; the documented sentinel is the string "inf".
    if math.isinf(x):
        return "inf"
    return x


def _stats_document(stats: SearchStats) -> dict:
    """The search counters and normalization references, the same block in
    the solution and the infeasible document."""
    return {
        "nodes_expanded": stats.nodes_expanded,
        "nodes_generated": stats.nodes_generated,
        "duplicates_skipped": stats.duplicates_skipped,
        "scheduler_calls": stats.scheduler_calls,
        "refinement_rounds": stats.refinement_rounds,
        "bnb_runs": stats.bnb_runs,
        "bnb_nodes": stats.bnb_nodes,
        "reinserted": stats.reinserted,
        "planner_calls": stats.planner_calls,
        "worst_makespan": stats.worst_makespan,
        "quality_root": stats.quality_root,
        "quality_null": stats.quality_null,
    }


def solution_document(
    domain: ProblemDomain,
    solution: Solution,
    stats: SearchStats,
    report: Optional[BoundReport] = None,
) -> dict:
    sched = solution.schedule
    return {
        "status": "solution",
        "alpha": domain.alpha,
        "time_budget": domain.time_budget,
        "allocation": solution.allocation.entries.tolist(),
        "allocation_key": solution.allocation.key,
        "start_times": list(sched.start_times),
        "makespan": sched.makespan,
        "orderings": [
            [i, j, direction] for (i, j), direction in sorted(solution.orderings.items())
        ],
        "total_quality": solution.total_quality,
        "scores": {
            "quality_loss": solution.quality_loss,
            "budget_overrun": solution.overrun,
            "blended": solution.blended,
        },
        "motion_plans": [
            {
                "robot": robot,
                "task": task,
                "length": plan.length,
                "cells": [list(c) for c in plan.cells],
            }
            for (robot, task), plan in sorted(solution.motion_plans.items())
        ],
        "bounds": _bound_report_document(report),
        "stats": _stats_document(stats),
    }


def infeasible_document(domain: ProblemDomain, stats: SearchStats) -> dict:
    return {
        "status": "infeasible",
        "alpha": domain.alpha,
        "time_budget": domain.time_budget,
        "stats": _stats_document(stats),
    }


def oracle_document(domain: ProblemDomain, result: OracleResult) -> dict:
    doc = {
        "status": "solution" if result.feasible else "no_feasible",
        "time_budget": domain.time_budget,
        "n_strictly_better": result.n_strictly_better,
        "n_scheduled": result.n_scheduled,
    }
    if result.feasible:
        doc.update(
            {
                "quality": result.quality,
                "makespan": result.makespan,
                "allocation": result.allocation.entries.tolist(),
                "allocation_key": result.allocation.key,
            }
        )
    return doc


def write_json_result(doc: dict, path: Union[str, Path]) -> None:
    _write_json(doc, path)


def _format_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return repr(x)
    return str(x)


def write_sweep_csv(rows: Sequence[SweepRow], path: Union[str, Path]) -> None:
    columns = [
        "alpha",
        "quality",
        "makespan",
        "norm_gap",
        "norm_apriori_bound",
        "norm_posthoc_bound",
        "holds_apriori",
        "holds_posthoc",
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_value(getattr(row, c)) for c in columns])


@dataclass(frozen=True)
class LearningCurveRow:
    strategy: str
    seed: int
    step: int
    rmse: float


def write_learning_csv(
    rows: Sequence[LearningCurveRow],
    path: Union[str, Path],
    *,
    envelope: bool = False,
) -> None:
    """Write per-(strategy, seed, step) rmse rows; with envelope=True append
    min/mean/max columns aggregated per (strategy, step) over seeds."""
    columns = ["strategy", "seed", "step", "rmse"]
    if envelope:
        columns += ["rmse_min", "rmse_mean", "rmse_max"]
        groups: dict[tuple[str, int], list[float]] = {}
        for row in rows:
            groups.setdefault((row.strategy, row.step), []).append(row.rmse)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            record = [row.strategy, str(row.seed), str(row.step), _format_value(row.rmse)]
            if envelope:
                values = groups[(row.strategy, row.step)]
                record += [
                    _format_value(min(values)),
                    _format_value(float(np.mean(values))),
                    _format_value(max(values)),
                ]
            writer.writerow(record)


def load_dataset_csv(path: Union[str, Path]) -> tuple[np.ndarray, np.ndarray]:
    """Read a labeled dataset: header row, then one row per sample with
    trait columns followed by a final label column, every value finite."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise InvalidInput(f"{path}: need a header row and at least one sample")
    width = len(rows[0])
    if width < 2:
        raise InvalidInput(f"{path}: need at least one trait column and a label column")
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise InvalidInput(f"{path}: line {lineno} has {len(row)} fields, expected {width}")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise InvalidInput(f"{path}: line {lineno}: {exc}") from exc
        # float() parses "nan" and "inf"; neither is a trait or a label
        if not all(map(math.isfinite, values)):
            raise InvalidInput(f"{path}: line {lineno}: values must be finite")
        data.append(values)
    matrix = np.asarray(data)
    return matrix[:, :-1], matrix[:, -1]
