"""Command-line interface.

Subcommands: solve (run the search), oracle (exhaustive optimum), sweep
(solve across blend weights, CSV out), learn (fit a quality map actively
from a dataset, CSV learning curve out). Exit codes are part of the stable
interface: 0 a solution/result was produced, 2 the instance is infeasible,
1 input or usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from .analysis import alpha_sweep, bound_report, brute_force_optimal
from .instance_io import (
    LearningCurveRow,
    infeasible_document,
    load_dataset_csv,
    load_instance,
    oracle_document,
    solution_document,
    write_json_result,
    write_learning_csv,
    write_sweep_csv,
)
from .learning import QueryPool, active_learn, split_eval, uniform_baseline
from .model import ContractViolation, InvalidInput
from .search import solve as search_solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staq",
        description="Trait-based multi-robot task allocation under a time budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="search for a budget-respecting allocation")
    p_solve.add_argument("instance", help="instance JSON file")
    p_solve.add_argument("--alpha", type=float, default=None,
                         help="override the instance's blend weight")
    p_solve.add_argument("-o", "--output", default="solution.json",
                         help="result path (default solution.json)")

    p_oracle = sub.add_parser("oracle", help="exhaustive optimal allocation (small instances)")
    p_oracle.add_argument("instance", help="instance JSON file")
    p_oracle.add_argument("-o", "--output", default="oracle.json",
                          help="result path (default oracle.json)")

    p_sweep = sub.add_parser("sweep", help="solve across blend weights, compare to the oracle")
    p_sweep.add_argument("instance", help="instance JSON file")
    p_sweep.add_argument("--alphas", default=None,
                         help="comma-separated weights (default 0.0,0.1,...,1.0)")
    p_sweep.add_argument("-o", "--output", default="sweep.csv",
                         help="result path (default sweep.csv)")

    p_learn = sub.add_parser("learn", help="actively learn a quality map from a labeled dataset")
    p_learn.add_argument("dataset", help="CSV with a header, trait columns, then a label column")
    p_learn.add_argument("--budget", type=int, default=40, help="number of labels to request")
    p_learn.add_argument("--strategy", choices=("entropy", "uniform"), default="entropy")
    p_learn.add_argument("--seeds", type=int, default=20,
                         help="seed count for the uniform baseline")
    p_learn.add_argument("--eval-fraction", type=float, default=0.3,
                         help="held-out fraction for rmse evaluation")
    p_learn.add_argument("--split-seed", type=int, default=0,
                         help="seed for the evaluation split shuffle")
    p_learn.add_argument("-o", "--output", default="learning_curve.csv",
                         help="result path (default learning_curve.csv)")
    return parser


def _cmd_solve(args) -> int:
    domain = load_instance(args.instance).domain
    if args.alpha is not None:
        domain = dataclasses.replace(domain, alpha=args.alpha)
    solution, stats = search_solve(domain)
    if solution is None:
        write_json_result(infeasible_document(domain, stats), args.output)
        print(
            f"infeasible: no allocation fits the {domain.time_budget:g}s budget "
            f"({stats.nodes_expanded} nodes expanded)"
        )
        return EXIT_INFEASIBLE
    report = bound_report(domain, solution, stats)
    write_json_result(solution_document(domain, solution, stats, report), args.output)
    print(
        f"solution: quality {solution.total_quality:.6g}, "
        f"makespan {solution.schedule.makespan:.6g}s "
        f"(budget {domain.time_budget:g}s, alpha {domain.alpha:g}) -> {args.output}"
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    loaded = load_instance(args.instance)
    result = brute_force_optimal(loaded.domain)
    write_json_result(oracle_document(loaded.domain, result), args.output)
    if not result.feasible:
        print(f"no feasible allocation within the {loaded.domain.time_budget:g}s budget")
        return EXIT_INFEASIBLE
    print(
        f"optimal: quality {result.quality:.6g}, makespan {result.makespan:.6g}s "
        f"({result.n_scheduled} allocations scheduled) -> {args.output}"
    )
    return EXIT_OK


def _parse_alphas(text: Optional[str]) -> Optional[list[float]]:
    if text is None:
        return None
    try:
        alphas = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InvalidInput(f"--alphas: {exc}") from exc
    if not alphas:
        raise InvalidInput("--alphas: expected at least one value")
    return alphas


def _cmd_sweep(args) -> int:
    loaded = load_instance(args.instance)
    rows = alpha_sweep(loaded.domain, _parse_alphas(args.alphas))
    if rows is None:
        print(f"no feasible allocation within the {loaded.domain.time_budget:g}s budget")
        return EXIT_INFEASIBLE
    write_sweep_csv(rows, args.output)
    print(f"swept {len(rows)} blend weights -> {args.output}")
    return EXIT_OK


def _cmd_learn(args) -> int:
    features, labels = load_dataset_csv(args.dataset)
    pool_idx, eval_idx = split_eval(features.shape[0], args.eval_fraction, args.split_seed)
    pool_features = features[pool_idx]
    eval_set = (features[eval_idx], labels[eval_idx])

    def labeler(i: int) -> float:
        return float(labels[pool_idx[i]])

    rows: list[LearningCurveRow] = []
    if args.strategy == "entropy":
        _, trace = active_learn(labeler, QueryPool(pool_features), eval_set, args.budget)
        rows += [
            LearningCurveRow("entropy", 0, step, value)
            for step, value in enumerate(trace, start=1)
        ]
        final = trace[-1] if trace else float("nan")
    else:
        if args.seeds < 1:
            raise InvalidInput("--seeds must be at least 1")
        finals = []
        for seed in range(args.seeds):
            _, trace = uniform_baseline(
                labeler, QueryPool(pool_features), eval_set, args.budget, seed
            )
            rows += [
                LearningCurveRow("uniform", seed, step, value)
                for step, value in enumerate(trace, start=1)
            ]
            if trace:
                finals.append(trace[-1])
        final = sum(finals) / len(finals) if finals else float("nan")
    write_learning_csv(rows, args.output, envelope=args.strategy == "uniform")
    print(
        f"{args.strategy}: {args.budget} labels from a pool of {pool_features.shape[0]}, "
        f"final rmse {final:.6g} -> {args.output}"
    )
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "oracle": _cmd_oracle,
        "sweep": _cmd_sweep,
        "learn": _cmd_learn,
    }
    try:
        return handlers[args.command](args)
    except (InvalidInput, ContractViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
