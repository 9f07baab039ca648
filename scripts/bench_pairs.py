"""Run the benchmark in two checkouts, alternating, and summarize the pairs as JSON.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seconds S [--seed FIRST] -o BENCH_n.json

Pair k runs `perfbench/run.py --workload W --seed FIRST+k-1 --seconds S` in
both checkouts, one after the other, each from its own directory (so each
side imports its own `src/`). The parent side runs first in odd pairs and
second in even ones, so a drift of the host's speed falls on both sides
alike. A run that exits non-zero stops the script.

The output holds every run's record (side, pair, workload, seed, seconds
and `result`, the run's last JSON line) and, per end-to-end metric of the
change side's BENCHMARK.json, each side's median, first and third quartile
(linear interpolation) and values by pair, the pairs where the change is
better (`change_wins`) or equal (`ties`), and `median_change`, the change
median relative to the parent median, rounded to 4 places. The script ends
by printing that summary, one line per metric:

    batch_s: parent 1.52 [1.51, 1.58]  change 1.57 [1.54, 1.59]  wins 3/8  ties 0  median_change +0.0329
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """One perfbench/run.py run: its last JSON line and its host line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    host = next((line for line in lines if line.startswith("host:")), "")
    return json.loads(lines[-1]), host


def summarize(records: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median, quartiles and runs by pair, and the
    pairs the change wins or ties."""
    values = {side: {} for side in SIDES}
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            values[record["side"]].setdefault(name, {})[record["pair"]] = metric["value"]
    summary = {}
    for name, parent in values["parent"].items():
        direction = better.get(name.rsplit(".", 1)[-1])
        change = values["change"].get(name)
        if direction is None or change is None:
            continue
        pairs = sorted(parent.keys() & change.keys())
        entry = {}
        for side, by_pair in zip(SIDES, (parent, change)):
            runs = [by_pair[k] for k in pairs]
            q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                              if len(runs) > 1 else runs * 3)
            entry[side] = {"median": median, "q1": q1, "q3": q3, "runs": runs}
        sign = 1 if direction == "lower" else -1
        entry["change_wins"] = sum(sign * (change[k] - parent[k]) < 0 for k in pairs)
        entry["ties"] = sum(change[k] == parent[k] for k in pairs)
        entry["pairs"] = len(pairs)
        base = entry["parent"]["median"]
        entry["median_change"] = (
            round(entry["change"]["median"] / base - 1, 4) if base else None
        )
        summary[name] = entry
    return summary


def summary_lines(summary: dict) -> list[str]:
    """One line per metric of a summary: each side's median [q1, q3], the
    change's wins and ties out of the pairs, and median_change."""
    lines = []
    for name, entry in summary.items():
        sides = "  ".join(
            f"{side} {entry[side]['median']:.6g} [{entry[side]['q1']:.6g}, "
            f"{entry[side]['q3']:.6g}]"
            for side in SIDES
        )
        change = entry["median_change"]
        lines.append(
            f"{name}: {sides}  wins {entry['change_wins']}/{entry['pairs']}  ties {entry['ties']}"
            f"  median_change {'n/a' if change is None else format(change, '+.4f')}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    records, host = [], ""
    for pair in range(1, args.pairs + 1):
        seed = args.seed + pair - 1
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            result, host = run_once(checkout, args.workload, seed, args.seconds)
            records.append({"side": side, "pair": pair, "workload": args.workload,
                            "seed": seed, "seconds": args.seconds, "result": result})
            print(f"pair {pair} {side}: correct {result['correct']}, "
                  f"failed {result['failed']}", file=sys.stderr)
    document = {
        "description": (
            f"perfbench/run.py --workload {args.workload} --seconds {args.seconds:g} in "
            f"{args.parent} (parent) and {args.change} (change), {args.pairs} alternating "
            f"pairs from seed {args.seed}; the parent runs first in odd pairs"
        ),
        "host": host.removeprefix("host: "),
        "runs": records,
        "summary": summarize(records, better),
    }
    args.output.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print("\n".join(summary_lines(document["summary"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
