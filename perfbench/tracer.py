"""Spans recorded around the library's functions, from outside the library.

`Tracer.install()` replaces each traced function with a wrapper at the name
its callers look up (a module global or a class attribute) and puts the
originals back on exit. Every call opens a span with a name, start, end and
parent; spans stay in flat arrays until the run ends, and `summary()` turns
them into per-layer counts, total times and self times (a span's duration
minus the time its child spans cover). Hooks read counts the library
returns anyway (branch-and-bound nodes, A* expansions, refinement changes,
prediction rows) and receive the span's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterator, Optional

import numpy as np


class TracerError(RuntimeError):
    """A traced target is missing, or a workload never reached one it needs."""


def _bnb_nodes(tracer: "Tracer", args, result, seconds: float) -> None:
    tracer.counts["scheduler.bnb_nodes"] += result.nodes_explored


def _refine_changed(tracer: "Tracer", args, result, seconds: float) -> None:
    tracer.counts["scheduler.refine_changed"] += int(result[1])


def _astar_expanded(tracer: "Tracer", args, result, seconds: float) -> None:
    if result is not None:
        tracer.counts["motion.astar_expanded"] += result.expanded


def _predict_rows(tracer: "Tracer", args, result, seconds: float) -> None:
    where = "in_solve" if tracer.active("search.solve") else "in_learn"
    tracer.counts[f"learning.predict_{where}_calls"] += 1
    tracer.counts[f"learning.predict_{where}_rows"] += result[0].shape[0]
    tracer.counts[f"learning.predict_{where}_s"] += seconds


# (module, class or None, attribute, span name, hook). Each entry names the
# binding the callers use, so a function imported into several modules is
# wrapped once per importing module.
TARGETS: tuple[tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("staq.search", None, "solve", "search.solve", None),
    ("staq.search", None, "successors", "model.successors", None),
    ("staq.search", None, "total_allocation_quality", "model.quality", None),
    ("staq.search", None, "build_constraints_fast", "scheduler.build", None),
    ("staq.search", None, "solve_milp", "scheduler.milp", _bnb_nodes),
    ("staq.search", None, "refine_with_motion_plans", "scheduler.refine", _refine_changed),
    ("staq.analysis", None, "build_constraints_fast", "scheduler.build", None),
    ("staq.analysis", None, "solve_milp", "scheduler.milp", _bnb_nodes),
    ("staq.analysis", None, "brute_force_optimal", "analysis.oracle", None),
    ("staq.analysis", None, "bound_report", "analysis.bounds", None),
    ("staq.motion", "GridPlanner", "plan", "motion.plan", None),
    ("staq.motion", None, "plan_path", "motion.astar", _astar_expanded),
    ("staq.learning", None, "gp_fit", "learning.fit", None),
    ("staq.learning", None, "gp_predict", "learning.predict", _predict_rows),
    ("staq.learning", None, "active_learn", "learning.active_learn", None),
    ("staq.learning", None, "uniform_baseline", "learning.uniform_baseline", None),
    ("staq.instance_io", None, "instance_from_document", "instance_io.load", None),
    ("staq.instance_io", None, "solution_document", "instance_io.document", None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._active: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.enabled = True

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def active(self, name: str) -> bool:
        """Whether a span of this name is open, at any depth."""
        nid = self._ids.get(name)
        return nid is not None and self._active[nid] > 0

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside, e.g. while the benchmark checks results."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, fn: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        nid = self._id(name)
        stack, active = self._stack, self._active
        names, parents, starts, ends = self._name, self._parent, self._start, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            active[nid] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = end = perf_counter()
                active[nid] -= 1
                stack.pop()
            if hook is not None:
                hook(self, args, result, end - starts[index])
            return result

        return traced

    @contextlib.contextmanager
    def install(self) -> Iterator["Tracer"]:
        """Wrap every target; raise TracerError if any binding is missing."""
        restore = []
        try:
            for module_name, class_name, attr, name, hook in TARGETS:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name, None)
                original = None if owner is None else owner.__dict__.get(attr)
                if not callable(original):
                    where = module_name + (f".{class_name}" if class_name else "")
                    raise TracerError(f"traced target {where}.{attr} does not exist")
                setattr(owner, attr, self.wrap(original, name, hook))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def require(self, names) -> None:
        """Raise TracerError unless every named span was recorded."""
        spans = self.summary()
        missing = [n for n in names if not spans.get(n, {}).get("calls")]
        if missing:
            raise TracerError(f"traced targets never called on this workload: {missing}")

    def __len__(self) -> int:
        """The number of spans recorded so far."""
        return len(self._start)

    def summary(self, first: int = 0, last: Optional[int] = None) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, and the number
        and seconds of its spans whose parent has each other name. `first`
        and `last` select the spans of whole top-level calls, e.g. one part
        of a workload."""
        last = len(self) if last is None else last
        name = np.frombuffer(self._name, dtype=np.int32)[first:last]
        parent = np.frombuffer(self._parent, dtype=np.int32)[first:last] - first
        duration = (np.frombuffer(self._end, dtype=np.float64)
                    - np.frombuffer(self._start, dtype=np.float64))[first:last]
        own = duration.copy()
        nested = parent >= 0
        np.subtract.at(own, parent[nested], duration[nested])
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
        out = {}
        for nid, span in enumerate(self.names):
            mask = name == nid
            parents = [p for p in np.unique(parent_name[mask]) if p >= 0]
            out[span] = {
                "calls": int(np.count_nonzero(mask)),
                "s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
                "under": {
                    self.names[p]: int(np.count_nonzero(parent_name[mask] == p)) for p in parents
                },
                "under_s": {
                    self.names[p]: float(duration[mask & (parent_name == p)].sum())
                    for p in parents
                },
            }
        return out


def layer_metrics(tracer: Tracer, searched) -> dict:
    """Per-layer values of one traced pass; `searched` holds the search
    counters summed from the SearchStats the pass received."""
    spans = tracer.summary()
    counts = tracer.counts

    def calls(span):
        return spans.get(span, {}).get("calls", 0)

    def total(span):
        return spans.get(span, {}).get("s", 0.0)

    def own(span):
        return spans.get(span, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    plans, astar = calls("motion.plan"), calls("motion.astar")
    return {
        "search.expansions": searched["expansions"],
        "search.generated": searched["generated"],
        "search.reinserted": searched["reinserted"],
        "search.refinement_rounds": searched["refinement_rounds"],
        "search.solve_s": total("search.solve"),
        "search.self_s": own("search.solve"),
        "model.successors_calls": calls("model.successors"),
        "model.successors_s": total("model.successors"),
        "model.quality_calls": calls("model.quality"),
        "model.quality_s": total("model.quality"),
        "scheduler.build_calls": calls("scheduler.build"),
        "scheduler.build_s": total("scheduler.build"),
        "scheduler.milp_calls": calls("scheduler.milp"),
        "scheduler.milp_s": total("scheduler.milp"),
        "scheduler.bnb_nodes": int(counts["scheduler.bnb_nodes"]),
        "scheduler.bnb_nodes_per_call": ratio(counts["scheduler.bnb_nodes"], calls("scheduler.milp")),
        "scheduler.refine_calls": calls("scheduler.refine"),
        "scheduler.refine_self_s": own("scheduler.refine"),
        "scheduler.refine_changed_ratio": ratio(
            counts["scheduler.refine_changed"], calls("scheduler.refine")
        ),
        "motion.plan_calls": plans,
        "motion.memo_hits": plans - astar,
        "motion.plan_self_s": own("motion.plan"),
        "motion.astar_runs": astar,
        "motion.astar_s": total("motion.astar"),
        "motion.astar_expanded": int(counts["motion.astar_expanded"]),
        "learning.fit_calls": calls("learning.fit"),
        "learning.fit_s": total("learning.fit"),
        "learning.predict_in_solve_calls": int(counts["learning.predict_in_solve_calls"]),
        "learning.predict_in_solve_rows": int(counts["learning.predict_in_solve_rows"]),
        "learning.predict_in_solve_s": counts["learning.predict_in_solve_s"],
        "learning.predict_in_learn_calls": int(counts["learning.predict_in_learn_calls"]),
        "learning.predict_in_learn_rows": int(counts["learning.predict_in_learn_rows"]),
        "learning.predict_in_learn_s": counts["learning.predict_in_learn_s"],
        "analysis.oracle_calls": calls("analysis.oracle"),
        "analysis.oracle_scheduled": spans.get("scheduler.milp", {}).get("under", {}).get(
            "analysis.oracle", 0
        ),
        "analysis.oracle_self_s": own("analysis.oracle"),
        "analysis.sweep_cache_hit_ratio": 1.0 - ratio(
            searched["cached_scheduler_calls"], searched["cached_generated"]
        ) if searched["cached_generated"] else 0.0,
        "instance_io.load_calls": calls("instance_io.load"),
        "instance_io.load_s": total("instance_io.load"),
        "instance_io.document_s": total("instance_io.document"),
    }
