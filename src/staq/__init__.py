"""Trait-based multi-robot task allocation under a time budget.

Greedy best-first search over an incremental allocation graph, guided by a
convex blend of quality loss and budget overrun, with exact disjunctive
scheduling and grid motion planning underneath. Quality maps can be linear
or learned from data with a Gaussian process.
"""

from .model import (
    Allocation,
    ContractViolation,
    InvalidInput,
    ProblemDomain,
    Robot,
    Schedule,
    Solution,
    Task,
    TaskNetwork,
    ValidationReport,
    WorldMap,
    successors,
    total_allocation_quality,
    validate_solution,
)

__all__ = [
    "Allocation",
    "ContractViolation",
    "InvalidInput",
    "ProblemDomain",
    "Robot",
    "Schedule",
    "Solution",
    "Task",
    "TaskNetwork",
    "ValidationReport",
    "WorldMap",
    "successors",
    "total_allocation_quality",
    "validate_solution",
]

__version__ = "0.1.0"
