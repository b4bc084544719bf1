"""The reduction contract: accepts / apply / retrieve, and chains thereof.

A reduction rewrites a problem into an equivalent one and can map any
solution of its output back to a solution of its input.  Chains compose
reductions left to right for application and right to left for retrieval,
and are themselves reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np

__all__ = ["Status", "Solution", "InverseRecord", "Reduction",
           "ReductionChain", "ReductionError"]


class ReductionError(RuntimeError):
    """Raised when a reduction is applied to a problem it does not accept."""


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    ERROR = "error"


@dataclass(frozen=True)
class Solution:
    """A solver or retrieval result.

    ``value`` follows minimization conventions at the producing layer: +inf
    for infeasible, -inf for unbounded.  ``primal`` maps variable id to a
    value vector and must be empty for Infeasible/Unbounded solutions.
    """

    status: Status
    value: float
    primal: dict[int, np.ndarray] = field(default_factory=dict)
    message: str = ""

    def __post_init__(self):
        if self.status in (Status.INFEASIBLE, Status.UNBOUNDED) and self.primal:
            raise ValueError(f"{self.status.value} solutions carry no primal point")


def infeasible_solution(message: str = "") -> Solution:
    return Solution(Status.INFEASIBLE, math.inf, {}, message)


def unbounded_solution(message: str = "") -> Solution:
    return Solution(Status.UNBOUNDED, -math.inf, {}, message)


@dataclass(frozen=True)
class InverseRecord:
    """Retrieval data captured by one application of a reduction."""

    reduction: str
    payload: dict[str, Any]


class Reduction:
    """Base contract.  Subclasses set ``name`` and implement the three ops."""

    name = "reduction"

    def accepts(self, problem) -> bool:
        """True iff :meth:`apply` is guaranteed to succeed on ``problem``."""
        return True

    def apply(self, problem):
        """Rewrite ``problem``; returns ``(problem2, InverseRecord)``."""
        raise NotImplementedError

    def retrieve(self, solution: Solution, record: InverseRecord) -> Solution:
        """Map a solution of the rewritten problem back to the input problem."""
        raise NotImplementedError

    def _record(self, **payload) -> InverseRecord:
        return InverseRecord(self.name, payload)

    def _check(self, problem):
        if not self.accepts(problem):
            raise ReductionError(f"reduction '{self.name}' does not accept this problem")


class ReductionChain(Reduction):
    """Left-to-right composition of reductions; also a reduction itself."""

    def __init__(self, members: list[Reduction]):
        self.members = list(members)
        self.name = "chain[" + ", ".join(m.name for m in self.members) + "]"

    def accepts(self, problem) -> bool:
        try:
            self.apply(problem)
        except ReductionError:
            return False
        return True

    def apply(self, problem):
        current = problem
        records = []
        for position, member in enumerate(self.members):
            # Each member's apply checks its own input.
            try:
                current, record = member.apply(current)
            except ReductionError as err:
                raise ReductionError(
                    f"chain member {position} ('{member.name}') rejected its input: "
                    f"{err}") from err
            records.append(record)
        return current, self._record(records=records)

    def retrieve(self, solution: Solution, record: InverseRecord) -> Solution:
        for member, rec in zip(reversed(self.members), reversed(record.payload["records"])):
            solution = member.retrieve(solution, rec)
        return solution
