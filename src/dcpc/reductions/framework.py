"""The reduction contract: accepts / apply / retrieve, and chains thereof.

A reduction rewrites a problem into an equivalent one and can map any
solution of its output back to a solution of its input; ``apply`` rewrites
only a problem that ``accepts`` admits.  As in the paper, a reduction names
the category of problems it takes, its ``category`` type, and ``accepts``
admits no problem outside it.  Chains compose reductions left to right for
application and right to left for retrieval, and are themselves reductions.

Two record keys have a meaning every reduction shares.  ``aux`` lists the
ids of the variables a reduction introduced; retrieval drops them.
``infeasible`` is a non-empty message when the reduction proved its input
infeasible and emitted a placeholder instead; retrieval then reports
Infeasible with that message, whatever the placeholder's solution says.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any

import numpy as np

__all__ = ["Status", "Solution", "has_point", "InverseRecord", "Reduction",
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


def has_point(answer) -> bool:
    """A solver or retrieval answer carries a point iff its value is finite."""
    return math.isfinite(answer.value)


def infeasible_solution(message: str = "") -> Solution:
    return Solution(Status.INFEASIBLE, math.inf, {}, message)


@dataclass(frozen=True)
class InverseRecord:
    """Retrieval data captured by one application of a reduction."""

    reduction: str
    payload: dict[str, Any]


class Reduction:
    """Base contract.  Subclasses set ``name`` and ``category``, implement
    ``rewrite`` and, unless the shared conventions serve, ``retrieve``, and
    narrow ``accepts`` where the category alone does not decide it."""

    name = "reduction"
    category: type = object

    def accepts(self, problem) -> bool:
        """True iff :meth:`apply` is guaranteed to succeed on ``problem``."""
        return isinstance(problem, self.category)

    def apply(self, problem):
        """``rewrite(problem)``, or ReductionError unless ``accepts(problem)``."""
        if not self.accepts(problem):
            raise ReductionError(f"reduction '{self.name}' does not accept this problem")
        return self.rewrite(problem)

    def rewrite(self, problem):
        """Rewrite an accepted ``problem``; returns ``(problem2, InverseRecord)``."""
        raise NotImplementedError

    def retrieve(self, solution: Solution, record: InverseRecord) -> Solution:
        """Map a solution of the rewritten problem back to the input problem.

        The default serves every reduction whose inverse is one of the shared
        conventions: it reports Infeasible when the record carries an
        ``infeasible`` message, drops the ``aux`` variables, and otherwise
        returns ``solution`` itself.
        """
        if record.payload.get("infeasible"):
            return infeasible_solution(record.payload["infeasible"])
        aux = set(record.payload.get("aux", ()))
        if not aux:
            return solution
        primal = {k: v for k, v in solution.primal.items() if k not in aux}
        return replace(solution, primal=primal)

    def _record(self, **payload) -> InverseRecord:
        return InverseRecord(self.name, payload)


class ReductionChain(Reduction):
    """Left-to-right composition of reductions; also a reduction itself.

    Its ``accepts`` applies the whole chain, so it keeps its own ``apply``,
    which lets each member check its own input."""

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
