"""Problem analysis: pick the most specific target class, assemble the chain.

Classes are tried in order of increasing generality (LP, then QP, then cone)
and the first whose back end accepts the problem wins; the search can be
forced to a single class, mirroring a user pinning a solver.  Selection
failures are reports, never exceptions — a problem outside every class
yields a report carrying the DCP violations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .reductions.cone import GraphExpand, ProgramData, StuffCone
from .reductions.framework import (ReductionChain, Solution, Status,
                                   infeasible_solution, unbounded_solution)
from .reductions.qp import StuffLp, StuffQp, qp_applicable, uses_quadratic_atom
from .reductions.standard import DecomposeSoc, FlipObjective, PresolveFixedPoint
from .solvers import RawSolution, SolverSettings, solve_admm, solve_lp_simplex

__all__ = ["TargetClass", "RewriterConfig", "AnalysisReport", "AnalyzerError",
           "select_target", "build_chain", "apply_chain", "solve_problem",
           "SolveOutcome"]


class AnalyzerError(RuntimeError):
    """Raised for configuration errors and rejected forced targets."""


class TargetClass(enum.Enum):
    """Solver classes ordered by specificity: every LP is a QP is a cone program."""

    LP = 1
    QP = 2
    CONE = 3

    def __lt__(self, other):
        if isinstance(other, TargetClass):
            return self.value < other.value
        return NotImplemented


@dataclass(frozen=True)
class RewriterConfig:
    """Analyzer and pipeline knobs; defaults reproduce canonical matrices."""

    forced_target: TargetClass | None = None
    presolve: bool = False
    decompose_soc: bool = False
    solver: str = "auto"  # auto | simplex | admm
    settings: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if self.solver not in ("auto", "simplex", "admm"):
            raise ValueError(f"unknown solver '{self.solver}'")


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of target selection: verdicts, reasons, and the chain to run."""

    dcp_ok: bool
    dcp_violations: tuple[str, ...]
    target: TargetClass | None
    chain: ReductionChain | None
    reasons: tuple[tuple[TargetClass, str], ...]
    failure: str = ""

    @property
    def chain_names(self) -> tuple[str, ...]:
        if self.chain is None:
            return ()
        return tuple(m.name for m in self.chain.members)


def _class_accepts(problem, target: TargetClass, qp_ok: bool,
                   dcp_ok: bool, violations) -> tuple[bool, str]:
    if target is not TargetClass.CONE and not qp_ok:
        return False, "objective or constraints leave the QP fragment"
    if target is TargetClass.LP:
        if uses_quadratic_atom(problem):
            return False, "quadratic atom present"
        return True, "piecewise-linear objective and constraints"
    if target is TargetClass.QP:
        return True, "objective paths accepted by the QP machine"
    if not dcp_ok:
        return False, "DCP violations at: " + ", ".join(violations)
    return True, "DCP-verified"


def select_target(problem: ex.ProblemForm,
                  config: RewriterConfig = RewriterConfig()) -> AnalysisReport:
    """Try classes most-specific-first; stop at the first accepting back end."""
    dcp_ok, violations = ex.is_dcp(problem)
    if config.forced_target is not None:
        order = [config.forced_target]
    else:
        order = sorted(TargetClass)
    # LP and QP share one QP-applicability test; a forced cone needs none
    qp_ok = config.forced_target is not TargetClass.CONE and qp_applicable(problem)
    reasons: list[tuple[TargetClass, str]] = []
    winner = None
    for target in order:
        if winner is not None:
            reasons.append((target, "not tried"))
            continue
        ok, why = _class_accepts(problem, target, qp_ok, dcp_ok, violations)
        reasons.append((target, ("accepted: " if ok else "rejected: ") + why))
        if ok:
            winner = target
    if winner is None:
        if config.forced_target is not None:
            _, why = reasons[0][0], reasons[0][1]
            failure = (f"forced target {config.forced_target.name} "
                       f"rejects this problem ({why.removeprefix('rejected: ')})")
        else:
            failure = "no target class accepts this problem"
        if not dcp_ok:
            failure += "; DCP violations at: " + ", ".join(violations)
        return AnalysisReport(dcp_ok, tuple(violations), None, None,
                              tuple(reasons), failure)
    chain = build_chain(problem, winner, config)
    return AnalysisReport(dcp_ok, tuple(violations), winner, chain,
                          tuple(reasons))


_STUFFERS = {TargetClass.LP: StuffLp, TargetClass.QP: StuffQp, TargetClass.CONE: StuffCone}


def build_chain(problem: ex.ProblemForm, target: TargetClass,
                config: RewriterConfig = RewriterConfig()) -> ReductionChain:
    """``[flip?] [presolve?] graph_expand [decompose_soc?] stuff_<target>``;
    only the QP target's ``GraphExpand`` keeps the objective's squares."""
    members = []
    if problem.sense is ex.Sense.MAXIMIZE:
        members.append(FlipObjective())
    if config.presolve:
        members.append(PresolveFixedPoint())
    members.append(GraphExpand(quadratic_objective=target is TargetClass.QP))
    if config.decompose_soc:
        members.append(DecomposeSoc())
    members.append(_STUFFERS[target]())
    return ReductionChain(members)


def apply_chain(chain: ReductionChain, problem: ex.ProblemForm):
    """``chain.apply(problem)``, with a coefficient overflow blamed on the user.

    The chain sees only rewritten rows, whose numbering is its own, so an
    overflow made inside it (presolve substitution, a subtraction of two
    finite sides, a Hessian) raises the bare ``OVERFLOW`` message.  On an
    overflow the chain runs again on the objective alone, then on each
    constraint alone, and the error names the first that overflows.
    """
    try:
        return chain.apply(problem)
    except ex.ProblemError as err:
        if str(err) != ex.OVERFLOW:
            raise
        trees = [("objective", problem.objective, [])] + [
            (f"constraint {c.id}", ex.constant(0.0), [(c.lhs, c.relation, c.rhs)])
            for c in problem.constraints]
        for where, objective, cons in trees:
            try:
                chain.apply(ex.ProblemForm(problem.sense, objective, cons,
                                           problem.variables))
            except ex.ProblemError:
                raise ex.located_overflow(where) from err
        raise


@dataclass(frozen=True)
class SolveOutcome:
    """Everything a caller needs: the report, the data, and the solution."""

    report: AnalysisReport
    data: ProgramData | None = None
    raw: RawSolution | None = None
    solution: Solution | None = None


def _dispatch_solver(data: ProgramData, target: TargetClass,
                     config: RewriterConfig) -> RawSolution:
    choice = config.solver
    if target is TargetClass.CONE and choice == "simplex":
        raise AnalyzerError("simplex cannot solve cone targets")
    if choice == "simplex" or (choice == "auto" and target is TargetClass.LP):
        return solve_lp_simplex(data, config.settings)
    return solve_admm(data, config.settings)


def _raw_to_solution(raw: RawSolution, data: ProgramData) -> Solution:
    if raw.status is Status.INFEASIBLE:
        return infeasible_solution(raw.message)
    if raw.status is Status.UNBOUNDED:
        return unbounded_solution(raw.message)
    if raw.status is Status.ERROR:
        return Solution(Status.ERROR, math.nan, {}, raw.message)
    primal = {}
    for decl in data.variables:
        start, length = data.var_offsets[decl.id]
        primal[decl.id] = np.array(raw.x[start:start + length], dtype=float)
    value = raw.value + data.offset
    return Solution(raw.status, float(value), primal, raw.message)


def solve_problem(problem: ex.ProblemForm,
                  config: RewriterConfig = RewriterConfig()) -> SolveOutcome:
    """analyze -> canonicalize -> solve -> retrieve, as one call."""
    report = select_target(problem, config)
    if report.target is None:
        return SolveOutcome(report)
    data, record = apply_chain(report.chain, problem)
    raw = _dispatch_solver(data, report.target, config)
    solution = report.chain.retrieve(_raw_to_solution(raw, data), record)
    return SolveOutcome(report, data, raw, solution)
