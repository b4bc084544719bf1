"""Conic canonicalization: Smith form, relaxation, graph expansion, stuffing.

The pipeline lowers a DCP problem to ``minimize q'x + offset  s.t.  b - Ax in
K`` where K stacks a zero cone, a nonnegative orthant, and second-order cones,
in that fixed block order.  ``ProgramData`` holds that form, with a quadratic
term ``P`` added, for every target: LP and QP stuffing write it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import expressions as ex
from .framework import Reduction, ReductionError, Solution
from .standard import (CanonConstraint, CanonStage, scalar_components,
                       smart_sub)

__all__ = [
    "SmithProblem", "SmithTransform", "RelaxSmith", "GraphExpand",
    "ConeDims", "ProgramData", "StuffCone", "stack_variables", "stack_rows",
    "affine_row_data", "require_finite",
]


@dataclass(frozen=True)
class SmithProblem:
    """A problem whose nonlinear atoms all sit in defining constraints t == f.

    ``aux_atoms`` maps each fresh variable id to the atom expression it
    replaced (with already-smithed, affine arguments); ``aux_sigma`` records
    the scaling sign of the replaced occurrence, used to pick the relaxation
    direction.  ``source`` keeps the pre-transform problem for DCP gating.
    """

    problem: ex.ProblemForm
    source: ex.ProblemForm
    aux_atoms: dict[int, ex.ExpressionNode] = field(default_factory=dict)
    aux_sigma: dict[int, int] = field(default_factory=dict)


class SmithTransform(Reduction):
    """Pull every nonlinear atom application into a ``t == atom(args)`` row.

    Affine subtrees (constants included) are kept intact, so the output is the
    pragmatic Smith form: every atom in the transformed problem has affine
    arguments.  Defining constraints for the objective come first, then each
    user constraint follows its own defining rows; within one expression,
    inner atoms are defined before the atoms that use them.
    """

    name = "smith_transform"

    def accepts(self, problem) -> bool:
        return isinstance(problem, ex.ProblemForm)

    def apply(self, problem):
        self._check(problem)
        pool = ex.VariablePool(problem.variables)
        aux_atoms: dict[int, ex.ExpressionNode] = {}
        aux_sigma: dict[int, int] = {}
        cons: list = []

        def nonlinear(node):
            return ex.ATOMS[node.atom].curvature_class is not ex.Curvature.AFFINE

        def replace(expr, sigma):
            # A nonlinear atom takes its aux id on the way down and appends
            # its defining row on the way up, after its arguments' rows.
            pending = []  # aux of each nonlinear atom entered, not yet left

            def enter(node, _):
                if node.kind != "atom" or node.curvature.is_affine:
                    return False
                if nonlinear(node):
                    pending.append(pool.fresh("_t", node.dim))
                return True

            def leave(node, children, s):
                if node.kind != "atom" or node.curvature.is_affine:
                    return node
                body = ex.rebuild(node, children)
                if not nonlinear(node):
                    return body
                aux = pending.pop()
                cons.append((ex.var_ref(aux), ex.Relation.EQ, body))
                aux_atoms[aux.id] = body
                aux_sigma[aux.id] = s
                return ex.var_ref(aux)

            return ex.fold(expr, leave, enter, ex.child_sign, sigma)

        objective = replace(problem.objective, ex.ROOT_SIGNS[problem.sense])
        for c in problem.constraints:
            fl, fr = ex.ROOT_SIGNS[c.relation]
            lhs = replace(c.lhs, fl)
            rhs = replace(c.rhs, fr)
            cons.append((lhs, c.relation, rhs))
        out = ex.make_problem(problem.sense, objective, cons, pool.variables)
        smith = SmithProblem(out, problem, aux_atoms, aux_sigma)
        return smith, self._record(aux=sorted(aux_atoms))

    def retrieve(self, solution, record):
        drop = set(record.payload["aux"])
        primal = {k: v for k, v in solution.primal.items() if k not in drop}
        return Solution(solution.status, solution.value, primal,
                        solution.message)


class RelaxSmith(Reduction):
    """Relax each defining equality ``t == f(args)`` to ``f(args) <= t``.

    Every nonlinear atom in the set is convex, so the epigraph direction is
    the only one needed; it is valid exactly when the replaced occurrence had
    positive scaling, which the DCP gate plus the sigma check enforce.  At an
    optimum the relaxation is tight, so dropping the epigraph variables
    retrieves a solution of the unrelaxed problem.
    """

    name = "relax_smith"

    def accepts(self, smith) -> bool:
        if not isinstance(smith, SmithProblem):
            return False
        ok, _ = ex.is_dcp(smith.source)
        if not ok:
            return False
        return all(sigma == +1 for sigma in smith.aux_sigma.values())

    def apply(self, smith):
        self._check(smith)
        inner = smith.problem
        cons = []
        for c in inner.constraints:
            if c.relation is ex.Relation.EQ and c.lhs.kind == "var" \
                    and c.lhs.var_id in smith.aux_atoms:
                cons.append((c.rhs, ex.Relation.LE, c.lhs))
            else:
                cons.append((c.lhs, c.relation, c.rhs))
        out = ex.make_problem(inner.sense, inner.objective, cons,
                              inner.variables)
        return out, self._record()

    def retrieve(self, solution, record):
        return solution


class GraphExpand(Reduction):
    """Swap each relaxed atom inequality for its cone-constraint graph.

    Affine constraints map directly (EQ to a zero cone, LE/GE to the
    nonnegative orthant); ``abs``/``max`` produce orthant rows, ``norm2`` a
    second-order cone, and ``square``/``sum_squares`` the standard embedding
    ``norm2((2y, 1-t)) <= 1+t``, row by row for the elementwise ``square``.
    """

    name = "graph_expand"

    def accepts(self, problem) -> bool:
        if not isinstance(problem, ex.ProblemForm):
            return False
        if not problem.objective.curvature.is_affine:
            return False
        for c in problem.constraints:
            if c.lhs.curvature.is_affine and c.rhs.curvature.is_affine:
                continue
            if c.relation is ex.Relation.LE and c.lhs.kind == "atom" \
                    and c.rhs.curvature.is_affine \
                    and all(a.curvature.is_affine for a in c.lhs.children):
                continue
            return False
        return True

    def apply(self, problem):
        self._check(problem)
        one = ex.constant(1.0)
        two = ex.constant(2.0)
        cones: list[CanonConstraint] = []

        def emit(kind, *args):
            cones.append(getattr(CanonConstraint, kind)(len(cones), *args))

        for c in problem.constraints:
            if c.lhs.curvature.is_affine and c.rhs.curvature.is_affine:
                if c.relation is ex.Relation.EQ:
                    emit("zero", smart_sub(c.lhs, c.rhs))
                elif c.relation is ex.Relation.LE:
                    emit("nonneg", smart_sub(c.rhs, c.lhs))
                else:
                    emit("nonneg", smart_sub(c.lhs, c.rhs))
                continue
            t, f = c.rhs, c.lhs
            if f.atom == "abs":
                (y,) = f.children
                emit("nonneg", smart_sub(t, y))
                emit("nonneg", ex.add(t, y))
            elif f.atom == "max":
                for y in f.children:
                    emit("nonneg", smart_sub(t, y))
            elif f.atom == "norm2":
                (y,) = f.children
                emit("soc", t, (y,))
            elif f.atom == "sum_squares":
                (y,) = f.children
                emit("soc", ex.add(one, t), (ex.mul(two, y), smart_sub(one, t)))
            elif f.atom == "square":
                (y,) = f.children
                for yi, ti in zip(scalar_components(y), scalar_components(t)):
                    emit("soc", ex.add(one, ti),
                         (ex.mul(two, yi), smart_sub(one, ti)))
            else:  # pragma: no cover - the atom set is closed
                raise ReductionError(
                    f"no graph implementation for atom '{f.atom}'")
        stage = CanonStage(problem.objective, tuple(cones),
                           tuple(problem.variables))
        return stage, self._record()

    def retrieve(self, solution, record):
        return solution


@dataclass(frozen=True)
class ConeDims:
    """Row counts of the stacked cone: zero, nonneg, then SOC dimensions."""

    zero: int
    nonneg: int
    soc: tuple[int, ...]

    @property
    def total(self) -> int:
        return self.zero + self.nonneg + sum(self.soc)


@dataclass(frozen=True)
class ProgramData:
    """minimize ½xᵀPx + qᵀx + offset  subject to  b - Ax in K.

    K is ``cones``: equality rows, then inequality rows, then SOC blocks.  An
    LP has no ``P`` (None) and no SOC, a QP no SOC, a cone program no ``P``.
    """

    P: np.ndarray | None
    q: np.ndarray
    offset: float
    A: np.ndarray
    b: np.ndarray
    cones: ConeDims
    var_offsets: dict[int, tuple[int, int]]
    variables: tuple[ex.VariableDecl, ...]

    def __post_init__(self):
        m, n = self.cones.total, self.q.size
        if self.A.shape != (m, n) or self.b.shape != (m,):
            raise ValueError(f"A {self.A.shape} and b {self.b.shape} do not "
                             f"fit {m} cone rows over {n} variables")
        if self.P is not None and self.P.shape != (n, n):
            raise ValueError(f"P {self.P.shape} does not fit {n} variables")


def stack_variables(variables) -> tuple[dict[int, tuple[int, int]], int]:
    """``({id: (start, dim)}, width)`` for the variables stacked in order."""
    starts = np.cumsum([0] + [v.dim for v in variables])
    return {v.id: (int(s), v.dim) for v, s in zip(variables, starts)}, int(starts[-1])


def stack_rows(blocks, width) -> tuple[np.ndarray, np.ndarray]:
    """``(A, b)`` from ``(M, k)`` row blocks, stacked in order in one copy."""
    if not blocks:
        return np.zeros((0, width)), np.zeros(0)
    return np.vstack([M for M, _ in blocks]), np.concatenate([k for _, k in blocks])


def require_finite(where: str, *arrays) -> None:
    """Reject stuffed data that a product of large constants overflowed."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ex.ProblemError(f"{where}: a coefficient overflows to a non-finite value")


def affine_row_data(expr: ex.ExpressionNode,
                    var_offsets: dict[int, tuple[int, int]],
                    width: int, where: str = "expression") -> tuple[np.ndarray, np.ndarray]:
    """Dense rows M and constant k with ``expr == M x + k`` over the stack.

    Every stuffer builds its rows here, so the finiteness check is here too;
    an overflow is reported by that check, not by a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs, const = ex.affine_coefficients(expr)
    M = np.zeros((expr.dim, width))
    for vid, block in coeffs.items():
        start, length = var_offsets[vid]
        M[:, start:start + length] = block
    require_finite(where, M, const)
    return M, const


class StuffCone(Reduction):
    """Stuff a canon stage into dense cone-program matrices.

    Variables stack in declaration-then-creation order; rows stack the zero
    block, then nonneg, then the SOCs (each ``(t, x...)``), every block
    preserving constraint order.  The slack identity is ``s == b - Ax`` with
    ``s`` the constraint expression itself, so zero rows carry ``A = M,
    b = -k`` and the orthant/SOC rows ``A = -M, b = k``.
    """

    name = "stuff_cone"

    def accepts(self, stage) -> bool:
        if not isinstance(stage, CanonStage):
            return False
        if not stage.objective.curvature.is_affine:
            return False
        for cone in stage.constraints:
            exprs = (cone.expr,) if cone.kind != "soc" else (cone.t,) + cone.x
            if not all(e.curvature.is_affine for e in exprs):
                return False
        return True

    def apply(self, stage):
        self._check(stage)
        var_offsets, width = stack_variables(stage.variables)

        def rows_of(cones, sign):
            for cone in cones:
                for e in ((cone.expr,) if cone.kind != "soc" else (cone.t,) + cone.x):
                    M, k = affine_row_data(e, var_offsets, width, f"cone constraint {cone.id}")
                    yield sign * M, -sign * k

        zero = [c for c in stage.constraints if c.kind == "zero"]
        nonneg = [c for c in stage.constraints if c.kind == "nonneg"]
        soc = [c for c in stage.constraints if c.kind == "soc"]
        A, b = stack_rows([*rows_of(zero, +1.0), *rows_of(nonneg, -1.0),
                           *rows_of(soc, -1.0)], width)
        c_row, offset = affine_row_data(stage.objective, var_offsets, width, "objective")
        dims = ConeDims(sum(c.expr.dim for c in zero),
                        sum(c.expr.dim for c in nonneg),
                        tuple(1 + c.soc_x_dim for c in soc))
        data = ProgramData(None, c_row[0], float(offset[0]), A, b, dims,
                           var_offsets, tuple(stage.variables))
        return data, self._record()

    def retrieve(self, solution, record):
        return solution
