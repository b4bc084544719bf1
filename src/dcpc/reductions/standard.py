"""The standard reduction library.

Problem-level rewritings: objective flipping, constraint normalization, slack
introduction, syntactic presolves, piecewise-linear atom elimination, and
second-order cone decomposition.  Each is invertible through its
:class:`InverseRecord`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import expressions as ex
from .framework import (InverseRecord, Reduction, ReductionError, Solution,
                        Status)

__all__ = [
    "FlipObjective", "MoveToLhs", "EliminateLinearInequalities",
    "EliminateFixedVariables", "SplitFreeVariables",
    "DropRedundantConstraints", "ScaleConstraints", "PresolveFixedPoint",
    "EliminatePwlAtoms", "DecomposeSoc", "CanonConstraint", "CanonStage",
    "trivially_infeasible_problem", "is_zero_constant", "smart_sub",
    "scalar_components",
]

_ZERO = ex.constant(0.0)


def is_zero_constant(e: ex.ExpressionNode) -> bool:
    return e.kind == "const" and bool(np.all(e.payload == 0.0))


def smart_sub(a: ex.ExpressionNode, b: ex.ExpressionNode) -> ex.ExpressionNode:
    """``a - b`` with constant folding that keeps trees tidy."""
    if is_zero_constant(b):
        return a
    if is_zero_constant(a):
        return ex.neg(b)
    if b.kind == "const":
        return ex.add(a, ex.constant(-b.payload))
    return ex.sub(a, b)


def trivially_infeasible_problem() -> ex.ProblemForm:
    """The placeholder problem emitted when a presolve proves infeasibility.

    It is feasible and trivially solvable; the emitting reduction's retrieve
    overrides whatever the downstream pipeline reports with Infeasible.
    """
    return ex.make_problem(ex.Sense.MINIMIZE, ex.constant(0.0), [], [])


class FlipObjective(Reduction):
    """Turn a maximization into a minimization of the negated objective."""

    name = "flip_objective"

    def accepts(self, problem) -> bool:
        return isinstance(problem, ex.ProblemForm) and problem.sense is ex.Sense.MAXIMIZE

    def apply(self, problem):
        self._check(problem)
        flipped = ex.make_problem(ex.Sense.MINIMIZE, ex.neg(problem.objective),
                                  problem.constraints, problem.variables)
        return flipped, self._record()

    def retrieve(self, solution, record):
        return Solution(solution.status, -solution.value, solution.primal,
                        solution.message)


class MoveToLhs(Reduction):
    """Rewrite every constraint as ``expr <= 0`` or ``expr == 0``."""

    name = "move_to_lhs"

    def accepts(self, problem) -> bool:
        return isinstance(problem, ex.ProblemForm)

    def apply(self, problem):
        self._check(problem)
        cons = []
        for c in problem.constraints:
            if c.relation is ex.Relation.GE:
                cons.append((smart_sub(c.rhs, c.lhs), ex.Relation.LE, _ZERO))
            else:
                cons.append((smart_sub(c.lhs, c.rhs), c.relation, _ZERO))
        out = ex.make_problem(problem.sense, problem.objective, cons, problem.variables)
        return out, self._record()

    def retrieve(self, solution, record):
        return solution


class EliminateLinearInequalities(Reduction):
    """Replace each affine inequality with an equality plus a slack >= 0."""

    name = "eliminate_linear_inequalities"

    def accepts(self, problem) -> bool:
        if not isinstance(problem, ex.ProblemForm):
            return False
        return all(c.lhs.curvature.is_affine and c.rhs.curvature.is_affine
                   for c in problem.constraints
                   if c.relation is not ex.Relation.EQ)

    def apply(self, problem):
        self._check(problem)
        pool = ex.VariablePool(problem.variables)
        cons = []
        for c in problem.constraints:
            if c.relation is ex.Relation.EQ:
                cons.append((c.lhs, c.relation, c.rhs))
                continue
            s = ex.var_ref(pool.fresh("_s", c.dim))
            if c.relation is ex.Relation.LE:
                cons.append((ex.add(c.lhs, s), ex.Relation.EQ, c.rhs))
            else:  # f >= g  <=>  (g - f) + s == 0
                cons.append((ex.add(smart_sub(c.rhs, c.lhs), s), ex.Relation.EQ, _ZERO))
            cons.append((s, ex.Relation.GE, _ZERO))
        out = ex.make_problem(problem.sense, problem.objective, cons, pool.variables)
        slack_ids = [v.id for v in pool.variables[len(problem.variables):]]
        return out, self._record(slacks=slack_ids)

    def retrieve(self, solution, record):
        drop = set(record.payload["slacks"])
        primal = {k: v for k, v in solution.primal.items() if k not in drop}
        return Solution(solution.status, solution.value, primal, solution.message)


def _fixing(c: ex.ConstraintDecl):
    """Return (var_node, value_vector) for syntactic ``x == constant``."""
    if c.relation is not ex.Relation.EQ:
        return None
    for var_side, const_side in ((c.lhs, c.rhs), (c.rhs, c.lhs)):
        if var_side.kind == "var" and const_side.kind == "const":
            val = const_side.payload
            if val.shape[0] == var_side.dim:
                return var_side, val
            if val.shape[0] == 1:
                return var_side, np.full(var_side.dim, val[0])
    return None


class EliminateFixedVariables(Reduction):
    """Substitute variables pinned by ``x == constant`` constraints.

    Contradictory pins turn the output into the trivially infeasible
    placeholder; retrieval then reports Infeasible outright.
    """

    name = "eliminate_fixed_variables"

    def accepts(self, problem) -> bool:
        return isinstance(problem, ex.ProblemForm)

    def apply(self, problem):
        self._check(problem)
        fixed: dict[int, np.ndarray] = {}
        defining: set[int] = set()
        for c in problem.constraints:
            hit = _fixing(c)
            if hit is None:
                continue
            var_node, value = hit
            vid = var_node.var_id
            if vid in fixed and not np.array_equal(fixed[vid], value):
                return (trivially_infeasible_problem(),
                        self._record(infeasible=True, fixed={}))
            fixed.setdefault(vid, value)
            defining.add(c.id)
        if not fixed:
            return problem, self._record(infeasible=False, fixed={})
        mapping = {vid: ex.constant(val) for vid, val in fixed.items()}
        objective = ex.substitute_variables(problem.objective, mapping)
        cons = []
        for c in problem.constraints:
            if c.id in defining:
                continue
            cons.append((ex.substitute_variables(c.lhs, mapping), c.relation,
                         ex.substitute_variables(c.rhs, mapping)))
        variables = [v for v in problem.variables if v.id not in fixed]
        out = ex.make_problem(problem.sense, objective, cons, variables)
        return out, self._record(infeasible=False,
                                 fixed={vid: val for vid, val in fixed.items()})

    def retrieve(self, solution, record):
        if record.payload["infeasible"]:
            return Solution(Status.INFEASIBLE, math.inf, {},
                            "contradictory variable fixings")
        if solution.status not in (Status.OPTIMAL, Status.ITERATION_LIMIT):
            return solution
        primal = dict(solution.primal)
        for vid, val in record.payload["fixed"].items():
            primal[vid] = np.asarray(val, dtype=float)
        return Solution(solution.status, solution.value, primal, solution.message)


class SplitFreeVariables(Reduction):
    """Write each unmarked variable as a difference of nonnegative parts.

    A variable counts as marked nonnegative when a ``v >= 0`` (or ``0 <= v``)
    constraint is already present, as after slack elimination.
    """

    name = "split_free_variables"

    def accepts(self, problem) -> bool:
        return isinstance(problem, ex.ProblemForm)

    def apply(self, problem):
        self._check(problem)
        marked = set()
        for c in problem.constraints:
            if c.relation is ex.Relation.GE and c.lhs.kind == "var" \
                    and is_zero_constant(c.rhs):
                marked.add(c.lhs.var_id)
            if c.relation is ex.Relation.LE and c.rhs.kind == "var" \
                    and is_zero_constant(c.lhs):
                marked.add(c.rhs.var_id)
        free = [v for v in problem.variables if v.id not in marked]
        if not free:
            return problem, self._record(splits={})
        pool = ex.VariablePool(problem.variables)
        mapping = {}
        splits = {}
        new_cons = []
        for v in free:
            pos = pool.fresh("_p", v.dim)
            neg_part = pool.fresh("_n", v.dim)
            mapping[v.id] = ex.sub(ex.var_ref(pos), ex.var_ref(neg_part))
            splits[v.id] = (pos.id, neg_part.id)
            new_cons.append((ex.var_ref(pos), ex.Relation.GE, _ZERO))
            new_cons.append((ex.var_ref(neg_part), ex.Relation.GE, _ZERO))
        variables = [v for v in pool.variables if v.id not in mapping]
        objective = ex.substitute_variables(problem.objective, mapping)
        cons = [(ex.substitute_variables(c.lhs, mapping), c.relation,
                 ex.substitute_variables(c.rhs, mapping))
                for c in problem.constraints]
        out = ex.make_problem(problem.sense, objective, cons + new_cons, variables)
        return out, self._record(splits=splits)

    def retrieve(self, solution, record):
        splits = record.payload["splits"]
        if not splits or solution.status not in (Status.OPTIMAL,
                                                 Status.ITERATION_LIMIT):
            return solution
        primal = dict(solution.primal)
        for vid, (pid, nid) in splits.items():
            primal[vid] = primal[pid] - primal[nid]
            del primal[pid], primal[nid]
        return Solution(solution.status, solution.value, primal, solution.message)


def _scalar_bound(c: ex.ConstraintDecl):
    """Classify a scalar affine inequality as a one-variable bound.

    Returns ``(var_id, side, bound)`` where side is "upper" for ``x <= bound``
    and "lower" for ``x >= bound``; None when the constraint is not a bound.
    """
    if c.relation is ex.Relation.EQ or c.dim != 1:
        return None
    diff = smart_sub(c.lhs, c.rhs)
    if not diff.curvature.is_affine:
        return None
    coeffs, const = ex.affine_coefficients(diff)
    if len(coeffs) != 1:
        return None
    (vid, M), = coeffs.items()
    if M.shape != (1, 1) or M[0, 0] == 0.0:
        return None
    a, k = float(M[0, 0]), float(const[0])
    # a*x + k <= 0 (LE) or >= 0 (GE)
    le = c.relation is ex.Relation.LE
    if (a > 0) == le:
        return vid, "upper", -k / a
    return vid, "lower", -k / a


class DropRedundantConstraints(Reduction):
    """Remove duplicates, constant-true rows, and dominated scalar bounds.

    A constant-false row makes the output trivially infeasible.  Retrieval is
    a no-op because removals never change the feasible region.
    """

    name = "drop_redundant_constraints"

    def accepts(self, problem) -> bool:
        return isinstance(problem, ex.ProblemForm)

    def apply(self, problem):
        self._check(problem)
        best: dict[tuple[int, str], tuple[float, int]] = {}
        bounds: dict[int, tuple[int, str, float]] = {}
        for c in problem.constraints:
            hit = _scalar_bound(c)
            if hit is None:
                continue
            vid, side, bound = hit
            bounds[c.id] = hit
            key = (vid, side)
            better = key not in best or \
                (bound < best[key][0] if side == "upper" else bound > best[key][0])
            if better:
                best[key] = (bound, c.id)
        seen = set()
        kept = []
        for c in problem.constraints:
            key = (c.relation, c.lhs, c.rhs)
            if key in seen:
                continue
            if c.lhs.curvature.is_constant and c.rhs.curvature.is_constant:
                gap = ex.evaluate(smart_sub(c.lhs, c.rhs), {})
                ok = {ex.Relation.LE: bool(np.all(gap <= 0.0)),
                      ex.Relation.GE: bool(np.all(gap >= 0.0)),
                      ex.Relation.EQ: bool(np.all(gap == 0.0))}[c.relation]
                if not ok:
                    return (trivially_infeasible_problem(),
                            self._record(infeasible=True))
                continue
            if c.id in bounds:
                vid, side, _ = bounds[c.id]
                if best[(vid, side)][1] != c.id:
                    continue
            seen.add(key)
            kept.append((c.lhs, c.relation, c.rhs))
        out = ex.make_problem(problem.sense, problem.objective, kept,
                              problem.variables)
        return out, self._record(infeasible=False)

    def retrieve(self, solution, record):
        if record.payload["infeasible"]:
            return Solution(Status.INFEASIBLE, math.inf, {},
                            "a constant constraint is violated")
        return solution


class ScaleConstraints(Reduction):
    """Divide both sides of each constraint by its row-wise max coefficient.

    The norm covers variable coefficients only, so constants move with the
    row; all-zero rows (no variable coefficients) are left untouched, as are
    rows already at unit norm.
    """

    name = "scale_constraints"

    def accepts(self, problem) -> bool:
        if not isinstance(problem, ex.ProblemForm):
            return False
        return all(c.lhs.curvature.is_affine and c.rhs.curvature.is_affine
                   for c in problem.constraints)

    def apply(self, problem):
        self._check(problem)
        cons = []
        for c in problem.constraints:
            coeffs, _ = ex.affine_coefficients(smart_sub(c.lhs, c.rhs))
            dim = c.dim
            if coeffs:
                stacked = np.hstack([np.broadcast_to(M, (dim, M.shape[1]))
                                     for M in coeffs.values()])
                norms = np.max(np.abs(stacked), axis=1)
            else:
                norms = np.zeros(dim)
            scale = np.where(norms > 0.0,
                             1.0 / np.where(norms > 0.0, norms, 1.0), 1.0)
            if np.all(scale == 1.0):
                cons.append((c.lhs, c.relation, c.rhs))
            else:
                factor = ex.constant(scale if dim > 1 else float(scale[0]))
                cons.append((ex.mul(factor, c.lhs), c.relation,
                             ex.mul(factor, c.rhs)))
        out = ex.make_problem(problem.sense, problem.objective, cons,
                              problem.variables)
        return out, self._record()

    def retrieve(self, solution, record):
        return solution


class PresolveFixedPoint(Reduction):
    """Cycle the syntactic presolves until a fixed point, capped at 20 rounds."""

    name = "presolve_fixed_point"
    MAX_ROUNDS = 20

    def __init__(self):
        self.members = [EliminateFixedVariables(), DropRedundantConstraints()]
        self._by_name = {m.name: m for m in self.members}

    def accepts(self, problem) -> bool:
        return isinstance(problem, ex.ProblemForm)

    def apply(self, problem):
        self._check(problem)
        records = []
        current = problem
        rounds = 0
        for _ in range(self.MAX_ROUNDS):
            before = current
            for member in self.members:
                current, rec = member.apply(current)
                records.append(rec)
            rounds += 1
            if current == before:
                break
        return current, self._record(records=records, rounds=rounds)

    def retrieve(self, solution, record):
        for rec in reversed(record.payload["records"]):
            solution = self._by_name[rec.reduction].retrieve(solution, rec)
        return solution


_PWL_ATOMS = ("abs", "max")


def _pwl_positions_ok(expr: ex.ExpressionNode, sigma: int) -> bool:
    """Check every nonconstant abs/max occurrence sits at scaling sign +1."""

    def leave(node, ok, s):
        return all(ok) and (node.atom not in _PWL_ATOMS
                            or node.curvature.is_constant or s == +1)

    return ex.fold(expr, leave, ex.nonconstant, ex.child_sign, sigma)


class EliminatePwlAtoms(Reduction):
    """Replace abs/max occurrences with epigraph variables and inequalities.

    Constraints produced for the objective come first, then, per user
    constraint, its epigraph rows followed by the rewritten constraint.  Atom
    occurrences over constants fold away, so the output contains no
    piecewise-linear atoms at all.
    """

    name = "eliminate_pwl_atoms"

    def accepts(self, problem) -> bool:
        if not isinstance(problem, ex.ProblemForm):
            return False
        return ex.is_dcp(problem)[0] and all(
            _pwl_positions_ok(e, sigma) for _, e, sigma in ex.walk_expressions(problem))

    def apply(self, problem):
        self._check(problem)
        pool = ex.VariablePool(problem.variables)
        cons: list = []

        def rewrite(expr):
            # Aux variables are created in post-order: inner atoms first.
            def leave(node, children, _):
                if node.kind != "atom":
                    return node
                if node.curvature.is_constant:
                    if any(n.atom in _PWL_ATOMS for n in ex.nodes(node)):
                        return ex.constant(ex.evaluate(node, {}))
                    return node
                if node.atom not in _PWL_ATOMS:
                    return ex.rebuild(node, children)
                t = ex.var_ref(pool.fresh("_t", node.dim))
                if node.atom == "max":
                    for arg in children:
                        cons.append((arg, ex.Relation.LE, t))
                else:  # abs
                    arg = children[0]
                    cons.append((arg, ex.Relation.LE, t))
                    cons.append((ex.neg(arg), ex.Relation.LE, t))
                return t

            return ex.fold(expr, leave, ex.nonconstant)

        objective = rewrite(problem.objective)
        for c in problem.constraints:
            lhs = rewrite(c.lhs)
            rhs = rewrite(c.rhs)
            cons.append((lhs, c.relation, rhs))
        out = ex.make_problem(problem.sense, objective, cons, pool.variables)
        aux_ids = [v.id for v in pool.variables[len(problem.variables):]]
        return out, self._record(aux=aux_ids)

    def retrieve(self, solution, record):
        drop = set(record.payload["aux"])
        primal = {k: v for k, v in solution.primal.items() if k not in drop}
        return Solution(solution.status, solution.value, primal, solution.message)


# --- canonical cone-stage constraints ---------------------------------------


@dataclass(frozen=True)
class CanonConstraint:
    """A cone-stage constraint over affine expressions.

    kind "zero": expr == 0 elementwise; kind "nonneg": expr >= 0 elementwise;
    kind "soc": ||stack(x)||_2 <= t with scalar affine t and affine pieces x.
    """

    id: int
    kind: str
    expr: ex.ExpressionNode | None = None
    t: ex.ExpressionNode | None = None
    x: tuple[ex.ExpressionNode, ...] = ()

    @staticmethod
    def zero(cid, expr):
        return CanonConstraint(cid, "zero", expr=expr)

    @staticmethod
    def nonneg(cid, expr):
        return CanonConstraint(cid, "nonneg", expr=expr)

    @staticmethod
    def soc(cid, t, x):
        return CanonConstraint(cid, "soc", t=t, x=tuple(x))

    @property
    def soc_x_dim(self) -> int:
        return sum(e.dim for e in self.x)

    @property
    def rows(self) -> int:
        if self.kind == "soc":
            return 1 + self.soc_x_dim
        return self.expr.dim


@dataclass(frozen=True)
class CanonStage:
    """Affine objective plus cone-stage constraints, between expand and stuff."""

    objective: ex.ExpressionNode
    constraints: tuple[CanonConstraint, ...]
    variables: tuple[ex.VariableDecl, ...]


def scalar_components(e: ex.ExpressionNode) -> list[ex.ExpressionNode]:
    """``e`` split into its scalar entries (``e`` itself when scalar)."""
    if e.dim == 1:
        return [e]
    return [ex.index(e, i) for i in range(e.dim)]


class DecomposeSoc(Reduction):
    """Split each (n+1)-dimensional SOC into n-1 three-dimensional ones.

    ||(x1..xn)|| <= t holds iff there is a u with ||(x2..xn)|| <= u and
    ||(x1, u)|| <= t; repeating this on the first part peels one coordinate
    per fresh scalar.  Cones that are already at most three-dimensional pass
    through.
    """

    name = "decompose_soc"

    def accepts(self, problem) -> bool:
        return isinstance(problem, CanonStage)

    def apply(self, stage: CanonStage):
        self._check(stage)
        pool = ex.VariablePool(stage.variables)
        out: list[CanonConstraint] = []
        for cone in stage.constraints:
            if cone.kind != "soc" or cone.soc_x_dim <= 2:
                out.append(CanonConstraint(len(out), cone.kind, cone.expr,
                                           cone.t, cone.x))
                continue
            comps = [c for e in cone.x for c in scalar_components(e)]
            # bounds[j] bounds ||comps[j:]||: the cone's t, then one fresh u
            # per peeled coordinate, allocated outermost first.
            bounds = [cone.t] + [ex.var_ref(pool.fresh("_u"))
                                 for _ in range(len(comps) - 2)]
            # The innermost cone comes first, the one bounded by t last.
            out.append(CanonConstraint.soc(len(out), bounds[-1], comps[-2:]))
            for j in range(len(comps) - 3, -1, -1):
                out.append(CanonConstraint.soc(len(out), bounds[j],
                                               (comps[j], bounds[j + 1])))
        aux_ids = [v.id for v in pool.variables[len(stage.variables):]]
        return (CanonStage(stage.objective, tuple(out), tuple(pool.variables)),
                self._record(aux=aux_ids))

    def retrieve(self, solution, record):
        drop = set(record.payload["aux"])
        primal = {k: v for k, v in solution.primal.items() if k not in drop}
        return Solution(solution.status, solution.value, primal, solution.message)
