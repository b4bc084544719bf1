"""The standard reduction library.

Problem-level rewritings: objective flipping, constraint normalization, slack
introduction, syntactic presolves, piecewise-linear atom elimination, and
second-order cone decomposition.  Each is invertible through its
:class:`InverseRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .. import expressions as ex
from .framework import Reduction, ReductionChain, Status

__all__ = [
    "FlipObjective", "MoveToLhs", "EliminateLinearInequalities",
    "EliminateFixedVariables", "SplitFreeVariables",
    "DropRedundantConstraints", "ScaleConstraints", "PresolveFixedPoint",
    "EliminatePwlAtoms", "DecomposeSoc", "CanonConstraint", "CanonStage",
    "trivially_infeasible_problem", "is_zero_constant", "smart_sub", "lhs_row",
    "scalar_components",
]

_ZERO = ex.constant(0.0)


def is_zero_constant(e: ex.ExpressionNode) -> bool:
    # a constant carries the sign of its value: ZERO when every entry is 0
    return e.kind == "const" and e.sign is ex.Sign.ZERO


def smart_sub(a: ex.ExpressionNode, b: ex.ExpressionNode) -> ex.ExpressionNode:
    """``a - b``, or ``a`` itself when ``b`` is the zero constant."""
    return a if is_zero_constant(b) else ex.sub(a, b)


def lhs_row(lhs: ex.ExpressionNode, relation: ex.Relation,
            rhs: ex.ExpressionNode) -> ex.ExpressionNode:
    """The row ``e`` with ``lhs relation rhs`` iff ``e == 0`` (EQ) or ``e <= 0``:
    ``lhs - rhs``, or ``rhs - lhs`` for GE.  A form built by subtraction keeps
    its left operand's blocks, so the row holds that operand's own arrays."""
    if relation is ex.Relation.GE:
        return smart_sub(rhs, lhs)
    return smart_sub(lhs, rhs)


def trivially_infeasible_problem() -> ex.ProblemForm:
    """The placeholder problem emitted when a presolve proves infeasibility.

    It is feasible and trivially solvable; the emitting reduction records an
    ``infeasible`` message, so retrieval reports Infeasible whatever the
    downstream pipeline says.
    """
    return ex.ProblemForm(ex.Sense.MINIMIZE, ex.constant(0.0), [], [])


class FlipObjective(Reduction):
    """Turn a maximization into a minimization of the negated objective."""

    name = "flip_objective"

    def accepts(self, problem) -> bool:
        return isinstance(problem, ex.ProblemForm) and problem.sense is ex.Sense.MAXIMIZE

    def rewrite(self, problem):
        flipped = ex.ProblemForm(ex.Sense.MINIMIZE, ex.neg(problem.objective),
                                 problem.constraints, problem.variables)
        return flipped, self._record()

    def retrieve(self, solution, record):
        return replace(solution, value=-solution.value)


class MoveToLhs(Reduction):
    """Rewrite every constraint as ``expr <= 0`` or ``expr == 0``, ``expr``
    its :func:`lhs_row`.  No chain places it: ``GraphExpand`` writes the same
    rows."""

    name = "move_to_lhs"

    def accepts(self, problem) -> bool:
        return isinstance(problem, ex.ProblemForm)

    def rewrite(self, problem):
        cons = [(lhs_row(c.lhs, c.relation, c.rhs),
                 ex.Relation.EQ if c.relation is ex.Relation.EQ else ex.Relation.LE, _ZERO)
                for c in problem.constraints]
        out = ex.ProblemForm(problem.sense, problem.objective, cons, problem.variables)
        return out, self._record()


class EliminateLinearInequalities(Reduction):
    """Replace each affine inequality with an equality plus a slack >= 0."""

    name = "eliminate_linear_inequalities"

    def accepts(self, problem) -> bool:
        if not isinstance(problem, ex.ProblemForm):
            return False
        return all(c.lhs.curvature.is_affine and c.rhs.curvature.is_affine
                   for c in problem.constraints
                   if c.relation is not ex.Relation.EQ)

    def rewrite(self, problem):
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
        out = ex.ProblemForm(problem.sense, problem.objective, cons, pool.variables)
        slack_ids = [v.id for v in pool.variables[len(problem.variables):]]
        return out, self._record(aux=slack_ids)


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

    def rewrite(self, problem):
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
                        self._record(infeasible="contradictory variable fixings",
                                     fixed={}))
            fixed.setdefault(vid, value)
            defining.add(c.id)
        if not fixed:
            return problem, self._record(infeasible="", fixed={})
        mapping = {vid: ex.constant(val) for vid, val in fixed.items()}
        objective = ex.substitute_variables(problem.objective, mapping)
        cons = []
        for c in problem.constraints:
            if c.id in defining:
                continue
            cons.append((ex.substitute_variables(c.lhs, mapping), c.relation,
                         ex.substitute_variables(c.rhs, mapping)))
        variables = [v for v in problem.variables if v.id not in fixed]
        out = ex.ProblemForm(problem.sense, objective, cons, variables)
        return out, self._record(infeasible="",
                                 fixed={vid: val for vid, val in fixed.items()})

    def retrieve(self, solution, record):
        solution = super().retrieve(solution, record)
        if solution.status not in (Status.OPTIMAL, Status.ITERATION_LIMIT):
            return solution
        primal = dict(solution.primal)
        for vid, val in record.payload["fixed"].items():
            primal[vid] = np.asarray(val, dtype=float)
        return replace(solution, primal=primal)


class SplitFreeVariables(Reduction):
    """Write each unmarked variable as a difference of nonnegative parts.

    A variable counts as marked nonnegative when a ``v >= 0`` (or ``0 <= v``)
    constraint is already present, as after slack elimination.
    """

    name = "split_free_variables"

    def accepts(self, problem) -> bool:
        return isinstance(problem, ex.ProblemForm)

    def rewrite(self, problem):
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
        out = ex.ProblemForm(problem.sense, objective, cons + new_cons, variables)
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
        return replace(solution, primal=primal)


def _scalar_bound(c: ex.ConstraintDecl, dims: dict[int, int]):
    """Classify a scalar affine inequality as a bound on a scalar variable.

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
    (vid, (_, _, vals)), = coeffs.items()
    if dims[vid] != 1 or vals.size != 1 or vals[0] == 0.0:
        return None
    a, k = float(vals[0]), float(const[0])
    # a*x + k <= 0 (LE) or >= 0 (GE)
    le = c.relation is ex.Relation.LE
    if (a > 0) == le:
        return vid, "upper", -k / a
    return vid, "lower", -k / a


class DropRedundantConstraints(Reduction):
    """Remove duplicates, constant-true rows, and dominated scalar bounds.

    A constant-false row makes the output trivially infeasible.  Otherwise
    retrieval is a no-op because removals never change the feasible region.
    """

    name = "drop_redundant_constraints"

    def accepts(self, problem) -> bool:
        return isinstance(problem, ex.ProblemForm)

    def rewrite(self, problem):
        best: dict[tuple[int, str], tuple[float, int]] = {}
        bounds: dict[int, tuple[int, str, float]] = {}
        dims = {v.id: v.dim for v in problem.variables}
        for c in problem.constraints:
            hit = _scalar_bound(c, dims)
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
                            self._record(infeasible="a constant constraint is violated"))
                continue
            if c.id in bounds:
                vid, side, _ = bounds[c.id]
                if best[(vid, side)][1] != c.id:
                    continue
            seen.add(key)
            kept.append((c.lhs, c.relation, c.rhs))
        out = ex.ProblemForm(problem.sense, problem.objective, kept,
                             problem.variables)
        return out, self._record(infeasible="")


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

    def rewrite(self, problem):
        cons = []
        for c in problem.constraints:
            diff = smart_sub(c.lhs, c.rhs)
            coeffs, _ = ex.affine_coefficients(diff)
            dim = c.dim
            norms = np.zeros(diff.dim)
            for rows, _, vals in coeffs.values():
                np.maximum.at(norms, rows, np.abs(vals))
            norms = np.broadcast_to(norms, (dim,))
            scale = np.where(norms > 0.0,
                             1.0 / np.where(norms > 0.0, norms, 1.0), 1.0)
            if np.all(scale == 1.0):
                cons.append((c.lhs, c.relation, c.rhs))
            else:
                factor = ex.constant(scale if dim > 1 else float(scale[0]))
                cons.append((ex.mul(factor, c.lhs), c.relation,
                             ex.mul(factor, c.rhs)))
        out = ex.ProblemForm(problem.sense, problem.objective, cons,
                             problem.variables)
        return out, self._record()


class PresolveFixedPoint(Reduction):
    """Cycle the syntactic presolves until a fixed point, capped at 20 rounds."""

    name = "presolve_fixed_point"
    MAX_ROUNDS = 20

    def __init__(self):
        self.round = ReductionChain([EliminateFixedVariables(),
                                     DropRedundantConstraints()])

    def accepts(self, problem) -> bool:
        return isinstance(problem, ex.ProblemForm)

    def rewrite(self, problem):
        records = []
        current = problem
        for _ in range(self.MAX_ROUNDS):
            before = current
            current, rec = self.round.apply(current)
            records.append(rec)
            if current == before:
                break
        return current, self._record(records=records, rounds=len(records))

    def retrieve(self, solution, record):
        for rec in reversed(record.payload["records"]):
            solution = self.round.retrieve(solution, rec)
        return solution


class EliminatePwlAtoms(Reduction):
    """Replace each abs/max with a variable ``t`` and a row ``y <= t`` per piece ``y``.

    Constraints produced for the objective come first, then, per user
    constraint, its epigraph rows followed by the rewritten constraint.  The
    walk keeps affine subtrees, which are leaves, as written, so no
    piecewise-linear atom remains.  Every DCP problem is accepted: an abs or
    max node is convex, so DCP admits it only at scaling sign +1, where its
    epigraph is exact.  No chain places it: ``GraphExpand`` writes the same
    rows, as ``y - t <= 0``.
    """

    name = "eliminate_pwl_atoms"

    def accepts(self, problem) -> bool:
        return isinstance(problem, ex.ProblemForm) and ex.is_dcp(problem)[0]

    def rewrite(self, problem):
        pool = ex.VariablePool(problem.variables)
        cons: list = []

        def expand(expr):
            # Aux variables are created in post-order: inner atoms first.
            def leave(node, children, _):
                if node.kind != "atom":
                    return node
                pieces = ex.ATOMS[node.atom].pieces
                if pieces is None:
                    return ex.rebuild(node, children)
                t = ex.var_ref(pool.fresh("_t", node.dim))
                cons.extend((y, ex.Relation.LE, t) for y in pieces(children))
                return t

            return ex.fold(expr, leave)

        objective = expand(problem.objective)
        for c in problem.constraints:
            lhs = expand(c.lhs)
            rhs = expand(c.rhs)
            cons.append((lhs, c.relation, rhs))
        out = ex.ProblemForm(problem.sense, objective, cons, pool.variables)
        aux_ids = [v.id for v in pool.variables[len(problem.variables):]]
        return out, self._record(aux=aux_ids)


# --- canonical cone-stage constraints ---------------------------------------


@dataclass(frozen=True)
class CanonConstraint:
    """A cone-stage constraint over affine expressions.

    kind "zero": expr == 0 elementwise; kind "nonpos": expr <= 0 elementwise;
    kind "soc": ||stack(x)||_2 <= t with scalar affine t and affine pieces x,
    or, when t has dim k > 1 and every piece dim k, the block of k cones
    ||(x_1[i], x_2[i], ...)||_2 <= t[i].
    """

    kind: str
    expr: ex.ExpressionNode | None = None
    t: ex.ExpressionNode | None = None
    x: tuple[ex.ExpressionNode, ...] = ()

    @staticmethod
    def zero(expr):
        return CanonConstraint("zero", expr=expr)

    @staticmethod
    def nonpos(expr):
        return CanonConstraint("nonpos", expr=expr)

    @staticmethod
    def soc(t, x):
        return CanonConstraint("soc", t=t, x=tuple(x))

    @property
    def soc_x_dim(self) -> int:
        """The dimension of each cone's x part."""
        return sum(e.dim for e in self.x) // self.t.dim


@dataclass(frozen=True)
class CanonStage:
    """``GraphExpand``'s output, which every stuffer reads: an objective, affine
    or, on the QP route, affine in squares of affine terms, plus cone-stage
    constraints."""

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

    def rewrite(self, stage: CanonStage):
        pool = ex.VariablePool(stage.variables)
        out: list[CanonConstraint] = []
        for cone in stage.constraints:
            if cone.kind != "soc" or cone.soc_x_dim <= 2:
                out.append(cone)
                continue
            comps = [c for e in cone.x for c in scalar_components(e)]
            # bounds[j] bounds ||comps[j:]||: the cone's t, then one fresh u
            # per peeled coordinate, allocated outermost first.
            bounds = [cone.t] + [ex.var_ref(pool.fresh("_u"))
                                 for _ in range(len(comps) - 2)]
            # The innermost cone comes first, the one bounded by t last.
            out.append(CanonConstraint.soc(bounds[-1], comps[-2:]))
            for j in range(len(comps) - 3, -1, -1):
                out.append(CanonConstraint.soc(bounds[j], (comps[j], bounds[j + 1])))
        aux_ids = [v.id for v in pool.variables[len(stage.variables):]]
        return (CanonStage(stage.objective, tuple(out), tuple(pool.variables)),
                self._record(aux=aux_ids))
