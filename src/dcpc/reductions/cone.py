"""Conic canonicalization: Smith form, relaxation, graph expansion, stuffing.

The pipeline lowers a DCP problem to ``minimize q'x + offset  s.t.  b - Ax in
K`` where K stacks a zero cone, a nonnegative orthant, and second-order cones,
in that fixed block order.  ``ProgramData`` holds that form, with a quadratic
term ``P`` added, for every target: LP and QP stuffing write it too.  One
gather reads the affine rows of :func:`stack_rows` and :func:`affine_row_data`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .. import expressions as ex
from ..expressions import OVERFLOW
from .framework import Reduction
from .standard import CanonConstraint, CanonStage, smart_sub

__all__ = [
    "SmithProblem", "SmithTransform", "RelaxSmith", "GraphExpand",
    "ConeDims", "ProgramData", "StuffCone", "stack_variables", "stack_rows",
    "affine_row_data", "dense_rows", "OVERFLOW",
]


@dataclass(frozen=True)
class SmithProblem:
    """A problem whose nonlinear atoms all sit in defining constraints t == f.

    ``aux_sigma`` maps each fresh variable id to the scaling sign of the atom
    occurrence it replaced, which :class:`RelaxSmith` checks before it
    relaxes.
    """

    problem: ex.ProblemForm
    aux_sigma: dict[int, int] = field(default_factory=dict)


class SmithTransform(Reduction):
    """Pull every nonlinear atom application into a ``t == atom(args)`` row.

    Affine subtrees (constants included) are leaves and kept intact, so the
    output is the pragmatic Smith form: every atom in the transformed problem
    has affine arguments.  Defining constraints for the objective come
    first, then each user constraint follows its own defining rows; within
    one expression, inner atoms are defined before the atoms that use them.
    """

    name = "smith_transform"

    def accepts(self, problem) -> bool:
        return isinstance(problem, ex.ProblemForm)

    def apply(self, problem):
        self._check(problem)
        pool = ex.VariablePool(problem.variables)
        aux_sigma: dict[int, int] = {}
        cons: list = []

        def nonlinear(node):
            return node.kind == "atom" and \
                ex.ATOMS[node.atom].curvature_class is not ex.Curvature.AFFINE

        def replace(expr, sigma):
            # A nonlinear atom takes its aux id on the way down and appends
            # its defining row on the way up, after its arguments' rows.
            pending = []  # aux of each nonlinear atom entered, not yet left

            def enter(node, _):
                if nonlinear(node):
                    pending.append(pool.fresh("_t", node.dim))
                return True

            def leave(node, children, s):
                if node.kind != "atom":
                    return node
                body = ex.rebuild(node, children)
                if not nonlinear(node):
                    return body
                aux = pending.pop()
                cons.append((ex.var_ref(aux), ex.Relation.EQ, body))
                aux_sigma[aux.id] = s
                return ex.var_ref(aux)

            return ex.fold(expr, leave, enter, ex.child_sign, sigma)

        objective = replace(problem.objective, ex.ROOT_SIGNS[problem.sense])
        for c in problem.constraints:
            fl, fr = ex.ROOT_SIGNS[c.relation]
            lhs = replace(c.lhs, fl)
            rhs = replace(c.rhs, fr)
            cons.append((lhs, c.relation, rhs))
        out = ex.ProblemForm(problem.sense, objective, cons, pool.variables)
        return SmithProblem(out, aux_sigma), self._record(aux=sorted(aux_sigma))


class RelaxSmith(Reduction):
    """Relax each defining equality ``t == f(args)`` to ``f(args) <= t``.

    Every nonlinear atom in the set is convex, so the epigraph direction is
    the only one needed; it is valid exactly when the replaced occurrence had
    positive scaling.  That sigma check is the cone chain's DCP gate: with
    only convex nonlinear atoms, a problem is DCP exactly when every one of
    them sits at scaling sign +1.  At an optimum the relaxation is tight, so
    dropping the epigraph variables retrieves a solution of the unrelaxed
    problem.
    """

    name = "relax_smith"

    def accepts(self, smith) -> bool:
        return isinstance(smith, SmithProblem) and \
            all(sigma == +1 for sigma in smith.aux_sigma.values())

    def apply(self, smith):
        self._check(smith)
        inner = smith.problem
        cons = []
        for c in inner.constraints:
            if c.relation is ex.Relation.EQ and c.lhs.kind == "var" \
                    and c.lhs.var_id in smith.aux_sigma:
                cons.append((c.rhs, ex.Relation.LE, c.lhs))
            else:
                cons.append((c.lhs, c.relation, c.rhs))
        out = ex.ProblemForm(inner.sense, inner.objective, cons, inner.variables)
        return out, self._record()


class GraphExpand(Reduction):
    """Swap each relaxed atom inequality for its cone-constraint graph.

    Affine constraints map directly (EQ to a zero cone, LE/GE to the
    nonnegative orthant).  An atom reads its graph from ``ex.ATOMS``: a
    piecewise-linear atom gives one orthant row ``t - y`` per piece ``y``,
    and any other one second-order cone, ``norm2`` its own and
    ``square``/``sum_squares`` the embedding ``norm2((2y, 1-t)) <= 1+t``,
    as one block of cones, one per row, for the elementwise ``square``.
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
            desc = ex.ATOMS[f.atom]
            if desc.pieces is None:
                emit("soc", *desc.cone(t, f.children))
            else:
                for y in desc.pieces(f.children):
                    emit("nonneg", smart_sub(t, y))
        stage = CanonStage(problem.objective, tuple(cones),
                           tuple(problem.variables))
        return stage, self._record()


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
    ``A`` and ``P`` are canonical ``scipy.sparse`` CSR matrices (sorted
    column indices, no duplicate entry); other input is converted once, here,
    so every reader sees one form.
    """

    P: sp.csr_matrix | None
    q: np.ndarray
    offset: float
    A: sp.csr_matrix
    b: np.ndarray
    cones: ConeDims
    var_offsets: dict[int, tuple[int, int]]
    variables: tuple[ex.VariableDecl, ...]

    def __post_init__(self):
        for name in ("A", "P"):
            M = getattr(self, name)
            if M is not None and not (isinstance(M, sp.csr_matrix)
                                      and M.has_canonical_format):
                M = sp.csr_matrix(M, dtype=float, copy=True)
                M.sum_duplicates()
                object.__setattr__(self, name, M)
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


def affine_row_data(expr: ex.ExpressionNode,
                    var_offsets: dict[int, tuple[int, int]],
                    width: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Rows M and constant k with ``expr == M x + k`` over the stack.

    ``M`` is COO triplets ``(rows, cols, vals)`` in row-major order, with no
    zero entry, so its entries are exactly the nonzeros of the dense rows.
    """
    coeffs, const = ex.affine_coefficients(expr)
    return _gather(list(coeffs.values()), [var_offsets[v][0] for v in coeffs],
                   [1.0] * len(coeffs), width), const


def dense_rows(M: tuple[np.ndarray, ...], dim: int, width: int) -> np.ndarray:
    """The (dim, width) array of the row triplets ``M``."""
    rows, cols, vals = M
    out = np.zeros((dim, width))
    out[rows, cols] = vals
    return out


def stack_rows(blocks, var_offsets, width) -> tuple[sp.csr_matrix, np.ndarray]:
    """``(A, b)`` from ``(exprs, sign)`` blocks, stacked in order, ``A`` as CSR
    with no stored zero: each expression's rows ``M x + k`` are written as
    ``A = sign·M``, ``b = -sign·k``.  Every stuffer stacks its rows here."""
    parts, shifts, signs, b_rows, top = [], [], [], [np.zeros(0)], 0
    for exprs, sign in blocks:
        for e in exprs:
            coeffs, k = ex.affine_coefficients(e)
            for v, block in coeffs.items():
                parts.append(block)
                shifts.append(top * width + var_offsets[v][0])
                signs.append(sign)
            b_rows.append(-sign * k)  # k may be a constant's read-only payload
            top += e.dim
    rows, cols, vals = _gather(parts, shifts, signs, width)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=top))])
    return sp.csr_matrix((vals, cols, indptr), shape=(top, width)), np.concatenate(b_rows)


def _gather(parts, shifts, signs, width) -> tuple[np.ndarray, ...]:
    """Row-major triplets, with no zero entry, of the blocks ``parts``, each
    times its sign and moved by its shift ``row * width + col``: a lone block
    is in order (and read-only) as its form holds it, more are sorted."""
    if not parts:
        return _NO_ENTRIES
    if len(parts) == 1:
        ((r, c, x),), (shift,), (sign,) = parts, shifts, signs
        row, col = divmod(shift, width)
        rows, cols, vals = r + row if row else r, c + col, x if sign > 0 else -x
    else:  # one array of the stack at a time, and in place where it can be
        keys = np.concatenate([r for r, _, _ in parts])
        keys *= width
        keys += np.concatenate([c for _, c, _ in parts])
        keys += np.repeat(np.array(shifts, dtype=np.intp), [r.size for r, _, _ in parts])
        vals = np.concatenate([x if sign > 0 else -x for (_, _, x), sign in zip(parts, signs)])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = vals[order]
        del order
        rows, cols = np.divmod(keys, width)
        del keys  # before the filter, which keeps the peak at four arrays
    if not vals.all():
        keep = vals != 0.0
        rows = rows[keep]
        cols = cols[keep]
        vals = vals[keep]
    return rows, cols, vals


_NO_ENTRIES = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)


class StuffCone(Reduction):
    """Stuff a canon stage into a cone program with a sparse ``A``.

    Variables stack in declaration-then-creation order; rows stack the zero
    block, then nonneg, then the SOCs (each ``(t, x...)``), every block
    preserving constraint order.  A block of cones is stacked expression by
    expression and then put in cone order by one row permutation.  The
    slack identity is ``s == b - Ax`` with ``s`` the constraint expression
    itself, so zero rows carry ``A = M, b = -k`` and the orthant/SOC rows
    ``A = -M, b = k``.
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
        zero = [c.expr for c in stage.constraints if c.kind == "zero"]
        nonneg = [c.expr for c in stage.constraints if c.kind == "nonneg"]
        soc = [c for c in stage.constraints if c.kind == "soc"]
        A, b = stack_rows([(zero, +1.0), (nonneg, -1.0),
                           ([e for c in soc for e in (c.t, *c.x)], -1.0)],
                          var_offsets, width)
        c_row, offset = affine_row_data(stage.objective, var_offsets, width)
        dims = ConeDims(sum(e.dim for e in zero), sum(e.dim for e in nonneg),
                        tuple(1 + c.soc_x_dim for c in soc for _ in range(c.t.dim)))
        if any(c.t.dim > 1 for c in soc):
            start = dims.zero + dims.nonneg
            order = [np.arange(start)]
            for c in soc:  # a block's rows, expression-major, to cone-major
                k, m = c.t.dim, 1 + c.soc_x_dim
                order.append(start + (np.arange(m) * k + np.arange(k)[:, None]).ravel())
                start += k * m
            order = np.concatenate(order)
            A, b = A[order], b[order]
        data = ProgramData(None, dense_rows(c_row, 1, width)[0], float(offset[0]),
                           A, b, dims, var_offsets, tuple(stage.variables))
        return data, self._record()
