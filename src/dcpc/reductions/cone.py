"""Conic canonicalization: graph expansion and stuffing, for every target.

Every chain lowers a DCP problem with :class:`GraphExpand`, which swaps each
nonlinear atom for its graph in one walk, and stacks the rows with
:class:`StuffCone`'s ``rewrite``, which ``StuffLp`` and ``StuffQp`` share.
The result is ``minimize ½xᵀPx + qᵀx + offset  s.t.  b - Ax in K``, where K
stacks a zero cone, a nonnegative orthant, and second-order cones, in that
fixed block order, and ``P`` is a QP's only.  ``ProgramData`` holds that
form, its matrices as numpy :class:`CsrMatrix` records, so only a solve loads
scipy.  One gather reads the affine rows of :func:`stack_rows` and
:func:`affine_row_data`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import expressions as ex
from .framework import Reduction
from .standard import CanonConstraint, CanonStage, lhs_row

__all__ = [
    "GraphExpand", "ConeDims", "CsrMatrix", "ProgramData", "StuffCone", "stack_variables",
    "stack_rows", "affine_row_data", "dense_rows",
]


class GraphExpand(Reduction):
    """Lower a DCP minimization to cone constraints over affine expressions.

    Each nonlinear atom, inner atoms first as in ``EliminatePwlAtoms``, takes
    a fresh variable ``t`` and writes its graph from ``ex.ATOMS`` over its
    rewritten arguments: a piecewise-linear atom one orthant row ``y - t <=
    0`` per piece ``y``, any other one second-order cone, ``norm2`` its own
    and ``square``/``sum_squares`` the embedding ``norm2((2y, 1-t)) <= 1+t``,
    as one block of cones, one per row, for the elementwise ``square``.
    Affine subtrees (constants included) are leaves and kept intact.  The
    objective's graphs come first; then each constraint's, and then its own
    zero row (EQ) or orthant row (LE/GE).  Every row is :func:`lhs_row`'s.
    Every nonlinear atom is convex, and DCP admits it only at scaling sign
    +1, where ``atom <= t`` is tight at a minimum; so dropping the ``t``
    retrieves a solution of the input.  A maximization is refused:
    ``FlipObjective`` turns it into one first.

    With ``quadratic_objective``, a ``square`` or ``sum_squares`` reached
    from the objective's root through affine atoms only stays, over its
    rewritten argument, for ``StuffQp`` to read; in a QP-reducible objective
    that is every square.  Any other square still takes its cone.
    """

    name = "graph_expand"
    category = ex.ProblemForm

    def __init__(self, quadratic_objective: bool = False):
        self.quadratic_objective = quadratic_objective

    def accepts(self, problem) -> bool:
        return super().accepts(problem) and \
            problem.sense is ex.Sense.MINIMIZE and ex.is_dcp(problem)[0]

    def rewrite(self, problem):
        pool = ex.VariablePool(problem.variables)
        cones: list[CanonConstraint] = []

        def down(node, i, keep):  # through affine atoms only
            return keep and ex.ATOMS[node.atom].curvature_class is ex.Curvature.AFFINE

        def leave(node, children, keep):
            if node.kind != "atom":
                return node
            desc = ex.ATOMS[node.atom]
            if desc.curvature_class is ex.Curvature.AFFINE or (keep and "Q" in desc.labels):
                return ex.rebuild(node, children)
            t = ex.var_ref(pool.fresh("_t", node.dim))
            if desc.pieces is None:
                cones.append(CanonConstraint.soc(*desc.cone(t, children)))
            else:
                cones.extend(CanonConstraint.nonpos(lhs_row(y, ex.Relation.LE, t))
                             for y in desc.pieces(children))
            return t

        objective = ex.fold(problem.objective, leave, None, down, self.quadratic_objective)
        for c in problem.constraints:
            row = lhs_row(ex.fold(c.lhs, leave), c.relation, ex.fold(c.rhs, leave))
            cones.append(CanonConstraint.zero(row) if c.relation is ex.Relation.EQ
                         else CanonConstraint.nonpos(row))
        aux = [v.id for v in pool.variables[len(problem.variables):]]
        stage = CanonStage(objective, tuple(cones), tuple(pool.variables))
        return stage, self._record(aux=aux)


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
class CsrMatrix:
    """Canonical CSR (Saad, §3.4): row ``i`` stores ``data[indptr[i]:indptr[i+1]]``
    at the sorted, distinct columns ``indices[indptr[i]:indptr[i+1]]``; a solve
    wraps the arrays as scipy's ``csr_matrix``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")  # repeats may add to inf or nan
    def of(cls, M) -> CsrMatrix:
        """The record of a dense array's nonzeros, or of the stored entries of
        ``M.tocoo()`` (scipy's), zeros kept and repeats added in stored order."""
        if isinstance(M, cls):
            return M
        if not hasattr(M, "tocoo"):
            M = np.atleast_2d(np.asarray(M, dtype=float))  # a vector is one row, as in scipy
            return cls.from_triplets(*np.nonzero(M), M[M != 0], M.shape)
        M = M.tocoo()
        keys = M.row.astype(np.intp) * M.shape[1] + M.col
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], M.data.astype(float)[order]
        first = np.diff(keys, prepend=-1) != 0
        sums = vals[first]
        np.add.at(sums, np.cumsum(first)[~first] - 1, vals[~first])
        return cls.from_triplets(*np.divmod(keys[first], M.shape[1]), sums, M.shape)

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape) -> CsrMatrix:
        """The record of row-major triplets with distinct places, its index
        arrays int32 where the shape and entries fit, as scipy's are."""
        index = np.int32 if max(*shape, rows.size) < 2**31 else np.intp
        indptr = np.zeros(shape[0] + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(vals, cols.astype(index, copy=False), indptr, tuple(shape))

    @property
    def nnz(self) -> int:
        return self.data.size

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)  # added to, so a stored -0.0 reads 0.0
        out[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] += self.data
        return out

    def __getitem__(self, rows) -> CsrMatrix:
        """The rows ``rows``, an index array or a slice, in that order."""
        rows = np.arange(self.shape[0])[rows]
        i, j = ex.row_pairs(rows, np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)))
        return CsrMatrix.from_triplets(i, self.indices[j], self.data[j], (rows.size, self.shape[1]))


@dataclass(frozen=True)
class ProgramData:
    """minimize ½xᵀPx + qᵀx + offset  subject to  b - Ax in K.

    K is ``cones``: equality rows, then inequality rows, then SOC blocks.  An
    LP has no ``P`` (None) and no SOC, a QP no SOC, a cone program no ``P``.
    ``A`` and ``P`` are :class:`CsrMatrix` records; other input, dense or scipy
    sparse, is converted once, here, so every reader sees one form.
    """

    P: CsrMatrix | None
    q: np.ndarray
    offset: float
    A: CsrMatrix
    b: np.ndarray
    cones: ConeDims
    var_offsets: dict[int, tuple[int, int]]
    variables: tuple[ex.VariableDecl, ...]

    def __post_init__(self):
        for name in ("A", "P"):
            M = getattr(self, name)
            if M is not None:
                object.__setattr__(self, name, CsrMatrix.of(M))
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


def stack_rows(blocks, var_offsets, width) -> tuple[CsrMatrix, np.ndarray]:
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
    return (CsrMatrix.from_triplets(*_gather(parts, shifts, signs, width), (top, width)),
            np.concatenate(b_rows))


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
    block, then the orthant, then the SOCs (each ``(t, x...)``), every block
    preserving constraint order.  A block of cones is stacked expression by
    expression and then put in cone order by one row permutation.  The
    slack is ``s == b - Ax``: zero and orthant rows ``e`` (``e == 0``, ``e
    <= 0``) carry ``A = M, b = -k``, so ``s = -e``, and SOC rows ``A = -M,
    b = k``, so ``s = e``.  ``StuffLp`` and ``StuffQp`` stuff through this
    ``rewrite`` too; they differ only in the objective they read.
    """

    name = "stuff_cone"
    category = CanonStage

    def accepts(self, stage) -> bool:
        return super().accepts(stage) and self._objective_fits(stage.objective) \
            and all(e.curvature.is_affine for cone in stage.constraints
                    for e in ((cone.t, *cone.x) if cone.kind == "soc" else (cone.expr,)))

    @staticmethod
    def _objective_fits(objective) -> bool:
        return objective.curvature.is_affine

    @staticmethod
    def _objective(objective, var_offsets, width):
        """``(P, q, r)`` with ``objective == ½xᵀPx + qᵀx + r``; no ``P`` here."""
        q, r = affine_row_data(objective, var_offsets, width)
        return None, dense_rows(q, 1, width)[0], float(r[0])

    def rewrite(self, stage):
        var_offsets, width = stack_variables(stage.variables)
        zero = [c.expr for c in stage.constraints if c.kind == "zero"]
        nonpos = [c.expr for c in stage.constraints if c.kind == "nonpos"]
        soc = [c for c in stage.constraints if c.kind == "soc"]
        A, b = stack_rows([(zero + nonpos, +1.0),
                           ([e for c in soc for e in (c.t, *c.x)], -1.0)],
                          var_offsets, width)
        P, q, r = self._objective(stage.objective, var_offsets, width)
        dims = ConeDims(sum(e.dim for e in zero), sum(e.dim for e in nonpos),
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
        data = ProgramData(P, q, r, A, b, dims, var_offsets, tuple(stage.variables))
        return data, self._record()
