"""QP-reducibility analysis and quadratic/linear program stuffing.

A problem reduces to a QP when its objective's root-to-leaf label paths land
in the accepting states of a small finite-state machine, run down the tree
one state set per node, and its constraints are piecewise-linear
inequalities plus affine equalities.  Accepted problems are lowered by
eliminating the piecewise-linear atoms, moving constraints to the left-hand
side, and extracting the quadratic form of the objective.  That extraction
keeps only the nonzeros of each node's row Hessians, so stuffing costs about
the size of the data it emits, not rows times width squared.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import expressions as ex
from .cone import (ConeDims, ProgramData, affine_row_data, dense_rows,
                   require_finite, stack_rows, stack_variables)
from .framework import Reduction, ReductionError
from .standard import is_zero_constant

__all__ = [
    "PathNfa", "qp_applicable", "uses_quadratic_atom",
    "quadratic_form", "StuffQp", "StuffLp",
]


class PathNfa:
    """The objective-path machine: states q0..q3, accepting q1..q3.

    Edges: q0 -A> q1, q0 -Q> q2, q0 -P> q3, q1 -A> q1, q1 -Q> q2, q2 -P> q3,
    q3 -P> q3.  There are no N edges, so any norm on a path rejects.  Atoms
    carry label *sets* (affine atoms read as A or P), handled by simulating
    the subset construction instead of enumerating labelings.
    """

    START = "q0"
    ACCEPTING = frozenset({"q1", "q2", "q3"})
    EDGES = {
        ("q0", "A"): "q1",
        ("q0", "Q"): "q2",
        ("q0", "P"): "q3",
        ("q1", "A"): "q1",
        ("q1", "Q"): "q2",
        ("q2", "P"): "q3",
        ("q3", "P"): "q3",
    }

    def step(self, states: frozenset[str], labelset) -> frozenset[str]:
        """The states reachable from ``states`` over one atom's label set."""
        return frozenset(self.EDGES[s, lab] for s in states for lab in labelset
                         if (s, lab) in self.EDGES)

    def simulate(self, labels) -> frozenset[str]:
        states = frozenset({self.START})
        for labelset in labels:
            if isinstance(labelset, str):
                labelset = (labelset,)
            states = self.step(states, labelset)
            if not states:
                break
        return states

    def accepts(self, labels) -> bool:
        """True iff some labeling of the path reaches an accepting state.

        The empty path is rejected (q0 is not accepting); callers that treat
        atomless objectives as affine must special-case them.
        """
        return bool(self.simulate(labels) & self.ACCEPTING)


def _live_atoms(expr: ex.ExpressionNode):
    """The atoms of ``expr`` outside constant subtrees, i.e. the nonconstant ones."""
    return (n for n in ex.nodes(expr)
            if n.kind == "atom" and not n.curvature.is_constant)


_PWL_LABELS = frozenset({"A", "P"})


def uses_quadratic_atom(problem: ex.ProblemForm) -> bool:
    """True when a Q-labeled atom appears outside constant subtrees."""
    return any("Q" in ex.ATOM_LABELS[n.atom]
               for _, e, _ in ex.walk_expressions(problem) for n in _live_atoms(e))


def qp_applicable(problem: ex.ProblemForm) -> bool:
    """QP-reducibility: DCP + PWL constraints + NFA-accepted objective paths.

    The machine runs down the objective, carrying its state set from each
    node to its children, so shared path prefixes are simulated once.
    Constant subtrees hold no variable, hence no path; a bare variable is the
    empty path, affine and accepted.  DCP already makes both sides of an
    equality affine.
    """
    ok, _ = ex.is_dcp(problem)
    if not ok:
        return False
    if not all(ex.ATOM_LABELS[n.atom] <= _PWL_LABELS for c in problem.constraints
               for e in (c.lhs, c.rhs) for n in _live_atoms(e)):
        return False
    if problem.objective.kind == "var":
        return True
    nfa = PathNfa()

    def down(node, i, states):
        return nfa.step(states, ex.ATOM_LABELS[node.atom])

    def leave(node, accepted, states):
        if node.kind == "var":
            return bool(states & nfa.ACCEPTING)
        return all(accepted)

    return ex.fold(problem.objective, leave, ex.nonconstant, down,
                   frozenset({nfa.START}))


def _broadcast_rows(parts, dim, cells):
    (keys, vals), Q, k = parts
    if k.shape[0] == dim:
        return parts
    return (((np.arange(dim)[:, None] * cells + keys).ravel(), np.tile(vals, dim)),
            np.broadcast_to(Q, (dim,) + Q.shape[1:]), np.broadcast_to(k, (dim,)))


def _add_rows(a, b, sign):
    """``a + sign*b`` over sparse rows, entry by entry as the dense sum."""
    keys = np.union1d(a[0], b[0])
    vals = np.zeros(keys.size)
    vals[np.searchsorted(keys, a[0])] = a[1]
    vals[np.searchsorted(keys, b[0])] += sign * b[1]
    return keys, vals


def _square_rows(M, width):
    """Sparse rows ``2.0*(M_ij*M_il)`` of the Hessians of square(M x + c),
    from the row-major triplets ``M`` of the argument's nonzeros."""
    rows, cols, vals = M
    keys, out = [], []
    for i in np.unique(rows):
        lo, hi = np.searchsorted(rows, (i, i + 1))
        J, v = cols[lo:hi], vals[lo:hi]
        keys.append(((i * width + J[:, None]) * width + J).ravel())
        out.append((2.0 * np.multiply.outer(v, v)).ravel())
    if not keys:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    return np.concatenate(keys), np.concatenate(out)


_QUADRATIC_ATOMS = ("square", "sum_squares")


def _quad_pieces(expr, var_offsets, width):
    """Per-row quadratic data (H, Q, k): row i equals ½xᵀH_i x + Q_i x + k_i.

    Q and k are dense; H keeps only the nonzeros of the row Hessians, as
    sorted ``keys`` (i·width² + j·width + l) and their ``vals``.  Entries are
    combined with the dense (d, width, width) arithmetic, in its order, so P
    is bit-for-bit the dense one.  The fold stops at affine subtrees, whose
    (Q, k) come from ``affine_row_data`` with an empty H; a product's
    constant operand is one of them, and its ``k`` is the constant's value.
    ``sum_squares`` keeps the dense BLAS product ``2MᵀM`` of the dense case,
    over the columns its argument touches only, unless every entry of the
    product is a single product of two entries of ``M``.
    """
    cells = width * width
    no_hessian = np.zeros(0, dtype=np.int64), np.zeros(0)

    def enter(node, _):
        return not node.curvature.is_affine and node.atom not in _QUADRATIC_ATOMS

    def leave(node, parts, _):
        d, atom = node.dim, node.atom
        if node.curvature.is_affine:
            M, k = affine_row_data(node, var_offsets, width)
            return no_hessian, dense_rows(M, d, width), k
        if atom in _QUADRATIC_ATOMS:
            try:
                M, c = affine_row_data(node.children[0], var_offsets, width)
            except ex.NotAffineError as err:
                raise ReductionError(
                    f"atom '{err.node.atom}' below a quadratic node has no "
                    f"constant-Hessian form") from err
            if atom == "square":
                return (_square_rows(M, width),
                        2.0 * c[:, None] * dense_rows(M, c.size, width), c ** 2)
            rows, cols, vals = M
            q = np.zeros(width)
            if np.unique(cols).size == cols.size == np.unique(rows).size:
                # One entry per row and per column: 2MᵀM is diagonal, and
                # each entry of it and of 2Mᵀc is one product, rounded once
                # in any order of summation.
                twice = 2.0 * vals
                q[cols] = twice * c[rows]
                order = np.argsort(cols)
                keys, vals = cols[order] * (width + 1), (twice * vals)[order]
                keep = vals != 0.0
                keys, vals = keys[keep], vals[keep]
            else:
                J, at = np.unique(cols, return_inverse=True)
                MJ = np.zeros((c.size, J.size))
                MJ[rows, at] = vals
                P = 2.0 * MJ.T @ MJ
                q[J] = 2.0 * MJ.T @ c
                i, j = np.nonzero(P)
                keys, vals = J[i] * width + J[j], P[i, j]
            return (keys, vals), q[None, :], np.array([float(c @ c)])
        if atom in ("add", "sub"):
            a = _broadcast_rows(parts[0], d, cells)
            b = _broadcast_rows(parts[1], d, cells)
            sign = 1.0 if atom == "add" else -1.0
            return (_add_rows(a[0], b[0], sign), a[1] + sign * b[1],
                    a[2] + sign * b[2])
        if atom == "mul_const":
            const_first = node.children[0].curvature.is_constant
            cval = parts[0 if const_first else 1][2]
            (keys, vals), Q, k = _broadcast_rows(parts[1 if const_first else 0],
                                                 d, cells)
            scale = np.broadcast_to(cval, (d,))
            return ((keys, scale[keys // cells] * vals), scale[:, None] * Q,
                    scale * k)
        (keys, vals), Q, k = parts[0]
        if atom == "neg":
            return (keys, -vals), -Q, -k
        if atom == "sum":  # bincount adds each entry's rows first to last
            keys, at = np.unique(keys % cells, return_inverse=True)
            return ((keys, np.bincount(at, vals, keys.size)),
                    Q.sum(axis=0, keepdims=True), k.sum(keepdims=True))
        if atom == "index":
            i = node.param
            lo, hi = np.searchsorted(keys, (i * cells, (i + 1) * cells))
            return (keys[lo:hi] - i * cells, vals[lo:hi]), Q[i:i + 1], k[i:i + 1]
        raise ReductionError(f"atom '{atom}' has no quadratic form")

    return ex.fold(expr, leave, enter)


def quadratic_form(expr: ex.ExpressionNode,
                   var_offsets: dict[int, tuple[int, int]],
                   width: int) -> tuple[sp.csr_matrix, np.ndarray, float]:
    """(P, q, r) with ``expr == ½xᵀPx + qᵀx + r`` for a scalar expression;
    ``P`` is CSR, built from the Hessian's nonzeros with no dense square."""
    if expr.dim != 1:
        raise ReductionError("quadratic extraction needs a scalar expression")
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite reports it
        (keys, vals), Q, k = _quad_pieces(expr, var_offsets, width)
    require_finite(vals, Q, k)
    P = sp.csr_matrix((vals, (keys // width, keys % width)), shape=(width, width))
    P = 0.5 * (P + P.T)
    P.eliminate_zeros()  # a half that underflows
    return P, Q[0], float(k[0])


def _stuff_moved(problem, quadratic: bool) -> ProgramData:
    """``ProgramData`` of a moved-to-LHS problem, with ``P`` only if ``quadratic``.

    Rows ``Mx + k == 0`` come first, then rows ``Mx + k <= 0``, each as
    ``A = M, b = -k``.
    """
    var_offsets, width = stack_variables(problem.variables)
    eq = [c.lhs for c in problem.constraints if c.relation is ex.Relation.EQ]
    le = [c.lhs for c in problem.constraints if c.relation is not ex.Relation.EQ]
    A, b = stack_rows([(eq, +1.0), (le, +1.0)], var_offsets, width)
    if quadratic:
        P, q, r = quadratic_form(problem.objective, var_offsets, width)
    else:
        M, (r,) = affine_row_data(problem.objective, var_offsets, width)
        P, q = None, dense_rows(M, 1, width)[0]
    cones = ConeDims(sum(e.dim for e in eq), sum(e.dim for e in le), ())
    return ProgramData(P, q, float(r), A, b, cones, var_offsets, problem.variables)


def _is_moved_form(problem) -> bool:
    """Every constraint is ``lhs <= 0`` or ``lhs == 0`` with an affine ``lhs``
    that has all of the constraint's rows, as :class:`MoveToLhs` leaves it."""
    return all(c.relation is not ex.Relation.GE and is_zero_constant(c.rhs)
               and c.lhs.dim == c.dim and c.lhs.curvature.is_affine
               for c in problem.constraints)


def _quadratic_tree(expr) -> bool:
    """True when the tree is affine combinations of squares of affine terms."""
    for n in _live_atoms(expr):
        if n.atom in _QUADRATIC_ATOMS:
            if not n.children[0].curvature.is_affine:
                return False
        elif ex.ATOMS[n.atom].curvature_class is not ex.Curvature.AFFINE:
            return False
    return True


class StuffQp(Reduction):
    """Stuff a PWL-free, moved-to-LHS problem into QP matrices."""

    name = "stuff_qp"

    def accepts(self, problem) -> bool:
        if not isinstance(problem, ex.ProblemForm) \
                or problem.sense is not ex.Sense.MINIMIZE:
            return False
        return _quadratic_tree(problem.objective) and _is_moved_form(problem)

    def apply(self, problem):
        self._check(problem)
        return _stuff_moved(problem, quadratic=True), self._record()


class StuffLp(Reduction):
    """Stuff an affine-objective, moved-to-LHS problem into LP matrices."""

    name = "stuff_lp"

    def accepts(self, problem) -> bool:
        if not isinstance(problem, ex.ProblemForm) \
                or problem.sense is not ex.Sense.MINIMIZE:
            return False
        return problem.objective.curvature.is_affine and _is_moved_form(problem)

    def apply(self, problem):
        self._check(problem)
        return _stuff_moved(problem, quadratic=False), self._record()
