"""QP-reducibility analysis and quadratic/linear program stuffing.

A problem reduces to a QP when its objective's root-to-leaf label paths land
in the accepting states of a small finite-state machine, run down the tree
one state set per node, and its constraints are piecewise-linear
inequalities plus affine equalities.  Accepted problems are lowered by
eliminating the piecewise-linear atoms, moving constraints to the left-hand
side, and extracting the quadratic form of the objective.  That extraction
carries each node's row Hessians and linear rows as triplet blocks through
``expressions.combine_affine``, the arithmetic of affine rows, so stuffing
costs about the size of the data it emits, not rows times width squared.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import expressions as ex
from .cone import (_NO_ENTRIES, ConeDims, ProgramData, affine_row_data, dense_rows,
                   stack_rows, stack_variables)
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
    """The atom nodes of ``expr``: its nonlinear atoms and their ancestors,
    since every affine subtree is a leaf."""
    return (n for n in ex.nodes(expr) if n.kind == "atom")


_PWL_LABELS = frozenset({"A", "P"})


def uses_quadratic_atom(problem: ex.ProblemForm) -> bool:
    """True when a Q-labeled atom appears in the problem."""
    return any("Q" in ex.ATOMS[n.atom].labels
               for _, e, _ in ex.walk_expressions(problem) for n in _live_atoms(e))


def qp_applicable(problem: ex.ProblemForm) -> bool:
    """QP-reducibility: DCP + PWL constraints + NFA-accepted objective paths.

    The machine runs down the objective's atom nodes, carrying its state set
    from each node to its children, so shared path prefixes are simulated
    once.  Every state has an edge for A or P, an affine atom's labels, into
    an accepting state, so an affine subtree, which is a leaf, accepts when
    it is reached with any state.  DCP already makes both
    sides of an equality affine.
    """
    ok, _ = ex.is_dcp(problem)
    if not ok:
        return False
    if not all(ex.ATOMS[n.atom].labels <= _PWL_LABELS for c in problem.constraints
               for e in (c.lhs, c.rhs) for n in _live_atoms(e)):
        return False
    nfa = PathNfa()

    def down(node, i, states):
        return nfa.step(states, ex.ATOMS[node.atom].labels)

    def leave(node, accepted, states):
        return all(accepted) if node.kind == "atom" else bool(states)

    return ex.fold(problem.objective, leave, None, down, frozenset({nfa.START}))


def _square_rows(M, width):
    """Hessian rows ``2.0*(M_ij*M_il)`` of square(M x + c), at column
    ``j·width + l``, from the row-major triplets ``M`` of the argument."""
    rows, cols, vals = M
    start = np.searchsorted(rows, rows)  # each entry's row: start and length
    count = np.searchsorted(rows, rows, side="right") - start
    left = np.repeat(np.arange(rows.size), count)  # entry j of each pair ...
    first = np.repeat(np.cumsum(count) - count, count)
    right = np.repeat(start, count) + np.arange(left.size) - first  # ... and l
    return (rows[left], cols[left] * width + cols[right],
            2.0 * (vals[left] * vals[right]))


def _sum_squares_rows(M, c, width):
    """The one-row Hessian and linear blocks of sum_squares(M x + c): the
    dense BLAS products ``2MᵀM`` and ``2Mᵀc`` over the columns the argument
    touches, unless every entry of them is a single product of two entries
    of ``M``."""
    rows, cols, vals = M
    if np.unique(cols).size == cols.size == np.unique(rows).size:
        # One entry per row and per column: 2MᵀM is diagonal, and each entry
        # of it and of 2Mᵀc is one product, rounded once in any order.
        order = np.argsort(cols)
        J, twice = cols[order], 2.0 * vals[order]
        return (J * (width + 1), twice * vals[order]), (J, twice * c[rows[order]])
    J, at = np.unique(cols, return_inverse=True)
    MJ = np.zeros((c.size, J.size))
    MJ[rows, at] = vals
    P = 2.0 * MJ.T @ MJ
    i, j = np.nonzero(P)
    return (J[i] * width + J[j], P[i, j]), (J, 2.0 * MJ.T @ c)


def _quad_pieces(expr, var_offsets, width):
    """The piece of ``expr`` as :func:`ex.combine_affine` takes it, over two
    column spaces: ``"H"``, the row Hessians at column j·width + l, and
    ``"Q"``, the linear rows; row i equals ½xᵀH_i x + Q_i x + k_i.

    The fold supplies only leaves and sends every other node to
    ``combine_affine``, so the blocks add, scale, index and sum as affine
    rows do, with the bits of the dense (d, width, width) arithmetic.  It
    stops at affine subtrees, whose ``"Q"`` block and ``k`` come from
    ``affine_row_data``; a product's constant operand is one of them.  A
    quadratic atom gives an ``"H"`` and a ``"Q"`` block of its argument's
    nonzeros, and no block is ever dense.
    """
    widths = {"H": width * width, "Q": width}

    def enter(node, _):
        return not node.curvature.is_affine and ex.ATOMS[node.atom].labels != {"Q"}

    def leave(node, pieces, _):
        if node.curvature.is_affine:
            M, k = affine_row_data(node, var_offsets, width)
            return {"Q": [M]}, k
        if ex.ATOMS[node.atom].labels != {"Q"}:
            try:
                return ex.combine_affine(node.atom, node.dim, node.children,
                                         node.param, pieces, widths)
            except ex.NotAffineError:
                raise ReductionError(
                    f"atom '{node.atom}' has no quadratic form") from None
        try:
            M, c = affine_row_data(node.children[0], var_offsets, width)
        except ex.NotAffineError as err:
            raise ReductionError(
                f"atom '{err.atom}' below a quadratic node has no "
                f"constant-Hessian form") from err
        if node.atom == "square":
            rows, cols, vals = M
            return ({"H": [_square_rows(M, width)],
                     "Q": [(rows, cols, (2.0 * c)[rows] * vals)]}, c ** 2)
        (hc, hv), (qc, qv) = _sum_squares_rows(M, c, width)
        return ({"H": [(np.zeros(hc.size, dtype=np.intp), hc, hv)],
                 "Q": [(np.zeros(qc.size, dtype=np.intp), qc, qv)]},
                np.array([float(c @ c)]))

    return ex.fold(expr, leave, enter)


def quadratic_form(expr: ex.ExpressionNode,
                   var_offsets: dict[int, tuple[int, int]],
                   width: int) -> tuple[sp.csr_matrix, np.ndarray, float]:
    """(P, q, r) with ``expr == ½xᵀPx + qᵀx + r`` for a scalar expression;
    ``P`` is CSR, built from the Hessian's nonzeros with no dense square."""
    if expr.dim != 1:
        raise ReductionError("quadratic extraction needs a scalar expression")
    with np.errstate(over="ignore", invalid="ignore"):  # a Hessian product may overflow
        blocks, k = _quad_pieces(expr, var_offsets, width)
    _, keys, vals = ex.coalesce(blocks.get("H", [_NO_ENTRIES]))  # affine: none
    Q = ex.coalesce(blocks["Q"])
    if not all(np.isfinite(a).all() for a in (vals, Q[2], k)):
        raise ex.ProblemError(ex.OVERFLOW)
    P = sp.csr_matrix((vals, (keys // width, keys % width)), shape=(width, width))
    P = 0.5 * (P + P.T)
    P.eliminate_zeros()  # a half that underflows
    return P, dense_rows(Q, 1, width)[0], float(k[0])


def _stuff_moved(problem, quadratic: bool) -> ProgramData:
    """``ProgramData`` of a moved-to-LHS problem, with ``P`` only if ``quadratic``.

    Rows ``Mx + k == 0`` come first, then rows ``Mx + k <= 0``, each as
    ``A = M, b = -k``.
    """
    var_offsets, width = stack_variables(problem.variables)
    eq = [c.lhs for c in problem.constraints if c.relation is ex.Relation.EQ]
    le = [c.lhs for c in problem.constraints if c.relation is not ex.Relation.EQ]
    A, b = stack_rows([(eq, +1.0), (le, +1.0)], var_offsets, width)
    P, q, r = quadratic_form(problem.objective, var_offsets, width)
    cones = ConeDims(sum(e.dim for e in eq), sum(e.dim for e in le), ())
    return ProgramData(P if quadratic else None, q, r, A, b, cones, var_offsets,
                       problem.variables)


def _is_moved_form(problem) -> bool:
    """Every constraint is ``lhs <= 0`` or ``lhs == 0`` with an affine ``lhs``
    that has all of the constraint's rows, as :class:`MoveToLhs` leaves it."""
    return all(c.relation is not ex.Relation.GE and is_zero_constant(c.rhs)
               and c.lhs.dim == c.dim and c.lhs.curvature.is_affine
               for c in problem.constraints)


def _quadratic_tree(expr) -> bool:
    """True when the tree is affine combinations of squares of affine terms."""
    for n in _live_atoms(expr):
        if ex.ATOMS[n.atom].labels == {"Q"}:
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

    def rewrite(self, problem):
        return _stuff_moved(problem, quadratic=True), self._record()


class StuffLp(Reduction):
    """Stuff an affine-objective, moved-to-LHS problem into LP matrices."""

    name = "stuff_lp"

    def accepts(self, problem) -> bool:
        if not isinstance(problem, ex.ProblemForm) \
                or problem.sense is not ex.Sense.MINIMIZE:
            return False
        return problem.objective.curvature.is_affine and _is_moved_form(problem)

    def rewrite(self, problem):
        return _stuff_moved(problem, quadratic=False), self._record()
