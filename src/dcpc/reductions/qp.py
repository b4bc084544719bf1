"""QP-reducibility analysis and quadratic/linear program stuffing.

A problem reduces to a QP when its objective's root-to-leaf label paths land
in the accepting states of a small finite-state machine, run down the tree
one state set per node, and its constraints are piecewise-linear
inequalities plus affine equalities.  Accepted problems take the cone
route's chain: ``GraphExpand(quadratic_objective=True)`` writes each
piecewise-linear atom's graph as orthant rows and keeps the objective's
squares, and ``StuffLp`` or ``StuffQp`` stacks the rows through
``StuffCone``'s one ``rewrite``, refusing any SOC row.  ``StuffQp`` reads
``P`` from :func:`quadratic_form`, the quadratic form of the objective, which
carries each node's row Hessians and linear rows as triplet blocks through
``expressions.combine_affine``, the arithmetic of affine rows, so stuffing
costs about the size of the data it emits, not rows times width squared.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import expressions as ex
from .cone import _NO_ENTRIES, StuffCone, affine_row_data, dense_rows
from .framework import ReductionError

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


def _quadratic_tree(expr) -> bool:
    """True when the tree is affine combinations of squares of affine terms."""
    for n in _live_atoms(expr):
        if ex.ATOMS[n.atom].labels == {"Q"}:
            if not n.children[0].curvature.is_affine:
                return False
        elif ex.ATOMS[n.atom].curvature_class is not ex.Curvature.AFFINE:
            return False
    return True


class StuffLp(StuffCone):
    """Stuff a canon stage with an affine objective and no SOC into LP data."""

    name = "stuff_lp"

    def accepts(self, stage) -> bool:
        return super().accepts(stage) and all(c.kind != "soc" for c in stage.constraints)


class StuffQp(StuffLp):
    """Stuff a canon stage with no SOC into QP data; ``P`` is the objective's
    :func:`quadratic_form`, which ``GraphExpand(quadratic_objective=True)``
    leaves as affine combinations of squares of affine terms."""

    name = "stuff_qp"
    _objective_fits = staticmethod(_quadratic_tree)
    _objective = staticmethod(quadratic_form)
