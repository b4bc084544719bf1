"""Property-based checks: serialization, the label machine, projections.

These complement the example-based suites with shrinkable random inputs:
JSON emission is compared against the stdlib decoder, the label machine
against an equivalent regular expression and against brute-force refinement
of label sets, cone projection against the defining properties of a
Euclidean projection (idempotence, non-expansiveness, Jensen's inequality
for the convex atoms it supports), and the DCP rules against the position
invariant that piecewise-linear atom elimination and graph expansion rely
on.  The QP analysis, which stops at affine subtrees, is compared against
references that read every node and every root-to-leaf label word.
"""

import itertools
import json
import re

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dcpc import expressions as ex
from dcpc import randgen
from dcpc.analyzer import select_target
from dcpc.cli import render_json
from dcpc.reductions.cone import ConeDims, GraphExpand, StuffCone
from dcpc.reductions.framework import ReductionError
from dcpc.reductions.qp import (PathNfa, StuffLp, StuffQp, qp_applicable,
                                uses_quadratic_atom)
from dcpc.reductions.standard import (DecomposeSoc, DropRedundantConstraints,
                                      EliminateFixedVariables,
                                      EliminateLinearInequalities, EliminatePwlAtoms,
                                      FlipObjective, MoveToLhs, PresolveFixedPoint,
                                      ScaleConstraints, SplitFreeVariables)
from dcpc.solvers import project_cone

from helpers import ALL_ATOMS, STAGE_CONFIGS, random_expression

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
BOUNDED = st.floats(min_value=-100.0, max_value=100.0,
                    allow_nan=False, allow_infinity=False)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**9, 10**9) | FINITE
    | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)


# --- JSON emission ---------------------------------------------------------

@given(value=FINITE)
def test_render_json_floats_round_trip(value):
    text = render_json(value)
    assert json.loads(text) == value
    if value == 0.0:
        assert text == "0"  # negative zero is normalized away


@given(doc=JSON_VALUES)
def test_render_json_agrees_with_stdlib_decoder(doc):
    assert json.loads(render_json(doc)) == doc


# --- label machine ---------------------------------------------------------

@given(word=st.text(alphabet="APQ", max_size=10))
def test_label_machine_matches_regular_expression(word):
    expected = re.fullmatch("A+|A*QP*|P+", word)
    assert PathNfa().accepts(word) == (expected is not None)


@given(sets=st.lists(st.sets(st.sampled_from("APQ"), min_size=1, max_size=3),
                     max_size=6))
def test_label_machine_set_simulation_equals_refinement_search(sets):
    nfa = PathNfa()
    via_sets = nfa.accepts([frozenset(s) for s in sets])
    refinements = itertools.product(*sets)
    assert via_sets == any(nfa.accepts("".join(word)) for word in refinements)


# --- cone projection -------------------------------------------------------

@st.composite
def cone_and_points(draw, points=1):
    zero = draw(st.integers(0, 2))
    nonneg = draw(st.integers(0, 3))
    soc = tuple(draw(st.lists(st.integers(2, 5), max_size=2)))
    dims = ConeDims(zero, nonneg, soc)
    total = zero + nonneg + sum(soc)
    vecs = [np.array(draw(st.lists(BOUNDED, min_size=total, max_size=total)))
            for _ in range(points)]
    return (dims, *vecs)


@given(args=cone_and_points())
def test_projection_is_idempotent(args):
    dims, v = args
    p = project_cone(v, dims)
    assert np.max(np.abs(project_cone(p, dims) - p), initial=0.0) <= 1e-9


@given(args=cone_and_points(points=2))
def test_projection_is_nonexpansive(args):
    dims, u, v = args
    pu, pv = project_cone(u, dims), project_cone(v, dims)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9


# --- convex atom semantics -------------------------------------------------

def _jensen_gap(build, x, y, theta):
    """f(theta*x + (1-theta)*y) - [theta*f(x) + (1-theta)*f(y)], elementwise."""
    decl = ex.VariableDecl(0, "x", len(x))
    expr = build(ex.var_ref(decl))
    mid = theta * x + (1.0 - theta) * y
    f = lambda point: ex.evaluate(expr, {0: point})
    return f(mid) - (theta * f(x) + (1.0 - theta) * f(y))


@given(x=st.lists(BOUNDED, min_size=2, max_size=4),
       y=st.lists(BOUNDED, min_size=2, max_size=4),
       theta=st.floats(0.0, 1.0),
       atom=st.sampled_from(["abs", "square", "norm2", "sum_squares", "max"]))
def test_convex_atoms_satisfy_jensen(x, y, theta, atom):
    n = min(len(x), len(y))
    x, y = np.array(x[:n]), np.array(y[:n])
    builders = {
        "abs": ex.abs_,
        "square": ex.square,
        "norm2": ex.norm2,
        "sum_squares": ex.sum_squares,
        "max": lambda v: ex.max_(v, ex.constant(np.zeros(n))),
    }
    gap = _jensen_gap(builders[atom], x, y, theta)
    scale = 1.0 + max(np.max(np.abs(x)), np.max(np.abs(y))) ** 2
    assert np.max(gap) <= 1e-9 * scale


# --- piecewise-linear atoms under DCP --------------------------------------

def _occurrences(expr, sigma, atoms=("abs", "max")):
    """(curvature, scaling sign) of each nonconstant atom of ``atoms`` in
    ``expr``, the sign composed top-down from ``sigma``: a child's is its
    parent's times the parent's monotonicity in it."""
    found = []

    def down(node, i, s):
        return s * ex.ATOMS[node.atom].monotonicity(node.children, i)

    def leave(node, _, s):
        if node.atom in atoms and not node.curvature.is_constant:
            found.append((node.curvature, s))

    ex.fold(expr, leave, None, down, sigma)
    return found


def _random_problem(rng, dcp_only=True):
    """A randgen problem, or one over random nested trees, either sense.

    With ``dcp_only``, tree problems keep only the trees that DCP admits on
    their own, so the problem as a whole is DCP; without it they keep the
    first tree drawn for each place.
    """
    maximize = bool(rng.integers(2))
    kind = int(rng.integers(4))
    if kind < 3:
        gen = (randgen.random_pwl_problem, randgen.random_qp_problem,
               randgen.random_cone_problem)[kind]
        return gen(rng, int(rng.integers(1, 4)), maximize)
    decls = [ex.VariableDecl(0, "x"), ex.VariableDecl(1, "y", 2)]
    sense = ex.Sense.MAXIMIZE if maximize else ex.Sense.MINIMIZE

    def dcp(objective, cons=()):
        return not dcp_only or \
            ex.is_dcp(ex.make_problem(sense, objective, list(cons), decls))[0]

    objective = ex.constant(0.0)
    for _ in range(50):
        tree = random_expression(rng, decls, 4)
        tree = ex.sum_(tree) if tree.dim != 1 else tree
        if dcp(tree):
            objective = tree
            break
    cons = []
    for _ in range(int(rng.integers(1, 6))):
        lhs = random_expression(rng, decls, 3)
        rhs = random_expression(rng, decls, 2)
        if lhs.dim != rhs.dim and 1 not in (lhs.dim, rhs.dim):
            rhs = ex.constant(0.0)
        con = (lhs, list(ex.Relation)[int(rng.integers(3))], rhs)
        if dcp(ex.constant(0.0), [con]):
            cons.append(con)
    return ex.make_problem(sense, objective, cons, decls)


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1))
def test_dcp_puts_every_nonconstant_pwl_atom_at_positive_sign(seed):
    # EliminatePwlAtoms accepts every DCP problem: its epigraph rows are
    # exact only where the occurrence's scaling sign is +1.
    problem = _random_problem(np.random.default_rng(seed))
    assume(ex.is_dcp(problem)[0])
    for _, expr, sigma in ex.walk_expressions(problem):
        for curvature, sign in _occurrences(expr, sigma):
            assert curvature is ex.Curvature.CONVEX
            assert sign == +1


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1))
def test_graph_expand_accepts_exactly_the_dcp_problems(seed):
    # Every nonlinear atom is convex, so a problem is DCP exactly when each
    # one sits at scaling sign +1, where its epigraph rows are exact; graph
    # expansion takes the DCP minimizations, whose epigraphs are tight.
    problem = _random_problem(np.random.default_rng(seed), dcp_only=False)
    convex = [n for n, d in ex.ATOMS.items() if d.curvature_class is ex.Curvature.CONVEX]
    at_plus_one = all(sign == +1 for _, expr, sigma in ex.walk_expressions(problem)
                      for _, sign in _occurrences(expr, sigma, convex))
    assert ex.is_dcp(problem)[0] == at_plus_one
    assert GraphExpand().accepts(problem) == \
        (at_plus_one and problem.sense is ex.Sense.MINIMIZE)


# Every reduction that build_chain can place.
CHAIN_MEMBERS = (FlipObjective, PresolveFixedPoint, GraphExpand, DecomposeSoc,
                 StuffLp, StuffQp, StuffCone)
# The library's other reductions, which no chain places.
UNPLACED = (MoveToLhs, EliminateLinearInequalities, EliminateFixedVariables,
            SplitFreeVariables, DropRedundantConstraints, ScaleConstraints,
            EliminatePwlAtoms)


def test_apply_rejects_exactly_what_accepts_refuses():
    # Each reduction meets every stage that the STAGE_CONFIGS chains make
    # from randgen problems of each family and sense, a chain member its own
    # included.
    stages, placed = [], set()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        for gen in (randgen.random_pwl_problem, randgen.random_qp_problem,
                    randgen.random_cone_problem):
            for maximize in (False, True):
                problem = gen(rng, int(rng.integers(1, 4)), maximize)
                stages.append(problem)
                for config in STAGE_CONFIGS.values():
                    chain = select_target(problem, config).chain
                    current = problem
                    for member in chain.members if chain is not None else ():
                        placed.add(type(member))
                        current, _ = member.apply(current)
                        stages.append(current)
    assert placed == set(CHAIN_MEMBERS)
    verdicts = set()
    for stage in stages:
        for cls in CHAIN_MEMBERS + UNPLACED:
            reduction = cls()
            try:
                reduction.apply(stage)
                applied = True
            except ReductionError:
                applied = False
            assert reduction.accepts(stage) == applied, (cls.__name__, stage)
            verdicts.add((cls, applied))
    assert verdicts == {(cls, ok) for cls in CHAIN_MEMBERS + UNPLACED
                        for ok in (False, True)}


@given(keys=st.lists(st.integers(0, 6), max_size=12),
       rows=st.lists(st.integers(0, 6), max_size=12).map(sorted))
def test_row_pairs_enumerate_each_match_in_order(keys, rows):
    # _substitute_form's keys are unsorted columns, _square_rows' the rows
    # themselves; both read the pairs key by key, each row in order.
    for keys in (keys, rows):
        left, right = ex.row_pairs(np.array(keys, dtype=np.intp),
                                   np.array(rows, dtype=np.intp))
        expected = [(i, j) for i, key in enumerate(keys)
                    for j, row in enumerate(rows) if row == key]
        assert list(zip(left.tolist(), right.tolist())) == expected


def test_pwl_atoms_are_convex_atoms():
    assert {"abs", "max"} <= set(ALL_ATOMS)
    for name in ("abs", "max"):
        assert ex.ATOMS[name].curvature_class is ex.Curvature.CONVEX


# --- QP analysis that stops at affine subtrees -----------------------------

def _every_node(expr):
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def _live_label_words(expr):
    """The atom label sets on every root-to-variable path of ``expr`` that
    stays outside constant subtrees, one word per path."""
    if expr.curvature.is_constant:
        return []
    if expr.kind in ("var", "form"):  # a form's paths hold affine labels only
        return [[]]
    head = ex.ATOMS[expr.atom].labels
    return [[head] + word for child in expr.children
            for word in _live_label_words(child)]


def _live(node):
    return node.kind == "atom" and not node.curvature.is_constant


def _qp_applicable_reference(problem):
    """DCP, piecewise-linear constraint atoms, and every objective path
    accepted by the machine; an atomless path is an affine objective."""
    if not ex.is_dcp(problem)[0]:
        return False
    if any(_live(n) and not ex.ATOMS[n.atom].labels <= {"A", "P"}
           for c in problem.constraints for e in (c.lhs, c.rhs)
           for n in _every_node(e)):
        return False
    nfa = PathNfa()
    return all(not word or nfa.accepts(word)
               for word in _live_label_words(problem.objective))


def _uses_quadratic_atom_reference(problem):
    return any(_live(n) and "Q" in ex.ATOMS[n.atom].labels
               for _, e, _ in ex.walk_expressions(problem) for n in _every_node(e))


def _random_analysis_problem(rng):
    """A problem over trees of depth 1-5 with all atoms, a scalar and a
    vector variable; half the draws keep only trees that DCP admits."""
    decls = [ex.VariableDecl(0, "x"), ex.VariableDecl(1, "y", 3)]
    sense = (ex.Sense.MINIMIZE, ex.Sense.MAXIMIZE)[int(rng.integers(2))]
    depth = int(rng.integers(1, 6))
    dcp_only = bool(rng.integers(2))

    def keep(objective, cons=()):
        return not dcp_only or \
            ex.is_dcp(ex.make_problem(sense, objective, list(cons), decls))[0]

    objective = ex.constant(0.0)
    for _ in range(20):
        tree = random_expression(rng, decls, depth)
        tree = ex.sum_(tree) if tree.dim != 1 else tree
        if keep(tree):
            objective = tree
            break
    cons = []
    for _ in range(int(rng.integers(0, 4))):
        lhs = random_expression(rng, decls, int(rng.integers(1, depth + 1)))
        rhs = random_expression(rng, decls, int(rng.integers(1, depth + 1)))
        if lhs.dim != rhs.dim and 1 not in (lhs.dim, rhs.dim):
            rhs = ex.constant(0.0)
        con = (lhs, list(ex.Relation)[int(rng.integers(3))], rhs)
        if keep(ex.constant(0.0), [con]):
            cons.append(con)
    return ex.make_problem(sense, objective, cons, decls)


def test_pruned_qp_analysis_matches_full_walk_references():
    rng = np.random.default_rng(2024)
    outcomes = set()
    for _ in range(2000):
        problem = _random_analysis_problem(rng)
        expected = _qp_applicable_reference(problem)
        assert qp_applicable(problem) == expected, problem
        assert uses_quadratic_atom(problem) == _uses_quadratic_atom_reference(problem)
        outcomes.add((ex.is_dcp(problem)[0], expected))
    assert outcomes == {(False, False), (True, False), (True, True)}
