"""QP applicability machine, quadratic extraction, and QP/LP stuffing."""

import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dcpc import expressions as ex
from dcpc import randgen
from dcpc.cli import main as cli_main
from dcpc.parsing import parse_problem, print_problem
from dcpc.reductions.cone import (GraphExpand, StuffCone, affine_row_data,
                                  dense_rows, stack_variables)
from dcpc.reductions.framework import ReductionError, Solution, Status
from dcpc.reductions.cone import ConeDims
from dcpc.analyzer import TargetClass, build_chain, solve_problem
from dcpc.reductions.qp import (PathNfa, StuffLp, StuffQp, qp_applicable, quadratic_form,
                                uses_quadratic_atom)
from dcpc.reductions.framework import ReductionChain
from dcpc.reductions.standard import CanonConstraint, CanonStage
from dcpc.solvers import solve_admm

from helpers import batch_eval, hinge_square_problem, scipy_csr, toy_problem


def scalar_var(vid=0, name="x"):
    decl = ex.VariableDecl(vid, name)
    return decl, ex.var_ref(decl)


class TestPathNfa:
    ACCEPTED = ["A", "AQ", "AQP", "P", "PP", "Q"]
    REJECTED = ["QA", "PQ", "QQ"]

    @pytest.mark.parametrize("word", ACCEPTED)
    def test_accepted_words(self, word):
        assert PathNfa().accepts(word)

    @pytest.mark.parametrize("word", REJECTED)
    def test_rejected_words(self, word):
        assert not PathNfa().accepts(word)

    def test_empty_word_rejected_by_raw_machine(self):
        nfa = PathNfa()
        assert nfa.simulate([]) == frozenset({"q0"})
        assert not nfa.accepts([])

    @pytest.mark.parametrize("word", ["N", "AN", "NP", "QN"])
    def test_no_norm_edges(self, word):
        assert not PathNfa().accepts(word)

    def test_subset_simulation_tracks_both_affine_readings(self):
        nfa = PathNfa()
        both = frozenset({"A", "P"})
        assert nfa.simulate([both]) == frozenset({"q1", "q3"})
        # Reading the affine atom as A keeps the Q transition alive.
        assert nfa.accepts([both, frozenset({"Q"})])
        # ... but once a genuine P has fired, Q is dead in every reading.
        assert not nfa.accepts([frozenset({"P"}), frozenset({"Q"})])

    def test_simulate_reaches_expected_states(self):
        nfa = PathNfa()
        assert nfa.simulate("AQ") == frozenset({"q2"})
        assert nfa.simulate("AQP") == frozenset({"q3"})
        assert nfa.simulate("QQ") == frozenset()

    def test_longer_words(self):
        nfa = PathNfa()
        assert nfa.accepts("AAAA")
        assert nfa.accepts("AAQPP")
        assert not nfa.accepts("AQPA")
        assert not nfa.accepts("AQQ")


class TestQpApplicable:
    def test_hinge_square_is_applicable(self):
        assert qp_applicable(hinge_square_problem())

    def test_toy_problem_is_applicable(self):
        assert qp_applicable(toy_problem())

    @pytest.mark.parametrize("build", [
        lambda x: ex.add(x, ex.square(ex.constant(2.0))),
        lambda x: ex.add(x, ex.norm2(ex.constant([3.0, 4.0]))),
        lambda x: ex.add(ex.square(ex.add(x, ex.constant(1.0))),
                         ex.mul(ex.constant(3.0), x)),
    ], ids=["constant-square", "constant-norm", "quadratic-plus-linear"])
    def test_objective_paths_accepted(self, build):
        # Constant subtrees carry no variable, so they add no path: a
        # constant norm is no reason to reject.
        decl, x = scalar_var()
        p = ex.make_problem(ex.Sense.MINIMIZE, build(x), [], [decl])
        assert qp_applicable(p)

    def test_norm_objective_is_not(self):
        d = ex.VariableDecl(0, "v", 3)
        p = ex.make_problem(ex.Sense.MINIMIZE, ex.norm2(ex.var_ref(d)), [], [d])
        assert not qp_applicable(p)

    def test_pwl_above_quadratic_is_not(self):
        decl, x = scalar_var()
        obj = ex.max_(ex.square(x), ex.constant(0.0))
        p = ex.make_problem(ex.Sense.MINIMIZE, obj, [], [decl])
        assert not qp_applicable(p)

    def test_quadratic_above_pwl_is_fine(self):
        decl, x = scalar_var()
        p = ex.make_problem(ex.Sense.MINIMIZE, ex.square(ex.abs_(x)), [], [decl])
        assert qp_applicable(p)

    def test_abs_of_square_rejected(self):
        decl, x = scalar_var()
        p = ex.make_problem(ex.Sense.MINIMIZE, ex.abs_(ex.square(x)), [], [decl])
        ok, _ = ex.is_dcp(p)
        assert ok  # DCP-compliant, yet outside the QP fragment
        assert not qp_applicable(p)

    def test_non_dcp_rejected(self):
        decl, x = scalar_var()
        p = ex.make_problem(ex.Sense.MAXIMIZE, ex.square(x), [], [decl])
        assert not qp_applicable(p)

    def test_quadratic_constraint_rejected(self):
        decl, x = scalar_var()
        cons = [(ex.square(x), ex.Relation.LE, ex.constant(4.0))]
        p = ex.make_problem(ex.Sense.MINIMIZE, x, cons, [decl])
        assert ex.is_dcp(p)[0]
        assert not qp_applicable(p)

    def test_constant_subtree_in_constraint_ignored(self):
        decl, x = scalar_var()
        cons = [(x, ex.Relation.LE, ex.square(ex.constant(2.0)))]
        p = ex.make_problem(ex.Sense.MINIMIZE, x, cons, [decl])
        assert qp_applicable(p)

    def test_nonaffine_equality_rejected(self):
        decl, x = scalar_var()
        cons = [(ex.abs_(x), ex.Relation.EQ, ex.constant(1.0))]
        p = ex.make_problem(ex.Sense.MINIMIZE, x, cons, [decl])
        assert not qp_applicable(p)

    def test_bare_variable_objective_accepted(self):
        decl, x = scalar_var()
        cons = [(x, ex.Relation.GE, ex.constant(1.0))]
        p = ex.make_problem(ex.Sense.MINIMIZE, x, cons, [decl])
        assert qp_applicable(p)

    def test_constant_objective_accepted(self):
        decl, x = scalar_var()
        cons = [(x, ex.Relation.LE, ex.constant(1.0))]
        p = ex.make_problem(ex.Sense.MINIMIZE, ex.constant(3.0), cons, [decl])
        assert qp_applicable(p)

    def test_pwl_inequality_sides_accepted(self):
        decl, x = scalar_var()
        cons = [(ex.abs_(x), ex.Relation.LE, ex.constant(2.0))]
        p = ex.make_problem(ex.Sense.MINIMIZE, x, cons, [decl])
        assert qp_applicable(p)


class TestUsesQuadraticAtom:
    def test_hinge_uses_quadratic(self):
        assert uses_quadratic_atom(hinge_square_problem())

    def test_toy_is_quadratic_free(self):
        assert not uses_quadratic_atom(toy_problem())

    def test_constant_square_does_not_count(self):
        decl, x = scalar_var()
        obj = ex.add(x, ex.square(ex.constant(2.0)))
        p = ex.make_problem(ex.Sense.MINIMIZE, obj, [], [decl])
        assert not uses_quadratic_atom(p)

    def test_quadratic_in_constraint_counts(self):
        decl, x = scalar_var()
        d = ex.VariableDecl(1, "v", 2)
        cons = [(ex.sum_squares(ex.var_ref(d)), ex.Relation.LE, ex.constant(1.0))]
        p = ex.make_problem(ex.Sense.MINIMIZE, x, cons, [decl, d])
        assert uses_quadratic_atom(p)


def dense_quadratic_form(expr, var_offsets, width):
    """Reference: the same extraction over dense (rows, width, width) tensors."""

    def enter(node, _):
        return not node.curvature.is_constant and node.atom not in ("square", "sum_squares")

    def down(node, i, _):
        return node.atom == "mul_const" and node.children[i].curvature.is_constant

    def rows(parts, d):
        return [np.broadcast_to(a, (d,) + a.shape[1:]) for a in parts]

    def leave(node, parts, value_only):
        if value_only:
            return ex.evaluate(node, {})
        d = node.dim
        if node.kind == "var" or node.curvature.is_constant:
            T, Q, k = np.zeros((d, width, width)), np.zeros((d, width)), np.zeros(d)
            if node.kind == "var":
                Q[np.arange(d), var_offsets[node.var_id][0] + np.arange(d)] = 1.0
            else:
                k[:] = ex.evaluate(node, {})
            return T, Q, k
        if node.kind == "form":  # its coefficient blocks, written densely
            coeffs, k = node.payload
            T, Q = np.zeros((d, width, width)), np.zeros((d, width))
            for ref in node.refs:
                r, c, x = coeffs[ref.var_id]
                Q[r, var_offsets[ref.var_id][0] + c] = x
            return T, Q, k
        if node.atom in ("square", "sum_squares"):
            M, c = affine_row_data(node.children[0], var_offsets, width)
            M = dense_rows(M, c.size, width)
            if node.atom == "square":
                return 2.0 * np.einsum("ij,ik->ijk", M, M), 2.0 * c[:, None] * M, c ** 2
            return ((2.0 * M.T @ M)[None], (2.0 * M.T @ c)[None],
                    np.array([float(c @ c)]))
        if node.atom in ("add", "sub"):
            sign = 1.0 if node.atom == "add" else -1.0
            a, b = rows(parts[0], d), rows(parts[1], d)
            return tuple(u + sign * v for u, v in zip(a, b))
        if node.atom == "mul_const":
            const_first = node.children[0].curvature.is_constant
            scale = np.broadcast_to(parts[0 if const_first else 1], (d,))
            T, Q, k = rows(parts[1 if const_first else 0], d)
            return scale[:, None, None] * T, scale[:, None] * Q, scale * k
        T, Q, k = parts[0]
        if node.atom == "neg":
            return -T, -Q, -k
        if node.atom == "sum":
            return (T.sum(axis=0, keepdims=True), Q.sum(axis=0, keepdims=True),
                    k.sum(keepdims=True))
        i = node.param
        return T[i:i + 1], Q[i:i + 1], k[i:i + 1]

    T, Q, k = ex.fold(expr, leave, enter, down, False)
    return 0.5 * (T[0] + T[0].T), Q[0], float(k[0])


class TestQuadraticForm:
    def form(self, expr, variables):
        offsets, width = stack_variables(variables)
        P, q, r = quadratic_form(expr, offsets, width)
        return P.toarray(), q, r

    def test_square_of_variable(self):
        decl, x = scalar_var()
        P, q, r = self.form(ex.square(x), [decl])
        np.testing.assert_array_equal(P, [[2.0]])
        np.testing.assert_array_equal(q, [0.0])
        assert r == 0.0

    def test_shifted_square_plus_linear(self):
        decl, x = scalar_var()
        expr = ex.add(ex.square(ex.add(x, ex.constant(1.0))),
                      ex.mul(ex.constant(3.0), x))
        P, q, r = self.form(expr, [decl])
        np.testing.assert_array_equal(P, [[2.0]])
        np.testing.assert_array_equal(q, [5.0])
        assert r == 1.0

    def test_sum_squares_vector(self):
        d = ex.VariableDecl(0, "y", 2)
        P, q, r = self.form(ex.sum_squares(ex.var_ref(d)), [d])
        np.testing.assert_array_equal(P, 2.0 * np.eye(2))
        np.testing.assert_array_equal(q, np.zeros(2))
        assert r == 0.0

    def test_affine_expression(self):
        decl, x = scalar_var()
        expr = ex.add(ex.mul(ex.constant(3.0), x), ex.constant(2.0))
        P, q, r = self.form(expr, [decl])
        np.testing.assert_array_equal(P, [[0.0]])
        np.testing.assert_array_equal(q, [3.0])
        assert r == 2.0

    def test_constant_expression(self):
        decl, _ = scalar_var()
        P, q, r = self.form(ex.constant(5.0), [decl])
        assert not P.any() and not q.any()
        assert r == 5.0

    def test_shifted_square_constant_term(self):
        decl, x = scalar_var()
        P, q, r = self.form(ex.square(ex.sub(x, ex.constant(3.0))), [decl])
        np.testing.assert_array_equal(P, [[2.0]])
        np.testing.assert_array_equal(q, [-6.0])
        assert r == 9.0

    def test_sum_of_vector_square_equals_sum_squares(self):
        d = ex.VariableDecl(0, "v", 3)
        v = ex.var_ref(d)
        via_sum = self.form(ex.sum_(ex.square(v)), [d])
        via_atom = self.form(ex.sum_squares(v), [d])
        for a, b in zip(via_sum, via_atom):
            np.testing.assert_allclose(a, b)
        np.testing.assert_array_equal(via_sum[0], 2.0 * np.eye(3))

    def test_index_of_vector_square(self):
        d = ex.VariableDecl(0, "v", 3)
        P, q, r = self.form(ex.index(ex.square(ex.var_ref(d)), 1), [d])
        expected = np.zeros((3, 3))
        expected[1, 1] = 2.0
        np.testing.assert_array_equal(P, expected)
        assert not q.any() and r == 0.0

    def test_scaled_square(self):
        decl, x = scalar_var()
        P, q, r = self.form(ex.mul(ex.constant(3.0), ex.square(x)), [decl])
        np.testing.assert_array_equal(P, [[6.0]])

    def test_vector_scale_then_index(self):
        decl, x = scalar_var()
        scaled = ex.mul(ex.constant(np.array([1.0, 2.0])), ex.square(x))
        P, q, r = self.form(ex.index(scaled, 1), [decl])
        np.testing.assert_array_equal(P, [[4.0]])

    def test_sum_squares_of_affine_argument(self):
        d = ex.VariableDecl(0, "y", 2)
        arg = ex.add(ex.mul(ex.constant(2.0), ex.var_ref(d)), ex.constant(1.0))
        P, q, r = self.form(ex.sum_squares(arg), [d])
        np.testing.assert_allclose(P, 8.0 * np.eye(2))
        np.testing.assert_allclose(q, [4.0, 4.0])
        assert r == pytest.approx(2.0)

    def test_two_variable_cross_terms(self):
        dx, x = scalar_var(0, "x")
        dy = ex.VariableDecl(1, "y")
        y = ex.var_ref(dy)
        P, q, r = self.form(ex.square(ex.sub(x, y)), [dx, dy])
        np.testing.assert_allclose(P, [[2.0, -2.0], [-2.0, 2.0]])

    def test_form_matches_evaluation_on_random_points(self):
        rng = np.random.default_rng(7)
        dx = ex.VariableDecl(0, "x", 2)
        dy = ex.VariableDecl(1, "y")
        x, y = ex.var_ref(dx), ex.var_ref(dy)
        exprs = [
            ex.square(y),
            ex.add(ex.sum_squares(x), ex.mul(ex.constant(3.0), y)),
            ex.sub(ex.square(ex.add(ex.index(x, 0), y)), ex.constant(4.0)),
            ex.sum_(ex.square(ex.sub(x, ex.constant(np.array([1.0, -2.0]))))),
            ex.add(ex.mul(ex.constant(0.5), ex.sum_squares(
                ex.add(x, ex.constant(1.0)))), ex.square(ex.neg(y))),
            ex.neg(ex.neg(ex.square(y))),
        ]
        offsets, width = stack_variables([dx, dy])
        for expr in exprs:
            P, q, r = quadratic_form(expr, offsets, width)
            P = P.toarray()
            np.testing.assert_allclose(P, P.T, atol=1e-12)
            samples = rng.normal(size=(width, 100))
            vals = batch_eval(expr, {0: samples[0:2], 1: samples[2:3]})[0]
            model = 0.5 * np.einsum("is,ij,js->s", samples, P, samples) \
                + q @ samples + r
            np.testing.assert_allclose(model, vals, atol=1e-9)

    def test_bit_identical_to_dense_reference(self):
        rng = np.random.default_rng(11)
        dx = ex.VariableDecl(0, "x", 6)
        dy = ex.VariableDecl(1, "y")
        x, y = ex.var_ref(dx), ex.var_ref(dy)
        a = ex.constant(np.round(rng.normal(size=6), 3))
        b = ex.constant(np.round(rng.normal(size=6), 3))
        affine = ex.add(ex.mul(a, y), ex.sub(ex.mul(b, x), ex.constant(0.3)))
        cases = [([dx, dy], e) for e in (
            ex.sum_(ex.square(affine)),
            ex.sub(ex.mul(ex.constant(1.7), ex.index(ex.square(affine), 1)),
                   ex.sum_(ex.mul(a, ex.neg(ex.square(ex.sub(x, y)))))),
            ex.sum_(ex.add(ex.mul(b, ex.square(x)), ex.square(ex.mul(a, y)))),
            ex.add(ex.sum_squares(affine), ex.sum_(ex.sub(x, ex.square(y)))),
            ex.sum_squares(ex.sub(ex.mul(b, x), a)),  # a diagonal Hessian
        )]
        # A vector constant times a scalar quadratic tiles one-row blocks.
        dz = ex.VariableDecl(2, "z", 2)
        scaled = ex.mul(ex.constant(np.array([1.3, -0.7, 2.1])), ex.square(
            ex.sub(ex.mul(ex.constant(0.3), y), ex.constant(1.1))))
        cases.append(([dy, dz], ex.add(ex.sum_(scaled),
                                       ex.sum_squares(ex.var_ref(dz)))))
        # At width 1 numpy sums the (12, 1, 1) Hessian rows pairwise.
        a1 = ex.constant(np.array([2.04, -2.56, 0.42, -0.57, -0.45, -0.22,
                                   -2.02, -0.23, -0.87, 3.32, 0.23, -0.35]))
        c1 = ex.constant(np.array([-0.28, -0.67, -1.06, -0.39, 0.48, -0.24,
                                   0.96, -0.2, 0.02, 1.55, 0.55, -0.51]))
        cases.append(([dy], ex.sum_(ex.square(ex.sub(ex.mul(a1, y), c1)))))
        for seed in range(40):
            problem = randgen.random_qp_problem(np.random.default_rng(seed), 4)
            stage, _ = GraphExpand(quadratic_objective=True).apply(problem)
            cases.append((stage.variables, stage.objective))
        for variables, expr in cases:
            offsets, width = stack_variables(variables)
            P, q, r = quadratic_form(expr, offsets, width)
            got = P.toarray(), q, r
            want = dense_quadratic_form(expr, offsets, width)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_hessian_columns_past_32_bits(self):
        # Hessian columns j·width + l pass 2**32 at this width.
        dz, dx = ex.VariableDecl(0, "z", 65536), ex.VariableDecl(1, "x", 2)
        x = ex.var_ref(dx)
        expr = ex.sum_(ex.add(ex.square(x), ex.square(
            ex.sub(x, ex.constant(np.array([1.0, 2.0]))))))
        offsets, width = stack_variables([dz, dx])
        P, q, r = quadratic_form(expr, offsets, width)
        assert P.nnz == 2
        np.testing.assert_array_equal(scipy_csr(P)[65536:, 65536:].toarray(), 4.0 * np.eye(2))
        assert not q[:65536].any()
        np.testing.assert_array_equal(q[65536:], [-2.0, -4.0])
        assert r == 5.0

    def test_psd_for_convex_quadratics(self):
        rng = np.random.default_rng(21)
        d = ex.VariableDecl(0, "v", 3)
        v = ex.var_ref(d)
        offsets, width = stack_variables([d])
        for _ in range(20):
            a = ex.constant(np.round(rng.normal(size=3), 3))
            b = ex.constant(float(rng.normal()))
            expr = ex.add(ex.sum_squares(ex.add(v, a)),
                          ex.square(ex.add(ex.sum_(ex.mul(a, v)), b)))
            P = quadratic_form(expr, offsets, width)[0].toarray()
            np.testing.assert_allclose(P, P.T, atol=1e-12)
            assert np.linalg.eigvalsh(P).min() >= -1e-9

    def test_norm_atom_errors(self):
        d = ex.VariableDecl(0, "v", 2)
        offsets, width = stack_variables([d])
        with pytest.raises(ReductionError, match="norm2"):
            quadratic_form(ex.norm2(ex.var_ref(d)), offsets, width)

    def test_pwl_atom_errors(self):
        decl, x = scalar_var()
        offsets, width = stack_variables([decl])
        with pytest.raises(ReductionError, match="abs"):
            quadratic_form(ex.abs_(x), offsets, width)

    def test_nested_square_errors(self):
        decl, x = scalar_var()
        offsets, width = stack_variables([decl])
        with pytest.raises(ReductionError, match="square"):
            quadratic_form(ex.square(ex.square(x)), offsets, width)

    def test_vector_expression_errors(self):
        d = ex.VariableDecl(0, "v", 2)
        offsets, width = stack_variables([d])
        with pytest.raises(ReductionError, match="scalar"):
            quadratic_form(ex.square(ex.var_ref(d)), offsets, width)


class TestCanonicalizeQp:
    def test_toy_problem_data_is_bit_exact(self):
        p = toy_problem()
        data, _ = build_chain(p, TargetClass.QP).apply(p)
        assert [v.name for v in data.variables] == ["alice", "bob", "_t2"]
        np.testing.assert_array_equal(data.P.toarray(), np.zeros((3, 3)))
        np.testing.assert_array_equal(data.q, [0.0, 0.0, 1.0])
        assert data.offset == 0.0
        # Ax == b rows first, then Gx <= h.
        assert data.cones == ConeDims(1, 3, ())
        np.testing.assert_array_equal(
            data.A.toarray(), [[0.0, 1.0, 0.0],
                               [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(data.b, [-0.5, -2.0, 0.0, 0.0])
        assert data.var_offsets == {0: (0, 1), 1: (1, 1), 2: (2, 1)}

    def test_hinge_square_data(self):
        p = hinge_square_problem()
        data, _ = build_chain(p, TargetClass.QP).apply(p)
        assert [v.name for v in data.variables] == ["x", "_t1", "_t2"]
        np.testing.assert_array_equal(
            data.P.toarray(), [[0.0, 0.0, 0.0], [0.0, 2.0, 2.0], [0.0, 2.0, 2.0]])
        np.testing.assert_array_equal(data.q, np.zeros(3))
        assert data.offset == 0.0
        assert data.cones == ConeDims(0, 4, ())  # no equality rows
        np.testing.assert_array_equal(
            data.A.toarray(), [[1.0, -1.0, 0.0], [0.0, -1.0, 0.0],
                               [1.0, 0.0, -1.0], [0.0, 0.0, -1.0]])
        np.testing.assert_array_equal(data.b, [0.0, 0.0, 1.0, 0.0])

    def test_rejects_outside_fragment(self):
        d = ex.VariableDecl(0, "v", 2)
        p = ex.make_problem(ex.Sense.MINIMIZE, ex.norm2(ex.var_ref(d)), [], [d])
        with pytest.raises(ReductionError):
            build_chain(p, TargetClass.QP).apply(p)

    def test_retrieval_drops_epigraph_variables(self):
        problem = hinge_square_problem()
        chain = build_chain(problem, TargetClass.QP)
        data, record = chain.apply(problem)
        raw = Solution(status=Status.OPTIMAL,
                       primal={0: np.array([-1.0]), 1: np.array([0.0]),
                               2: np.array([0.0])},
                       value=0.0)
        restored = chain.retrieve(raw, record)
        assert set(restored.primal) == {0}
        np.testing.assert_array_equal(restored.primal[0], [-1.0])
        assert restored.value == 0.0

    def test_objective_value_matches_quadratic_model(self):
        rng = np.random.default_rng(3)
        problem = hinge_square_problem()
        data, _ = build_chain(problem, TargetClass.QP).apply(problem)
        # On points where the epigraph variables are tight, the QP objective
        # reproduces the original piecewise objective.
        for _ in range(50):
            x = float(rng.uniform(-2.0, 3.0))
            stacked = np.array([x, max(x, 0.0), max(x - 1.0, 0.0)])
            model = 0.5 * stacked @ data.P.toarray() @ stacked + data.q @ stacked + data.offset
            truth = (max(x, 0.0) + max(x - 1.0, 0.0)) ** 2
            assert model == pytest.approx(truth, abs=1e-12)
            assert (data.A.toarray() @ stacked <= data.b + 1e-12).all()


class TestHessianProbe:
    def test_second_differences_of_original_objective(self):
        problem = hinge_square_problem()
        h = 1e-4

        def f(x):
            return float(ex.evaluate(problem.objective, {0: np.array([x])})[0])

        for point, expected in [(-1.0, 0.0), (0.5, 2.0), (2.0, 8.0)]:
            fd = (f(point + h) - 2.0 * f(point) + f(point - h)) / h ** 2
            assert fd == pytest.approx(expected, abs=1e-4)


class TestStuffLp:
    def lp_chain(self):
        return ReductionChain([GraphExpand(), StuffLp()])

    def test_toy_problem_lp_data(self):
        data, _ = self.lp_chain().apply(toy_problem())
        assert data.P is None
        np.testing.assert_array_equal(data.q, [0.0, 0.0, 1.0])
        assert data.cones == ConeDims(1, 3, ())
        np.testing.assert_array_equal(
            data.A.toarray(), [[0.0, 1.0, 0.0],
                               [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(data.b, [-0.5, -2.0, 0.0, 0.0])
        assert data.offset == 0.0
        assert data.var_offsets == {0: (0, 1), 1: (1, 1), 2: (2, 1)}

    def test_offset_carries_objective_constant(self):
        decl, x = scalar_var()
        obj = ex.add(x, ex.constant(7.0))
        cons = [(x, ex.Relation.LE, ex.constant(1.0))]
        p = ex.make_problem(ex.Sense.MINIMIZE, obj, cons, [decl])
        data, _ = self.lp_chain().apply(p)
        np.testing.assert_array_equal(data.q, [1.0])
        assert data.offset == 7.0

    def test_rejects_quadratic_objective(self):
        decl, x = scalar_var()
        p = ex.make_problem(ex.Sense.MINIMIZE, ex.square(x), [], [decl])
        stage, _ = GraphExpand(quadratic_objective=True).apply(p)
        assert not StuffLp().accepts(stage) and StuffQp().accepts(stage)
        with pytest.raises(ReductionError):
            StuffLp().apply(stage)

    def test_lp_and_qp_refuse_soc_rows(self):
        stage = GraphExpand(quadratic_objective=True).apply(
            parse_problem("var x[2]; minimize x[0]; subject to norm2(x) <= 1;"))[0]
        assert [c.kind for c in stage.constraints] == ["soc", "nonpos"]
        assert StuffCone().accepts(stage)
        for stuffer in (StuffLp(), StuffQp()):
            assert not stuffer.accepts(stage)
            with pytest.raises(ReductionError):
                stuffer.apply(stage)

    def test_stuff_qp_refuses_what_has_no_constant_hessian(self):
        decl, x = scalar_var()
        for objective in (ex.square(ex.abs_(x)),  # a square of a nonaffine term
                          ex.add(ex.square(x), ex.abs_(x)),  # a piecewise-linear atom
                          ex.norm2(x)):
            stage = CanonStage(objective, (), (decl,))
            assert not StuffQp().accepts(stage) and not StuffLp().accepts(stage)
            with pytest.raises(ReductionError):
                StuffQp().apply(stage)
        nonaffine_row = CanonStage(ex.square(x), (CanonConstraint.nonpos(ex.abs_(x)),), (decl,))
        assert not StuffQp().accepts(nonaffine_row)
        assert StuffQp().accepts(CanonStage(ex.square(x), (CanonConstraint.nonpos(x),), (decl,)))

    def test_stuff_qp_accepts_only_moved_problems(self):
        # the moved form is GraphExpand's canon stage: a problem is refused
        assert not StuffQp().accepts(toy_problem())
        decl, x = scalar_var()
        cons = [(x, ex.Relation.GE, ex.constant(0.0))]
        p = ex.make_problem(ex.Sense.MINIMIZE, ex.square(x), cons, [decl])
        assert not StuffQp().accepts(p)
        assert StuffQp().accepts(GraphExpand(quadratic_objective=True).apply(p)[0])

    def test_rejects_a_scalar_side_broadcast_over_zero_rows(self):
        # A problem is not a canon stage, so stuffing refuses it.
        decl = ex.VariableDecl(0, "x", 3)
        x = ex.var_ref(decl)
        cons = [(ex.sum_(x), ex.Relation.LE, ex.constant([0.0, 0.0, 0.0]))]
        p = ex.make_problem(ex.Sense.MINIMIZE, ex.sum_(x), cons, [decl])
        assert not StuffLp().accepts(p) and not StuffQp().accepts(p)
        with pytest.raises(ReductionError):
            StuffLp().apply(p)
        # The full chain writes its row as sum(x) <= 0 first and solves it.
        out = solve_problem(ex.make_problem(ex.Sense.MAXIMIZE, ex.sum_(x), cons, [decl]))
        assert out.report.target is TargetClass.LP
        assert out.solution.status is Status.OPTIMAL and out.solution.value == 0.0


def stuff_qp_peak(objective, n):
    """``StuffQp``'s data and tracemalloc peak on ``objective`` over ``var
    x[n]`` with box rows, where ``{c}`` is a center vector, after the QP
    route's ``GraphExpand``."""
    center = ", ".join(f"{v:.2f}" for v in np.linspace(-3.0, 3.0, n))
    problem = parse_problem(
        f"var x[{n}];\nminimize {objective.format(c=f'[{center}]')};\n"
        "subject to\n  x <= 10;\n  x >= -10;\n")
    stage, _ = GraphExpand(quadratic_objective=True).apply(problem)
    tracemalloc.start()
    try:
        data, _ = StuffQp().apply(stage)
        return data, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStuffQpMemory:
    def test_vector_epigraph_stays_small(self):
        # sum(abs(x)) leaves sum(t) over a 400-vector epigraph variable; its
        # row Hessians are all zero, so stuffing must not cost n * width^2.
        n = 400
        data, peak = stuff_qp_peak("sum_squares(x - {c}) + sum(abs(x))", n)
        assert peak < 64 * 2**20, f"StuffQp peaked at {peak / 2**20:.0f} MB"
        np.testing.assert_array_equal(data.P.toarray()[:n, :n], 2.0 * np.eye(n))
        assert np.count_nonzero(data.P.toarray()) == n

    def test_vector_square_keeps_no_dense_row(self):
        # square of an n-vector: its linear rows once peaked at n * width
        # floats (61 MB at n = 2000).
        n = 2000
        data, peak = stuff_qp_peak("sum(square(x - {c}))", n)
        assert peak < 8 * 2**20, f"StuffQp peaked at {peak / 2**20:.1f} MB"
        assert data.P.shape == (n, n) and data.P.nnz == n
        np.testing.assert_array_equal(scipy_csr(data.P).diagonal(), 2.0)


@pytest.fixture(scope="module")
def wide_cone_stage():
    """``norm2(x - c) + sum(square(x))`` with box rows at n = 2000, as the
    canon stage that StuffCone takes: 12001 rows over 4001 columns."""
    n = 2000
    center = ", ".join(f"{v:.2f}" for v in np.linspace(-3.0, 3.0, n))
    stage = parse_problem(
        f"var x[{n}];\nminimize norm2(x - [{center}]) + sum(square(x));\n"
        "subject to\n  x <= 10;\n  x >= -10;\n")
    return GraphExpand().apply(stage)[0]


class TestStuffConeMemory:
    """A dense ``A`` of the wide-cone stage is 384 MB; its stuffing peaked at
    736 MB when every row was stacked dense.  It holds 12001 nonzeros."""

    def test_stuffing_stays_small(self, wide_cone_stage):
        tracemalloc.start()
        try:
            data, _ = StuffCone().apply(wide_cone_stage)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"StuffCone peaked at {peak / 2**20:.0f} MB"
        assert data.A.shape == (12001, 4001) and data.A.nnz == 12001

    def test_solve_allocates_no_dense_matrix(self, wide_cone_stage):
        data, _ = StuffCone().apply(wide_cone_stage)
        tracemalloc.start()
        try:
            raw = solve_admm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert raw.status is Status.OPTIMAL
        assert peak < 32 * 2**20, f"solve_admm peaked at {peak / 2**20:.0f} MB"


GOLDEN = Path(__file__).parent / "golden"

# Entries of P that add several inexact products: the order in which a sum
# combines its rows and an add its operands decides their last bits.
SUMS = """\
var x;
var y;
minimize 0.37 * square(1.13 * x + 0.71 * y)
  + sum(square([1.13, 0.29, 0.61, 0.37] * x + [0.71, -2.3, 0.47, 1.9] * y
               + [0.1, 0.2, 0.3, 0.4]));
subject to
  x + y <= 1;
"""


def _random_qp_text(seed):
    return print_problem(randgen.random_qp_problem(np.random.default_rng(seed), 4))


NORM2 = """\
var x[4];
minimize norm2(x - [1, 2, 3, 4]);
subject to
  sum(x) <= 5;
"""

# Affine addends, a constant product that is not a leaf and a vector sum.
AFFINE = """\
var x[3];
var y;
minimize (2 + 1)*sum_squares(x - [1, 2, 3]) + sum(2*x - [1, 1, 1]) - y
  + square(0.1*y - 1) + 0.3;
subject to
  x >= -1;
  y <= 5;
"""

# One-column sums: a (40, 1) coefficient block is summed pairwise, as numpy
# sums one contiguous column, and a sequential sum differs in the last bit.
ONE_COLUMN = [0.27, -0.46, -0.92, -0.97, 0.63, 0.83, 0.21, 0.46, 0.09, 0.87,
              0.63, -0.99, 0.71, -0.93, 0.46, -0.65, 0.73, 0.08, -0.4, -0.15,
              -0.94, -0.75, 0.34, 0.29, 0.23, -0.23, 0.99, 0.96, 0.37, 0.3,
              0.38, -0.22, -0.73, 0.44, 0.05, -0.38, -0.03, 0.78, 0.87, -0.28]
SUM_ONE_COLUMN = f"""\
var y;
var z;
minimize sum({ONE_COLUMN} * y) + z;
subject to
  sum({ONE_COLUMN} * y) - z <= 1;
  y >= -1;
  y <= 1;
  z >= -1;
"""

# A right-nested add of one column under a product: 1.3*(1 + (0.1 + 0.3)),
# 1.3*((1 + 0.1) + 0.3) and 1.3*1 + 1.3*(0.1 + 0.3) differ in the last bit.
RIGHT_NESTED = """\
var x[2];
minimize x[1] + 1.3*(x[0] + (0.1*x[0] + 0.3*x[0]));
subject to
  1.3*(x[0] + (0.1*x[0] + 0.3*x[0])) <= 1;
  x >= -1;
"""

# A coefficient that cancels to zero: the stored row holds x[1] only.
CANCELLING = """\
var x[2];
minimize x[1];
subject to
  x[0] - x[0] + x[1] <= 1;
  x >= -1;
"""

# (name, source, cli arguments after the file).  The toy LP goes out under
# all three layouts: its cone document has no SOC and the same rows as the LP
# one, so only the chain, not the data, says which layout to write.
DOCUMENTS = [
    ("qp_hinge", lambda: print_problem(hinge_square_problem()), ["--target", "qp"]),
    ("qp_random_85", lambda: _random_qp_text(85), ["--target", "qp"]),
    ("qp_random_165", lambda: _random_qp_text(165), ["--target", "qp"]),
    ("qp_sums", lambda: SUMS, ["--target", "qp"]),
    ("qp_affine", lambda: AFFINE, ["--target", "qp"]),
    ("lp_toy", lambda: print_problem(toy_problem()), ["--target", "lp"]),
    ("qp_toy", lambda: print_problem(toy_problem()), ["--target", "qp"]),
    ("cone_toy", lambda: print_problem(toy_problem()), ["--target", "cone"]),
    ("cone_hinge", lambda: print_problem(hinge_square_problem()),
     ["--target", "cone"]),
    ("cone_norm2_decomposed", lambda: NORM2,
     ["--target", "cone", "--decompose-soc"]),
    ("lp_sum_one_column", lambda: SUM_ONE_COLUMN, ["--target", "lp"]),
    ("cone_sum_one_column", lambda: SUM_ONE_COLUMN, ["--target", "cone"]),
    ("lp_right_nested", lambda: RIGHT_NESTED, ["--target", "lp"]),
    ("qp_right_nested", lambda: RIGHT_NESTED, ["--target", "qp"]),
    ("lp_cancelling", lambda: CANCELLING, ["--target", "lp"]),
]


@pytest.mark.parametrize("name,source", [(name, source) for name, source, _ in DOCUMENTS],
                         ids=[name for name, _, _ in DOCUMENTS])
@pytest.mark.parametrize("target", [[], ["--target", "qp"]], ids=["auto", "qp"])
def test_analyze_names_the_documents_chain(tmp_path, name, source, target):
    path = tmp_path / f"{name}.cvx"
    path.write_text(source())
    report, doc = io.StringIO(), io.StringIO()
    code = cli_main(["analyze", str(path), "--json", *target], report, io.StringIO())
    assert cli_main(["canonicalize", str(path), *target], doc, io.StringIO()) == code
    chain = json.loads(report.getvalue())["chain"]
    assert chain == (json.loads(doc.getvalue())["chain"] if code == 0 else [])


@pytest.mark.parametrize("target", [TargetClass.LP, TargetClass.QP,
                                    TargetClass.CONE])
def test_cancelled_coefficient_is_not_stored(target):
    problem = parse_problem(CANCELLING)
    data, _ = build_chain(problem, target).apply(problem)
    for M in (data.A, data.P):
        if M is not None:
            assert M.nnz == np.count_nonzero(M.toarray())
    np.testing.assert_array_equal(data.A.toarray()[0], [0.0, 1.0])


class TestQpDocumentBytes:
    """`dcpc canonicalize` output in each layout, pinned byte for byte.

    The random seeds weight a square of four inexact terms, so most entries
    of P are products of several inexact factors; computing them in another
    association order changes their last bits.
    """

    @pytest.mark.parametrize("name,source,args", DOCUMENTS,
                             ids=[name for name, _, _ in DOCUMENTS])
    def test_document_bytes(self, tmp_path, name, source, args):
        path = tmp_path / f"{name}.cvx"
        path.write_text(source())
        out = io.StringIO()
        assert cli_main(["canonicalize", str(path), *args],
                        out, io.StringIO()) == 0
        assert out.getvalue() == (GOLDEN / f"{name}.json").read_text()
