"""Standard reduction library: frozen examples and behavioural checks."""

import numpy as np
import pytest

from dcpc import expressions as ex
from dcpc.analyzer import select_target
from dcpc.cli import emit_document
from dcpc.parsing import parse_problem
from dcpc.reductions.cone import dense_rows
from dcpc.reductions.framework import Solution, Status
from dcpc.reductions.standard import (CanonConstraint, CanonStage,
                                      DecomposeSoc, DropRedundantConstraints,
                                      EliminateFixedVariables,
                                      EliminateLinearInequalities,
                                      EliminatePwlAtoms, FlipObjective,
                                      MoveToLhs, PresolveFixedPoint,
                                      ScaleConstraints, SplitFreeVariables,
                                      smart_sub)

from helpers import toy_problem


def var_ids(problem):
    return {v.name: v.id for v in problem.variables}


def atoms_in(problem, names):
    hits = []
    for where, expr, _ in ex.walk_expressions(problem):
        stack = [expr]
        while stack:
            node = stack.pop()
            if node.kind == "atom":
                if node.atom in names:
                    hits.append((where, node.atom))
                stack.extend(node.children)
    return hits


class TestFlipObjective:
    def test_flip_and_retrieve_value(self):
        p = parse_problem("var x; maximize x; subject to x <= 3;")
        q, rec = FlipObjective().apply(p)
        assert q.sense is ex.Sense.MINIMIZE
        assert q.objective == ex.neg(p.objective)
        back = FlipObjective().retrieve(
            Solution(Status.OPTIMAL, -3.0, {0: np.array([3.0])}), rec)
        assert back.value == 3.0
        assert back.primal[0][0] == 3.0

    def test_flip_concave_square(self):
        p = parse_problem("var x; maximize -square(x);")
        q, rec = FlipObjective().apply(p)
        (x,) = q.variables
        assert ex.evaluate(q.objective, {x.id: np.array([2.0])})[0] == 4.0
        back = FlipObjective().retrieve(
            Solution(Status.OPTIMAL, 0.0, {x.id: np.array([0.0])}), rec)
        assert back.value == 0.0

    def test_double_application_rejected(self):
        p = parse_problem("var x; maximize x;")
        q, _ = FlipObjective().apply(p)
        assert not FlipObjective().accepts(q)


class TestMoveToLhs:
    def test_zero_rhs_untouched(self):
        p = parse_problem("var alice; minimize alice; subject to alice <= 0;")
        q, _ = MoveToLhs().apply(p)
        assert q.constraints[0].lhs == p.constraints[0].lhs
        assert q.constraints[0].relation is ex.Relation.LE

    def test_constant_rhs_folds_into_lhs(self):
        toy = toy_problem()
        q, _ = MoveToLhs().apply(toy)
        eq = q.constraints[1]
        assert eq.relation is ex.Relation.EQ
        bob = next(v for v in toy.variables if v.name == "bob")
        assert eq.lhs == ex.add(ex.var_ref(bob), ex.constant(0.5))
        assert eq.rhs == ex.constant(0.0)

    def test_ge_becomes_rhs_minus_lhs(self):
        p = parse_problem("var x; minimize x; subject to x >= 1;")
        q, _ = MoveToLhs().apply(p)
        c = q.constraints[0]
        assert c.relation is ex.Relation.LE
        (x,) = p.variables
        assert c.lhs == ex.sub(ex.constant(1.0), ex.var_ref(x))

    def test_all_rhs_zero_after(self):
        p = parse_problem(
            "var x[2]; var y; minimize y;"
            "subject to x <= [1, 2]; y >= x[0]; sum(x) == y;")
        q, _ = MoveToLhs().apply(p)
        for c in q.constraints:
            assert c.rhs == ex.constant(0.0)
            assert c.relation in (ex.Relation.LE, ex.Relation.EQ)

    def test_retrieval_is_identity(self):
        _, rec = MoveToLhs().apply(toy_problem())
        sol = Solution(Status.OPTIMAL, 1.0, {0: np.array([0.5])})
        assert MoveToLhs().retrieve(sol, rec) is sol


class TestEliminateLinearInequalities:
    def test_le_gains_slack(self):
        p = parse_problem("var x; minimize x; subject to x <= 1;")
        q, _ = EliminateLinearInequalities().apply(p)
        assert len(q.constraints) == 2
        eq, nn = q.constraints
        names = var_ids(q)
        assert set(names) == {"x", "_s1"}
        s = next(v for v in q.variables if v.name == "_s1")
        x = next(v for v in q.variables if v.name == "x")
        assert eq.relation is ex.Relation.EQ
        assert eq.lhs == ex.add(ex.var_ref(x), ex.var_ref(s))
        assert eq.rhs == ex.constant(1.0)
        assert nn.relation is ex.Relation.GE
        assert nn.lhs == ex.var_ref(s)
        assert nn.rhs == ex.constant(0.0)

    def test_vector_ge_moves_to_lhs_form(self):
        p = parse_problem("var y[3]; minimize sum(y); subject to y >= 0;")
        q, _ = EliminateLinearInequalities().apply(p)
        eq, nn = q.constraints
        s = next(v for v in q.variables if v.name.startswith("_s"))
        y = next(v for v in q.variables if v.name == "y")
        assert s.dim == 3
        assert eq.lhs == ex.add(ex.neg(ex.var_ref(y)), ex.var_ref(s))
        assert eq.rhs == ex.constant(0.0)
        assert nn.dim == 3

    def test_no_inequalities_is_identity(self):
        p = parse_problem("var x; minimize x; subject to x == 2;")
        q, rec = EliminateLinearInequalities().apply(p)
        assert q == p
        assert rec.payload["aux"] == []

    def test_nonaffine_inequality_rejected(self):
        p = parse_problem("var x; minimize x; subject to square(x) <= 1;")
        assert not EliminateLinearInequalities().accepts(p)

    def test_retrieve_discards_slacks(self):
        p = parse_problem("var x; minimize x; subject to x <= 1;")
        q, rec = EliminateLinearInequalities().apply(p)
        names = var_ids(q)
        sol = Solution(Status.OPTIMAL, 1.0,
                       {names["x"]: np.array([1.0]),
                        names["_s1"]: np.array([0.0])})
        back = EliminateLinearInequalities().retrieve(sol, rec)
        assert set(back.primal) == {names["x"]}


class TestEliminateFixedVariables:
    def test_substitutes_and_reinstates(self):
        p = parse_problem(
            "var x; var y; minimize x + y; subject to y == 2; x >= 0;")
        q, rec = EliminateFixedVariables().apply(p)
        assert [v.name for v in q.variables] == ["x"]
        assert len(q.constraints) == 1
        x = q.variables[0]
        assert ex.evaluate(q.objective, {x.id: np.array([1.0])})[0] == 3.0
        back = EliminateFixedVariables().retrieve(
            Solution(Status.OPTIMAL, 2.0, {x.id: np.array([0.0])}), rec)
        ids = var_ids(p)
        assert back.primal[ids["y"]][0] == 2.0

    def test_toy_objective_after_fixing_bob(self):
        toy = toy_problem()
        q, _ = EliminateFixedVariables().apply(toy)
        assert [v.name for v in q.variables] == ["alice"]
        a = q.variables[0]
        # objective must now equal max(alice + 1.5, -alice + 0.5)
        for val in (-2.0, -0.5, 0.0, 3.0):
            got = ex.evaluate(q.objective, {a.id: np.array([val])})[0]
            assert got == pytest.approx(max(val + 1.5, -val + 0.5))

    def test_constant_on_left_detected(self):
        p = parse_problem("var x; minimize x; subject to 2 == x;")
        q, _ = EliminateFixedVariables().apply(p)
        assert q.variables == ()
        assert q.objective == ex.constant(2.0)

    def test_scalar_broadcast_fixing(self):
        p = parse_problem("var v[3]; minimize sum(v); subject to v == 1;")
        q, rec = EliminateFixedVariables().apply(p)
        assert q.variables == ()
        assert ex.evaluate(q.objective, {})[0] == 3.0
        back = EliminateFixedVariables().retrieve(
            Solution(Status.OPTIMAL, 3.0, {}), rec)
        np.testing.assert_array_equal(back.primal[0], [1.0, 1.0, 1.0])

    def test_no_fixed_variables_is_identity(self):
        p = parse_problem("var x; minimize x; subject to x >= 1;")
        q, _ = EliminateFixedVariables().apply(p)
        assert q is p

    def test_contradiction_marks_infeasible(self):
        p = parse_problem("var x; minimize x; subject to x == 1; x == 2;")
        q, rec = EliminateFixedVariables().apply(p)
        assert q.constraints == () and q.variables == ()
        assert rec.payload["infeasible"]
        back = EliminateFixedVariables().retrieve(
            Solution(Status.OPTIMAL, 0.0, {}), rec)
        assert back.status is Status.INFEASIBLE
        assert back.value == np.inf and back.primal == {}

    def test_duplicate_consistent_fixings_ok(self):
        p = parse_problem("var x; minimize x; subject to x == 1; x == 1;")
        q, rec = EliminateFixedVariables().apply(p)
        assert not rec.payload["infeasible"]
        assert q.constraints == ()


class TestSplitFreeVariables:
    def test_marked_variables_untouched(self):
        p = parse_problem("var x; minimize x; subject to x >= 0;")
        q, rec = SplitFreeVariables().apply(p)
        assert q is p
        assert rec.payload["splits"] == {}

    def test_free_variable_split(self):
        p = parse_problem("var x; minimize x; subject to x >= -1;")
        staged, _ = EliminateLinearInequalities().apply(p)
        q, rec = SplitFreeVariables().apply(staged)
        names = var_ids(q)
        assert set(names) == {"_s1", "_p2", "_n3"}
        ids_x = var_ids(p)["x"]
        assert rec.payload["splits"] == {ids_x: (names["_p2"], names["_n3"])}
        # the two fresh parts are marked nonnegative at the end
        tail = q.constraints[-2:]
        assert all(c.relation is ex.Relation.GE and c.lhs.kind == "var"
                   for c in tail)

    def test_retrieve_difference(self):
        p = parse_problem("var x; minimize x; subject to x >= -1;")
        staged, _ = EliminateLinearInequalities().apply(p)
        q, rec = SplitFreeVariables().apply(staged)
        names = var_ids(q)
        sol = Solution(Status.OPTIMAL, 1.5,
                       {names["_p2"]: np.array([2.0]),
                        names["_n3"]: np.array([0.5]),
                        names["_s1"]: np.array([0.0])})
        back = SplitFreeVariables().retrieve(sol, rec)
        assert back.primal[var_ids(p)["x"]][0] == pytest.approx(1.5)
        assert names["_p2"] not in back.primal

    def test_objective_value_preserved_under_split(self):
        p = parse_problem("var x[2]; minimize sum(x); subject to x >= 0;")
        staged, _ = EliminateLinearInequalities().apply(p)
        q, _ = SplitFreeVariables().apply(staged)
        # x was unmarked (its slack is marked instead): evaluate both
        names = var_ids(q)
        env = {names["_p2"]: np.array([2.0, 1.0]),
               names["_n3"]: np.array([0.5, 1.0]),
               names["_s1"]: np.array([0.0, 0.0])}
        assert ex.evaluate(q.objective, env)[0] == pytest.approx(1.5)


class TestDropRedundantConstraints:
    def test_exact_duplicate_removed(self):
        p = parse_problem("var x; minimize x; subject to x <= 1; x <= 1;")
        q, _ = DropRedundantConstraints().apply(p)
        assert len(q.constraints) == 1

    def test_dominated_upper_bound_removed(self):
        p = parse_problem("var x; minimize x; subject to x <= 1; x <= 3;")
        q, _ = DropRedundantConstraints().apply(p)
        assert len(q.constraints) == 1
        assert q.constraints[0].rhs == ex.constant(1.0)

    def test_keeps_tighter_later_bound(self):
        p = parse_problem("var x; minimize x; subject to x <= 3; x <= 1;")
        q, _ = DropRedundantConstraints().apply(p)
        assert len(q.constraints) == 1
        assert q.constraints[0].rhs == ex.constant(1.0)

    def test_lower_bounds_keep_largest(self):
        p = parse_problem("var x; minimize x; subject to x >= 0; x >= 1;")
        q, _ = DropRedundantConstraints().apply(p)
        assert len(q.constraints) == 1
        assert q.constraints[0].rhs == ex.constant(1.0)

    def test_upper_and_lower_both_kept(self):
        p = parse_problem("var x; minimize x; subject to x >= 0; x <= 1;")
        q, _ = DropRedundantConstraints().apply(p)
        assert len(q.constraints) == 2

    def test_true_constant_constraint_dropped(self):
        p = parse_problem("var x; minimize x; subject to 0 <= 1; x >= 0;")
        q, _ = DropRedundantConstraints().apply(p)
        assert len(q.constraints) == 1

    def test_false_constant_marks_infeasible(self):
        p = parse_problem("var x; minimize x; subject to 0 <= -1;")
        q, rec = DropRedundantConstraints().apply(p)
        assert q.constraints == () and q.variables == ()
        assert rec.payload["infeasible"]
        back = DropRedundantConstraints().retrieve(
            Solution(Status.OPTIMAL, 0.0, {}), rec)
        assert back.status is Status.INFEASIBLE

    def test_scaled_bound_dominance_detected(self):
        # 2x <= 6 is x <= 3, dominated by x <= 1
        p = parse_problem("var x; minimize x; subject to x <= 1; 2 * x <= 6;")
        q, _ = DropRedundantConstraints().apply(p)
        assert len(q.constraints) == 1

    def test_retrieval_identity_when_feasible(self):
        p = parse_problem("var x; minimize x; subject to x <= 1; x <= 1;")
        _, rec = DropRedundantConstraints().apply(p)
        sol = Solution(Status.OPTIMAL, 1.0, {0: np.array([1.0])})
        assert DropRedundantConstraints().retrieve(sol, rec) is sol


class TestScaleConstraints:
    def test_row_divided_by_max_coefficient(self):
        p = parse_problem("var x; minimize x; subject to 1000 * x <= 2000;")
        q, _ = ScaleConstraints().apply(p)
        c = q.constraints[0]
        coeffs, const = ex.affine_coefficients(smart_sub(c.lhs, c.rhs))
        (M,) = coeffs.values()
        np.testing.assert_allclose(dense_rows(M, 1, 1), [[1.0]])
        np.testing.assert_allclose(const, [-2.0])

    def test_unit_norm_row_unchanged(self):
        p = parse_problem("var x; minimize x; subject to x <= 2;")
        q, _ = ScaleConstraints().apply(p)
        assert q.constraints[0].lhs == p.constraints[0].lhs
        assert q.constraints[0].rhs == p.constraints[0].rhs

    def test_all_zero_row_untouched(self):
        p = parse_problem("var x; minimize x; subject to 0 <= 1;")
        q, _ = ScaleConstraints().apply(p)
        assert q.constraints[0].lhs == p.constraints[0].lhs

    def test_vector_rows_scaled_independently(self):
        p = parse_problem(
            "var x[2]; minimize sum(x); subject to [10, 4] * x <= [20, 2];")
        q, _ = ScaleConstraints().apply(p)
        c = q.constraints[0]
        coeffs, const = ex.affine_coefficients(smart_sub(c.lhs, c.rhs))
        (M,) = coeffs.values()
        np.testing.assert_allclose(dense_rows(M, 2, 2), [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(const, [-2.0, -0.5])

    def test_feasible_set_unchanged(self):
        p = parse_problem(
            "var x[2]; minimize sum(x);"
            "subject to 5 * x[0] - 3 * x[1] <= 7; x >= -100;")
        q, _ = ScaleConstraints().apply(p)
        rng = np.random.default_rng(7)
        ids = var_ids(p)
        for _ in range(100):
            val = rng.uniform(-120, 40, size=2)
            env = {ids["x"]: val}
            def feas(prob):
                oks = []
                for c in prob.constraints:
                    gap = ex.evaluate(smart_sub(c.lhs, c.rhs), env)
                    oks.append(bool(np.all(gap <= 1e-12)))
                return oks
            assert feas(p) == feas(q)


class TestPresolveFixedPoint:
    def test_substitution_chain_resolves(self):
        p = parse_problem("var x; var y; minimize x; subject to x == y; y == 3;")
        q, rec = PresolveFixedPoint().apply(p)
        assert q.objective == ex.constant(3.0)
        assert q.constraints == () and q.variables == ()
        # round 1 fixes y, round 2 fixes x, round 3 observes the fixed point
        assert rec.payload["rounds"] == 3

    def test_retrieve_walks_back_through_rounds(self):
        p = parse_problem("var x; var y; minimize x; subject to x == y; y == 3;")
        _, rec = PresolveFixedPoint().apply(p)
        back = PresolveFixedPoint().retrieve(
            Solution(Status.OPTIMAL, 3.0, {}), rec)
        ids = var_ids(p)
        assert back.primal[ids["x"]][0] == 3.0
        assert back.primal[ids["y"]][0] == 3.0

    def test_minimal_problem_one_round_identity(self):
        p = parse_problem("var x; minimize x; subject to x >= 1;")
        q, rec = PresolveFixedPoint().apply(p)
        assert q == p
        assert rec.payload["rounds"] == 1

    def test_cycle_cap_at_twenty_rounds(self):
        n = 25
        decls = [ex.VariableDecl(i, f"x{i}", 1) for i in range(n)]
        cons = [(ex.var_ref(decls[i]), ex.Relation.EQ, ex.var_ref(decls[i + 1]))
                for i in range(n - 1)]
        cons.append((ex.var_ref(decls[-1]), ex.Relation.EQ, ex.constant(3.0)))
        p = ex.make_problem(ex.Sense.MINIMIZE, ex.var_ref(decls[0]), cons, decls)
        q, rec = PresolveFixedPoint().apply(p)
        assert rec.payload["rounds"] == 20
        assert len(q.variables) == n - 20  # one variable fixed per round

    def test_infeasible_contradiction_detected(self):
        p = parse_problem("var x; minimize x; subject to x == 1; x == 2;")
        q, rec = PresolveFixedPoint().apply(p)
        assert q.constraints == ()
        back = PresolveFixedPoint().retrieve(
            Solution(Status.OPTIMAL, 0.0, {}), rec)
        assert back.status is Status.INFEASIBLE


class TestEliminatePwlAtoms:
    def test_toy_epigraph(self):
        toy = toy_problem()
        q, _ = EliminatePwlAtoms().apply(toy)
        names = var_ids(q)
        assert set(names) == {"alice", "bob", "_t2"}
        assert q.objective == ex.var_ref(q.variables[-1])
        assert len(q.constraints) == 4
        a = next(v for v in q.variables if v.name == "alice")
        b = next(v for v in q.variables if v.name == "bob")
        t = q.variables[-1]
        # epigraph rows first (argument order), then the user constraints
        c0, c1, c2, c3 = q.constraints
        assert c0.rhs == ex.var_ref(t) and c0.relation is ex.Relation.LE
        assert ex.affine_coefficients(c0.lhs)[1][0] == 2.0
        assert c1.rhs == ex.var_ref(t) and c1.relation is ex.Relation.LE
        assert c2.lhs == ex.var_ref(a) and c2.relation is ex.Relation.LE
        assert c3.relation is ex.Relation.EQ
        assert atoms_in(q, ("abs", "max")) == []

    def test_abs_constraint(self):
        p = parse_problem("var x; minimize x; subject to abs(x) <= 2;")
        q, _ = EliminatePwlAtoms().apply(p)
        x = next(v for v in q.variables if v.name == "x")
        t = next(v for v in q.variables if v.name.startswith("_t"))
        assert len(q.constraints) == 3
        c0, c1, c2 = q.constraints
        assert c0.lhs == ex.var_ref(x) and c0.rhs == ex.var_ref(t)
        assert c1.lhs == ex.neg(ex.var_ref(x)) and c1.rhs == ex.var_ref(t)
        assert c2.lhs == ex.var_ref(t) and c2.rhs == ex.constant(2.0)

    def test_hinge_objective(self):
        p = parse_problem("var x; minimize square(max(x, 0) + max(x - 1, 0));")
        q, _ = EliminatePwlAtoms().apply(p)
        assert len(q.constraints) == 4
        assert atoms_in(q, ("abs", "max")) == []
        assert atoms_in(q, ("square",))  # Q atom survives
        # four epigraph rows: x <= s1, 0 <= s1, x-1 <= s2, 0 <= s2
        s = [v for v in q.variables if v.name.startswith("_t")]
        assert len(s) == 2
        rhs_names = [c.rhs.var_name for c in q.constraints]
        assert rhs_names == [s[0].name, s[0].name, s[1].name, s[1].name]

    def test_equivalent_minimum_by_sampling(self):
        # minimizing over the epigraph variables recovers the PWL value
        p = parse_problem("var x; minimize abs(x - 3) + max(x, -x, 2);")
        q, _ = EliminatePwlAtoms().apply(p)
        ids_orig = var_ids(p)
        x = next(v for v in q.variables if v.name == "x")
        aux = [v for v in q.variables if v.name.startswith("_t")]
        rng = np.random.default_rng(3)
        for _ in range(25):
            xv = rng.uniform(-4, 4)
            want = ex.evaluate(p.objective, {ids_orig["x"]: np.array([xv])})[0]
            # tight epigraph choice: set each aux to its atom's value
            env = {x.id: np.array([xv]),
                   aux[0].id: np.array([abs(xv - 3)]),
                   aux[1].id: np.array([max(xv, -xv, 2)])}
            got = ex.evaluate(q.objective, env)[0]
            assert got == pytest.approx(want)
            for c in q.constraints:
                gap = ex.evaluate(smart_sub(c.lhs, c.rhs), env)
                assert np.all(gap <= 1e-9)

    def test_constant_pwl_folds_away(self):
        text = "var x; minimize max(x, abs(-3));"
        q, _ = EliminatePwlAtoms().apply(parse_problem(text))
        aux = [v for v in q.variables if v.name.startswith("_t")]
        assert len(aux) == 1  # only the outer max needed a variable
        live = [n.atom for _, e, _ in ex.walk_expressions(q)
                for n in ex.nodes(e) if not n.curvature.is_constant]
        assert not {"abs", "max"} & set(live)
        # the parser turns abs(-3) into the constant 3, so the max's second
        # row is 3 <= t
        assert [c.lhs for c in q.constraints if c.lhs.curvature.is_constant] \
            == [ex.constant(3.0)]
        problem = parse_problem(text)
        report = select_target(problem)
        data, _ = report.chain.apply(problem)
        assert emit_document(data, report.chain_names).render() == (
            '{\n  "schema_version": "1",\n  "target": "lp",\n'
            '  "chain": ["graph_expand", "stuff_lp"],\n'
            '  "data": {\n    "c": [0, 1],\n'
            '    "G": [\n      [1, -1],\n      [0, -1]\n    ],\n'
            '    "h": [0, -3],\n    "A": [],\n    "b": [],\n    "offset": 0,\n'
            '    "var_offsets": {\n      "x": [0, 1],\n      "_t1": [1, 1]\n    }\n'
            '  }\n}\n')

    def test_vector_abs_elementwise(self):
        p = parse_problem("var v[2]; minimize sum(v); subject to abs(v) <= 2;")
        q, _ = EliminatePwlAtoms().apply(p)
        t = next(v for v in q.variables if v.name.startswith("_t"))
        assert t.dim == 2
        assert all(c.dim == 2 for c in q.constraints)

    def test_nonconvex_position_rejected(self):
        p = parse_problem("var x; minimize -abs(x);")
        assert not EliminatePwlAtoms().accepts(p)
        p2 = parse_problem("var x; minimize x; subject to abs(x) >= 2;")
        assert not EliminatePwlAtoms().accepts(p2)

    def test_concave_side_accepted(self):
        # abs on the concave side of <= is fine when negated
        p = parse_problem("var x; var y; minimize x; subject to x <= -abs(y);")
        assert EliminatePwlAtoms().accepts(p)
        q, _ = EliminatePwlAtoms().apply(p)
        assert atoms_in(q, ("abs", "max")) == []

    def test_retrieve_drops_epigraph_vars(self):
        toy = toy_problem()
        q, rec = EliminatePwlAtoms().apply(toy)
        names = var_ids(q)
        sol = Solution(Status.OPTIMAL, 1.0,
                       {names["alice"]: np.array([-0.5]),
                        names["bob"]: np.array([-0.5]),
                        names["_t2"]: np.array([1.0])})
        back = EliminatePwlAtoms().retrieve(sol, rec)
        assert set(back.primal) == {names["alice"], names["bob"]}


def soc_stage(n, extra=()):
    decls = [ex.VariableDecl(0, "t", 1), ex.VariableDecl(1, "x", n)]
    t, x = ex.var_ref(decls[0]), ex.var_ref(decls[1])
    cones = list(extra) + [CanonConstraint.soc(t, (x,))]
    return CanonStage(t, tuple(cones), tuple(decls))


class TestDecomposeSoc:
    def test_three_dimensional_cone_passes_through(self):
        stage = soc_stage(2)
        out, rec = DecomposeSoc().apply(stage)
        assert len(out.constraints) == 1
        assert out.constraints[0].x == stage.constraints[0].x
        assert rec.payload["aux"] == []

    def test_n3_first_unrolling(self):
        stage = soc_stage(3)
        out, _ = DecomposeSoc().apply(stage)
        assert len(out.constraints) == 2
        inner, outer = out.constraints
        u = next(v for v in out.variables if v.name.startswith("_u"))
        # {(x2, x3, u), (x1, u, t)}
        assert inner.t == ex.var_ref(u)
        x = ex.var_ref(stage.variables[1])
        assert list(inner.x) == [ex.index(x, 1), ex.index(x, 2)]
        assert outer.t.var_name == "t"
        assert outer.x[0] == ex.index(x, 0) and outer.x[1] == ex.var_ref(u)

    @pytest.mark.parametrize("n", [*range(2, 11), 1200])
    def test_count_is_n_minus_one(self, n):
        out, _ = DecomposeSoc().apply(soc_stage(n))
        assert len(out.constraints) == n - 1
        assert all(c.soc_x_dim == 2 for c in out.constraints)
        assert sum(v.name.startswith("_u") for v in out.variables) == max(n - 2, 0)

    def test_non_soc_constraints_pass_through(self):
        decls = [ex.VariableDecl(0, "t", 1), ex.VariableDecl(1, "x", 3)]
        t, x = ex.var_ref(decls[0]), ex.var_ref(decls[1])
        cones = (CanonConstraint.zero(t),
                 CanonConstraint.soc(t, (x,)),
                 CanonConstraint.nonpos(t))
        out, _ = DecomposeSoc().apply(CanonStage(t, cones, tuple(decls)))
        assert [c.kind for c in out.constraints] == \
            ["zero", "soc", "soc", "nonpos"]
        assert out.constraints[0] is cones[0] and out.constraints[3] is cones[2]

    def test_multi_piece_x_exploded(self):
        decls = [ex.VariableDecl(0, "t", 1), ex.VariableDecl(1, "a", 1),
                 ex.VariableDecl(2, "b", 2)]
        t = ex.var_ref(decls[0])
        cone = CanonConstraint.soc(t, (ex.var_ref(decls[1]),
                                       ex.var_ref(decls[2])))
        out, _ = DecomposeSoc().apply(CanonStage(t, (cone,), tuple(decls)))
        assert len(out.constraints) == 2

    def test_membership_equivalence_sampled(self):
        n = 10
        stage = soc_stage(n)
        out, _ = DecomposeSoc().apply(stage)
        u_vars = [v for v in out.variables if v.name.startswith("_u")]
        rng = np.random.default_rng(11)

        def cones_hold(stage_, env):
            for c in stage_.constraints:
                tv = ex.evaluate(c.t, env)[0]
                xv = np.concatenate([ex.evaluate(e, env) for e in c.x])
                if np.linalg.norm(xv) > tv + 1e-9:
                    return False
            return True

        hits = 0
        for _ in range(200):
            x = rng.normal(size=n) * 2.0
            margin = rng.uniform(-1.0, 1.0)
            t = np.linalg.norm(x) + margin
            env = {0: np.array([t]), 1: x}
            original = cones_hold(stage, env)
            # witness: u_k carries the norm of the tail it bounds
            env_aux = dict(env)
            for k, uv in enumerate(u_vars):
                env_aux[uv.id] = np.array([np.linalg.norm(x[k + 1:])])
            assert cones_hold(out, env_aux) == original
            hits += original
        assert 20 < hits < 180  # both branches actually exercised

    def test_retrieve_drops_u(self):
        out, rec = DecomposeSoc().apply(soc_stage(4))
        primal = {v.id: np.zeros(v.dim) for v in out.variables}
        back = DecomposeSoc().retrieve(Solution(Status.OPTIMAL, 0.0, primal), rec)
        assert set(back.primal) == {0, 1}
