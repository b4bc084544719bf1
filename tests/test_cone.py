"""Cone backend: Smith form, relaxation, graph expansion, matrix stuffing."""

import numpy as np
import pytest

from dcpc import expressions as ex
from dcpc.parsing import parse_problem
from dcpc.reductions.cone import (ConeDims, GraphExpand, RelaxSmith,
                                  SmithProblem, SmithTransform, StuffCone)
from dcpc.reductions.framework import ReductionChain, Solution, Status

from helpers import ALL_ATOMS, random_expression, toy_problem


def smith_invariant_holds(problem):
    """No atom node may have a child that is a nonlinear atom application."""
    for _, expr, _ in ex.walk_expressions(problem):
        stack = [expr]
        while stack:
            node = stack.pop()
            if node.kind != "atom":
                continue
            for child in node.children:
                if child.kind == "atom" and \
                        ex.ATOMS[child.atom].curvature_class \
                        is not ex.Curvature.AFFINE \
                        and not child.curvature.is_affine:
                    return False
                stack.append(child)
    return True


def cone_chain(*, with_stuff=True):
    members = [SmithTransform(), RelaxSmith(), GraphExpand()]
    if with_stuff:
        members.append(StuffCone())
    return ReductionChain(members)


class TestSmithTransform:
    def test_single_nonlinear_node(self):
        p = parse_problem("var x; minimize square(x) + 1;")
        sm, _ = SmithTransform().apply(p)
        q = sm.problem
        t = q.variables[-1]
        assert t.name == "_t1"
        assert q.objective == ex.add(ex.var_ref(t), ex.constant(1.0))
        assert len(q.constraints) == 1
        d = q.constraints[0]
        assert d.relation is ex.Relation.EQ
        assert d.lhs == ex.var_ref(t)
        assert d.rhs.atom == "square"
        assert sm.aux_sigma == {t.id: +1}

    def test_norm2_objective(self):
        p = parse_problem("var y[3]; minimize norm2(y);")
        sm, _ = SmithTransform().apply(p)
        q = sm.problem
        t = q.variables[-1]
        assert q.objective == ex.var_ref(t)
        assert q.constraints[0].rhs.atom == "norm2"

    def test_nested_atoms_inner_defined_first(self):
        p = parse_problem("var x; minimize square(abs(x));")
        sm, _ = SmithTransform().apply(p)
        q = sm.problem
        outer, inner = q.variables[1], q.variables[2]
        # the outer atom claims the first fresh id; its defining row comes
        # after the row defining its argument
        assert q.objective == ex.var_ref(outer)
        d_inner, d_outer = q.constraints
        assert d_inner.lhs == ex.var_ref(inner)
        assert d_inner.rhs.atom == "abs"
        assert d_outer.lhs == ex.var_ref(outer)
        assert d_outer.rhs == ex.square(ex.var_ref(inner))
        assert sm.aux_sigma == {outer.id: +1, inner.id: +1}

    def test_defs_precede_their_constraint(self):
        p = parse_problem("var x; minimize x; subject to abs(x) <= 2;")
        sm, _ = SmithTransform().apply(p)
        d, user = sm.problem.constraints
        assert d.rhs.atom == "abs"
        assert user.lhs.kind == "var" and user.rhs == ex.constant(2.0)

    def test_affine_problem_untouched(self):
        p = parse_problem("var x; minimize 2 * x + 1; subject to x >= 0;")
        sm, rec = SmithTransform().apply(p)
        assert sm.problem == p
        assert rec.payload["aux"] == []

    def test_constant_subtree_kept_symbolic(self):
        p = parse_problem("var x; minimize x + square(2);")
        sm, _ = SmithTransform().apply(p)
        assert sm.problem == p  # constant curvature is affine: no aux needed

    def test_invariant_on_random_problems(self):
        rng = np.random.default_rng(5)
        decls = [ex.VariableDecl(0, "x", 1), ex.VariableDecl(1, "y", 3)]
        for _ in range(40):
            obj = random_expression(rng, decls, depth=4, pool=ALL_ATOMS)
            if obj.dim != 1:
                obj = ex.sum_(obj)
            cons = []
            for _ in range(rng.integers(0, 3)):
                lhs = random_expression(rng, decls, depth=3, pool=ALL_ATOMS)
                rel = (ex.Relation.LE, ex.Relation.GE,
                       ex.Relation.EQ)[rng.integers(0, 3)]
                cons.append((lhs, rel, ex.constant(float(rng.normal()))))
            p = ex.make_problem(ex.Sense.MINIMIZE, obj, cons, decls)
            sm, _ = SmithTransform().apply(p)
            assert smith_invariant_holds(sm.problem)

    def test_maximize_sign_propagation(self):
        p = parse_problem("var x; maximize -square(x);")
        sm, _ = SmithTransform().apply(p)
        (aux_id,) = sm.aux_sigma
        assert sm.aux_sigma[aux_id] == +1  # negation under Maximize flips back

    def test_retrieve_drops_aux(self):
        p = parse_problem("var x; minimize square(x);")
        sm, rec = SmithTransform().apply(p)
        names = {v.name: v.id for v in sm.problem.variables}
        sol = Solution(Status.OPTIMAL, 0.0,
                       {names["x"]: np.array([0.0]),
                        names["_t1"]: np.array([0.0])})
        back = SmithTransform().retrieve(sol, rec)
        assert set(back.primal) == {names["x"]}


class TestRelaxSmith:
    def test_defining_equality_becomes_epigraph(self):
        p = parse_problem("var x; minimize square(x);")
        sm, _ = SmithTransform().apply(p)
        rel, _ = RelaxSmith().apply(sm)
        c = rel.constraints[0]
        assert c.relation is ex.Relation.LE
        assert c.lhs.atom == "square"
        assert c.rhs.kind == "var"

    def test_user_constraints_untouched(self):
        p = parse_problem("var x; minimize x; subject to abs(x) <= 2;")
        sm, _ = SmithTransform().apply(p)
        rel, _ = RelaxSmith().apply(sm)
        epi, user = rel.constraints
        assert epi.lhs.atom == "abs" and epi.relation is ex.Relation.LE
        assert user.rhs == ex.constant(2.0)

    def test_rejects_non_dcp_source(self):
        p = parse_problem("var x; minimize x; subject to square(x) >= 1;")
        sm, _ = SmithTransform().apply(p)
        assert not RelaxSmith().accepts(sm)

    def test_rejects_plain_problem(self):
        assert not RelaxSmith().accepts(toy_problem())

    def test_rejects_negative_sigma_even_if_flagged_dcp(self):
        p = parse_problem("var x; minimize square(x);")
        sm, _ = SmithTransform().apply(p)
        assert RelaxSmith().accepts(sm)
        # the same DCP problem with its atom's sign flipped: the sigma check
        # alone must refuse it
        fake = SmithProblem(sm.problem, {aux: -1 for aux in sm.aux_sigma})
        assert not RelaxSmith().accepts(fake)

    def test_retrieval_is_identity(self):
        p = parse_problem("var x; minimize square(x);")
        sm, _ = SmithTransform().apply(p)
        _, rec = RelaxSmith().apply(sm)
        sol = Solution(Status.OPTIMAL, 0.0, {0: np.array([0.0])})
        assert RelaxSmith().retrieve(sol, rec) is sol


class TestGraphExpand:
    def expand(self, text):
        chain = ReductionChain([SmithTransform(), RelaxSmith(), GraphExpand()])
        stage, _ = chain.apply(parse_problem(text))
        return stage

    def test_norm2_gives_one_soc_dim4(self):
        stage = self.expand("var x[3]; minimize norm2(x);")
        (cone,) = stage.constraints
        assert cone.kind == "soc"
        assert 1 + cone.soc_x_dim == 4
        assert cone.t.kind == "var"

    def test_square_embedding_boundary_point(self):
        stage = self.expand("var x; minimize square(x);")
        (cone,) = stage.constraints
        env = {0: np.array([3.0]), 1: np.array([9.0])}
        t = ex.evaluate(cone.t, env)[0]
        x = np.concatenate([ex.evaluate(e, env) for e in cone.x])
        assert t == pytest.approx(10.0)
        assert np.linalg.norm(x) == pytest.approx(10.0)  # exactly on boundary
        np.testing.assert_allclose(x, [6.0, -8.0])

    def test_vector_square_one_cone_per_row(self):
        stage = self.expand("var v[3]; minimize sum(square(v));")
        socs = [c for c in stage.constraints if c.kind == "soc"]
        assert len(socs) == 3
        assert all(1 + c.soc_x_dim == 3 for c in socs)

    def test_sum_squares_single_cone(self):
        stage = self.expand("var v[3]; minimize sum_squares(v);")
        (cone,) = stage.constraints
        assert cone.kind == "soc"
        assert 1 + cone.soc_x_dim == 1 + 3 + 1  # t part, 2v block, 1-t scalar
        env = {0: np.array([1.0, 2.0, 2.0]), 1: np.array([9.0])}
        t = ex.evaluate(cone.t, env)[0]
        x = np.concatenate([ex.evaluate(e, env) for e in cone.x])
        assert t == pytest.approx(10.0)
        assert np.linalg.norm(x) == pytest.approx(10.0)

    def test_abs_rows(self):
        stage = self.expand("var x; minimize abs(x);")
        rows = stage.constraints
        assert [c.kind for c in rows] == ["nonneg", "nonneg"]
        env = {0: np.array([-2.0]), 1: np.array([5.0])}
        vals = [ex.evaluate(c.expr, env)[0] for c in rows]
        assert vals == [pytest.approx(7.0), pytest.approx(3.0)]  # t-y, t+y

    def test_max_rows_in_argument_order(self):
        stage = self.expand("var x; minimize max(x, 2 * x, 3);")
        assert [c.kind for c in stage.constraints] == ["nonneg"] * 3

    def test_affine_constraint_mapping(self):
        stage = self.expand(
            "var x; minimize x; subject to x == 1; x <= 2; x >= -1;")
        kinds = [c.kind for c in stage.constraints]
        assert kinds == ["zero", "nonneg", "nonneg"]
        env = {0: np.array([0.5])}
        z, le, ge = stage.constraints
        assert ex.evaluate(z.expr, env)[0] == pytest.approx(-0.5)   # x - 1
        assert ex.evaluate(le.expr, env)[0] == pytest.approx(1.5)   # 2 - x
        assert ex.evaluate(ge.expr, env)[0] == pytest.approx(1.5)   # x + 1

    def test_rejects_unexpanded_problem(self):
        assert not GraphExpand().accepts(
            parse_problem("var x; minimize square(x);"))


class TestStuffCone:
    def test_toy_blocks_match_reference_data(self):
        chain = ReductionChain([SmithTransform(), RelaxSmith(), GraphExpand(),
                                StuffCone()])
        data, _ = chain.apply(toy_problem())
        assert [v.name for v in data.variables] == ["alice", "bob", "_t2"]
        assert data.P is None
        np.testing.assert_array_equal(data.q, [0.0, 0.0, 1.0])
        assert data.cones == ConeDims(zero=1, nonneg=3, soc=())
        # zero block carries the equality row, then the orthant block holds
        # the two epigraph rows and the user inequality
        np.testing.assert_array_equal(data.A.toarray(), [[0.0, 1.0, 0.0],
                                                         [1.0, 1.0, -1.0],
                                                         [-1.0, -1.0, -1.0],
                                                         [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(data.b, [-0.5, -2.0, 0.0, 0.0])
        assert data.offset == 0.0
        assert data.var_offsets == {0: (0, 1), 1: (1, 1), 2: (2, 1)}

    def test_norm2_objective_selects_epigraph_var(self):
        chain = ReductionChain([SmithTransform(), RelaxSmith(), GraphExpand(),
                                StuffCone()])
        data, _ = chain.apply(parse_problem("var x[2]; minimize norm2(x);"))
        assert data.q.size == 3
        np.testing.assert_array_equal(data.q, [0.0, 0.0, 1.0])
        assert data.cones.soc == (3,)
        assert data.cones.total == data.A.shape[0] == 3

    def test_no_constraints_gives_empty_rows(self):
        chain = ReductionChain([SmithTransform(), RelaxSmith(), GraphExpand(),
                                StuffCone()])
        data, _ = chain.apply(parse_problem("var x; minimize x;"))
        assert data.A.shape == (0, 1)
        assert data.b.shape == (0,)
        assert data.cones == ConeDims(0, 0, ())

    def test_objective_constant_lands_in_offset(self):
        chain = ReductionChain([SmithTransform(), RelaxSmith(), GraphExpand(),
                                StuffCone()])
        data, _ = chain.apply(
            parse_problem("var x; minimize x + 41; subject to x >= 1;"))
        assert data.offset == 41.0
        np.testing.assert_array_equal(data.q, [1.0])

    def test_stuffing_is_deterministic(self):
        def stuff():
            chain = ReductionChain([SmithTransform(), RelaxSmith(),
                                    GraphExpand(), StuffCone()])
            data, _ = chain.apply(toy_problem())
            return data
        a, b = stuff(), stuff()
        for part in ("data", "indices", "indptr"):
            assert getattr(a.A, part).tobytes() == getattr(b.A, part).tobytes()
        assert a.b.tobytes() == b.b.tobytes()
        assert a.q.tobytes() == b.q.tobytes()

    def test_soc_slack_identity(self):
        # b - Ax must reproduce (t, x...) for the norm2 cone
        chain = ReductionChain([SmithTransform(), RelaxSmith(), GraphExpand(),
                                StuffCone()])
        data, _ = chain.apply(parse_problem("var x[2]; minimize norm2(x);"))
        xstack = np.array([1.0, -2.0, 7.0])  # (x1, x2, t)
        s = data.b - data.A.toarray() @ xstack
        np.testing.assert_allclose(s, [7.0, 1.0, -2.0])


class TestChainRetrievalMechanics:
    def test_aux_variables_removed_on_the_way_back(self):
        chain = cone_chain()
        toy = toy_problem()
        data, rec = chain.apply(toy)
        names = {v.name: v.id for v in data.variables}
        sol = Solution(Status.OPTIMAL, 1.0,
                       {names["alice"]: np.array([-0.5]),
                        names["bob"]: np.array([-0.5]),
                        names["_t2"]: np.array([1.0])})
        back = chain.retrieve(sol, rec)
        assert set(back.primal) == {names["alice"], names["bob"]}
        assert back.value == 1.0
