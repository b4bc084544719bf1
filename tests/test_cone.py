"""Cone backend: graph expansion, with its Smith form and epigraph rows, and
matrix stuffing."""

import numpy as np
import pytest

from dcpc import expressions as ex
from dcpc.parsing import parse_problem
from dcpc.reductions.cone import ConeDims, GraphExpand, StuffCone
from dcpc.reductions.framework import ReductionChain, ReductionError, Solution, Status
from dcpc.reductions.standard import CanonConstraint, CanonStage, FlipObjective
from dcpc.solvers import solve_admm

from helpers import ALL_ATOMS, random_expression, stage_trees, toy_problem


def expand(text):
    stage, _ = GraphExpand().apply(parse_problem(text))
    return stage


def cone_chain():
    return ReductionChain([GraphExpand(), StuffCone()])


class TestSmithTransform:
    """The Smith form that GraphExpand writes on its way: a fresh ``_t`` per
    nonlinear atom, inner atoms first, and the atom's graph rows over its
    rewritten arguments."""

    def test_single_nonlinear_node(self):
        p = parse_problem("var x; minimize square(x) + 1;")
        stage, rec = GraphExpand().apply(p)
        t = stage.variables[-1]
        assert t.name == "_t1"
        assert stage.objective == ex.add(ex.var_ref(t), ex.constant(1.0))
        (cone,) = stage.constraints
        assert cone.kind == "soc"
        assert cone.t == ex.add(ex.constant(1.0), ex.var_ref(t))
        assert rec.payload["aux"] == [t.id]

    def test_norm2_objective(self):
        stage = expand("var y[3]; minimize norm2(y);")
        t = stage.variables[-1]
        assert stage.objective == ex.var_ref(t)
        (cone,) = stage.constraints
        assert cone.t == ex.var_ref(t)
        assert cone.x == (ex.var_ref(stage.variables[0]),)

    def test_nested_atoms_inner_defined_first(self):
        stage, rec = GraphExpand().apply(parse_problem("var x; minimize square(abs(x));"))
        x, inner, outer = stage.variables
        # the inner atom claims the first fresh id; its graph rows come
        # before the outer atom's
        assert (inner.name, outer.name) == ("_t1", "_t2")
        assert rec.payload["aux"] == [inner.id, outer.id]
        assert stage.objective == ex.var_ref(outer)
        row1, row2, cone = stage.constraints
        assert [row1.kind, row2.kind, cone.kind] == ["nonpos", "nonpos", "soc"]
        env = {x.id: np.array([-2.0]), inner.id: np.array([5.0])}
        assert [ex.evaluate(row1.expr, env)[0], ex.evaluate(row2.expr, env)[0]] == [-7.0, -3.0]
        assert cone.t == ex.add(ex.constant(1.0), ex.var_ref(outer))
        assert cone.x[0] == ex.mul(ex.constant(2.0), ex.var_ref(inner))

    def test_defs_precede_their_constraint(self):
        stage = expand("var x; minimize x; subject to abs(x) <= 2;")
        *graph, user = stage.constraints
        assert len(graph) == 2
        t = stage.variables[-1]
        assert ex.evaluate(user.expr, {t.id: np.array([0.5])})[0] == -1.5  # t - 2

    def test_affine_problem_untouched(self):
        p = parse_problem("var x; minimize 2 * x + 1; subject to x <= 0;")
        stage, rec = GraphExpand().apply(p)
        assert stage.objective is p.objective
        assert stage.variables == p.variables
        (row,) = stage.constraints
        assert row.kind == "nonpos" and row.expr is p.constraints[0].lhs
        assert rec.payload["aux"] == []

    def test_constant_subtree_kept_symbolic(self):
        p = parse_problem("var x; minimize x + square(2);")
        stage, _ = GraphExpand().apply(p)
        # constant curvature is affine: no aux and no row needed
        assert stage.objective is p.objective
        assert stage.variables == p.variables and stage.constraints == ()

    def test_invariant_on_random_problems(self):
        rng = np.random.default_rng(5)
        decls = [ex.VariableDecl(0, "x", 1), ex.VariableDecl(1, "y", 3)]
        expanded = 0
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
            if not GraphExpand().accepts(p):
                continue
            stage, _ = GraphExpand().apply(p)
            expanded += 1
            # no atom node is left: every tree of the stage is an affine leaf
            assert all(e.curvature.is_affine and not e.children
                       for e in stage_trees(stage))
        assert expanded >= 10

    def test_maximize_sign_propagation(self):
        p = parse_problem("var x; maximize -square(x);")
        assert not GraphExpand().accepts(p)  # minimizations only
        flipped, _ = FlipObjective().apply(p)
        assert GraphExpand().accepts(flipped)  # negation under Maximize flips back
        stage, _ = GraphExpand().apply(flipped)
        assert [c.kind for c in stage.constraints] == ["soc"]

    def test_retrieve_drops_aux(self):
        stage, rec = GraphExpand().apply(parse_problem("var x; minimize square(x);"))
        names = {v.name: v.id for v in stage.variables}
        sol = Solution(Status.OPTIMAL, 0.0,
                       {names["x"]: np.array([0.0]),
                        names["_t1"]: np.array([0.0])})
        back = GraphExpand().retrieve(sol, rec)
        assert set(back.primal) == {names["x"]}


class TestRelaxSmith:
    """Each atom's graph bounds it from above by its ``_t``, its epigraph,
    which is exact because GraphExpand accepts only DCP problems."""

    def test_defining_equality_becomes_epigraph(self):
        (cone,) = expand("var x; minimize square(x);").constraints

        def inside(x, t):
            env = {0: np.array([x]), 1: np.array([t])}
            x_part = [ex.evaluate(e, env)[0] for e in cone.x]
            return np.linalg.norm(x_part) <= ex.evaluate(cone.t, env)[0]

        assert inside(3.0, 9.0) and inside(3.0, 10.0) and inside(-3.0, 10.0)
        assert not inside(3.0, 8.9) and not inside(-3.0, 8.9)

    def test_user_constraints_untouched(self):
        stage = expand("var x; minimize x; subject to abs(x) <= 2;")
        epi1, epi2, user = stage.constraints
        assert epi1.kind == epi2.kind == user.kind == "nonpos"
        t = ex.var_ref(stage.variables[-1])
        assert user.expr == ex.sub(t, ex.constant(2.0))

    def test_rejects_non_dcp_source(self):
        p = parse_problem("var x; minimize x; subject to square(x) >= 1;")
        assert not GraphExpand().accepts(p)
        with pytest.raises(ReductionError):
            GraphExpand().apply(p)

    def test_rejects_plain_problem(self):
        # a problem already in cone form is not a DCP problem to expand
        stage = expand("var x; minimize x;")
        assert not GraphExpand().accepts(stage)

    def test_rejects_convex_atom_at_negative_sign(self):
        for text in ("var x; minimize -square(x);", "var x; maximize abs(x);",
                     "var x; minimize x; subject to 1 <= norm2(x);"):
            assert not GraphExpand().accepts(parse_problem(text))

    def test_retrieval_is_identity(self):
        _, rec = GraphExpand().apply(parse_problem("var x; minimize x; subject to x >= 1;"))
        sol = Solution(Status.OPTIMAL, 0.0, {0: np.array([1.0])})
        assert GraphExpand().retrieve(sol, rec) is sol


class TestGraphExpand:
    def test_norm2_gives_one_soc_dim4(self):
        stage = expand("var x[3]; minimize norm2(x);")
        (cone,) = stage.constraints
        assert cone.kind == "soc"
        assert 1 + cone.soc_x_dim == 4
        assert cone.t.kind == "var"

    def test_square_embedding_boundary_point(self):
        stage = expand("var x; minimize square(x);")
        (cone,) = stage.constraints
        env = {0: np.array([3.0]), 1: np.array([9.0])}
        t = ex.evaluate(cone.t, env)[0]
        x = np.concatenate([ex.evaluate(e, env) for e in cone.x])
        assert t == pytest.approx(10.0)
        assert np.linalg.norm(x) == pytest.approx(10.0)  # exactly on boundary
        np.testing.assert_allclose(x, [6.0, -8.0])

    def test_vector_square_one_cone_per_row(self):
        stage = expand("var v[3]; minimize sum(square(v));")
        (block,) = [c for c in stage.constraints if c.kind == "soc"]
        assert block.t.dim == 3 and 1 + block.soc_x_dim == 3  # three 3-dim cones
        env = {0: np.array([1.0, -2.0, 0.5]), 1: np.array([1.0, 4.0, 0.25])}
        t = ex.evaluate(block.t, env)
        x = np.stack([ex.evaluate(e, env) for e in block.x], axis=1)
        np.testing.assert_allclose(np.linalg.norm(x, axis=1), t)  # each on its boundary
        data, _ = StuffCone().apply(stage)
        assert data.cones.soc == (3, 3, 3)

    def test_sum_squares_single_cone(self):
        stage = expand("var v[3]; minimize sum_squares(v);")
        (cone,) = stage.constraints
        assert cone.kind == "soc"
        assert 1 + cone.soc_x_dim == 1 + 3 + 1  # t part, 2v block, 1-t scalar
        env = {0: np.array([1.0, 2.0, 2.0]), 1: np.array([9.0])}
        t = ex.evaluate(cone.t, env)[0]
        x = np.concatenate([ex.evaluate(e, env) for e in cone.x])
        assert t == pytest.approx(10.0)
        assert np.linalg.norm(x) == pytest.approx(10.0)

    def test_abs_rows(self):
        stage = expand("var x; minimize abs(x);")
        rows = stage.constraints
        assert [c.kind for c in rows] == ["nonpos", "nonpos"]
        env = {0: np.array([-2.0]), 1: np.array([5.0])}
        vals = [ex.evaluate(c.expr, env)[0] for c in rows]
        assert vals == [pytest.approx(-7.0), pytest.approx(-3.0)]  # y-t, -y-t

    def test_max_rows_in_argument_order(self):
        stage = expand("var x; minimize max(x, 2 * x, 3);")
        assert [c.kind for c in stage.constraints] == ["nonpos"] * 3

    def test_affine_constraint_mapping(self):
        stage = expand(
            "var x; minimize x; subject to x == 1; x <= 2; x >= -1;")
        kinds = [c.kind for c in stage.constraints]
        assert kinds == ["zero", "nonpos", "nonpos"]
        env = {0: np.array([0.5])}
        z, le, ge = stage.constraints
        assert ex.evaluate(z.expr, env)[0] == pytest.approx(-0.5)   # x - 1
        assert ex.evaluate(le.expr, env)[0] == pytest.approx(-1.5)  # x - 2
        assert ex.evaluate(ge.expr, env)[0] == pytest.approx(-1.5)  # -1 - x

    def test_rows_hold_the_left_operands_arrays(self):
        # ``f - c`` and each piece's ``y - t`` keep the left operand's blocks,
        # so the rows hold f's and y's coefficient arrays, not negated copies.
        p = parse_problem("var x[2]; var y;\nminimize max(2*x[0] + y, 3*x[1] - y);\n"
                          "subject to\n  2*x[0] + 3*y <= 4;\n")
        first, second, row = GraphExpand().apply(p)[0].constraints
        pairs = [(row.expr, p.constraints[0].lhs)] + [
            (piece.expr, y) for piece, y in zip((first, second), p.objective.children)]
        for expr, source in pairs:
            assert expr.kind == source.kind == "form"
            for vid, block in source.payload[0].items():
                assert all(a is b for a, b in zip(expr.payload[0][vid], block))

    def test_takes_the_unexpanded_dcp_problem(self):
        p = parse_problem("var x; minimize square(x);")
        assert GraphExpand().accepts(p)
        assert [c.kind for c in GraphExpand().apply(p)[0].constraints] == ["soc"]

    def test_maximization_is_flipped_first(self):
        # Under maximize, ``-t`` would reward a ``t`` far above square(x):
        # the expansion is exact for minimizations only.
        p = parse_problem("var x; maximize -square(x);")
        assert not GraphExpand().accepts(p)
        with pytest.raises(ReductionError):
            cone_chain().apply(p)
        chain = ReductionChain([FlipObjective(), GraphExpand(), StuffCone()])
        data, rec = chain.apply(p)
        np.testing.assert_array_equal(data.q, [0.0, 1.0])
        raw = solve_admm(data)
        assert raw.status is Status.OPTIMAL
        solved = Solution(raw.status, raw.value + data.offset, {0: raw.x[:1], 1: raw.x[1:]})
        back = chain.retrieve(solved, rec)
        assert back.status is Status.OPTIMAL
        assert back.value == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(back.primal[0], [0.0], atol=1e-3)


class TestStuffCone:
    def test_toy_blocks_match_reference_data(self):
        chain = cone_chain()
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
        chain = cone_chain()
        data, _ = chain.apply(parse_problem("var x[2]; minimize norm2(x);"))
        assert data.q.size == 3
        np.testing.assert_array_equal(data.q, [0.0, 0.0, 1.0])
        assert data.cones.soc == (3,)
        assert data.cones.total == data.A.shape[0] == 3

    def test_no_constraints_gives_empty_rows(self):
        chain = cone_chain()
        data, _ = chain.apply(parse_problem("var x; minimize x;"))
        assert data.A.shape == (0, 1)
        assert data.b.shape == (0,)
        assert data.cones == ConeDims(0, 0, ())

    def test_objective_constant_lands_in_offset(self):
        chain = cone_chain()
        data, _ = chain.apply(
            parse_problem("var x; minimize x + 41; subject to x >= 1;"))
        assert data.offset == 41.0
        np.testing.assert_array_equal(data.q, [1.0])

    def test_stuffing_is_deterministic(self):
        def stuff():
            chain = cone_chain()
            data, _ = chain.apply(toy_problem())
            return data
        a, b = stuff(), stuff()
        for part in ("data", "indices", "indptr"):
            assert getattr(a.A, part).tobytes() == getattr(b.A, part).tobytes()
        assert a.b.tobytes() == b.b.tobytes()
        assert a.q.tobytes() == b.q.tobytes()

    def test_refuses_a_nonaffine_objective_or_row(self):
        decl = ex.VariableDecl(0, "x")
        x = ex.var_ref(decl)
        square = ex.square(x)
        stages = [CanonStage(square, (), (decl,)),
                  CanonStage(x, (CanonConstraint.zero(square),), (decl,)),
                  CanonStage(x, (CanonConstraint.nonpos(square),), (decl,)),
                  CanonStage(x, (CanonConstraint.soc(square, (x,)),), (decl,)),
                  CanonStage(x, (CanonConstraint.soc(x, (x, square)),), (decl,))]
        for stage in stages:
            assert not StuffCone().accepts(stage)
            with pytest.raises(ReductionError):
                StuffCone().apply(stage)
        assert StuffCone().accepts(CanonStage(x, (CanonConstraint.soc(x, (x,)),), (decl,)))

    def test_soc_slack_identity(self):
        # b - Ax must reproduce (t, x...) for the norm2 cone
        chain = cone_chain()
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
