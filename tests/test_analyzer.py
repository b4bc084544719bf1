"""Target selection, chain assembly, and the end-to-end solve driver."""

import math

import numpy as np
import pytest

from dcpc import expressions as ex
from dcpc.analyzer import (AnalyzerError, RewriterConfig, TargetClass,
                           build_chain, select_target, solve_problem)
from dcpc.parsing import parse_problem
from dcpc.reductions.framework import Status

from helpers import hinge_square_problem, random_expression, toy_problem, PWL_ATOMS


def norm_problem(dim=3):
    d = ex.VariableDecl(0, "x", dim)
    cons = [(ex.var_ref(d), ex.Relation.EQ,
             ex.constant(np.arange(1.0, dim + 1.0)))]
    return ex.make_problem(ex.Sense.MINIMIZE, ex.norm2(ex.var_ref(d)), cons, [d])


class TestTargetClass:
    def test_specificity_order(self):
        assert TargetClass.LP < TargetClass.QP < TargetClass.CONE

    def test_config_rejects_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver"):
            RewriterConfig(solver="interior-point")


class TestSelectTarget:
    def test_toy_selects_lp(self):
        report = select_target(toy_problem())
        assert report.target is TargetClass.LP
        assert report.dcp_ok
        assert report.chain_names == ("eliminate_pwl_atoms", "move_to_lhs",
                                      "stuff_lp")

    def test_hinge_selects_qp(self):
        report = select_target(hinge_square_problem())
        assert report.target is TargetClass.QP
        reasons = dict(report.reasons)
        assert "quadratic atom" in reasons[TargetClass.LP]

    def test_norm_selects_cone(self):
        report = select_target(norm_problem())
        assert report.target is TargetClass.CONE

    def test_short_circuit_marks_not_tried(self):
        report = select_target(toy_problem())
        reasons = dict(report.reasons)
        assert reasons[TargetClass.QP] == "not tried"
        assert reasons[TargetClass.CONE] == "not tried"

    def test_forced_target_tries_only_that_class(self):
        report = select_target(toy_problem(),
                               RewriterConfig(forced_target=TargetClass.CONE))
        assert report.target is TargetClass.CONE
        assert [t for t, _ in report.reasons] == [TargetClass.CONE]

    def test_forced_target_rejection_is_a_report(self):
        report = select_target(norm_problem(),
                               RewriterConfig(forced_target=TargetClass.LP))
        assert report.target is None
        assert report.chain is None
        assert report.failure
        assert "LP" in report.failure

    def test_enabled_subset(self):
        config = RewriterConfig(enabled=frozenset({TargetClass.QP,
                                                   TargetClass.CONE}))
        report = select_target(toy_problem(), config)
        assert report.target is TargetClass.QP

    def test_non_dcp_failure_lists_violations(self):
        dx = ex.VariableDecl(0, "x")
        bad = ex.make_problem(ex.Sense.MAXIMIZE, ex.square(ex.var_ref(dx)),
                              [], [dx])
        report = select_target(bad)
        assert report.target is None
        assert not report.dcp_ok
        assert "objective" in report.dcp_violations
        assert "objective" in report.failure

    def test_hierarchy_consistency_on_random_problems(self):
        rng = np.random.default_rng(11)
        lp_hits = 0
        for _ in range(25):
            decls = [ex.VariableDecl(0, "x"), ex.VariableDecl(1, "y")]
            obj = random_expression(rng, decls, 3, pool=PWL_ATOMS)
            if obj.dim != 1:
                obj = ex.sum_(obj)
            if not obj.curvature.is_convex:
                continue
            p = ex.make_problem(ex.Sense.MINIMIZE, obj, [], decls)
            report = select_target(p)
            if report.target is TargetClass.LP:
                lp_hits += 1
                for cls in (TargetClass.QP, TargetClass.CONE):
                    forced = select_target(p, RewriterConfig(forced_target=cls))
                    assert forced.target is cls
        assert lp_hits >= 5


class TestBuildChain:
    def test_maximize_prepends_flip(self):
        dx = ex.VariableDecl(0, "x")
        p = ex.make_problem(ex.Sense.MAXIMIZE, ex.neg(ex.abs_(ex.var_ref(dx))),
                            [], [dx])
        chain = build_chain(p, TargetClass.LP)
        assert chain.members[0].name == "flip_objective"

    def test_presolve_flag_inserts_presolve(self):
        chain = build_chain(toy_problem(), TargetClass.LP,
                            RewriterConfig(presolve=True))
        assert [m.name for m in chain.members] == [
            "presolve_fixed_point", "eliminate_pwl_atoms", "move_to_lhs",
            "stuff_lp"]

    def test_cone_chain_members(self):
        chain = build_chain(norm_problem(), TargetClass.CONE)
        assert [m.name for m in chain.members] == [
            "smith_transform", "relax_smith", "graph_expand", "stuff_cone"]
        split = build_chain(norm_problem(), TargetClass.CONE,
                            RewriterConfig(decompose_soc=True))
        assert [m.name for m in split.members] == [
            "smith_transform", "relax_smith", "graph_expand", "decompose_soc",
            "stuff_cone"]

    def test_decomposed_norm_gives_two_three_dim_cones(self):
        config = RewriterConfig(forced_target=TargetClass.CONE,
                                decompose_soc=True)
        report = select_target(norm_problem(3), config)
        data, _ = report.chain.apply(norm_problem(3))
        assert data.cones.soc == (3, 3)


class TestSolveProblem:
    def test_toy_end_to_end(self):
        out = solve_problem(toy_problem())
        s = out.solution
        assert s.status is Status.OPTIMAL
        assert s.value == pytest.approx(1.0, abs=1e-9)
        assert s.primal[0][0] == pytest.approx(-0.5, abs=1e-9)
        assert s.primal[1][0] == pytest.approx(-0.5, abs=1e-9)
        assert set(s.primal) == {0, 1}

    def test_presolve_route_matches_default(self):
        base = solve_problem(toy_problem()).solution
        pres = solve_problem(toy_problem(), RewriterConfig(presolve=True)).solution
        assert pres.status is Status.OPTIMAL
        assert pres.value == pytest.approx(base.value, abs=1e-9)
        assert pres.primal[1][0] == pytest.approx(-0.5, abs=1e-9)
        assert set(pres.primal) == set(base.primal)

    def test_failure_keeps_solution_empty(self):
        dx = ex.VariableDecl(0, "x")
        bad = ex.make_problem(ex.Sense.MAXIMIZE, ex.square(ex.var_ref(dx)),
                              [], [dx])
        out = solve_problem(bad)
        assert out.solution is None and out.data is None and out.raw is None
        assert out.report.failure

    def test_lp_with_admm_solver(self):
        out = solve_problem(toy_problem(), RewriterConfig(solver="admm"))
        assert out.report.target is TargetClass.LP
        assert out.solution.value == pytest.approx(1.0, abs=1e-4)

    def test_simplex_refuses_true_quadratics(self):
        with pytest.raises(ValueError, match="quadratic"):
            solve_problem(hinge_square_problem(), RewriterConfig(
                forced_target=TargetClass.QP, solver="simplex"))

    def test_simplex_refuses_cone_targets(self):
        with pytest.raises(AnalyzerError, match="cone"):
            solve_problem(norm_problem(), RewriterConfig(
                forced_target=TargetClass.CONE, solver="simplex"))

    def test_simplex_on_qp_view_of_lp(self):
        out = solve_problem(toy_problem(), RewriterConfig(
            forced_target=TargetClass.QP, solver="simplex"))
        assert out.solution.value == pytest.approx(1.0, abs=1e-9)

    def test_flip_retrieval_restores_sign(self):
        dx = ex.VariableDecl(0, "x")
        x = ex.var_ref(dx)
        p = ex.make_problem(ex.Sense.MAXIMIZE, ex.neg(ex.abs_(ex.sub(x, ex.constant(2.0)))),
                            [], [dx])
        out = solve_problem(p)
        assert out.solution.status is Status.OPTIMAL
        assert out.solution.value == pytest.approx(0.0, abs=1e-9)
        assert out.solution.primal[0][0] == pytest.approx(2.0, abs=1e-9)

    def test_infeasible_and_unbounded_pass_through(self):
        dx = ex.VariableDecl(0, "x")
        x = ex.var_ref(dx)
        infeasible = ex.make_problem(
            ex.Sense.MINIMIZE, x,
            [(x, ex.Relation.LE, ex.constant(0.0)),
             (x, ex.Relation.GE, ex.constant(1.0))], [dx])
        out = solve_problem(infeasible)
        assert out.solution.status is Status.INFEASIBLE
        assert out.solution.value == math.inf
        assert out.solution.primal == {}
        unbounded = ex.make_problem(ex.Sense.MINIMIZE, x, [], [dx])
        out2 = solve_problem(unbounded)
        assert out2.solution.status is Status.UNBOUNDED
        assert out2.solution.value == -math.inf

    def test_cross_target_agreement_spot_check(self):
        p = toy_problem()
        values = []
        for target in TargetClass:
            out = solve_problem(p, RewriterConfig(forced_target=target))
            assert out.solution.status is Status.OPTIMAL
            values.append(out.solution.value)
        assert max(values) - min(values) <= 1e-3


class TestCoefficientOverflow:
    """Products of large constants that overflow are errors on every route."""

    @pytest.mark.parametrize("objective,target,where", [
        ("maximize x", TargetClass.LP, "constraint 0"),
        ("minimize square(x - 1)", TargetClass.QP, "constraint 0"),
        ("maximize x", TargetClass.CONE, "cone constraint 0"),
    ])
    def test_overflowing_constraint_row(self, objective, target, where):
        problem = parse_problem(f"var x; {objective}; subject to x*1e200*1e200 <= 1;")
        config = RewriterConfig(forced_target=target)
        with np.errstate(over="ignore"), pytest.raises(ex.ProblemError, match=where):
            solve_problem(problem, config)

    @pytest.mark.parametrize("objective,target", [
        ("minimize x*1e200*1e200", TargetClass.LP),
        ("minimize 1e200*1e200*square(x)", TargetClass.QP),
        ("minimize square(1e200*x)", TargetClass.QP),
        ("minimize x*1e200*1e200", TargetClass.CONE),
    ])
    def test_overflowing_objective(self, objective, target):
        config = RewriterConfig(forced_target=target)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ex.ProblemError, match="objective: a coefficient overflows"):
            solve_problem(parse_problem(f"var x; {objective}; subject to x >= -1;"), config)
