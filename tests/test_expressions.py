"""Expression core: evaluation, curvature, sign, affine extraction, DCP."""

import numpy as np
import pytest

from dcpc import expressions as ex
from dcpc.reductions.cone import dense_rows
from dcpc.expressions import (Curvature, Relation, Sense, Sign)

from helpers import (ALL_ATOMS, AFFINE_ATOMS, batch_eval, random_expression,
                     toy_problem, hinge_square_problem)


def scalar_var(vid=0, name="x"):
    return ex.VariableDecl(vid, name)


class TestEvaluate:
    def test_max_of_affine_pieces(self):
        x = ex.var_ref(scalar_var())
        e = ex.max_(ex.add(x, ex.constant(2.0)), ex.neg(x))
        assert evaluated(e, {0: -0.5}) == pytest.approx(1.5)

    def test_sum_squares(self):
        y = ex.var_ref(ex.VariableDecl(0, "y", 2))
        e = ex.sum_squares(y)
        assert evaluated(e, {0: [3.0, 4.0]}) == pytest.approx(25.0)

    def test_abs_at_zero(self):
        x = ex.var_ref(scalar_var())
        assert evaluated(ex.abs_(x), {0: 0.0}) == pytest.approx(0.0)

    def test_norm2(self):
        y = ex.var_ref(ex.VariableDecl(0, "y", 3))
        assert evaluated(ex.norm2(y), {0: [2.0, -3.0, 6.0]}) == pytest.approx(7.0)

    def test_broadcasting_scalar_against_vector(self):
        y = ex.var_ref(ex.VariableDecl(0, "y", 3))
        e = ex.add(y, ex.constant(1.0))
        np.testing.assert_allclose(ex.evaluate(e, {0: [1.0, 2.0, 3.0]}), [2, 3, 4])

    def test_index(self):
        y = ex.var_ref(ex.VariableDecl(0, "y", 3))
        assert evaluated(ex.index(y, 2), {0: [5.0, 6.0, 7.0]}) == pytest.approx(7.0)

    def test_missing_variable_is_an_error(self):
        x = ex.var_ref(scalar_var())
        with pytest.raises(ex.EvaluationError, match="x"):
            ex.evaluate(x, {})

    def test_wrong_dimension_is_an_error(self):
        y = ex.var_ref(ex.VariableDecl(0, "y", 3))
        with pytest.raises(ex.EvaluationError, match="dim 3"):
            ex.evaluate(y, {0: [1.0, 2.0]})


def evaluated(e, assignment):
    out = ex.evaluate(e, {k: np.atleast_1d(np.asarray(v, dtype=float))
                          for k, v in assignment.items()})
    assert out.shape == (e.dim,)
    return float(out[0]) if e.dim == 1 else out


class TestCurvature:
    def test_square_of_abs_is_convex(self):
        x = ex.var_ref(scalar_var())
        assert ex.square(ex.abs_(x)).curvature is Curvature.CONVEX

    def test_abs_of_square_is_convex(self):
        x = ex.var_ref(scalar_var())
        assert ex.abs_(ex.square(x)).curvature is Curvature.CONVEX

    def test_hinge_square_objective_is_convex(self):
        assert hinge_square_problem().objective.curvature is Curvature.CONVEX

    def test_affine_and_constant(self):
        x = ex.var_ref(scalar_var())
        assert ex.add(x, ex.constant(1.0)).curvature is Curvature.AFFINE
        assert ex.constant([1.0, 2.0]).curvature is Curvature.CONSTANT

    def test_negated_square_is_concave(self):
        x = ex.var_ref(scalar_var())
        assert ex.neg(ex.square(x)).curvature is Curvature.CONCAVE

    def test_difference_of_convex_is_unknown(self):
        x = ex.var_ref(scalar_var())
        e = ex.sub(ex.square(x), ex.abs_(x))
        assert e.curvature is Curvature.UNKNOWN

    def test_square_of_shifted_max_needs_sign(self):
        # max(x, -1) has unknown sign, so square cannot certify convexity.
        x = ex.var_ref(scalar_var())
        e = ex.square(ex.max_(x, ex.constant(-1.0)))
        assert e.curvature is Curvature.UNKNOWN

    def test_partial_order_helpers(self):
        assert Curvature.CONSTANT.is_affine
        assert Curvature.CONSTANT.is_convex and Curvature.CONSTANT.is_concave
        assert Curvature.AFFINE.is_convex and Curvature.AFFINE.is_concave
        assert not Curvature.CONVEX.is_concave
        assert not Curvature.CONCAVE.is_convex


class TestSign:
    def test_square_is_nonnegative(self):
        x = ex.var_ref(scalar_var())
        assert ex.square(x).sign is Sign.NONNEGATIVE

    def test_negative_constant(self):
        assert ex.constant(-3.0).sign is Sign.NONPOSITIVE

    def test_shifted_variable_unknown(self):
        x = ex.var_ref(scalar_var())
        assert ex.add(x, ex.constant(1.0)).sign is Sign.UNKNOWN

    def test_max_with_nonnegative_arm(self):
        x = ex.var_ref(scalar_var())
        assert ex.max_(x, ex.constant(0.0)).sign is Sign.NONNEGATIVE

    def test_zero_constant(self):
        assert ex.constant([0.0, 0.0]).sign is Sign.ZERO


class TestConstruction:
    def test_product_of_variables_rejected(self):
        x = ex.var_ref(scalar_var(0, "x"))
        y = ex.var_ref(scalar_var(1, "y"))
        with pytest.raises(ex.ExpressionError, match="non-constant"):
            ex.mul(x, y)

    def test_zero_scaling_folds_to_constant(self):
        x = ex.var_ref(scalar_var())
        e = ex.mul(ex.constant(0.0), ex.square(x))
        assert e.curvature is Curvature.CONSTANT and e.sign is Sign.ZERO

    @pytest.mark.parametrize("a,b,dim", [
        ("0", "x", 1), ("[0, 0]", "x", 2), ("(1 - 1)", "x", 1), ("x", "[0, 0]", 2)])
    def test_zero_products_fold_to_zero_constants(self, a, b, dim):
        x = ex.var_ref(scalar_var())
        operand = {"0": ex.constant(0.0), "[0, 0]": ex.constant([0.0, 0.0]),
                   "(1 - 1)": ex.sub(ex.constant(1.0), ex.constant(1.0)), "x": x}
        e = ex.mul(operand[a], operand[b])
        assert e.kind == "const" and e.sign is Sign.ZERO
        assert e == ex.constant(np.zeros(dim))

    def test_nonzero_products_stay_products(self):
        x = ex.var_ref(scalar_var())
        for c in (ex.constant(-0.5), ex.constant([0.0, 2.0]),
                  ex.sub(ex.constant(2.0), ex.constant(1.0))):
            product = ex.mul(c, x)  # a form: the product of c and x's identity
            assert product.kind == "form" and product.dim == c.dim
            np.testing.assert_array_equal(ex.evaluate(product, {0: 1.0}), c.payload)

    @pytest.mark.parametrize("v", [0.0, -0.0, 1.5, -1.5, 1e308, 5e-324, -5e-324])
    def test_scalar_constant_matches_the_array_path(self, v):
        fast, slow = ex.constant(v), ex.constant(np.array([v]))
        assert fast.payload.tobytes() == slow.payload.tobytes()
        assert fast.payload.dtype == slow.payload.dtype == np.float64
        assert not fast.payload.flags.writeable and not slow.payload.flags.writeable
        assert (fast.dim, fast.sign, fast.curvature) == (slow.dim, slow.sign, slow.curvature)
        assert hash(fast) == hash(slow) and fast == slow

    @pytest.mark.parametrize("v", [np.inf, -np.inf, np.nan])
    def test_non_finite_constants_are_rejected(self, v):
        for value in (v, np.array([v]), [1.0, v]):
            with pytest.raises(ex.ExpressionError, match="finite"):
                ex.constant(value)

    def test_dim_mismatch_rejected(self):
        a = ex.var_ref(ex.VariableDecl(0, "a", 2))
        b = ex.var_ref(ex.VariableDecl(1, "b", 3))
        with pytest.raises(ex.ExpressionError, match="dimension mismatch"):
            ex.add(a, b)

    def test_index_out_of_range(self):
        a = ex.var_ref(ex.VariableDecl(0, "a", 2))
        with pytest.raises(ex.ExpressionError, match="out of range"):
            ex.index(a, 2)

    def test_structural_equality_and_hash(self):
        x1 = ex.var_ref(scalar_var())
        x2 = ex.var_ref(scalar_var())
        e1 = ex.add(ex.square(x1), ex.constant(1.0))
        e2 = ex.add(ex.square(x2), ex.constant(1.0))
        assert e1 == e2 and hash(e1) == hash(e2)
        assert e1 != ex.add(ex.square(x1), ex.constant(2.0))
        # 3000-deep chains: d2 differs from d1 only at the bottom, d3 nowhere.
        d1, d2, d3 = ex.constant(1.0), ex.constant(2.0), ex.constant(1.0)
        for _ in range(3000):
            d1, d2, d3 = ex.add(d1, x1), ex.add(d2, x2), ex.add(d3, x2)
        assert d1 != d2 and d1 == d3

    def test_nodes_are_immutable(self):
        x = ex.var_ref(scalar_var())
        with pytest.raises(AttributeError):
            x.dim = 3

    def test_atom_inventory_is_closed(self):
        assert sorted(ex.ATOMS) == sorted([
            "add", "sub", "neg", "mul_const", "index", "sum",
            "max", "abs", "square", "sum_squares", "norm2"])
        assert ex.ATOMS["add"].labels == frozenset("AP")
        assert ex.ATOMS["abs"].labels == frozenset("P")
        assert ex.ATOMS["sum_squares"].labels == frozenset("Q")
        assert ex.ATOMS["norm2"].labels == frozenset("N")


class TestAffineCoefficients:
    def test_two_scalar_variables_with_offset(self):
        p = toy_problem()
        lhs = p.objective.children[0]  # alice + bob + 2
        coeffs, const = ex.affine_coefficients(lhs)
        np.testing.assert_allclose(dense_rows(coeffs[0], 1, 1), [[1.0]])
        np.testing.assert_allclose(dense_rows(coeffs[1], 1, 1), [[1.0]])
        np.testing.assert_allclose(const, [2.0])

    def test_collected_coefficients(self):
        x = ex.var_ref(scalar_var())
        e = ex.sub(ex.mul(ex.constant(3.0), x), x)
        coeffs, const = ex.affine_coefficients(e)
        np.testing.assert_allclose(dense_rows(coeffs[0], 1, 1), [[2.0]])
        np.testing.assert_allclose(const, [0.0])

    def test_sum_over_vector(self):
        y = ex.var_ref(ex.VariableDecl(0, "y", 3))
        coeffs, const = ex.affine_coefficients(ex.sum_(y))
        np.testing.assert_allclose(dense_rows(coeffs[0], 1, 3), [[1.0, 1.0, 1.0]])
        np.testing.assert_allclose(const, [0.0])

    def test_vector_constant_times_scalar_expression(self):
        x = ex.var_ref(scalar_var())
        e = ex.mul(ex.constant([1.0, -2.0]), ex.add(x, ex.constant(1.0)))
        coeffs, const = ex.affine_coefficients(e)
        np.testing.assert_allclose(dense_rows(coeffs[0], 2, 1), [[1.0], [-2.0]])
        np.testing.assert_allclose(const, [1.0, -2.0])

    def test_nonlinear_tree_raises_naming_the_atom(self):
        x = ex.var_ref(scalar_var())
        with pytest.raises(ex.NotAffineError, match="square"):
            ex.affine_coefficients(ex.add(ex.square(x), x))
        # the first nonlinear atom in post-order, below every ancestor
        with pytest.raises(ex.NotAffineError, match="'abs'"):
            ex.affine_coefficients(ex.add(ex.neg(ex.abs_(x)), ex.square(x)))

    def test_constant_atom_subtree_is_fine(self):
        x = ex.var_ref(scalar_var())
        e = ex.add(x, ex.max_(ex.constant(1.0), ex.constant(2.0)))
        coeffs, const = ex.affine_coefficients(e)
        np.testing.assert_allclose(dense_rows(coeffs[0], 1, 1), [[1.0]])
        np.testing.assert_allclose(const, [2.0])

    def test_affine_round_trip_on_random_trees(self):
        rng = np.random.default_rng(7)
        variables = [ex.VariableDecl(0, "x"), ex.VariableDecl(1, "y", 3)]
        checked = 0
        while checked < 60:
            e = random_expression(rng, variables, depth=4, pool=AFFINE_ATOMS)
            if not e.curvature.is_affine:
                continue
            coeffs, const = ex.affine_coefficients(e)
            for _ in range(5):
                asg = {0: rng.normal(size=1), 1: rng.normal(size=3)}
                direct = ex.evaluate(e, asg)
                linear = const.copy()
                for vid, M in coeffs.items():
                    linear = linear + dense_rows(M, e.dim, asg[vid].size) @ asg[vid]
                np.testing.assert_allclose(direct, linear, atol=1e-10)
            checked += 1


class TestOverflowIsRaisedWhereBuilt:
    """A value that overflows is an error where it is built, so no node of
    affine curvature is an atom."""

    def test_constant_product(self):
        with pytest.raises(ex.ProblemError) as err:
            ex.mul(ex.constant(1e200), ex.constant(1e200))
        assert str(err.value) == ex.OVERFLOW

    def test_sum_of_two_forms(self):
        big = ex.mul(ex.constant(1e308), ex.var_ref(scalar_var()))
        assert big.kind == "form"
        with pytest.raises(ex.ProblemError) as err:
            ex.add(big, big)
        assert str(err.value) == ex.OVERFLOW


class TestDcp:
    def test_toy_problem_is_dcp(self):
        ok, violations = ex.is_dcp(toy_problem())
        assert ok and violations == []

    def test_equality_between_square_and_constant(self):
        x = scalar_var()
        p = ex.make_problem(Sense.MINIMIZE, ex.var_ref(x),
                            [(ex.square(ex.var_ref(x)), Relation.EQ, ex.constant(1.0))],
                            [x])
        ok, violations = ex.is_dcp(p)
        assert not ok
        assert violations == ["constraint 0: lhs"]

    def test_maximize_needs_concave(self):
        x = scalar_var()
        p = ex.make_problem(Sense.MAXIMIZE, ex.square(ex.var_ref(x)), [], [x])
        ok, violations = ex.is_dcp(p)
        assert not ok and violations == ["objective"]
        p2 = ex.make_problem(Sense.MAXIMIZE, ex.neg(ex.abs_(ex.var_ref(x))), [], [x])
        assert ex.is_dcp(p2) == (True, [])

    def test_convex_below_ge(self):
        x = scalar_var()
        p = ex.make_problem(Sense.MINIMIZE, ex.var_ref(x),
                            [(ex.var_ref(x), Relation.GE, ex.square(ex.var_ref(x)))],
                            [x])
        assert ex.is_dcp(p) == (True, [])


class TestProblemValidation:
    def test_objective_must_be_scalar(self):
        y = ex.VariableDecl(0, "y", 2)
        with pytest.raises(ex.ProblemError, match="scalar"):
            ex.make_problem(Sense.MINIMIZE, ex.var_ref(y), [], [y])

    def test_undeclared_variable(self):
        x, ghost = scalar_var(0, "x"), scalar_var(7, "ghost")
        with pytest.raises(ex.ProblemError, match="ghost"):
            ex.make_problem(Sense.MINIMIZE, ex.var_ref(ghost), [], [x])

    def test_duplicate_names(self):
        with pytest.raises(ex.ProblemError, match="duplicate"):
            ex.make_problem(Sense.MINIMIZE, ex.constant(0.0), [],
                            [scalar_var(0, "x"), scalar_var(1, "x")])

    def test_problem_form_numbers_constraints_and_checks_declarations(self):
        x = scalar_var(0, "x")
        first = (ex.var_ref(x), Relation.LE, ex.constant(1.0))
        second = ex.ConstraintDecl(7, Relation.GE, ex.var_ref(x), ex.constant(0.0))
        p = ex.ProblemForm(Sense.MINIMIZE, ex.var_ref(x), [first, second], [x])
        assert [c.id for c in p.constraints] == [0, 1]
        assert p.constraints[1].relation is Relation.GE
        assert isinstance(p.constraints, tuple) and p.variables == (x,)
        with pytest.raises(ex.ProblemError, match="duplicate variable ids"):
            ex.ProblemForm(Sense.MINIMIZE, ex.constant(0.0), [], [x, scalar_var(0, "y")])
        with pytest.raises(ex.ProblemError, match="scalar"):
            ex.ProblemForm(Sense.MINIMIZE, ex.constant([1.0, 2.0]), [], [x])

    def test_variable_used_with_another_dim(self):
        y = ex.VariableDecl(0, "y", 2)
        wrong = ex.var_ref(ex.VariableDecl(0, "y", 3))
        with pytest.raises(ex.ProblemError, match="used with dim 3, declared 2"):
            ex.make_problem(Sense.MINIMIZE, ex.sum_(wrong), [], [y])

    def test_forms_are_checked_like_their_variables(self):
        # A form is a leaf, but make_problem reads its variables: each error
        # is the one the variable's own node raises.
        x, y = scalar_var(0, "x"), ex.VariableDecl(1, "y", 2)
        ghost, wide = scalar_var(7, "ghost"), ex.VariableDecl(1, "y", 3)
        for bad, message in ((ghost, "undeclared variable 'ghost' (id 7)"),
                             (wide, "variable 'y' used with dim 3, declared 2")):
            ref = ex.var_ref(bad)
            form = ex.add(ex.var_ref(x), ex.sum_(ex.mul(ex.constant(2.0), ref)))
            assert form.kind == "form"
            for objective in (ex.sum_(ref), form, ex.abs_(form)):
                with pytest.raises(ex.ProblemError) as info:
                    ex.make_problem(Sense.MINIMIZE, objective, [], [x, y])
                assert str(info.value) == message
            with pytest.raises(ex.ProblemError) as info:
                ex.make_problem(Sense.MINIMIZE, ex.var_ref(x),
                                [(form, Relation.LE, ex.constant(1.0))], [x, y])
            assert str(info.value) == message
        ok = ex.add(ex.var_ref(x), ex.index(ex.var_ref(y), 1))
        assert ex.make_problem(Sense.MINIMIZE, ok, [], [x, y]).objective is ok

    def test_every_atom_checks_its_arity(self):
        x = ex.var_ref(scalar_var())
        with pytest.raises(ex.ExpressionError, match="'abs' takes 1 argument, got 2"):
            ex.apply_atom("abs", (x, x))
        with pytest.raises(ex.ExpressionError, match="'add' takes 2 arguments, got 1"):
            ex.apply_atom("add", (x,))
        assert ex.apply_atom("max", (x, x, x)) == ex.max_(x, x, x)


class TestNumericSoundness:
    """Claimed curvature and sign are checked against stacked samples."""

    N_PAIRS = 1000

    def _variables(self):
        return [ex.VariableDecl(0, "x"), ex.VariableDecl(1, "y", 3),
                ex.VariableDecl(2, "z", 2)]

    def _sample(self, rng, variables, n):
        return {v.id: rng.uniform(-3, 3, size=(v.dim, n)) for v in variables}

    def test_curvature_claims_hold_at_midpoints(self):
        rng = np.random.default_rng(42)
        variables = self._variables()
        for _ in range(40):
            e = random_expression(rng, variables, depth=4, pool=ALL_ATOMS)
            u = self._sample(rng, variables, self.N_PAIRS)
            v = self._sample(rng, variables, self.N_PAIRS)
            mid = {k: 0.5 * (u[k] + v[k]) for k in u}
            fu, fv, fm = (batch_eval(e, a) for a in (u, v, mid))
            chord = 0.5 * (fu + fv)
            if e.curvature is Curvature.CONSTANT:
                assert np.allclose(fu, fv, atol=1e-9)
            elif e.curvature is Curvature.AFFINE:
                np.testing.assert_allclose(fm, chord, atol=1e-7)
            elif e.curvature is Curvature.CONVEX:
                assert np.all(fm <= chord + 1e-9)
            elif e.curvature is Curvature.CONCAVE:
                assert np.all(fm >= chord - 1e-9)

    def test_sign_claims_hold_on_samples(self):
        rng = np.random.default_rng(43)
        variables = self._variables()
        for _ in range(60):
            e = random_expression(rng, variables, depth=4, pool=ALL_ATOMS)
            vals = batch_eval(e, self._sample(rng, variables, 500))
            if e.sign is Sign.ZERO:
                assert np.allclose(vals, 0.0, atol=1e-12)
            elif e.sign is Sign.NONNEGATIVE:
                assert np.all(vals >= -1e-9)
            elif e.sign is Sign.NONPOSITIVE:
                assert np.all(vals <= 1e-9)

    def test_library_evaluate_matches_batch_oracle(self):
        rng = np.random.default_rng(44)
        variables = self._variables()
        for _ in range(40):
            e = random_expression(rng, variables, depth=4, pool=ALL_ATOMS)
            asg = {v.id: rng.uniform(-3, 3, size=v.dim) for v in variables}
            direct = ex.evaluate(e, asg)
            batched = batch_eval(e, {k: a[:, None] for k, a in asg.items()})[:, 0]
            np.testing.assert_allclose(direct, batched, atol=1e-12)
