"""The atom table: each atom's value rule, the fold of atoms over constants,
and the places that read the table instead of naming atoms.

``apply_atom`` folds an atom into one constant leaf when every child is a
constant leaf, so a constant carries the sign of its value.  A value that is
not finite raises ``ProblemError(OVERFLOW)`` where it is built, and the
parser names the objective or constraint it is in.
"""

import dataclasses
import io
import json
import warnings

import numpy as np
import pytest

from dcpc import expressions as ex, parsing
from dcpc.analyzer import RewriterConfig, TargetClass, apply_chain, select_target
from dcpc.cli import main
from dcpc.parsing import parse_problem
from dcpc.reductions.cone import stack_variables
from dcpc.reductions.qp import quadratic_form
from dcpc.reductions.standard import EliminatePwlAtoms

TARGETS = ("auto", "lp", "qp", "cone")


def run_cli(tmp_path, text, *argv):
    path = tmp_path / "problem.cvx"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may escape
        code = main([argv[0], str(path), *argv[1:]], out, err)
    return code, out.getvalue(), err.getvalue()


def reference_value(name, args, param, dim):
    """One atom's value, written out per atom as ``evaluate`` once had it."""
    if name == "add":
        out = args[0] + args[1]
    elif name == "sub":
        out = args[0] - args[1]
    elif name == "neg":
        out = -args[0]
    elif name == "mul_const":
        out = args[0] * args[1]
    elif name == "index":
        out = args[0][param:param + 1]
    elif name == "sum":
        out = np.array([np.sum(args[0])])
    elif name == "max":
        out = args[0]
        for a in args[1:]:
            out = np.maximum(out, a)
        out = np.broadcast_to(out, (dim,))
    elif name == "abs":
        out = np.abs(args[0])
    elif name == "square":
        out = args[0] * args[0]
    elif name == "sum_squares":
        out = np.array([float(np.dot(args[0], args[0]))])
    elif name == "norm2":
        out = np.array([float(np.linalg.norm(args[0]))])
    else:
        raise AssertionError(f"unhandled atom {name}")
    return np.asarray(np.broadcast_to(out, (dim,)), dtype=float)


def random_constant_tree(rng, depth, dim, seen):
    """A tree of constants of dimension ``dim`` built with ``apply_atom``,
    with its post-order reference value; ``seen`` collects the atoms used."""
    if depth == 0 or rng.random() < 0.15:
        value = np.round(rng.uniform(-3.0, 3.0, size=dim), 2)
        value[rng.random(dim) < 0.2] = 0.0
        return ex.constant(value), value + 0.0
    names = [n for n in ex.ATOMS
             if dim == 1 or n not in ("index", "sum", "sum_squares", "norm2")]
    name = names[rng.integers(len(names))]
    desc = ex.ATOMS[name]
    arity = desc.arity_min + (int(rng.integers(0, 2)) if desc.arity_max == -1 else 0)
    param = None
    if name == "index":
        inner = int(rng.choice([1, 3]))
        param = int(rng.integers(inner))
        arg_dims = [inner]
    elif name in ("sum", "sum_squares", "norm2"):
        arg_dims = [int(rng.choice([1, 3]))]
    else:  # elementwise: a scalar argument broadcasts up to a vector
        arg_dims = [dim if rng.random() < 0.6 else 1 for _ in range(arity)]
        arg_dims[int(rng.integers(arity))] = dim
    built = [random_constant_tree(rng, depth - 1, d, seen) for d in arg_dims]
    seen.add(name)
    node = ex.apply_atom(name, [b[0] for b in built], param)
    return node, reference_value(name, [b[1] for b in built], param, dim) + 0.0


class TestFold:
    def test_folded_leaves_match_the_reference_bits(self):
        rng = np.random.default_rng(20261019)
        seen = set()
        for _ in range(400):
            dim = int(rng.choice([1, 3]))
            node, want = random_constant_tree(rng, int(rng.integers(1, 5)), dim, seen)
            assert node.kind == "const" and node.dim == dim
            assert node.payload.tobytes() == want.tobytes()
            assert node.sign is ex.constant(want).sign  # the sign of its value
        assert seen == set(ex.ATOMS)

    def test_non_finite_subtree_is_evaluated_once(self, monkeypatch):
        attempts = []
        for name, desc in list(ex.ATOMS.items()):
            def spy(args, param, rule=desc.value, name=name):
                attempts.append(name)
                return rule(args, param)
            monkeypatch.setitem(ex.ATOMS, name, dataclasses.replace(desc, value=spy))
        with pytest.raises(ex.ProblemError) as err:
            parse_problem("var x; minimize 1e200*1e200" + " + 1" * 10000 + " + x;")
        assert str(err.value) == "objective: a coefficient overflows to a non-finite value"
        assert attempts == ["mul_const"]  # no ancestor of the product is built

    def test_neg_over_a_literal_is_a_leaf(self):
        assert parse_problem("var x; minimize sum(max(x, -[1, 0]));").objective \
            .children[0].children[1] == ex.constant([-1.0, 0.0])
        assert ex.neg(ex.constant(0.0)).payload.tobytes() == np.zeros(1).tobytes()


class TestConstantSigns:
    """A constant's sign is its value's, so DCP sees through ``2 - 1``."""

    FOUND = "var x; minimize (2 - 1) * abs(x); subject to x >= 1;"

    @pytest.mark.parametrize("target", TARGETS)
    def test_positive_constant_scaling_solves(self, tmp_path, target):
        code, out, err = run_cli(tmp_path, self.FOUND, "solve", "--target", target)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["status"] == "optimal"
        if target in ("auto", "lp"):  # the simplex
            assert doc["value"] == 1.0 and doc["variables"] == {"x": [1.0]}
        else:
            assert doc["value"] == pytest.approx(1.0, abs=1e-5)

    def test_negative_constant_scaling_is_not_dcp_when_minimized(self, tmp_path):
        code, out, _ = run_cli(tmp_path, self.FOUND.replace("2 - 1", "1 - 2"), "analyze")
        assert code == 2 and "DCP violations at: objective" in out

    @pytest.mark.parametrize("target", TARGETS)
    def test_negative_constant_scaling_solves_when_maximized(self, tmp_path, target):
        text = self.FOUND.replace("2 - 1", "1 - 2").replace("minimize", "maximize")
        code, out, err = run_cli(tmp_path, text, "solve", "--target", target)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == pytest.approx(-1.0, abs=1e-5)

    @pytest.mark.parametrize("target", TARGETS)
    def test_overflow_under_a_long_constant_chain_is_located(self, tmp_path, target):
        text = "var x; minimize 1e200*1e200" + " + 1" * 10000 + " + x;"
        code, out, err = run_cli(tmp_path, text, "solve", "--target", target)
        assert (code, out) == (7, "")
        assert err == "error: objective: a coefficient overflows to a non-finite value\n"


def one_atom(name, x):
    """``name`` over the variable reference ``x``, padded with constants to
    the atom's least arity."""
    return ex.apply_atom(name, [x] + [ex.constant(1.0)] * (ex.ATOMS[name].arity_min - 1))


class TestAtomTable:
    @pytest.mark.parametrize("name", ex.ATOMS)
    def test_each_atom_has_one_surface_form(self, name):
        forms = [name in parsing._OPERATORS, name == "index",
                 name in parsing._ATOM_NAMES]
        assert forms.count(True) == 1
        if name in parsing._ATOM_NAMES:
            args = ", ".join(["x"] * ex.ATOMS[name].arity_min)
            tree = parse_problem(f"var x; minimize {name}({args});").objective
            x = ex.var_ref(ex.VariableDecl(0, "x"))
            assert tree == ex.apply_atom(name, [x] * ex.ATOMS[name].arity_min)
            affine = ex.ATOMS[name].curvature_class is ex.Curvature.AFFINE
            assert tree.kind == "form" if affine else tree.atom == name

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("name", ex.ATOMS)
    def test_evaluate_and_the_fold_agree(self, name, dim):
        rng = np.random.default_rng(dim)
        desc = ex.ATOMS[name]
        values = [rng.uniform(-2.0, 2.0, size=dim) for _ in range(desc.arity_min)]
        decls = [ex.VariableDecl(i, f"v{i}", dim) for i in range(len(values))]
        refs = [ex.var_ref(d) for d in decls]
        if name == "mul_const":  # one side must be constant
            refs[0] = ex.constant(values[0])
        param = dim - 1 if name == "index" else None
        tree = ex.apply_atom(name, refs, param)
        got = ex.evaluate(tree, {d.id: v for d, v in zip(decls, values)})
        folded = ex.apply_atom(name, [ex.constant(v) for v in values], param)
        assert folded.kind == "const"
        assert got.tobytes() == folded.payload.tobytes()

    @pytest.mark.parametrize("name", [n for n, d in ex.ATOMS.items() if d.labels == {"P"}])
    def test_pwl_atoms_are_eliminated(self, name):
        x = ex.VariableDecl(0, "x")
        problem = ex.make_problem(ex.Sense.MINIMIZE, one_atom(name, ex.var_ref(x)), [], [x])
        out, _ = EliminatePwlAtoms().apply(problem)
        assert not any(n.atom == name for _, e, _ in ex.walk_expressions(out)
                       for n in ex.nodes(e))

    @pytest.mark.parametrize("name", [n for n, d in ex.ATOMS.items() if d.labels == {"Q"}])
    def test_quadratic_atoms_have_a_quadratic_form(self, name):
        x = ex.VariableDecl(0, "x")
        expr = one_atom(name, ex.sub(ex.var_ref(x), ex.constant(0.5)))
        P, q, r = quadratic_form(expr, *stack_variables([x]))
        for v in (-1.5, 0.0, 2.0):
            z = np.array([v])
            assert 0.5 * z @ P.toarray() @ z + q @ z + r == pytest.approx(
                ex.evaluate(expr, {0: z})[0])

    @pytest.mark.parametrize("name", [n for n, d in ex.ATOMS.items()
                                      if d.curvature_class is ex.Curvature.CONVEX])
    def test_convex_atoms_reach_the_cone_target(self, name):
        x = ex.VariableDecl(0, "x")
        problem = ex.make_problem(ex.Sense.MINIMIZE, one_atom(name, ex.var_ref(x)), [], [x])
        report = select_target(problem, RewriterConfig(forced_target=TargetClass.CONE))
        assert "graph_expand" in report.chain_names
        data, _ = apply_chain(report.chain, problem)
        assert data.A.shape[0] > 0


CONVEX_ATOMS = [n for n, d in ex.ATOMS.items() if d.curvature_class is ex.Curvature.CONVEX]


class TestGraphs:
    """Each convex atom's graph implementation, read from the table by
    ``EliminatePwlAtoms`` and ``GraphExpand``."""

    @pytest.mark.parametrize("name", ex.ATOMS)
    def test_each_convex_atom_has_one_graph(self, name):
        desc = ex.ATOMS[name]
        has = (desc.pieces is not None, desc.cone is not None)
        if desc.labels == {"P"}:
            assert has == (True, False)
        elif desc.labels in ({"N"}, {"Q"}):
            assert has == (False, True)
        else:
            assert desc.curvature_class is ex.Curvature.AFFINE
            assert has == (False, False)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("name", CONVEX_ATOMS)
    def test_graph_holds_exactly_where_the_atom_is_below_t(self, name, dim):
        # atom(y) <= t entry by entry exactly when every piece is <= t, or
        # when each cone ‖x‖ <= t' holds, on points kept off the boundary
        desc = ex.ATOMS[name]
        rng = np.random.default_rng([dim, len(name), desc.arity_min])
        decls = [ex.VariableDecl(i, f"y{i}", dim)
                 for i in range(desc.arity_min + (desc.arity_max == -1))]
        args = [ex.var_ref(d) for d in decls]
        t_decl = ex.VariableDecl(len(decls), "t", ex.apply_atom(name, args).dim)
        t = ex.var_ref(t_decl)
        graph = desc.pieces(args) if desc.pieces else desc.cone(t, args)
        parts = graph if desc.pieces else (graph[0], *graph[1])
        assert all(e.curvature.is_affine for e in parts)
        outcomes = set()
        for _ in range(200):
            ys = [rng.uniform(-2.0, 2.0, size=dim) for _ in decls]
            value = np.broadcast_to(desc.value(ys, None), (t_decl.dim,))
            gap = rng.uniform(0.05, 1.0, size=t_decl.dim) * rng.choice([-1.0, 1.0],
                                                                       size=t_decl.dim)
            point = {d.id: y for d, y in zip(decls, ys)}
            point[t_decl.id] = tv = value + gap
            if desc.pieces:
                holds = np.all([ex.evaluate(y, point) <= tv for y in graph], axis=0)
            else:
                bound = ex.evaluate(graph[0], point)
                xs = [ex.evaluate(x, point) for x in graph[1]]
                if bound.size == 1:  # one cone over all the pieces
                    holds = np.linalg.norm(np.concatenate(xs)) <= bound
                else:  # one cone per entry
                    holds = np.linalg.norm(np.stack(xs, axis=1), axis=1) <= bound
            np.testing.assert_array_equal(holds, gap > 0)
            outcomes.update(np.atleast_1d(holds).tolist())
        assert outcomes == {True, False}
