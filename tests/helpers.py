"""Shared test utilities: an independent batch evaluator and tree fuzzers.

``batch_eval`` re-implements expression semantics directly on stacked numpy
samples so numeric properties are checked against an evaluator that does not
share code with the library's scalar ``evaluate``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

from dcpc import expressions as ex
from dcpc.reductions.framework import Status

# The six status probes of the benchmark's solve-dense workload
# (bench/workloads.PROBES): one infeasible and one unbounded problem for each
# target the analyzer picks, name -> (text, the true status).
PROBES = {
    "lp-infeasible": ("var x;\nminimize abs(x);\nsubject to\n  x >= 1;\n  x <= 0;\n",
                      Status.INFEASIBLE),
    "lp-unbounded": ("var x;\nvar y;\nminimize abs(x) - y;\n", Status.UNBOUNDED),
    "qp-infeasible": ("var x;\nminimize square(x);\nsubject to\n  x >= 1;\n  x <= 0;\n",
                      Status.INFEASIBLE),
    "qp-unbounded": ("var x;\nvar y;\nminimize square(x) - y;\n", Status.UNBOUNDED),
    "cone-infeasible": ("var x[2];\nminimize norm2(x);\nsubject to\n"
                        "  x[0] >= 1;\n  x[0] <= 0;\n", Status.INFEASIBLE),
    "cone-unbounded": ("var x[2];\nvar y;\nminimize norm2(x) - y;\n", Status.UNBOUNDED),
}


def bench_workloads():
    """``bench/workloads.py``, the benchmark's problem generator (no side effects)."""
    if "bench_workloads" not in sys.modules:  # dataclasses look their module up
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["bench_workloads"]


def batch_eval(expr, assignment):
    """Evaluate ``expr`` on S stacked samples.

    ``assignment`` maps var_id -> array of shape (var_dim, S).  Returns an
    array of shape (dim, S).
    """
    if expr.kind == "const":
        some = next(iter(assignment.values()), np.zeros((1, 1)))
        return np.broadcast_to(expr.payload[:, None], (expr.dim, some.shape[1])).copy()
    if expr.kind == "var":
        return np.asarray(assignment[expr.var_id], dtype=float)
    if expr.kind == "form":  # sum of dense blocks times values, plus the constant
        coeffs, k = expr.payload
        out = np.asarray(k, dtype=float)[:, None]
        for ref in expr.refs:
            rows, cols, vals = coeffs[ref.var_id]
            block = np.zeros((expr.dim, ref.dim))
            block[rows, cols] = vals
            out = out + block @ np.asarray(assignment[ref.var_id], dtype=float)
        return out
    args = [batch_eval(c, assignment) for c in expr.children]
    name = expr.atom
    if name == "add":
        out = args[0] + args[1]
    elif name == "sub":
        out = args[0] - args[1]
    elif name == "neg":
        out = -args[0]
    elif name == "mul_const":
        out = args[0] * args[1]
    elif name == "index":
        out = args[0][expr.param:expr.param + 1, :]
    elif name == "sum":
        out = args[0].sum(axis=0, keepdims=True)
    elif name == "max":
        out = args[0]
        for a in args[1:]:
            out = np.maximum(out, a)
    elif name == "abs":
        out = np.abs(args[0])
    elif name == "square":
        out = args[0] ** 2
    elif name == "sum_squares":
        out = (args[0] ** 2).sum(axis=0, keepdims=True)
    elif name == "norm2":
        out = np.sqrt((args[0] ** 2).sum(axis=0, keepdims=True))
    else:
        raise AssertionError(f"unhandled atom {name}")
    S = out.shape[1]
    return np.broadcast_to(out, (expr.dim, S)).copy()


AFFINE_ATOMS = ("add", "sub", "neg", "mul_const", "index", "sum")
PWL_ATOMS = AFFINE_ATOMS + ("max", "abs")
ALL_ATOMS = PWL_ATOMS + ("square", "sum_squares", "norm2")


def random_expression(rng, variables, depth, pool=ALL_ATOMS, scale=2.0,
                      index_vars_only=False):
    """Grow a random tree over ``variables`` (list of VariableDecl).

    With ``index_vars_only`` the ``index`` atom is applied to variable
    references only, which keeps the tree expressible in the surface syntax.
    """

    def rand_const(dim):
        return ex.constant(np.round(rng.uniform(-scale, scale, size=dim), 3))

    def grow(d):
        if d <= 0 or rng.random() < 0.2:
            if rng.random() < 0.35 or not variables:
                return rand_const(int(rng.choice([1, 1, 2, 3])))
            return ex.var_ref(variables[rng.integers(len(variables))])
        name = pool[rng.integers(len(pool))]
        if name in ("add", "sub"):
            a, b = grow(d - 1), grow(d - 1)
            if a.dim != b.dim and 1 not in (a.dim, b.dim):
                b = rand_const(a.dim)
            return ex.add(a, b) if name == "add" else ex.sub(a, b)
        if name == "neg":
            return ex.neg(grow(d - 1))
        if name == "mul_const":
            e = grow(d - 1)
            c = rand_const(int(rng.choice([1, e.dim])))
            return ex.mul(c, e) if rng.random() < 0.5 else ex.mul(e, c)
        if name == "index":
            if index_vars_only:
                vecs = [v for v in variables if v.dim > 1]
                if not vecs:
                    return grow(d - 1)
                v = vecs[rng.integers(len(vecs))]
                return ex.index(ex.var_ref(v), int(rng.integers(v.dim)))
            e = grow(d - 1)
            return ex.index(e, int(rng.integers(e.dim)))
        if name == "sum":
            return ex.sum_(grow(d - 1))
        if name == "max":
            k = int(rng.integers(2, 4))
            args = [grow(d - 1) for _ in range(k)]
            base = max(a.dim for a in args)
            args = [a if a.dim in (1, base) else ex.sum_(a) for a in args]
            return ex.max_(*args)
        if name == "abs":
            return ex.abs_(grow(d - 1))
        if name == "square":
            return ex.square(grow(d - 1))
        if name == "sum_squares":
            return ex.sum_squares(grow(d - 1))
        if name == "norm2":
            return ex.norm2(grow(d - 1))
        raise AssertionError(name)

    return grow(depth)


def toy_problem():
    """The two-variable piecewise-linear demo problem used across suites."""
    alice = ex.VariableDecl(0, "alice")
    bob = ex.VariableDecl(1, "bob")
    a, b = ex.var_ref(alice), ex.var_ref(bob)
    objective = ex.max_(ex.add(ex.add(a, b), ex.constant(2.0)),
                        ex.sub(ex.neg(a), b))
    cons = [
        (a, ex.Relation.LE, ex.constant(0.0)),
        (b, ex.Relation.EQ, ex.constant(-0.5)),
    ]
    return ex.make_problem(ex.Sense.MINIMIZE, objective, cons, [alice, bob])


def hinge_square_problem():
    """minimize (max(x,0) + max(x-1,0))^2 over a scalar x."""
    xd = ex.VariableDecl(0, "x")
    x = ex.var_ref(xd)
    hinge1 = ex.max_(x, ex.constant(0.0))
    hinge2 = ex.max_(ex.sub(x, ex.constant(1.0)), ex.constant(0.0))
    objective = ex.square(ex.add(hinge1, hinge2))
    return ex.make_problem(ex.Sense.MINIMIZE, objective, [], [xd])


def max_violation(problem, primal):
    """Worst constraint violation of ``primal`` (var_id -> vector) in ``problem``."""
    worst = 0.0
    for c in problem.constraints:
        lhs = np.asarray(ex.evaluate(c.lhs, primal), dtype=float)
        rhs = np.asarray(ex.evaluate(c.rhs, primal), dtype=float)
        diff = lhs - rhs
        if c.relation is ex.Relation.LE:
            v = float(np.max(diff, initial=0.0))
        elif c.relation is ex.Relation.GE:
            v = float(np.max(-diff, initial=0.0))
        else:
            v = float(np.max(np.abs(diff), initial=0.0))
        worst = max(worst, v)
    return worst


def problems_structurally_equal(p, q):
    """Structural equality modulo variable ids (matched by position)."""
    if p.sense != q.sense or len(p.variables) != len(q.variables):
        return False
    if len(p.constraints) != len(q.constraints):
        return False
    for vp, vq in zip(p.variables, q.variables):
        if (vp.name, vp.dim) != (vq.name, vq.dim):
            return False
    renamed = {vq.id: ex.var_ref(vp) for vp, vq in zip(p.variables, q.variables)
               if vq.id != vp.id}

    def renumber(expr):
        return ex.substitute_variables(expr, renamed)

    if renumber(q.objective) != p.objective:
        return False
    for cp, cq in zip(p.constraints, q.constraints):
        if cp.relation != cq.relation:
            return False
        if renumber(cq.lhs) != cp.lhs or renumber(cq.rhs) != cp.rhs:
            return False
    return True
