"""Affine forms: the parser's batched runs, the builder and a dense reference.

Each random affine text is parsed, and the same tree is built one node at a
time with ``ex.add``/``ex.sub``/``ex.mul``/``ex.neg``/``ex.index``/
``ex.sum_``.  The two must give equal forms, and their coefficient and
constant bits must equal a dense left-to-right block evaluation of the tree
written here, which shares no code with the library.
"""

import numpy as np
import pytest

from dcpc import expressions as ex
from dcpc.parsing import parse_problem, print_problem
from dcpc.reductions.cone import dense_rows

from helpers import problems_structurally_equal

DECLS = [ex.VariableDecl(0, "s"), ex.VariableDecl(1, "u", 3),
         ex.VariableDecl(2, "v", 3), ex.VariableDecl(3, "w", 4)]
REFS = [ex.var_ref(d) for d in DECLS]
HEADER = "".join(f"var {d.name};\n" if d.dim == 1 else f"var {d.name}[{d.dim}];\n"
                 for d in DECLS)
NUMBERS = (0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0, 1e-3, 0.7)


# --- the dense reference: (blocks {var_id: (dim, width) array}, k, constant?) ---

def _rows(a, d):
    return np.broadcast_to(a, (d,) + a.shape[1:])


def ref_const(value):
    return {}, np.atleast_1d(np.asarray(value, dtype=float)) + 0.0, True


def ref_var(i, row=None):
    eye = np.eye(DECLS[i].dim)
    if row is None:
        return {i: eye}, np.zeros(DECLS[i].dim), False
    return {i: eye[row:row + 1]}, np.zeros(1), False


def ref_add(a, b, scale):
    (ma, ka, ca), (mb, kb, cb) = a, b
    d = max(ka.size, kb.size)
    if ca and cb:  # folds: the atom's value, then a constant leaf's +0.0
        return {}, (ka + kb if scale > 0 else ka - kb) + 0.0, True
    blocks = {}
    for v in sorted(set(ma) | set(mb)):
        w = DECLS[v].dim
        left = _rows(ma.get(v, np.zeros((1, w))), d)
        right = _rows(mb.get(v, np.zeros((1, w))), d)
        blocks[v] = left + (right if scale > 0 else -1.0 * right)
    k = np.zeros(d) + _rows(ka, d)
    return blocks, k + (_rows(kb, d) if scale > 0 else -1.0 * _rows(kb, d)), False


def ref_neg(a):
    m, k, c = a
    if c:
        return {}, -k + 0.0, True
    return {v: -b for v, b in m.items()}, np.zeros(k.size) + -1.0 * k, False


def ref_mul(c, e):
    (_, kc, _), (m, ke, ce) = c, e
    if ce:
        return {}, kc * ke + 0.0, True
    d = max(kc.size, ke.size)
    scale = _rows(kc, d)[:, None]
    return {v: scale * _rows(b, d) for v, b in m.items()}, kc * ke, False


def ref_sum(a):
    m, k, c = a
    if c:
        return {}, np.array([np.sum(k)]) + 0.0, True
    return {v: b.sum(axis=0, keepdims=True) for v, b in m.items()}, np.array([np.sum(k)]), False


# --- random texts, each with its builder node and its reference -------------

def number(rng):
    return float(NUMBERS[rng.integers(len(NUMBERS))])


def literal(rng):
    values = [0.0] * 3
    while not any(values):
        values = [float(rng.choice([0.0, 0.5, -1.0, 2.0, 3.0, -0.25])) for _ in range(3)]
    text = "[" + ", ".join(repr(v) for v in values) + "]"
    return text, ex.constant(np.array(values)), ref_const(values)


def term(rng, depth):
    """One summand: (text, builder node, reference)."""
    pick = int(rng.integers(12 if depth > 0 else 6))
    if pick == 0:
        c = number(rng)
        if rng.integers(2):
            return f"-{c!r}", ex.neg(ex.constant(c)), ref_const(-c)
        return repr(c), ex.constant(c), ref_const(c)
    if pick in (1, 2, 3):  # a scalar variable term, the parser's fast path
        i = int(rng.integers(4))
        if i == 0:
            target, node, ref = "s", REFS[0], ref_var(0)
        else:
            j = int(rng.integers(DECLS[i].dim))
            target = f"{DECLS[i].name}[{j}]"
            node, ref = ex.index(REFS[i], j), ref_var(i, j)
        form = int(rng.integers(4))
        if form == 0:
            return target, node, ref
        if form == 1:
            return "-" + target, ex.neg(node), ref_neg(ref)
        c = number(rng)
        if form == 2:
            return f"{c!r}*{target}", ex.mul(ex.constant(c), node), \
                ref_mul(ref_const(c), ref)
        return f"-{c!r}*{target}", ex.mul(ex.neg(ex.constant(c)), node), \
            ref_mul(ref_const(-c), ref)
    if pick == 4:  # a vector variable
        i = int(rng.integers(1, 3))
        return DECLS[i].name, REFS[i], ref_var(i)
    if pick == 5:
        return literal(rng)
    inner_text, inner, inner_ref = run(rng, depth - 1)
    if pick == 6:
        return f"({inner_text})", inner, inner_ref
    if pick == 7:
        c = number(rng)
        return f"{c!r} * ({inner_text})", ex.mul(ex.constant(c), inner), \
            ref_mul(ref_const(c), inner_ref)
    if pick == 8:
        c = number(rng)
        return f"({inner_text}) * {c!r}", ex.mul(inner, ex.constant(c)), \
            ref_mul(ref_const(c), inner_ref)
    if pick == 9:
        text, node, ref = literal(rng)
        return f"{text} * ({inner_text})", ex.mul(node, inner), ref_mul(ref, inner_ref)
    if pick == 10:
        if rng.integers(3) == 0:  # the sum of a variable wider than the rest
            return "sum(w)", ex.sum_(REFS[3]), ref_sum(ref_var(3))
        return f"sum({inner_text})", ex.sum_(inner), ref_sum(inner_ref)
    return f"-({inner_text})", ex.neg(inner), ref_neg(inner_ref)


def run(rng, depth):
    """A ``+``/``-`` run of one to seven terms, built left to right."""
    text, node, ref = term(rng, depth)
    for _ in range(int(rng.integers(7))):
        plus = bool(rng.integers(2))
        t_text, t_node, t_ref = term(rng, depth)
        text += (" + " if plus else " - ") + t_text
        node = (ex.add if plus else ex.sub)(node, t_node)
        ref = ref_add(ref, t_ref, 1 if plus else -1)
    return text, node, ref


def parsed(text):
    problem = parse_problem(HEADER + f"minimize 0;\nsubject to\n  {text} >= 0;\n")
    return problem, problem.constraints[0].lhs


def assert_matches_reference(node, ref):
    blocks, k, is_constant = ref
    if is_constant:
        assert node.kind == "const"
        assert node.payload.tobytes() == k.tobytes()
        return
    assert node.kind in ("form", "var")
    coeffs, const = ex.affine_coefficients(node)
    assert const.tobytes() == k.tobytes()
    assert coeffs.keys() == blocks.keys()
    for v, block in coeffs.items():
        got = dense_rows(block, node.dim, DECLS[v].dim)
        want = np.broadcast_to(blocks[v], got.shape)
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()  # zero signs aside


@pytest.mark.parametrize("seed", range(4))
def test_batched_runs_match_the_builder_and_the_dense_reference(seed):
    rng = np.random.default_rng([20261019, seed])
    kinds = set()
    for _ in range(150):
        text, built, ref = run(rng, int(rng.integers(4)))
        problem, node = parsed(text)
        assert node == built, text
        assert_matches_reference(built, ref)
        kinds.add(node.kind)
        # The printed form parses back to the same form, bit for bit.
        out = print_problem(problem)
        again = parse_problem(out)
        assert problems_structurally_equal(problem, again), out
        assert print_problem(again) == out
    assert {"const", "form"} <= kinds


def test_a_long_run_matches_the_builder():
    rng = np.random.default_rng(7)
    parts = [f"{'+-'[int(rng.integers(2))]} {number(rng)!r}*u[{int(rng.integers(3))}]"
             for _ in range(3000)]
    text = "s " + " ".join(parts) + " + [1.0, 2.0, 3.0]"
    _, node = parsed(text)
    built = REFS[0]
    for p in parts:
        sign, body = p.split(" ")
        c, j = body.split("*u[")
        t = ex.mul(ex.constant(float(c)), ex.index(REFS[1], int(j[:-1])))
        built = (ex.add if sign == "+" else ex.sub)(built, t)
    assert node == ex.add(built, ex.constant([1.0, 2.0, 3.0]))
