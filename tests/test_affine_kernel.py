"""The affine kernel against the combine path it replaced, bit for bit.

``apply_atom`` hands an affine result straight to the form builder, gives a
variable one shared identity block, and keeps the left operand's untouched
blocks in an ``add`` or ``sub``.  The reference below is the earlier path,
kept here: fresh pieces for every leaf, the six rules over numpy constants,
then coalescing and the +0.0, finiteness checks of a form.  Every form the
kernel builds must equal the reference's in its blocks and their order, its
constant and its variables, and an overflow must be an error at the same
call, with no numpy warning.  The one row gather of ``stack_rows`` and
``affine_row_data`` is held the same way against the per-expression
stacker, kept here with its ``affine_row_data``.
"""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dcpc import expressions as ex, randgen
from dcpc.analyzer import TargetClass, build_chain
from dcpc.parsing import parse_problem
from dcpc.reductions import cone, qp
from dcpc.reductions.cone import GraphExpand, affine_row_data, stack_rows, stack_variables
from dcpc.reductions.standard import FlipObjective

DECLS = [ex.VariableDecl(0, "a"), ex.VariableDecl(1, "b"),
         ex.VariableDecl(2, "u", 3), ex.VariableDecl(3, "w", 3)]
VALUES = [0.0, 1.0, -1.0, 2.5, -0.5, 1e-300, 3e200, -3e200, 1.7e308, -1.7e308]
NAMES = ["add", "sub", "neg", "mul_const", "index", "sum"]
OVERFLOW = "overflow"


# --- the reference: the combine path before the lean kernel ----------------

def ref_piece(node, widths):
    if node.kind == "const":
        return {}, node.payload
    if node.kind == "var":
        widths[node.var_id] = d = node.dim
        ids = np.arange(d)
        return {node.var_id: [(ids, ids, np.ones(d))]}, np.zeros(d)
    coeffs, const = node.payload
    for ref in node.refs:
        widths[ref.var_id] = ref.dim
    return {v: [block] for v, block in coeffs.items()}, const


def ref_combine_pieces(dim, pieces, scales):
    coeffs, const = {}, np.zeros(dim)
    for i, ((pc, pk), scale) in enumerate(zip(pieces, scales)):
        tiled = pk.shape[0] != dim
        if tiled:
            pk = np.repeat(pk, dim, axis=0)
        const = const + (pk if scale == 1.0 else scale * pk)
        for v, chunks in pc.items():
            if i:
                chunks = [ex.coalesce(chunks)]
            if tiled:
                chunks = [ex.tile_rows(c, dim) for c in chunks]
            if scale != 1.0:
                chunks = [(r, c, scale * x) for r, c, x in chunks]
            coeffs[v] = coeffs[v] + chunks if v in coeffs else chunks
    return coeffs, const


def ref_combine(name, dim, children, param, pieces, widths):
    scales = {"add": (1.0, 1.0), "sub": (1.0, -1.0), "neg": (-1.0,)}
    if name in scales:
        return ref_combine_pieces(dim, pieces, scales[name])
    if name == "mul_const":
        const_first = children[0].curvature.is_constant
        cval = pieces[0 if const_first else 1][1]
        coeffs, const = pieces[1 if const_first else 0]
        vector = cval.shape[0] > 1
        out = {}
        for v, chunks in coeffs.items():
            r, c, x = block = ex.coalesce(chunks)
            if vector and const.shape[0] == 1:
                r, c, x = ex.tile_rows(block, cval.size)
            out[v] = [(r, c, (cval[r] if vector else cval) * x)]
        return out, cval * const
    if name == "index":
        coeffs, const = pieces[0]
        out = {}
        for v, chunks in coeffs.items():
            r, c, x = ex.coalesce(chunks)
            lo, hi = np.searchsorted(r, (param, param + 1))
            out[v] = [(r[lo:hi] - param, c[lo:hi], x[lo:hi])]
        return out, const[param:param + 1]
    assert name == "sum"
    coeffs, const = pieces[0]
    out = {}
    for v, chunks in coeffs.items():
        r, c, x = ex.coalesce(chunks)
        if widths[v] == 1:
            column = np.zeros(children[0].dim)
            column[r] = x
            out[v] = [(np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp),
                       np.array([np.sum(column)]))]
        else:
            cols, at = np.unique(c, return_inverse=True)
            out[v] = [(np.zeros(cols.size, dtype=np.intp), cols,
                       np.bincount(at, x, cols.size))]
    return out, np.array([np.sum(const)])


def ref_form(name, children, param):
    """``(blocks, const, refs)`` of the form, or OVERFLOW."""
    dim = ex.ATOMS[name].result_dim(children, param)
    widths, left, kept = {}, children[0], {}
    if name in ("add", "sub") and left.kind == "form" and left.dim == dim:
        right = ref_piece(children[1], widths)
        kept = dict(left.payload[0])
        pieces = [({v: [kept.pop(v)] for v in right[0] if v in kept}, left.payload[1]), right]
        refs = left.refs + tuple(r for r in ex.leaf_refs(children[1])
                                 if r.var_id not in left.payload[0])
    else:
        pieces = [ref_piece(c, widths) for c in children]
        refs = {r.var_id: r for c in children for r in ex.leaf_refs(c)}.values()
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs, const = ref_combine(name, dim, children, param, pieces, widths)
        for v, chunks in coeffs.items():
            r, c, x = ex.coalesce(chunks)
            if not np.isfinite(x).all():
                return OVERFLOW
            kept[v] = (r, c, x + 0.0)
    if not np.isfinite(const).all():
        return OVERFLOW
    return kept, const, sorted(refs, key=lambda r: r.var_id)


def bits(blocks, const, refs):
    return ([(v, [(a.dtype.str, a.tobytes()) for a in block]) for v, block in blocks.items()],
            const.tobytes(), [(r.var_id, r.var_name, r.dim) for r in refs])


# --- random chains of builder calls -----------------------------------------

# One call: the atom, two operand picks from the pool, an index or operand
# order, and the constant of a product, a scalar or a 3-vector.
STEP = st.tuples(st.sampled_from(NAMES), st.integers(0, 999), st.integers(0, 999),
                 st.integers(0, 5),
                 st.one_of(st.sampled_from(VALUES),
                           st.lists(st.sampled_from(VALUES), min_size=3, max_size=3)))


def children_of(step, pool):
    name, i, j, k, c = step
    a, b = pool[i % len(pool)], pool[j % len(pool)]
    if name in ("neg", "sum"):
        return (a,), None
    if name == "index":
        return (a,), k % a.dim
    if name == "mul_const":
        c = ex.constant(c)
        return ((c, a) if k % 2 else (a, c)), None
    return (a, b), None


@settings(max_examples=300, deadline=None)
@given(st.lists(STEP, min_size=1, max_size=14))
def test_builder_calls_match_the_reference(steps):
    pool = [ex.var_ref(d) for d in DECLS] + [ex.constant(2.0), ex.constant([1.0, 0.0, -2.0])]
    for step in steps:
        children, param = children_of(step, pool)
        name = step[0]
        if all(c.kind == "const" for c in children):
            continue  # a fold to a constant leaf, not a form
        if len({c.dim for c in children} - {1}) > 1:
            continue  # no broadcast
        want = ref_form(name, children, param)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = ex.apply_atom(name, children, param)
            except ex.ProblemError as err:
                assert str(err) == ex.OVERFLOW
                got = OVERFLOW
        if want is OVERFLOW:
            assert got is OVERFLOW, (name, children)
            continue
        assert got is not OVERFLOW and got.kind == "form", (name, children)
        blocks, const = got.payload
        assert bits(blocks, const, got.refs) == bits(*want), (name, children)
        assert got.dim == const.shape[0] and got.sign is ex.Sign.UNKNOWN
        assert not any(a.flags.writeable for block in blocks.values() for a in block)
        assert not const.flags.writeable
        pool.append(got)


def test_variables_share_one_read_only_identity_block():
    x, y = (ex.var_ref(ex.VariableDecl(i, f"x{i}", 4)) for i in range(2))
    (bx,), kx = ex.leaf_piece(x)[0].values(), ex.leaf_piece(x)[1]
    (by,), ky = ex.leaf_piece(y)[0].values(), ex.leaf_piece(y)[1]
    assert bx is by and kx is ky
    assert not any(a.flags.writeable for a in (*bx, kx))
    # A form taken over unchanged holds the shared block itself.
    form = ex.sub(x, ex.constant(1.5))
    assert form.payload[0][0] is bx


def test_no_sign_rule_or_atom_node_for_an_affine_result(monkeypatch):
    calls = []
    for name, desc in list(ex.ATOMS.items()):
        def spy(children, _rule=desc.sign_rule, _name=name):
            calls.append(_name)
            return _rule(children)
        monkeypatch.setitem(ex.ATOMS, name, dataclasses.replace(desc, sign_rule=spy))
    kinds = []
    init = ex.ExpressionNode.__init__

    def record(self, kind, *args, **kwargs):
        kinds.append(kind)
        init(self, kind, *args, **kwargs)

    monkeypatch.setattr(ex.ExpressionNode, "__init__", record)
    x = ex.var_ref(ex.VariableDecl(0, "x", 3))
    y = ex.var_ref(ex.VariableDecl(1, "y"))
    kinds.clear()
    form = ex.add(ex.mul(ex.constant(2.0), ex.index(x, 1)), ex.constant(1.5))
    for node in (form, ex.sub(form, y), ex.neg(form), ex.sum_(x), ex.sub(y, ex.constant(3.0)),
                 ex.mul(ex.constant([1.0, -1.0, 2.0]), x), ex.add(ex.constant(1.0), y)):
        assert node.kind == "form"
    assert calls == [] and "atom" not in kinds
    assert ex.abs_(form).kind == "atom" and calls == ["abs"]


# --- one gather of the row stacker against the per-expression stacker ------

def affine_row_data_reference(expr, var_offsets, width):
    """One expression's rows, block by block: the earlier per-expression gather."""
    coeffs, const = ex.affine_coefficients(expr)
    blocks = [(r, c + var_offsets[v][0], x) for v, (r, c, x) in coeffs.items()]
    if len(blocks) == 1:
        (rows, cols, vals), = blocks
    elif blocks:  # each block is row-major; merge their rows
        rows, cols, vals = (np.concatenate(a) for a in zip(*blocks))
        order = np.argsort(rows * width + cols)
        rows, cols, vals = rows[order], cols[order], vals[order]
    else:
        rows = cols = np.zeros(0, dtype=np.intp)
        vals = np.zeros(0)
    if not vals.all():
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return (rows, cols, vals), const


def stack_rows_per_expression(blocks, var_offsets, width):
    counts, cols, vals, b_rows = [], [], [], []
    for exprs, sign in blocks:
        for e in exprs:
            (r, c, x), k = affine_row_data_reference(e, var_offsets, width)
            counts.append(np.bincount(r, minlength=e.dim))
            cols.append(c)
            vals.append(x if sign > 0 else -x)
            b_rows.append(-sign * k)
    if not counts:
        return sp.csr_matrix((0, width)), np.zeros(0)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    A = sp.csr_matrix((np.concatenate(vals), np.concatenate(cols), indptr),
                      shape=(indptr.size - 1, width))
    return A, np.concatenate(b_rows)


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_stack(got, want):
    assert got[0].shape == want[0].shape
    assert_same_bits([got[0].indptr, got[0].indices, got[0].data, got[1]],
                     [want[0].indptr, want[0].indices, want[0].data, want[1]])


def test_stacked_rows_match_the_per_expression_stacker():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        problem = randgen.random_cone_problem(rng, int(rng.integers(2, 6)), bool(rng.integers(2)))
        if FlipObjective().accepts(problem):  # a maximization, flipped as build_chain does
            problem, _ = FlipObjective().apply(problem)
        problem, _ = GraphExpand().apply(problem)
        var_offsets, width = stack_variables(problem.variables)
        exprs = [e for c in problem.constraints
                 for e in ((c.expr,) if c.kind != "soc" else (c.t, *c.x))]
        blocks = [(exprs[::2], +1.0), (exprs[1::2], -1.0)]
        assert_same_stack(stack_rows(blocks, var_offsets, width),
                          stack_rows_per_expression(blocks, var_offsets, width))
        for e in exprs + [problem.objective]:
            (M, k), (M_ref, k_ref) = (f(e, var_offsets, width) for f in
                                      (affine_row_data, affine_row_data_reference))
            assert_same_bits([*M, k], [*M_ref, k_ref])


@pytest.mark.parametrize("text, target, check", [
    ("var x; minimize square(x);", TargetClass.QP, lambda data: data.A.shape == (0, 1)),
    ("var x; minimize x; subject to 3 <= 4; x >= 0;", TargetClass.LP,
     lambda data: np.diff(data.A.indptr).tolist() == [0, 1]),
    ("var x; var y[2]; minimize y[1] - x;\nsubject to 2*y[0] + x - y[1] <= 1; y - x >= 0;",
     TargetClass.LP, lambda data: data.A.nnz == 7),  # forms over y, then x
    ("var x[3]; minimize x[0]; subject to square(x) <= 4;", TargetClass.CONE,
     lambda data: data.cones.soc == (3, 3, 3)),
    ("var x; minimize x - x; subject to x - x <= 1;", TargetClass.LP,
     lambda data: data.A.shape == (1, 1) and data.A.nnz == 0),  # lone blocks of a zero
    ("var x[2]; minimize sum(x); subject to x >= 1;", TargetClass.CONE,
     lambda data: data.A.toarray().tolist() == [[-1.0, 0.0], [0.0, -1.0]]),  # a lone block at -1
], ids=["no-rows", "constant-row", "out-of-id-order", "vector-square", "cancelled-entry",
        "negated-block"])
def test_the_gather_matches_the_per_expression_stacker_at_its_edges(text, target, check,
                                                                    monkeypatch):
    calls = []
    for module, name, ref in ((cone, "stack_rows", stack_rows_per_expression),
                              (cone, "affine_row_data", affine_row_data_reference),
                              (qp, "affine_row_data", affine_row_data_reference)):
        def spy(*args, _f=getattr(module, name), _ref=ref, _name=name):
            got, want = _f(*args), _ref(*args)
            calls.append(_name)
            if _name == "stack_rows":
                assert_same_stack(got, want)
            else:
                assert_same_bits([*got[0], got[1]], [*want[0], want[1]])
            return got
        monkeypatch.setattr(module, name, spy)
    problem = parse_problem(text)
    data, _ = build_chain(problem, target).apply(problem)
    assert "stack_rows" in calls and "affine_row_data" in calls and check(data)


def test_a_form_over_variables_stacked_out_of_id_order():
    x, y = ex.VariableDecl(0, "x", 2), ex.VariableDecl(1, "y", 2)
    form = ex.add(ex.mul(ex.constant([2.0, 0.0]), ex.var_ref(y)), ex.var_ref(x))
    var_offsets, width = stack_variables([y, x])  # y's columns come first
    blocks = [([form, ex.sub(ex.var_ref(x), form)], +1.0), ([form], -1.0)]
    assert_same_stack(stack_rows(blocks, var_offsets, width),
                      stack_rows_per_expression(blocks, var_offsets, width))
    assert_same_bits([*affine_row_data(form, var_offsets, width)[0]],
                     [*affine_row_data_reference(form, var_offsets, width)[0]])
