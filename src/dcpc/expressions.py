"""Expression trees for desk-scale convex optimization problems.

Variables, constants, and atom applications form immutable trees.  Every node
caches its dimension, curvature, and sign at construction time, so convexity
verification is a table lookup once a problem has been built.  An atom over
constant leaves folds into a constant leaf where it is built, so a finite
constant carries the sign of its value.  The data model
is deliberately small: scalars and dense real vectors only, eleven atoms, and
three constraint relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Curvature",
    "Sign",
    "Sense",
    "Relation",
    "ExpressionError",
    "EvaluationError",
    "NotAffineError",
    "ProblemError",
    "VariableDecl",
    "ExpressionNode",
    "ConstraintDecl",
    "ProblemForm",
    "AtomDescriptor",
    "ATOMS",
    "ATOM_LABELS",
    "apply_atom",
    "constant",
    "var_ref",
    "add",
    "sub",
    "neg",
    "mul",
    "index",
    "sum_",
    "max_",
    "abs_",
    "square",
    "sum_squares",
    "norm2",
    "evaluate",
    "affine_coefficients",
    "combine_affine",
    "coalesce",
    "is_dcp",
    "make_problem",
    "VariablePool",
    "walk_expressions",
    "substitute_variables",
    "nodes",
    "fold",
    "nonconstant",
    "nonaffine",
    "rebuild",
    "ROOT_SIGNS",
    "child_sign",
]


class ExpressionError(ValueError):
    """Raised for malformed expression constructions (shape, arity, operands)."""


class EvaluationError(ValueError):
    """Raised when an expression cannot be evaluated under an assignment."""


class NotAffineError(ValueError):
    """Raised when affine coefficients are requested for a nonlinear tree."""

    def __init__(self, node: "ExpressionNode"):
        self.node = node
        super().__init__(f"expression is not affine: atom '{node.atom}' is nonlinear")


class ProblemError(ValueError):
    """Raised for malformed problem constructions."""


class Curvature(Enum):
    # The tests are plain member attributes (every tree walk reads them) and
    # follow the refinement order: constants are affine, affine is both.
    CONSTANT = "constant"
    AFFINE = "affine"
    CONVEX = "convex"
    CONCAVE = "concave"
    UNKNOWN = "unknown"

    def __init__(self, value: str):
        self.is_constant = value == "constant"
        self.is_affine = value in ("constant", "affine")
        self.is_convex = value in ("constant", "affine", "convex")
        self.is_concave = value in ("constant", "affine", "concave")


class Sign(Enum):
    ZERO = "zero"
    NONNEGATIVE = "nonnegative"
    NONPOSITIVE = "nonpositive"
    UNKNOWN = "unknown"

    def __init__(self, value: str):
        self.is_nonnegative = value in ("zero", "nonnegative")
        self.is_nonpositive = value in ("zero", "nonpositive")


def _sign_of_interval(nonneg: bool, nonpos: bool) -> Sign:
    if nonneg and nonpos:
        return Sign.ZERO
    if nonneg:
        return Sign.NONNEGATIVE
    if nonpos:
        return Sign.NONPOSITIVE
    return Sign.UNKNOWN


def _negate_sign(s: Sign) -> Sign:
    if s is Sign.NONNEGATIVE:
        return Sign.NONPOSITIVE
    if s is Sign.NONPOSITIVE:
        return Sign.NONNEGATIVE
    return s


class Sense(Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class Relation(Enum):
    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True)
class VariableDecl:
    """A declared optimization variable: scalar (dim 1) or dense real vector."""

    id: int
    name: str
    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ExpressionError(f"variable '{self.name}' needs dim >= 1, got {self.dim}")
        if not self.name:
            raise ExpressionError("variable name must be nonempty")


# Per-argument monotonicity markers used by the composition rule.
_INCREASING = +1
_DECREASING = -1
_NONMONOTONE = 0


@dataclass(frozen=True)
class AtomDescriptor:
    """Static metadata for one atom: shape, curvature class, labels, rules.

    ``monotonicity`` resolves the per-argument direction for a concrete list
    of children (sign-dependent atoms inspect their argument's sign, and
    ``mul_const`` inspects the constant operand).  ``value`` is the numeric
    rule over the children's values and ``param``; its result broadcasts to
    the atom's dimension.
    """

    name: str
    arity_min: int
    arity_max: int  # -1 means unbounded
    curvature_class: Curvature  # AFFINE or CONVEX in this atom set
    labels: frozenset[str]
    result_dim: Callable[[Sequence["ExpressionNode"], int | None], int]
    sign_rule: Callable[[Sequence["ExpressionNode"]], Sign]
    monotonicity: Callable[[Sequence["ExpressionNode"], int], int]
    value: Callable[[Sequence[np.ndarray], int | None], np.ndarray]


def _broadcast_dim(children: Sequence["ExpressionNode"], where: str) -> int:
    dims = {c.dim for c in children if c.dim != 1}
    if len(dims) > 1:
        raise ExpressionError(f"dimension mismatch in '{where}': operand dims {sorted(d for d in dims)}")
    return dims.pop() if dims else 1


def _sign_add(children) -> Sign:
    nonneg = all(c.sign.is_nonnegative for c in children)
    nonpos = all(c.sign.is_nonpositive for c in children)
    return _sign_of_interval(nonneg, nonpos)


def _sign_sub(children) -> Sign:
    a, b = children[0].sign, _negate_sign(children[1].sign)
    return _sign_of_interval(
        a.is_nonnegative and b.is_nonnegative,
        a.is_nonpositive and b.is_nonpositive,
    )


def _sign_neg(children) -> Sign:
    return _negate_sign(children[0].sign)


def _sign_mul(children) -> Sign:
    a, b = children[0].sign, children[1].sign
    if a is Sign.ZERO or b is Sign.ZERO:
        return Sign.ZERO
    if a is Sign.UNKNOWN or b is Sign.UNKNOWN:
        return Sign.UNKNOWN
    if a is b:
        return Sign.NONNEGATIVE
    return Sign.NONPOSITIVE


def _sign_passthrough(children) -> Sign:
    return children[0].sign


def _sign_max(children) -> Sign:
    lower_nonneg = any(c.sign.is_nonnegative for c in children)
    upper_nonpos = all(c.sign.is_nonpositive for c in children)
    return _sign_of_interval(lower_nonneg, upper_nonpos)


def _sign_nonneg_image(children) -> Sign:
    # abs, square, sum_squares, norm2: zero exactly when the argument is zero.
    if children[0].sign is Sign.ZERO:
        return Sign.ZERO
    return Sign.NONNEGATIVE


def _mono_increasing(children, i) -> int:
    return _INCREASING


def _mono_sub(children, i) -> int:
    return _INCREASING if i == 0 else _DECREASING


def _mono_decreasing(children, i) -> int:
    return _DECREASING


def _mono_sign_dependent(children, i) -> int:
    # abs/square/sum_squares/norm2 grow away from zero: increasing on a
    # nonnegative argument, decreasing on a nonpositive one.
    s = children[i].sign
    if s.is_nonnegative:
        return _INCREASING
    if s is Sign.NONPOSITIVE:
        return _DECREASING
    return _NONMONOTONE


def _mul_constant_side(children) -> "ExpressionNode":
    if children[0].curvature.is_constant:
        return children[0]
    return children[1]


def _mono_mul(children, i) -> int:
    if children[i].curvature.is_constant:
        return _INCREASING  # irrelevant: constant operands impose nothing
    c = _mul_constant_side(children)
    if c.sign.is_nonnegative:
        return _INCREASING
    if c.sign is Sign.NONPOSITIVE:
        return _DECREASING
    return _NONMONOTONE


def _dim_broadcast(children, param) -> int:
    return _broadcast_dim(children, "broadcast")


def _dim_same(children, param) -> int:
    return children[0].dim


def _dim_scalar(children, param) -> int:
    return 1


def _dim_index(children, param) -> int:
    if param is None or not (0 <= param < children[0].dim):
        raise ExpressionError(
            f"index {param} out of range for dimension {children[0].dim}"
        )
    return 1


ATOMS: dict[str, AtomDescriptor] = {
    "add": AtomDescriptor("add", 2, 2, Curvature.AFFINE, frozenset("AP"), _dim_broadcast,
                          _sign_add, _mono_increasing, lambda a, p: a[0] + a[1]),
    "sub": AtomDescriptor("sub", 2, 2, Curvature.AFFINE, frozenset("AP"), _dim_broadcast,
                          _sign_sub, _mono_sub, lambda a, p: a[0] - a[1]),
    "neg": AtomDescriptor("neg", 1, 1, Curvature.AFFINE, frozenset("AP"), _dim_same,
                          _sign_neg, _mono_decreasing, lambda a, p: -a[0]),
    "mul_const": AtomDescriptor("mul_const", 2, 2, Curvature.AFFINE, frozenset("AP"),
                                _dim_broadcast, _sign_mul, _mono_mul, lambda a, p: a[0] * a[1]),
    "index": AtomDescriptor("index", 1, 1, Curvature.AFFINE, frozenset("AP"), _dim_index,
                            _sign_passthrough, _mono_increasing, lambda a, p: a[0][p:p + 1]),
    "sum": AtomDescriptor("sum", 1, 1, Curvature.AFFINE, frozenset("AP"), _dim_scalar,
                          _sign_passthrough, _mono_increasing, lambda a, p: np.sum(a[0])),
    "max": AtomDescriptor("max", 2, -1, Curvature.CONVEX, frozenset("P"), _dim_broadcast,
                          _sign_max, _mono_increasing, lambda a, p: reduce(np.maximum, a)),
    "abs": AtomDescriptor("abs", 1, 1, Curvature.CONVEX, frozenset("P"), _dim_same,
                          _sign_nonneg_image, _mono_sign_dependent, lambda a, p: np.abs(a[0])),
    "square": AtomDescriptor("square", 1, 1, Curvature.CONVEX, frozenset("Q"), _dim_same,
                             _sign_nonneg_image, _mono_sign_dependent, lambda a, p: a[0] * a[0]),
    "sum_squares": AtomDescriptor("sum_squares", 1, 1, Curvature.CONVEX, frozenset("Q"),
                                  _dim_scalar, _sign_nonneg_image, _mono_sign_dependent,
                                  lambda a, p: np.dot(a[0], a[0])),
    "norm2": AtomDescriptor("norm2", 1, 1, Curvature.CONVEX, frozenset("N"), _dim_scalar,
                            _sign_nonneg_image, _mono_sign_dependent,
                            lambda a, p: np.linalg.norm(a[0])),
}

ATOM_LABELS: dict[str, frozenset[str]] = {name: d.labels for name, d in ATOMS.items()}


class ExpressionNode:
    """One immutable node of an expression tree.

    ``kind`` is ``"const"``, ``"var"``, or ``"atom"``.  Constants carry a
    read-only float vector in ``payload``; variable references carry the
    declaration's ``var_id``/``var_name``; atom applications carry the atom
    name, the child tuple, and (for ``index``) the integer ``param``.
    """

    __slots__ = ("kind", "dim", "curvature", "sign", "payload", "var_id",
                 "var_name", "atom", "children", "param", "_hash")

    def __init__(self, kind, dim, curvature, sign, payload=None, var_id=None,
                 var_name=None, atom=None, children=(), param=None):
        put = _SLOT_SETTERS  # the slots' own setters; __setattr__ refuses writes
        put["kind"](self, kind)
        put["dim"](self, dim)
        put["curvature"](self, curvature)
        put["sign"](self, sign)
        put["payload"](self, payload)
        put["var_id"](self, var_id)
        put["var_name"](self, var_name)
        put["atom"](self, atom)
        put["children"](self, tuple(children))
        put["param"](self, param)
        put["_hash"](self, None)

    def __setattr__(self, name, value):
        raise AttributeError("ExpressionNode is immutable")

    def _own_key(self):
        """The fields structural equality compares at this node alone."""
        if self.kind == "const":
            return ("const", self.dim, self.payload.tobytes())
        if self.kind == "var":
            return ("var", self.var_id, self.dim)
        return ("atom", self.atom, self.param, len(self.children))

    def __eq__(self, other):
        if not isinstance(other, ExpressionNode):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if hash(a) != hash(b) or a._own_key() != b._own_key():
                return False
            pairs.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        if self._hash is None:
            # Hash from the node's own fields and its children's hashes,
            # computed bottom-up for the subtrees not hashed yet.
            def leave(node, _, __):
                if node._hash is None:
                    _SLOT_SETTERS["_hash"](node, hash(
                        (node._own_key(), tuple([c._hash for c in node.children]))))

            fold(self, leave, lambda node, _: node._hash is None)
        return self._hash

    def __repr__(self):
        def leave(node, inner, _):
            if node.kind == "const":
                return f"Const({np.array2string(node.payload, separator=', ')})"
            if node.kind == "var":
                return f"Var({node.var_name}#{node.var_id}:{node.dim})"
            if node.atom == "index":
                return f"index({inner[0]}, {node.param})"
            return f"{node.atom}({', '.join(inner)})"

        return fold(self, leave)


_SLOT_SETTERS = {name: getattr(ExpressionNode, name).__set__
                 for name in ExpressionNode.__slots__}


def constant(value) -> ExpressionNode:
    """Build a constant node from a scalar or a 1-D sequence of reals."""
    if isinstance(value, float):  # the parser's literals: no array reductions
        if not math.isfinite(value):
            raise ExpressionError("constants must be finite")
        arr = np.array([value + 0.0])  # + 0.0 normalizes -0.0, as below
        sign = _sign_of_interval(value >= 0.0, value <= 0.0)
    else:
        arr = np.atleast_1d(np.asarray(value, dtype=float))
        if arr.ndim != 1:
            raise ExpressionError(f"constants must be scalars or vectors, got shape {arr.shape}")
        if arr.size < 1:
            raise ExpressionError("constants must have dim >= 1")
        if not np.all(np.isfinite(arr)):
            raise ExpressionError("constants must be finite")
        arr = arr + 0.0  # normalizes -0.0 so structural equality is print-stable
        sign = _sign_of_interval(bool(np.all(arr >= 0.0)), bool(np.all(arr <= 0.0)))
    arr.setflags(write=False)
    return ExpressionNode("const", arr.size, Curvature.CONSTANT, sign, payload=arr)


def var_ref(decl: VariableDecl) -> ExpressionNode:
    """Build a reference node for a declared variable."""
    return ExpressionNode("var", decl.dim, Curvature.AFFINE, Sign.UNKNOWN,
                          var_id=decl.id, var_name=decl.name)


def _compose_curvature(desc: AtomDescriptor, children: Sequence[ExpressionNode]) -> Curvature:
    constant = affine = True
    for child in children:
        constant = constant and child.curvature.is_constant
        affine = affine and child.curvature.is_affine
    if constant:
        return Curvature.CONSTANT
    if affine:
        return desc.curvature_class  # no child constrains the composition
    can_convex = desc.curvature_class in (Curvature.AFFINE, Curvature.CONVEX)
    can_concave = desc.curvature_class is Curvature.AFFINE
    for i, child in enumerate(children):
        if child.curvature.is_affine:
            continue
        m = desc.monotonicity(children, i)
        cc = child.curvature
        if can_convex:
            can_convex = (m == _INCREASING and cc is Curvature.CONVEX) or \
                         (m == _DECREASING and cc is Curvature.CONCAVE)
        if can_concave:
            can_concave = (m == _INCREASING and cc is Curvature.CONCAVE) or \
                          (m == _DECREASING and cc is Curvature.CONVEX)
    if can_convex and can_concave:
        return Curvature.AFFINE
    if can_convex:
        return Curvature.CONVEX
    if can_concave:
        return Curvature.CONCAVE
    return Curvature.UNKNOWN


def apply_atom(name: str, children: Sequence[ExpressionNode], param: int | None = None) -> ExpressionNode:
    """Atom ``name`` over ``children``: every atom node is built here."""
    desc = ATOMS[name]
    n = len(children)
    if n < desc.arity_min or (desc.arity_max != -1 and n > desc.arity_max):
        # Every atom takes a fixed count of arguments or, max, a count and up.
        wanted = (f"{desc.arity_min}+ arguments" if desc.arity_max == -1 else
                  f"{desc.arity_min} argument" + "s" * (desc.arity_min != 1))
        raise ExpressionError(f"atom '{name}' takes {wanted}, got {n}")
    dim = desc.result_dim(children, param)
    curvature = _compose_curvature(desc, children)
    if curvature.is_constant and all(c.kind == "const" for c in children):
        # Folds to a leaf with evaluate's bits; a non-finite value stays a
        # tree, and stuffing names the overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            value = desc.value([c.payload for c in children], param)
        if np.isfinite(value).all():  # a scalar takes constant's float path
            return constant(value.item() if dim == 1 else value)
    sign = desc.sign_rule(children)
    return ExpressionNode("atom", dim, curvature, sign, atom=name,
                          children=children, param=param)


def add(a: ExpressionNode, b: ExpressionNode) -> ExpressionNode:
    return apply_atom("add", (a, b))


def sub(a: ExpressionNode, b: ExpressionNode) -> ExpressionNode:
    return apply_atom("sub", (a, b))


def neg(a: ExpressionNode) -> ExpressionNode:
    return apply_atom("neg", (a,))


def mul(a: ExpressionNode, b: ExpressionNode) -> ExpressionNode:
    """Product with at least one constant-curvature operand (elementwise)."""
    if not (a.curvature.is_constant or b.curvature.is_constant):
        raise ExpressionError("non-constant * non-constant product is not allowed")
    const_side = a if a.curvature.is_constant else b
    if const_side.kind == "const" and const_side.sign is Sign.ZERO:
        return constant(np.zeros(_broadcast_dim((a, b), "mul_const")))
    return apply_atom("mul_const", (a, b))


def index(a: ExpressionNode, k: int) -> ExpressionNode:
    return apply_atom("index", (a,), param=int(k))


def sum_(a: ExpressionNode) -> ExpressionNode:
    return apply_atom("sum", (a,))


def max_(*args: ExpressionNode) -> ExpressionNode:
    return apply_atom("max", tuple(args))


def abs_(a: ExpressionNode) -> ExpressionNode:
    return apply_atom("abs", (a,))


def square(a: ExpressionNode) -> ExpressionNode:
    return apply_atom("square", (a,))


def sum_squares(a: ExpressionNode) -> ExpressionNode:
    return apply_atom("sum_squares", (a,))


def norm2(a: ExpressionNode) -> ExpressionNode:
    return apply_atom("norm2", (a,))


# --- traversal ---------------------------------------------------------------
#
# Every walk over a tree goes through ``nodes`` or ``fold``.  Both keep their
# own stack, so a tree of any depth is walked without Python recursion.


def nodes(expr: ExpressionNode, enter=None):
    """Every node of ``expr`` in pre-order, parents first; ``enter`` is :func:`fold`'s."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if enter is None or enter(node, None):
            stack.extend(reversed(node.children))


def fold(expr: ExpressionNode, leave, enter=None, down=None, flag=None):
    """Post-order fold of ``expr``; returns the root's value.

    ``leave(node, values, flag)`` gives a node's value from its children's
    values, in child order; each child's value is dropped once its parent has
    combined it.  ``enter(node, flag)``, when given, runs on the way down,
    before any descendant is visited; a false result skips the node's
    children, so ``leave`` then sees no values.  ``down(node, i, flag)``
    gives child ``i`` its flag from its parent's; without it every node sees
    ``flag``.
    """
    values: list = []
    todo = [(expr, flag, 0)]
    while todo:
        node, f, k = todo.pop()
        if k:
            values[-k:] = [leave(node, values[-k:], f)]
            continue
        kids = node.children
        if enter is not None and not enter(node, f):
            kids = ()
        if kids:
            todo.append((node, f, len(kids)))
            for i in range(len(kids) - 1, -1, -1):
                todo.append((kids[i], f if down is None else down(node, i, f), 0))
        else:
            values.append(leave(node, (), f))
    return values[0]


def nonconstant(node: ExpressionNode, flag=None) -> bool:
    """An ``enter`` for :func:`fold` that skips constant subtrees."""
    return not node.curvature.is_constant


def nonaffine(node: ExpressionNode, flag=None) -> bool:
    """An ``enter`` that skips affine subtrees: none holds a nonconstant nonlinear atom."""
    return not node.curvature.is_affine


def rebuild(node: ExpressionNode, children: Sequence[ExpressionNode]) -> ExpressionNode:
    """``node`` over new ``children``; ``node`` itself when no child changed."""
    if all(new is old for new, old in zip(children, node.children)):
        return node
    return apply_atom(node.atom, children, node.param)


# DCP scaling sign at the root of each tree of a problem: the objective's by
# sense, a constraint's (lhs, rhs) pair by relation.  Children take their
# sign from ``child_sign``.
ROOT_SIGNS = {
    Sense.MINIMIZE: +1,
    Sense.MAXIMIZE: -1,
    Relation.LE: (+1, -1),
    Relation.GE: (-1, +1),
    Relation.EQ: (0, 0),
}


def child_sign(node: ExpressionNode, i: int, sigma: int) -> int:
    """Scaling sign of ``node``'s child ``i``: a ``down`` for :func:`fold`."""
    return sigma * ATOMS[node.atom].monotonicity(node.children, i)


def evaluate(expr: ExpressionNode, assignment: Mapping[int, object]) -> np.ndarray:
    """Evaluate a tree under ``{var_id: value}``; returns an array of shape (dim,)."""

    def leave(node, args, _):
        if node.kind == "const":
            return node.payload
        if node.kind == "var":
            if node.var_id not in assignment:
                raise EvaluationError(
                    f"no value assigned to variable '{node.var_name}' (id {node.var_id})")
            val = np.atleast_1d(np.asarray(assignment[node.var_id], dtype=float))
            if val.shape != (node.dim,):
                raise EvaluationError(
                    f"variable '{node.var_name}' has dim {node.dim}, got value of shape {val.shape}")
            return val
        out = ATOMS[node.atom].value(args, node.param)
        return np.asarray(np.broadcast_to(out, (node.dim,)), dtype=float)

    return fold(expr, leave)


_ROW0 = np.zeros(1, dtype=np.intp)  # shared leaf arrays, never written
_ONE = np.ones(1)


def coalesce(chunks):
    """One triplet block from a list of chunks, each row-major with distinct
    entries: repeated entries add in list order, as the dense sum of the
    chunks would add them, and the result is row-major again."""
    if len(chunks) == 1:
        return chunks[0]
    rows, cols, vals = (np.concatenate(a) for a in zip(*chunks))
    span = int(cols.max(initial=0)) + 1  # a Hessian block's columns reach width²
    keys = rows * span + cols
    if (keys[1:] > keys[:-1]).all():  # distinct and in order already
        return rows, cols, vals
    keys, at = np.unique(keys, return_inverse=True)
    return keys // span, keys % span, np.bincount(at, vals, keys.size)


def _tile(block, dim):
    """A one-row block repeated over ``dim`` rows."""
    _, cols, vals = block
    return (np.repeat(np.arange(dim), cols.size), np.tile(cols, dim),
            np.tile(vals, dim))


def _combine_pieces(dim, pieces, scales):
    """``sum_i scale_i * piece_i`` over ``dim`` rows.  The first piece keeps
    its chunks and each later one joins as one coalesced chunk, so entries
    add in the order of the dense left-to-right sum."""
    coeffs: dict = {}
    const = np.zeros(dim)
    for i, ((pc, pk), scale) in enumerate(zip(pieces, scales)):
        tiled = pk.shape[0] != dim  # one row, broadcast up by tiling
        if tiled:
            pk = np.repeat(pk, dim, axis=0)
        const = const + (pk if scale == 1.0 else scale * pk)
        for v, chunks in pc.items():
            if i:
                chunks = [coalesce(chunks)]
            if tiled:
                chunks = [_tile(c, dim) for c in chunks]
            if scale != 1.0:
                chunks = [(r, c, scale * x) for r, c, x in chunks]
            if v in coeffs:
                coeffs[v] += chunks  # the left operand's list, used once
            else:
                coeffs[v] = chunks
    return coeffs, const


_SCALES = {"add": (1.0, 1.0), "sub": (1.0, -1.0), "neg": (-1.0,)}


def combine_affine(node: ExpressionNode, pieces, widths) -> tuple[dict, np.ndarray]:
    """The piece of ``node``, an affine atom, from its children's pieces.

    A piece is ``({key: chunks}, k)``: for each column space ``key``, a list
    of row-major triplet chunks that add up to the (dim, widths[key]) block,
    and the constant vector ``k`` of shape (dim,).  This holds the rules of
    ``add``, ``sub``, ``neg``, constant ``mul``, ``index`` and ``sum``, each
    entry with the bits that dense block arithmetic gives it: the left
    operand of an ``add`` or ``sub`` stays a list of chunks, and a block is
    coalesced before any other step.  Raises :class:`NotAffineError` for
    any other atom.
    """
    name = node.atom
    if name in _SCALES:
        return _combine_pieces(node.dim, pieces, _SCALES[name])
    if name == "mul_const":
        const_first = node.children[0].curvature.is_constant
        cval = pieces[0 if const_first else 1][1]
        coeffs, const = pieces[1 if const_first else 0]
        vector = cval.shape[0] > 1
        out = {}
        for v, chunks in coeffs.items():
            r, c, x = block = coalesce(chunks)
            if vector and const.shape[0] == 1:  # times a scalar expression
                r, c, x = _tile(block, cval.size)
            out[v] = [(r, c, (cval[r] if vector else cval) * x)]
        return out, cval * const
    if name == "index":
        k = node.param
        coeffs, const = pieces[0]
        out = {}
        for v, chunks in coeffs.items():
            r, c, x = coalesce(chunks)
            lo, hi = np.searchsorted(r, (k, k + 1))
            out[v] = [(r[lo:hi] - k, c[lo:hi], x[lo:hi])]
        return out, const[k:k + 1]
    if name == "sum":
        coeffs, const = pieces[0]
        out = {}
        for v, chunks in coeffs.items():
            r, c, x = coalesce(chunks)
            if widths[v] == 1:  # numpy sums one column pairwise, zeros too
                column = np.zeros(node.children[0].dim)
                column[r] = x
                out[v] = [(_ROW0, _ROW0, np.array([np.sum(column)]))]
            else:  # and the rows of a wider block in sequence
                cols, at = np.unique(c, return_inverse=True)
                out[v] = [(np.zeros(cols.size, dtype=np.intp), cols,
                           np.bincount(at, x, cols.size))]
        return out, np.array([np.sum(const)])
    raise NotAffineError(node)


def affine_coefficients(expr: ExpressionNode) -> tuple[dict, np.ndarray]:
    """Sparse coefficient blocks and constant vector of an affine expression.

    Returns ``({var_id: (rows, cols, vals)}, k)``: COO triplets of each
    variable's (dim, var_dim) block ``M``, row-major with distinct entries
    (some may cancel to zero), and ``k`` of shape (dim,), such that the
    expression equals ``sum_i M_i x_i + k``.  The leaves are read here and
    every atom is combined by :func:`combine_affine`, with each variable's
    block as one column space.  Raises :class:`NotAffineError` naming the
    first nonlinear atom otherwise: the post-order walk reaches it before
    any ancestor.
    """
    widths: dict[int, int] = {}  # var_id -> var_dim, the blocks' widths

    def leave(node, pieces, _):
        if node.curvature.is_constant:
            return {}, node.payload if node.kind == "const" else evaluate(node, {})
        if node.kind == "var":
            widths[node.var_id] = d = node.dim
            ids = np.arange(d)
            return {node.var_id: [(ids, ids, np.ones(d))]}, np.zeros(d)
        if node.atom == "index" and not pieces:  # one entry of a variable's identity
            leaf = node.children[0]
            widths[leaf.var_id] = leaf.dim
            return {leaf.var_id: [(_ROW0, np.array([node.param]), _ONE)]}, np.zeros(1)
        return combine_affine(node, pieces, widths)

    def enter(node, _):  # skips constants and an indexed variable's leaf
        return nonconstant(node) and (node.atom != "index" or node.children[0].kind != "var")

    coeffs, const = fold(expr, leave, enter)
    return {v: coalesce(chunks) for v, chunks in coeffs.items()}, const


@dataclass(frozen=True)
class ConstraintDecl:
    """One constraint ``lhs REL rhs`` with a position-stable id."""

    id: int
    relation: Relation
    lhs: ExpressionNode
    rhs: ExpressionNode

    def __post_init__(self):
        if self.lhs.dim != self.rhs.dim and 1 not in (self.lhs.dim, self.rhs.dim):
            raise ProblemError(
                f"constraint {self.id}: sides have dims {self.lhs.dim} and {self.rhs.dim}")

    @property
    def dim(self) -> int:
        return max(self.lhs.dim, self.rhs.dim)


@dataclass(frozen=True)
class ProblemForm:
    """A full problem: sense, scalar objective, constraints, variables.

    Constraints, given as ``(lhs, relation, rhs)`` triples or declarations,
    are numbered by position.  The trees are not walked: the parser and the
    reductions build them from declared variables, and :func:`make_problem`
    checks trees built anywhere else.
    """

    sense: Sense
    objective: ExpressionNode
    constraints: tuple[ConstraintDecl, ...]
    variables: tuple[VariableDecl, ...]

    def __post_init__(self):
        if self.objective.dim != 1:
            raise ProblemError(f"objective must be scalar, got dim {self.objective.dim}")
        variables = tuple(self.variables)
        if len({v.id for v in variables}) != len(variables):
            raise ProblemError("duplicate variable ids")
        if len({v.name for v in variables}) != len(variables):
            raise ProblemError("duplicate variable names")
        cons = []
        for pos, c in enumerate(self.constraints):
            lhs, rel, rhs = (c.lhs, c.relation, c.rhs) if isinstance(c, ConstraintDecl) else c
            cons.append(ConstraintDecl(pos, rel, lhs, rhs))
        object.__setattr__(self, "constraints", tuple(cons))  # frozen: set once, here
        object.__setattr__(self, "variables", variables)


def make_problem(sense: Sense, objective: ExpressionNode,
                 constraints: Sequence[tuple[ExpressionNode, Relation, ExpressionNode] | ConstraintDecl],
                 variables: Sequence[VariableDecl]) -> ProblemForm:
    """A :class:`ProblemForm` whose trees reference only its declared variables.

    For trees built outside the library: every variable an expression
    references must appear in ``variables``, with its declared dimension.
    """
    problem = ProblemForm(sense, objective, constraints, variables)
    decl_dims = {v.id: v.dim for v in problem.variables}
    for _, expr, _ in walk_expressions(problem):
        for node in nodes(expr):
            if node.kind == "var":
                if node.var_id not in decl_dims:
                    raise ProblemError(f"undeclared variable '{node.var_name}' (id {node.var_id})")
                if decl_dims[node.var_id] != node.dim:
                    raise ProblemError(f"variable '{node.var_name}' used with dim {node.dim}, "
                                       f"declared {decl_dims[node.var_id]}")
    return problem


class VariablePool:
    """A problem's variables plus the fresh ones a reduction adds to them.

    Fresh ids continue after the largest id in use.  A fresh name is the stem
    and the id, prefixed with underscores until it collides with no name.
    """

    def __init__(self, variables: Sequence[VariableDecl]):
        self.variables = list(variables)
        self.names = {v.name for v in self.variables}
        self.next_id = max((v.id for v in self.variables), default=-1) + 1

    def fresh(self, stem: str, dim: int = 1) -> VariableDecl:
        name = f"{stem}{self.next_id}"
        while name in self.names:
            name = "_" + name
        decl = VariableDecl(self.next_id, name, dim)
        self.next_id += 1
        self.names.add(name)
        self.variables.append(decl)
        return decl


def walk_expressions(problem: ProblemForm):
    """Yield (location, expression, root scaling sign) for every tree in the problem."""
    yield "objective", problem.objective, ROOT_SIGNS[problem.sense]
    for i, c in enumerate(problem.constraints):
        fl, fr = ROOT_SIGNS[c.relation]
        yield f"constraint {i}: lhs", c.lhs, fl
        yield f"constraint {i}: rhs", c.rhs, fr


def is_dcp(problem: ProblemForm) -> tuple[bool, list[str]]:
    """Check the discipline: returns (ok, list of violation locations).

    A tree at scaling sign +1 must be convex, at -1 concave, at 0 affine.
    """
    violations = [where for where, e, sigma in walk_expressions(problem)
                  if not (e.curvature.is_convex if sigma > 0 else
                          e.curvature.is_concave if sigma < 0 else e.curvature.is_affine)]
    return (not violations), violations


def substitute_variables(expr: ExpressionNode,
                         mapping: Mapping[int, ExpressionNode]) -> ExpressionNode:
    """Rebuild a tree with every referenced variable in ``mapping`` replaced."""

    def leave(node, children, _):
        if node.kind == "var":
            return mapping.get(node.var_id, node)
        return rebuild(node, children)

    return fold(expr, leave)
