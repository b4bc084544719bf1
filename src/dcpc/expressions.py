"""Expression trees for desk-scale convex optimization problems.

Variables, constants, affine forms and atom applications form immutable
trees.  Every node caches its dimension, curvature, and sign at construction
time, so convexity verification is a table lookup once a problem has been
built.  An atom over constant leaves folds into a constant leaf where it is
built, so a constant carries the sign of its value.  An affine atom over
variables, constants and forms folds into a form: a leaf that holds the
subtree's sparse coefficient blocks and constant vector, as
:func:`combine_affine` computes them.  The form is built straight from the
children, with no atom node and no sign rule on the way; every variable of
one width shares one read-only identity block and zero constant.  A value
that overflows is a :class:`ProblemError` where it is built, so every node
of affine curvature is a leaf, every atom node is non-affine, and an affine
subtree's coefficients are read off one node.  The data model is
deliberately small: scalars and dense real vectors only, eleven atoms, and
three constraint relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from operator import attrgetter
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
    "OVERFLOW",
    "located_overflow",
    "AtomDescriptor",
    "ATOMS",
    "apply_atom",
    "broadcast_dim",
    "constant",
    "var_ref",
    "affine_form",
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
    "sum_entries",
    "leaf_piece",
    "leaf_refs",
    "tile_rows",
    "row_pairs",
    "is_dcp",
    "make_problem",
    "VariablePool",
    "walk_expressions",
    "substitute_variables",
    "nodes",
    "fold",
    "rebuild",
    "ROOT_SIGNS",
]


class ExpressionError(ValueError):
    """Raised for malformed expression constructions (shape, arity, operands)."""


class EvaluationError(ValueError):
    """Raised when an expression cannot be evaluated under an assignment."""


class NotAffineError(ValueError):
    """Raised when affine coefficients are requested for a nonlinear tree."""

    def __init__(self, atom: str):
        self.atom = atom
        super().__init__(f"expression is not affine: atom '{atom}' is nonlinear")


class ProblemError(ValueError):
    """Raised for malformed problem constructions."""


OVERFLOW = "a coefficient overflows to a non-finite value"


def located_overflow(where: str) -> ProblemError:
    """The overflow error of the problem's ``objective`` or ``constraint i``."""
    return ProblemError(f"{where}: {OVERFLOW}")


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
    the atom's dimension.  A convex atom holds its graph over its children
    ``args``: ``pieces(args)``, the affine ``y_j`` with ``atom = max_j y_j``,
    or ``cone(t, args)``, a ``(t', x)`` with ``atom <= t`` iff ``‖x‖ <= t'``.
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
    pieces: Callable[[Sequence["ExpressionNode"]], tuple] | None = None
    cone: Callable[["ExpressionNode", Sequence["ExpressionNode"]], tuple] | None = None


def broadcast_dim(dims, where: str = "broadcast") -> int:
    """The dimension of an elementwise result over operands of ``dims``."""
    dims = {d for d in dims if d != 1}
    if len(dims) > 1:
        raise ExpressionError(f"dimension mismatch in '{where}': operand dims {sorted(dims)}")
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
    return broadcast_dim(c.dim for c in children)


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


def _cone_quadratic(t, args) -> tuple:
    # y·y <= t  iff  ‖(2y, 1 - t)‖ <= 1 + t, entry by entry for a vector square
    one = constant(1.0)
    return add(one, t), (mul(constant(2.0), args[0]), sub(one, t))


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
                          _sign_max, _mono_increasing, lambda a, p: reduce(np.maximum, a),
                          pieces=tuple),
    "abs": AtomDescriptor("abs", 1, 1, Curvature.CONVEX, frozenset("P"), _dim_same,
                          _sign_nonneg_image, _mono_sign_dependent, lambda a, p: np.abs(a[0]),
                          pieces=lambda a: (a[0], neg(a[0]))),
    "square": AtomDescriptor("square", 1, 1, Curvature.CONVEX, frozenset("Q"), _dim_same,
                             _sign_nonneg_image, _mono_sign_dependent, lambda a, p: a[0] * a[0],
                             cone=_cone_quadratic),
    "sum_squares": AtomDescriptor("sum_squares", 1, 1, Curvature.CONVEX, frozenset("Q"),
                                  _dim_scalar, _sign_nonneg_image, _mono_sign_dependent,
                                  lambda a, p: np.dot(a[0], a[0]), cone=_cone_quadratic),
    "norm2": AtomDescriptor("norm2", 1, 1, Curvature.CONVEX, frozenset("N"), _dim_scalar,
                            _sign_nonneg_image, _mono_sign_dependent,
                            lambda a, p: np.linalg.norm(a[0]), cone=lambda t, a: (t, a)),
}


class ExpressionNode:
    """One immutable node of an expression tree.

    ``kind`` is ``"const"``, ``"var"``, ``"form"`` or ``"atom"``.  Constants
    carry a read-only float vector in ``payload``; variable references carry
    the declaration's ``var_id``/``var_name``; atom applications carry the
    atom name, the child tuple, and (for ``index``) the integer ``param``.
    A form is a nonconstant affine leaf: ``payload`` is ``({var_id: (rows,
    cols, vals)}, k)``, each variable's coalesced row-major block and the
    constant vector, read-only and finite, and ``refs`` holds the reference
    nodes of its variables in id order.
    """

    __slots__ = ("kind", "dim", "curvature", "sign", "payload", "var_id",
                 "var_name", "atom", "children", "param", "refs", "_hash")

    def __init__(self, kind, dim, curvature, sign, payload=None, var_id=None,
                 var_name=None, atom=None, children=(), param=None, refs=()):
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
        put["refs"](self, refs)
        put["_hash"](self, None)

    def __setattr__(self, name, value):
        raise AttributeError("ExpressionNode is immutable")

    def _own_key(self):
        """The fields structural equality compares at this node alone."""
        if self.kind == "const":
            return ("const", self.dim, self.payload.tobytes())
        if self.kind == "var":
            return ("var", self.var_id, self.dim)
        if self.kind == "form":
            coeffs, k = self.payload
            return ("form", self.dim, k.tobytes(), tuple(
                (r.var_id, r.dim) + tuple(a.tobytes() for a in coeffs[r.var_id])
                for r in self.refs))
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
            if node.kind == "form":
                coeffs, k = node.payload
                blocks = ", ".join(f"{r.var_name}#{r.var_id}: {coeffs[r.var_id]}"
                                   for r in node.refs)
                return f"Form({{{blocks}}}, {np.array2string(k, separator=', ')})"
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


def affine_form(coeffs: Mapping[int, tuple], const: np.ndarray, refs) -> ExpressionNode:
    """A form leaf, or a constant leaf when ``refs`` is empty.

    ``refs`` are the reference nodes of the form's variables, ``coeffs``
    maps each one's id to its coalesced row-major block ``(rows, cols,
    vals)``, and ``const`` is the constant vector.  A coefficient's zero is
    stored as +0.0, as a constant's is; no reader tells the two apart.
    Raises ``ProblemError(OVERFLOW)`` when a value is not finite.
    """
    return _form({v: _owned(block) for v, block in coeffs.items()}, const,
                 tuple(sorted(refs, key=_VAR_ID)))


def _owned(block: tuple) -> tuple:
    """The block as a form holds it: finite, with +0.0 zeros, read-only and
    owning its arrays, so a form keeps no larger array alive.  A block with
    no writable array is held by a form already, or is a variable's shared
    identity block, and is taken as it is."""
    rows, cols, vals = block
    if vals.flags.writeable or rows.flags.writeable or cols.flags.writeable:
        if not _finite(vals):
            raise ProblemError(OVERFLOW)
        block = (rows if rows.base is None else rows.copy(),
                 cols if cols.base is None else cols.copy(), vals + 0.0)
        for a in block:  # a row or column array shared with a form is read-only
            if a.flags.writeable:
                a.setflags(write=False)
    return block


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite; a short array is read as
    floats, which costs a tenth of numpy's reduction."""
    if a.shape[0] <= 8:
        return all(map(math.isfinite, a.tolist()))
    return bool(np.isfinite(a).all())


def _form(blocks: dict, const: np.ndarray, refs) -> ExpressionNode:
    """The form of owned ``blocks`` over ``refs``, sorted by id, or the
    constant leaf when ``refs`` is empty; raises ``ProblemError(OVERFLOW)``
    when ``const`` is not finite."""
    if not _finite(const):
        raise ProblemError(OVERFLOW)
    if not refs:
        return constant(const.item() if const.shape[0] == 1 else const)
    if const.base is not None:
        const = const.copy()
    const.setflags(write=False)
    return ExpressionNode("form", const.shape[0], _AFFINE, _UNKNOWN,
                          payload=(blocks, const), refs=refs)


# Read on every form built: a member read through its enum class costs ten times as much.
_AFFINE, _UNKNOWN = Curvature.AFFINE, Sign.UNKNOWN


@lru_cache(maxsize=256)
def _identity(d: int) -> tuple:
    """The identity block and zero constant of every variable of width
    ``d``: one read-only copy, shared by every reference.  The cache holds
    the widths last used, so a process that meets many widths stays bounded."""
    ids, ones, zeros = np.arange(d), np.ones(d), np.zeros(d)
    for a in (ids, ones, zeros):
        a.setflags(write=False)
    return (ids, ids, ones), zeros


def leaf_piece(node: ExpressionNode) -> tuple[dict, np.ndarray]:
    """``({var_id: (rows, cols, vals)}, k)`` of a constant leaf, variable or
    form: its read-only blocks and constant vector.  A form's piece is its
    payload, and a variable's arrays are shared by every variable of its
    width, so no caller may change them."""
    if node.kind == "const":
        return {}, node.payload
    if node.kind == "var":
        block, zeros = _identity(node.dim)
        return {node.var_id: block}, zeros
    return node.payload


def leaf_refs(node: ExpressionNode) -> tuple:
    """The reference nodes of the variables a node holds as leaves: a
    variable's own, a form's, and none for any other node."""
    return (node,) if node.kind == "var" else node.refs


def _form_of(name: str, dim: int, children, param) -> ExpressionNode:
    """The form of affine atom ``name`` over variables, constant leaves and
    forms, of dimension ``dim``; no atom node is built for it.

    ``add`` and ``sub`` keep their left operand's chunks, and one chunk
    coalesces to itself, so a left leaf of the result's dimension keeps
    every block that the right operand does not touch, and only the right
    operand's variables are combined: a sum built one term at a time costs
    its terms, not its terms times its variables.
    """
    left, right = children[0], children[-1]
    (kept, lk), refs = leaf_piece(left), leaf_refs(left)
    if right is not left:  # a variable of both keeps the left's reference
        new = [r for r in leaf_refs(right) if r.var_id not in kept]
        if new:
            refs = tuple(sorted([*refs, *new], key=_VAR_ID) if refs else new)
    if name in ("add", "sub") and left.dim == dim:
        blocks, rk = leaf_piece(right)
        if blocks:  # the new form's own dict; ``kept`` may be the left's
            kept = dict(kept)
        pieces = [({v: kept.pop(v) for v in blocks if v in kept}, lk), (blocks, rk)]
        widths: dict[int, int] = {}  # add and sub read no width
    else:
        kept, pieces = {}, [leaf_piece(c) for c in children]
        widths = {r.var_id: r.dim for r in refs} if name == "sum" else {}  # only sum reads it
    coeffs, const = combine_affine(name, dim, children, param, pieces, widths)
    for v, chunks in coeffs.items():
        kept[v] = _owned(coalesce(chunks))
    return _form(kept, const, refs)


_VAR_ID = attrgetter("var_id")


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
    if curvature.is_constant:
        # Every child is a constant leaf: fold to a leaf with evaluate's bits.
        with np.errstate(over="ignore", invalid="ignore"):
            value = desc.value([c.payload for c in children], param)
        if not np.isfinite(value).all():
            raise ProblemError(OVERFLOW)
        return constant(value.item() if dim == 1 else value)  # a scalar takes the float path
    if curvature.is_affine:  # every child is a leaf, so the result is a form
        return _form_of(name, dim, children, param)
    return ExpressionNode("atom", dim, curvature, desc.sign_rule(children), atom=name,
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
    if const_side.sign is Sign.ZERO:  # a constant is a leaf with its value's sign
        return constant(np.zeros(broadcast_dim((a.dim, b.dim), "mul_const")))
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


def nodes(expr: ExpressionNode):
    """Every node of ``expr`` in pre-order, parents first."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
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


def rebuild(node: ExpressionNode, children: Sequence[ExpressionNode]) -> ExpressionNode:
    """``node`` over new ``children``; ``node`` itself when no child changed."""
    if all(new is old for new, old in zip(children, node.children)):
        return node
    return apply_atom(node.atom, children, node.param)


# DCP scaling sign at the root of each tree of a problem: the objective's by
# sense, a constraint's (lhs, rhs) pair by relation.
ROOT_SIGNS = {
    Sense.MINIMIZE: +1,
    Sense.MAXIMIZE: -1,
    Relation.LE: (+1, -1),
    Relation.GE: (-1, +1),
    Relation.EQ: (0, 0),
}


def evaluate(expr: ExpressionNode, assignment: Mapping[int, object]) -> np.ndarray:
    """Evaluate a tree under ``{var_id: value}``; returns an array of shape (dim,)."""

    def value(ref):
        if ref.var_id not in assignment:
            raise EvaluationError(
                f"no value assigned to variable '{ref.var_name}' (id {ref.var_id})")
        val = np.atleast_1d(np.asarray(assignment[ref.var_id], dtype=float))
        if val.shape != (ref.dim,):
            raise EvaluationError(
                f"variable '{ref.var_name}' has dim {ref.dim}, got value of shape {val.shape}")
        return val

    def leave(node, args, _):
        if node.kind == "const":
            return node.payload
        if node.kind == "var":
            return value(node)
        if node.kind == "form":
            coeffs, out = node.payload
            for ref in node.refs:
                rows, cols, vals = coeffs[ref.var_id]
                out = out + np.bincount(rows, vals * value(ref)[cols], node.dim)
            return out
        out = ATOMS[node.atom].value(args, node.param)
        return np.asarray(np.broadcast_to(out, (node.dim,)), dtype=float)

    return fold(expr, leave)


_ROW0 = np.zeros(1, dtype=np.intp)  # a shared row array, never written


def coalesce(chunks):
    """One triplet block from a list of chunks, each row-major with distinct
    entries: repeated entries add in list order, as the dense sum of the
    chunks would add them, and the result is row-major again.  One block,
    as a leaf's piece holds it, is its own."""
    if type(chunks) is tuple:
        return chunks
    if len(chunks) == 1:
        return chunks[0]
    return sum_entries(*(np.concatenate(a) for a in zip(*chunks)))


def sum_entries(rows, cols, vals):
    """Row-major triplets with distinct entries from any triplets: the
    entries at one place add in the order given."""
    span = int(cols.max(initial=0)) + 1  # a Hessian block's columns reach width²
    keys = rows * span + cols
    if (keys[1:] > keys[:-1]).all():  # distinct and in order already
        return rows, cols, vals
    keys, at = np.unique(keys, return_inverse=True)
    return keys // span, keys % span, np.bincount(at, vals, keys.size)


def tile_rows(block, dim):
    """A one-row block repeated over ``dim`` rows."""
    _, cols, vals = block
    return (np.repeat(np.arange(dim), cols.size), np.tile(cols, dim),
            np.tile(vals, dim))


def row_pairs(keys, rows):
    """The index pairs ``(i, j)`` with ``rows[j] == keys[i]``, for sorted ``rows``,
    by ``i`` and then by ``j``: each key meets its row's entries in order."""
    start = np.searchsorted(rows, keys)  # each key's run: start and length
    count = np.searchsorted(rows, keys, side="right") - start
    left = np.repeat(np.arange(keys.size), count)
    right = np.repeat(start - np.cumsum(count) + count, count) + np.arange(left.size)
    return left, right


def _combine_pieces(dim, pieces, scales):
    """``sum_i scale_i * piece_i`` over ``dim`` rows, each scale ±1, so a
    scaled value is a negated one.  The first piece keeps its chunks and
    each later one joins as one coalesced chunk, so entries add in the
    order of the dense left-to-right sum.  A scalar constant adds as Python
    floats, which give numpy's bits with no ``errstate``; no block step can
    overflow."""
    coeffs: dict = {}
    const = 0.0 if dim == 1 else np.zeros(dim)
    for i, ((pc, pk), scale) in enumerate(zip(pieces, scales)):
        tiled = pk.shape[0] != dim  # one row, broadcast up by tiling
        if dim == 1:
            const += pk.item() if scale == 1.0 else -pk.item()
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                const = const + (pk if scale == 1.0 else -pk)
        for v, chunks in pc.items():
            if i or type(chunks) is tuple:  # a leaf's one block is one chunk
                chunks = [coalesce(chunks)]
            if tiled:
                chunks = [tile_rows(c, dim) for c in chunks]
            if scale != 1.0:
                chunks = [(r, c, -x) for r, c, x in chunks]
            if v in coeffs:
                coeffs[v] += chunks  # the left operand's list, used once
            else:
                coeffs[v] = chunks
    return coeffs, np.array([const]) if dim == 1 else const


_SCALES = {"add": (1.0, 1.0), "sub": (1.0, -1.0), "neg": (-1.0,)}


def combine_affine(name: str, dim: int, children, param, pieces,
                   widths) -> tuple[dict, np.ndarray]:
    """The piece of atom ``name`` of dimension ``dim`` over ``children``
    (and ``param``), an affine atom, from its children's pieces.

    A piece is ``({key: chunks}, k)``: for each column space ``key``, a list
    of row-major triplet chunks that add up to the (dim, widths[key]) block,
    or that one block as a leaf's piece holds it, and the constant vector
    ``k`` of shape (dim,).  This holds the rules of
    ``add``, ``sub``, ``neg``, constant ``mul``, ``index`` and ``sum``, each
    entry with the bits that dense block arithmetic gives it: the left
    operand of an ``add`` or ``sub`` stays a list of chunks, and a block is
    coalesced before any other step.  A step that may overflow runs under
    ``errstate``, and the caller checks what it built.  Raises
    :class:`NotAffineError` for any other atom.
    """
    if name in _SCALES:
        return _combine_pieces(dim, pieces, _SCALES[name])
    if name == "mul_const":
        const_first = children[0].curvature.is_constant
        cval = pieces[0 if const_first else 1][1]
        coeffs, const = pieces[1 if const_first else 0]
        vector = cval.shape[0] > 1
        out = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for v, chunks in coeffs.items():
                r, c, x = block = coalesce(chunks)
                if vector and const.shape[0] == 1:  # times a scalar expression
                    r, c, x = tile_rows(block, cval.size)
                out[v] = [(r, c, (cval[r] if vector else cval) * x)]
            return out, cval * const
    if name == "index":
        k = param
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
        with np.errstate(over="ignore", invalid="ignore"):
            for v, chunks in coeffs.items():
                r, c, x = coalesce(chunks)
                if widths[v] == 1:  # numpy sums one column pairwise, zeros too
                    column = np.zeros(children[0].dim)
                    column[r] = x
                    out[v] = [(_ROW0, _ROW0, np.array([np.sum(column)]))]
                else:  # and the rows of a wider block in sequence
                    cols, at = np.unique(c, return_inverse=True)
                    out[v] = [(np.zeros(cols.size, dtype=np.intp), cols,
                               np.bincount(at, x, cols.size))]
            return out, np.array([np.sum(const)])
    raise NotAffineError(name)


def affine_coefficients(expr: ExpressionNode) -> tuple[dict, np.ndarray]:
    """Sparse coefficient blocks and constant vector of an affine expression.

    Returns ``({var_id: (rows, cols, vals)}, k)``: COO triplets of each
    variable's (dim, var_dim) block ``M``, row-major with distinct entries
    (some may cancel to zero), and ``k`` of shape (dim,), such that the
    expression equals ``sum_i M_i x_i + k``.  An affine expression is a
    leaf, which holds them, read-only, as :func:`leaf_piece` gives them;
    no caller may change them.  Any other is an atom node, and this raises
    :class:`NotAffineError` naming its first atom in post-order, the first
    atom over leaves only, which is nonlinear.
    """
    if expr.kind == "atom":
        raise NotAffineError(next(n for n in nodes(expr) if n.kind == "atom" and
                                  all(c.kind != "atom" for c in n.children)).atom)
    return leaf_piece(expr)


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
            for ref in leaf_refs(node):
                if ref.var_id not in decl_dims:
                    raise ProblemError(f"undeclared variable '{ref.var_name}' (id {ref.var_id})")
                if decl_dims[ref.var_id] != ref.dim:
                    raise ProblemError(f"variable '{ref.var_name}' used with dim {ref.dim}, "
                                       f"declared {decl_dims[ref.var_id]}")
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
    """Rebuild a tree with every referenced variable in ``mapping`` replaced.

    A variable inside a form can be replaced by a variable, constant leaf or
    form of its dimension; see :func:`_substitute_form`.
    """

    def leave(node, children, _):
        if node.kind == "var":
            return mapping.get(node.var_id, node)
        if node.kind == "form":
            return _substitute_form(node, mapping)
        return rebuild(node, children)

    return fold(expr, leave)


def _substitute_form(node: ExpressionNode, mapping) -> ExpressionNode:
    """``node`` with its variables in ``mapping`` replaced, by a sparse product.

    Each replaced block ``B`` becomes ``B M`` over the replacement's blocks
    ``M``, and ``B k`` joins the constant: the products of each row add from
    0.0 in variable-id and row-major order, then the form's own constant, as
    a sum that ends in its constant term folds them.
    With no variable left the result is a constant leaf.  A value that is
    not finite raises ``ProblemError(OVERFLOW)``.
    """
    coeffs, const = node.payload
    if not any(r.var_id in mapping for r in node.refs):
        return node
    chunks: dict[int, list] = {}
    refs: dict[int, ExpressionNode] = {}
    moved = []  # (rows, products) of B k, per replaced variable
    with np.errstate(over="ignore", invalid="ignore"):
        for ref in node.refs:
            rows, cols, vals = coeffs[ref.var_id]
            new = mapping.get(ref.var_id, ref)
            if new.kind == "atom" or new.dim != ref.dim:
                raise ExpressionError(f"variable '{ref.var_name}' in an affine form can only "
                                      f"become a variable, constant or form of dim {ref.dim}")
            pieces, k = leaf_piece(new)
            if k.any():
                moved.append((rows, vals * k[cols]))
            for r in leaf_refs(new):
                refs[r.var_id] = r
            for v, (mr, mc, mx) in pieces.items():  # entries (c, j) of M's row c
                left, at = row_pairs(cols, mr)
                chunks.setdefault(v, []).append(
                    sum_entries(rows[left], mc[at], vals[left] * mx[at]))
        if moved:
            rows, products = (np.concatenate(a) for a in zip(*moved))
            const = np.bincount(rows, products, node.dim) + const
        coeffs = {v: coalesce(c) for v, c in chunks.items()}
    return affine_form(coeffs, const, refs.values())
