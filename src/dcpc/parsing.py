"""Text frontend: a small modeling language for vector optimization problems.

The surface syntax::

    # duel.cvx
    var alice;
    var bob;
    minimize max(alice + bob + 2, -alice - bob);
    subject to
      alice <= 0;
      bob == -0.5;

Grammar sketch (``#`` starts a line comment, files are UTF-8)::

    problem    := vardecl* objective constraints?
    vardecl    := "var" IDENT ("[" INT "]")? ";"
    objective  := ("minimize" | "maximize") expr ";"
    constraints:= "subject" "to" (expr REL expr ";")+     REL in {<=, >=, ==}
    additive   := mult (("+" | "-") mult)*
    mult       := factor ("*" factor)*
    factor     := NUMBER | "[" SNUMBER ("," SNUMBER)* "]" | IDENT
                | IDENT "[" INT "]" | ATOM "(" expr ("," expr)* ")"
                | "(" expr ")" | "-" factor

Precedence: unary minus binds tighter than ``*``, which binds tighter than
``+``/``-``; relations bind loosest and cannot be chained.  Indexing is
0-based.  A unary minus on a constant folds into a negative constant, as every
atom over constants does, so printed problems parse back to identical trees.
Parentheses, atom calls and unary minus nest at most 100 levels deep; sums
and products of any length are fine.  A literal that overflows a float is
an error at the literal; a value built from finite literals that overflows
is an error that names the ``objective`` or ``constraint i`` it is in, as
:func:`dcpc.analyzer.apply_chain` names an overflow in the chain.  A token
is its text alone; the parser keeps token positions, and a span is found by
scanning the text again only when an error is raised.

Affine subtrees become form leaves (see :mod:`dcpc.expressions`).  A
``+``/``-`` run keeps its scalar terms (``c*x[i]``, ``x[i]``, ``-x[i]``,
numbers) as Python scalars and builds the form of its all-affine prefix
once, at the first term that cannot join it or at its end, with the bits
that adding the terms one at a time gives.  A run whose head is not affine
keeps one ``add``/``sub`` node per term, so no sum is regrouped.  The
printer writes a form as a sum in variable-id and column order that parses
back to the same form, bit for bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import expressions as ex

__all__ = ["SourceSpan", "ParseError", "parse_problem", "print_problem",
           "format_number", "RESERVED_WORDS"]


@dataclass(frozen=True)
class SourceSpan:
    """Location of a token or phrase: 1-based line/column plus length."""

    line: int
    column: int
    length: int


class ParseError(ValueError):
    """A rejection of the input text, carrying the offending span."""

    def __init__(self, message: str, span: SourceSpan):
        self.span = span
        super().__init__(f"{span.line}:{span.column}: {message}")


_KEYWORDS = ("var", "minimize", "maximize", "subject", "to")
# Parentheses, atom calls and unary minus nest at most this deep.  Each level
# costs several parser frames, so the bound keeps deep input a parse error
# instead of a RecursionError.
_MAX_NESTING = 100

# A match is the blanks (whitespace, comments) before a token, then the token
# as the one group: \Z is the empty EOF token and any other character a BAD
# one, so no match fails after its blanks and long blanks cost linear time.
_TOKEN_RE = re.compile(r"""
    [ \t\r\n]* (?:\#[^\n]*[ \t\r\n]*)*
    ( [;,()\[\]+\-*]
    | [A-Za-z_][A-Za-z0-9_]*
    | (?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?
    | <=|>=|==
    | .
    | \Z )
""", re.VERBOSE)
_RELATIONS = {"<=": ex.Relation.LE, ">=": ex.Relation.GE, "==": ex.Relation.EQ}
_FIXED_KINDS = {"": "EOF", **dict.fromkeys(_RELATIONS, "REL"),
                **dict.fromkeys(";,()[]+-*", "PUNCT")}


def _kind(tok: str) -> str:
    """NUMBER, IDENT, REL, PUNCT, EOF or BAD, by the pattern's own classes: a
    ``\\d`` is any Unicode decimal digit, an IDENT starts with ASCII."""
    c = tok[:1]
    if c.isdecimal() or (c == "." and len(tok) > 1):
        return "NUMBER"
    if c == "_" or (c.isascii() and c.isalpha()):
        return "IDENT"
    return _FIXED_KINDS.get(tok, "BAD")


def _span(text: str, start: int, end: int) -> SourceSpan:
    """The span of the tokens at positions ``start`` to ``end``, for an error."""
    spans = [m.span(1) for m in islice(_TOKEN_RE.finditer(text), max(start, end) + 1)]
    offset = spans[start][0]
    line_start = text.rfind("\n", 0, offset) + 1
    length = max(1, spans[end][1] - offset)
    return SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1, length)


def _tokenize(text: str) -> list[str]:
    """The token texts, ending with the EOF token ``""`` (twice after blanks)."""
    tokens = _TOKEN_RE.findall(text)
    pos = min((tokens.index(tok) for tok in set(tokens) if _kind(tok) == "BAD"), default=None)
    if pos is not None:
        raise ParseError(f"unexpected character {tokens[pos]!r}", _span(text, pos, pos))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # Spare end tokens let parse_term look eight tokens ahead unchecked.
        self.tokens = _tokenize(text) + [""] * 8
        self.pos = 0
        self.variables: list[ex.VariableDecl] = []
        # One reference node per declaration, shared by every occurrence:
        # nodes are immutable and every walk is a tree fold.
        self.refs: dict[str, ex.ExpressionNode] = {}
        self.depth = 0

    # --- token plumbing -------------------------------------------------

    def peek(self) -> str:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        # Keywords, punctuation and relations are told apart by text alone.
        return self.tokens[self.pos] == text

    def advance(self) -> str:
        tok = self.tokens[self.pos]
        if tok:
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> int:
        """Consume a token of ``kind`` (and ``text``, if given); its position."""
        pos, tok = self.pos, self.tokens[self.pos]
        if _kind(tok) != kind or (text is not None and tok != text):
            wanted = what or (text if text is not None else kind.lower())
            raise ParseError(f"expected {wanted}, found {self.describe(tok)}", self.span(pos))
        self.advance()
        return pos

    def describe(self, tok: str) -> str:
        return repr(tok) if tok else "end of input"

    def span(self, start: int, end: int | None = None) -> SourceSpan:
        return _span(self.text, start, start if end is None else end)

    def prev(self) -> int:
        return max(0, self.pos - 1)

    def nest(self, pos: int, parse):
        """Run ``parse()`` one nesting level below the token at ``pos``."""
        if self.depth >= _MAX_NESTING:
            raise ParseError("expression nested too deeply", self.span(pos))
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def number(self, pos: int) -> float:
        """The value of the NUMBER at ``pos``; a literal that overflows is an error."""
        value = float(self.tokens[pos])
        if math.isinf(value):
            raise ParseError(f"number {self.tokens[pos]} is not finite", self.span(pos))
        return value

    # --- grammar --------------------------------------------------------

    def parse(self) -> ex.ProblemForm:
        while self.at("var"):
            self.parse_vardecl()
        if self.peek() not in ("minimize", "maximize"):
            raise ParseError("expected 'minimize' or 'maximize'", self.span(self.pos))
        sense = ex.Sense.MINIMIZE if self.advance() == "minimize" else ex.Sense.MAXIMIZE
        start = self.pos
        objective = self.parse_located("objective")
        if objective.dim != 1:
            raise ParseError(f"objective must be scalar, got dimension {objective.dim}",
                             self.span(start, self.prev()))
        self.expect("PUNCT", ";")
        constraints = []
        if self.at("subject"):
            self.advance()
            self.expect("IDENT", "to", what="'to'")
            constraints.append(self.parse_constraint(len(constraints)))
            while self.peek():
                constraints.append(self.parse_constraint(len(constraints)))
        if self.peek():
            raise ParseError(f"unexpected trailing input {self.peek()!r}", self.span(self.pos))
        # Dimensions and names are checked above and every identifier resolved
        # through a declaration, so the trees need no second walk.
        return ex.ProblemForm(sense, objective, constraints, self.variables)

    def parse_vardecl(self):
        self.expect("IDENT", "var")
        name_pos = self.expect("IDENT", what="variable name")
        name = self.tokens[name_pos]
        if name in RESERVED_WORDS:
            raise ParseError(f"'{name}' is a reserved word", self.span(name_pos))
        if name in self.refs:
            raise ParseError(f"variable '{name}' is already declared", self.span(name_pos))
        dim = 1
        if self.at("["):
            self.advance()
            dim_pos = self.expect("NUMBER", what="dimension")
            dim_val = self.number(dim_pos)
            if not dim_val.is_integer() or dim_val < 1:
                raise ParseError("dimension must be a positive integer", self.span(dim_pos))
            dim = int(dim_val)
            self.expect("PUNCT", "]")
        self.expect("PUNCT", ";")
        decl = ex.VariableDecl(len(self.variables), name, dim)
        self.variables.append(decl)
        self.refs[name] = ex.var_ref(decl)

    def parse_constraint(self, i: int):
        lhs_start = self.pos
        lhs = self.parse_located(f"constraint {i}")
        relation = _RELATIONS.get(self.peek())
        if relation is None:
            raise ParseError("expected a relation ('<=', '>=', or '==')", self.span(self.pos))
        self.advance()
        rhs = self.parse_located(f"constraint {i}")
        if self.peek() in _RELATIONS:
            raise ParseError("chained relations are not allowed", self.span(self.pos))
        self.expect("PUNCT", ";")
        if lhs.dim != rhs.dim and 1 not in (lhs.dim, rhs.dim):
            raise ParseError(
                f"constraint sides have dimensions {lhs.dim} and {rhs.dim}",
                self.span(lhs_start, self.prev()))
        return (lhs, relation, rhs)

    def parse_located(self, where: str) -> ex.ExpressionNode:
        """One side of the ``objective`` or ``constraint i`` named by ``where``;
        a value that overflows is an error naming it."""
        try:
            return self.parse_expr()
        except ex.ProblemError as err:
            raise ex.located_overflow(where) from err

    def _build(self, fn, args, start: int):
        try:
            return fn(*args)
        except ex.ExpressionError as err:
            raise ParseError(str(err), self.span(start, self.prev())) from err

    def parse_expr(self) -> ex.ExpressionNode:
        start = self.pos
        run = _Run()
        node = None  # the run so far, once a term could not join the form
        plus = True
        while True:
            term = self.parse_term()
            if node is None and (type(term) is not ex.ExpressionNode or term.kind != "atom"):
                try:
                    run.join(plus, term)
                except ex.ExpressionError as err:
                    raise ParseError(str(err), self.span(start, self.prev())) from err
            else:
                if node is None and run.count:
                    node = run.node()
                term = _term_node(term)
                node = term if node is None else \
                    self._build(ex.add if plus else ex.sub, (node, term), start)
            if self.peek() not in ("+", "-"):
                return run.node() if node is None else node
            plus = self.advance() == "+"

    def parse_term(self):
        """One term of a sum.  A scalar ``c*x[i]``, ``x[i]``, ``-x[i]``,
        ``c*x`` or ``-x`` comes back as ``(ref, col, coef, k)``, ``k`` being
        the constant the term's form has, and a number as a float, both read
        straight off the tokens; any other term is parsed to a node."""
        toks, p = self.tokens, self.pos
        neg = toks[p] == "-"
        if neg:
            if self.depth >= _MAX_NESTING:
                return self.parse_mult()
            p += 1
        coef = None
        if _kind(toks[p]) == "NUMBER":
            coef = float(toks[p])
            if math.isinf(coef):
                return self.parse_mult()
            if toks[p + 1] != "*":
                self.pos = p + 1
                return -coef if neg else coef
            p += 2
        ref = self.refs.get(toks[p])  # declared names are identifiers
        if ref is None:
            return self.parse_mult()
        after = toks[p + 1]
        if after == "[":
            idx = toks[p + 2]  # a NUMBER that starts with "." is no integer
            i = float(idx) if idx[:1].isdecimal() else math.nan
            if not (toks[p + 3] == "]" and i.is_integer() and 0 <= i < ref.dim):
                return self.parse_mult()
            col, p = int(i), p + 4
        elif ref.dim == 1 and after != "(" and (neg or coef is not None):
            col, p = 0, p + 1
        else:
            return self.parse_mult()
        if toks[p] == "*":
            return self.parse_mult()
        self.pos = p
        if coef is None:
            return ref, col, -1.0 if neg else 1.0, 0.0
        coef = -coef if neg else coef
        if coef == 0.0:  # a product with a zero constant is the constant zero
            return 0.0
        return ref, col, coef, coef * 0.0

    def parse_mult(self) -> ex.ExpressionNode:
        start = self.pos
        node = self.parse_factor()
        while self.at("*"):
            self.advance()
            rhs = self.parse_factor()
            node = self._build(ex.mul, (node, rhs), start)
        return node

    def parse_factor(self) -> ex.ExpressionNode:
        pos = self.pos
        if self.peek() == "-":
            self.advance()
            operand = self.nest(pos, self.parse_factor)
            return self._build(ex.neg, (operand,), pos)
        return self.parse_primary()

    def parse_vector_literal(self) -> np.ndarray:
        self.expect("PUNCT", "[")
        values = [self.parse_signed_number()]
        while self.at(","):
            self.advance()
            values.append(self.parse_signed_number())
        self.expect("PUNCT", "]")
        return np.array(values)

    def parse_primary(self) -> ex.ExpressionNode:
        pos, name = self.pos, self.peek()
        kind = _kind(name)
        if kind == "NUMBER":
            self.advance()
            return ex.constant(self.number(pos))
        if name == "[":
            return ex.constant(self.parse_vector_literal())
        if name == "(":
            self.advance()
            node = self.nest(pos, self.parse_expr)
            self.expect("PUNCT", ")")
            return node
        if kind == "IDENT":
            self.advance()
            if self.at("("):
                if name not in _ATOM_NAMES:
                    raise ParseError(f"unknown atom '{name}'", self.span(pos))
                self.advance()
                args = self.nest(pos, self.parse_arguments)
                return self._build(ex.apply_atom, (name, tuple(args)), pos)
            if name in RESERVED_WORDS:
                raise ParseError(f"'{name}' is a reserved word", self.span(pos))
            if name not in self.refs:
                raise ParseError(f"unknown identifier '{name}'", self.span(pos))
            node = self.refs[name]
            if self.at("["):
                self.advance()
                idx_pos = self.expect("NUMBER", what="index")
                idx_val = self.number(idx_pos)
                if not idx_val.is_integer():
                    raise ParseError("index must be an integer", self.span(idx_pos))
                self.expect("PUNCT", "]")
                node = self._build(ex.index, (node, int(idx_val)), pos)
            return node
        raise ParseError(f"expected an expression, found {self.describe(name)}", self.span(pos))

    def parse_arguments(self) -> list[ex.ExpressionNode]:
        args = [self.parse_expr()]
        while self.at(","):
            self.advance()
            args.append(self.parse_expr())
        self.expect("PUNCT", ")")
        return args

    def parse_signed_number(self) -> float:
        sign = 1.0
        if self.at("-"):
            self.advance()
            sign = -1.0
        return sign * self.number(self.expect("NUMBER", what="a number"))


def _term_node(term) -> ex.ExpressionNode:
    """The node of one term of a run, as ``parse_mult`` builds it."""
    if type(term) is float:
        return ex.constant(term)
    if type(term) is tuple:
        ref, col, coef, k = term
        return ex.affine_form({ref.var_id: (np.zeros(1, dtype=np.intp), np.array([col]),
                                            np.array([coef]))}, np.array([k]), (ref,))
    return term


class _Run:
    """The all-affine prefix of a ``+``/``-`` run, built into one node.

    The entries of scalar terms are kept as Python scalars, those of
    variables and forms as arrays, in term order.  :meth:`node` stacks them
    once, each variable's rows apart, and coalesces them once, so the
    entries at one place add in term order; the constant adds term by term
    from 0.0 as the terms join.  Those are the bits of adding the terms one
    at a time with ``add``/``sub``.  A run of one term is that term's node.
    """

    def __init__(self):
        self.count, self.first = 0, None  # the terms joined, and the first
        self.dim = 1
        self.const = 0.0  # a float until a vector constant joins
        self.slots: dict[int, int] = {}  # var_id -> slot, by first appearance
        self.refs: list[ex.ExpressionNode] = []
        self.slot, self.col, self.val = [], [], []  # scalar terms' entries
        self.nodes: list = []  # (entries before it, plus, dim, blocks) of nodes

    def slot_of(self, ref) -> int:
        slot = self.slots.get(ref.var_id)
        if slot is None:
            slot = self.slots[ref.var_id] = len(self.refs)
            self.refs.append(ref)
        return slot

    def join(self, plus: bool, term) -> None:
        self.count += 1
        if self.count == 1:
            self.first = term
        if type(term) is tuple:
            ref, col, coef, _ = term
            self.slot.append(self.slot_of(ref))
            self.col.append(col)
            self.val.append(coef if plus else -coef)
            return
        if type(term) is float:
            self.const = self.const + (term if plus else -term)
            return
        if term.dim != 1:
            self.dim = ex.broadcast_dim((self.dim, term.dim))
        for ref in ex.leaf_refs(term):
            self.slot_of(ref)
        blocks, k = ex.leaf_piece(term, {})
        if blocks:
            self.nodes.append((len(self.val), plus, term.dim, blocks))
        if k.shape[0] == 1:
            self.const = self.const + (float(k[0]) if plus else -float(k[0]))
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                self.const = self.const + (k if plus else -k)

    def _entries(self, lo, hi):
        """Stacked rows, columns and values of the scalar terms lo..hi."""
        d = self.dim
        rows = np.array(self.slot[lo:hi], dtype=np.intp) * d
        cols = np.array(self.col[lo:hi], dtype=np.intp)
        vals = np.array(self.val[lo:hi])
        if d > 1:  # each broadcasts over every row
            rows = (rows + np.arange(d)[:, None]).ravel()
            cols, vals = np.tile(cols, d), np.tile(vals, d)
        return rows, cols, vals

    def _node_entries(self, plus, dim, blocks):
        d = self.dim
        for v, ((rows, cols, vals),) in blocks.items():
            if dim != d:  # one row, broadcast
                rows, cols, vals = ex.tile_rows((rows, cols, vals), d)
            yield self.slots[v] * d + rows, cols, vals if plus else -vals

    def node(self) -> ex.ExpressionNode:
        """The run's node; raises ``ProblemError(OVERFLOW)`` when a value
        is not finite."""
        if self.count == 1:
            return _term_node(self.first)
        d = self.dim
        const = np.full(d, self.const) if type(self.const) is float else self.const
        parts, lo = [], 0
        for at, plus, dim, blocks in self.nodes:
            parts.append(self._entries(lo, at))
            parts.extend(self._node_entries(plus, dim, blocks))
            lo = at
        parts.append(self._entries(lo, len(self.val)))
        rows, cols, vals = ex.sum_entries(*(np.concatenate(a) for a in zip(*parts)))
        bounds = np.searchsorted(rows, np.arange(len(self.refs) + 1) * d)
        return ex.affine_form(
            {r.var_id: (rows[a:b] - i * d, cols[a:b], vals[a:b])
             for i, (r, a, b) in enumerate(zip(self.refs, bounds, bounds[1:]))},
            const, self.refs)


def parse_problem(text: str) -> ex.ProblemForm:
    """Parse source text into a validated :class:`ProblemForm`."""
    return _Parser(text).parse()


def format_number(v: float) -> str:
    """Shortest faithful rendering of a float for the surface syntax."""
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


# Precedence levels used by the printer; a child is parenthesized when its
# level is below what its context requires.
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_FACTOR = 1, 2, 3, 4
# Operator atoms: their level, the text before their operands, the text
# between them, and the level each operand needs.
_OPERATORS = {"add": (_LEVEL_ADD, "", " + ", (_LEVEL_ADD, _LEVEL_MUL)),
              "sub": (_LEVEL_ADD, "", " - ", (_LEVEL_ADD, _LEVEL_MUL)),
              "mul_const": (_LEVEL_MUL, "", " * ", (_LEVEL_MUL, _LEVEL_UNARY)),
              "neg": (_LEVEL_UNARY, "-", "", (_LEVEL_UNARY,))}
# The callable atoms: every atom but the operators and variable indexing.
_ATOM_NAMES = frozenset(ex.ATOMS) - frozenset(_OPERATORS) - {"index"}
RESERVED_WORDS = frozenset(_KEYWORDS) | _ATOM_NAMES


def _print_expr(expr: ex.ExpressionNode) -> str:
    """Surface text of a tree, emitted into one list and joined once.

    Each node's flag is what its parent asks of it: the level it needs to
    go unparenthesized and the text that precedes it.
    """
    out: list[str] = []
    closers: list[str] = []

    def down(node, i, _):
        if node.atom in _OPERATORS:
            _, _, sep, needs = _OPERATORS[node.atom]
            return needs[i], (sep if i else "")
        return 0, (", " if i else "")

    def enter(node, context):
        need, sep = context
        tail = ""
        if node.kind == "const":
            head = format_number(float(node.payload[0])) if node.dim == 1 \
                else _vector_text(node.payload)
            level = _LEVEL_UNARY if head.startswith("-") else _LEVEL_FACTOR
        elif node.kind == "var":
            head, level = node.var_name, _LEVEL_FACTOR
        elif node.kind == "form":
            head, level = _form_text(node)
        elif node.atom in _OPERATORS:
            level, head, _, _ = _OPERATORS[node.atom]
        elif node.atom == "index":  # an indexed variable is a form
            raise ValueError("index of a non-variable expression has no textual form")
        else:
            head, tail, level = node.atom + "(", ")", _LEVEL_FACTOR
        paren = level < need
        out.append(sep + "(" * paren + head)
        closers.append(tail + ")" * paren)
        return node.atom != "index"

    ex.fold(expr, lambda node, _, __: out.append(closers.pop()), enter, down, (0, ""))
    return "".join(out)


def _vector_text(values) -> str:
    return "[" + ", ".join(format_number(float(v)) for v in values) + "]"


def _scaled_terms(u, target: str, whole: bool) -> list:
    """Terms that add ``u`` times ``target``, each as ``(text, k, level)``
    with ``k`` the constant the term alone parses to (None for a bare
    variable).  A uniform ``u`` is written as a scalar, which broadcasts."""
    c = u[0]
    if not (u == c).all():
        return [(f"{_vector_text(u)} * {target}", u * 0.0, _LEVEL_MUL)]
    if c == 0.0:  # a zero product folds away; a cancelled pair is stored
        return [(target, None, _LEVEL_FACTOR), ("-" + target, None, _LEVEL_UNARY)]
    if c == 1.0:
        return [(target, None if whole else 0.0, _LEVEL_FACTOR)]
    if c == -1.0:
        return [("-" + target, 0.0, _LEVEL_UNARY)]
    return [(f"{format_number(float(c))} * {target}", c * 0.0, _LEVEL_MUL)]


def _form_terms(refs, coeffs, k, dim: int) -> list:
    """The terms of a form, each variable's in column order, then the constant.

    A block of ``dim`` rows is a set of full columns, each written as
    ``u * x[j]``, plus, for a variable as wide as the form, a diagonal
    written as ``d * x`` first; a place in both takes its value from the
    column, after a 0.0 from the diagonal.
    """
    terms: list = []
    wide = False  # some term has the form's dimension
    for ref in refs:
        rows, cols, vals = coeffs[ref.var_id]
        full = np.bincount(cols, minlength=ref.dim) == dim
        diag = ~full[cols]
        if diag.any():
            if ref.dim != dim or not np.array_equal(rows[diag], cols[diag]) \
                    or diag.sum() + full.sum() != dim:
                raise ValueError("this affine form has no textual form")
            d = np.zeros(dim)
            d[rows[diag]] = vals[diag]
            terms += _scaled_terms(d, ref.var_name, True)
            wide = True
        for j in np.flatnonzero(full):
            u = vals[cols == j]
            wide = wide or not (u == u[0]).all()
            target = ref.var_name if ref.dim == 1 else f"{ref.var_name}[{j}]"
            terms += _scaled_terms(u, target, ref.dim == 1)
    if dim > 1 and not wide:
        terms.append((_vector_text(k), None, _LEVEL_FACTOR))
    elif k.any():
        text = format_number(float(k[0])) if (k == k[0]).all() else _vector_text(k)
        terms.append((text, None, _LEVEL_FACTOR))
    return terms


def _alone(terms, k) -> bool:
    """True when ``terms`` is one term that alone parses to constant ``k``."""
    if len(terms) != 1 or terms[0][1] is None:
        return False
    own = np.broadcast_to(terms[0][1], k.shape)
    return bool((own == k).all() and (np.signbit(own) == np.signbit(k)).all())


def _sum_text(terms, k) -> str:
    """The terms as a sum that parses to constant ``k``, which holds no
    -0.0: a sum of two or more terms adds its constant from 0.0, so a lone
    term that parses to another constant, or to a bare variable, gets a
    ``+ 0``."""
    if len(terms) == 1 and not _alone(terms, k):
        terms = terms + [("0", None, _LEVEL_FACTOR)]
    out = [terms[0][0]]
    for text, _, _ in terms[1:]:
        out.append(" - " + text[1:] if text.startswith("-") else " + " + text)
    return "".join(out)


def _form_text(node: ex.ExpressionNode) -> tuple[str, int]:
    """Text of a form that parses back to it bit for bit, and its level.

    A sum of two or more terms has a constant without -0.0, so a form whose
    constant holds -0.0 is written as ``s * (...)``, ``s`` being -1 at those
    rows and 1 elsewhere, over the form with those rows negated.
    """
    coeffs, k = node.payload
    terms = _form_terms(node.refs, coeffs, k, node.dim)
    if _alone(terms, k):
        return terms[0][0], terms[0][2]
    flip = np.signbit(k) & (k == 0.0)
    if not flip.any():
        return _sum_text(terms, k), _LEVEL_ADD
    s = np.where(flip, -1.0, 1.0)
    k = s * k
    terms = _form_terms(node.refs, {v: (r, c, s[r] * x) for v, (r, c, x) in coeffs.items()},
                        k, node.dim)
    factor = format_number(-1.0) if node.dim == 1 else _vector_text(s)
    return f"{factor} * ({_sum_text(terms, k)})", _LEVEL_MUL


def print_problem(problem: ex.ProblemForm) -> str:
    """Emit canonical text for a problem; ``parse_problem`` inverts it."""
    lines = []
    for v in problem.variables:
        lines.append(f"var {v.name};" if v.dim == 1 else f"var {v.name}[{v.dim}];")
    sense = "minimize" if problem.sense is ex.Sense.MINIMIZE else "maximize"
    lines.append(f"{sense} {_print_expr(problem.objective)};")
    if problem.constraints:
        lines.append("subject to")
        for c in problem.constraints:
            lines.append(f"  {_print_expr(c.lhs)} {c.relation.value} {_print_expr(c.rhs)};")
    return "\n".join(lines) + "\n"
