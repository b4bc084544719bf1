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
an error at the literal.  Tokens carry only their character offset: spans
are computed from token offsets only when an error is raised.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

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

# Whitespace and comments match no named group; any other character is a
# BAD token, so the pattern matches every position of the text.
_TOKEN_RE = re.compile(r"""
    [ \t\r\n]+ | \#[^\n]*
  | (?P<NUMBER>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<REL><=|>=|==)
  | (?P<PUNCT>[;,()\[\]+\-*])
  | (?P<BAD>.)
""", re.VERBOSE)

# A token is a plain ``(kind, text, offset)`` tuple; kind is NUMBER, IDENT,
# REL, PUNCT or EOF (a BAD token stops _tokenize).
_Tok = tuple[str, str, int]
_KIND, _TEXT, _OFFSET = 0, 1, 2


def _span(text: str, start: _Tok, end: _Tok) -> SourceSpan:
    """The span from token ``start`` through ``end``, found only for an error."""
    offset = start[_OFFSET]
    line_start = text.rfind("\n", 0, offset) + 1
    length = max(1, end[_OFFSET] + len(end[_TEXT]) - offset)
    return SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1, length)


def _tokenize(text: str) -> list[_Tok]:
    tokens = [(m.lastgroup, m.group(), m.start())
              for m in _TOKEN_RE.finditer(text) if m.lastgroup]
    for tok in tokens:
        if tok[_KIND] == "BAD":
            raise ParseError(f"unexpected character {tok[_TEXT]!r}", _span(text, tok, tok))
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables: list[ex.VariableDecl] = []
        # One reference node per declaration, shared by every occurrence:
        # nodes are immutable and every walk is a tree fold.
        self.refs: dict[str, ex.ExpressionNode] = {}
        self.depth = 0

    # --- token plumbing -------------------------------------------------

    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        # Keywords, punctuation and relations are told apart by text alone.
        return self.tokens[self.pos][_TEXT] == text

    def advance(self) -> _Tok:
        tok = self.tokens[self.pos]
        if tok[_KIND] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> _Tok:
        tok = self.peek()
        if tok[_KIND] != kind or (text is not None and tok[_TEXT] != text):
            wanted = what or (text if text is not None else kind.lower())
            raise ParseError(f"expected {wanted}, found {self.describe(tok)}", self.span(tok))
        return self.advance()

    def describe(self, tok: _Tok) -> str:
        return repr(tok[_TEXT]) if tok[_KIND] != "EOF" else "end of input"

    def span(self, start: _Tok, end: _Tok | None = None) -> SourceSpan:
        return _span(self.text, start, end or start)

    def prev(self) -> _Tok:
        return self.tokens[max(0, self.pos - 1)]

    def nest(self, tok: _Tok, parse):
        """Run ``parse()`` one nesting level below ``tok``."""
        if self.depth >= _MAX_NESTING:
            raise ParseError("expression nested too deeply", self.span(tok))
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def number(self, tok: _Tok) -> float:
        """The value of a NUMBER token; a literal that overflows is an error."""
        value = float(tok[_TEXT])
        if math.isinf(value):
            raise ParseError(f"number {tok[_TEXT]} is not finite", self.span(tok))
        return value

    # --- grammar --------------------------------------------------------

    def parse(self) -> ex.ProblemForm:
        while self.at("var"):
            self.parse_vardecl()
        sense_tok = self.peek()
        if sense_tok[_TEXT] not in ("minimize", "maximize"):
            raise ParseError("expected 'minimize' or 'maximize'", self.span(sense_tok))
        self.advance()
        sense = ex.Sense.MINIMIZE if sense_tok[_TEXT] == "minimize" else ex.Sense.MAXIMIZE
        start = self.peek()
        objective = self.parse_expr()
        if objective.dim != 1:
            raise ParseError(f"objective must be scalar, got dimension {objective.dim}",
                             self.span(start, self.prev()))
        self.expect("PUNCT", ";")
        constraints = []
        if self.at("subject"):
            self.advance()
            self.expect("IDENT", "to", what="'to'")
            constraints.append(self.parse_constraint())
            while self.peek()[_KIND] != "EOF":
                constraints.append(self.parse_constraint())
        tok = self.peek()
        if tok[_KIND] != "EOF":
            raise ParseError(f"unexpected trailing input {tok[_TEXT]!r}", self.span(tok))
        # Dimensions and names are checked above and every identifier resolved
        # through a declaration, so the trees need no second walk.
        return ex.ProblemForm(sense, objective, constraints, self.variables)

    def parse_vardecl(self):
        self.expect("IDENT", "var")
        name_tok = self.expect("IDENT", what="variable name")
        name = name_tok[_TEXT]
        if name in RESERVED_WORDS:
            raise ParseError(f"'{name}' is a reserved word", self.span(name_tok))
        if name in self.refs:
            raise ParseError(f"variable '{name}' is already declared", self.span(name_tok))
        dim = 1
        if self.at("["):
            self.advance()
            dim_tok = self.expect("NUMBER", what="dimension")
            dim_val = self.number(dim_tok)
            if not dim_val.is_integer() or dim_val < 1:
                raise ParseError("dimension must be a positive integer", self.span(dim_tok))
            dim = int(dim_val)
            self.expect("PUNCT", "]")
        self.expect("PUNCT", ";")
        decl = ex.VariableDecl(len(self.variables), name, dim)
        self.variables.append(decl)
        self.refs[name] = ex.var_ref(decl)

    def parse_constraint(self):
        lhs_start = self.peek()
        lhs = self.parse_expr()
        rel_tok = self.peek()
        if rel_tok[_KIND] != "REL":
            raise ParseError("expected a relation ('<=', '>=', or '==')", self.span(rel_tok))
        self.advance()
        rhs = self.parse_expr()
        after = self.peek()
        if after[_KIND] == "REL":
            raise ParseError("chained relations are not allowed", self.span(after))
        self.expect("PUNCT", ";")
        relation = {"<=": ex.Relation.LE, ">=": ex.Relation.GE,
                    "==": ex.Relation.EQ}[rel_tok[_TEXT]]
        if lhs.dim != rhs.dim and 1 not in (lhs.dim, rhs.dim):
            raise ParseError(
                f"constraint sides have dimensions {lhs.dim} and {rhs.dim}",
                self.span(lhs_start, self.prev()))
        return (lhs, relation, rhs)

    def parse_expr(self) -> ex.ExpressionNode:
        return self.parse_additive()

    def _build(self, fn, args, start: _Tok):
        try:
            return fn(*args)
        except ex.ExpressionError as err:
            raise ParseError(str(err), self.span(start, self.prev())) from err

    def parse_additive(self) -> ex.ExpressionNode:
        start = self.peek()
        node = self.parse_mult()
        while self.peek()[_TEXT] in ("+", "-"):
            op = self.advance()[_TEXT]
            rhs = self.parse_mult()
            node = self._build(ex.add if op == "+" else ex.sub, (node, rhs), start)
        return node

    def parse_mult(self) -> ex.ExpressionNode:
        start = self.peek()
        node = self.parse_factor()
        while self.at("*"):
            self.advance()
            rhs = self.parse_factor()
            node = self._build(ex.mul, (node, rhs), start)
        return node

    def parse_factor(self) -> ex.ExpressionNode:
        tok = self.peek()
        if tok[_TEXT] == "-":
            self.advance()
            operand = self.nest(tok, self.parse_factor)
            return self._build(ex.neg, (operand,), tok)
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
        tok = self.peek()
        kind, name = tok[_KIND], tok[_TEXT]
        if kind == "NUMBER":
            self.advance()
            return ex.constant(self.number(tok))
        if name == "[":
            return ex.constant(self.parse_vector_literal())
        if name == "(":
            self.advance()
            node = self.nest(tok, self.parse_expr)
            self.expect("PUNCT", ")")
            return node
        if kind == "IDENT":
            self.advance()
            if self.at("("):
                if name not in _ATOM_NAMES:
                    raise ParseError(f"unknown atom '{name}'", self.span(tok))
                self.advance()
                args = self.nest(tok, self.parse_arguments)
                return self._build(ex.apply_atom, (name, tuple(args)), tok)
            if name in RESERVED_WORDS:
                raise ParseError(f"'{name}' is a reserved word", self.span(tok))
            if name not in self.refs:
                raise ParseError(f"unknown identifier '{name}'", self.span(tok))
            node = self.refs[name]
            if self.at("["):
                self.advance()
                idx_tok = self.expect("NUMBER", what="index")
                idx_val = self.number(idx_tok)
                if not idx_val.is_integer():
                    raise ParseError("index must be an integer", self.span(idx_tok))
                self.expect("PUNCT", "]")
                node = self._build(ex.index, (node, int(idx_val)), tok)
            return node
        raise ParseError(f"expected an expression, found {self.describe(tok)}", self.span(tok))

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
            values = [format_number(float(v)) for v in node.payload]
            head = values[0] if node.dim == 1 else "[" + ", ".join(values) + "]"
            level = _LEVEL_UNARY if head.startswith("-") else _LEVEL_FACTOR
        elif node.kind == "var":
            head, level = node.var_name, _LEVEL_FACTOR
        elif node.atom in _OPERATORS:
            level, head, _, _ = _OPERATORS[node.atom]
        elif node.atom == "index":
            base = node.children[0]
            if base.kind != "var":
                raise ValueError("index of a non-variable expression has no textual form")
            head, level = f"{base.var_name}[{node.param}]", _LEVEL_FACTOR
        else:
            head, tail, level = node.atom + "(", ")", _LEVEL_FACTOR
        paren = level < need
        out.append(sep + "(" * paren + head)
        closers.append(tail + ")" * paren)
        return node.atom != "index"

    ex.fold(expr, lambda node, _, __: out.append(closers.pop()), enter, down, (0, ""))
    return "".join(out)


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
