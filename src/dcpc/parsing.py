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
:func:`dcpc.analyzer.apply_chain` names an overflow in the chain.  Tokens
are lexed one at a time, as the parser reaches them, and spans come from
their offsets; when parsing fails, the text's first stray character, which
one match over its tokens finds, is the error, wherever the parser stopped.

Affine subtrees become form leaves (see :mod:`dcpc.expressions`).  At each
term of a ``+``/``-`` run, one pattern reads the longest stretch of plain
scalar terms (``c*x[i]``, ``x[i]``, ``-x[i]``, ``c*x`` and ``-x`` on a
scalar ``x``, numbers); the first term that is not plainly valid is parsed
as any other.  A run builds the form of its all-affine prefix once, with the
bits that adding the terms one at a time gives; a run whose head is not
affine keeps one ``add``/``sub`` node per term.  The printer writes a form
as a sum that parses back to the same form, bit for bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from operator import add, lt

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

    @classmethod
    def of(cls, text: str, start: int, end: int) -> SourceSpan:
        """The span of the text from offset ``start`` to ``end``."""
        line_start = text.rfind("\n", 0, start) + 1
        return cls(text.count("\n", 0, start) + 1, start - line_start + 1,
                   max(1, end - start))


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

# The blanks, a number and an identifier, shared by both patterns below, so
# a term matches whole tokens.  Quantifiers are possessive: no failed match
# backtracks, so long blanks cost linear time.
_BLANK = r"[ \t\r\n]*+"
_NUMBER = r"(?:\d++(?:\.\d*+)?+|\.\d++)(?:[eE][+-]?\d++)?+"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*+"
_BLANKS = rf"{_BLANK}(?:#[^\n]*+{_BLANK})*+"  # whitespace and comments
_VALID = rf"[;,()\[\]+\-*]|{_IDENT}|{_NUMBER}|<=|>=|=="
# A match is the blanks before a token, then the token as the one group: \Z
# is the empty EOF token and any other character a BAD one, so no match
# fails after its blanks.
_TOKEN_RE = re.compile(rf"{_BLANKS}({_VALID}|.|\Z)")
# Matched at the text's start: the tokens up to the first BAD one, the group.
_STRAY_RE = re.compile(rf"(?:{_BLANKS}(?:{_VALID}))*+{_BLANKS}(.)")
_RELATIONS = {"<=": ex.Relation.LE, ">=": ex.Relation.GE, "==": ex.Relation.EQ}
_FIXED_KINDS = {"": "EOF", **dict.fromkeys(_RELATIONS, "REL"),
                **dict.fromkeys(";,()[]+-*", "PUNCT")}
# A plain term of a run: a sign (none at a run's head), a unary minus or
# none, then c*x[i], x[i], c*x, x or a number c, and no '*', '(', '[' or
# comment after it.  The groups are its text, sign, minus, coefficient, name,
# index and number; a last match, setting none, takes the rest.
_TERM_RE = re.compile(
    rf"({_BLANK}([+-]?){_BLANK}(-?){_BLANK}(?:(?:({_NUMBER}){_BLANK}\*{_BLANK})?"
    rf"({_IDENT})(?:{_BLANK}\[{_BLANK}(\d++){_BLANK}\])?|({_NUMBER})))"
    rf"(?!{_BLANK}[*(\[#])|(?s:.+)")


def _kind(tok: str) -> str:
    """NUMBER, IDENT, REL, PUNCT, EOF or BAD, by the pattern's own classes: a
    ``\\d`` is any Unicode decimal digit, an IDENT starts with ASCII."""
    c = tok[:1]
    if c.isdecimal() or (c == "." and len(tok) > 1):
        return "NUMBER"
    if c == "_" or (c.isascii() and c.isalpha()):
        return "IDENT"
    return _FIXED_KINDS.get(tok, "BAD")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.last = 0  # where the last token consumed ends
        self.lex(0)
        self.rest = None  # (end, terms after) of a term a stretch found not plain
        self.variables: list[ex.VariableDecl] = []
        # One reference node per declaration, shared by every occurrence.
        self.refs: dict[str, ex.ExpressionNode] = {}
        self.depth = 0

    # --- token plumbing -------------------------------------------------

    def lex(self, offset: int) -> None:
        """Make the token after ``offset`` the current one, ``tok``."""
        m = _TOKEN_RE.match(self.text, offset)
        self.tok, (self.start, self.end) = m.group(1), m.span(1)

    def advance(self) -> str:
        tok = self.tok
        if tok:
            self.last = self.end
            self.lex(self.end)
        return tok

    def expect(self, kind: str, text: str | None = None, what: str | None = None):
        """Consume a token of ``kind`` (and ``text``, if given); its offsets."""
        tok, at = self.tok, (self.start, self.end)
        if _kind(tok) != kind or (text is not None and tok != text):
            wanted = what or (text if text is not None else kind.lower())
            found = repr(tok) if tok else "end of input"
            raise ParseError(f"expected {wanted}, found {found}", self.here())
        self.advance()
        return at

    def span(self, start: int, end: int) -> SourceSpan:
        return SourceSpan.of(self.text, start, end)

    def here(self) -> SourceSpan:
        return self.span(self.start, self.end)

    def nest(self, at, parse):
        """Run ``parse()`` one nesting level below the token at ``at``."""
        if self.depth >= _MAX_NESTING:
            raise ParseError("expression nested too deeply", self.span(*at))
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def number(self, what: str = "a number"):
        """Consume a NUMBER: its value and offsets; a literal that overflows is an error."""
        at = self.expect("NUMBER", what=what)
        text = self.text[at[0]:at[1]]
        if math.isinf(value := float(text)):
            raise ParseError(f"number {text} is not finite", self.span(*at))
        return value, at

    # --- grammar --------------------------------------------------------

    def parse(self) -> ex.ProblemForm:
        while self.tok == "var":
            self.parse_vardecl()
        if self.tok not in ("minimize", "maximize"):
            raise ParseError("expected 'minimize' or 'maximize'", self.here())
        sense = ex.Sense.MINIMIZE if self.advance() == "minimize" else ex.Sense.MAXIMIZE
        start = self.start
        objective = self.parse_located("objective")
        if objective.dim != 1:
            raise ParseError(f"objective must be scalar, got dimension {objective.dim}",
                             self.span(start, self.last))
        self.expect("PUNCT", ";")
        constraints = []
        if self.tok == "subject":
            self.advance()
            self.expect("IDENT", "to", what="'to'")
            while self.tok or not constraints:
                constraints.append(self.parse_constraint(len(constraints)))
        if self.tok:
            raise ParseError(f"unexpected trailing input {self.tok!r}", self.here())
        # Dimensions and names are checked above and every identifier resolved
        # through a declaration, so the trees need no second walk.
        return ex.ProblemForm(sense, objective, constraints, self.variables)

    def parse_vardecl(self):
        self.expect("IDENT", "var")
        at = self.expect("IDENT", what="variable name")
        name = self.text[at[0]:at[1]]
        if name in RESERVED_WORDS:
            raise ParseError(f"'{name}' is a reserved word", self.span(*at))
        if name in self.refs:
            raise ParseError(f"variable '{name}' is already declared", self.span(*at))
        dim = 1
        if self.tok == "[":
            self.advance()
            dim_val, dim_at = self.number("dimension")
            if not dim_val.is_integer() or dim_val < 1:
                raise ParseError("dimension must be a positive integer", self.span(*dim_at))
            dim = int(dim_val)
            self.expect("PUNCT", "]")
        self.expect("PUNCT", ";")
        decl = ex.VariableDecl(len(self.variables), name, dim)
        self.variables.append(decl)
        self.refs[name] = ex.var_ref(decl)

    def parse_constraint(self, i: int):
        lhs_start = self.start
        lhs = self.parse_located(f"constraint {i}")
        relation = _RELATIONS.get(self.tok)
        if relation is None:
            raise ParseError("expected a relation ('<=', '>=', or '==')", self.here())
        self.advance()
        rhs = self.parse_located(f"constraint {i}")
        if self.tok in _RELATIONS:
            raise ParseError("chained relations are not allowed", self.here())
        self.expect("PUNCT", ";")
        if lhs.dim != rhs.dim and 1 not in (lhs.dim, rhs.dim):
            raise ParseError(f"constraint sides have dimensions {lhs.dim} and {rhs.dim}",
                             self.span(lhs_start, self.last))
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
            raise ParseError(str(err), self.span(start, self.last)) from err

    def parse_expr(self) -> ex.ExpressionNode:
        start = self.start
        run = _Run()
        node = None  # the run so far, once a term could not join the form
        plus, read = True, self.read_terms(run, True)
        while True:
            if not read:  # the term here is not plain
                term = self.parse_mult()
                if node is None and term.kind != "atom":
                    self._build(run.join, (plus, term), start)
                    self.read_terms(run, False)
                else:
                    if node is None and run.count:
                        node = run.node()
                    node = term if node is None else \
                        self._build(ex.add if plus else ex.sub, (node, term), start)
            if self.tok not in ("+", "-"):
                return run.node() if node is None else node
            plus, read = self.advance() == "+", False

    def read_terms(self, run: _Run, head: bool) -> bool:
        """Join to ``run`` the longest stretch of plain terms here, from a run's
        ``head`` or after a term; False when the first here is not plain."""
        p = self.last
        if not head and self.rest is not None and self.rest[0] == p:
            terms = self.rest[1]
        else:
            found = _TERM_RE.findall(self.text, p)
            if found and not found[-1][0]:
                found.pop()
            if head and found:  # with no sign of its own, a minus is a unary one
                text, sign, minus, *columns = found[0]
                if sign == "+" or (sign and minus):
                    return False
                found[0] = (text, "+", sign or minus, *columns)
            terms = iter(found)
        refs, deep = self.refs, self.depth >= _MAX_NESTING
        names, cols, vals, consts = [], [], [], []  # entries, and numbers
        end, n = p, 0
        for text, sign, minus, coef, name, idx, num in terms:
            v = float(coef or num or "1")
            if not sign or (minus and deep) or v == math.inf:
                break
            if (sign == "-") != (minus == "-"):
                v = -v
            if num:
                consts.append(v)
            else:
                ref = refs.get(name)
                if ref is None:
                    break
                # An index of ten digits or more, a vector with no index and
                # an unsigned bare name are parsed as any other term.
                col = (int(idx) if len(idx) < 10 else ref.dim) if idx else \
                    0 if ref.dim == 1 and (minus or coef) else ref.dim
                if col >= ref.dim:
                    break
                if v:  # a product with a zero constant is the constant zero
                    names.append(name)
                    cols.append(col)
                    vals.append(v)
            end += len(text)
            n += 1
        else:
            terms = None
        self.rest = None if terms is None else (end + len(text), terms)
        if not n:
            return False
        # A lone c*x[i] at the head has the constant c*0.0 of its own form.
        run.take(refs, names, cols, vals, consts, n,
                 vals[0] * 0.0 if head and vals and found[0][3] else 0.0)
        self.last = end
        self.lex(end)
        return True

    def parse_mult(self) -> ex.ExpressionNode:
        start = self.start
        node = self.parse_factor()
        while self.tok == "*":
            self.advance()
            rhs = self.parse_factor()
            node = self._build(ex.mul, (node, rhs), start)
        return node

    def parse_factor(self) -> ex.ExpressionNode:
        if self.tok == "-":
            at = (self.start, self.end)
            self.advance()
            operand = self.nest(at, self.parse_factor)
            return self._build(ex.neg, (operand,), at[0])
        return self.parse_primary()

    def parse_vector_literal(self) -> np.ndarray:
        self.expect("PUNCT", "[")
        values = []
        while True:
            sign = -1.0 if self.tok == "-" and self.advance() else 1.0  # minus consumed
            values.append(sign * self.number()[0])
            if self.tok != ",":
                break
            self.advance()
        self.expect("PUNCT", "]")
        return np.array(values)

    def parse_primary(self) -> ex.ExpressionNode:
        name, at = self.tok, (self.start, self.end)
        kind = _kind(name)
        if kind == "NUMBER":
            return ex.constant(self.number()[0])
        if name == "[":
            return ex.constant(self.parse_vector_literal())
        if name == "(":
            self.advance()
            node = self.nest(at, self.parse_expr)
            self.expect("PUNCT", ")")
            return node
        if kind == "IDENT":
            self.advance()
            if self.tok == "(":
                if name not in _ATOM_NAMES:
                    raise ParseError(f"unknown atom '{name}'", self.span(*at))
                self.advance()
                args = self.nest(at, self.parse_arguments)
                return self._build(ex.apply_atom, (name, tuple(args)), at[0])
            if name in RESERVED_WORDS:
                raise ParseError(f"'{name}' is a reserved word", self.span(*at))
            if name not in self.refs:
                raise ParseError(f"unknown identifier '{name}'", self.span(*at))
            node = self.refs[name]
            if self.tok == "[":
                self.advance()
                idx_val, idx_at = self.number("index")
                if not idx_val.is_integer():
                    raise ParseError("index must be an integer", self.span(*idx_at))
                self.expect("PUNCT", "]")
                node = self._build(ex.index, (node, int(idx_val)), at[0])
            return node
        found = repr(name) if name else "end of input"
        raise ParseError(f"expected an expression, found {found}", self.here())

    def parse_arguments(self) -> list[ex.ExpressionNode]:
        args = [self.parse_expr()]
        while self.tok == ",":
            self.advance()
            args.append(self.parse_expr())
        self.expect("PUNCT", ")")
        return args


class _Run:
    """The all-affine prefix of a ``+``/``-`` run, built into one node.

    :meth:`node` stacks the entries of its terms once, each variable's rows
    apart, and coalesces them once, so the entries at one place add in term
    order; the constant adds term by term from 0.0 as the terms join.  Those
    are the bits of adding the terms one at a time with ``add``/``sub``."""

    def __init__(self):
        self.count, self.first = 0, None  # the terms joined, and a first node
        self.k = 0.0  # the constant of a plain first term's own form
        self.dim, self.const = 1, 0.0  # the constant is a float until a vector joins
        self.refs: dict[int, ex.ExpressionNode] = {}  # by id, in order of appearance
        # (names, cols, vals) of a stretch's entries, (plus, dim, blocks) of a node
        self.parts: list = []

    def take(self, refs, names, cols, vals, consts, count: int, k: float) -> None:
        """Join ``count`` plain terms; ``k`` is the constant of the first one's form."""
        self.k = k  # read only when the run has one term
        self.count += count
        if names:
            for ref in map(refs.__getitem__, dict.fromkeys(names)):
                self.refs.setdefault(ref.var_id, ref)
            self.parts.append((names, cols, vals))
        if consts:
            self.const = reduce(add, consts, self.const)

    def join(self, plus: bool, term: ex.ExpressionNode) -> None:
        self.count += 1
        if self.count == 1:
            self.first = term
        if term.dim != 1:
            self.dim = ex.broadcast_dim((self.dim, term.dim))
        for ref in ex.leaf_refs(term):
            self.refs.setdefault(ref.var_id, ref)
        blocks, k = ex.leaf_piece(term)
        self.parts.append((plus, term.dim, blocks))
        k = float(k[0]) if k.shape[0] == 1 else k
        self.const = self.const + (k if plus else -k)

    def node(self) -> ex.ExpressionNode:
        """The run's node; raises ``ProblemError(OVERFLOW)`` for a value not finite."""
        if self.count == 1 and self.first is not None:
            return self.first
        if self.count == 1 and not self.refs:  # a number, or a product with zero
            return ex.constant(self.const)
        d = self.dim
        const = self.k if self.count == 1 else self.const
        const = np.full(d, const) if type(const) is float else const
        if not self.refs:
            return ex.affine_form({}, const, ())
        refs = list(self.refs.values())
        at = {r.var_name: i * d for i, r in enumerate(refs)}
        chunks = []  # (rows, cols, vals, dim) in term order
        for part in self.parts:
            if type(part[0]) is list:
                names, cols, vals = part
                chunks.append((np.array(list(map(at.__getitem__, names)), dtype=np.intp),
                               np.array(cols, dtype=np.intp), np.array(vals), 1))
            else:
                plus, dim, blocks = part
                chunks += [(at[self.refs[v].var_name] + r, c, x if plus else -x, dim)
                           for v, (r, c, x) in blocks.items()]
        chunks = [(r, c, x) if dim == d else  # one row, broadcast over every row
                  ((r + np.arange(d)[:, None]).ravel(), np.tile(c, d), np.tile(x, d))
                  for r, c, x, dim in chunks]
        # One stretch over one variable, in column order, is that variable's
        # block as it stands: skipping the stacking, summing and split halves
        # this method's cost on a short run.
        cols = self.parts[0][1]
        if len(self.parts) == len(refs) == 1 and type(cols) is list \
                and all(map(lt, cols, cols[1:])):
            return ex.affine_form({refs[0].var_id: chunks[0]}, const, refs)
        rows, cols, vals = ex.sum_entries(*(np.concatenate(a) for a in zip(*chunks)))
        bounds = np.searchsorted(rows, np.arange(len(refs) + 1) * d)
        return ex.affine_form(
            {r.var_id: (rows[a:b] - i * d, cols[a:b], vals[a:b])
             for i, (r, a, b) in enumerate(zip(refs, bounds, bounds[1:]))},
            const, refs)


def parse_problem(text: str) -> ex.ProblemForm:
    """Parse source text into a validated :class:`ProblemForm`."""
    try:  # a value that overflows is an error where it is built, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return _Parser(text).parse()
    except (ParseError, ex.ProblemError):
        if m := _STRAY_RE.match(text):  # a stray character anywhere is the error
            raise ParseError(f"unexpected character {m.group(1)!r}", SourceSpan.of(text, *m.span(1)))
        raise


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
