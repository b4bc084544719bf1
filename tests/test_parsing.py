"""Text frontend: grammar coverage, spans, and print/parse round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcpc import expressions as ex
from dcpc.parsing import ParseError, parse_problem, print_problem
from dcpc.reductions.cone import dense_rows

from helpers import problems_structurally_equal, random_expression, toy_problem

TOY_TEXT = """\
# the running two-player example
var alice;
var bob;
minimize max(alice + bob + 2, -alice - bob);
subject to
  alice <= 0;
  bob == -0.5;
"""


class TestParse:
    def test_toy_problem_shape(self):
        p = parse_problem(TOY_TEXT)
        assert [v.name for v in p.variables] == ["alice", "bob"]
        assert all(v.dim == 1 for v in p.variables)
        assert p.sense is ex.Sense.MINIMIZE
        assert p.objective.atom == "max"
        assert len(p.constraints) == 2
        assert p.constraints[0].relation is ex.Relation.LE
        assert p.constraints[1].relation is ex.Relation.EQ

    def test_toy_matches_programmatic_construction(self):
        assert problems_structurally_equal(toy_problem(), parse_problem(TOY_TEXT))

    def test_negative_literal_folds_into_constant(self):
        p = parse_problem(TOY_TEXT)
        rhs = p.constraints[1].rhs
        assert rhs.kind == "const"
        np.testing.assert_allclose(rhs.payload, [-0.5])

    def test_vector_declarations_and_indexing(self):
        p = parse_problem("""
            var y[3];
            minimize y[0] + y[2];
            subject to
              sum(y) >= 1;
              y <= [1, 2.5, -3e-1];
        """)
        assert p.variables[0].dim == 3
        y = ex.var_ref(p.variables[0])
        assert p.objective == ex.add(ex.index(y, 0), ex.index(y, 2))
        (rows, cols, vals), = p.objective.payload[0].values()
        assert (rows.tolist(), cols.tolist(), vals.tolist()) == ([0, 0], [0, 2], [1.0, 1.0])
        rhs = p.constraints[1].rhs
        np.testing.assert_allclose(rhs.payload, [1.0, 2.5, -0.3])

    def test_precedence_unary_mul_add(self):
        p = parse_problem("var x; minimize -x * 2 + x;")
        # (-x) * 2, then + x: one form with coefficient -1
        x = ex.var_ref(p.variables[0])
        assert p.objective == ex.add(ex.mul(ex.neg(x), ex.constant(2.0)), x)
        coeffs, const = p.objective.payload
        assert coeffs[0][2].tolist() == [-1.0] and const.tolist() == [0.0]

    def test_double_negative_literal(self):
        # Each minus folds into the constant below it, so --3 is the leaf 3.
        p = parse_problem("var x; minimize x + --3;")
        assert p.objective == ex.add(ex.var_ref(p.variables[0]), ex.constant(3.0))
        assert p.objective.payload[1].tolist() == [3.0]

    def test_comments_and_blank_lines(self):
        p = parse_problem("# top\nvar x; # inline\n\nminimize x;\n# tail\n")
        assert len(p.variables) == 1

    def test_parenthesized_expressions(self):
        p = parse_problem("var x; minimize 2 * (x + 1);")
        coeffs, const = ex.affine_coefficients(p.objective)
        np.testing.assert_allclose(dense_rows(coeffs[0], 1, 1), [[2.0]])
        np.testing.assert_allclose(const, [2.0])

    def test_all_atoms_parse(self):
        p = parse_problem("""
            var x; var y[2];
            minimize abs(x) + max(x, 0, 1) + sum(y) + square(x)
                     + sum_squares(y) + norm2(y);
        """)
        names = {n.atom for loc, e, _ in ex.walk_expressions(p)
                 for n in _nodes(e) if n.kind == "atom"}
        assert {"abs", "max", "square", "sum_squares", "norm2"} <= names
        # sum(y) is affine: it parses to the form the builder makes of it
        assert ex.sum_(ex.var_ref(p.variables[1])) in set(_nodes(p.objective))


def _nodes(e):
    yield e
    for c in e.children:
        yield from _nodes(c)


class TestParseErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("var x; minimize y;", "unknown identifier"),
        ("var x; minimize foo(x);", "unknown atom"),
        ("var x; minimize x; subject to x <= 1 <= 2;", "chained relations"),
        ("var a[2]; var b[3]; minimize sum(a); subject to a <= b;", "dimension"),
        ("var x; var y; minimize x * y;", "non-constant"),
        ("var max; minimize 1;", "reserved"),
        ("var x; var x; minimize x;", "already declared"),
        ("var x minimize x;", "expected"),
        ("var x; minimize x @ 1;", "unexpected character"),
        ("var y[2]; minimize y[5];", "out of range"),
        ("var y[2]; minimize y;", "scalar"),
        ("var x; minimize max(x);", "argument"),
        ("var x; minimize (x;", "expected"),
        ("var x; minimize x; subject to", "expected"),
        ("var x[0]; minimize 1;", "positive integer"),
    ])
    def test_rejections_carry_spans(self, text, fragment):
        with pytest.raises(ParseError, match=fragment) as info:
            parse_problem(text)
        span = info.value.span
        lines = text.split("\n")
        assert 1 <= span.line <= len(lines)
        assert 1 <= span.column <= len(lines[span.line - 1]) + 2
        assert span.length >= 1

    def test_nesting_limit_is_one_hundred(self):
        parse_problem("var x; minimize " + "(" * 100 + "x" + ")" * 100 + ";")
        text = "var x; minimize -(abs(" + "(" * 97 + "x" + ")" * 99 + ";"
        parse_problem(text)
        with pytest.raises(ParseError, match="nested too deeply") as info:
            parse_problem("var x; minimize " + "(" * 101 + "x" + ")" * 101 + ";")
        assert info.value.span.column == len("var x; minimize ") + 101

    def test_fuzzed_corruption_spans_stay_in_bounds(self):
        rng = np.random.default_rng(99)
        junk = list("@$%~`?}{|;)(*x=<0.")
        rejected = 0
        for _ in range(500):
            text = list(TOY_TEXT)
            op = rng.integers(3)
            pos = int(rng.integers(len(text)))
            if op == 0:
                text.insert(pos, junk[rng.integers(len(junk))])
            elif op == 1:
                del text[pos]
            else:
                text[pos] = junk[rng.integers(len(junk))]
            mutated = "".join(text)
            try:
                parse_problem(mutated)
            except ParseError as err:
                rejected += 1
                lines = mutated.split("\n")
                assert 1 <= err.span.line <= len(lines)
                line = lines[err.span.line - 1]
                assert 1 <= err.span.column <= len(line) + 2
        assert rejected > 100  # most corruptions of a tight grammar fail


# Malformed inputs with the exact message and (line, column, length) each
# gets.  They pin spans after comment lines, CRLF line ends and tabs, at the
# end of input, inside vector literals and at the nesting limit.
DEEP = 101
ERROR_CORPUS = [
    ('var x; minimize y;',
     "1:17: unknown identifier 'y'", (1, 17, 1)),
    ('var x;\nminimize x;\nsubject to\n  x <= 1 <= 2;\n',
     '4:10: chained relations are not allowed', (4, 10, 2)),
    ('# comment\n# another one\nvar x;\nminimize foo(x);\n',
     "4:10: unknown atom 'foo'", (4, 10, 3)),
    ('var x;\r\nminimize x;\r\nsubject to\r\n  x @ 1;\r\n',
     "4:5: unexpected character '@'", (4, 5, 1)),
    ('var x;\n\tminimize\tx +\t;\n',
     "2:15: expected an expression, found ';'", (2, 15, 1)),
    ('var x; minimize x',
     '1:18: expected ;, found end of input', (1, 18, 1)),
    ('var x;\nminimize x;\nsubject to\n',
     '4:1: expected an expression, found end of input', (4, 1, 1)),
    ('var x;\r\nminimize x\r\n',
     '3:1: expected ;, found end of input', (3, 1, 1)),
    ('var x[3];\nminimize sum(x - [1, 2, ]);\n',
     "2:25: expected a number, found ']'", (2, 25, 1)),
    ('var x[2];\nminimize sum(x - [1 2]);',
     "2:21: expected ], found '2'", (2, 21, 1)),
    ('var x[2];\nminimize sum(x - [1, -, 2]);',
     "2:23: expected a number, found ','", (2, 23, 1)),
    ('var x; minimize x + -1e400;',
     '1:22: number 1e400 is not finite', (1, 22, 5)),
    ('var x[2];\n# vector below\nminimize sum(x - [1, 2, 3]);',
     "3:14: dimension mismatch in 'broadcast': operand dims [2, 3]", (3, 14, 13)),
    ("var x;\nminimize " + "(" * DEEP + "x" + ")" * DEEP + ";",
     '2:110: expression nested too deeply', (2, 110, 1)),
    ("var x;\n\n  minimize " + "abs(" * DEEP + "x" + ")" * DEEP + ";",
     '3:412: expression nested too deeply', (3, 412, 3)),
    ("var x; minimize " + "-" * DEEP + "x;",
     '1:117: expression nested too deeply', (1, 117, 1)),
    ('var max; minimize 1;',
     "1:5: 'max' is a reserved word", (1, 5, 3)),
    ('var x;\nvar x;\nminimize x;',
     "2:5: variable 'x' is already declared", (2, 5, 1)),
    ('var x[0]; minimize 1;',
     '1:7: dimension must be a positive integer', (1, 7, 1)),
    ('var x[2.5]; minimize 1;',
     '1:7: dimension must be a positive integer', (1, 7, 3)),
    ('var y[2];\nminimize y[1.5];',
     '2:12: index must be an integer', (2, 12, 3)),
    ('var y[2];\n\nminimize y[5];',
     '3:10: index 5 out of range for dimension 2', (3, 10, 4)),
    ('var y[2];\r\nminimize 2 * y\r\n  + y;',
     '2:10: objective must be scalar, got dimension 2', (2, 10, 12)),
    ('var x; var y;\nminimize x * y;',
     '2:10: non-constant * non-constant product is not allowed', (2, 10, 5)),
    ('var x;\nminimize max(x);',
     "2:10: atom 'max' takes 2+ arguments, got 1", (2, 10, 6)),
    ('var x; minimize x; subject to x <= 1',
     '1:37: expected ;, found end of input', (1, 37, 1)),
    ('var x; minimize x; subject to x 1;',
     "1:33: expected a relation ('<=', '>=', or '==')", (1, 33, 1)),
    ('var x; maximize x; subject to x <= 1; )',
     "1:39: expected an expression, found ')'", (1, 39, 1)),
    ('var x; minimize x; extra',
     "1:20: unexpected trailing input 'extra'", (1, 20, 5)),
    ('minimize x;',
     "1:10: unknown identifier 'x'", (1, 10, 1)),
    ('var x;',
     "1:7: expected 'minimize' or 'maximize'", (1, 7, 1)),
    ('var 3; minimize 1;',
     "1:5: expected variable name, found '3'", (1, 5, 1)),
    ('var a[2]; var b[3];\nminimize sum(a);\nsubject to\n  a <= b;',
     '4:3: constraint sides have dimensions 2 and 3', (4, 3, 7)),
    ('var x;\nminimize subject;',
     "2:10: 'subject' is a reserved word", (2, 10, 7)),
    ('var x; minimize x;$',
     "1:19: unexpected character '$'", (1, 19, 1)),
    ('var x; # ok\n\t# still ok\nminimize x; subject to\n\tx <= [1, 2;',
     "4:12: expected ], found ';'", (4, 12, 1)),
    ('var x;\nminimize x;\nsubject to\n  x >= 0;\n  x ',
     "5:5: expected a relation ('<=', '>=', or '==')", (5, 5, 1)),
    ('var x; minimize x; subject to x <= 1 @ ; y',
     "1:38: unexpected character '@'", (1, 38, 1)),
    ('var x; minimize abs(x, x);',
     "1:17: atom 'abs' takes 1 argument, got 2", (1, 17, 9)),
    ('var x[2];\nminimize sum(x, x);',
     "2:10: atom 'sum' takes 1 argument, got 2", (2, 10, 9)),
    ('var x; minimize square(x,\n  x);',
     "1:17: atom 'square' takes 1 argument, got 2", (1, 17, 14)),
    ('var x; minimize 1 + sum_squares(x, x, x);',
     "1:21: atom 'sum_squares' takes 1 argument, got 3", (1, 21, 20)),
    ('var x;\nminimize x;\nsubject to\n  norm2(x, x) <= 1;',
     "4:3: atom 'norm2' takes 1 argument, got 2", (4, 3, 11)),
]


@pytest.mark.parametrize("text,message,where", ERROR_CORPUS)
def test_error_corpus_messages_and_spans(text, message, where):
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert str(info.value) == message
    span = info.value.span
    assert (span.line, span.column, span.length) == where


@pytest.mark.parametrize("index,as_int", [("1e0", "1"), ("1.0", "1"), ("\u0663", "3")])
def test_integral_number_indexes_a_scalar_term(index, as_int):
    # the sum's scalar terms take their index straight off the token
    text = "var x[4];\nminimize 2*x[{}] + x[{}] - x[0];"
    assert problems_structurally_equal(parse_problem(text.format(index, index)),
                                       parse_problem(text.format(as_int, as_int)))


@pytest.mark.parametrize("text,where", [
    ("var y[2];\nminimize y[.5] + 1;", (2, 12, 2)),
    ("var y[2];\nminimize 1 - y[.5];", (2, 16, 2)),
    ("var y[2];\nminimize 2*y[1.5] + y[0];", (2, 14, 3)),
    ("var y[2];\nminimize y[0] - y[1.5];", (2, 19, 3)),
])
def test_fractional_index_of_a_scalar_term_is_an_error(text, where):
    with pytest.raises(ParseError, match="index must be an integer") as info:
        parse_problem(text)
    got = info.value.span
    assert (got.line, got.column, got.length) == where


@pytest.mark.parametrize("text,span", [
    ("var x[1e400]; minimize 1;", (1, 7, 5)),
    ("var x[2];\nminimize x[1e400];", (2, 12, 5)),
    ("var x;\nminimize x + 1e400;", (2, 14, 5)),
    ("var x;\nminimize x - -1e400;", (2, 15, 5)),
    ("var x[2];\nminimize sum(x - [1, 1e400]);", (2, 22, 5)),
    ("var x[2];\nminimize sum(x - -[1, -1e400]);", (2, 24, 5)),
])
def test_overflowing_literals_are_parse_errors(text, span):
    with pytest.raises(ParseError, match="not finite") as info:
        parse_problem(text)
    got = info.value.span
    assert (got.line, got.column, got.length) == span


@pytest.mark.parametrize("text,where", [
    ("var x; minimize abs(1e200*1e200) + x;", "objective"),
    ("var x; minimize x + 1e308*x + 1e308*x;", "objective"),
    ("var x; minimize x; subject to x <= 1e308 + 1e308;", "constraint 0"),
    ("var x[2]; minimize sum(x); subject to x >= 0; [1e308, 1] + [1e308, 1] >= x;",
     "constraint 1"),
])
def test_overflowing_values_name_their_place(text, where):
    # Each literal is finite; the value built from them is not.
    with pytest.raises(ex.ProblemError) as info:
        parse_problem(text)
    assert str(info.value) == f"{where}: {ex.OVERFLOW}"


def test_variable_occurrences_share_one_reference_node():
    p = parse_problem("var x[2]; minimize sum(x) + x[0] + x[1]; subject to x <= 1;")
    refs = [r for e in (p.objective, p.constraints[0].lhs) for n in ex.nodes(e)
            for r in ((n,) if n.kind == "var" else n.refs)]
    assert len(refs) == 2 and all(r is refs[0] for r in refs)


class TestPrint:
    def test_toy_text_fragments(self):
        out = print_problem(parse_problem(TOY_TEXT))
        assert "minimize max(" in out
        assert "bob == -0.5" in out

    def test_print_parse_is_identity_on_toy(self):
        p = parse_problem(TOY_TEXT)
        assert problems_structurally_equal(p, parse_problem(print_problem(p)))

    def test_unparenthesized_right_nesting_is_protected(self):
        x = ex.VariableDecl(0, "x")
        xr = ex.var_ref(x)
        e = ex.sub(xr, ex.add(xr, ex.constant(1.0)))  # x - (x + 1)
        p = ex.make_problem(ex.Sense.MINIMIZE, e, [], [x])
        q = parse_problem(print_problem(p))
        assert problems_structurally_equal(p, q)

    def test_negated_constant_node_round_trips(self):
        # neg over a constant folds to a leaf, which prints as a literal.
        x = ex.VariableDecl(0, "x")
        negated = ex.neg(ex.constant(3.0))
        assert negated == ex.constant(-3.0)
        p = ex.make_problem(ex.Sense.MINIMIZE, ex.add(ex.var_ref(x), negated), [], [x])
        out = print_problem(p)
        assert "minimize x - 3;" in out
        assert problems_structurally_equal(p, parse_problem(out))


class TestPrintForms:
    """A form prints in variable-id and column order, and that text parses
    back to the same form, bit for bit: every stored entry, cancelled ones
    too, and the sign of every zero in the constant."""

    X = ex.VariableDecl(0, "x", 3)

    def round_trip(self, expr, text):
        x = ex.var_ref(self.X)
        p = ex.make_problem(ex.Sense.MINIMIZE, ex.constant(0.0),
                            [(expr(x), ex.Relation.LE, ex.constant(1.0))], [self.X])
        assert p.constraints[0].lhs.kind == "form"
        out = print_problem(p)
        assert f"  {text} <= 1;" in out
        q = parse_problem(out)
        assert problems_structurally_equal(p, q) and print_problem(q) == out
        return q.constraints[0].lhs.payload

    def test_cancelled_entry_is_stored_as_zero(self):
        # 0 * x[0] would fold away; the cancelled pair keeps the entry.
        (coeffs, k) = self.round_trip(lambda x: ex.sub(ex.index(x, 0), ex.index(x, 0)),
                                      "x[0] - x[0]")
        assert coeffs[0][1].tolist() == [0] and coeffs[0][2].tolist() == [0.0]
        assert k.tolist() == [0.0]

    def test_broadcast_scalar_column(self):
        (coeffs, k) = self.round_trip(
            lambda x: ex.add(ex.index(x, 0), ex.constant([1.0, 2.0, 3.0])),
            "x[0] + [1, 2, 3]")
        assert coeffs[0][1].tolist() == [0, 0, 0] and k.tolist() == [1.0, 2.0, 3.0]

    def test_vector_scaling_overlapping_a_broadcast_column(self):
        (coeffs, _) = self.round_trip(
            lambda x: ex.add(ex.mul(ex.constant([1.0, 0.0, 2.0]), x), ex.index(x, 1)),
            "[1, 0, 2] * x + x[1]")
        rows, cols, vals = coeffs[0]
        assert list(zip(rows.tolist(), cols.tolist(), vals.tolist())) == [
            (0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (2, 1, 1.0), (2, 2, 2.0)]

    def test_form_without_constant(self):
        (coeffs, k) = self.round_trip(
            lambda x: ex.sub(ex.mul(ex.constant(2.5), ex.index(x, 2)), ex.index(x, 0)),
            "-x[0] + 2.5 * x[2]")
        assert coeffs[0][2].tolist() == [-1.0, 2.5] and k.tolist() == [0.0]

    def test_negative_zero_constant(self):
        # A product's constant can be -0.0, which no sum of terms gives.
        (_, k) = self.round_trip(lambda x: ex.mul(ex.constant(-2.0), ex.index(x, 1)),
                                 "-2 * x[1]")
        assert np.signbit(k).tolist() == [True]
        (_, k) = self.round_trip(
            lambda x: ex.mul(ex.constant([-1.0, 2.0, 1.0]), ex.add(x, ex.index(x, 0))),
            "[-1, 1, 1] * ([0, 2, 1] * x + [2, 2, 1] * x[0])")
        assert np.signbit(k).tolist() == [True, False, False]


def _random_problem(seed: int) -> ex.ProblemForm:
    rng = np.random.default_rng(seed)
    variables = []
    for i in range(rng.integers(0, 4)):
        dim = int(rng.choice([1, 1, 2, 3]))
        variables.append(ex.VariableDecl(i, f"v{i}", dim))

    def scalarized(e):
        return e if e.dim == 1 else ex.sum_(e)

    obj = scalarized(random_expression(rng, variables, depth=int(rng.integers(1, 5)),
                                       index_vars_only=True))
    cons = []
    for _ in range(rng.integers(0, 4)):
        lhs = random_expression(rng, variables, depth=2, index_vars_only=True)
        rhs = random_expression(rng, variables, depth=2, index_vars_only=True)
        if lhs.dim != rhs.dim and 1 not in (lhs.dim, rhs.dim):
            rhs = scalarized(rhs)
            lhs = scalarized(lhs)
        rel = [ex.Relation.LE, ex.Relation.GE, ex.Relation.EQ][rng.integers(3)]
        cons.append((lhs, rel, rhs))
    sense = ex.Sense.MINIMIZE if rng.random() < 0.5 else ex.Sense.MAXIMIZE
    return ex.make_problem(sense, obj, cons, variables)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6))
    def test_parse_print_round_trip(self, seed):
        p = _random_problem(seed)
        text = print_problem(p)
        q = parse_problem(text)
        assert problems_structurally_equal(p, q)
        assert print_problem(q) == text
