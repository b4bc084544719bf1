"""The reader of a run's plain scalar terms, against the builder.

Each drawn run of terms (``c*x[i]``, ``x[i]``, ``c*y``, ``-y``, numbers,
vector terms) is written with drawn blanks, comments and coefficient forms,
and parsed.  The same run is built from the drawing's own numbers, one term
at a time with ``ex.add``/``ex.sub``: the blocks must be equal and the
constants equal bit for bit.  A corrupted term must give the error the
parser gives any other term, with its message and span, and long stretches
must parse in linear time.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcpc import expressions as ex, parsing
from dcpc.parsing import ParseError, parse_problem

DECLS = [ex.VariableDecl(0, "x", 4), ex.VariableDecl(1, "y"), ex.VariableDecl(2, "v", 3)]
X, Y, V = (ex.var_ref(d) for d in DECLS)
HEADER = "var x[4]; var y; var v[3];\nminimize y;\nsubject to\n  "
# Each coefficient form with its value, written independently of the text.
COEFFICIENTS = [(".5", 0.5), ("1.", 1.0), ("2e3", 2000.0), ("7e+1", 70.0), ("0", 0.0),
                ("٣", 3.0), ("12", 12.0), ("1.25E-3", 0.00125), ("4.9e-324", 5e-324)]
BLANKS = ["", " ", "  ", "\t", "\r\n", "\n", " # note\n", "#\r\n"]
CORRUPTIONS = ["undeclared", "fraction", "range", "overflow", "star"]


def location(text, offset):
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


@st.composite
def coefficients(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(COEFFICIENTS))
    value = draw(st.floats(1e-6, 1e6, allow_nan=False))
    return repr(value), value


@st.composite
def runs(draw, corrupt=False):
    """A run's text, its reference node, and the error a corrupted term gives."""
    pieces = [HEADER]
    blank = st.sampled_from(BLANKS)

    def emit(*tokens):  # each token after a drawn blank; the tokens' offsets
        offsets = []
        for tok in tokens:
            pieces.append(draw(blank))
            offsets.append(sum(map(len, pieces)))
            pieces.append(tok)
        return offsets

    count = draw(st.integers(1, 12))
    bad = draw(st.integers(0, count - 1)) if corrupt else None
    kind = draw(st.sampled_from(CORRUPTIONS)) if corrupt else None
    node, error = None, None
    for j in range(count):
        plus = draw(st.booleans())
        if j:
            emit("+" if plus else "-")
        minus = draw(st.booleans())
        if minus:
            emit("-")
        shape = draw(st.sampled_from(["number", "c*x[i]", "x[i]", "c*y", "y", "c*v", "v"]))
        text, value = draw(coefficients())
        if j == bad and kind == "overflow":
            shape, text = "c*x[i]", "1e400"
        sign = -1.0 if minus else 1.0
        if shape == "number":
            emit(text)
            term = ex.constant(sign * value)
        elif shape == "c*x[i]" or shape == "x[i]":
            i = draw(st.integers(0, 3))
            index = {"fraction": "1.5", "range": "7"}.get(kind if j == bad else None, str(i))
            head = [text, "*"] if shape == "c*x[i]" else []
            name = "w" if j == bad and kind == "undeclared" else "x"
            at = emit(*head, name, "[", index, "]")
            if shape == "x[i]":
                term = ex.neg(ex.index(X, i)) if minus else ex.index(X, i)
            else:
                term = ex.mul(ex.constant(sign * value), ex.index(X, i))
            if j == bad:
                error = {"undeclared": ("unknown identifier 'w'", at[-4], 1),
                         "fraction": ("index must be an integer", at[-2], 3),
                         "range": ("index 7 out of range for dimension 4", at[-4],
                                   at[-1] + 1 - at[-4]),
                         "overflow": ("number 1e400 is not finite", at[0], 5)}.get(kind)
        else:
            ref = Y if shape in ("c*y", "y") else V
            if shape.startswith("c*"):
                emit(text, "*", ref.var_name)
                term = ex.mul(ex.constant(sign * value), ref)
            else:
                emit(ref.var_name)
                term = ex.neg(ref) if minus else ref
        node = term if node is None else (ex.add if plus else ex.sub)(node, term)
    if kind == "star" or error is None and corrupt:
        kind = "star"
        emit("*")
        error = ("expected an expression, found '<='", None, 2)
    at = emit("<=", "0", ";")
    pieces.append("\n")
    text = "".join(pieces)
    if error is not None:
        message, offset, length = error
        offset = at[0] if offset is None else offset
        line, column = location(text, offset)
        error = (f"{line}:{column}: {message}", parsing.SourceSpan(line, column, length))
    return text, node, error


def assert_same_node(got, want):
    assert (got.kind, got.dim) == (want.kind, want.dim)
    if want.kind == "const":
        assert got.payload.tobytes() == want.payload.tobytes()
    elif want.kind == "var":
        assert got.var_id == want.var_id
    else:
        (got_blocks, got_k), (want_blocks, want_k) = got.payload, want.payload
        assert [r.var_id for r in got.refs] == [r.var_id for r in want.refs]
        for v, block in want_blocks.items():
            assert all(np.array_equal(a, b) for a, b in zip(got_blocks[v], block))
        assert got_k.tobytes() == want_k.tobytes()  # the sign of every zero too


@settings(max_examples=250, deadline=None)
@given(runs())
def test_runs_match_the_builder(drawn):
    text, node, _ = drawn
    assert_same_node(parse_problem(text).constraints[0].lhs, node)


@settings(max_examples=200, deadline=None)
@given(runs(corrupt=True))
def test_a_corrupted_term_gives_the_parsers_error(drawn):
    text, _, (message, span) = drawn
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert str(info.value) == message
    assert info.value.span == span


@pytest.mark.parametrize("text,bits", [
    ("-2*x[1]", [True]), ("2*x[1]", [False]), ("-x[1]", [False]), ("-2*y", [True]),
    ("0 - 2*x[1]", [False]), ("-2*x[1] - 0", [False]),
])
def test_a_lone_product_keeps_the_sign_of_its_zero(text, bits):
    lhs = parse_problem(HEADER + text + " <= 0;").constraints[0].lhs
    assert np.signbit(lhs.payload[1]).tolist() == bits


def test_a_leading_minus_at_the_nesting_limit_is_too_deep():
    text = "var x[2];\nminimize " + "(" * 100 + "-x[0] + 1" + ")" * 100 + ";"
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert str(info.value) == "2:110: expression nested too deeply"
    assert info.value.span == parsing.SourceSpan(2, 110, 1)
    deep = parse_problem(text.replace("-x[0] + 1", "1 - x[0]")).objective
    assert deep.payload[0][0][2].tolist() == [-1.0] and deep.payload[1].tolist() == [1.0]


def test_a_valid_text_is_never_tokenized_whole(monkeypatch):
    class Refuse:
        def match(self, text):
            raise AssertionError("tokenized")
    monkeypatch.setattr(parsing, "_STRAY_RE", Refuse())
    parse_problem(HEADER + "3*x[0] - x[1] + 2 - -y + abs(x[2]) <= 0;")
    with pytest.raises(AssertionError, match="tokenized"):  # only a failed parse scans
        parse_problem(HEADER + "3*x[0] - <= 0;")


@pytest.mark.parametrize("gap", [" " * 2**20, "# comment\n" * 2**17],
                         ids=["spaces", "comment-lines"])
def test_long_blanks_between_terms_read_in_linear_time(gap):
    text = f"var x[2];\nminimize x[0] +{gap}x[1] - 2 *{gap}x[0] + 1;"
    start = time.perf_counter()
    coeffs, k = parse_problem(text).objective.payload
    assert time.perf_counter() - start < 1.0
    assert coeffs[0][2].tolist() == [-1.0, 1.0] and k.tolist() == [1.0]


def test_long_blanks_before_a_star_read_in_linear_time():
    text = "var x[2];\nminimize x[0] + x[1]" + " " * 2**20 + "* 2 - x[0];"
    start = time.perf_counter()
    coeffs, _ = parse_problem(text).objective.payload
    assert time.perf_counter() - start < 1.0
    assert coeffs[0][2].tolist() == [0.0, 2.0]


def test_a_row_of_a_hundred_thousand_terms_reads_in_linear_time():
    n = 100_000
    row = " + ".join(f"{i % 7 + 1}*x[{i % 100}]" for i in range(n))
    text = f"var x[100];\nminimize x[0];\nsubject to\n  {row} - 3 <= 1;\n"
    start = time.perf_counter()
    lhs = parse_problem(text).constraints[0].lhs
    assert time.perf_counter() - start < 1.0
    rows, cols, vals = lhs.payload[0][0]
    expected = np.zeros(100)
    for i in range(n):
        expected[i % 100] += i % 7 + 1
    assert cols.tolist() == list(range(100)) and vals.tolist() == expected.tolist()
    assert lhs.payload[1].tolist() == [-3.0]


def test_terms_that_are_not_plain_between_plain_ones_read_in_linear_time():
    # Each -v and bare y is parsed as any other term, between two stretches.
    n = 2_000
    row = " ".join(f"- v + {i % 5}*x[{i % 4}] + y" for i in range(n))
    text = f"var x[4]; var y; var v[3];\nminimize y;\nsubject to\n  x[0] {row} <= 1;\n"
    start = time.perf_counter()
    lhs = parse_problem(text).constraints[0].lhs
    assert time.perf_counter() - start < 1.0
    assert lhs.dim == 3 and [r.var_name for r in lhs.refs] == ["x", "y", "v"]
