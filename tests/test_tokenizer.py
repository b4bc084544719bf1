"""The parser's lexer against a reference that keeps each token's kind and offset.

``reference_tokenize`` is the ``finditer`` tokenizer that held a
``(kind, text, offset)`` tuple per token.  On random texts over the
grammar's alphabet, with comments, blanks and stray characters mixed in,
the lexer that ``parsing._Parser`` runs, walked with ``advance()``, must
give the same token texts, each of the same kind under ``parsing._kind``,
with the same offsets and spans, and ``parse_problem`` the same error for
a stray character.
"""

import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from dcpc import parsing
from dcpc.expressions import ProblemError
from dcpc.parsing import ParseError, SourceSpan, parse_problem, print_problem

_REFERENCE_RE = re.compile(r"""
    [ \t\r\n]+ | \#[^\n]*
  | (?P<NUMBER>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<REL><=|>=|==)
  | (?P<PUNCT>[;,()\[\]+\-*])
  | (?P<BAD>.)
""", re.VERBOSE)


def reference_span(text, start, end):
    offset = start[2]
    line_start = text.rfind("\n", 0, offset) + 1
    length = max(1, end[2] + len(end[1]) - offset)
    return SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1, length)


def reference_tokens(text):
    """Every token, a stray character as a BAD one, then EOF."""
    return [(m.lastgroup, m.group(), m.start())
            for m in _REFERENCE_RE.finditer(text) if m.lastgroup] + [("EOF", "", len(text))]


def reference_tokenize(text):
    tokens = reference_tokens(text)
    for tok in tokens:
        if tok[0] == "BAD":
            raise ParseError(f"unexpected character {tok[1]!r}", reference_span(text, tok, tok))
    return tokens


def lexed_tokens(parser):
    """``(text, start, end)`` of each token the parser's lexer reads, to EOF."""
    tokens = [(parser.tok, parser.start, parser.end)]
    while parser.advance():
        tokens.append((parser.tok, parser.start, parser.end))
    return tokens


PIECES = (
    ["var", "x", "y1", "_z", "e", "E", "minimize", "maximize", "subject", "to",
     "abs", "sum", "inf", "nan"]
    + ["0", "12", "3.5", ".5", "1.", "2e3", "1.5E-2", "7e+1", "٣", "1٣"]
    + list(";,()[]+-*") + ["<=", ">=", "=="]
    + ["<", "=", ">", ".", "\f", "²", "é"]
    + [" ", "  ", "\t", "\n", "\r\n", " \n\n ", "# note\n", "#\n", "# é² <\n"]
)
TAILS = ["", " ", "\n", "  \t\n", "# trailing comment", "# closed comment\n",
         "#", "\n# last\n  "]


def check_against_reference(text):
    # The lexer reads stray characters as BAD tokens, and stops at EOF.
    parser = parsing._Parser(text)
    tokens = lexed_tokens(parser)
    expected = reference_tokens(text)
    assert [tok for tok, _, _ in tokens] == [tok[1] for tok in expected]
    assert [parsing._kind(tok) for tok, _, _ in tokens] == [tok[0] for tok in expected]
    assert [(start, end) for _, start, end in tokens] == \
        [(tok[2], tok[2] + len(tok[1])) for tok in expected]
    assert parser.advance() == "" and parser.tok == ""
    last = len(expected) - 1
    for i in range(len(expected)):
        for j in {i, last, min(i + 2, last)}:
            assert parser.span(tokens[i][1], tokens[j][2]) == \
                reference_span(text, expected[i], expected[j])
    try:
        reference_tokenize(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            parse_problem(text)
        assert str(got.value) == str(err)
        assert got.value.span == err.span
        return
    try:  # with no stray character, a failed parse reports its own error
        parse_problem(text)
    except (ParseError, ProblemError) as err:
        assert "unexpected character" not in str(err)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=24), st.sampled_from(TAILS))
def test_tokens_match_the_reference(pieces, tail):
    check_against_reference("".join(pieces) + tail)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=12),
       st.lists(st.sampled_from(PIECES), max_size=12), st.sampled_from(TAILS))
def test_tokens_match_the_reference_around_blanks(head, rest, tail):
    # Pieces joined by blanks tokenize one by one; joined directly they merge.
    check_against_reference(" ".join(head) + "\n" + "".join(rest) + tail)


@pytest.mark.parametrize("text", [
    "", " ", "#", "# only a comment", "\n\n", "x", "x ", "x#", "x # c", "x\n# c\n",
    "1.e5", ".5e", "1e+", "..5", "<==", "=<", "a.b", "٣.٣", "x٣",
])
def test_edge_texts_match_the_reference(text):
    check_against_reference(text)


@pytest.mark.parametrize("char", ["²", "é", "\f", "<", "=", ".", "$"])
def test_a_stray_character_is_named_where_it_stands(char):
    # A superscript digit is no decimal digit and an accented letter no
    # ASCII letter: each is a stray character, not a number or a name.
    with pytest.raises(ParseError) as err:
        parse_problem(f"var x;\nminimize x + {char};")
    assert str(err.value) == f"2:14: unexpected character {char!r}"
    assert err.value.span == SourceSpan(2, 14, 1)


def test_superscript_two_is_an_unexpected_character():
    with pytest.raises(ParseError, match=r"^2:14: unexpected character '²'$"):
        parse_problem("var x;\nminimize x + ²;")


def test_the_first_of_several_stray_characters_is_reported():
    with pytest.raises(ParseError) as err:
        parse_problem("var x;\nminimize x + é + ² + é;")
    assert str(err.value) == "2:14: unexpected character 'é'"


def test_unicode_decimal_digits_are_numbers():
    # \d matches every Unicode decimal digit, and float() reads them.
    problem = parse_problem("var x[4];\nminimize ٣ * x[٣] + 1٣;")
    assert print_problem(problem) == print_problem(
        parse_problem("var x[4];\nminimize 3 * x[3] + 13;"))


@pytest.mark.parametrize("tail", [" " * 2**20, "\n" * 2**20, "# comment\n" * 2**17,
                                  "#" + "c" * 2**20, "# comment\n" * 2**17 + "²"],
                         ids=["spaces", "newlines", "comment-lines", "one-long-comment",
                              "comment-lines-then-stray"])
def test_long_blank_tails_tokenize_in_linear_time(tail):
    text = "var x; minimize x;" + tail
    start = time.perf_counter()
    if tail.endswith("²"):
        with pytest.raises(ParseError, match="unexpected character '²'$"):
            parse_problem(text)
    else:
        parse_problem(text)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("tail", ["", "²"], ids=["syntax-error", "stray-at-the-end"])
def test_the_error_path_of_a_long_text_is_linear(tail):
    # A syntax error at the start of about 1 MB of text, and a stray
    # character at its end, which is the error wherever the parser stopped.
    row = " + ".join(f"3*x[{i % 100}]" for i in range(100_000))
    text = f"var x[100]\nminimize x[0];\nsubject to\n  {row} <= 1;\n{tail}"
    assert len(text) > 900_000
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert time.perf_counter() - start < 1.0
    if tail:
        assert str(err.value) == "5:1: unexpected character '²'"
        assert err.value.span == SourceSpan(5, 1, 1)
    else:
        assert str(err.value) == "2:1: expected ;, found 'minimize'"
        assert err.value.span == SourceSpan(2, 1, 8)
