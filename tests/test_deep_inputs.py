"""Long expressions: 3000-term sums, three times Python's default recursion limit.

Every tree walk keeps its own stack, so depth costs time in proportion to the
tree, never a RecursionError.
"""

import io

import pytest

from dcpc.analyzer import TargetClass, select_target, solve_problem
from dcpc.cli import emit_document, main
from dcpc.parsing import parse_problem, print_problem
from dcpc.reductions.framework import Status

from helpers import problems_structurally_equal

TERMS = 3000


def long_problem(family: str, n: int = TERMS) -> str:
    """A problem over ``var x[4]`` with an n-term objective and an n-term row."""
    head = {"lp": "abs(x[0] - 1)", "qp": "sum_squares(x - [1, 2, 3, 4])",
            "cone": "norm2(x - [1, 2, 3, 4])"}[family]
    # Terms 2j and 2j + 1 cancel, so the coefficients stay small at any n.
    tail = "".join(f" {'+-'[k % 2]} x[{k // 2 % 4}]" for k in range(1, n))
    return (f"var x[4];\nminimize {head}{tail};\nsubject to\n"
            f"  x[1]{tail} <= 7;\n  x <= 10;\n  x >= -10;\n")


FAMILIES = {"lp": TargetClass.LP, "qp": TargetClass.QP, "cone": TargetClass.CONE}


@pytest.fixture(scope="module")
def problems():
    return {family: parse_problem(long_problem(family)) for family in FAMILIES}


@pytest.mark.parametrize("family", FAMILIES)
def test_print_parse_round_trip(problems, family):
    p = problems[family]
    assert problems_structurally_equal(p, parse_problem(print_problem(p)))


@pytest.mark.parametrize("family", FAMILIES)
def test_canonicalizes_to_expected_class(problems, family):
    report = select_target(problems[family])
    assert report.target is FAMILIES[family]
    data, _ = report.chain.apply(problems[family])
    doc = emit_document(data, report.chain_names).render()
    assert f'"target": "{family}"' in doc


@pytest.mark.parametrize("family", ["lp", "qp"])
def test_solves_to_optimal(problems, family):
    outcome = solve_problem(problems[family])
    assert outcome.solution.status is Status.OPTIMAL


def test_cli_canonicalize(tmp_path):
    path = tmp_path / "long.cvx"
    path.write_text(long_problem("lp"))
    out, err = io.StringIO(), io.StringIO()
    assert main(["canonicalize", str(path)], out, err) == 0
    assert '"target": "lp"' in out.getvalue()
