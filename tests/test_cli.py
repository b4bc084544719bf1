"""Command-line behavior: exit codes, emission schema, and determinism."""

import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dcpc import cli
from dcpc.analyzer import RewriterConfig, TargetClass, apply_chain, select_target, solve_problem
from dcpc.cli import emit_document, main, render_json
from dcpc.parsing import parse_problem
from dcpc.reductions.framework import ReductionError, Status
from dcpc.solvers import SOLVERS, SolverSettings

from helpers import PROBES, bench_workloads

TOY = """\
var alice;
var bob;
minimize max(alice + bob + 2, -alice - bob);
subject to
  alice <= 0;
  bob == -0.5;
"""

HINGE = """\
var x;
minimize square(max(x, 0) + max(x - 1, 0));
"""

NORM = """\
var x[3];
minimize norm2(x);
subject to
  x == [1, 2, 2];
"""

NON_DCP = """\
var x;
minimize -square(x);
"""

INFEASIBLE = """\
var x;
minimize x;
subject to
  x <= 0;
  x >= 1;
"""

UNBOUNDED = """\
var x;
minimize x;
"""


@pytest.fixture
def write(tmp_path):
    def _write(text, name="problem.cvx"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return _write


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


class TestAnalyze:
    def test_toy_targets_lp(self, write):
        code, out, _ = run_cli("analyze", write(TOY))
        assert code == 0
        assert "target: LP" in out
        assert "dcp: ok" in out

    def test_hinge_targets_qp(self, write):
        code, out, _ = run_cli("analyze", write(HINGE))
        assert code == 0
        assert "target: QP" in out

    def test_norm_targets_cone(self, write):
        code, out, _ = run_cli("analyze", write(NORM))
        assert code == 0
        assert "target: CONE" in out

    def test_non_dcp_exits_2_with_violation_path(self, write):
        code, out, _ = run_cli("analyze", write(NON_DCP))
        assert code == 2
        assert "objective" in out
        assert "target: none" in out

    def test_json_report(self, write):
        code, out, _ = run_cli("analyze", write(NON_DCP), "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["dcp_ok"] is False
        assert doc["dcp_violations"] == ["objective"]
        assert doc["target"] is None

    def test_parse_error_exits_1(self, write):
        code, _, err = run_cli("analyze", write("var ;;;"))
        assert code == 1
        assert "parse error" in err

    @pytest.mark.parametrize("objective", [
        "-" * 1200 + "x", "(" * 400 + "x" + ")" * 400, "abs(" * 300 + "x" + ")" * 300,
    ], ids=["unary-minus", "parentheses", "atom-calls"])
    def test_deep_nesting_is_a_parse_error(self, write, objective):
        code, _, err = run_cli("analyze", write(f"var x;\nminimize {objective};\n"))
        assert code == 1
        assert err.startswith("parse error:") and "nested too deeply" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "canonicalize", "solve"])
    def test_invalid_utf8_is_a_parse_error(self, tmp_path, command):
        path = tmp_path / "problem.cvx"
        path.write_bytes(b"var x;\nminimize x\xff;\n")
        code, out, err = run_cli(command, str(path))
        assert (code, out) == (1, "")
        assert err == "parse error: 2:11: byte 0xff is not valid UTF-8 (invalid start byte)\n"

    def test_missing_file_is_io_error(self):
        code, _, err = run_cli("analyze", "/nonexistent/問題.cvx")
        assert code == 7
        assert "io error" in err


class TestCanonicalize:
    def test_toy_lp_document(self, write):
        code, out, _ = run_cli("canonicalize", write(TOY), "--target", "lp")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["target"] == "lp"
        assert doc["chain"] == ["graph_expand", "stuff_lp"]
        data = doc["data"]
        assert data["G"] == [[1, 1, -1], [-1, -1, -1], [1, 0, 0]]
        assert data["A"] == [[0, 1, 0]]
        assert data["c"] == [0, 0, 1]
        assert data["h"] == [-2, 0, 0]
        assert data["b"] == [-0.5]
        assert data["offset"] == 0
        assert data["var_offsets"] == {"alice": [0, 1], "bob": [1, 1],
                                       "_t2": [2, 1]}

    def test_auto_delegates_to_analyzer(self, write):
        code, out, _ = run_cli("canonicalize", write(TOY))
        assert code == 0
        assert json.loads(out)["target"] == "lp"

    def test_deterministic_bytes(self, write):
        path = write(TOY)
        _, first, _ = run_cli("canonicalize", path, "--target", "cone")
        _, second, _ = run_cli("canonicalize", path, "--target", "cone")
        assert first == second

    def test_emit_writes_file(self, write, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli("canonicalize", write(TOY), "--emit", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["target"] == "lp"

    def test_toy_cone_blocks(self, write):
        code, out, _ = run_cli("canonicalize", write(TOY), "--target", "cone")
        assert code == 0
        doc = json.loads(out)
        data = doc["data"]
        assert data["cones"] == {"zero": 1, "nonneg": 3, "soc": []}
        assert data["b"] == [-0.5, -2, 0, 0]  # bob row, then the inequalities

    def test_hinge_qp_quadratic_block(self, write):
        code, out, _ = run_cli("canonicalize", write(HINGE), "--target", "qp")
        assert code == 0
        P = np.array(json.loads(out)["data"]["P"], dtype=float)
        assert not P[0].any() and not P[:, 0].any()  # x row/col stay zero
        np.testing.assert_array_equal(P[1:, 1:], [[2.0, 2.0], [2.0, 2.0]])

    def test_forced_reject_exits_3(self, write):
        code, _, err = run_cli("canonicalize", write(NORM), "--target", "lp")
        assert code == 3
        assert "forced target LP rejects" in err

    def test_decompose_soc_flag(self, write):
        code, out, _ = run_cli("canonicalize", write(NORM), "--target", "cone",
                               "--decompose-soc")
        assert code == 0
        doc = json.loads(out)
        assert "decompose_soc" in doc["chain"]
        assert doc["data"]["cones"]["soc"] == [3, 3]

    def test_presolve_flag_changes_chain(self, write):
        code, out, _ = run_cli("canonicalize", write(TOY), "--presolve")
        assert code == 0
        doc = json.loads(out)
        assert doc["chain"][0] == "presolve_fixed_point"
        # presolve fixes bob, so only alice and the epigraph variable remain
        assert set(doc["data"]["var_offsets"]) == {"alice", "_t1"}


def rendered(text, target=None):
    """``emit_document(...).render()`` of ``text``, as ``canonicalize`` builds it."""
    problem = parse_problem(text)
    forced = None if target is None else TargetClass[target.upper()]
    report = select_target(problem, RewriterConfig(forced_target=forced))
    data, _ = apply_chain(report.chain, problem)
    return emit_document(data, report.chain_names).render()


class TestStreamedDocument:
    """``canonicalize`` writes the document in pieces, never whole in memory."""

    @pytest.mark.parametrize("target", ["lp", "qp", "cone"])
    def test_stdout_emit_and_render_agree(self, write, tmp_path, target):
        path = write(TOY)
        code, out, _ = run_cli("canonicalize", path, "--target", target)
        emitted = tmp_path / "out.json"
        assert run_cli("canonicalize", path, "--target", target,
                       "--emit", str(emitted))[0] == code == 0
        assert out == emitted.read_text(encoding="utf-8") == rendered(TOY, target)

    def test_benchmark_document_agrees(self, write, tmp_path):
        text = bench_workloads().dense_case(np.random.default_rng(7), "lp", 12, 12).text
        code, out, _ = run_cli("canonicalize", write(text))
        emitted = tmp_path / "out.json"
        assert run_cli("canonicalize", write(text), "--emit", str(emitted))[0] == code == 0
        assert out == emitted.read_text(encoding="utf-8") == rendered(text)

    @pytest.fixture
    def fail_after_first_row(self, monkeypatch):
        rows = cli._matrix_rows

        def first_row_then_fail(m):
            yield next(rows(m))
            raise MemoryError("injected")
        monkeypatch.setattr(cli, "_matrix_rows", first_row_then_fail)

    def test_failure_leaves_no_partial_file(self, write, tmp_path, fail_after_first_row):
        path, target = write(TOY), tmp_path / "out.json"
        code, out, err = run_cli("canonicalize", path, "--emit", str(target))
        assert code == 7 and out == ""
        assert err == "internal error: MemoryError: injected\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.cvx"]

    def test_failure_keeps_the_file_already_there(self, write, tmp_path,
                                                  fail_after_first_row):
        path, target = write(TOY), tmp_path / "out.json"
        target.write_text("earlier document\n")
        assert run_cli("canonicalize", path, "--emit", str(target))[0] == 7
        assert target.read_text() == "earlier document\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "problem.cvx"]

    def test_failure_on_stdout_exits_7(self, write, fail_after_first_row):
        code, out, err = run_cli("canonicalize", write(TOY))
        assert code == 7
        assert err == "internal error: MemoryError: injected\n"

    def test_file_at_the_temporary_name_is_left_alone(self, write, tmp_path):
        target = tmp_path / "out.json"
        other = tmp_path / f"out.json.{os.getpid()}.tmp"
        other.write_text("someone else's file\n")
        code, _, err = run_cli("canonicalize", write(TOY), "--emit", str(target))
        assert code == 7 and err.startswith("io error:")
        assert other.read_text() == "someone else's file\n"
        assert not target.exists()

    def test_emit_replaces_the_file_already_there(self, write, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("earlier document\n")
        assert run_cli("canonicalize", write(TOY), "--emit", str(target))[0] == 0
        assert target.read_text(encoding="utf-8") == rendered(TOY)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "problem.cvx"]

    def test_render_peak_memory_is_about_two_documents(self):
        """``tracemalloc`` peak of ``render()`` on wide-cone at n = 1000 (a
        36 MB document): the joined pieces and the text, with no nested
        concatenation on top."""
        text = bench_workloads().wide_case(np.random.default_rng(1000), "wide-cone", 1000).text
        problem = parse_problem(text)
        report = select_target(problem)
        document = emit_document(apply_chain(report.chain, problem)[0], report.chain_names)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            size = len(document.render())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert size > 30 * 2**20
        assert peak < 2.2 * size, f"peak {peak / size:.2f} documents"


class TestSolve:
    def test_toy_solution_document(self, write):
        code, out, _ = run_cli("solve", write(TOY))
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "optimal"
        assert doc["value"] == pytest.approx(1.0, abs=1e-9)
        assert doc["variables"]["alice"][0] == pytest.approx(-0.5, abs=1e-9)
        assert doc["variables"]["bob"][0] == pytest.approx(-0.5, abs=1e-9)

    def test_no_flags_build_the_default_settings(self, write, monkeypatch):
        configs = []

        def spy(problem, config):
            configs.append(config)
            return solve_problem(problem, config)

        monkeypatch.setattr(cli, "solve_problem", spy)
        assert run_cli("solve", write(TOY))[0] == 0
        assert configs == [RewriterConfig()]
        assert configs[0].settings == SolverSettings()

    @pytest.mark.parametrize("extra", [
        ("--solver", "admm"),
        ("--target", "qp"),
        ("--target", "cone"),
    ])
    def test_toy_alternate_paths(self, write, extra):
        code, out, _ = run_cli("solve", write(TOY), *extra)
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("solver", list(SOLVERS))
    def test_iterations_reported(self, write, solver):
        code, out, _ = run_cli("solve", write(TOY), "--solver", solver)
        assert code == 0
        raw = solve_problem(parse_problem(TOY), RewriterConfig(solver=solver)).raw
        assert raw.iterations > 0
        assert json.loads(out)["iterations"] == raw.iterations

    def test_hinge_value(self, write):
        code, out, _ = run_cli("solve", write(HINGE))
        assert code == 0
        assert abs(json.loads(out)["value"]) <= 1e-5

    def test_infeasible_exits_4(self, write):
        code, out, _ = run_cli("solve", write(INFEASIBLE))
        assert code == 4
        doc = json.loads(out)
        assert doc["status"] == "infeasible"
        assert doc["value"] is None
        assert doc["variables"] == {}

    def test_unbounded_exits_5(self, write):
        code, out, _ = run_cli("solve", write(UNBOUNDED))
        assert code == 5
        assert json.loads(out)["status"] == "unbounded"

    @pytest.mark.parametrize("route", [(), ("--solver", "admm"), ("--target", "cone")],
                             ids=["auto", "admm", "cone"])
    @pytest.mark.parametrize("name", PROBES)
    def test_probes_exit_4_or_5(self, write, name, route):
        text, expected = PROBES[name]
        code, out, _ = run_cli("solve", write(text), *route)
        assert code == {Status.INFEASIBLE: 4, Status.UNBOUNDED: 5}[expected]
        assert json.loads(out)["status"] == expected.value

    def test_iteration_limit_exits_6(self, write):
        code, out, _ = run_cli("solve", write(TOY), "--target", "cone",
                               "--max-iters", "1")
        assert code == 6
        assert json.loads(out)["status"] == "iteration_limit"

    @pytest.mark.parametrize("text,route,line", [
        (NORM, ("--target", "cone"), "simplex cannot solve cone targets"),
        # no SOC rows: the cone target's stuffer alone is refused
        (TOY, ("--target", "cone"), "simplex cannot solve cone targets"),
        (HINGE, (), "simplex cannot solve a nonzero quadratic: it requires P == 0"),
    ], ids=["norm-cone", "toy-cone", "hinge-qp"])
    def test_solver_mismatch_exits_7(self, write, text, route, line):
        code, out, err = run_cli("solve", write(text), "--solver", "simplex", *route)
        assert (code, out, err) == (7, "", f"error: {line}\n")

    @pytest.mark.parametrize("text,flags", [
        # the simplex's phase-one limit knows no feasible point
        ("var x[2]; minimize sum(abs(x)); subject to x >= 1;", ("--max-iters", "1")),
        # a certified ray whose feasibility check runs out of iterations
        ("var x; var y; minimize square(x) - y; subject to x + y >= 1e4;",
         ("--max-iters", "25")),
        # presolve's pinned y alone would be a partial point
        ("var x[2]; var y; minimize sum(abs(x)) + y; subject to x >= 1; y == 2;",
         ("--presolve", "--max-iters", "1")),
    ], ids=["phase-one", "undecided-ray", "presolve"])
    def test_iteration_limit_with_no_point_prints_no_variables(self, write, text, flags):
        code, out, err = run_cli("solve", write(text), *flags)
        doc = json.loads(out)
        assert (code, err) == (6, "")
        assert (doc["status"], doc["value"], doc["variables"]) == ("iteration_limit", None, {})

    def test_forced_reject_exits_3(self, write):
        code, _, _ = run_cli("solve", write(NORM), "--target", "qp")
        assert code == 3

    def test_tolerance_flags_are_honored(self, write):
        code, out, _ = run_cli("solve", write(TOY), "--target", "cone",
                               "--eps-abs", "1e-9", "--eps-rel", "1e-9")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("flag,value", [("--eps-abs", "inf"),
                                            ("--eps-rel", "nan")])
    def test_non_finite_tolerance_exits_7(self, write, flag, value):
        # An infinite tolerance would let any iterate pass as "optimal".
        code, out, err = run_cli("solve", write(TOY), flag, value)
        assert code == 7
        assert out == ""
        assert err == "error: tolerances must be positive and finite\n"

    @pytest.mark.parametrize("route", [(), ("--target", "qp"), ("--target", "cone")],
                             ids=["auto", "qp", "cone"])
    @pytest.mark.parametrize("constraints,code,value", [
        ("x == 1;", 0, 1), ("x == 1; x == 2;", 4, None), ("x >= 1; 2 <= 1;", 4, None)])
    def test_presolve_that_leaves_no_variables(self, write, route, constraints,
                                               code, value):
        # Presolve fixes x, or proves infeasibility and emits a placeholder
        # without variables: every solver takes a program with no columns.
        path = write(f"var x; minimize x; subject to {constraints}")
        got, out, err = run_cli("solve", path, "--presolve", *route)
        assert (got, err) == (code, "")
        doc = json.loads(out)
        assert doc["value"] == value
        assert doc["variables"] == ({"x": [1.0]} if code == 0 else {})

    def test_overflowing_iterates_exit_7(self, write):
        # The iterates overflow; the first test stops the solve before rho
        # or a certificate reads them, and no numpy warning is raised.
        path = write("var x; minimize norm2(x); subject to x == 1e200;")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli("solve", path)
        assert (code, err) == (7, "")
        doc = json.loads(out)
        assert doc["status"] == "error" and doc["iterations"] == 25
        assert doc["message"] == "iterates are not finite"


class TestNumericOverflow:
    @pytest.mark.parametrize("literal", ["var x[1e400]; minimize 1;",
                                         "var x; minimize x + 1e400;",
                                         "var x[2]; minimize sum(x - [1, 1e400]);"])
    def test_overflowing_literal_exits_1(self, write, literal):
        code, _, err = run_cli("analyze", write(literal))
        assert code == 1
        assert "parse error" in err and "not finite" in err

    @pytest.mark.parametrize("command", ["canonicalize", "solve"])
    @pytest.mark.parametrize("target,where", [
        ("auto", "constraint 0"), ("qp", "constraint 0"), ("cone", "constraint 0")])
    def test_overflowing_coefficient_exits_7(self, write, command, target, where):
        path = write("var x; maximize x; subject to x*1e200*1e200 <= 1;")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may escape
            code, out, err = run_cli(command, path, "--target", target)
        assert code == 7
        assert out == ""
        assert err == f"error: {where}: a coefficient overflows to a non-finite value\n"

    @pytest.mark.parametrize("command", ["canonicalize", "solve"])
    @pytest.mark.parametrize("target", ["auto", "lp", "qp", "cone"])
    def test_overflow_names_the_users_constraint(self, write, command, target):
        # Epigraph rows for abs come first in the rewritten problem, so the
        # stuffed row that overflows is not the user's constraint 1.
        path = write("var x; minimize abs(x); subject to x >= -5; x*1e200*1e200 <= 1;")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(command, path, "--target", target)
        assert code == 7
        assert out == ""
        assert err == "error: constraint 1: a coefficient overflows to a non-finite value\n"

    @pytest.mark.parametrize("target", ["auto", "qp", "cone"])
    def test_overflowing_constant_product_exits_7(self, write, target):
        # 1e200*1e200 overflows where the parser builds it.
        path = write("var x; minimize 1e200*1e200*square(x);")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may escape
            code, out, err = run_cli("solve", path, "--target", target)
        assert code == 7
        assert out == ""
        assert err == "error: objective: a coefficient overflows to a non-finite value\n"

    @pytest.mark.parametrize("presolve", [(), ("--presolve",)], ids=["plain", "presolve"])
    @pytest.mark.parametrize("command", ["canonicalize", "solve"])
    @pytest.mark.parametrize("target", ["auto", "lp", "qp", "cone"])
    def test_overflowing_constant_under_pwl_atom_exits_7(self, write, command,
                                                          target, presolve):
        # The constant branch abs(1e200*1e200) overflows where the parser
        # builds it, as every other constant subtree is folded there.
        path = write("var x; minimize max(x, abs(1e200*1e200));")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may escape
            code, out, err = run_cli(command, path, "--target", target, *presolve)
        assert code == 7
        assert out == ""
        assert err == "error: objective: a coefficient overflows to a non-finite value\n"

    @pytest.mark.parametrize("text,where", [
        ("var x; minimize 1e200*1e200*square(x);", "objective"),
        ("var x; minimize x; subject to x >= -5; x*1e200*1e200 <= 1;", "constraint 1")])
    def test_analyze_names_an_overflow_in_the_text(self, write, text, where):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli("analyze", write(text))
        assert (code, out) == (7, "")
        assert err == f"error: {where}: a coefficient overflows to a non-finite value\n"

    @pytest.mark.parametrize("command", ["canonicalize", "solve"])
    @pytest.mark.parametrize("target", ["auto", "lp", "qp", "cone"])
    def test_overflow_made_in_the_chain_names_the_constraint(self, write, command, target):
        # Both sides are finite; moving them to one side overflows.
        path = write("var x; minimize abs(x); subject to 1e308*x <= -1e308*x;")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(command, path, "--target", target)
        assert (code, out) == (7, "")
        assert err == "error: constraint 0: a coefficient overflows to a non-finite value\n"


SOLVER_OPTIONS = ("--solver", "--max-iters", "--eps-abs", "--eps-rel")


class TestUsageErrors:
    """A command line argparse refuses is a configuration error, exit 7; exit
    2 means that no back end accepts the problem."""

    @pytest.mark.parametrize("argv,message", [
        (["solve", "{}", "--max-iters", "abc"],
         "argument --max-iters: invalid int value: 'abc'"),
        (["canonicalize", "{}", "--target", "foo"],
         "argument --target: invalid choice: 'foo' (choose from 'auto', 'lp', 'qp', 'cone')"),
        (["solve", "{}", "--no-such-option"], "unrecognized arguments: --no-such-option"),
        (["analyze", "{}", "--eps-abs", "nan"], "unrecognized arguments: --eps-abs nan"),
        (["canonicalize", "{}", "--solver", "admm"], "unrecognized arguments: --solver admm"),
        (["frobnicate", "{}"], "argument command: invalid choice: 'frobnicate' "
                               "(choose from 'analyze', 'canonicalize', 'solve')"),
        (["solve"], "the following arguments are required: file"),
    ], ids=["bad-value", "bad-choice", "unknown-option", "solver-option-on-analyze",
            "solver-option-on-canonicalize", "unknown-command", "missing-file"])
    def test_usage_error_exits_7(self, write, argv, message):
        path = write(TOY)
        code, out, err = run_cli(*[a.format(path) for a in argv])
        assert (code, out) == (7, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["analyze", "canonicalize", "solve"])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        for option in SOLVER_OPTIONS:
            assert (option in text) == (command == "solve"), option

    def test_solver_choices_are_the_registry(self, write):
        code, _, err = run_cli("solve", write(TOY), "--solver", "bogus")
        choices = ", ".join(repr(name) for name in SOLVERS)
        assert code == 7
        assert err == f"error: argument --solver: invalid choice: 'bogus' (choose from {choices})\n"

    def test_solve_keeps_the_solver_defaults(self):
        args = cli._build_parser().parse_args(["solve", "problem.cvx"])
        assert args.solver is None
        assert SolverSettings(args.max_iters, args.eps_abs, args.eps_rel) == SolverSettings()


class TestInternalErrors:
    @pytest.mark.parametrize("error", [
        ReductionError("stuff_qp: atom 'abs' has no quadratic form"),
        RecursionError("maximum recursion depth exceeded"),
        MemoryError("cannot allocate"),
    ], ids=lambda e: type(e).__name__)
    def test_escaped_error_exits_7(self, write, monkeypatch, error):
        def fail(args, out, err):
            raise error
        monkeypatch.setattr(cli, "_cmd_canonicalize", fail)
        code, out, err = run_cli("canonicalize", write(TOY))
        assert code == 7
        assert out == ""
        assert err == f"internal error: {type(error).__name__}: {error}\n"


class TestRenderJson:
    def test_seventeen_significant_digits(self):
        assert render_json(0.1) == "0.10000000000000001"
        assert render_json(1.0) == "1"
        assert render_json(-2.5) == "-2.5"

    def test_negative_zero_normalized(self):
        assert render_json(-0.0) == "0"

    def test_round_trip_preserves_values(self):
        values = [0.1, 1.0 / 3.0, -1e-17, 2.0 ** 52 + 0.5, 3.14159]
        parsed = json.loads(render_json(values))
        assert parsed == values

    def test_arrays_and_nesting(self):
        doc = {"m": np.array([[1.0, 2.0]]), "v": np.array([3.0]),
               "s": "a\"b", "n": None, "flag": True}
        parsed = json.loads(render_json(doc))
        assert parsed == {"m": [[1, 2]], "v": [3], "s": 'a"b', "n": None,
                          "flag": True}

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            render_json(object())

    @pytest.mark.parametrize("shape", [(0,), (3,), (0, 4), (2, 0), (1, 3), (3, 2)])
    def test_float_arrays_render_like_nested_lists(self, shape):
        arr = np.arange(float(np.prod(shape))).reshape(shape) * -0.7
        arr[arr == 0.0] = -0.0
        for indent in (0, 2):
            assert render_json(arr, indent) == render_json(arr.tolist(), indent)
        doc = {"A": arr, "n": np.array([1, 2]), "s": np.float64(-0.0)}
        text = render_json(doc)
        assert text == render_json({"A": arr.tolist(), "n": [1, 2], "s": 0.0})
        assert re.search(r"-0(?![.\d])", text) is None  # no negative zero

    def test_empty_matrix_renders_as_empty_list(self):
        assert render_json({"A": np.zeros((0, 3))}) == '{\n  "A": []\n}'


def dense_reference(m, indent=0) -> str:
    """A sparse matrix written through its whole dense array."""
    rows = [", ".join(["%.17g" % v for v in row]) for row in (m.toarray() + 0.0).tolist()]
    if not rows:
        return "[]"
    inner = "  " * (indent + 1)
    return "[\n" + ",\n".join(f"{inner}[{r}]" for r in rows) + "\n" + "  " * indent + "]"


def random_csr(rng, nrows, ncols):
    """A CSR matrix with empty rows, repeated and unsorted column indices,
    and stored 0.0 and -0.0 among values of every scale."""
    counts = rng.integers(0, 2 * ncols + 2, nrows) * (rng.random(nrows) < 0.8) \
        if ncols else np.zeros(nrows, dtype=int)
    nnz = int(counts.sum())
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.1, 1e16, -1e16, 1e308, 5e-324, 1 / 3])
    data = np.where(rng.random(nnz) < 0.4, rng.choice(pool, nnz),
                    rng.standard_normal(nnz) * 10.0 ** rng.integers(-20, 20, nnz))
    indices = rng.integers(0, max(ncols, 1), nnz)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sp.csr_matrix((data, indices, indptr), shape=(nrows, ncols))


class TestMatrixWriter:
    """The writer formats only stored entries; it must give the bytes of
    the whole dense array written cell by cell."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sparse_matrices_match_the_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        m = random_csr(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        before = (m.data.copy(), m.indices.copy(), m.indptr.copy())
        for indent in (0, 2):
            assert render_json(m, indent) == dense_reference(m, indent)
        assert all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(before, (m.data, m.indices, m.indptr)))

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (1, 1)])
    def test_degenerate_shapes_match_the_dense_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            m = random_csr(rng, *shape)
            assert render_json(m) == dense_reference(m)
            assert render_json(m.toarray()) == dense_reference(m)

    def test_duplicates_add_in_stored_order(self):
        # (1e16 + 1) - 1e16 is 0 but (1e16 - 1e16) + 1 is 1: the writer must
        # add repeated entries in the order toarray adds them.
        values = [1e16, 1.0, -1e16, 1.0, 2.0, -0.0]
        m = sp.csr_matrix((values, [3, 3, 3, 0, 1, 2], [0, 6]), shape=(1, 4))
        assert render_json(m) == dense_reference(m) == "[\n  [1, 2, 0, 0]\n]"
        long_row = np.tile(values, 20)
        m = sp.csr_matrix((long_row, np.tile([3, 3, 3, 0, 1, 2], 20), [0, 120]), shape=(1, 4))
        assert render_json(m) == dense_reference(m)

    def test_negative_zero_entries_write_as_zero(self):
        m = sp.csr_matrix(([-0.0, -0.0, 0.0], [0, 1, 1], [0, 3]), shape=(1, 3))
        assert render_json(m) == "[\n  [0, 0, 0]\n]"


def child_env():
    """The environment of a child process that imports the same dcpc as this
    suite, installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entrypoint_runs(tmp_path):
    path = tmp_path / "toy.cvx"
    path.write_text(TOY)
    proc = subprocess.run([sys.executable, "-m", "dcpc.cli", "analyze",
                           str(path)], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "target: LP" in proc.stdout


# Runs each "command path" of argv[1:] through cli.main in turn and prints,
# for each, its exit code, a solve's status and which of scipy and its
# linear algebra and sparse packages are loaded by then.  Any scipy module
# loads the package "scipy" itself, so a list without it means none is.
LOADS_CHILD = """\
import io, json, sys
import dcpc.cli, dcpc.analyzer, dcpc.solvers
for command in sys.argv[1:]:
    out = io.StringIO()
    code = dcpc.cli.main(command.split(" ", 1), out, io.StringIO())
    status = json.loads(out.getvalue())["status"] if command.startswith("solve") else None
    print(json.dumps([code, status, [m for m in ("scipy", "scipy.linalg", "scipy.sparse",
                                                 "scipy.sparse.linalg") if m in sys.modules]]))
"""


@pytest.mark.parametrize("commands, expected", [
    ([("analyze", TOY), ("canonicalize", TOY), ("canonicalize", HINGE),
      ("canonicalize", NORM)],
     [[0, None, []]] * 4),
    ([("solve", TOY)], [[0, "optimal", ["scipy", "scipy.linalg"]]]),  # the simplex's dger
    ([("solve", HINGE)],  # the splitting solver's CSR algebra and splu
     [[0, "optimal", ["scipy", "scipy.linalg", "scipy.sparse", "scipy.sparse.linalg"]]]),
])
def test_only_a_solve_loads_scipy_linear_algebra(tmp_path, commands, expected):
    # A fresh process, since this suite's own loaded scipy.linalg long ago.
    argv = []
    for i, (command, text) in enumerate(commands):
        path = tmp_path / f"problem{i}.cvx"
        path.write_text(text)
        argv.append(f"{command} {path}")
    proc = subprocess.run([sys.executable, "-c", LOADS_CHILD, *argv],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert [json.loads(line) for line in proc.stdout.splitlines()] == expected
