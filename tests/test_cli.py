"""Command-line behavior: exit codes, emission schema, and determinism."""

import io
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dcpc import cli
from dcpc.analyzer import RewriterConfig, solve_problem
from dcpc.cli import main, render_json
from dcpc.parsing import parse_problem
from dcpc.reductions.framework import ReductionError, Status

from helpers import PROBES

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
        assert doc["chain"] == ["eliminate_pwl_atoms", "move_to_lhs", "stuff_lp"]
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


class TestSolve:
    def test_toy_solution_document(self, write):
        code, out, _ = run_cli("solve", write(TOY))
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "optimal"
        assert doc["value"] == pytest.approx(1.0, abs=1e-9)
        assert doc["variables"]["alice"][0] == pytest.approx(-0.5, abs=1e-9)
        assert doc["variables"]["bob"][0] == pytest.approx(-0.5, abs=1e-9)

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

    @pytest.mark.parametrize("solver", ["simplex", "admm"])
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

    def test_solver_mismatch_exits_7(self, write):
        code, _, err = run_cli("solve", write(NORM), "--target", "cone",
                               "--solver", "simplex")
        assert code == 7
        assert "error" in err

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
        ("auto", "constraint 0"), ("qp", "constraint 0"), ("cone", "cone constraint 0")])
    def test_overflowing_coefficient_exits_7(self, write, command, target, where):
        path = write("var x; maximize x; subject to x*1e200*1e200 <= 1;")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may escape
            code, out, err = run_cli(command, path, "--target", target)
        assert code == 7
        assert out == ""
        assert err == f"error: {where}: a coefficient overflows to a non-finite value\n"

    @pytest.mark.parametrize("target", ["auto", "cone"])
    def test_overflowing_constant_product_exits_7(self, write, target):
        # The parser folds 1e200*1e200 while testing the product for zero.
        path = write("var x; minimize 1e200*1e200*square(x);")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may escape
            code, out, err = run_cli("solve", path, "--target", target)
        assert code == 7
        assert out == ""
        assert err == "error: objective: a coefficient overflows to a non-finite value\n"


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


def test_module_entrypoint_runs(tmp_path):
    path = tmp_path / "toy.cvx"
    path.write_text(TOY)
    proc = subprocess.run([sys.executable, "-m", "dcpc.cli", "analyze",
                           str(path)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "target: LP" in proc.stdout
