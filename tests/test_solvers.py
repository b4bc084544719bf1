"""Embedded solver behavior: simplex exactness, splitting convergence, projections."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog, minimize

from dcpc import expressions as ex, solvers
from dcpc.analyzer import RewriterConfig, TargetClass, build_chain, solve_problem
from dcpc.parsing import parse_problem
from dcpc.reductions.cone import ConeDims, ProgramData
from dcpc.reductions.framework import Status
from dcpc.solvers import (RawSolution, SolverSettings, project_cone,
                          solve_cone_admm, solve_lp_simplex, solve_qp_admm)

from helpers import PROBES, bench_workloads, hinge_square_problem, toy_problem


def _rows(x, n):
    x = np.zeros((0, n)) if x is None else np.asarray(x, dtype=float)
    return x if x.ndim == 2 else x.reshape(-1, n)


def program_data(P, q, offset=0.0, G=None, h=None, A=None, b=None):
    """``min ½xᵀPx + qᵀx + offset  s.t.  Gx <= h, Ax == b`` as ProgramData."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    G, A = _rows(G, n), _rows(A, n)
    h = np.zeros(0) if h is None else np.asarray(h, dtype=float)
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float)
    offsets = {i: (i, 1) for i in range(n)}
    decls = tuple(ex.VariableDecl(i, f"x{i}") for i in range(n))
    return ProgramData(P, q, offset, np.vstack([A, G]), np.concatenate([b, h]),
                       ConeDims(A.shape[0], G.shape[0], ()), offsets, decls)


def lp_data(c, G, h, A=None, b=None, offset=0.0):
    return program_data(None, c, offset, G, h, A, b)


def qp_data(P, q, r=0.0, G=None, h=None, A=None, b=None):
    n = len(q)
    return program_data(np.asarray(P, dtype=float).reshape(n, n), q, r, G, h, A, b)


def wide_qp_data(n):
    """``sum_squares(x - c) + sum(abs(x))`` with box rows, stuffed for the QP solver."""
    center = ", ".join(f"{v:.2f}" for v in np.linspace(-3.0, 3.0, n))
    problem = parse_problem(
        f"var x[{n}];\nminimize sum_squares(x - [{center}]) + sum(abs(x));\n"
        "subject to\n  x <= 10;\n  x >= -10;\n")
    return build_chain(problem, TargetClass.QP).apply(problem)[0]


TOY = dict(G=[[1, 1, -1], [-1, -1, -1], [1, 0, 0]], h=[-2.0, 0.0, 0.0],
           A=[[0, 1, 0]], b=[-0.5])
TOY_LP = lp_data([0.0, 0.0, 1.0], **TOY)


class TestProgramData:
    @pytest.mark.parametrize("field,value", [
        ("A", np.zeros((2, 3))),  # two rows for four cone rows
        ("b", np.zeros(3)),
        ("P", np.zeros((2, 2))),
    ])
    def test_shape_mismatch_is_rejected(self, field, value):
        parts = dict(P=np.zeros((3, 3)), q=np.zeros(3), offset=0.0,
                     A=np.zeros((4, 3)), b=np.zeros(4), cones=ConeDims(1, 3, ()),
                     var_offsets={}, variables=())
        ProgramData(**parts)
        with pytest.raises(ValueError, match="fit"):
            ProgramData(**{**parts, field: value})

    def test_dense_input_becomes_csr_without_zeros(self):
        P, A = np.diag([2.0, 0.0]), np.array([[0.0, -1.0], [3, 0]])
        data = ProgramData(P, np.zeros(2), 0.0, A, np.zeros(2),
                           ConeDims(0, 2, ()), {}, ())
        for got, want in ((data.P, P), (data.A, A)):
            assert isinstance(got, sp.csr_matrix) and got.dtype == float
            np.testing.assert_array_equal(got.toarray(), want)
            assert got.nnz == np.count_nonzero(want)

    def test_unsorted_csr_input_becomes_canonical(self):
        # row 0 lists column 1 before 0 and column 1 twice; the caller's
        # matrix keeps its layout
        A = sp.csr_matrix((np.array([1.0, 2.0, 4.0, 0.0]), np.array([1, 0, 1, 0]),
                           np.array([0, 3, 4])), shape=(2, 2))
        data = ProgramData(None, np.zeros(2), 0.0, A, np.zeros(2),
                           ConeDims(0, 2, ()), {}, ())
        assert data.A.has_canonical_format and data.A.indices.tolist() == [0, 1, 0]
        assert data.A.data.tolist() == [2.0, 5.0, 0.0]
        assert A.indices.tolist() == [1, 0, 1, 0]


class TestSolverSettings:
    def test_defaults(self):
        s = SolverSettings()
        assert (s.max_iterations, s.eps_abs, s.eps_rel) == (20000, 1e-6, 1e-6)

    @pytest.mark.parametrize("kwargs", [
        {"max_iterations": 0}, {"eps_abs": 0.0}, {"eps_rel": -1e-9},
        {"eps_abs": math.inf}, {"eps_rel": math.inf}, {"eps_abs": math.nan},
        {"eps_rel": math.nan},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverSettings(**kwargs)


class TestSimplex:
    def test_toy_standard_form(self):
        raw = solve_lp_simplex(TOY_LP)
        assert raw.status is Status.OPTIMAL
        assert (raw.factor_s, raw.factor_nnz) == (0.0, 0)  # no factorization
        np.testing.assert_allclose(raw.x, [-0.5, -0.5, 1.0], atol=1e-9)
        assert raw.value == pytest.approx(1.0, abs=1e-9)

    def test_lower_bounds_via_rows(self):
        raw = solve_lp_simplex(lp_data([1.0], [[-1], [-1]], [0.0, -1.0]))
        assert raw.status is Status.OPTIMAL
        assert raw.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        raw = solve_lp_simplex(lp_data([1.0], [[1], [-1]], [0.0, -1.0]))
        assert raw.status is Status.INFEASIBLE
        assert raw.value == math.inf

    def test_unbounded(self):
        raw = solve_lp_simplex(lp_data([-1.0], [[-1]], [0.0]))
        assert raw.status is Status.UNBOUNDED
        assert raw.value == -math.inf

    def test_slack_start_needs_no_phase_one_pivots(self):
        # Every h >= 0, so the slack basis is feasible: one pivot reaches x = 1.
        raw = solve_lp_simplex(lp_data([-1.0], [[1], [-1]], [1.0, 0.0]))
        assert raw.status is Status.OPTIMAL and raw.iterations == 1
        assert raw.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_equality_row(self):
        raw = solve_lp_simplex(lp_data([1.0, 1.0], -np.eye(2), [0.0, 0.0],
                                       A=[[1, 1]], b=[-1.0]))
        assert raw.status is Status.INFEASIBLE

    def test_equality_only(self):
        raw = solve_lp_simplex(lp_data([1.0, 1.0], np.zeros((0, 2)), [],
                                       A=[[1, 1]], b=[2.0]))
        assert raw.status is Status.OPTIMAL
        assert raw.value == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("text", [
        "var y; var w; minimize w; subject to 3 + y <= y; w >= 4e20;",
        "var y; var w; var z; minimize z; subject to 3 + y <= y; w >= 4e20;",
    ])
    def test_small_infeasibility_beside_a_large_row(self, text):
        # The artificial of 3 <= 0 holds 3, but summed with the 4e20 row into
        # the phase-one objective cell it rounded away: optimal at 4e20, or
        # unbounded over a free z.
        outcome = solve_problem(parse_problem(text))
        assert outcome.report.target is TargetClass.LP
        assert outcome.solution.status is Status.INFEASIBLE
        assert outcome.raw.message == "artificial variables remain positive"

    def test_degenerate_vertex_terminates(self):
        raw = solve_lp_simplex(lp_data([-1.0, -1.0],
                                       [[1, 0], [0, 1], [1, 1]],
                                       [1.0, 1.0, 2.0]))
        assert raw.status is Status.OPTIMAL
        assert raw.value == pytest.approx(-2.0, abs=1e-9)

    def test_zero_variable_rows(self):
        infeasible = lp_data(np.zeros(0), np.zeros((1, 0)), [-1.0])
        assert solve_lp_simplex(infeasible).status is Status.INFEASIBLE
        feasible = lp_data(np.zeros(0), np.zeros((1, 0)), [1.0])
        raw = solve_lp_simplex(feasible)
        assert raw.status is Status.OPTIMAL and raw.value == 0.0

    def test_rejects_nonzero_quadratic(self):
        with pytest.raises(ValueError, match="P == 0"):
            solve_lp_simplex(qp_data([[1.0]], [0.0]))

    def test_accepts_zero_quadratic_view(self):
        data = qp_data(np.zeros((3, 3)), [0.0, 0.0, 1.0], **TOY)
        raw = solve_lp_simplex(data)
        assert raw.value == pytest.approx(1.0, abs=1e-9)

    def test_matches_vertex_enumeration_on_random_lps(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            box_G = np.vstack([np.eye(n), -np.eye(n)])
            box_h = np.full(2 * n, 4.0)
            extra = int(rng.integers(1, 4))
            G_rand = rng.integers(-5, 6, size=(extra, n)).astype(float)
            h_rand = rng.integers(0, 6, size=extra).astype(float)  # keeps 0 feasible
            G = np.vstack([box_G, G_rand])
            h = np.concatenate([box_h, h_rand])
            c = rng.integers(-5, 6, size=n).astype(float)
            raw = solve_lp_simplex(lp_data(c, G, h))
            assert raw.status is Status.OPTIMAL
            best = math.inf
            for rows in itertools.combinations(range(G.shape[0]), n):
                sub = G[list(rows)]
                if abs(np.linalg.det(sub)) < 1e-9:
                    continue
                vertex = np.linalg.solve(sub, h[list(rows)])
                if np.all(G @ vertex <= h + 1e-9):
                    best = min(best, float(c @ vertex))
            assert raw.value == pytest.approx(best, abs=1e-9)

    # Beale (1955): Dantzig's rule with lowest-index ratio ties cycles here.
    BEALE = lp_data(c=[-0.75, 20.0, -0.5, 6.0],
                    G=[[0.25, -8, -1, 9], [0.5, -12, -0.5, 3], [0, 0, 1, 0],
                       [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
                    h=[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])

    def test_beale_cycling_lp(self):
        raw = solve_lp_simplex(self.BEALE)
        assert raw.status is Status.OPTIMAL
        assert raw.value == pytest.approx(-1.25, abs=1e-9)
        np.testing.assert_allclose(raw.x, [1.0, 0.0, 1.0, 0.0], atol=1e-9)

    def test_beale_cycles_without_the_fallback(self, monkeypatch):
        monkeypatch.setattr(solvers, "_DEGENERATE_RUN", 10**9)
        raw = solve_lp_simplex(self.BEALE, SolverSettings(max_iterations=500))
        assert raw.status is Status.ITERATION_LIMIT

    @pytest.mark.parametrize("limit", [150, 178])
    def test_phase_two_limit_reports_its_vertex(self, limit):
        # The n = 40 LP takes 179 pivots, and phase one fewer than 150, so
        # each limit stops on a phase-two basis, whose vertex is feasible.
        case = bench_workloads().dense_case(np.random.default_rng(40), "lp", 40, 40)
        problem = parse_problem(case.text)
        outcome = solve_problem(problem, RewriterConfig(
            settings=SolverSettings(max_iterations=limit)))
        raw, data, solution = outcome.raw, outcome.data, outcome.solution
        assert raw.status is Status.ITERATION_LIMIT
        assert raw.message == "phase-2 iteration limit"
        slack = data.b - data.A @ raw.x
        assert np.all(np.abs(slack[:data.cones.zero]) <= 1e-9)
        assert np.all(slack[data.cones.zero:] >= -1e-9)
        assert solution.status is Status.ITERATION_LIMIT
        assert solution.value == pytest.approx(
            ex.evaluate(problem.objective, solution.primal)[0], rel=1e-12)
        assert solution.value > 17.104839  # not yet the optimum

    def test_refuses_second_order_cone_rows(self):
        problem = parse_problem("var x[2]; minimize norm2(x);")
        data, _ = build_chain(problem, TargetClass.CONE).apply(problem)
        assert data.cones.soc == (3,)
        with pytest.raises(ValueError, match="second-order cone rows"):
            solve_lp_simplex(data)

    def test_phase_one_stops_at_its_budget(self):
        # Two equality rows start on two artificials: one pivot is not enough.
        data = program_data(None, [1.0, 1.0], A=[[1, 1], [1, -1]], b=[1.0, 0.0])
        raw = solve_lp_simplex(data, SolverSettings(max_iterations=1))
        assert (raw.status, raw.iterations, raw.message) == (
            Status.ITERATION_LIMIT, 1, "phase-1 iteration limit")
        assert math.isnan(raw.value)
        assert solve_lp_simplex(data).status is Status.OPTIMAL

    def test_zero_artificial_left_basic_is_pivoted_out(self, monkeypatch):
        # x - y == 0 and y - x == 0: the artificials' rows cancel, so phase one
        # is optimal at once with both basic at zero.  The first is pivoted out
        # on x's column, which leaves the second row zero and redundant.
        data = program_data(None, [1.0, 0.0], G=[[-1, 0]], h=[1.0],
                            A=[[1, -1], [-1, 1]], b=[0.0, 0.0])
        pivots = []
        real_pivot = solvers._pivot

        def pivot(T, basis, row, col):
            pivots.append((row, col, int(basis[row])))
            real_pivot(T, basis, row, col)

        monkeypatch.setattr(solvers, "_pivot", pivot)
        raw = solve_lp_simplex(data)
        assert raw.status is Status.OPTIMAL
        np.testing.assert_array_equal(raw.x, [-1.0, -1.0])
        assert raw.value == -1.0
        # no phase-one pivot; then artificial 0 (label N = 5) of tableau row 1
        # leaves for column 0, the positive part of x
        assert pivots[0] == (1, 0, 5)

    def test_a_budget_of_exactly_the_pivots_needed_is_optimal(self):
        # The n = 40 LP reaches its optimal basis on pivot 179: a budget of
        # 179 still tests that basis, and one of 178 stops a pivot short.
        case = bench_workloads().dense_case(np.random.default_rng(40), "lp", 40, 40)
        problem = parse_problem(case.text)

        def solve(limit=SolverSettings().max_iterations):
            return solve_problem(problem, RewriterConfig(
                settings=SolverSettings(max_iterations=limit))).raw

        unlimited, exact, short = solve(), solve(179), solve(178)
        assert (exact.status, exact.iterations, exact.message) == (Status.OPTIMAL, 179, "")
        assert exact.value == unlimited.value == 17.104839496497362
        assert (short.status, short.iterations) == (Status.ITERATION_LIMIT, 178)
        assert short.value == 17.119615092744226

    def test_long_degenerate_run_switches_to_bland_and_back(self, monkeypatch):
        # The origin is a vertex on all 60 cone rows; the objective descends
        # along d, which every row admits, so the pivots stall there first.
        rng = np.random.default_rng(5)
        n, m = 10, 60
        d = rng.integers(1, 4, size=n).astype(float)
        rows = rng.integers(-5, 6, size=(m, n)).astype(float)
        rows[rows @ d > 0] *= -1.0
        G = np.vstack([rows, -np.eye(n), np.ones((1, n))])
        h = np.concatenate([np.zeros(m + n), [1.0]])
        c = -d + rng.integers(-1, 2, size=n)
        pivots = []  # (degenerate, Dantzig's choice) per pivot

        def spy(T, basis, row, col):
            pivots.append((T[row, -1] <= solvers._PIVOT_TOL,
                           col == int(np.argmin(T[-1, :-1]))))
            pivot(T, basis, row, col)

        pivot = solvers._pivot
        monkeypatch.setattr(solvers, "_pivot", spy)
        raw = solve_lp_simplex(lp_data(c, G, h))
        ref = linprog(c, A_ub=G, b_ub=h, bounds=(None, None), method="highs")
        assert raw.status is Status.OPTIMAL
        assert raw.value == pytest.approx(ref.fun, rel=1e-9)
        degenerate = [deg for deg, _ in pivots]
        start = next(i for i in range(len(pivots))
                     if all(degenerate[i:i + solvers._DEGENERATE_RUN]))
        bland = start + solvers._DEGENERATE_RUN
        assert not all(dantzig for _, dantzig in pivots[bland:])
        resume = bland + degenerate[bland:].index(False) + 1
        assert all(dantzig for _, dantzig in pivots[resume:resume + 3])

    def test_matches_highs_on_benchmark_shaped_lps(self):
        # Dense LPs as the benchmark writes them (integer rows in [-5, 5],
        # sum of abs objective, box rows), with right-hand sides that can be
        # negative and, on odd seeds, two equality rows: phase one then needs
        # artificial columns.  Every third draw gets row 0 negated with its
        # bound pushed past -b, which no point satisfies.
        statuses = {0: Status.OPTIMAL, 2: Status.INFEASIBLE}
        seen = set()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 10 + 2 * seed
            rows = rng.integers(-5, 6, size=(n, n))
            rhs = rng.integers(-12, 21, size=n)
            center = rng.integers(-300, 301, size=n) / 100
            objective = " + ".join(f"abs({rng.integers(1, 6)}*x[{i}] - {center[i]})"
                                   for i in range(n))
            lines = [f"var x[{n}];", f"minimize {objective};", "subject to"]
            for k, (row, b) in enumerate(zip(rows, rhs)):
                rel = "==" if seed % 2 and k < 2 else "<="
                terms = " + ".join(f"{a}*x[{i}]" for i, a in enumerate(row))
                lines.append(f"  {terms} {rel} {b};")
            if seed % 3 == 2:
                terms = " + ".join(f"{-a}*x[{i}]" for i, a in enumerate(rows[0]))
                lines.append(f"  {terms} <= {-rhs[0] - 1};")
            lines += ["  x <= 10;", "  x >= -10;"]
            problem = parse_problem("\n".join(lines) + "\n")
            outcome = solve_problem(problem)
            assert outcome.report.target is TargetClass.LP
            data, raw = outcome.data, outcome.raw
            zero = data.cones.zero
            dense = data.A.toarray()
            G, h, A, b = dense[zero:], data.b[zero:], dense[:zero], data.b[:zero]
            ref = linprog(data.q, A_ub=G, b_ub=h,
                          A_eq=A if A.size else None,
                          b_eq=b if b.size else None,
                          bounds=(None, None), method="highs")
            assert raw.status is statuses[ref.status], seed
            seen.add(raw.status)
            if ref.status == 0:
                assert raw.value == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)
                assert np.all(G @ raw.x <= h + 1e-9)
                np.testing.assert_allclose(A @ raw.x, b, atol=1e-9)
        assert seen == {Status.OPTIMAL, Status.INFEASIBLE}

    @pytest.mark.parametrize("text", [
        "var x; var y; minimize abs(x-2)+abs(y); subject to x + y == 1; 2*x + 2*y == 2;",
        "var x; var y; minimize abs(x - 2) + abs(y + 1); subject to x == 1; x == 1; y >= -3;",
    ], ids=["scaled-copy", "repeated"])
    def test_redundant_equality_rows_match_highs(self, text):
        # The equality rows are linearly dependent, so after phase one at
        # least one artificial cannot be driven out: its row is zeroed and
        # phase two pivots around it.
        outcome = solve_problem(parse_problem(text))
        assert outcome.report.target is TargetClass.LP
        data, raw = outcome.data, outcome.raw
        zero = data.cones.zero
        dense = data.A.toarray()
        assert np.linalg.matrix_rank(dense[:zero]) < zero
        G, h, A, b = dense[zero:], data.b[zero:], dense[:zero], data.b[:zero]
        ref = linprog(data.q, A_ub=G, b_ub=h, A_eq=A, b_eq=b, bounds=(None, None),
                      method="highs")
        assert raw.status is Status.OPTIMAL and ref.status == 0
        assert raw.value == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
        assert np.all(G @ raw.x <= h + 1e-9)
        np.testing.assert_allclose(A @ raw.x, b, atol=1e-9)

    def test_peak_memory_is_one_tableau(self):
        """``tracemalloc`` peak of the simplex on the benchmark's dense LP at
        n = 80: one ``(m+1) × (N+1)`` tableau, with no artificial columns, no
        dense copy of ``A`` and no copy between the phases."""
        case = bench_workloads().dense_case(np.random.default_rng(80), "lp", 80, 80)
        problem = parse_problem(case.text)
        data = build_chain(problem, TargetClass.LP).apply(problem)[0]
        m, n = data.A.shape
        tableau = (m + 1) * (2 * n + m - data.cones.zero + 1) * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            raw = solve_lp_simplex(data)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert raw.status is Status.OPTIMAL
        assert peak < 1.3 * tableau, f"peak {peak / tableau:.2f} tableaus"


class TestQpAdmm:
    def test_unconstrained_scalar(self):
        raw = solve_qp_admm(qp_data([[1.0]], [-1.0]))
        assert raw.status is Status.OPTIMAL
        assert raw.x[0] == pytest.approx(1.0, abs=1e-4)
        assert raw.value == pytest.approx(-0.5, abs=1e-4)

    def test_toy_lp_through_qp_solver(self):
        data = qp_data(np.zeros((3, 3)), [0.0, 0.0, 1.0], **TOY)
        raw = solve_qp_admm(data)
        assert raw.status is Status.OPTIMAL
        assert raw.value == pytest.approx(1.0, abs=1e-4)
        np.testing.assert_allclose(raw.x, [-0.5, -0.5, 1.0], atol=1e-4)

    def test_equality_constrained(self):
        raw = solve_qp_admm(qp_data(np.eye(2), [0.0, 0.0], A=[[1, 1]], b=[2.0]))
        assert raw.status is Status.OPTIMAL
        np.testing.assert_allclose(raw.x, [1.0, 1.0], atol=1e-4)
        assert raw.value == pytest.approx(1.0, abs=1e-4)

    def test_active_box(self):
        raw = solve_qp_admm(qp_data([[1.0]], [-3.0], r=4.5, G=[[1]], h=[1.0]))
        assert raw.status is Status.OPTIMAL
        assert raw.x[0] == pytest.approx(1.0, abs=1e-4)
        assert raw.value + 4.5 == pytest.approx(2.0, abs=1e-4)

    def test_hinge_square_program(self):
        p = hinge_square_problem()
        data, _ = build_chain(p, TargetClass.QP).apply(p)
        raw = solve_qp_admm(data)
        assert raw.status is Status.OPTIMAL
        assert raw.value + data.offset == pytest.approx(0.0, abs=1e-5)
        assert data.cones.zero == 0 and (data.A.toarray() @ raw.x <= data.b + 1e-5).all()

    def test_zero_variable_problems(self):
        ok = ProgramData(np.zeros((0, 0)), np.zeros(0), 0.0, np.zeros((1, 0)),
                         np.array([1.0]), ConeDims(0, 1, ()), {}, ())
        assert solve_qp_admm(ok).status is Status.OPTIMAL
        bad = ProgramData(np.zeros((0, 0)), np.zeros(0), 0.0, np.zeros((1, 0)),
                          np.array([-1.0]), ConeDims(0, 1, ()), {}, ())
        assert solve_qp_admm(bad).status is Status.INFEASIBLE

    def test_iteration_limit_status(self):
        data = qp_data(np.eye(2), [1.0, -2.0], A=[[1, 1]], b=[2.0])
        raw = solve_qp_admm(data, SolverSettings(max_iterations=2))
        assert raw.status is Status.ITERATION_LIMIT
        assert raw.message

    @pytest.mark.parametrize("P, G, reason", [
        ([[1.0, 0.0], [0.0, math.nan]], [[1.0, 1.0]], "non-finite"),
        (np.eye(2), [[math.inf, 1.0]], "non-finite"),
        ([[-1e-6, 0.0], [0.0, 1.0]], None, "singular"),  # P + sigma*I has a zero pivot
    ])
    def test_bad_kkt_reports_error(self, P, G, reason):
        h = None if G is None else [1.0]
        raw = solve_qp_admm(qp_data(P, [0.0, 0.0], G=G, h=h))
        assert raw.status is Status.ERROR
        assert "KKT factorization failed" in raw.message and reason in raw.message
        assert raw.iterations == 0 and math.isnan(raw.value)

    def test_factor_fill_is_linear_on_box_rows(self):
        nnz = {}
        for n in (100, 200, 400):
            raw = solve_qp_admm(wide_qp_data(n))
            assert raw.status is Status.OPTIMAL and raw.factor_s > 0.0
            nnz[n] = raw.factor_nnz
        # P is diagonal and every row of G has one or two nonzeros, so the
        # fill per variable is a constant; a dense factor would grow as n^2.
        assert nnz[200] == pytest.approx(2 * nnz[100], rel=0.02)
        assert nnz[400] == pytest.approx(2 * nnz[200], rel=0.02)

    def test_solve_memory_stays_small(self):
        """``tracemalloc`` peak of one solve at n = 400 (width 800, 1600 rows).

        A dense (n+m)^2 KKT matrix alone would be 44 MB here.  SuperLU's own
        C allocations for its factors are outside ``tracemalloc``; the fill
        test above bounds them through ``factor_nnz``.
        """
        data = wide_qp_data(400)
        tracemalloc.start()
        try:
            raw = solve_qp_admm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert raw.status is Status.OPTIMAL
        assert peak < 16 * 2**20, f"solve_qp_admm peaked at {peak / 2**20:.1f} MB"


class TestConeAdmm:
    def cone_solve(self, problem, **cfg):
        config = RewriterConfig(forced_target=TargetClass.CONE, **cfg)
        return solve_problem(problem, config)

    def test_norm_of_fixed_point(self):
        d = ex.VariableDecl(0, "x", 2)
        cons = [(ex.var_ref(d), ex.Relation.EQ, ex.constant(np.array([3.0, 4.0])))]
        p = ex.make_problem(ex.Sense.MINIMIZE, ex.norm2(ex.var_ref(d)), cons, [d])
        out = self.cone_solve(p)
        assert out.solution.status is Status.OPTIMAL
        assert out.solution.value == pytest.approx(5.0, abs=1e-4)

    def test_toy_via_cone_path(self):
        out = self.cone_solve(toy_problem())
        assert out.solution.status is Status.OPTIMAL
        assert out.solution.value == pytest.approx(1.0, abs=1e-4)
        np.testing.assert_allclose(out.solution.primal[0], [-0.5], atol=1e-4)
        np.testing.assert_allclose(out.solution.primal[1], [-0.5], atol=1e-4)

    def test_square_boundary_tightness(self):
        dx = ex.VariableDecl(0, "x")
        x = ex.var_ref(dx)
        p = ex.make_problem(ex.Sense.MINIMIZE, ex.square(x),
                            [(x, ex.Relation.GE, ex.constant(3.0))], [dx])
        out = self.cone_solve(p)
        assert out.solution.status is Status.OPTIMAL
        assert out.solution.value == pytest.approx(9.0, abs=1e-3)
        assert out.solution.primal[0][0] == pytest.approx(3.0, abs=1e-3)

    def test_decomposed_path_agrees(self):
        d = ex.VariableDecl(0, "x", 4)
        cons = [(ex.var_ref(d), ex.Relation.EQ,
                 ex.constant(np.array([1.0, 2.0, -2.0, 4.0])))]
        p = ex.make_problem(ex.Sense.MINIMIZE, ex.norm2(ex.var_ref(d)), cons, [d])
        plain = self.cone_solve(p)
        split = self.cone_solve(p, decompose_soc=True)
        expected = float(np.linalg.norm([1.0, 2.0, -2.0, 4.0]))
        assert plain.solution.value == pytest.approx(expected, abs=1e-4)
        assert split.solution.value == pytest.approx(expected, abs=1e-4)
        assert set(split.solution.primal) == {0}

    def test_zero_variable_problems(self):
        feas = ProgramData(None, np.zeros(0), 0.0, np.zeros((1, 0)),
                           np.array([2.0]), ConeDims(0, 1, ()), {}, ())
        assert solve_cone_admm(feas).status is Status.OPTIMAL
        infeas = ProgramData(None, np.zeros(0), 0.0, np.zeros((1, 0)),
                             np.array([-2.0]), ConeDims(0, 1, ()), {}, ())
        assert solve_cone_admm(infeas).status is Status.INFEASIBLE

    # The row 0·x = 1 is infeasible: y grows along δy = -1, with Aᵀδy = 0,
    # bᵀδy < 0 and δy free (the zero cone's dual), at any rho.
    INFEASIBLE_ROW = ProgramData(None, np.array([1.0]), 0.0, np.array([[0.0]]),
                                 np.array([1.0]), ConeDims(1, 0, ()), {0: (0, 1)}, ())

    def test_infeasible_row_certified_at_high_rho(self, monkeypatch):
        monkeypatch.setattr(solvers, "_RHO0", 1e4)
        raw = solve_cone_admm(self.INFEASIBLE_ROW)
        assert raw.status is Status.INFEASIBLE and raw.value == math.inf
        assert raw.message == "certificate of primal infeasibility"

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_matrix_reports_error(self, bad):
        data = ProgramData(None, np.array([1.0, 0.0]), 0.0, np.array([[1.0, bad]]),
                           np.array([1.0]), ConeDims(0, 1, ()), {0: (0, 2)}, ())
        raw = solve_cone_admm(data)
        assert raw.status is Status.ERROR
        assert "KKT factorization failed: non-finite" in raw.message

    def test_factor_stats_reported(self):
        data = ProgramData(None, np.array([1.0]), 0.0, np.array([[-1.0]]),
                           np.array([-2.0]), ConeDims(0, 1, ()), {0: (0, 1)}, ())
        raw = solve_cone_admm(data)
        assert raw.status is Status.OPTIMAL and raw.x[0] == pytest.approx(2.0, abs=1e-4)
        assert raw.factor_s > 0.0 and raw.factor_nnz >= 1

    def test_infeasible_row_certified_within_100_iterations(self):
        raw = solve_cone_admm(self.INFEASIBLE_ROW, SolverSettings(max_iterations=100))
        assert raw.status is Status.INFEASIBLE and raw.iterations <= 100
        assert raw.message == "certificate of primal infeasibility"



def equilibrate_coo(P, A, cones):
    """The COO form of ``solvers._equilibrate``: ``ufunc.at`` maxima over the
    triplets and a COO-built CSR of the scaled entries."""
    P, A = P.tocoo(), A.tocoo()
    m, n = A.shape
    d, e = np.ones(n), np.ones(m)
    head = cones.zero + cones.nonneg
    starts = np.cumsum((0,) + cones.soc[:-1], dtype=np.intp)
    for _ in range(solvers._RUIZ_PASSES):
        a = np.abs(A.data) * e[A.row] * d[A.col]
        col, row = np.zeros(n), np.zeros(m)
        np.fmax.at(col, P.col, np.abs(P.data) * d[P.row] * d[P.col])
        np.fmax.at(col, A.col, a)
        np.fmax.at(row, A.row, a)
        if cones.soc:
            row[head:] = np.repeat(np.fmax.reduceat(row[head:], starts), cones.soc)
        d /= np.sqrt(np.where(col < 1e-4, 1.0, np.minimum(col, 1e4)))
        e /= np.sqrt(np.where(row < 1e-4, 1.0, np.minimum(row, 1e4)))
    return d, e, *(sp.csr_matrix((M.data * s[M.row] * d[M.col], (M.row, M.col)),
                                 shape=M.shape) for M, s in ((P, d), (A, e)))


def random_program(rng, n, cones, quadratic=True, nan=False):
    """ProgramData with random sparse ``P`` and ``A`` in [-1e3, 1e3]: some rows
    and columns empty, a tenth of the stored entries zero, and one NaN."""
    m = cones.total

    def sparse(rows, cols, density):
        dense = np.where(rng.random((rows, cols)) < density,
                         rng.uniform(-1.0, 1.0, (rows, cols)) * 10.0 ** rng.integers(-3, 4),
                         0.0)
        dense[rng.random(rows) < 0.2] = 0.0
        dense[:, rng.random(cols) < 0.2] = 0.0
        r, c = np.nonzero(dense)
        vals = np.where(rng.random(r.size) < 0.1, 0.0, dense[r, c])
        if nan and vals.size:
            vals[rng.integers(vals.size)] = math.nan
        return sp.csr_matrix((vals, (r, c)), shape=(rows, cols))

    P = None
    if quadratic:
        B = sparse(n, n, 0.3)
        P = B + B.T
        P.data[rng.random(P.nnz) < 0.1] = 0.0
    return ProgramData(P, rng.normal(size=n), 0.0, sparse(m, n, 0.3), rng.normal(size=m),
                       cones, {}, ())


SETUP_CASES = [  # (n, cones, quadratic)
    (6, ConeDims(2, 5, ()), True),
    (6, ConeDims(0, 4, ()), False),
    (5, ConeDims(0, 0, ()), True),  # no rows, as probe-qp-unbounded
    (5, ConeDims(0, 0, ()), False),
    (8, ConeDims(1, 3, (3, 4, 3, 2)), False),
    (7, ConeDims(0, 2, (5, 1)), True),
    (30, ConeDims(4, 20, (4, 4, 6)), True),
]


class TestSplittingSetup:
    """The solver's setup against the COO and ``sp.bmat`` forms it replaced,
    bit for bit: any difference would move every splitting iterate."""

    @staticmethod
    def same_bits(M, N):
        return all(getattr(M, k).dtype == getattr(N, k).dtype
                   and getattr(M, k).tobytes() == getattr(N, k).tobytes()
                   for k in ("indptr", "indices", "data"))

    @pytest.mark.parametrize("n, cones, quadratic", SETUP_CASES)
    @pytest.mark.parametrize("nan", [False, True])
    def test_equilibrate_matches_coo_form(self, n, cones, quadratic, nan):
        for seed in range(5):
            data = random_program(np.random.default_rng(seed), n, cones, quadratic, nan)
            P = sp.csr_matrix((n, n)) if data.P is None else data.P
            got = solvers._equilibrate(P, data.A, cones)
            want = equilibrate_coo(P, data.A, cones)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert self.same_bits(got[2], want[2]) and self.same_bits(got[3], want[3])

    @pytest.mark.parametrize("n, cones, quadratic", SETUP_CASES)
    def test_kkt_matches_bmat(self, n, cones, quadratic):
        m = cones.total
        for seed in range(5):
            data = random_program(np.random.default_rng(seed), n, cones, quadratic)
            P = sp.csr_matrix((n, n)) if data.P is None else data.P
            _, _, P, A = solvers._equilibrate(P, data.A, cones)
            rows, lead = solvers._order(P, A, cones.zero)
            kkt, diagonal = solvers._kkt(P, A, rows, lead)
            by_position = np.argsort(rows)
            early, late = A[by_position[:lead]], A[by_position[lead:]]
            want = sp.bmat([[-sp.eye(lead), early, None],
                            [early.T, P + solvers._SIGMA * sp.eye(n), late.T],
                            [None, late, -sp.eye(m - lead)]], format="csc")
            assert self.same_bits(kkt, want)
            # each row's -1/ρ entry sits on the diagonal at the row's position
            columns = np.searchsorted(kkt.indptr, diagonal, side="right") - 1
            assert kkt.indices[diagonal].tolist() == columns.tolist() == rows.tolist()
            assert (kkt.data[diagonal] == -1.0).all()


class TestKktOrder:
    """The fixed block order: early rows, the variables, then the late rows."""

    def test_equality_and_dense_rows_go_last(self):
        n = 30
        box = np.vstack([np.eye(n), -np.eye(n)])
        pairs = np.zeros((2, n))
        pairs[[0, 1], [0, 2]], pairs[[0, 1], [1, 3]] = 1.0, -1.0
        dense = np.ones((1, n))  # 30² entries fill more than the 311 of the matrix
        A = np.vstack([pairs, box[:5], dense, box[5:]])
        rows, lead = solvers._order(sp.eye(n, format="csr"), sp.csr_matrix(A), 2)
        assert lead == 2 * n
        assert rows.tolist() == [lead + n, lead + n + 1, *range(5), lead + n + 2,
                                 *range(5, 2 * n)]

    @pytest.mark.parametrize("row", ["sum(x) <= 1", "sum(x) == 1"])
    def test_a_dense_row_keeps_the_fill_linear(self, row):
        # eliminated early, a row of n entries would fill an n×n block: with
        # the inequality row first, n = 2000 factors in 10 s to 4.05M L+U
        # entries, against 0.01 s and 52k entries with it last
        nnz = {}
        for n in (1000, 2000):
            case = bench_workloads().wide_case(np.random.default_rng(n), "wide-qp", n)
            outcome = solve_problem(parse_problem(case.text + f"  {row};\n"))
            assert outcome.solution.status is Status.OPTIMAL, outcome.raw.message
            nnz[n] = outcome.raw.factor_nnz
        assert nnz[2000] <= 2.05 * nnz[1000]

    def test_equality_pairs_factor_with_little_fill(self):
        # equality rows eliminated early pivot off the diagonal
        n = 2000
        center = ", ".join(f"{v:.2f}" for v in np.linspace(-3.0, 3.0, n))
        pairs = "".join(f"  x[{2 * i}] - x[{2 * i + 1}] == {0.1 * (i % 7):.1f};\n"
                        for i in range(n // 2))
        problem = parse_problem(f"var x[{n}];\nminimize sum_squares(x - [{center}]);\n"
                                f"subject to\n{pairs}  x <= 10;\n  x >= -10;\n")
        outcome = solve_problem(problem)
        assert outcome.solution.status is Status.OPTIMAL
        data = build_chain(problem, TargetClass.QP).apply(problem)[0]
        _, _, P, A = solvers._equilibrate(data.P, data.A, data.cones)
        rows, lead = solvers._order(P, A, data.cones.zero)
        kkt, _ = solvers._kkt(P, A, rows, lead)
        assert lead == 2 * n
        assert outcome.raw.factor_nnz <= 3 * kkt.nnz


ROUTES = {"auto": RewriterConfig(), "admm": RewriterConfig(solver="admm"),
          "cone": RewriterConfig(forced_target=TargetClass.CONE)}


def slsqp_optimum(objective, rows, rhs, n):
    """SLSQP's optimum of ``objective`` over ``rows @ x <= rhs``, ``-10 <= x <= 10``."""
    res = minimize(objective, np.zeros(n), method="SLSQP", bounds=[(-10, 10)] * n,
                   constraints=[{"type": "ineq", "fun": lambda x: rhs - rows @ x,
                                 "jac": lambda x: -rows}],
                   options={"maxiter": 1000, "ftol": 1e-12})
    assert res.success, res.message
    return res


class TestTruthfulStatus:
    """Certificates on every route, and none on a feasible, bounded problem."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("name", PROBES)
    def test_probes_certified(self, name, route):
        text, expected = PROBES[name]
        outcome = solve_problem(parse_problem(text), ROUTES[route])
        assert outcome.solution.status is expected
        if outcome.report.target is not TargetClass.LP or route != "auto":
            assert outcome.raw.message.startswith("certificate of")
            assert outcome.raw.iterations <= 100

    # A descent ray of each objective passes the certificate, but no point
    # meets the rows; the no-objective solve after the ray decides infeasible.
    RAY_OVER_NO_POINT = {
        "square": "var x; var y; minimize square(x) - y; subject to x >= 1; x <= 0;",
        "norm2": "var x; var y; minimize norm2(x) - y; subject to x >= 1; x <= 0;",
        "constant-row": "var x; var y; minimize square(x) + y; subject to 3 <= 1;",
    }

    @pytest.mark.parametrize("route", [*ROUTES, "qp"])
    @pytest.mark.parametrize("name", RAY_OVER_NO_POINT)
    def test_ray_over_infeasible_rows_is_infeasible(self, name, route):
        config = ROUTES.get(route, RewriterConfig(forced_target=TargetClass.QP))
        outcome = solve_problem(parse_problem(self.RAY_OVER_NO_POINT[name]), config)
        if name == "norm2" and route == "qp":
            assert outcome.report.target is None  # not a QP
            return
        assert outcome.solution.status is Status.INFEASIBLE
        assert outcome.raw.message == "certificate of primal infeasibility"
        assert outcome.raw.iterations <= 100

    def test_ray_check_counts_both_solves(self):
        # min ½x² - y  s.t.  x >= 1, x <= 0: y is a descent ray
        data = program_data([[1.0, 0.0], [0.0, 0.0]], [0.0, -1.0],
                            G=[[-1.0, 0.0], [1.0, 0.0]], h=[-1.0, 0.0])
        first = solve_qp_admm(data)
        assert first.status is Status.INFEASIBLE
        check = solve_qp_admm(program_data(None, [0.0, 0.0], G=[[-1.0, 0.0], [1.0, 0.0]],
                                           h=[-1.0, 0.0]))
        assert check.status is Status.INFEASIBLE
        assert first.iterations == 25 + check.iterations

    def test_undecided_ray_reports_no_point(self):
        data = program_data(None, [0.0, -1.0], G=[[-1.0, 0.0], [1.0, 0.0]], h=[-1.0, 0.0])
        raw = solvers._decide_ray(data, SolverSettings(max_iterations=2), 25,
                                  {"factor_s": 0.5})
        assert raw.status is Status.ITERATION_LIMIT
        assert raw.iterations == 27 and raw.factor_s > 0.5
        assert raw.x.tolist() == [0.0, 0.0] and math.isnan(raw.value)
        assert "feasibility was not decided" in raw.message

    @pytest.mark.parametrize("rho", [0.01, 1.0, 100.0])
    def test_redundant_rows_certify_nothing(self, rho, monkeypatch):
        # min x  s.t.  3x <= 1, 3x <= 2, -5 <= x <= 5.  Moving dual weight
        # from one parallel row to the other gives Aᵀδy = 0 and bᵀδy < 0, but
        # that δy has a negative entry, outside the dual cone.
        data = program_data(None, [1.0], G=[[3.0], [3.0], [1.0], [-1.0]],
                            h=[1.0, 2.0, 5.0, 5.0])
        monkeypatch.setattr(solvers, "_RHO0", rho)
        raw = solve_qp_admm(data)
        assert raw.status is Status.OPTIMAL
        assert raw.x[0] == pytest.approx(-5.0, abs=1e-5)

    @pytest.mark.parametrize("objective", ["square(1e50*x)", "sum_squares(1e50*x)",
                                           "square(1e100*x)", "square(1e200*x)"])
    def test_subnormal_steps_certify_nothing(self, objective):
        # The optimum is 0 at x = 0.  The iterate changes decay to
        # subnormals, where A δx rounds to 0, so tests read on δ itself
        # certified dual infeasibility at iteration 2325.
        config = RewriterConfig(forced_target=TargetClass.CONE,
                                settings=SolverSettings(max_iterations=2500))
        outcome = solve_problem(parse_problem(f"var x; minimize {objective};"), config)
        assert outcome.solution.status is Status.ITERATION_LIMIT
        assert outcome.solution.primal[0].tolist() == [0.0]

    def test_large_net_coefficients_converge(self):
        # 300 terms cycling over x[k % 4]: net coefficients of +-75 in the
        # objective and 75 in the row.  Fixed rho with unscaled data stopped
        # at the iteration limit here.
        tail = "".join(f" {'+-'[k % 2]} x[{k % 4}]" for k in range(1, 301))
        row = " + ".join(f"x[{k % 4}]" for k in range(300))
        outcome = solve_problem(parse_problem(
            f"var x[4];\nminimize sum_squares(x - [1, 2, 3, 4]){tail};\n"
            f"subject to\n  {row} <= 7;\n  x <= 10;\n  x >= -10;\n"))
        center, linear = np.arange(1.0, 5.0), np.array([75.0, -75.0, 75.0, -75.0])
        ref = slsqp_optimum(lambda x: np.sum((x - center) ** 2) + linear @ x,
                            np.full((1, 4), 75.0), np.array([7.0]), 4)
        assert outcome.solution.status is Status.OPTIMAL
        assert outcome.solution.value == pytest.approx(ref.fun, rel=1e-4)
        np.testing.assert_allclose(outcome.solution.primal[0], ref.x, atol=1e-4)

    @pytest.mark.parametrize("family", ["qp", "cone"])
    def test_benchmark_shaped_draws_match_slsqp(self, family):
        dense_case = bench_workloads().dense_case
        for seed in range(10):
            n = 8 + 2 * seed
            case = dense_case(np.random.default_rng(seed), family, n, n)
            outcome = solve_problem(parse_problem(case.text))
            a, c = case.weights, case.center
            if family == "qp":
                objective = lambda x: np.sum((a * x - c) ** 2)
            else:
                objective = lambda x: (np.linalg.norm(x - c)
                                       + np.sum((a * x) ** 2))
            ref = slsqp_optimum(objective, case.rows, case.rhs, n)
            solution = outcome.solution
            assert solution.status is Status.OPTIMAL, (seed, outcome.raw.message)
            x = solution.primal[0]
            # each row holds to 1e-6 relative, as the benchmark checks it
            assert np.all(case.rows @ x - case.rhs <= 1e-6 * (1 + case.rhs)), seed
            assert np.all(np.abs(x) <= 10 + 1.1e-5), seed
            assert solution.value == pytest.approx(ref.fun, rel=1e-4, abs=1e-4), seed

    @pytest.mark.parametrize("route", ["admm", "cone"])
    def test_n40_lp_converges_on_admm_routes(self, route):
        case = bench_workloads().dense_case(np.random.default_rng(40), "lp", 40, 40)
        problem = parse_problem(case.text)
        exact = solve_problem(problem).solution
        outcome = solve_problem(problem, ROUTES[route])
        assert exact.status is Status.OPTIMAL
        assert exact.value == pytest.approx(17.104839, abs=1e-6)
        assert outcome.solution.status is Status.OPTIMAL
        assert outcome.solution.value == pytest.approx(exact.value, abs=1e-4)


def project_cone_loop(v, cones):
    """The per-cone reference projection: one Python step per SOC block."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    cursor = cones.zero
    out[:cursor] = 0.0
    out[cursor:cursor + cones.nonneg] = np.maximum(
        v[cursor:cursor + cones.nonneg], 0.0)
    cursor += cones.nonneg
    for size in cones.soc:
        t = v[cursor]
        x = v[cursor + 1:cursor + size]
        nx = float(np.linalg.norm(x))
        if nx <= t:
            out[cursor:cursor + size] = v[cursor:cursor + size]
        elif nx <= -t:
            out[cursor:cursor + size] = 0.0
        else:
            scale = 0.5 * (1.0 + t / nx)
            out[cursor] = scale * nx
            out[cursor + 1:cursor + size] = scale * x
        cursor += size
    return out


def project_cone_reference(v, cones):
    """The per-size projection that ``project_cone`` replaced: each size's
    blocks gathered as one ``(count, size)`` array, norms by batched matmul."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    head = cones.zero + cones.nonneg
    out[:cones.zero] = 0.0
    np.maximum(v[cones.zero:head], 0.0, out=out[cones.zero:head])
    sizes = np.asarray(cones.soc, dtype=np.intp)
    starts = head + np.cumsum(sizes) - sizes
    for size in np.unique(sizes):
        rows = starts[sizes == size, None] + np.arange(size)
        block = v[rows]
        t, x = block[:, 0], block[:, 1:]
        nx = np.sqrt((x[:, None, :] @ x[:, :, None]).ravel())
        inside, shell = nx <= t, nx > np.abs(t)
        scale = inside.astype(float)
        scale[shell] = 0.5 * (1.0 + t[shell] / nx[shell])
        x *= scale[:, None]
        block[:, 0] = np.where(inside, t, scale * nx)
        out[rows] = block
    return out


def random_soc_block(rng, size):
    """An SOC block of ``size`` rows: random, all zero, signed zeros, on
    ``|x| = t`` or ``|x| = -t``, or ``x = 0`` under a head of either sign."""
    block = rng.normal(scale=3.0, size=size)
    case = rng.integers(6)
    if case == 1:
        block[:] = 0.0
    elif case == 2:
        block[:] = rng.choice([0.0, -0.0], size=size)
    elif case == 3 and size > 1:  # |x| == ±t
        block[0] = rng.choice([-1.0, 1.0]) * np.linalg.norm(block[1:])
    elif case == 4 and size > 1:  # |x| == ±t exactly: a 3-4-5 triangle
        block[:] = 0.0
        block[0] = rng.choice([-5.0, 5.0])
        block[1], block[-1] = (3.0, -4.0) if size > 2 else (rng.choice([-5.0, 5.0]), 0.0)
    elif case == 5:  # nx = 0
        block[1:] = 0.0
    return block


class TestProjectCone:
    MIXED = ConeDims(2, 3, (3, 2, 5, 3, 251, 2))

    def test_matches_per_size_reference_bit_for_bit(self):
        rng = np.random.default_rng(24)
        for trial in range(400):
            sizes = tuple(int(rng.choice([1, 2, 3, 5])) for _ in range(rng.integers(9)))
            if trial % 4 == 0:  # a 251-row block among them
                sizes = sizes[:2] + (251,) + sizes[2:]
            cones = ConeDims(int(rng.integers(4)), int(rng.integers(6)), sizes)
            head = cones.zero + cones.nonneg
            v = np.concatenate([rng.choice([-1.0, -0.0, 0.0, 2.0], size=head)]
                               + [random_soc_block(rng, size) for size in sizes])
            want = project_cone_reference(v, cones)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = project_cone(v, cones)
                planned = project_cone(v, cones, solvers._soc_plan(cones))
            assert got.tobytes() == planned.tobytes() == want.tobytes(), (trial, cones)

    def test_matches_per_cone_loop(self):
        # Each SOC block is random, on |x| == t, on |x| == -t, or x = 0 with
        # t < 0; the cases interleave across the mixed sizes.
        rng = np.random.default_rng(11)
        for _ in range(300):
            v = rng.normal(scale=3.0, size=self.MIXED.total)
            cursor = self.MIXED.zero + self.MIXED.nonneg
            for size in self.MIXED.soc:
                block = v[cursor:cursor + size]
                case = rng.integers(4)
                if case < 2:  # |x| == +-t: a 3-4-5 triangle, or |x1| == |t|
                    block[:] = 0.0
                    if size == 2:
                        block[:] = [3.0, rng.choice([-3.0, 3.0])]
                    else:
                        block[[0, 1, size - 1]] = [5.0, 3.0, -4.0]
                    block[0] *= (1.0, -1.0)[case]
                elif case == 2:
                    block[:] = 0.0
                    block[0] = -1.0 - rng.random()
                cursor += size
            np.testing.assert_allclose(project_cone(v, self.MIXED),
                                       project_cone_loop(v, self.MIXED),
                                       rtol=0.0, atol=1e-15)

    def test_nonneg_block(self):
        out = project_cone(np.array([-1.0, 2.0]), ConeDims(0, 2, ()))
        np.testing.assert_array_equal(out, [0.0, 2.0])

    def test_zero_block(self):
        out = project_cone(np.array([3.0, -4.0]), ConeDims(2, 0, ()))
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_soc_inside_unchanged(self):
        v = np.array([5.0, 3.0, 0.0])
        np.testing.assert_array_equal(project_cone(v, ConeDims(0, 0, (3,))), v)

    def test_soc_polar_maps_to_origin(self):
        v = np.array([-5.0, 3.0, 4.0])
        np.testing.assert_array_equal(project_cone(v, ConeDims(0, 0, (3,))),
                                      np.zeros(3))

    def test_soc_shell_formula(self):
        out = project_cone(np.array([0.0, 1.0, 0.0]), ConeDims(0, 0, (3,)))
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0])
        # optimality: the residual is orthogonal to the projection
        v = np.array([0.0, 1.0, 0.0])
        assert abs((v - out) @ out) < 1e-12

    def test_mixed_blocks(self):
        v = np.array([7.0, -1.0, 2.0, 0.0, 1.0, 0.0])
        out = project_cone(v, ConeDims(1, 2, (3,)))
        np.testing.assert_allclose(out, [0.0, 0.0, 2.0, 0.5, 0.5, 0.0])

    def test_idempotence_on_random_vectors(self):
        rng = np.random.default_rng(99)
        cones = ConeDims(2, 3, (3, 4))
        for _ in range(1000):
            v = rng.normal(scale=3.0, size=cones.total)
            once = project_cone(v, cones)
            twice = project_cone(once, cones)
            np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_projection_is_nearest_point(self):
        rng = np.random.default_rng(123)
        nonneg = ConeDims(0, 4, ())
        soc = ConeDims(0, 0, (4,))
        for cones, member in [
            (nonneg, lambda: np.abs(rng.normal(size=4))),
            (soc, lambda: self._soc_member(rng)),
        ]:
            for _ in range(100):
                v = rng.normal(scale=2.0, size=4)
                p = project_cone(v, cones)
                k = member()
                assert np.linalg.norm(v - p) <= np.linalg.norm(v - k) + 1e-9

    @staticmethod
    def _soc_member(rng):
        x = rng.normal(size=3)
        t = np.linalg.norm(x) + abs(rng.normal())
        return np.concatenate([[t], x])
