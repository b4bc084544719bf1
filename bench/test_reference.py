"""Tests of the benchmark's reference computations, on tiny instances.

Run with `python -m pytest bench`.  None of these import dcpc: they check
the references themselves against brute force and scipy.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

import reference as ref
from workloads import BOX, dense_case, probe_cases, wide_case


def _grid_min(case, center, half_width, steps):
    """Least objective over the feasible points of a square grid."""
    axis = np.linspace(-half_width, half_width, steps)
    X, Y = np.meshgrid(center[0] + axis, center[1] + axis)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    R, h = ref.generator_rows(case)
    pts = pts[np.all(pts @ R.T <= h + 1e-12, axis=1)]
    values = ref.objective(case, pts)
    best = int(np.argmin(values))
    return float(values[best]), pts[best]


def _brute_force(case):
    """Coarse grid over the box, then a fine grid around its best point."""
    _, best = _grid_min(case, np.zeros(2), BOX, 1001)
    value, best = _grid_min(case, best, 0.05, 1001)
    return value


@pytest.mark.parametrize("seed", range(6))
def test_lp_reference_agrees_with_grid(seed):
    case = dense_case(np.random.default_rng(seed), "lp", 2, 2)
    value = ref.lp_reference(case)
    grid = _brute_force(case)
    assert value <= grid + 1e-9
    assert grid - value <= 5e-3


@pytest.mark.parametrize("family", ["qp", "cone"])
@pytest.mark.parametrize("seed", range(4))
def test_smooth_reference_agrees_with_grid(family, seed):
    case = dense_case(np.random.default_rng(seed), family, 2, 2)
    value = ref.smooth_reference(case)
    grid = _brute_force(case)
    assert value <= grid + 1e-9
    assert grid - value <= 5e-3


@pytest.mark.parametrize("family", ["wide-qp", "wide-cone"])
@pytest.mark.parametrize("seed", range(6))
def test_wide_closed_form_agrees_with_minimize(family, seed):
    case = wide_case(np.random.default_rng(seed), family, 3)
    closed = ref.wide_optimum(case)
    res = minimize(lambda x: ref.objective(case, x), np.zeros(3),
                   method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000})
    assert ref.max_violation(case, closed) == 0.0
    assert ref.objective(case, closed) <= res.fun + 1e-12
    assert np.max(np.abs(closed - res.x)) <= 1e-4


def _lp_document(case, corrupt=None):
    """The standard form of a 2-variable LP case, written out by hand."""
    a, c = case.weights, case.center
    R, h = ref.generator_rows(case)
    G = [[a[0], 0, -1, 0], [-a[0], 0, -1, 0], [0, a[1], 0, -1], [0, -a[1], 0, -1]]
    G += [list(row) + [0, 0] for row in R]
    hvec = [c[0], -c[0], c[1], -c[1]] + list(h)
    cost = [0.0, 0.0, 1.0, 1.0]
    if corrupt == "row":
        G[4] = [-v for v in G[4]]
    elif corrupt == "cost":
        cost[3] = 2.0
    return {"target": "lp", "data": {
        "c": cost, "G": G, "h": hvec, "A": [], "b": [], "offset": 0.0,
        "var_offsets": {"x": [0, 2], "_t1": [2, 2]}}}


def test_document_check_accepts_a_right_document():
    case = dense_case(np.random.default_rng(3), "lp", 2, 2)
    doc = _lp_document(case)
    assert ref.check_document(case, doc, ref.lp_reference(case)) == ""


@pytest.mark.parametrize("corrupt", ["row", "cost"])
def test_document_check_rejects_a_wrong_document(corrupt):
    case = dense_case(np.random.default_rng(3), "lp", 2, 2)
    doc = _lp_document(case, corrupt)
    assert ref.check_document(case, doc, ref.lp_reference(case)) != ""


def test_document_check_reads_second_order_cones():
    # norm2(x - c) + square(a0*x0) + square(a1*x1) as dcpc's cone form
    # writes it: s = b - A z with z = (x0, x1, t, u0, u1).
    case = dense_case(np.random.default_rng(5), "cone", 2, 2)
    a, c = case.weights, case.center
    R, h = ref.generator_rows(case)
    A = [list(row) + [0, 0, 0] for row in R]             # nonneg rows
    A += [[0, 0, -1, 0, 0], [-1, 0, 0, 0, 0], [0, -1, 0, 0, 0]]  # (t, x - c)
    b = list(h) + [0.0, -c[0], -c[1]]
    for i in range(2):                                    # (1+u, 2ax, 1-u)
        e = [0.0] * 5
        row_t, row_y, row_s = list(e), list(e), list(e)
        row_t[3 + i], row_y[i], row_s[3 + i] = -1.0, -2.0 * a[i], 1.0
        A += [row_t, row_y, row_s]
        b += [1.0, 0.0, 1.0]
    doc = {"target": "cone", "data": {
        "c": [0, 0, 1, 1, 1], "A": A, "b": b, "offset": 0.0,
        "cones": {"zero": 0, "nonneg": len(h), "soc": [3, 3, 3]},
        "var_offsets": {"x": [0, 2], "_t2": [2, 1], "_t3": [3, 1], "_t4": [4, 1]}}}
    assert ref.check_document(case, doc, None) == ""
    doc["data"]["b"][len(h) + 1] += 0.5                   # shift a center
    assert ref.check_document(case, doc, None) != ""


def test_check_solution_flags_wrong_answers():
    case = dense_case(np.random.default_rng(1), "lp", 2, 2)
    value = ref.lp_reference(case)
    outside = np.array([BOX + 1.0, 0.0])
    assert "violates" in ref.check_solution(
        case, "optimal", ref.objective(case, outside), outside, value)
    origin = np.zeros(2)
    at_origin = ref.objective(case, origin)
    if at_origin - value > 1e-3:
        assert "HiGHS" in ref.check_solution(case, "optimal", at_origin, origin, value)
    assert "status" in ref.check_solution(case, "iteration_limit", value, origin, value)
    probe = probe_cases()[2]
    assert ref.check_solution(probe, probe.expect, float("inf"), None, None) == ""
