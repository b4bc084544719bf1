"""Reference computations made apart from dcpc.

Everything here reads only the generator's numbers (`workloads.Case`) or the
standard-form JSON document dcpc emits; nothing calls into dcpc.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog, minimize

from workloads import BOX, Case

# Tolerances sit about a hundred times above the largest error seen on
# correct answers (splitting solvers stop at residuals of 1e-6).
FEAS_TOL = 1e-6     # row violation allowed in a returned point, scaled by 1 + |rhs|
LP_TOL = 1e-7       # simplex optima against HiGHS, scaled by max(1, |ref|)
ADMM_TOL = 1e-5     # splitting-solver values against a reference, same scaling
POINT_TOL = 1e-4    # distance of a solve-wide point from its closed form
DOC_TOL = 1e-7      # emitted documents evaluated against the generator's objective


# --- the generator's problem ------------------------------------------------


def objective(case: Case, x: np.ndarray):
    """The objective the generator wrote, at x (or at each row of an array)."""
    a, c = case.weights, case.center
    if case.family == "lp":
        value = np.abs(a * x - c).sum(axis=-1)
    elif case.family == "qp":
        value = ((a * x - c) ** 2).sum(axis=-1)
    elif case.family == "cone":
        value = np.linalg.norm(x - c, axis=-1) + ((a * x) ** 2).sum(axis=-1)
    elif case.family == "wide-qp":
        value = ((x - c) ** 2).sum(axis=-1) + np.abs(x).sum(axis=-1)
    elif case.family == "wide-cone":
        value = np.linalg.norm(x - c, axis=-1) + (x ** 2).sum(axis=-1)
    else:
        raise ValueError(f"no objective for family {case.family!r}")
    return float(value) if np.ndim(value) == 0 else value


def generator_rows(case: Case) -> tuple[np.ndarray, np.ndarray]:
    """All rows `R x <= h` of the case: its dense rows, then the box rows."""
    eye = np.eye(case.n)
    R = np.vstack([case.rows, eye, -eye])
    h = np.concatenate([case.rhs, np.full(2 * case.n, BOX)])
    return R, h


def max_violation(case: Case, x: np.ndarray) -> float:
    """Largest row violation of x, each row scaled by 1 + |rhs|."""
    R, h = generator_rows(case)
    return float(np.max((R @ x - h) / (1.0 + np.abs(h)), initial=0.0))


def lp_reference(case: Case) -> float:
    """Optimum of the LP family by HiGHS on the epigraph form in (x, t)."""
    n, a, c = case.n, case.weights, case.center
    cost = np.concatenate([np.zeros(n), np.ones(n)])
    D, eye = np.diag(a), np.eye(n)
    A_ub = np.vstack([np.hstack([D, -eye]), np.hstack([-D, -eye]),
                      np.hstack([case.rows, np.zeros((case.rows.shape[0], n))])])
    b_ub = np.concatenate([c, -c, case.rhs])
    bounds = [(-BOX, BOX)] * n + [(0.0, None)] * n
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"{case.name}: linprog failed: {res.message}")
    return float(res.fun)


def smooth_reference(case: Case) -> float:
    """Optimum of the QP or cone family by SLSQP from the origin.

    The origin is strictly feasible and both objectives are smooth away from
    x = c, which no optimum of these families sits at.  The value is only
    used as an upper bound on the true optimum, so it is taken at a point
    checked to be feasible.
    """
    R, h = generator_rows(case)
    a, c = case.weights, case.center
    if case.family == "qp":
        def fun(x):
            r = a * x - c
            return float(r @ r), 2.0 * a * r
    elif case.family == "cone":
        def fun(x):
            d = x - c
            nd = float(np.linalg.norm(d))
            return nd + float(((a * x) ** 2).sum()), d / nd + 2.0 * a * a * x
    else:
        raise ValueError(f"no smooth reference for family {case.family!r}")
    res = minimize(fun, np.zeros(case.n), jac=True, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda x: h - R @ x,
                                 "jac": lambda x: -R}],
                   options={"maxiter": 1000, "ftol": 1e-12})
    if max_violation(case, res.x) > 1e-9:
        raise RuntimeError(f"{case.name}: SLSQP point infeasible: {res.message}")
    return objective(case, res.x)


def wide_optimum(case: Case) -> np.ndarray:
    """Closed-form optimum of the wide families (their box rows are inactive).

    sum_squares(x - c) + sum(abs(x)) separates into soft thresholds
    x = sign(c) max(|c| - 1/2, 0); norm2(x - c) + sum(square(x)) is minimized
    on the ray through c, at x = min(1/2, |c|) c / |c|.
    """
    c = case.center
    if case.family == "wide-qp":
        return np.sign(c) * np.maximum(np.abs(c) - 0.5, 0.0)
    if case.family == "wide-cone":
        norm = float(np.linalg.norm(c))
        return min(0.5, norm) * c / norm if norm else np.zeros_like(c)
    raise ValueError(f"no closed form for family {case.family!r}")


def reference_value(case: Case) -> float:
    """The optimum a correct solver must reach (an upper bound for SLSQP)."""
    if case.family == "lp":
        return lp_reference(case)
    if case.family in ("qp", "cone"):
        return smooth_reference(case)
    return objective(case, wide_optimum(case))


# --- checks on what dcpc returns ---------------------------------------------


def check_solution(case: Case, status: str, value: float, x, ref: float) -> str:
    """'' when a solve result is right, else the reason it is wrong.

    `x` is the returned value of the variable `x` (None for probes).
    """
    if status != case.expect:
        return f"status {status}, expected {case.expect}"
    if case.family == "probe":
        return ""
    x = np.asarray(x, dtype=float)
    viol = max_violation(case, x)
    if viol > FEAS_TOL:
        return f"returned point violates a row by {viol:.3g}"
    scale = max(1.0, abs(ref))
    at_x = objective(case, x)
    if abs(at_x - value) > ADMM_TOL * scale:
        return f"reported value {value!r} but the objective at the point is {at_x!r}"
    if case.family == "lp":
        if abs(value - ref) > LP_TOL * scale:
            return f"value {value!r}, HiGHS optimum {ref!r}"
    elif at_x > ref + ADMM_TOL * scale:
        return f"objective {at_x!r} above the reference optimum {ref!r}"
    if case.family in ("wide-qp", "wide-cone"):
        err = float(np.max(np.abs(x - wide_optimum(case))))
        if err > POINT_TOL:
            return f"point is {err:.3g} from the closed-form optimum"
    return ""


def _doc_blocks(doc: dict):
    """Constraint blocks of an emitted document, each `(kind, M, rhs)`.

    kind "le": M z <= rhs; "eq": M z == rhs; "soc": s = rhs - M z has
    s[0] >= |s[1:]|.  Also returns (cost, P, offset) of the objective
    `1/2 z'Pz + cost'z + offset`.
    """
    target, data = doc["target"], doc["data"]
    blocks = []
    if target in ("lp", "qp"):
        G, h = np.array(data["G"], dtype=float), np.array(data["h"], dtype=float)
        A, b = np.array(data["A"], dtype=float), np.array(data["b"], dtype=float)
        blocks += [("le", G[i:i + 1], h[i:i + 1]) for i in range(len(h))]
        blocks += [("eq", A[i:i + 1], b[i:i + 1]) for i in range(len(b))]
        if target == "lp":
            cost, P, offset = np.array(data["c"], dtype=float), None, data["offset"]
        else:
            cost, offset = np.array(data["q"], dtype=float), data["r"]
            P = np.array(data["P"], dtype=float)
    elif target == "cone":
        A, b = np.array(data["A"], dtype=float), np.array(data["b"], dtype=float)
        cones = data["cones"]
        row = 0
        for _ in range(cones["zero"]):
            blocks.append(("eq", A[row:row + 1], b[row:row + 1]))
            row += 1
        for _ in range(cones["nonneg"]):
            blocks.append(("le", A[row:row + 1], b[row:row + 1]))
            row += 1
        for size in cones["soc"]:
            blocks.append(("soc", A[row:row + size], b[row:row + size]))
            row += size
        if row != len(b):
            raise ValueError("cone dimensions do not cover the rows")
        cost, P, offset = np.array(data["c"], dtype=float), None, data["offset"]
    else:
        raise ValueError(f"unknown target {target!r}")
    return blocks, cost, P, float(offset)


def _feasible(kind: str, s: np.ndarray) -> bool:
    """Membership of the slack s = rhs - M z in the block's set."""
    if kind == "le":
        return bool(s[0] >= 0.0)
    if kind == "soc":
        return bool(s[0] >= np.linalg.norm(s[1:]))
    raise ValueError("equality blocks cannot bound an auxiliary column")


def _least_feasible(blocks, slacks, column) -> float:
    """Smallest value of one auxiliary column that keeps its blocks feasible."""
    def ok(t):
        return all(_feasible(kind, s0 - M[:, column] * t)
                   for (kind, M, _), s0 in zip(blocks, slacks))
    hi = 1.0
    while not ok(hi):
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"column {column} has no feasible value")
    lo = -1.0
    while ok(lo):
        lo *= 2.0
        if lo < -1e12:
            raise ValueError(f"column {column} is unbounded below")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


class DocumentCheck:
    """Reads an emitted document through `var_offsets` against the generator.

    The columns of the user variable `x` are found by name; every other
    column is auxiliary.  The document is right when (1) the rows that touch
    only x are exactly the generator's rows, up to positive scaling and
    order, and (2) at any point x, minimizing the document's objective over
    the auxiliary columns gives the generator's objective.  (2) is computed
    column by column: each auxiliary column must appear in blocks of its own
    with a nonnegative cost and no quadratic term, and its least feasible
    value is found by bisection.
    """

    def __init__(self, doc: dict, case: Case):
        self.case = case
        self.blocks, self.cost, self.P, self.offset = _doc_blocks(doc)
        start, length = doc["data"]["var_offsets"]["x"]
        if length != case.n:
            raise ValueError(f"x has {length} columns, expected {case.n}")
        self.width = self.cost.shape[0]
        self.xcols = np.arange(start, start + length)
        aux = np.ones(self.width, dtype=bool)
        aux[self.xcols] = False
        self.auxcols = np.flatnonzero(aux)
        self.by_column = {j: [] for j in self.auxcols}
        self.pure_x = []
        for block in self.blocks:
            touched = np.flatnonzero(np.any(block[1] != 0.0, axis=0) & aux)
            if not len(touched):
                self.pure_x.append(block)
            elif len(touched) == 1:
                self.by_column[touched[0]].append(block)
            else:
                raise ValueError("a block couples auxiliary columns")
        if np.any(self.cost[self.auxcols] < 0.0):
            raise ValueError("an auxiliary column has a negative cost")
        if self.P is not None and np.any(self.P[self.auxcols] != 0.0):
            raise ValueError("an auxiliary column enters the quadratic term")

    def rows_error(self) -> str:
        rows, rhs = [], []
        for kind, M, b in self.pure_x:
            if kind != "le":
                return f"a {kind} block on x alone; the generator has none"
            rows.append(M[0, self.xcols])
            rhs.append(b[0])
        R, h = generator_rows(self.case)
        got = _normalized(np.array(rows).reshape(-1, self.case.n), np.array(rhs))
        want = _normalized(R, h)
        if got.shape != want.shape or not np.allclose(got, want, atol=1e-9):
            return (f"the {got.shape[0]} rows on x alone differ from the "
                    f"generator's {want.shape[0]} rows")
        return ""

    def value_at(self, x: np.ndarray) -> float:
        z = np.zeros(self.width)
        z[self.xcols] = x
        for j, blocks in self.by_column.items():
            slacks = [b - M @ z for _, M, b in blocks]
            if blocks:
                z[j] = _least_feasible(blocks, slacks, j)
            elif self.cost[j] != 0.0:
                raise ValueError(f"column {j} has a cost and no rows")
        value = self.cost @ z + self.offset
        if self.P is not None:
            value += 0.5 * z @ self.P @ z
        return float(value)


def _normalized(R: np.ndarray, h: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(R), axis=1, keepdims=True)
    out = np.round(np.hstack([R, h[:, None]]) / scale, 9)
    return out[np.lexsort(out.T[::-1])]


def sample_points(case: Case, count: int = 3) -> list[np.ndarray]:
    """The origin and points shrunk toward it until they meet every row."""
    rng = np.random.default_rng(case.n)
    points = [np.zeros(case.n)]
    R, h = generator_rows(case)
    for _ in range(count - 1):
        u = rng.uniform(-BOX, BOX, case.n)
        lhs = R @ u
        up = lhs > 0.0
        room = float(np.min(h[up] / lhs[up])) if up.any() else math.inf
        points.append(min(1.0, 0.9 * room) * u)
    return points


def check_document(case: Case, doc: dict, ref: float | None) -> str:
    """'' when an emitted document of a dense case encodes its problem."""
    if doc.get("target") != case.family:
        return f"target {doc.get('target')!r}, expected {case.family!r}"
    try:
        check = DocumentCheck(doc, case)
        err = check.rows_error()
        if err:
            return err
        for x in sample_points(case):
            got, want = check.value_at(x), objective(case, x)
            if abs(got - want) > DOC_TOL * max(1.0, abs(want)):
                return f"objective {got!r} at a sample point, generator says {want!r}"
    except (KeyError, ValueError) as err:
        return f"document structure: {err}"
    if case.family == "lp":
        data = doc["data"]
        res = linprog(np.array(data["c"], dtype=float),
                      A_ub=np.array(data["G"], dtype=float) if data["h"] else None,
                      b_ub=np.array(data["h"], dtype=float) if data["h"] else None,
                      A_eq=np.array(data["A"], dtype=float) if data["b"] else None,
                      b_eq=np.array(data["b"], dtype=float) if data["b"] else None,
                      bounds=(None, None), method="highs")
        if res.status != 0:
            return f"HiGHS cannot solve the emitted LP: {res.message}"
        value = float(res.fun) + float(data["offset"])
        if abs(value - ref) > LP_TOL * max(1.0, abs(ref)):
            return f"emitted LP optimum {value!r}, generator's LP optimum {ref!r}"
    return ""
