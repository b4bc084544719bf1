"""Embedded desk-scale solvers: dense simplex, QP and cone operator splitting.

The tableau simplex (slack start, Dantzig pricing with a Bland fallback, BLAS
rank-1 pivots) gives vertex-exact LP answers, so canonicalization tests can
assert tight tolerances; the two ADMM solvers cover quadratic and cone
programs where a tableau method does not apply.  The data is dense; the ADMM
solvers factor sparse (SuperLU) and project second-order cones in batches by
size.  Everything is deterministic: no randomized pivoting, scaling, restarts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dger
from scipy.sparse.linalg import splu

from .reductions.cone import ConeDims, ProgramData
from .reductions.framework import Status

__all__ = ["SolverSettings", "RawSolution", "solve_lp_simplex",
           "solve_qp_admm", "solve_cone_admm", "project_cone"]

_PIVOT_TOL = 1e-9
_DEGENERATE_RUN = 50  # degenerate Dantzig pivots before Bland's rule
_SIGMA = 1e-6  # proximal regularization for the splitting solvers
_EQ_RHO_SCALE = 1e3  # stiffer penalty on equality rows, as splitting solvers do
_DIVERGENCE_LIMIT = 1e8


@dataclass(frozen=True)
class SolverSettings:
    """Iteration and tolerance knobs shared by all embedded solvers."""

    max_iterations: int = 20000
    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    alpha: float = 1.6
    rho: float = 1.0

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if not all(math.isfinite(v) and v > 0
                   for v in (self.eps_abs, self.eps_rel)):
            raise ValueError("tolerances must be positive and finite")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive and finite")


@dataclass(frozen=True)
class RawSolution:
    """A standard-form answer: stacked primal and pre-offset objective value."""

    status: Status
    x: np.ndarray
    value: float
    iterations: int = 0
    message: str = ""
    factor_s: float = 0.0  # wall seconds in the ADMM solvers' one factorization
    factor_nnz: int = 0  # nonzeros of its L plus U


def _factor(matrix: sp.spmatrix):
    """SuperLU factor of ``matrix`` and the RawSolution fields it fills."""
    matrix = matrix.tocsc()
    if not np.isfinite(matrix.data).all():  # SuperLU takes NaN as a number
        raise RuntimeError("non-finite matrix entries")
    start = time.perf_counter()
    factor = splu(matrix)
    return factor, {"factor_s": time.perf_counter() - start,
                    "factor_nnz": factor.L.nnz + factor.U.nnz}


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot the C-ordered tableau ``T`` on ``(row, col)`` in place: one BLAS
    rank-1 update (``dger`` on ``Tᵀ``) of every row but the pivot row, the
    objective in the last row included."""
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    dger(-1.0, T[row].copy(), factors, a=T.T, overwrite_a=True)
    basis[row] = col


def _run_phase(T: np.ndarray, basis: np.ndarray, allowed: int,
               budget: int) -> tuple[str, int]:
    """Pivot on ``T`` until optimal, unbounded or ``budget`` pivots.

    Of the first ``allowed`` columns, the most negative reduced cost enters
    (Dantzig), or after ``_DEGENERATE_RUN`` degenerate pivots in a row the
    lowest eligible one (Bland) until a pivot makes progress.  Ratio ties go
    to the lowest basic index, so no run of degenerate pivots is endless.
    """
    obj, rhs = T[-1, :allowed], T[:-1, -1]
    degenerate = 0
    for used in range(budget):
        col = int(np.argmin(obj) if degenerate < _DEGENERATE_RUN
                  else np.argmax(obj < -_PIVOT_TOL))
        if obj[col] >= -_PIVOT_TOL:
            return "optimal", used
        coef = T[:-1, col]
        ratio = np.divide(rhs, coef, out=np.full(coef.shape, math.inf),
                          where=coef > _PIVOT_TOL)
        best = ratio.min(initial=math.inf)
        if best == math.inf:
            return "unbounded", used
        ties = np.flatnonzero(ratio <= best + _PIVOT_TOL)
        row = int(ties[np.argmin(basis[ties])])
        degenerate = degenerate + 1 if best <= _PIVOT_TOL else 0
        _pivot(T, basis, row, col)
    return "limit", budget


def solve_lp_simplex(data: ProgramData,
                     settings: SolverSettings = SolverSettings()) -> RawSolution:
    """Two-phase dense tableau simplex with Dantzig pricing and a Bland fallback.

    It takes ``min qᵀx  s.t.  b - Ax ∈ Zero × NonNeg``: no nonzero ``P`` and
    no SOC rows.  Free variables are split into nonnegative pairs and
    inequality rows ``Gx <= h`` get slacks, giving the equality standard form
    that the tableau iterates on.
    Phase one starts from the slack basis on rows with ``h >= 0``; only rows
    with ``h < 0`` and equality rows get artificial variables, and an
    optimum of their sum above 1e-9 certifies infeasibility.  Both phases
    price as ``_run_phase`` says, so the method terminates.
    """
    if data.P is not None and data.P.any():
        raise ValueError("simplex cannot solve a nonzero quadratic: it requires P == 0")
    if data.cones.soc:
        raise ValueError("simplex cannot solve second-order cone rows")
    c, mA = data.q, data.cones.zero
    G, h, A, b = data.A[mA:], data.b[mA:], data.A[:mA], data.b[:mA]
    m, n = data.A.shape
    mG = m - mA
    N = 2 * n + mG  # columns [u (n), v (n), slack (mG)], x = u - v
    rhs = np.concatenate([h, b]).astype(float)
    art = np.flatnonzero(np.concatenate([h < 0, np.ones(mA, dtype=bool)]))

    # Tableau rows: the m constraints, then the objective's reduced costs.
    T = np.zeros((m + 1, N + art.size + 1))
    T[:mG, :n], T[mG:m, :n] = G, A
    T[:m, n:2 * n] = -T[:m, :n]
    T[np.arange(mG), 2 * n + np.arange(mG)] = 1.0
    T[:m, -1] = rhs
    T[np.flatnonzero(rhs < 0)] *= -1.0
    T[art, N + np.arange(art.size)] = 1.0
    basis = 2 * n + np.arange(m)  # the slacks, then the artificials
    basis[art] = N + np.arange(art.size)
    T[-1] = -T[art].sum(axis=0)  # phase one: minimize the artificials' sum
    T[-1, N:-1] = 0.0

    outcome, used = _run_phase(T, basis, N, settings.max_iterations)
    if outcome == "limit":
        return RawSolution(Status.ITERATION_LIMIT, np.zeros(n), math.nan, used,
                           "phase-1 iteration limit")
    if -T[-1, -1] > 1e-9:
        return RawSolution(Status.INFEASIBLE, np.zeros(n), math.inf, used,
                           "artificial variables remain positive")

    # Drive leftover (zero-valued) artificials out of the basis; a row where
    # none can be is redundant and is dropped.
    for i in np.flatnonzero(basis >= N):
        cols = np.flatnonzero(np.abs(T[i, :N]) > _PIVOT_TOL)
        if cols.size:
            _pivot(T, basis, i, int(cols[0]))
    keep = np.append(basis < N, True)
    T = np.ascontiguousarray(T[keep][:, np.r_[:N, -1]])  # C order for dger
    basis = basis[keep[:-1]]

    cost = np.concatenate([c, -c, np.zeros(mG + 1)])
    T[-1] = cost - cost[basis] @ T[:-1]

    outcome, used2 = _run_phase(T, basis, N, settings.max_iterations - used)
    if outcome == "limit":
        return RawSolution(Status.ITERATION_LIMIT, np.zeros(n), math.nan,
                           used + used2, "phase-2 iteration limit")
    if outcome == "unbounded":
        return RawSolution(Status.UNBOUNDED, np.zeros(n), -math.inf, used + used2,
                           "entering column admits no ratio bound")
    z = np.zeros(N)
    z[basis] = T[:-1, -1]
    x = z[:n] - z[n:2 * n]
    return RawSolution(Status.OPTIMAL, x, float(c @ x), used + used2)


def solve_qp_admm(data: ProgramData,
                  settings: SolverSettings = SolverSettings()) -> RawSolution:
    """Operator splitting for ``min ½xᵀPx + qᵀx  s.t.  b - Ax ∈ Zero × NonNeg``.

    With ``z = Ax`` the constraint is the interval ``lower <= z <= b``, where
    ``lower`` is ``b`` on the zero rows and ``-inf`` on the rest; SOC rows are
    rejected.  The quasi-definite KKT matrix is assembled sparse and factored
    once; each iteration is one solve with that factor and one interval
    projection, with over-relaxation ``alpha``.  Equality rows carry a
    stiffer penalty than inequality rows, which speeds their convergence
    without changing the fixed points.
    """
    if data.cones.soc:
        raise ValueError("QP splitting cannot solve second-order cone rows")
    q, mA, upper = data.q, data.cones.zero, data.b
    m, n = data.A.shape
    P = np.zeros((n, n)) if data.P is None else data.P
    M = sp.csr_matrix(data.A)
    lower = np.concatenate([upper[:mA], np.full(m - mA, -math.inf)])

    if n == 0:
        feasible = bool(np.all(lower <= 1e-9) and np.all(upper >= -1e-9))
        status = Status.OPTIMAL if feasible else Status.INFEASIBLE
        return RawSolution(status, np.zeros(0), 0.0 if feasible else math.inf,
                           0, "" if feasible else "empty problem infeasible")

    rho = np.full(m, settings.rho)
    rho[:mA] *= _EQ_RHO_SCALE
    try:
        factor, stats = _factor(sp.bmat(
            [[sp.csr_matrix(P) + _SIGMA * sp.eye(n), M.T],
             [M, sp.diags(-1.0 / rho)]]))
    except RuntimeError as err:
        return RawSolution(Status.ERROR, np.zeros(n), math.nan, 0,
                           f"KKT factorization failed: {err}")

    alpha = settings.alpha
    x = np.zeros(n)
    z = np.zeros(m)
    y = np.zeros(m)
    status, message = Status.ITERATION_LIMIT, "splitting did not converge"
    for k in range(1, settings.max_iterations + 1):
        sol = factor.solve(np.concatenate([_SIGMA * x - q, z - y / rho]))
        x_hat, nu = sol[:n], sol[n:]
        z_hat = z + (nu - y) / rho if m else z
        x = alpha * x_hat + (1.0 - alpha) * x
        z_relax = alpha * z_hat + (1.0 - alpha) * z
        z = np.clip(z_relax + y / rho, lower, upper)
        y = y + rho * (z_relax - z)
        if k % 25 == 0 or k == settings.max_iterations:
            Mx = M @ x
            r_prim = np.max(np.abs(Mx - z)) if m else 0.0
            Px = P @ x
            MTy = M.T @ y if m else 0.0
            r_dual = np.max(np.abs(Px + q + MTy))
            scale_p = max(_inf_norm(Mx), _inf_norm(z))
            scale_d = max(_inf_norm(Px), _inf_norm(q), _inf_norm(MTy))
            if r_prim <= settings.eps_abs + settings.eps_rel * scale_p \
                    and r_dual <= settings.eps_abs + settings.eps_rel * scale_d:
                status, message = Status.OPTIMAL, ""
                break
    value = float(0.5 * x @ P @ x + q @ x)
    return RawSolution(status, x, value, k, message, **stats)


def _inf_norm(v) -> float:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _soc_plan(cones: ConeDims) -> list[np.ndarray]:
    """Row indices of the SOC blocks, one ``(count, size)`` array per size."""
    sizes = np.asarray(cones.soc, dtype=np.intp)
    starts = cones.zero + cones.nonneg + np.cumsum(sizes) - sizes
    return [starts[sizes == size, None] + np.arange(size)
            for size in np.unique(sizes)]


def project_cone(v: np.ndarray, cones: ConeDims, plan=None) -> np.ndarray:
    """Euclidean projection onto Zero x NonNeg x SOC(...) blocks of ``v``.

    SOC blocks go one size group of ``plan = _soc_plan(cones)`` at a time;
    each ``|x|`` is a BLAS dot, as in ``np.linalg.norm``.
    """
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    head = cones.zero + cones.nonneg
    out[:cones.zero] = 0.0
    np.maximum(v[cones.zero:head], 0.0, out=out[cones.zero:head])
    for rows in _soc_plan(cones) if plan is None else plan:
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


def solve_cone_admm(data: ProgramData,
                    settings: SolverSettings = SolverSettings()) -> RawSolution:
    """Operator splitting for ``min qᵀx  s.t.  b - Ax ∈ K``, with no ``P``.

    With slack ``s = b - Ax`` the iteration alternates a solve with the
    normal equations ``σI + ρAᵀA`` (sparse, factored once) for x, a batched
    cone projection for s, and a dual ascent step; ``sᵀy = 0`` holds at every
    iterate by the projection's optimality, so convergence is monitored on
    the primal and dual residuals alone.  Unchecked growth of the slack or
    dual iterates signals an infeasible or unbounded problem, reported as an
    error with a diagnostic (these solvers produce no certificates).
    """
    if data.P is not None and data.P.any():
        raise ValueError("cone splitting cannot solve a nonzero quadratic")
    A, b, c = data.A, data.b, data.q
    m, n = A.shape
    if n == 0:
        s = project_cone(b, data.cones)
        if np.max(np.abs(s - b), initial=0.0) <= settings.eps_abs:
            return RawSolution(Status.OPTIMAL, np.zeros(0), 0.0, 0)
        return RawSolution(Status.INFEASIBLE, np.zeros(0), math.inf, 0,
                           "constant rows violate the cone")

    rho, alpha = settings.rho, settings.alpha
    As = sp.csr_matrix(A)  # for AᵀA: in the loop, dense matvecs cost less
    try:
        factor, stats = _factor(_SIGMA * sp.eye(n) + rho * (As.T @ As))
    except RuntimeError as err:
        return RawSolution(Status.ERROR, np.zeros(n), math.nan, 0,
                           f"normal-equations factorization failed: {err}")

    plan = _soc_plan(data.cones)
    x = np.zeros(n)
    s = project_cone(b, data.cones, plan)
    y = np.zeros(m)
    for k in range(1, settings.max_iterations + 1):
        x = factor.solve(_SIGMA * x - c + rho * (A.T @ (b - s - y / rho)))
        Ax = A @ x
        v = alpha * Ax + (1.0 - alpha) * (b - s)
        s = project_cone(b - v - y / rho, data.cones, plan)
        y = y + rho * (v + s - b)
        if k % 25 == 0 or k == settings.max_iterations:
            ATy = A.T @ y
            r_prim = _inf_norm(Ax + s - b)
            r_dual = _inf_norm(c + ATy)
            scale_p = max(_inf_norm(Ax), _inf_norm(s), _inf_norm(b))
            scale_d = max(_inf_norm(c), _inf_norm(ATy))
            if r_prim <= settings.eps_abs + settings.eps_rel * scale_p \
                    and r_dual <= settings.eps_abs + settings.eps_rel * scale_d:
                return RawSolution(Status.OPTIMAL, x, float(c @ x), k, **stats)
            if max(_inf_norm(s), _inf_norm(y)) > _DIVERGENCE_LIMIT:
                return RawSolution(
                    Status.ERROR, x, math.nan, k,
                    "iterates diverged; problem may be infeasible or unbounded",
                    **stats)
    return RawSolution(Status.ITERATION_LIMIT, x, float(c @ x), k,
                       "splitting did not converge", **stats)
