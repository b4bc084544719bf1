"""Embedded desk-scale solvers: a dense simplex and one operator-splitting solver.

The tableau simplex (slack start, Dantzig pricing with a Bland fallback, BLAS
rank-1 pivots) gives vertex-exact LP answers, so canonicalization tests can
assert tight tolerances.  One OSQP-style ADMM covers QP and cone programs: it
equilibrates the data, factors a sparse quasi-definite KKT matrix (SuperLU),
projects second-order cones in batches by size, adapts its penalty, and
certifies infeasibility and unboundedness.  Everything is deterministic.
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

__all__ = ["SolverSettings", "RawSolution", "solve_lp_simplex", "solve_admm",
           "solve_qp_admm", "solve_cone_admm", "project_cone"]

_PIVOT_TOL = 1e-9
_DEGENERATE_RUN = 50  # degenerate Dantzig pivots before Bland's rule
_SIGMA = 1e-6  # proximal regularization for the splitting solvers
_EQ_RHO_SCALE = 1e3  # stiffer penalty on equality rows, as splitting solvers do
_CERT_EPS = 1e-4  # relative tolerance of the infeasibility certificates
_RUIZ_PASSES = 10  # equilibration passes, OSQP's default
_RHO_REFACTOR = 5.0  # refactor the KKT matrix when rho moves this many times


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
    factor_s: float = 0.0  # wall seconds in the ADMM's KKT factorizations
    factor_nnz: int = 0  # nonzeros of the last one's L plus U


def _factor(matrix: sp.csc_matrix, stats: dict):
    """SuperLU factor of ``matrix``; adds its seconds to ``stats["factor_s"]``
    and sets ``stats["factor_nnz"]``, the RawSolution fields."""
    if not np.isfinite(matrix.data).all():  # SuperLU takes NaN as a number
        raise RuntimeError("non-finite matrix entries")
    start = time.perf_counter()
    factor = splu(matrix)
    stats.update(factor_s=stats.get("factor_s", 0.0) + time.perf_counter() - start,
                 factor_nnz=factor.L.nnz + factor.U.nnz)
    return factor


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


def _equilibrate(P: sp.coo_matrix, A: sp.coo_matrix, cones: ConeDims):
    """Ruiz scalings ``d`` of the columns and ``e`` of the rows of ``A``, and
    the scaled ``diag(d) P diag(d)`` and ``diag(e) A diag(d)`` as CSR.

    Each of ``_RUIZ_PASSES`` passes divides every row and column of the KKT
    matrix ``[[P, Aᵀ], [A, 0]]`` by the square root of its ∞-norm; norms
    under 1e-4 are left alone and norms over 1e4 are capped, as OSQP does.
    An SOC block takes the largest norm of its rows, so its rows share one
    scale and the scaled slack stays in K.  ``fmax`` skips NaN entries,
    which the factorization then reports.
    """
    m, n = A.shape
    d, e = np.ones(n), np.ones(m)
    head = cones.zero + cones.nonneg
    starts = np.cumsum((0,) + cones.soc[:-1], dtype=np.intp)
    for _ in range(_RUIZ_PASSES):
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


def _inf_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v), initial=0.0))


def _cone_gap(v: np.ndarray, cones: ConeDims, plan) -> float:
    """∞-norm distance of ``v`` from K."""
    return _inf_norm(v - project_cone(v, cones, plan))


def solve_admm(data: ProgramData,
               settings: SolverSettings = SolverSettings()) -> RawSolution:
    """OSQP-style splitting for ``min ½xᵀPx + qᵀx  s.t.  Ax + s = b, s ∈ K``.

    On Ruiz-equilibrated data (``_equilibrate``) each iteration is one solve
    with the sparse factor of the quasi-definite KKT matrix ``[[P + σI, Aᵀ],
    [A, -diag(1/ρ)]]``, one projection of ``z = Ax`` onto ``b - K`` and a
    dual step, with over-relaxation ``alpha``.  Equality rows take a ρ
    ``_EQ_RHO_SCALE`` times stiffer.  Every 25 iterations it tests, on the
    unscaled data, the residuals for optimality (the primal one row by row),
    then the changes ``δy``, ``δx`` since the last test for a certificate
    (Stellato et al., arXiv 1711.08013, §3.4; dual-cone tests of Banjac et
    al. 2019): infeasible when ``Aᵀδy ≈ 0``, ``bᵀδy < 0`` and ``δy ∈ K*``,
    unbounded when ``Pδx ≈ 0``, ``qᵀδx < 0`` and ``-Aδx ∈ K``, each to
    ``_CERT_EPS`` relative to ``‖δ‖∞``.  At iterations 25·2^j it sets ρ to
    balance the scaled residuals (OSQP §5.2), refactoring when ρ moves more
    than ``_RHO_REFACTOR`` times; a ρ that changed at every test kept some
    degenerate problems from converging.
    """
    cones, (m, n) = data.cones, data.A.shape
    P = sp.coo_matrix((n, n) if data.P is None else data.P)
    d, e, P, A = _equilibrate(P, sp.coo_matrix(data.A), cones)
    AT, q, b, plan = A.T.tocsr(), d * data.q, e * data.b, _soc_plan(cones)
    kkt = sp.bmat([[P + _SIGMA * sp.eye(n), AT], [A, -sp.eye(m)]], format="csc")
    diagonal = kkt.indptr[n + 1:] - 1  # -1/ρ closes each of the last m columns
    stats, eq = {}, np.arange(m) < cones.zero

    def refactor(rho_bar):
        rho = np.where(eq, _EQ_RHO_SCALE, 1.0) * rho_bar
        kkt.data[diagonal] = -1.0 / rho
        return rho, _factor(kkt, stats)

    rho_bar = settings.rho
    try:
        rho, factor = refactor(rho_bar)
    except RuntimeError as err:
        return RawSolution(Status.ERROR, np.zeros(n), math.nan, 0,
                           f"KKT factorization failed: {err}")
    alpha, eps = settings.alpha, _CERT_EPS
    x, z, y = np.zeros(n), np.zeros(m), np.zeros(m)
    x_seen, y_seen = x, y
    status, message = Status.ITERATION_LIMIT, "splitting did not converge"
    for k in range(1, settings.max_iterations + 1):
        sol = factor.solve(np.concatenate([_SIGMA * x - q, z - y / rho]))
        z_relax = alpha * (z + (sol[n:] - y) / rho) + (1.0 - alpha) * z
        x = alpha * sol[:n] + (1.0 - alpha) * x
        z = b - project_cone(b - z_relax - y / rho, cones, plan)
        y = y + rho * (z_relax - z)
        if k % 25 and k < settings.max_iterations:
            continue
        Ax, Px, ATy = A @ x, P @ x, AT @ y
        r_prim, r_dual = Ax - z, Px + q + ATy
        if (np.all(np.abs(r_prim) <= settings.eps_abs * e + settings.eps_rel
                   * np.maximum(np.abs(Ax), np.abs(z)))
                and _inf_norm(r_dual / d) <= settings.eps_abs + settings.eps_rel
                * max(_inf_norm(Px / d), _inf_norm(data.q), _inf_norm(ATy / d))):
            status, message = Status.OPTIMAL, ""
            break
        dy, dx = y - y_seen, x - x_seen
        ny, nx = _inf_norm(e * dy), _inf_norm(d * dx)
        # K is self-dual but for the zero cone, whose dual leaves rows free
        if (b @ dy < -eps * ny and _inf_norm(AT @ dy / d) <= eps * ny
                and _cone_gap(np.where(eq, 0.0, e * dy), cones, plan) <= eps * ny):
            return RawSolution(Status.INFEASIBLE, np.zeros(n), math.inf, k,
                               "certificate of primal infeasibility", **stats)
        if (q @ dx < -eps * nx and _inf_norm(P @ dx / d) <= eps * nx
                and _cone_gap(-(A @ dx) / e, cones, plan) <= eps * nx):
            return RawSolution(Status.UNBOUNDED, np.zeros(n), -math.inf, k,
                               "certificate of dual infeasibility", **stats)
        x_seen, y_seen = x, y
        if m and (k // 25) & (k // 25 - 1) == 0:  # k = 25·2^j
            ratio = (_inf_norm(r_prim) / (max(_inf_norm(Ax), _inf_norm(z)) + 1e-20)
                     / (_inf_norm(r_dual) / (max(_inf_norm(Px), _inf_norm(ATy),
                                                 _inf_norm(q)) + 1e-20) + 1e-20))
            rho_new = min(max(rho_bar * math.sqrt(ratio), 1e-6), 1e6)
            if not rho_bar / _RHO_REFACTOR <= rho_new <= rho_bar * _RHO_REFACTOR:
                rho_bar = rho_new
                rho, factor = refactor(rho_bar)
    value = float(0.5 * x @ (P @ x) + q @ x)
    return RawSolution(status, d * x, value, k, message, **stats)


solve_qp_admm = solve_cone_admm = solve_admm  # the names the routes key on
