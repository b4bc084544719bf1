"""Embedded desk-scale solvers: a dense simplex and one operator-splitting solver.

The tableau simplex (slack start, Dantzig pricing with a Bland fallback, BLAS
rank-1 pivots) gives vertex-exact LP answers, so canonicalization tests can
assert tight tolerances.  One OSQP-style ADMM covers QP and cone programs: it
equilibrates the data, factors a sparse quasi-definite KKT matrix (SuperLU),
projects all second-order cones in one pass, adapts its penalty, and
certifies infeasibility and unboundedness.  Everything is deterministic.

A quasi-definite matrix factors stably in any symmetric order (Vanderbei
1995), so the KKT matrix is assembled in a fixed block order and factored in
that order, with diagonal pivots and no ordering step: the inequality and cone
rows, then the variables, then the equality rows and any row of over √nnz
entries.  Eliminating those early rows leaves ``P + σI + AᵀRA`` on the
variables, which are then eliminated in their own order; rows that couple
variables far apart in that order fill more than a minimum degree order would.

``ProgramData`` holds its matrices as numpy CSR records.  ``scipy.sparse``,
``splu`` and ``dger`` are imported where a solve calls them, so that parsing,
analysis and canonicalization, which never solve, load no scipy at all.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .reductions.cone import ConeDims, CsrMatrix, ProgramData
from .reductions.framework import Solution, Status, has_point

__all__ = ["SolverSettings", "RawSolution", "Solver", "SOLVERS", "solve_lp_simplex",
           "solve_admm", "solve_qp_admm", "solve_cone_admm", "project_cone"]

_PIVOT_TOL = 1e-9
_DEGENERATE_RUN = 50  # degenerate Dantzig pivots before Bland's rule
_SIGMA = 1e-6  # proximal regularization for the splitting solvers
_ALPHA = 1.6  # over-relaxation of the splitting solvers, OSQP's default
_EQ_RHO_SCALE = 1e3  # stiffer penalty on equality rows, as splitting solvers do
_CERT_EPS = 1e-4  # relative tolerance of the infeasibility certificates
_RUIZ_PASSES = 10  # equilibration passes, OSQP's default
_RHO_REFACTOR = 5.0  # refactor the KKT matrix when rho moves this many times
_RHO0 = 1.0  # the first rho; it adapts from iteration 25 on


@dataclass(frozen=True)
class SolverSettings:
    """Iteration and tolerance knobs shared by all embedded solvers."""

    max_iterations: int = 20000
    eps_abs: float = 1e-6
    eps_rel: float = 1e-6

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if not all(math.isfinite(v) and v > 0
                   for v in (self.eps_abs, self.eps_rel)):
            raise ValueError("tolerances must be positive and finite")


@dataclass(frozen=True)
class RawSolution:
    """A standard-form answer: stacked primal and pre-offset objective value.
    An answer with no point (``has_point``) has the value +inf (infeasible),
    -inf (unbounded) or nan, and retrieval passes it on as it is."""

    status: Status
    x: np.ndarray
    value: float
    iterations: int = 0
    message: str = ""
    factor_s: float = 0.0  # wall seconds in the ADMM's KKT factorizations
    factor_nnz: int = 0  # nonzeros of the last one's L plus U


# SuperLU in the assembled order: no ordering is computed, and a diagonal
# pivot is kept unless it is under 0.01 of its column's largest entry
_NATURAL = dict(permc_spec="NATURAL", diag_pivot_thresh=0.01,
                options=dict(SymmetricMode=True))


def _factor(matrix, stats: dict):
    """SuperLU factor of the CSC ``matrix`` in its own order; adds its seconds to
    ``stats["factor_s"]`` and keeps it as ``stats["factor"]`` until the next
    one succeeds, for ``_stats``."""
    from scipy.sparse.linalg import splu
    if not np.isfinite(matrix.data).all():  # SuperLU takes NaN as a number
        raise RuntimeError("non-finite matrix entries")
    start = time.perf_counter()
    factor = splu(matrix, **_NATURAL)
    stats.update(factor_s=stats.get("factor_s", 0.0) + time.perf_counter() - start,
                 factor=factor)
    return factor


def _stats(stats: dict) -> dict:
    """The RawSolution fields of ``_factor``'s ``stats``: the seconds, and the
    nonzeros of the last factor's L plus U, exported once as the solve returns."""
    factor = stats.get("factor")
    return dict(factor_s=stats.get("factor_s", 0.0),
                factor_nnz=0 if factor is None else factor.L.nnz + factor.U.nnz)


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot the C-ordered tableau ``T`` on ``(row, col)`` in place: one BLAS
    rank-1 update (``dger`` on ``Tᵀ``) of every row but the pivot row, the
    objective in the last row included."""
    from scipy.linalg.blas import dger  # loaded at the first pivot, then found in sys.modules
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
    if not allowed:  # a program without variables: no column can enter
        return "optimal", 0
    obj, rhs = T[-1, :allowed], T[:-1, -1]
    degenerate = 0
    for used in range(budget + 1):  # the last pass only tests optimality
        col = int(np.argmin(obj) if degenerate < _DEGENERATE_RUN
                  else np.argmax(obj < -_PIVOT_TOL))
        if obj[col] >= -_PIVOT_TOL:
            return "optimal", used
        if used == budget:
            break
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
    inequality rows ``Gx <= h`` get slacks; one ``(m+1) × (N+1)`` tableau of
    that equality form, filled from the CSR ``A``, serves both phases.
    Phase one starts from the slack basis on rows with ``h >= 0``; rows with
    ``h < 0`` and equality rows start on artificials, basis labels ``>= N``
    with no column, and basic ones summing above 1e-9 certify infeasibility.
    A row whose artificial cannot then leave is redundant and is zeroed.
    Both phases price as ``_run_phase`` says, so the method terminates.
    """
    if data.P is not None and np.count_nonzero(data.P.data):
        raise ValueError("simplex cannot solve a nonzero quadratic: it requires P == 0")
    if data.cones.soc:
        raise ValueError("simplex cannot solve second-order cone rows")
    c, mA, A = data.q, data.cones.zero, data.A
    m, n = A.shape
    mG = m - mA
    N = 2 * n + mG  # columns [u (n), v (n), slack (mG)], x = u - v
    rhs = np.concatenate([data.b[mA:], data.b[:mA]]).astype(float)
    art = np.flatnonzero(np.concatenate([rhs[:mG] < 0, np.ones(mA, dtype=bool)]))

    # Tableau rows: the m constraints (G rows, then A rows, so A's row i lands
    # on row i - mA of T[:m]), then the objective's reduced costs.
    T = np.zeros((m + 1, N + 1))
    rows = np.repeat(np.arange(-mA, mG, dtype=A.indices.dtype), np.diff(A.indptr))
    T[:m][rows, A.indices] = A.data + 0.0  # canonical CSR; -0.0 reads 0.0, as in toarray
    np.negative(T[:m, :n], out=T[:m, n:2 * n])
    T[np.arange(mG), 2 * n + np.arange(mG)] = 1.0
    T[:m, -1] = rhs
    T[:m] *= np.where(rhs < 0, -1.0, 1.0)[:, None]
    basis = 2 * n + np.arange(m)  # the slacks, then the artificials' labels
    basis[art] = N + np.arange(art.size)
    for i in art:  # phase one: minimize the artificials' sum
        T[-1] -= T[i]

    outcome, used = _run_phase(T, basis, N, settings.max_iterations)
    if outcome == "limit":
        return RawSolution(Status.ITERATION_LIMIT, np.zeros(n), math.nan, used,
                           "phase-1 iteration limit")
    # the basic artificials' values: a large row can round them out of T[-1, -1]
    if T[:-1, -1][basis >= N].sum() > 1e-9:
        return RawSolution(Status.INFEASIBLE, np.zeros(n), math.inf, used,
                           "artificial variables remain positive")

    # Drive leftover (zero-valued) artificials out of the basis; a row where
    # none can be is redundant and is zeroed, so no ratio test picks it.
    for i in np.flatnonzero(basis >= N):
        cols = np.flatnonzero(np.abs(T[i, :N]) > _PIVOT_TOL)
        if cols.size:
            _pivot(T, basis, i, int(cols[0]))
    T[:-1][basis >= N] = 0.0

    cost = np.concatenate([c, -c, np.zeros(mG + 1)])  # cost[N]: the rhs column
    T[-1] = cost - cost.take(basis, mode="clip") @ T[:-1]  # labels >= N cost 0

    outcome, used2 = _run_phase(T, basis, N, settings.max_iterations - used)
    if outcome == "unbounded":
        return RawSolution(Status.UNBOUNDED, np.zeros(n), -math.inf, used + used2,
                           "entering column admits no ratio bound")
    z = np.zeros(N + art.size)
    z[basis] = T[:-1, -1]
    x = z[:n] - z[n:2 * n]
    if outcome == "limit":  # every phase-two basis is feasible: report its vertex
        return RawSolution(Status.ITERATION_LIMIT, x, float(c @ x), used + used2,
                           "phase-2 iteration limit")
    return RawSolution(Status.OPTIMAL, x, float(c @ x), used + used2)


def _soc_plan(cones: ConeDims):
    """The SOC blocks' sizes and head rows, counted from the first SOC row,
    and per size the blocks' indices and their ``x`` rows, ``(count, size - 1)``."""
    sizes = np.asarray(cones.soc, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    groups = [(blocks, starts[blocks, None] + np.arange(1, size))
              for size in np.unique(sizes) for blocks in [np.flatnonzero(sizes == size)]]
    return sizes, starts, groups


def project_cone(v: np.ndarray, cones: ConeDims, plan=None) -> np.ndarray:
    """Euclidean projection onto Zero x NonNeg x SOC(...) blocks of ``v``.

    All SOC blocks are projected in one pass over ``plan = _soc_plan(cones)``;
    only the norms go a size at a time, each ``|x|`` a BLAS dot, as in
    ``np.linalg.norm``.
    """
    v = np.asarray(v, dtype=float)
    sizes, starts, groups = _soc_plan(cones) if plan is None else plan
    out = np.empty_like(v)
    head = cones.zero + cones.nonneg
    out[:cones.zero] = 0.0
    np.maximum(v[cones.zero:head], 0.0, out=out[cones.zero:head])
    if not groups:
        return out
    soc, nx = v[head:], np.empty(sizes.size)
    for blocks, rows in groups:
        x = soc[rows]
        nx[blocks] = np.vecdot(x, x)
    np.sqrt(nx, out=nx)
    t = soc[starts]
    inside, shell = nx <= t, nx > np.abs(t)
    ratio = np.divide(t, nx, out=np.zeros_like(t), where=shell)
    scale = np.where(shell, 0.5 * (1.0 + ratio), inside)
    np.multiply(soc, np.repeat(scale, sizes), out=out[head:])
    out[head + starts] = np.where(inside, t, scale * nx)
    return out


def _equilibrate(P: CsrMatrix, A: CsrMatrix, cones: ConeDims):
    """Ruiz scalings ``d`` of the columns and ``e`` of the rows of ``A``, and
    the scaled ``diag(d) P diag(d)`` and ``diag(e) A diag(d)`` as scipy CSR
    matrices on the index arrays of the records ``P`` and ``A``.

    Each of ``_RUIZ_PASSES`` passes divides every row and column of the KKT
    matrix ``[[P, Aᵀ], [A, 0]]`` by the square root of its ∞-norm; norms
    under 1e-4 are left alone and norms over 1e4 are capped, as OSQP does.
    An SOC block takes the largest norm of its rows, so its rows share one
    scale and the scaled slack stays in K.  ``fmax`` skips NaN entries,
    which the factorization then reports.
    """
    import scipy.sparse as sp
    m, n = A.shape
    d, e = np.ones(n), np.ones(m)
    head = cones.zero + cones.nonneg
    starts = np.cumsum((0,) + cones.soc[:-1], dtype=np.intp)
    P_row, A_row = (np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)) for M in (P, A))
    P_abs, A_abs = np.abs(P.data), np.abs(A.data)
    for _ in range(_RUIZ_PASSES):
        a = A_abs * e[A_row] * d[A.indices]
        col, row = np.zeros(n), np.zeros(m)
        np.fmax.at(col, P.indices, P_abs * d[P_row] * d[P.indices])
        np.fmax.at(col, A.indices, a)
        np.fmax.at(row, A_row, a)
        if cones.soc:
            row[head:] = np.repeat(np.fmax.reduceat(row[head:], starts), cones.soc)
        d /= np.sqrt(np.where(col < 1e-4, 1.0, np.minimum(col, 1e4)))
        e /= np.sqrt(np.where(row < 1e-4, 1.0, np.minimum(row, 1e4)))
    return d, e, *(sp.csr_matrix((M.data * s[r] * d[M.indices], M.indices, M.indptr),
                                 shape=M.shape)
                   for M, s, r in ((P, d, P_row), (A, e, A_row)))


def _order(P, A, zero: int):
    """Each row's position in the KKT factor order, and the variables' first
    position.  The early rows lead, then the ``n`` variables, then the late
    rows: the ``zero`` equality rows, whose ``-1/(1e3·ρ)`` pivots would be
    taken off the diagonal early, and any row of ``k`` entries with ``k² >
    nnz`` of the KKT matrix, which would fill a k×k block early."""
    m, n = A.shape
    counts = np.diff(A.indptr).astype(float)
    late = counts * counts > P.nnz + n + 2 * A.nnz + m  # nnz, or a few more
    late[:zero] = True
    lead = m - int(np.count_nonzero(late))
    rows = np.empty(m, dtype=np.intp)
    rows[~late] = np.arange(lead)
    rows[late] = np.arange(lead + n, m + n)
    return rows, lead


def _kkt(P, A, rows: np.ndarray, lead: int):
    """``[[P + σI, Aᵀ], [A, -I]]`` as CSC in the order of ``_order``, built
    once from triplets, with the position in ``data`` of each row's ``-1``:
    first in an early row's column, last in a late row's."""
    import scipy.sparse as sp
    m, n = A.shape
    P = P + _SIGMA * sp.eye(n, format="csr")
    a_row = rows[np.repeat(np.arange(m), np.diff(A.indptr))]
    a_col = A.indices + lead
    i = np.concatenate([np.repeat(np.arange(lead, lead + n), np.diff(P.indptr)),
                        a_row, a_col, rows])
    j = np.concatenate([P.indices + lead, a_col, a_row, rows])
    data = np.concatenate([P.data, A.data, A.data, np.full(m, -1.0)])
    kkt = sp.csc_matrix((data, (i, j)), shape=(n + m, n + m))
    return kkt, np.where(rows < lead, kkt.indptr[rows], kkt.indptr[rows + 1] - 1)


def _inf_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v), initial=0.0))


def _cone_gap(v: np.ndarray, cones: ConeDims, plan) -> float:
    """∞-norm distance of ``v`` from K."""
    return _inf_norm(v - project_cone(v, cones, plan))


@np.errstate(over="ignore", invalid="ignore")  # tested at each check below
def solve_admm(data: ProgramData,
               settings: SolverSettings = SolverSettings()) -> RawSolution:
    """OSQP-style splitting for ``min ½xᵀPx + qᵀx  s.t.  Ax + s = b, s ∈ K``.

    On Ruiz-equilibrated data (``_equilibrate``) each iteration is one solve
    with the sparse factor of the quasi-definite KKT matrix ``[[P + σI, Aᵀ],
    [A, -diag(1/ρ)]]``, one projection of ``z = Ax`` onto ``b - K`` and a
    dual step, with over-relaxation ``_ALPHA``.  The KKT matrix is built once
    in the block order of ``_order`` and factored in that order, so neither
    the first factorization nor a ρ refactor computes an ordering.  Equality
    rows take a ρ ``_EQ_RHO_SCALE`` times stiffer.  Every 25 iterations it
    tests, on the unscaled data, the residuals for optimality (the primal one
    row by row), then the changes ``δy``, ``δx`` since the last test for a
    certificate (Stellato et al., arXiv 1711.08013, §3.4; dual-cone tests of
    Banjac et al. 2019): infeasible when ``Aᵀδy ≈ 0``, ``bᵀδy < 0`` and ``δy
    ∈ K*``, and a descent ray when ``Pδx ≈ 0``, ``qᵀδx < 0`` and ``-Aδx ∈
    K``, each to ``_CERT_EPS`` and read on ``δ/‖δ‖∞``; ``_decide_ray`` then
    tells unbounded from infeasible.  At iterations 25·2^j it sets ρ to
    balance the scaled residuals (OSQP §5.2), refactoring when ρ moves more
    than ``_RHO_REFACTOR`` times; a ρ that changed at every test kept some
    degenerate problems from converging.  Iterates that overflow end the
    solve as an error at the next test, before any certificate or ρ reads
    them.  The setup reads the index arrays of the CSR ``A`` and ``P`` as they
    come in, and ``Aᵀ`` is the scaled ``A``'s CSC view, with no copy.
    """
    cones, (m, n) = data.cones, data.A.shape
    P = data.P or CsrMatrix(np.zeros(0), np.zeros(0, np.intp), np.zeros(n + 1, np.intp), (n, n))
    d, e, P, A = _equilibrate(P, data.A, cones)
    AT, q, b, plan = A.T, d * data.q, e * data.b, _soc_plan(cones)
    rows, lead = _order(P, A, cones.zero)
    kkt, diagonal = _kkt(P, A, rows, lead)
    if lead == m:  # no late row: the rows come first, in order, read as a view
        rows = slice(0, m)
    stats, eq, xs = {}, np.arange(m) < cones.zero, slice(lead, lead + n)

    def refactor(rho_bar):
        rho = np.where(eq, _EQ_RHO_SCALE, 1.0) * rho_bar
        kkt.data[diagonal] = -1.0 / rho
        return rho, _factor(kkt, stats)

    rho_bar, factor, alpha, eps = _RHO0, None, _ALPHA, _CERT_EPS
    x, z, y = np.zeros(n), np.zeros(m), np.zeros(m)
    x_seen, y_seen, rhs = x, y, np.empty(n + m)
    status, message = Status.ITERATION_LIMIT, "splitting did not converge"
    for k in range(1, settings.max_iterations + 1):
        if factor is None:  # the first factorization, or a refactor for a new rho
            try:
                rho, factor = refactor(rho_bar)
            except RuntimeError as err:
                return RawSolution(Status.ERROR, np.zeros(n), math.nan, k - 1,
                                   f"KKT factorization failed: {err}", **_stats(stats))
        y_rho = y / rho
        np.subtract(_SIGMA * x, q, out=rhs[xs])
        rhs[rows] = z - y_rho
        sol = factor.solve(rhs)
        z_relax = alpha * (z + (sol[rows] - y) / rho) + (1.0 - alpha) * z
        x = alpha * sol[xs] + (1.0 - alpha) * x
        z = b - project_cone(b - z_relax - y_rho, cones, plan)
        y = y + rho * (z_relax - z)
        if k % 25 and k < settings.max_iterations:
            continue
        if not all(np.isfinite(v).all() for v in (x, z, y)):
            return RawSolution(Status.ERROR, np.zeros(n), math.nan, k,
                               "iterates are not finite", **_stats(stats))
        Ax, Px, ATy = A @ x, P @ x, AT @ y
        r_prim, r_dual = Ax - z, Px + q + ATy
        if (np.all(np.abs(r_prim) <= settings.eps_abs * e + settings.eps_rel
                   * np.maximum(np.abs(Ax), np.abs(z)))
                and _inf_norm(r_dual / d) <= settings.eps_abs + settings.eps_rel
                * max(_inf_norm(Px / d), _inf_norm(data.q), _inf_norm(ATy / d))):
            status, message = Status.OPTIMAL, ""
            break
        # The tests are homogeneous, so they read δ/‖δ‖∞ (a zero δ fails the
        # first): a δ decayed to subnormals would round A δ to 0 and pass all.
        dy, dx = y - y_seen, x - x_seen
        ny, nx = _inf_norm(e * dy), _inf_norm(d * dx)
        dy, dx = dy / (ny or 1.0), dx / (nx or 1.0)
        # K is self-dual but for the zero cone, whose dual leaves rows free
        if (b @ dy < -eps and _inf_norm(AT @ dy / d) <= eps
                and _cone_gap(np.where(eq, 0.0, e * dy), cones, plan) <= eps):
            return RawSolution(Status.INFEASIBLE, np.zeros(n), math.inf, k,
                               "certificate of primal infeasibility", **_stats(stats))
        if (q @ dx < -eps and _inf_norm(P @ dx / d) <= eps
                and _cone_gap(-(A @ dx) / e, cones, plan) <= eps):
            return _decide_ray(data, settings, k, stats)
        x_seen, y_seen = x, y
        if m and (k // 25) & (k // 25 - 1) == 0:  # k = 25·2^j
            ratio = (_inf_norm(r_prim) / (max(_inf_norm(Ax), _inf_norm(z)) + 1e-20)
                     / (_inf_norm(r_dual) / (max(_inf_norm(Px), _inf_norm(ATy),
                                                 _inf_norm(q)) + 1e-20) + 1e-20))
            rho_new = min(max(rho_bar * math.sqrt(ratio), 1e-6), 1e6)
            if not rho_bar / _RHO_REFACTOR <= rho_new <= rho_bar * _RHO_REFACTOR:
                rho_bar, factor = rho_new, None
    value = float(0.5 * x @ (P @ x) + q @ x)
    return RawSolution(status, d * x, value, k, message, **_stats(stats))


def _decide_ray(data: ProgramData, settings: SolverSettings, k: int,
                stats: dict) -> RawSolution:
    """The answer once ``solve_admm`` certifies a descent ray at iteration ``k``:
    a ray proves only "unbounded or infeasible", so the same rows are solved
    with no objective and the same settings, where no ray passes.  The
    iterations and factorization seconds count both solves."""
    check = solve_admm(replace(data, P=None, q=np.zeros_like(data.q)), settings)
    if check.status is Status.OPTIMAL:
        status, value, message = Status.UNBOUNDED, -math.inf, "certificate of dual infeasibility"
    elif check.status is Status.INFEASIBLE:
        status, value, message = Status.INFEASIBLE, math.inf, check.message
    else:
        status, value, message = check.status, math.nan, (
            f"a descent ray was certified, but feasibility was not decided: {check.message}")
    return RawSolution(status, np.zeros_like(data.q), value, k + check.iterations, message,
                       stats["factor_s"] + check.factor_s, check.factor_nnz)


solve_qp_admm = solve_cone_admm = solve_admm  # the names the benchmark keys on


@dataclass(frozen=True)
class Solver:
    """The step after the reduction chain: ``solve`` takes the data of the
    stuffers named in ``takes``, and ``auto`` picks it after those in ``auto``."""

    name: str
    takes: tuple[str, ...]
    auto: tuple[str, ...]
    solve: Callable[[ProgramData, SolverSettings], RawSolution]

    def retrieve(self, raw: RawSolution, data: ProgramData) -> Solution:
        """``raw`` on the variables of ``data``, its value with ``data.offset``."""
        if not has_point(raw):
            return Solution(raw.status, raw.value, {}, raw.message)
        primal = {}
        for decl in data.variables:
            start, length = data.var_offsets[decl.id]
            primal[decl.id] = np.array(raw.x[start:start + length], dtype=float)
        return Solution(raw.status, float(raw.value + data.offset), primal, raw.message)


SOLVERS = {s.name: s for s in (  # a new solver is one more entry
    Solver("simplex", ("stuff_lp", "stuff_qp"), ("stuff_lp",), solve_lp_simplex),
    Solver("admm", ("stuff_lp", "stuff_qp", "stuff_cone"), ("stuff_qp", "stuff_cone"), solve_admm))}
