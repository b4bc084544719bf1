"""The numpy CSR record of ``ProgramData`` against scipy's CSR, bit for bit.

``ProgramData`` canonicalizes its input with numpy alone, the row gather
serves the SOC reorder and the writer's row split, and ``quadratic_form``
symmetrizes its Hessian without scipy; each must give the arrays scipy gave.
Rows hold at most 16 stored entries, where scipy's in-row sort keeps stored
order, so repeated entries add in one defined order on both sides.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from dcpc import expressions as ex
from dcpc.reductions import qp
from dcpc.reductions.cone import ConeDims, CsrMatrix, ProgramData

from helpers import scipy_csr

# stored values that tell the order of a sum apart, and the signed zeros
POOL = np.array([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 0.1, 1 / 3, 5e-324, 1e308])


def same_csr(got, want):
    """The record ``got`` holds scipy's ``want``: data bit for bit, the same
    index values, and the shape."""
    return (isinstance(got, CsrMatrix) and got.shape == want.shape
            and got.data.dtype == np.float64 and got.data.tobytes() == want.data.tobytes()
            and got.indices.tolist() == want.indices.tolist()
            and got.indptr.tolist() == want.indptr.tolist())


def random_values(rng, size):
    return np.where(rng.random(size) < 0.5, rng.choice(POOL, size),
                    rng.standard_normal(size) * 10.0 ** rng.integers(-5, 5, size))


def random_triplets(rng, m, n):
    """COO triplets in random order, with repeated places, at most 16 per row."""
    counts = rng.integers(0, 17, m) * (rng.random(m) < 0.8) if n else np.zeros(m, dtype=int)
    rows = np.repeat(np.arange(m), counts)
    cols = rng.integers(0, max(n, 1), rows.size)
    order = rng.permutation(rows.size)
    return rows[order], cols[order], random_values(rng, rows.size)


def program(M):
    """``ProgramData`` with ``M`` as its ``A`` and, when square, its ``P``."""
    m, n = M.shape
    return ProgramData(M if m == n else None, np.zeros(n), 0.0, M, np.zeros(m),
                       ConeDims(0, m, ()), {}, ())


def scipy_canonical(M):
    R = sp.csr_matrix(M, dtype=float, copy=True)
    R.sum_duplicates()
    return R


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (4, 4), (7, 3), (3, 9)]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("shape", SHAPES, ids=[f"{m}x{n}" for m, n in SHAPES])
class TestCanonicalInput:
    def test_dense_input(self, seed, shape):
        rng = np.random.default_rng(seed)
        M = np.where(rng.random(shape) < 0.5, 0.0, random_values(rng, shape))
        data = program(M)
        assert same_csr(data.A, scipy_canonical(M))
        if data.P is not None:
            assert data.P is not data.A and same_csr(data.P, scipy_canonical(M))

    def test_coo_input_with_repeats(self, seed, shape):
        rng = np.random.default_rng(seed)
        rows, cols, vals = random_triplets(rng, *shape)
        M = sp.coo_matrix((vals, (rows, cols)), shape=shape)
        before = M.data.tobytes()
        assert same_csr(program(M).A, scipy_canonical(M))
        assert M.data.tobytes() == before  # the caller's matrix is kept

    def test_unsorted_csr_input(self, seed, shape):
        rng = np.random.default_rng(seed)
        rows, cols, vals = random_triplets(rng, *shape)
        order = np.argsort(rows, kind="stable")  # rows in order, columns as they came
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
        M = sp.csr_matrix((vals[order], cols[order], indptr), shape=shape)
        assert same_csr(program(M).A, scipy_canonical(M))


def test_a_lone_negative_zero_is_kept_and_repeats_add_in_stored_order():
    # (1e16 + 1) - 1e16 is 0 but (1e16 - 1e16) + 1 is 1; a lone -0.0 stays
    M = sp.coo_matrix(([1e16, -0.0, 1.0, -1e16, 5e-324], ([0, 1, 0, 0, 1], [2, 0, 2, 2, 1])),
                      shape=(2, 3))
    A = CsrMatrix.of(M)
    assert same_csr(A, scipy_canonical(M))
    assert A.data.tolist() == [0.0, -0.0, 5e-324] and np.signbit(A.data[1])
    assert A.toarray().tolist() == M.toarray().tolist() and not np.signbit(A.toarray()).any()


@pytest.mark.parametrize("M", [np.array([1.0, 0.0, -2.0]), np.array(3.0), np.array([-0.0])],
                         ids=["vector", "scalar", "negative-zero"])
def test_a_dense_vector_or_scalar_is_one_row(M):
    assert same_csr(CsrMatrix.of(M), scipy_canonical(M))


@pytest.mark.parametrize("seed", range(30))
def test_row_gather_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(0, 9)), int(rng.integers(0, 6))
    rows, cols, vals = random_triplets(rng, m, n)
    A = program(sp.coo_matrix((vals, (rows, cols)), shape=(m, n))).A
    R = scipy_csr(A)
    assert A.nnz == R.nnz
    assert A.toarray().tobytes() == R.toarray().tobytes()
    zero = int(rng.integers(0, m + 1))
    assert same_csr(A[:zero], R[:zero]) and same_csr(A[zero:], R[zero:])
    for order in (rng.permutation(m), rng.integers(0, max(m, 1), m if m else 0)):
        assert same_csr(A[order], R[order])


def old_symmetric_part(keys, vals, width):
    """``quadratic_form``'s ``P`` as scipy built it from the Hessian's keys."""
    P = sp.csr_matrix((vals, (keys // width, keys % width)), shape=(width, width))
    P = 0.5 * (P + P.T)
    P.eliminate_zeros()
    return P


def form_of_hessian(monkeypatch, keys, vals, width):
    """``quadratic_form``'s ``P`` for a Hessian given as one row-major block."""
    blocks = {"H": [(np.zeros(keys.size, dtype=np.intp), keys, vals)],
              "Q": [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]}
    monkeypatch.setattr(qp, "_quad_pieces", lambda *args: (blocks, np.zeros(1)))
    x = ex.VariableDecl(0, "x", width)
    P, _, _ = qp.quadratic_form(ex.sum_(ex.var_ref(x)), {0: (0, width)}, width)
    return P


@pytest.mark.parametrize("seed", range(40))
def test_quadratic_form_matches_the_scipy_symmetric_part(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 7))
    keys = np.unique(rng.integers(0, width * width, int(rng.integers(0, width * width + 1))))
    rows, cols = np.divmod(keys, width)
    vals, flipped = random_values(rng, keys.size), cols * width + rows
    lone = ~np.isin(flipped, keys)
    vals[lone & (rng.random(keys.size) < 0.3)] = 5e-324  # halves that underflow
    pairs = ~lone & (rows < cols) & (rng.random(keys.size) < 0.5)
    vals[np.searchsorted(keys, flipped[pairs])] = -vals[pairs]  # pairs that cancel
    P = form_of_hessian(monkeypatch, keys, vals, width)
    assert same_csr(P, old_symmetric_part(keys, vals, width))


def test_quadratic_form_keys_past_32_bits_cancel_and_underflow(monkeypatch):
    width = 65538  # keys r * width + c pass 2**32 from row 65536 on
    r = np.array([0, 0, 1, 65536, 65536, 65537, 65537])
    c = np.array([65536, 65537, 65537, 65536, 65537, 0, 65536])
    keys = r * width + c
    vals = np.array([2.0, 5e-324, 5e-324, 4.0, 3.0, 7.0, -3.0])
    assert keys.max() > 2**32 and (np.diff(keys) > 0).all()
    P = form_of_hessian(monkeypatch, keys, vals, width)
    assert same_csr(P, old_symmetric_part(keys, vals, width))
    # (0, 65537) + (65537, 0) is 7 + 5e-324, (65536, 65537) cancels, the
    # lone 5e-324 at (1, 65537) halves to 0, and the lone (0, 65536) to 1
    assert P.nnz == 5 and P.data.tolist() == [1.0, 3.5, 1.0, 4.0, 3.5]
