"""The benchmark's traced path against the library's own entry points.

``bench/run.py --trace 1`` runs each chain member, the solver and retrieval
itself and reads the stuffed ``ProgramData`` fields directly, so a change to
the container can break the benchmark without breaking any library call.
This runs that path on one tiny problem per target and checks it against
``emit_document`` and ``solve_problem``.  It also pins the bytes that
``dcpc canonicalize`` writes for every benchmark problem at seed 1, under the
target it picks and under ``--target qp``, and the bits of every benchmark
solve at seed 1, so a change that moves any emitted byte or solver iterate
fails here.
"""

import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dcpc import solvers
from dcpc.analyzer import apply_chain, select_target, solve_problem
from dcpc.cli import emit_document, main
from dcpc.parsing import parse_problem

from helpers import PROBES, assert_no_affine_atom, bench_workloads

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"

PROBLEMS = {
    "lp": """\
var alice;
var bob;
minimize max(alice + bob + 2, -alice - bob);
subject to
  alice <= 0;
  bob == -0.5;
""",
    "qp": """\
var x[2];
minimize sum_squares(x - [1, 2]) + abs(x[0]);
subject to
  x[0] + x[1] == 1;
  x <= 5;
""",
    "cone": """\
var x[2];
minimize norm2(x - [1, 2]);
subject to
  x[0] + x[1] == 1;
  x >= -5;
""",
}

MATRICES = ("P", "q", "c", "G", "h", "A", "b")


@pytest.fixture(scope="module")
def bench():
    environ = dict(os.environ)  # run.py pins BLAS threads when imported
    try:
        spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
    return module, module.Api()


def library_document(text):
    problem = parse_problem(text)
    report = select_target(problem)
    data, _ = report.chain.apply(problem)
    return emit_document(data, report.chain_names).render()


@pytest.mark.parametrize("target", PROBLEMS)
def test_traced_document_matches_emit_document(bench, target):
    run, api = bench
    tracer = run.Tracer()
    doc = run.traced_canonicalize(api, tracer, PROBLEMS[target])
    assert doc == library_document(PROBLEMS[target])
    assert json.loads(doc)["target"] == target
    assert tracer.counts["cli.emit_bytes"] == len(doc.encode())


@pytest.mark.parametrize("target", PROBLEMS)
def test_stuffed_nonzeros_match_the_document(bench, target):
    run, api = bench
    tracer = run.Tracer()
    doc = json.loads(run.traced_canonicalize(api, tracer, PROBLEMS[target]))
    emitted = sum(int(np.count_nonzero(np.asarray(doc["data"][key], dtype=float)))
                  for key in MATRICES if key in doc["data"])
    assert emitted > 0
    assert tracer.counts[f"reductions.stuff_{target}.nnz"] == emitted


@pytest.mark.parametrize("target", PROBLEMS)
def test_traced_solve_matches_solve_problem(bench, target):
    run, api = bench
    tracer = run.Tracer()
    problem, traced = run.traced_solve(api, tracer, PROBLEMS[target])
    outcome = solve_problem(problem)
    expected = outcome.solution
    assert outcome.report.target.name.lower() == target
    assert traced.status is expected.status
    assert traced.value == expected.value
    assert traced.primal.keys() == expected.primal.keys()
    for var_id, vec in expected.primal.items():
        np.testing.assert_array_equal(traced.primal[var_id], vec)
    label, _ = api.solvers[outcome.report.target]
    assert tracer.counts[f"solvers.{label}.iterations"] == outcome.raw.iterations


@pytest.mark.parametrize("name", ["qp-infeasible", "qp-unbounded",
                                  "cone-infeasible", "cone-unbounded"])
def test_traced_solve_certifies_probes(bench, name):
    run, api = bench
    text, expected = PROBES[name]
    tracer = run.Tracer()
    _, traced = run.traced_solve(api, tracer, text)
    assert traced.status is expected
    label = "qp_admm" if name.startswith("qp") else "cone_admm"
    assert 0 < tracer.counts[f"solvers.{label}.iterations"] <= 100


# sha256 of the canonicalize document of each benchmark problem at seed 1,
# keyed by (workload, position in make_cases).
DOCUMENT_SHA256 = {
    ("canon-scalar", 0): "2387840729b66880ea0a7fff2c7e1da482a57151cf6b3fea96329f2b73530ba1",
    ("canon-scalar", 1): "f963398064c532e4fdff058e9735867efecbc295253c7be305f7321b2550e0c4",
    ("canon-scalar", 2): "8d2d8531c66ceb54cbda80828de3a14394c930476a47a853b2b49d97977679da",
    ("solve-dense", 0): "66336276cca6c5b3c16ef2964aee4c0d989b448aad78253266cd28d2ce6622d9",
    ("solve-dense", 1): "370dd1ac233c2116892291e681b056615261ae1c954e94f0d880aae2ef94f76c",
    ("solve-dense", 2): "e13de383985dfd5c5f1cb0da1e278095222fee9ee109d40b07ffb86d7f74d06a",
    ("solve-dense", 3): "75e758248738d582ae854c77f25a08789872974bdf961813bace2369f87c3aa2",
    ("solve-dense", 4): "e9f23ed25284523ad21ed3b343bf75d7b60cd407b5920898e63b60e1dda3c3c2",
    ("solve-dense", 5): "d893b7998ec21f206f0e4f923729bbe13d741147e076338d373c413ebb3353e3",
    ("solve-dense", 6): "f25ddb81d737fc66d785e39dfbb24b7217d99166b89f99e0dc7f4ff4c9202694",
    ("solve-dense", 7): "6c992d20f7b20c670136a811051952c9bd368d82f92ae1e332ef45fc05228f7b",
    ("solve-dense", 8): "9b172d1c02052389690cbc02fe956fc7621ef9601447cba5f1cc2db37a9d0dac",
    ("solve-dense", 9): "7d5d200397bc5348d6890e2bd16b82c04450129477c737ec66cbb961ea5124dc",
    ("solve-dense", 10): "a64d11034889c1005662a95d971cd4ae0d174beaab49f11190730bdf99cb59c0",
    ("solve-dense", 11): "ea311ff50f20709ed348df6562cc46c4926655ebb2e7754fd0ee5bfde6f62e2f",
    ("solve-dense", 12): "98035e6817536bbe99b2cafa25baeedb1906f4853baf14d827eb0cc86ab969a9",
    ("solve-dense", 13): "f26944a7b7d2b1957a7ee74584632f7f6345ef317b12c95dc87df21c244215ee",
    ("solve-dense", 14): "21208ee004fd35c4bd0b0b4247a634f4f09a97dfadea34c9d6b157d6d9745726",
    ("solve-wide", 0): "68fd31082dd0eabdbed7117bb2aca3153428ae1fd2316d99bb240ef00b414b14",
    ("solve-wide", 1): "6fec3d0f05487583eca5a78cb20f6c160f786b029bda4b7da8000a75fca2cfbf",
    ("solve-wide", 2): "6305c737874e9ece9c392ef049459b850167be74d8ededf7d80bd55109745fcd",
    ("solve-wide", 3): "8d4094ad4161e03b5df46711054e9421a1cd4effb6fa890e094e548519dc25de",
    ("solve-wide", 4): "75e7e1d4a664ac1772bab3440085b0c19c7546a6941fdcfe6a4e7bb6c75b0348",
    ("solve-wide", 5): "d043ce746e65c16e2cc9d0f67b4597e0bb3268a285ad82b18d3541b0b5302d70",
}


@pytest.fixture(scope="module")
def seed_one_cases(bench):
    run, _ = bench
    sys.path.insert(0, str(RUN_PY.parent))  # make_cases imports workloads
    try:
        return {(workload, i): case.text
                for workload in ("canon-scalar", "solve-dense", "solve-wide")
                for i, case in enumerate(run.make_cases(workload, 1))}
    finally:
        sys.path.remove(str(RUN_PY.parent))


def test_canon_scalar_parses_to_few_nodes(bench, seed_one_cases):
    # Each affine subtree is one form leaf; one node per operator made
    # 89 154 nodes of these three problems, and a tenth of that is the bound.
    run, _ = bench
    nodes = sum(run.count_nodes(parse_problem(text))
                for (workload, _), text in seed_one_cases.items()
                if workload == "canon-scalar")
    assert nodes <= 8915


def test_no_atom_node_is_affine_in_any_benchmark_stage(seed_one_cases):
    for text in seed_one_cases.values():
        assert_no_affine_atom(parse_problem(text))


def test_benchmark_documents_keep_their_bytes(seed_one_cases):
    assert seed_one_cases.keys() == DOCUMENT_SHA256.keys()
    for key, text in seed_one_cases.items():
        problem = parse_problem(text)
        report = select_target(problem)
        data, _ = apply_chain(report.chain, problem)
        doc = emit_document(data, report.chain_names).render()
        assert hashlib.sha256(doc.encode()).hexdigest() == DOCUMENT_SHA256[key], key


# sha256 of ``dcpc canonicalize --target qp`` on each benchmark problem at
# seed 1: its exit code, stdout and stderr, since the QP target rejects the
# cone problems; keyed as above.
QP_DOCUMENT_SHA256 = {
    ("canon-scalar", 0): "0469e465a37b2562881233485389605b994acf604c5534bb3041f179709830ea",
    ("canon-scalar", 1): "910e7914f0666475443d291115ffc991f089a82e0449e7093e422dd5cd395168",
    ("canon-scalar", 2): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
    ("solve-dense", 0): "79fa35b7da1522a414e2d0ebe111555afd96f79baf2cd011e079da94bf4cad61",
    ("solve-dense", 1): "a210f835381af673a8663889e37f9de76636d8f6d7b4d7631de254322261bc9d",
    ("solve-dense", 2): "fab3c5cb2c6cddd0c440ac6acaa1a11bd110c6ad0ee82cd95bebcf085f7ea4ef",
    ("solve-dense", 3): "786ac9832da309326b71303412a84c69174ae1d12348003a764b490505b850a6",
    ("solve-dense", 4): "adb321e9cecad15ea0911d9c90fc1ce282be8115849d935c0df7036f4b4e0c3b",
    ("solve-dense", 5): "621f42e99cd189082b48d8db9dda0160f63fea6d572d7714fffe2ae026dab864",
    ("solve-dense", 6): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
    ("solve-dense", 7): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
    ("solve-dense", 8): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
    ("solve-dense", 9): "bf1240535451cdd5aa6ef402b767f864799ab483c6af9107fa774e6a61b3b07f",
    ("solve-dense", 10): "5e7983cdf95773de03d2e2ed6a74caaee85462e62252d6af34723aba1a1ee5eb",
    ("solve-dense", 11): "9aa7133530c6632a4f9684ed3fe3de73271f278bd764d9c1e4d4103ab8e721b8",
    ("solve-dense", 12): "db7bf5f6719d24b2df19225f9cd3f224c1e9a61c36398e26cddc67377eb635cb",
    ("solve-dense", 13): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
    ("solve-dense", 14): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
    ("solve-wide", 0): "c8561d99781b75d6b24e0a972e137f8c713d9fd29a6d2c796334ddf9c9923b83",
    ("solve-wide", 1): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
    ("solve-wide", 2): "c2c847f5c0dcd31fed9e6565c458088ccf22e72312b63fe67602045c5befc6a0",
    ("solve-wide", 3): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
    ("solve-wide", 4): "7cd3df5497055dc90a20ea09d7b5e15fef210542b518d3cc99e52dbfb0c13032",
    ("solve-wide", 5): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
}


def test_forced_qp_documents_keep_their_bytes(seed_one_cases, tmp_path):
    assert seed_one_cases.keys() == QP_DOCUMENT_SHA256.keys()
    path = tmp_path / "problem.cvx"
    for key, text in seed_one_cases.items():
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        code = main(["canonicalize", str(path), "--target", "qp"], out, err)
        digest = hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode())
        assert digest.hexdigest() == QP_DOCUMENT_SHA256[key], key

# sha256 of each benchmark solve at seed 1: its status, iteration count, value
# repr and message, then the primal bytes in variable-id order, keyed as above.
SOLVE_SHA256 = {
    ("solve-dense", 0): "9bc30c7b504bc79066634a582027e40af1be2b179bdb017b3a9d24d3abfd915b",
    ("solve-dense", 1): "a2106d976f3b9126d4e0d9d5c89c0709e484b384ebf3f190e192d77b8825022a",
    ("solve-dense", 2): "b8df28c2b3489597b5cfd9df2added9c70a1e8825da3daebc6094de264956a5c",
    ("solve-dense", 3): "704395bbb9d995a9973eae1135dc5df70aee519c1f322439b8dfb075d6feb571",
    ("solve-dense", 4): "9138b1a2d7179ad35123964596c2e4818b7109b22eea17b8be85745337936de8",
    ("solve-dense", 5): "12619fd78532356ad09877414c482e268d1feea7238e37d43a5b4646488b0668",
    ("solve-dense", 6): "8a4e41f48208d52e0871fe265e18b6c6fd6912ba449fca450be4da8ee877a1ee",
    ("solve-dense", 7): "0a8fb498872a4936edee49a2c52cce1bb0883e6a5dc505bdd880fb5a89e8fc54",
    ("solve-dense", 8): "7875ecf88daf52c3be8890250c8d360fc99c9a5c8bccdc56ab9309f0a532bc85",
    ("solve-dense", 9): "48d66c7ba231dcd99e14ffa67bdfd45ace66eace409711c828b00782dd48b451",
    ("solve-dense", 10): "bdb5dbfb83c95a70289d77835a52141e856d38f42e7383c93c11881aa67ab47c",
    ("solve-dense", 11): "a0b46f250e53e1d6422837e84d0a212a582d53237addb49521803ab5d4399158",
    ("solve-dense", 12): "9e50b64017432a73c8ca9796259ec08a4da5b7659771446ec72a5037b974aab9",
    ("solve-dense", 13): "a0b46f250e53e1d6422837e84d0a212a582d53237addb49521803ab5d4399158",
    ("solve-dense", 14): "9e50b64017432a73c8ca9796259ec08a4da5b7659771446ec72a5037b974aab9",
    ("solve-wide", 0): "a63cf5966bb72b30be02fc1a5504d3129a11641c3e329436fc4638d5e5ec4679",
    ("solve-wide", 1): "ef280549196f00155c5005b7343ab7cc426991795f5465f74b1762fd69290d3d",
    ("solve-wide", 2): "6757639713ce5536b724a44ec77a73f392f97fb9de0abe8503ed5ab364584c14",
    ("solve-wide", 3): "c4b5259704e3d4b8c0b11bc2cf9566aa1d3662d475f975a4eb71335d22cbaa94",
    ("solve-wide", 4): "e547f63e81d7bda823c59264bfc7f2c3cff2ccf20578606e57058bf5ddb95886",
    ("solve-wide", 5): "81b77785176272eb5800f8931e01d6ea570aa27f9972921f11aed4e649041166",
}


def solve_digest(text):
    outcome = solve_problem(parse_problem(text))
    s = outcome.solution
    digest = hashlib.sha256(
        f"{s.status.name}|{outcome.raw.iterations}|{s.value!r}|{s.message}".encode())
    for var_id in sorted(s.primal):
        digest.update(s.primal[var_id].tobytes())
    return digest.hexdigest()


def test_benchmark_solves_keep_their_bits(seed_one_cases):
    solves = {key: text for key, text in seed_one_cases.items()
              if key[0] != "canon-scalar"}
    assert solves.keys() == SOLVE_SHA256.keys()
    for key, text in solves.items():
        assert solve_digest(text) == SOLVE_SHA256[key], key


# (workload, position in make_cases) of the seed-1 problems the splitting
# solver takes: solve-dense's QP and cone problems, and all of solve-wide
SPLITTING_CASES = ([("solve-dense", i) for i in range(3, 9)]
                   + [("solve-wide", i) for i in range(6)])


def first_kkt(text, rho_bar=solvers._RHO0):
    """The splitting solver's KKT matrix of ``text`` at ρ̄ = ``rho_bar`` (its
    first ρ by default), with its number of late rows."""
    problem = parse_problem(text)
    data, _ = apply_chain(select_target(problem).chain, problem)
    n = data.q.size
    P = sp.csr_matrix((n, n)) if data.P is None else data.P
    _, _, P, A = solvers._equilibrate(P, data.A, data.cones)
    rows, lead = solvers._order(P, A, data.cones.zero)
    kkt, diagonal = solvers._kkt(P, A, rows, lead)
    eq = np.arange(A.shape[0]) < data.cones.zero
    kkt.data[diagonal] = -1.0 / (np.where(eq, solvers._EQ_RHO_SCALE, 1.0) * rho_bar)
    return kkt, A.shape[0] - lead


def test_kkt_ordering_side_of_each_benchmark_family(seed_one_cases):
    # no benchmark family has an equality or a dense row: every row comes
    # before the variables
    for key in SPLITTING_CASES:
        assert first_kkt(seed_one_cases[key])[1] == 0, key


def relative_residual(kkt):
    r = np.random.default_rng(kkt.shape[0]).normal(size=kkt.shape[0])
    residual = kkt @ solvers._factor(kkt, {}).solve(r) - r
    return np.abs(residual).max() / np.abs(r).max()


def assert_small_residual(text):
    assert relative_residual(first_kkt(text)[0]) <= 1e-12


def test_kkt_solves_are_accurate_on_both_sides(seed_one_cases):
    for key in SPLITTING_CASES:
        assert_small_residual(seed_one_cases[key])


@pytest.mark.parametrize("rho_bar", [1e-6, 1e6])
def test_kkt_solves_are_accurate_at_the_rho_bounds(seed_one_cases, rho_bar):
    # ρ̄ is clipped to [1e-6, 1e6]; at 1e6 the -1e-6 row pivots are the least
    # accurate: up to 1.7e-9 here, against 5.7e-10 in COLAMD order
    for key in SPLITTING_CASES:
        assert relative_residual(first_kkt(seed_one_cases[key], rho_bar)[0]) <= 1e-8, key


@pytest.mark.parametrize("family", ["wide-qp", "wide-cone"])
def test_wide_kkt_solve_is_accurate_at_n_1000(family):
    # a symmetric ordering with no diagonal pivot threshold left 6.6e-10 here
    case = bench_workloads().wide_case(np.random.default_rng(1000), family, 1000)
    assert_small_residual(case.text)
