"""The benchmark's traced path against the library's own entry points.

``bench/run.py --trace 1`` runs each chain member, the solver and retrieval
itself and reads the stuffed ``ProgramData`` fields directly, so a change to
the container can break the benchmark without breaking any library call.
This runs that path on one tiny problem per target and checks it against
``emit_document`` and ``solve_problem``.  It also pins the bytes that
``dcpc canonicalize`` writes for every benchmark problem at seeds 1 to 3,
under the target it picks and under ``--target qp``, and the bits of every
benchmark solve at those seeds, so a change that moves any emitted byte or
solver iterate fails here.
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

# the same digests at seeds 2 and 3, keyed by seed and then as above
DOCUMENT_SHA256_BY_SEED = {
    1: DOCUMENT_SHA256,
    2: {
        ("canon-scalar", 0): "73921fee635893a689fd5ca451e58438ab59dd5870038ec5cb7126c065bed24d",
        ("canon-scalar", 1): "50ad702da25a7a489c835e10da6ddc3df5562c81ac20ab91f0d7aea9edd9ce87",
        ("canon-scalar", 2): "0a0bc852bfffbd547d929d609f12c1fd18ca24ead2b2e384b27c253a98b57cbe",
        ("solve-dense", 0): "8525b6115910d75c8e7162f6c0a9be5b326011003d97739fb18659230efec816",
        ("solve-dense", 1): "63b2f04700d780fefda4eb4b8194ad1dfe68793efc75027a0b7a3ee61ec5faf0",
        ("solve-dense", 2): "665de9a26f0f8b3114d05cffeb5aa9a13858ca1935ee8d1230ff65716da09087",
        ("solve-dense", 3): "468f25480d0d3180d9f0e5baedfa874ddbee31dd5d328260a6a350c5242c6f1f",
        ("solve-dense", 4): "9736cd8048bc332c34ff42eff2b01ef9f8834e2f2f7e2de1affc90a737dd8ca5",
        ("solve-dense", 5): "9661782f31d569fa7ffff8be2e7c37ebce0378b0a9eee47557bce1a7b51c7462",
        ("solve-dense", 6): "5dce50e666502dfec54b694fd14848ca410361eb8fc0ba77c3807e27a78ffc94",
        ("solve-dense", 7): "067c95fd3c35bdd85ae8798e5c92e54607f1d402d3f7acb39e34313e4761c05f",
        ("solve-dense", 8): "5857979f34451fda5a167fef088906cb8f1cfaf064ebf731925c4e4ab22c6d8a",
        ("solve-dense", 9): "7d5d200397bc5348d6890e2bd16b82c04450129477c737ec66cbb961ea5124dc",
        ("solve-dense", 10): "a64d11034889c1005662a95d971cd4ae0d174beaab49f11190730bdf99cb59c0",
        ("solve-dense", 11): "ea311ff50f20709ed348df6562cc46c4926655ebb2e7754fd0ee5bfde6f62e2f",
        ("solve-dense", 12): "98035e6817536bbe99b2cafa25baeedb1906f4853baf14d827eb0cc86ab969a9",
        ("solve-dense", 13): "f26944a7b7d2b1957a7ee74584632f7f6345ef317b12c95dc87df21c244215ee",
        ("solve-dense", 14): "21208ee004fd35c4bd0b0b4247a634f4f09a97dfadea34c9d6b157d6d9745726",
        ("solve-wide", 0): "1573387e6bffc9015782ae03f655b9c8317e94dd4300cb203d8621083a83c9dd",
        ("solve-wide", 1): "8a5f39a00df372ea58c12f3db9420663235648db2780952abda76bd0c392dd95",
        ("solve-wide", 2): "9e309a844646ed89ad4803cb38e06e70ddbf1f4557bc144839f28b0dd3bfc04b",
        ("solve-wide", 3): "c13a2646512c4e5387abfd9b8b698e041f9d7d9d4fefb5e9f1c3257c71744e23",
        ("solve-wide", 4): "c44a0500323872cf4315343087787878a5d213480cb0ab664341e85bfc8c8a36",
        ("solve-wide", 5): "001aeb06e19c2545ccedb9b2653fd8fa66dc9c51d44aaed856d0c009c8f100e6",
    },
    3: {
        ("canon-scalar", 0): "08bba13f859730aa8fd8c982415836077c8c6a14200ed349d98e09818bf366d7",
        ("canon-scalar", 1): "f4f32d6247df482e32e5d95e25b4d6826bcf578c7e951f9459dcdefd7d2d433d",
        ("canon-scalar", 2): "7770887a617b703501bfd8a6c871e0dd0c634d52dbd6afb62d83062016acd16d",
        ("solve-dense", 0): "8c943260b09cdcd3c58c5c48b984976182f4fcdae1dc504f7f7228c563fc9924",
        ("solve-dense", 1): "b06c2c399c90c2fc0c82f0a6b5029618669cae675dcb8f05c27f093cd52d69eb",
        ("solve-dense", 2): "3d75d0906c1cc8621c10982711ecb05101092d48c83c380861b6b7b57225d8a7",
        ("solve-dense", 3): "876442de5fecf40d54a3ebcfb5a944a423b1d761bbed3681367ccd28870339a6",
        ("solve-dense", 4): "42902286f95114a207c7468c3955ed303960973cf7c246333a2005ca5dfe4d53",
        ("solve-dense", 5): "a10a3527c4ae75107b6cf84fff8022c201ecb21660560062dc775d2396caf904",
        ("solve-dense", 6): "a78e534bd75bce903403744120a9bb502724bd556c28333f182f97cbb76a1ebc",
        ("solve-dense", 7): "15fedfeaa45d30c8fc525873dd4f90ba2b5476e34bae8081d8970396ac2c15a2",
        ("solve-dense", 8): "6ccbc453da0085c8c7df5ae0a670ff3c6339aaac48d6d7cdb0aec8c469320d81",
        ("solve-dense", 9): "7d5d200397bc5348d6890e2bd16b82c04450129477c737ec66cbb961ea5124dc",
        ("solve-dense", 10): "a64d11034889c1005662a95d971cd4ae0d174beaab49f11190730bdf99cb59c0",
        ("solve-dense", 11): "ea311ff50f20709ed348df6562cc46c4926655ebb2e7754fd0ee5bfde6f62e2f",
        ("solve-dense", 12): "98035e6817536bbe99b2cafa25baeedb1906f4853baf14d827eb0cc86ab969a9",
        ("solve-dense", 13): "f26944a7b7d2b1957a7ee74584632f7f6345ef317b12c95dc87df21c244215ee",
        ("solve-dense", 14): "21208ee004fd35c4bd0b0b4247a634f4f09a97dfadea34c9d6b157d6d9745726",
        ("solve-wide", 0): "acfec3bcb2b3750953d66408f827e5a11656d30064acb9156e1b9e470f199e11",
        ("solve-wide", 1): "7bb800cc8ae2f4f3847653944f091b5d8c175f5898136d3484777eb9620e7786",
        ("solve-wide", 2): "0118cbbc45fba4eb1ed9652e386767cb0afb08cf125f3a5e36566d3f0e4767f8",
        ("solve-wide", 3): "a35cf78a48b030b612766338c0b2c325a513ba196691d0b2f5b0269cfa255931",
        ("solve-wide", 4): "1f4f29f29e37adb2f691f5fd837ae59f100db8c2309cc67260080ac1d01592b1",
        ("solve-wide", 5): "27bd36cb7b3df4895ae11193b4be9626f4d064b5b0e1d9b5dfa3c640df8827b6",
    },
}


@pytest.fixture(scope="module")
def seed_cases(bench):
    """The benchmark problems of seeds 1, 2 and 3, keyed by seed and then by
    (workload, position in make_cases)."""
    run, _ = bench
    sys.path.insert(0, str(RUN_PY.parent))  # make_cases imports workloads
    try:
        return {seed: {(workload, i): case.text
                       for workload in ("canon-scalar", "solve-dense", "solve-wide")
                       for i, case in enumerate(run.make_cases(workload, seed))}
                for seed in (1, 2, 3)}
    finally:
        sys.path.remove(str(RUN_PY.parent))


@pytest.fixture(scope="module")
def seed_one_cases(seed_cases):
    return seed_cases[1]


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


def test_benchmark_documents_keep_their_bytes(seed_cases):
    for seed, cases in seed_cases.items():
        assert cases.keys() == DOCUMENT_SHA256_BY_SEED[seed].keys()
        for key, text in cases.items():
            problem = parse_problem(text)
            report = select_target(problem)
            data, _ = apply_chain(report.chain, problem)
            doc = emit_document(data, report.chain_names).render()
            digest = hashlib.sha256(doc.encode()).hexdigest()
            assert digest == DOCUMENT_SHA256_BY_SEED[seed][key], (seed, key)


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

# the same digests at seeds 2 and 3, keyed by seed and then as above
QP_DOCUMENT_SHA256_BY_SEED = {
    1: QP_DOCUMENT_SHA256,
    2: {
        ("canon-scalar", 0): "d9cba18377a5384994c43803653cbb7926d9725d727164269ee297e9449599ef",
        ("canon-scalar", 1): "b8cc7402e76de359d1dfff03b3b5805f33d75d295d8cb241e8b541a27d35a431",
        ("canon-scalar", 2): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-dense", 0): "fe293a0631ee538cfc01548013aa4c62c1eda24bf41608a6f7193f312afc4e4a",
        ("solve-dense", 1): "4b5e7baf5ea4afb6c7443d5c338e3ce2f64b2f1072447adcea00023b744ec859",
        ("solve-dense", 2): "310c86ab50b82e2fc67edd08ab96c9412c7c27f6cee6b3f098f9d64c3aa32f77",
        ("solve-dense", 3): "cc6640d465fd33fc882ba0c05ee06f6b9df1aba24fecdb6bfee3fc5e7ac45f7a",
        ("solve-dense", 4): "46bb2fdab37aa4c6f84b01b6c02816989cf80949cd4c04d895f34a8f7a9f6d30",
        ("solve-dense", 5): "aaeab11706ccc3c0f66e481dc7198a95fcde6a30bc8a567aa2d25475df5a0c11",
        ("solve-dense", 6): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-dense", 7): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-dense", 8): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-dense", 9): "bf1240535451cdd5aa6ef402b767f864799ab483c6af9107fa774e6a61b3b07f",
        ("solve-dense", 10): "5e7983cdf95773de03d2e2ed6a74caaee85462e62252d6af34723aba1a1ee5eb",
        ("solve-dense", 11): "9aa7133530c6632a4f9684ed3fe3de73271f278bd764d9c1e4d4103ab8e721b8",
        ("solve-dense", 12): "db7bf5f6719d24b2df19225f9cd3f224c1e9a61c36398e26cddc67377eb635cb",
        ("solve-dense", 13): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-dense", 14): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-wide", 0): "7c1238a08d8f1c2480fbcb0363602f5031107015264451c4191470304d634364",
        ("solve-wide", 1): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-wide", 2): "8ed231f3a17a324b231a603709acf80ab8222a5d347e4c7f3a54ad7135a96376",
        ("solve-wide", 3): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-wide", 4): "336daa3f3119991bffb6a071add5f253ff7c807b9d5b8b6eddc2b8bac4080c9a",
        ("solve-wide", 5): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
    },
    3: {
        ("canon-scalar", 0): "bed45395979d468ba5ddb7f28153cddbc2fc658baee6194cd0e3409da1b508f2",
        ("canon-scalar", 1): "30f0e1f78f5f949ffd0d13edb25a1b0069f2bfd0278f916e6d4a6f3809c3ec80",
        ("canon-scalar", 2): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-dense", 0): "b28dc0cf7149cfcb01543eecbea7c4aef132c34519f486c3fd0545b68e7ba811",
        ("solve-dense", 1): "1b13d381315ac78a0ec71c6e4d240a63c4222c12f147118f35acd14d9e356fb0",
        ("solve-dense", 2): "579bffd65fde24309347dc571f7698077c76cdab57b3658756d31072ad97fc26",
        ("solve-dense", 3): "fb8002f1ac184e05f6599a6db587caa8391ba3362a2dc54775a0e1e41ef6d5c0",
        ("solve-dense", 4): "d0772900cf82e1e8fc2e02b627b37b5e230d9414a59744e1a6145c787a900380",
        ("solve-dense", 5): "ebca9d158dd9dfecd923ca7d74b1bdbdf89f60df4fb9430e97901a37ffea509d",
        ("solve-dense", 6): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-dense", 7): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-dense", 8): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-dense", 9): "bf1240535451cdd5aa6ef402b767f864799ab483c6af9107fa774e6a61b3b07f",
        ("solve-dense", 10): "5e7983cdf95773de03d2e2ed6a74caaee85462e62252d6af34723aba1a1ee5eb",
        ("solve-dense", 11): "9aa7133530c6632a4f9684ed3fe3de73271f278bd764d9c1e4d4103ab8e721b8",
        ("solve-dense", 12): "db7bf5f6719d24b2df19225f9cd3f224c1e9a61c36398e26cddc67377eb635cb",
        ("solve-dense", 13): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-dense", 14): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-wide", 0): "0b36a7f59f7e1cebd6f7c83068ead3e9188efb5b9a9b7f11941828fe100ec41c",
        ("solve-wide", 1): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-wide", 2): "ee4e5d68bb224c20e5f40e3fdc1eef15408bf9007333b44d73e1e67f75345a9e",
        ("solve-wide", 3): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
        ("solve-wide", 4): "46f6587cecbd63c5ca45715da9ea48dadc81a6497a3c1f61521478bd4c01ae3d",
        ("solve-wide", 5): "f0ec01944dd22fa79b51e038ff38766eb68029f862bef61d9e88ba5882262231",
    },
}


def test_forced_qp_documents_keep_their_bytes(seed_cases, tmp_path):
    path = tmp_path / "problem.cvx"
    for seed, cases in seed_cases.items():
        assert cases.keys() == QP_DOCUMENT_SHA256_BY_SEED[seed].keys()
        for key, text in cases.items():
            path.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            code = main(["canonicalize", str(path), "--target", "qp"], out, err)
            digest = hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode())
            assert digest.hexdigest() == QP_DOCUMENT_SHA256_BY_SEED[seed][key], (seed, key)

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

# the same digests at seeds 2 and 3, keyed by seed and then as above
SOLVE_SHA256_BY_SEED = {
    1: SOLVE_SHA256,
    2: {
        ("solve-dense", 0): "197e6a1c0ca1441e6dcc2be05956a226b43c895263d56277e9c228ffbaf04f7d",
        ("solve-dense", 1): "4d4b8ad2aa2250a77b5f8431c096ba0cf65e6f115e6d3f9d0870c770dd54d008",
        ("solve-dense", 2): "31484cdd58f9f4bd236b501d8dff78101b54092b9fff99bff9df2afdf55e91fb",
        ("solve-dense", 3): "af599c77ba9152a9846536c7762e14340e96ed6b6007b9aabf1266053049fbfc",
        ("solve-dense", 4): "c7f5a12be56862dc6298b22fc076e9fa953939bf86a93ea114916522c5048e4a",
        ("solve-dense", 5): "d8e320069a8d4d654cf14693625e0cdbfa48bb7b8240f50f00c904849a126a66",
        ("solve-dense", 6): "00c99304f5fdef67e99250d77c87fd80d8fd9be8f8543a79e8f3f4ca5933d5c7",
        ("solve-dense", 7): "79cb5e30be66c486f9818f6ef411b25e2972ab018b8635320b448b0fa27b9469",
        ("solve-dense", 8): "83c7c07646726cba17981f5188e1ea1b6d73cf7494ae97101a48ced5f80ec81d",
        ("solve-dense", 9): "48d66c7ba231dcd99e14ffa67bdfd45ace66eace409711c828b00782dd48b451",
        ("solve-dense", 10): "bdb5dbfb83c95a70289d77835a52141e856d38f42e7383c93c11881aa67ab47c",
        ("solve-dense", 11): "a0b46f250e53e1d6422837e84d0a212a582d53237addb49521803ab5d4399158",
        ("solve-dense", 12): "9e50b64017432a73c8ca9796259ec08a4da5b7659771446ec72a5037b974aab9",
        ("solve-dense", 13): "a0b46f250e53e1d6422837e84d0a212a582d53237addb49521803ab5d4399158",
        ("solve-dense", 14): "9e50b64017432a73c8ca9796259ec08a4da5b7659771446ec72a5037b974aab9",
        ("solve-wide", 0): "37c75e9d23d5bbf766b9df3ba94bda9a009bdfa83837e6e0ad18be36a7ffaae2",
        ("solve-wide", 1): "5fb3cc1417166a8790fe72370b3d46e907135d52cc49462dec208030f429712d",
        ("solve-wide", 2): "f15ae151eb3c77886880021e6a07791aee31e8fcfeb29538de60149ed65af4b3",
        ("solve-wide", 3): "c629d8e8aafcd3c60ea85e0a1aef270ee864e16e7f40281685619fb87aea7941",
        ("solve-wide", 4): "efed8e6e2317a5f985cde1e89cc79a861e2e51a9ad0002e530aa39ca68e2f017",
        ("solve-wide", 5): "a7087b2c782c935809ad79ed7dfc748596a3ff35e1f02357073159a50216a986",
    },
    3: {
        ("solve-dense", 0): "fd2fef565fc235b6cdb7af3b506ff4fe338dcf81d8509188be910a4c8a2ab4e6",
        ("solve-dense", 1): "8217bfbbe92c700363fa64902284001fed9a6d6628147fb48671bf25c5224c67",
        ("solve-dense", 2): "be486160a010a9c10a81c11ccc724bb7435fb2bfed1aabfa15bcd6c375f7ad1a",
        ("solve-dense", 3): "95d576dc5c90443f958b4edd452a5cddd8ce9e8306df8e61cd90b64a43889269",
        ("solve-dense", 4): "34ddb742fbcaff32d1815fb10e369e8d5dc22453c6d535be7e7ed2b9896304e8",
        ("solve-dense", 5): "06510eb2dc46691ea776fc5cab869a3b88ebc2171ac0c61ac3558b3780e6ced6",
        ("solve-dense", 6): "58cd66a85a24c2ff4416f6e2c0869475352355e608c66729185ac48c65b4a8c3",
        ("solve-dense", 7): "df310a534a6fc2dbdb1c31a084100d1e315d283e3bffda1ecaec0b0acfe7ad93",
        ("solve-dense", 8): "f6874f8fbff28c6979e3936a7815d25b4c5c2deec38f962ef446b9d9185b884c",
        ("solve-dense", 9): "48d66c7ba231dcd99e14ffa67bdfd45ace66eace409711c828b00782dd48b451",
        ("solve-dense", 10): "bdb5dbfb83c95a70289d77835a52141e856d38f42e7383c93c11881aa67ab47c",
        ("solve-dense", 11): "a0b46f250e53e1d6422837e84d0a212a582d53237addb49521803ab5d4399158",
        ("solve-dense", 12): "9e50b64017432a73c8ca9796259ec08a4da5b7659771446ec72a5037b974aab9",
        ("solve-dense", 13): "a0b46f250e53e1d6422837e84d0a212a582d53237addb49521803ab5d4399158",
        ("solve-dense", 14): "9e50b64017432a73c8ca9796259ec08a4da5b7659771446ec72a5037b974aab9",
        ("solve-wide", 0): "fb71ba4efb53fa55a91a45bf5e64e304dc6f540f5c11ae7a67a93bb8146a1f1c",
        ("solve-wide", 1): "c776f4efc62b05e8a65346a548ab3192c8c5830924c9ddfcd9746ff4b4b90804",
        ("solve-wide", 2): "9830e03fef095e09f8d948b76b6268f446240dd9c0514cb2a0534ae68f52d3c8",
        ("solve-wide", 3): "500d23a8c1539019b4ce6fa2ef5138262be7178cf64e6e29f65c3ef21676aaee",
        ("solve-wide", 4): "aa2eefe68ae275c276e64f9030a5dcc60f3d91aaf0959b33890a8eb4c7efb0e5",
        ("solve-wide", 5): "841eff081af27d152ca6c050eae9711c64b643f8babd4f092a67c548852dd62b",
    },
}


def solve_digest(text):
    outcome = solve_problem(parse_problem(text))
    s = outcome.solution
    digest = hashlib.sha256(
        f"{s.status.name}|{outcome.raw.iterations}|{s.value!r}|{s.message}".encode())
    for var_id in sorted(s.primal):
        digest.update(s.primal[var_id].tobytes())
    return digest.hexdigest()


def test_benchmark_solves_keep_their_bits(seed_cases):
    for seed, cases in seed_cases.items():
        solves = {key: text for key, text in cases.items() if key[0] != "canon-scalar"}
        assert solves.keys() == SOLVE_SHA256_BY_SEED[seed].keys()
        for key, text in solves.items():
            assert solve_digest(text) == SOLVE_SHA256_BY_SEED[seed][key], (seed, key)


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
