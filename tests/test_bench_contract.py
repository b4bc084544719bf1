"""The benchmark's traced path against the library's own entry points.

``bench/run.py --trace 1`` runs each chain member, the solver and retrieval
itself and reads the stuffed ``ProgramData`` fields directly, so a change to
the container can break the benchmark without breaking any library call.
This runs that path on one tiny problem per target and checks it against
``emit_document`` and ``solve_problem``.  It also pins the bytes that
``dcpc canonicalize`` writes for every benchmark problem at seed 1, so a
change that moves any emitted byte fails here.
"""

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from dcpc.analyzer import apply_chain, select_target, solve_problem
from dcpc.cli import emit_document
from dcpc.parsing import parse_problem

from helpers import PROBES

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
    ("canon-scalar", 0): "e3b27d370bdfc152c0f52bfa75b69162eebb8a526ae52c5a6900e2a69fc67305",
    ("canon-scalar", 1): "fe3d45805898208815d425bf796e481fb8b1a27dee8cc105f0c5bb6fca022f6c",
    ("canon-scalar", 2): "3580022c77f19e6917e9d7398e617f9c4c74c0767edc422dd1e47c1af348867d",
    ("solve-dense", 0): "82ae4534eb045f9ea2414c1426ef219148d70915df2fa2a4b4d8d6d19e8e2fbc",
    ("solve-dense", 1): "2d11a6fd75c8a8512f18fd97e16d18a02c5165d161b0e7fc4d65e9ae010bd3e1",
    ("solve-dense", 2): "f00c4d5027a0489682bab6dc9f01772aa61c65abbc1d3dcecaa956cf9da6fe9e",
    ("solve-dense", 3): "447a11c422bf2c89f80c5c60b1627ea80aeecb17557256ca5ad38d2ec525b70d",
    ("solve-dense", 4): "ecac8d6d3567e4899b384ce7f942fb3019f90cb245a7f7689c2d0646b5a41a5f",
    ("solve-dense", 5): "ffdee1f165b4cb5429dcb074829377b1672557224da228f820556cf06de7b6bb",
    ("solve-dense", 6): "c6fa71a9440c141785bd37707499ad59b499c2194a566e0903cc30b4fa2f62c3",
    ("solve-dense", 7): "0fb01e4396541c324b398b8b637ae477a72d7a4f11c999acd627a1a860f906c7",
    ("solve-dense", 8): "5681301806c3a58f913bc8a8063ab21fdc1286fcdd1fedf2e98a59160011af9f",
    ("solve-dense", 9): "f378132010da1ce055fc71c27a8edcb4fe63d5f70b63ef66c0b022a937716bb6",
    ("solve-dense", 10): "5137360ffa3e4ac340e0c7b17ef7c54a5194cc95f357cd4cf5ff80c2ffcce6be",
    ("solve-dense", 11): "4dd2eb47dc1c9789deb788b1db0f6d7672e39ede6175b531529f454ff2ebcc96",
    ("solve-dense", 12): "f307e62ad5bf7788929c2c338cd5004f6b35ab98a8604ae993a6d5a31e322643",
    ("solve-dense", 13): "b9668b0e14d9d8711c64caf809a50a67784ccb022c8deb7d73cf021d5218b7bd",
    ("solve-dense", 14): "680b683e4c7747adea1792a94e584244e8b75a03ad14d67676eb4590cc797e23",
    ("solve-wide", 0): "f96a55f4429fd296300bc9f5bf75855258dc235379d250b99bcf217758704893",
    ("solve-wide", 1): "5bd5e802a6f951461c050d56eb9f037c1b5498d22030c50d878636820a452bdc",
    ("solve-wide", 2): "b17f743b9db3d6dba9ddd16e80fc16e23f129ce349d80c9923d98397473edd7b",
    ("solve-wide", 3): "4d00ea197c91729193dd8fd55a1df49ab4809c7c3473d5f16de74237cdd2bf84",
    ("solve-wide", 4): "cbf5f25000af7175ded129be3d5ee7ce19fadada65a7661b2ed23ff52303738e",
    ("solve-wide", 5): "82c40fb2fc2e4bb1b19d58f5c5cbe28d561457039c58f364edb1474fb6c83253",
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


def test_benchmark_documents_keep_their_bytes(seed_one_cases):
    assert seed_one_cases.keys() == DOCUMENT_SHA256.keys()
    for key, text in seed_one_cases.items():
        problem = parse_problem(text)
        report = select_target(problem)
        data, _ = apply_chain(report.chain, problem)
        doc = emit_document(data, report.chain_names).render()
        assert hashlib.sha256(doc.encode()).hexdigest() == DOCUMENT_SHA256[key], key
