"""Pinned sha256 digests of the canonicalize documents of `randgen` problems.

Every PWL, QP and cone problem of seeds 0-19, with 2 and 4 variables, to be
minimized and maximized, is printed, parsed back and canonicalized under each
configuration below, as `dcpc canonicalize` does with the matching options.
Per (family, configuration) the digest covers each problem's document, or
the analyzer's refusal when a forced target rejects it, so a change that
moves any emitted byte fails here and names the route.
"""

import hashlib

import numpy as np
import pytest

from dcpc import randgen
from dcpc.analyzer import RewriterConfig, TargetClass, apply_chain, select_target
from dcpc.cli import emit_document
from dcpc.parsing import parse_problem, print_problem

FAMILIES = {"pwl": randgen.random_pwl_problem, "qp": randgen.random_qp_problem,
            "cone": randgen.random_cone_problem}

CONFIGS = {
    "auto": RewriterConfig(),
    "lp": RewriterConfig(forced_target=TargetClass.LP),
    "qp": RewriterConfig(forced_target=TargetClass.QP),
    "cone": RewriterConfig(forced_target=TargetClass.CONE),
    "cone-decomposed": RewriterConfig(forced_target=TargetClass.CONE,
                                      decompose_soc=True),
}

DIGESTS = {
    ("pwl", "auto"): "a7461ba6633eaed24f342a80b0f11e3a108690124a3caf152e1e468da1b9c7b6",
    ("pwl", "lp"): "a7461ba6633eaed24f342a80b0f11e3a108690124a3caf152e1e468da1b9c7b6",
    ("pwl", "qp"): "2a186351dba2d689c31daa542d6ce984ca9900e95e11eb658ffa91612da4cc42",
    ("pwl", "cone"): "2611c0bf0869fa0bf2e446ee9f26aec953a4d7b73d0239dc32d301f84258d832",
    ("pwl", "cone-decomposed"): "e2f480a09a219917f5d7d98d187dab7afc53eaa4987e2d8766d164ba5828a55d",
    ("qp", "auto"): "0d38a79b3d7f485bb4c21f24199172c8efe017bbf27cf2ece390e8bd3ff77860",
    ("qp", "lp"): "b1bf1bacbedf111c627df6c1ecf6331e146a4b01b12758a947aea660b82b3b83",
    ("qp", "qp"): "0d38a79b3d7f485bb4c21f24199172c8efe017bbf27cf2ece390e8bd3ff77860",
    ("qp", "cone"): "ebfe1b02b1a429d18fc59541facfc37756c8c6390bbfd2860d24cb14589cdf10",
    ("qp", "cone-decomposed"): "130869a8d5ef3fb52f057099f5a46dbf983d1a9c0df9859091d2b3416390b7c5",
    ("cone", "auto"): "dcd443d128090b5122224865add2c643c8800e2c3336f5750f8a2a86c9570989",
    ("cone", "lp"): "22a145e61a4318ee4c09a859c2b46b11a49afae2503a631c074844e5cf246291",
    ("cone", "qp"): "7cb8817503384ac5dd1701294f3852febbe83b057861dbf846a25dd9af99a3aa",
    ("cone", "cone"): "dcd443d128090b5122224865add2c643c8800e2c3336f5750f8a2a86c9570989",
    ("cone", "cone-decomposed"): "65db49020f410581a138449056582353ee2abaacf35b2180c9f243299de21e5b",
}


def family_problems(make) -> list:
    """The family's 80 problems, each printed and parsed back, in order."""
    return [parse_problem(print_problem(make(np.random.default_rng(seed),
                                             num_vars, maximize)))
            for seed in range(20) for num_vars in (2, 4)
            for maximize in (False, True)]


@pytest.fixture(scope="module")
def problems():
    return {family: family_problems(make) for family, make in FAMILIES.items()}


def digest(problems, config) -> str:
    h = hashlib.sha256()
    for problem in problems:
        report = select_target(problem, config)
        if report.target is None:
            text = "refused: " + report.failure
        else:
            data, _ = apply_chain(report.chain, problem)
            text = emit_document(data, report.chain_names).render()
        h.update(text.encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("config", CONFIGS)
def test_randgen_documents_keep_their_bytes(problems, family, config):
    assert digest(problems[family], CONFIGS[config]) == DIGESTS[family, config]
