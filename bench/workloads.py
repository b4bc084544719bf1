"""Seeded `.cvx` problem generators for the benchmark workloads.

Every generator returns `Case` objects that carry the problem text together
with the numbers it was written from, so the reference computations in
`reference.py` never have to read dcpc's parse of the text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOX = 10.0  # every variable has box rows -BOX <= x <= BOX


@dataclass(frozen=True)
class Case:
    """One problem of a workload: its text and the generator's own numbers.

    `family` is one of "lp", "qp", "cone" (dense rows, scalar-sum objective),
    "wide-qp", "wide-cone" (box rows only, vectorized objective) or "probe".
    Dense families minimize, with a[i] the objective weights and c[i] the
    centers:
      lp:   sum_i abs(a[i]*x[i] - c[i])
      qp:   sum_i square(a[i]*x[i] - c[i])
      cone: norm2(x - c) + sum_i square(a[i]*x[i])
    subject to rows @ x <= rhs and -BOX <= x <= BOX.  The wide families are
    sum_squares(x - c) + sum(abs(x)) and norm2(x - c) + sum(square(x)).
    `expect` is the status a correct solver reports.
    """

    name: str
    family: str
    text: str
    n: int
    weights: np.ndarray
    center: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    expect: str = "optimal"


def _num(v: float) -> str:
    text = f"{v:.2f}"
    return "0.00" if text == "-0.00" else text


def _term(coef: int, ref: str, first: bool) -> str:
    sign = "-" if coef < 0 else "+"
    body = f"{abs(coef)}*{ref}"
    if first:
        return body if coef > 0 else "-" + body
    return f" {sign} {body}"


def _shifted(inner: str, c: float) -> str:
    """`inner - c` written without a double sign."""
    if c < 0:
        return f"{inner} + {_num(-c)}"
    return f"{inner} - {_num(c)}"


def dense_case(rng: np.random.Generator, family: str, n: int, m: int) -> Case:
    """A dense problem: m rows of n integer terms in [-5, 5], centers in [-3, 3].

    Each row's right-hand side is an integer in [1, 20], so the origin is
    strictly feasible; the box rows keep every problem bounded.
    """
    rows = rng.integers(-5, 6, size=(m, n))
    rows[rows.sum(axis=1) == 0, 0] += 1  # no row of zeros, no trivial row
    rhs = rng.integers(1, 21, size=m).astype(float)
    weights = rng.integers(1, 6, size=n).astype(float)
    center = np.array([float(_num(v)) for v in rng.uniform(-3.0, 3.0, n)])
    if family == "lp":
        terms = [f"abs({_shifted(f'{int(a)}*x[{i}]', c)})"
                 for i, (a, c) in enumerate(zip(weights, center))]
    elif family == "qp":
        terms = [f"square({_shifted(f'{int(a)}*x[{i}]', c)})"
                 for i, (a, c) in enumerate(zip(weights, center))]
    elif family == "cone":
        vec = "[" + ", ".join(_num(c) for c in center) + "]"
        terms = [f"norm2(x - {vec})"]
        terms += [f"square({int(a)}*x[{i}])" for i, a in enumerate(weights)]
    else:
        raise ValueError(f"unknown dense family {family!r}")
    lines = [f"var x[{n}];", "minimize " + " + ".join(terms) + ";", "subject to"]
    for row, b in zip(rows, rhs):
        nz = [(int(a), i) for i, a in enumerate(row) if a != 0]
        body = "".join(_term(a, f"x[{i}]", k == 0) for k, (a, i) in enumerate(nz))
        lines.append(f"  {body} <= {int(b)};")
    lines.append(f"  x <= {int(BOX)};")
    lines.append(f"  x >= {-int(BOX)};")
    return Case(f"{family}-n{n}", family, "\n".join(lines) + "\n", n, weights,
                center, rows.astype(float), rhs)


def wide_case(rng: np.random.Generator, family: str, n: int) -> Case:
    """A vectorized problem with box rows only; centers uniform in [-3, 3]."""
    center = np.array([float(_num(v)) for v in rng.uniform(-3.0, 3.0, n)])
    vec = "[" + ", ".join(_num(c) for c in center) + "]"
    if family == "wide-qp":
        objective = f"sum_squares(x - {vec}) + sum(abs(x))"
    elif family == "wide-cone":
        objective = f"norm2(x - {vec}) + sum(square(x))"
    else:
        raise ValueError(f"unknown wide family {family!r}")
    text = (f"var x[{n}];\nminimize {objective};\nsubject to\n"
            f"  x <= {int(BOX)};\n  x >= {-int(BOX)};\n")
    return Case(f"{family}-n{n}", family, text, n, np.ones(n), center,
                np.zeros((0, n)), np.zeros(0))


# Tiny problems whose status is known: one infeasible and one unbounded per
# route the analyzer picks (LP, QP, cone).  They do not depend on the seed.
PROBES = (
    ("probe-lp-infeasible", "infeasible",
     "var x;\nminimize abs(x);\nsubject to\n  x >= 1;\n  x <= 0;\n"),
    ("probe-lp-unbounded", "unbounded",
     "var x;\nvar y;\nminimize abs(x) - y;\n"),
    ("probe-qp-infeasible", "infeasible",
     "var x;\nminimize square(x);\nsubject to\n  x >= 1;\n  x <= 0;\n"),
    ("probe-qp-unbounded", "unbounded",
     "var x;\nvar y;\nminimize square(x) - y;\n"),
    ("probe-cone-infeasible", "infeasible",
     "var x[2];\nminimize norm2(x);\nsubject to\n  x[0] >= 1;\n  x[0] <= 0;\n"),
    ("probe-cone-unbounded", "unbounded",
     "var x[2];\nvar y;\nminimize norm2(x) - y;\n"),
)


def probe_cases() -> list[Case]:
    empty = np.zeros(0)
    return [Case(name, "probe", text, 0, empty, empty, np.zeros((0, 0)), empty,
                 expect) for name, expect, text in PROBES]
