"""Command-line surface: analyze, canonicalize, and solve ``.cvx`` files.

Exit codes: 0 success, 1 parse error, 2 no target class accepts (analysis
failure), 3 a forced target rejected the problem, 4 infeasible, 5 unbounded,
6 iteration limit, 7 solver, configuration or internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .analyzer import (AnalyzerError, RewriterConfig, TargetClass,
                       select_target, solve_problem)
from .parsing import ParseError, parse_problem
from .reductions.framework import ReductionError, Status
from .solvers import SolverSettings

__all__ = ["EmitDocument", "main", "entrypoint", "render_json"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NO_TARGET = 2
EXIT_FORCED_REJECT = 3
EXIT_INFEASIBLE = 4
EXIT_UNBOUNDED = 5
EXIT_ITERATION_LIMIT = 6
EXIT_ERROR = 7

_STATUS_EXIT = {
    Status.OPTIMAL: EXIT_OK,
    Status.INFEASIBLE: EXIT_INFEASIBLE,
    Status.UNBOUNDED: EXIT_UNBOUNDED,
    Status.ITERATION_LIMIT: EXIT_ITERATION_LIMIT,
    Status.ERROR: EXIT_ERROR,
}


def _format_float(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0 so emissions are stable across paths
    return "%.17g" % x


def render_json(obj, indent=0) -> str:
    """Serialize with 17-significant-digit floats (deterministic bytes)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)  # stdlib escaping covers control characters
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "f" or obj.ndim not in (1, 2) or not obj.size:
            return render_json(obj.tolist(), indent)
        # A row at a time; + 0.0 normalizes -0.0 as _format_float does.
        rows = [", ".join(["%.17g" % v for v in row])
                for row in (obj.reshape(-1, obj.shape[-1]) + 0.0).tolist()]
        if obj.ndim == 1:
            return "[" + rows[0] + "]"
        return "[\n" + ",\n".join(f"{inner}[{row}]" for row in rows) + "\n" + pad + "]"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [render_json(v, indent + 1) for v in obj]
        if all(not isinstance(v, (list, tuple, dict, np.ndarray)) for v in obj):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{render_json(str(k))}: {render_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _named_offsets(data) -> dict[str, list[int]]:
    out = {}
    for decl in data.variables:
        start, length = data.var_offsets[decl.id]
        out[decl.name] = [start, length]
    return out


def _data_payload(data, target: str) -> dict:
    """The lp and qp layouts split the rows at ``cones.zero`` into A, b, G, h."""
    zero, offsets = data.cones.zero, _named_offsets(data)
    A, b, G, h = data.A[:zero], data.b[:zero], data.A[zero:], data.b[zero:]
    if target == "lp":
        return {"c": data.q, "G": G, "h": h, "A": A, "b": b,
                "offset": data.offset, "var_offsets": offsets}
    if target == "qp":
        return {"P": data.P, "q": data.q, "r": data.offset, "G": G, "h": h,
                "A": A, "b": b, "var_offsets": offsets}
    return {"c": data.q, "A": data.A, "b": data.b,
            "cones": {"zero": zero, "nonneg": data.cones.nonneg,
                      "soc": list(data.cones.soc)},
            "offset": data.offset, "var_offsets": offsets}


@dataclass(frozen=True)
class EmitDocument:
    """The canonicalization payload written by ``canonicalize``."""

    target: str
    chain: tuple[str, ...]
    data: dict

    schema_version = "1"

    def render(self) -> str:
        doc = {"schema_version": self.schema_version, "target": self.target,
               "chain": list(self.chain), "data": self.data}
        return render_json(doc) + "\n"


def emit_document(data, chain_names) -> EmitDocument:
    """``data`` in the layout of the chain's last step: stuff_lp writes lp."""
    target = chain_names[-1].removeprefix("stuff_")
    return EmitDocument(target, tuple(chain_names), _data_payload(data, target))


def _report_lines(report) -> list[str]:
    lines = []
    if report.dcp_ok:
        lines.append("dcp: ok")
    else:
        lines.append("dcp: violations at " + ", ".join(report.dcp_violations))
    if report.target is not None:
        lines.append(f"target: {report.target.name}")
        lines.append("chain: " + " -> ".join(report.chain_names))
    else:
        lines.append("target: none")
        lines.append(f"failure: {report.failure}")
    for cls, reason in report.reasons:
        lines.append(f"  {cls.name}: {reason}")
    return lines


def _report_json(report) -> dict:
    return {
        "dcp_ok": report.dcp_ok,
        "dcp_violations": list(report.dcp_violations),
        "target": report.target.name.lower() if report.target else None,
        "chain": list(report.chain_names),
        "reasons": {cls.name.lower(): reason for cls, reason in report.reasons},
        "failure": report.failure or None,
    }


def _solution_json(outcome, names: dict[int, str]) -> dict:
    solution = outcome.solution
    value = solution.value
    if value is None or not math.isfinite(value):
        value = None
    return {
        "status": solution.status.value,
        "value": value,
        "variables": {names[var_id]: list(np.asarray(vec, dtype=float))
                      for var_id, vec in sorted(solution.primal.items())},
        "message": solution.message or None,
        "iterations": outcome.raw.iterations,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcpc",
        description="Rewrite disciplined convex problems into solver standard "
                    "forms, and solve them with embedded solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="path to a .cvx problem file")
        p.add_argument("--target", choices=["auto", "lp", "qp", "cone"],
                       default="auto", help="target class (default: auto)")
        p.add_argument("--presolve", action="store_true",
                       help="run fixed-point presolve before the back end")
        p.add_argument("--decompose-soc", action="store_true",
                       help="split wide second-order cones into 3-dim cones")
        p.add_argument("--solver", choices=["simplex", "admm"], default=None,
                       help="solver for `solve` (default: per-target)")
        p.add_argument("--max-iters", type=int, default=20000)
        p.add_argument("--eps-abs", type=float, default=1e-6)
        p.add_argument("--eps-rel", type=float, default=1e-6)
        p.add_argument("--json", action="store_true",
                       help="JSON output for `analyze`")

    analyze = sub.add_parser("analyze", help="report DCP verdict and target class")
    canonicalize = sub.add_parser("canonicalize",
                                  help="emit the canonicalized standard form")
    canonicalize.add_argument("--emit", metavar="PATH", default=None,
                              help="write the document here instead of stdout")
    solve = sub.add_parser("solve", help="canonicalize, solve, and retrieve")
    for p in (analyze, canonicalize, solve):
        common(p)
    return parser


def _config_from_args(args) -> RewriterConfig:
    forced = None if args.target == "auto" else TargetClass[args.target.upper()]
    settings = SolverSettings(max_iterations=args.max_iters,
                              eps_abs=args.eps_abs, eps_rel=args.eps_rel)
    return RewriterConfig(forced_target=forced, presolve=args.presolve,
                          decompose_soc=args.decompose_soc,
                          solver=args.solver or "auto", settings=settings)


def _load_problem(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _no_target_exit(config) -> int:
    return EXIT_FORCED_REJECT if config.forced_target is not None else EXIT_NO_TARGET


def _cmd_analyze(args, out, err) -> int:
    problem = _load_problem(args.file)
    config = _config_from_args(args)
    report = select_target(problem, config)
    if args.json:
        out.write(render_json(_report_json(report)) + "\n")
    else:
        out.write("\n".join(_report_lines(report)) + "\n")
    if report.target is None:
        return _no_target_exit(config)
    return EXIT_OK


def _cmd_canonicalize(args, out, err) -> int:
    problem = _load_problem(args.file)
    config = _config_from_args(args)
    report = select_target(problem, config)
    if report.target is None:
        err.write(report.failure + "\n")
        return _no_target_exit(config)
    data, _ = report.chain.apply(problem)
    text = emit_document(data, report.chain_names).render()
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_OK


def _cmd_solve(args, out, err) -> int:
    problem = _load_problem(args.file)
    config = _config_from_args(args)
    outcome = solve_problem(problem, config)
    if outcome.solution is None:
        err.write(outcome.report.failure + "\n")
        return _no_target_exit(config)
    names = {decl.id: decl.name for decl in problem.variables}
    out.write(render_json(_solution_json(outcome, names)) + "\n")
    return _STATUS_EXIT[outcome.solution.status]


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = _build_parser().parse_args(argv)
    handlers = {"analyze": _cmd_analyze, "canonicalize": _cmd_canonicalize,
                "solve": _cmd_solve}
    try:
        return handlers[args.command](args, out, err)
    except ParseError as exc:
        err.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except OSError as exc:
        err.write(f"io error: {exc}\n")
        return EXIT_ERROR
    except (AnalyzerError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_ERROR
    except (ReductionError, RecursionError, MemoryError) as exc:
        err.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR


def entrypoint() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
