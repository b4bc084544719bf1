"""Command-line surface: analyze, canonicalize, and solve ``.cvx`` files.

Exit codes: 0 success, 1 parse error, 2 no target class accepts (analysis
failure), 3 a forced target rejected the problem, 4 infeasible, 5 unbounded,
6 iteration limit, 7 solver, configuration (a usage error too) or internal
error.  Only ``solve`` takes the solver options, ``--solver``, ``--max-iters``,
``--eps-abs`` and ``--eps-rel``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .analyzer import (AnalyzerError, RewriterConfig, TargetClass,
                       apply_chain, select_target, solve_problem)
from .parsing import ParseError, SourceSpan, parse_problem
from .reductions.cone import CsrMatrix
from .reductions.framework import ReductionError, Status
from .solvers import SOLVERS, SolverSettings

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
    return "%.17g" % (x + 0.0)  # + 0.0 turns -0.0 into 0.0, stable across paths


def _matrix_rows(m) -> Iterator[str]:
    """The rows of ``m``'s dense array, formatting only the stored entries of
    its record, ``CsrMatrix.of(m)``, where repeats add in stored order."""
    m = CsrMatrix.of(m)
    values, cols, bounds = m.data.tolist(), m.indices.tolist(), m.indptr.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        row = ["0"] * m.shape[1]
        for i in range(lo, hi):
            row[cols[i]] = _format_float(values[i])
        yield ", ".join(row)


def _block(brackets: str, items, indent: int) -> Iterator[str]:
    """``(prefix, chunks)`` items one to a line in ``brackets``."""
    sep = brackets[0] + "\n"
    for prefix, chunks in items:
        yield sep + "  " * (indent + 1) + prefix
        yield from chunks
        sep = ",\n"
    yield brackets if sep != ",\n" else "\n" + "  " * indent + brackets[1]


def _chunks(obj, indent=0) -> Iterator[str]:
    """``render_json(obj, indent)`` in pieces, a matrix one row at a time."""
    if obj is None or obj is True or obj is False or isinstance(obj, str):
        yield json.dumps(obj)  # stdlib escaping covers control characters
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield _format_float(float(obj))
    elif isinstance(obj, CsrMatrix) or hasattr(obj, "tocoo") or (
            isinstance(obj, np.ndarray) and obj.dtype.kind == "f"
            and obj.ndim == 2):  # one writer for every float matrix, scipy's too
        yield from _block("[]", ((f"[{row}]", ()) for row in _matrix_rows(obj)), indent)
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim == 1:
        yield "[" + ", ".join([_format_float(v) for v in obj.tolist()]) + "]"
    elif isinstance(obj, np.ndarray):
        yield from _chunks(obj.tolist(), indent)
    elif isinstance(obj, dict):
        yield from _block("{}", ((json.dumps(str(k)) + ": ", _chunks(v, indent + 1))
                                 for k, v in obj.items()), indent)
    elif isinstance(obj, (list, tuple)) and any(
            isinstance(v, (list, tuple, dict, np.ndarray)) for v in obj):
        yield from _block("[]", (("", _chunks(v, indent + 1)) for v in obj), indent)
    elif isinstance(obj, (list, tuple)):
        yield "[" + ", ".join([render_json(v, indent + 1) for v in obj]) + "]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(obj, indent=0) -> str:
    """Serialize with 17-significant-digit floats (deterministic bytes)."""
    return "".join(_chunks(obj, indent))


def _data_payload(data, target: str) -> dict:
    """The lp and qp layouts split the rows at ``cones.zero`` into A, b, G, h."""
    zero = data.cones.zero
    offsets = {decl.name: list(data.var_offsets[decl.id]) for decl in data.variables}
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

    def chunks(self) -> Iterator[str]:
        """The document's text in pieces, for ``writelines``."""
        yield from _chunks({"schema_version": self.schema_version, "target": self.target,
                            "chain": list(self.chain), "data": self.data})
        yield "\n"

    def render(self) -> str:
        return "".join(self.chunks())


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


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # reported by ``main`` as "error: ...", exit 7
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dcpc",
        description="Rewrite disciplined convex problems into solver standard "
                    "forms, and solve them with embedded solvers.")
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="report DCP verdict and target class")
    canonicalize = sub.add_parser("canonicalize",
                                  help="emit the canonicalized standard form")
    canonicalize.add_argument("--emit", metavar="PATH", default=None,
                              help="write the document here instead of stdout")
    solve = sub.add_parser("solve", help="canonicalize, solve, and retrieve")
    for p in (analyze, canonicalize, solve):
        p.add_argument("file", help="path to a .cvx problem file")
        p.add_argument("--target", choices=["auto", "lp", "qp", "cone"],
                       default="auto", help="target class (default: auto)")
        p.add_argument("--presolve", action="store_true",
                       help="run fixed-point presolve before the back end")
        p.add_argument("--decompose-soc", action="store_true",
                       help="split wide second-order cones into 3-dim cones")
        if p is solve:
            p.add_argument("--solver", choices=list(SOLVERS), default=None,
                           help="solver for `solve` (default: per-target)")
            p.add_argument("--max-iters", type=int, default=SolverSettings.max_iterations)
            p.add_argument("--eps-abs", type=float, default=SolverSettings.eps_abs)
            p.add_argument("--eps-rel", type=float, default=SolverSettings.eps_rel)
        p.add_argument("--json", action="store_true",
                       help="JSON report from `analyze`; `canonicalize` and "
                            "`solve` always print JSON")
    return parser


def _config_from_args(args, **solving) -> RewriterConfig:
    forced = None if args.target == "auto" else TargetClass[args.target.upper()]
    return RewriterConfig(forced_target=forced, presolve=args.presolve,
                          decompose_soc=args.decompose_soc, **solving)


def _load_problem(path: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:  # located at the text decoded before it
        prefix = raw[:exc.start].decode("utf-8")
        raise ParseError(f"byte 0x{raw[exc.start]:02x} is not valid UTF-8 ({exc.reason})",
                         SourceSpan.of(prefix, len(prefix), len(prefix))) from None
    return parse_problem(text)


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
    data, _ = apply_chain(report.chain, problem)
    chunks = emit_document(data, report.chain_names).chunks()
    if not args.emit:
        out.writelines(chunks)
        return EXIT_OK
    tmp = f"{args.emit}.{os.getpid()}.tmp"  # renamed over the target once whole
    fh = open(tmp, "x", encoding="utf-8")  # fails on, and so keeps, a file of that name
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, args.emit)
    except BaseException:
        os.remove(tmp)
        raise
    return EXIT_OK


def _cmd_solve(args, out, err) -> int:
    problem = _load_problem(args.file)
    settings = SolverSettings(max_iterations=args.max_iters,
                              eps_abs=args.eps_abs, eps_rel=args.eps_rel)
    config = _config_from_args(args, solver=args.solver or "auto", settings=settings)
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
    handlers = {"analyze": _cmd_analyze, "canonicalize": _cmd_canonicalize,
                "solve": _cmd_solve}
    try:
        args = _build_parser().parse_args(argv)
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
