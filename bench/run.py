#!/usr/bin/env python3
"""Layered dcpc benchmark: one workload per run, checked against references.

Usage (from the repository root):

    python3 bench/run.py --workload canon-scalar --seed 1 --seconds 18 --trace 0

With `--trace 0` the run reports the end-to-end metrics (setup_s, pass_cal,
peak_mem_mb); with `--trace 1` it runs the same operations split into the
calls each layer's public functions take, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record (every
round, every operation's status and, when traced, every span) goes to
`.bench_results/` at the repository root.  See bench/README.md.
"""

import os

# One BLAS thread: the benchmark's load is one process on at most two cores,
# and a single thread keeps dense factorizations steady between runs.  This
# must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from itertools import chain, zip_longest  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_SAMPLES = 5

# Problem sizes.  Dense families have n = m; each solve-dense round also runs
# the six probes of workloads.PROBES.
CANON_SIZE = 80
DENSE_SIZES = {"lp": (12, 18, 24), "qp": (20, 30, 40), "cone": (16, 24, 32)}
WIDE_SIZES = (150, 200, 250)

PER_LAYER = (
    [("parsing.s", "s"), ("parsing.nodes", "count"), ("analyzer.s", "s")]
    + [(f"reductions.{m}.{k}", u)
       for m in ("eliminate_pwl_atoms", "move_to_lhs", "smith_transform",
                 "relax_smith", "graph_expand")
       for k, u in (("s", "s"), ("nodes", "count"))]
    + [(f"reductions.{m}.{k}", u)
       for m in ("stuff_lp", "stuff_qp", "stuff_cone")
       for k, u in (("s", "s"), ("nnz", "count"), ("peak_mb", "MB"))]
    + [(f"solvers.{m}.{k}", u)
       for m in ("simplex", "qp_admm", "cone_admm")
       for k, u in (("s", "s"), ("iterations", "count"))]
    + [("retrieval.s", "s"), ("cli.emit_s", "s"), ("cli.emit_bytes", "bytes")]
)


class Api:
    """The dcpc entry points the benchmark calls, imported from SRC."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import dcpc
        if not Path(dcpc.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"dcpc found at {dcpc.__file__}, not under {SRC}")
        from dcpc.analyzer import TargetClass, select_target, solve_problem
        from dcpc.cli import emit_document
        from dcpc.parsing import parse_problem
        from dcpc.reductions.framework import (InverseRecord, Solution, Status)
        from dcpc import solvers
        self.parse_problem = parse_problem
        self.select_target = select_target
        self.solve_problem = solve_problem
        self.emit_document = emit_document
        self.InverseRecord = InverseRecord
        self.Solution = Solution
        self.Status = Status
        self.settings = solvers.SolverSettings()
        self.solvers = {TargetClass.LP: ("simplex", solvers.solve_lp_simplex),
                        TargetClass.QP: ("qp_admm", solvers.solve_qp_admm),
                        TargetClass.CONE: ("cone_admm", solvers.solve_cone_admm)}


# --- workloads -------------------------------------------------------------


def make_cases(workload: str, seed: int):
    import numpy as np
    import workloads as wl
    rng = np.random.default_rng([seed % 2**63, sum(map(ord, workload))])
    if workload == "canon-scalar":
        return [wl.dense_case(rng, f, CANON_SIZE, CANON_SIZE)
                for f in ("lp", "qp", "cone")]
    if workload == "solve-dense":
        return [wl.dense_case(rng, f, n, n) for f, sizes in DENSE_SIZES.items()
                for n in sizes] + wl.probe_cases()
    if workload == "solve-wide":
        return [wl.wide_case(rng, f, n) for n in WIDE_SIZES
                for f in ("wide-qp", "wide-cone")]
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(api: Api, workload: str) -> None:
    """Run the workload's operation once on a tiny problem of each family."""
    import numpy as np
    import workloads as wl
    rng = np.random.default_rng(0)
    if workload == "solve-wide":
        tiny = [wl.wide_case(rng, f, 3) for f in ("wide-qp", "wide-cone")]
    else:
        tiny = [wl.dense_case(rng, f, 3, 2) for f in ("lp", "qp", "cone")]
    op = canonicalize if workload == "canon-scalar" else solve
    for case in tiny:
        op(api, case.text)


def setup(workload: str, seed: int):
    """Import dcpc, generate the workload's texts, warm up.

    Returns the seconds this took, the loaded entry points and the cases.
    """
    start = time.perf_counter()
    api = Api()
    cases = make_cases(workload, seed)
    warm_up(api, workload)
    return time.perf_counter() - start, api, cases


# --- operations ------------------------------------------------------------


def canonicalize(api: Api, text: str) -> str:
    """What `dcpc canonicalize` does between reading and writing the file."""
    problem = api.parse_problem(text)
    report = api.select_target(problem)
    data, _ = report.chain.apply(problem)
    return api.emit_document(data, report.chain_names).render()


def solve(api: Api, text: str):
    problem = api.parse_problem(text)
    return problem, api.solve_problem(problem).solution


class Tracer:
    """Spans and counts recorded around the benchmark's calls into dcpc.

    A span is a layer's name with its start and end; the spans of one
    operation share the operation's `op` name.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.op = None
        self.spans = []
        self.counts = defaultdict(float)
        self.op_counts = []

    @contextmanager
    def span(self, name: str):
        tracing = tracemalloc.is_tracing()
        if tracing:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            rec = {"op": self.op, "name": name,
                   "start": start - self.t0, "end": end - self.t0}
            if tracing:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
            self.spans.append(rec)
            self.counts[_seconds_metric(name)] += end - start

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value
        self.op_counts.append({"op": self.op, "name": name, "value": value})


def _seconds_metric(span: str) -> str:
    return "cli.emit_s" if span == "cli.emit" else span + ".s"


def count_nodes(stage) -> int:
    """Expression-tree nodes in a problem, Smith problem or cone stage."""
    stage = getattr(stage, "problem", stage)
    stack = [stage.objective]
    for c in stage.constraints:
        stack.extend(e for e in (getattr(c, "lhs", None), getattr(c, "rhs", None),
                                 getattr(c, "expr", None), getattr(c, "t", None))
                     if e is not None)
        stack.extend(getattr(c, "x", ()))
    nodes = 0
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node.children)
    return nodes


def count_nonzeros(data) -> int:
    import numpy as np
    total = 0
    for name in ("P", "q", "c", "G", "h", "A", "b"):
        arr = getattr(data, name, None)
        if arr is not None:
            total += arr.nnz if hasattr(arr, "nnz") else int(np.count_nonzero(arr))
    return total


def _traced_chain(api: Api, tracer: Tracer, text: str):
    with tracer.span("parsing"):
        problem = api.parse_problem(text)
    tracer.count("parsing.nodes", count_nodes(problem))
    with tracer.span("analyzer"):
        report = api.select_target(problem)
    current, records = problem, []
    for member in report.chain.members:
        name = f"reductions.{member.name}"
        with tracer.span(name):
            current, record = member.apply(current)
        records.append(record)
        if member.name.startswith("stuff_"):
            tracer.count(name + ".nnz", count_nonzeros(current))
        else:
            tracer.count(name + ".nodes", count_nodes(current))
    return problem, report, current, records


def traced_canonicalize(api: Api, tracer: Tracer, text: str) -> str:
    _, report, data, _ = _traced_chain(api, tracer, text)
    with tracer.span("cli.emit"):
        out = api.emit_document(data, report.chain_names).render()
    tracer.count("cli.emit_bytes", len(out.encode()))
    return out


def traced_solve(api: Api, tracer: Tracer, text: str):
    problem, report, data, records = _traced_chain(api, tracer, text)
    label, solver = api.solvers[report.target]
    with tracer.span(f"solvers.{label}"):
        raw = solver(data, api.settings)
    tracer.count(f"solvers.{label}.iterations", raw.iterations)
    with tracer.span("retrieval"):
        solution = report.chain.retrieve(
            _as_solution(api, raw, data),
            api.InverseRecord(report.chain.name, {"records": records}))
    return problem, solution


def _as_solution(api: Api, raw, data):
    """A standard-form answer as a Solution over the stacked variables.

    This is the mapping `solve_problem` makes before retrieval; the library
    keeps it private, so the traced path writes it out.
    """
    import numpy as np
    if raw.status in (api.Status.INFEASIBLE, api.Status.UNBOUNDED, api.Status.ERROR):
        value = {api.Status.INFEASIBLE: float("inf"),
                 api.Status.UNBOUNDED: float("-inf")}.get(raw.status, float("nan"))
        return api.Solution(raw.status, value, {}, raw.message)
    offset = data.r if hasattr(data, "r") else data.offset
    primal = {}
    for decl in data.variables:
        start, length = data.var_offsets[decl.id]
        primal[decl.id] = np.array(raw.x[start:start + length], dtype=float)
    return api.Solution(raw.status, float(raw.value + offset), primal, raw.message)


def _solve_summary(problem, solution) -> dict:
    x = None
    for decl in problem.variables:
        if decl.name == "x" and decl.id in solution.primal:
            x = [float(v) for v in solution.primal[decl.id]]
    return {"status": solution.status.value, "value": solution.value, "x": x}


_CALIBRATION_DATA = {}


def calibrate() -> float:
    """Seconds of a fixed kernel that calls no dcpc code.

    This machine's speed changes by up to half in phases of seconds to
    minutes, as other guests load its host; wall times of the same pass
    spread 20 to 45% between runs.  The kernel, run just before and just
    after each operation, slows in the same phases, so an operation's time
    over the kernel's time is steady.  Like the workloads, it mixes
    interpreter work (dicts, small objects), small dense solves and a pass
    over an 8 MB array.  It runs twice and only the second run is timed, so
    that its own data is in cache, and with the cyclic collector off, so
    that the objects dcpc leaves alive do not change what it costs.
    """
    import gc
    import numpy as np
    if not _CALIBRATION_DATA:
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((60, 60))
        _CALIBRATION_DATA["m"] = a @ a.T + 60 * np.eye(60)
        _CALIBRATION_DATA["v"] = rng.standard_normal(60)
    m, v = _CALIBRATION_DATA["m"], _CALIBRATION_DATA["v"]

    def kernel():
        total = 0.0
        for item in [{"k": i, "w": i * 0.5, "s": str(i)} for i in range(2000)]:
            total += item["k"] * item["w"] + len(item["s"])
        x = v
        for _ in range(60):
            x = np.linalg.solve(m, x + v)
            x = x / (1.0 + np.abs(x).max())
        block = np.zeros(1 << 20)
        block += x[0]
        return total + float(block[-1])

    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_round(api: Api, workload: str, cases, tracer) -> tuple[list, float]:
    """Every case once.  Returns per-case outputs and the summed op seconds.

    When tracemalloc is on and no tracer resets its peak inside the
    operation, each output also carries the peak bytes the operation
    allocated above what was live when it started.  When neither is on,
    each output carries `calibration_s`, the mean time of the calibration
    kernel run just before and just after the operation.
    """
    outputs, busy = [], 0.0
    tracing = tracemalloc.is_tracing() and tracer is None
    before = calibrate() if tracer is None and not tracing else None
    for case in cases:
        if tracing:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        if tracer is not None:
            tracer.op = case.name
        start = time.perf_counter()
        try:
            if workload == "canon-scalar":
                out = (traced_canonicalize(api, tracer, case.text) if tracer
                       else canonicalize(api, case.text))
            else:
                out = (traced_solve(api, tracer, case.text) if tracer
                       else solve(api, case.text))
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        busy += elapsed
        rec = {"case": case.name, "seconds": elapsed, "error": error}
        if tracing:
            rec["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
        if before is not None:
            after = calibrate()
            rec["calibration_s"] = (before + after) / 2
            before = after
        if error is None:
            if workload == "canon-scalar":
                rec["document"] = out
            else:
                rec.update(_solve_summary(*out))
        outputs.append(rec)
    return outputs, busy


# --- checking --------------------------------------------------------------


class Checker:
    """Checks outputs against references computed once per case."""

    def __init__(self):
        import reference
        self.ref = reference
        self.refs = {}
        self.docs = {}

    def _reference(self, case) -> float:
        if case.name not in self.refs:
            self.refs[case.name] = self.ref.reference_value(case)
        return self.refs[case.name]

    def check(self, case, out):
        """None when the operation failed, '' when its output is right, else why not.

        An operation fails when it raises or reports another status than the
        case expects.  A document is checked in full the first time and must
        come out byte for byte the same afterwards.
        """
        if out["error"] is not None:
            return None
        if "document" in out:
            doc = out["document"]
            if case.name in self.docs:
                return "" if doc == self.docs[case.name] else "output changed between rounds"
            self.docs[case.name] = doc
            return self.ref.check_document(
                case, json.loads(doc),
                self._reference(case) if case.family == "lp" else None)
        if out["status"] != case.expect:
            return None
        return self.ref.check_solution(
            case, out["status"], out["value"], out["x"],
            None if case.family == "probe" else self._reference(case))


# --- main ------------------------------------------------------------------


def setup_sample(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("set-up process failed:\n" + proc.stderr)
    return float(proc.stdout.split()[-1])


def relative_pass(rounds) -> float:
    """One pass in calibration units: each problem's median over the rounds
    of its time over the calibration time around it, summed.
    """
    return sum(statistics.median(r[i]["seconds"] / r[i]["calibration_s"] for r in rounds)
               for i in range(len(rounds[0])))


def per_layer_metrics(tracer_rounds, memory_spans) -> dict:
    values = {}
    for name, unit in PER_LAYER:
        if name.endswith(".peak_mb"):
            span = name[: -len(".peak_mb")]
            peaks = [s["peak_bytes"] for s in memory_spans if s["name"] == span]
            value = max(peaks, default=0) / 2**20
        else:
            value = statistics.median(r.get(name, 0.0) for r in tracer_rounds)
        values[name] = {"value": value, "unit": unit}
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["canon-scalar", "solve-dense", "solve-wide"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one timed set-up, for setup_s
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))

    if args.setup_only:
        seconds, _, _ = setup(args.workload, args.seed)
        print(repr(seconds))
        return 0

    traced = bool(args.trace)
    _, api, cases = setup(args.workload, args.seed)

    # Two kinds of work run between the timed rounds, spread over the run so
    # that the machine's slow and fast spells reach every figure alike:
    # - the set-up samples (`setup_s`, untraced runs only), each in a fresh
    #   process;
    # - the memory pass, under tracemalloc, which slows Python-heavy code
    #   several times over, so it is not timed and not counted as attempted.
    #   Allocation grows with n within a family, so the pass runs only the
    #   largest case of each family; the probes allocate a few kilobytes and
    #   are left out.
    largest = {}
    for case in cases:
        if case.family != "probe" and case.n >= largest.get(case.family, case).n:
            largest[case.family] = case
    memory_cases = list(largest.values())
    memory_tracer = Tracer() if traced else None
    memory_round, setup_samples = [], []

    def memory_op(case):
        tracemalloc.start()
        try:
            memory_round.extend(run_round(api, args.workload, [case], memory_tracer)[0])
        finally:
            tracemalloc.stop()

    def setup_op():
        setup_samples.append(setup_sample(args.workload, args.seed))

    setups = [] if traced else [setup_op] * SETUP_SAMPLES
    memory_ops = [lambda c=c: memory_op(c) for c in memory_cases]
    pending = [op for op in chain.from_iterable(zip_longest(setups, memory_ops)) if op]

    rounds, busy, layer_rounds, spans, counts = [], [], [], [], []
    timed = 0.0
    while True:
        tracer = Tracer() if traced else None
        start = time.perf_counter()
        outputs, seconds = run_round(api, args.workload, cases, tracer)
        timed += time.perf_counter() - start
        rounds.append(outputs)
        busy.append(seconds)
        if tracer is not None:
            layer_rounds.append(tracer.counts)
            spans.extend(dict(s, round=len(rounds)) for s in tracer.spans)
            counts.extend(dict(c, round=len(rounds)) for c in tracer.op_counts)
        # Spread what is pending evenly over the rounds still to come.
        rounds_left = max(1.0, (args.seconds - timed) / (timed / len(rounds)))
        for _ in range(math.ceil(len(pending) / rounds_left)):
            pending.pop(0)()
        if timed >= args.seconds and not pending:
            break

    checker, failed, wrong = Checker(), 0, []
    passes = [(memory_cases, memory_round, False)] + [(cases, r, True) for r in rounds]
    for pass_cases, outputs, counted in passes:
        for case, out in zip(pass_cases, outputs):
            why = checker.check(case, out)
            if why is None:
                failed += counted
            elif why:
                wrong.append(f"{case.name}: {why}")
    if traced:
        metrics = per_layer_metrics(layer_rounds, memory_tracer.spans)
    else:
        peak = max(o.get("peak_bytes", 0) for o in memory_round) / 2**20
        metrics = {"setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                   "pass_cal": {"value": relative_pass(rounds), "unit": "cal"},
                   "peak_mem_mb": {"value": peak, "unit": "MB"}}
    result = {"correct": not wrong, "attempted": len(cases) * len(rounds),
              "failed": failed, "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, wrong=wrong,
                  round_seconds=busy,
                  rounds=[[{k: v for k, v in o.items() if k != "document"}
                           for o in r] for r in [memory_round] + rounds],
                  memory_spans=memory_tracer.spans if traced else [],
                  spans=spans, counts=counts)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for line in wrong:
        print("WRONG " + line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"bench: cannot load dcpc from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
