"""One workload in one process: a closed loop over its operations, then the gates.

Run by run.py, one fresh process per workload:

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR

A single client sends each operation only after the previous one returned.
Operations are cycled in a fixed order until every one has run once and
--seconds have passed.  With --trace 1 each operation runs untraced and
then traced instead.  Every execution is gated after the loop, with the
tracer removed; a gate that fails is counted, not raised.  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from dcluster import cli, mutation, quiver, tilting, verify
from dcluster import complex as cpx

import inputs
from speed import SpeedSampler
from tracer import Tracer

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


class Op:
    """One timed call.  `summarize` reduces its result right after the call
    (untimed) to the small record that `Workload.check` gates later."""

    def __init__(self, label: str, run: Callable[[], object],
                 summarize: Callable[[object], object]):
        self.label = label
        self.run = run
        self.summarize = summarize


class Workload:
    def __init__(self, ops: List[Op],
                 check: Callable[[int, object], Optional[str]]):
        self.ops = ops
        self.check = check   # (op index, summary) -> error message or None


class _Discard:
    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


class OpFailed:
    def __init__(self, message: str):
        self.message = message


def _read_out(path: Path) -> bytes:
    data = path.read_bytes()
    path.unlink()
    return data


# ---------------------------------------------------------------------------
# verify-grid


def verify_grid(seed: int, work: Path, configs=inputs.VERIFY_GRID) -> Workload:
    """`dcluster verify --all --out` per configuration, through cli.run."""
    reference: Dict[str, str] = {}
    if seed == 0:
        reference.update(json.loads(DIGESTS.read_text()))
    out = work / "report.json"
    ops = []
    for cfg in configs:
        diagram, rank, d = cfg
        argv = ["verify", "--all", "--diagram", diagram, "--rank", str(rank),
                "--d", str(d),
                "--orientation",
                inputs.orientation_arg(inputs.orientation(diagram, rank, seed), work),
                "--out", str(out)]

        def summarize(rc):
            data = _read_out(out)
            report = json.loads(data)
            failing = [c["id"] for c in report["checks"] if c["status"] == "fail"]
            return rc, hashlib.sha256(data).hexdigest(), failing

        ops.append(Op(inputs.config_name(cfg), lambda argv=argv: cli.run(argv),
                      summarize))

    def check(i: int, summary) -> Optional[str]:
        rc, digest, failing = summary
        label = ops[i].label
        if failing:
            return "%s: checks report fail: %s" % (label, ", ".join(failing))
        if rc != 0:
            return "%s: exit code %d" % (label, rc)
        want = reference.setdefault(label, digest)
        if digest != want:
            return "%s: report sha256 %s, expected %s" % (label, digest, want)
        return None

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# complex-census


def complex_census(seed: int, work: Path, configs=inputs.CENSUS) -> Workload:
    """The library path of demos/complex_census.py on each configuration."""
    ops = []
    for cfg in configs:
        diagram, rank, d = cfg
        arrows = inputs.orientation(diagram, rank, seed)

        def run(diagram=diagram, rank=rank, d=d, arrows=arrows):
            ctx = verify.load_context(diagram, rank, d, orientation=arrows)
            ctx.adjacency()
            facets = tilting.enumerate_tilting(ctx)
            equivalence = tilting.verify_equivalence(ctx)
            graph = mutation.mutation_graph_checks(ctx)
            full = cpx.build_complex(ctx)
            positive = cpx.build_complex(ctx, positive_only=True)
            stats = cpx.facet_stats(full)
            formula = quiver.fomin_reading_count(ctx.oc.cat.q, d)
            fvec = cpx.f_vector(full)
            payload = cpx.to_json(full)
            return (len(facets), equivalence, graph, len(positive.facets), stats,
                    formula, fvec, len(payload["facets"]))

        def summarize(result):
            facets, eq, graph, _, stats, formula, fvec, exported = result
            return {
                "facet count equals the formula": facets == formula,
                "verify_equivalence ok": eq["ok"],
                "mutation graph regular and connected":
                    graph["regular"] and graph["connected"],
                "facet_stats passes": (stats["facets"] == facets and stats["pure"]
                                       and stats["codim1_in_d_plus_1"]
                                       and stats["colors_ok"]),
                "top f-vector entry equals the facet count": fvec[-1] == facets,
                "to_json exports every facet": exported == facets,
            }

        ops.append(Op(inputs.config_name(cfg), run, summarize))

    def check(i: int, gates) -> Optional[str]:
        broken = [name for name, ok in gates.items() if not ok]
        if broken:
            return "%s: %s" % (ops[i].label, "; ".join("not: " + b for b in broken))
        return None

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# cli-queries


def cli_queries(seed: int, work: Path, config=inputs.QUERY_CONFIG,
                pairs: int = inputs.QUERY_PAIRS) -> Workload:
    """Alternating `complements` / `mutate` queries, each a fresh cli.run."""
    diagram, rank, d = config
    sample = inputs.query_sample(seed, config, pairs)
    out = work / "query.json"
    ops = []
    for k, (arrows, facet, drop) in enumerate(sample):
        tail = ["--diagram", diagram, "--rank", str(rank), "--d", str(d),
                "--orientation", inputs.orientation_arg(arrows, work),
                "--facet", ",".join(facet), "--drop", drop, "--out", str(out)]
        for command, field in (("complements", "cycle"), ("mutate", "facet")):
            argv = [command] + tail

            def summarize(rc, field=field):
                return rc, json.loads(_read_out(out))[field]

            ops.append(Op("%s-%d" % (command, k), lambda argv=argv: cli.run(argv),
                          summarize))

    contexts: Dict[str, object] = {}   # built on first use, after the timed loop

    def is_tilting(arrows, names: List[str]) -> bool:
        key = json.dumps(arrows)
        if key not in contexts:
            contexts[key] = verify.load_context(diagram, rank, d, orientation=arrows)
        ctx = contexts[key]
        return tilting.is_tilting(ctx, [ctx.oc.parse_name(nm) for nm in names])

    cycles: Dict[int, List[str]] = {}

    def check(i: int, summary) -> Optional[str]:
        rc, result = summary
        label = ops[i].label
        arrows, facet, drop = sample[i // 2]
        if rc != 0:
            return "%s: exit code %d" % (label, rc)
        if i % 2 == 0:
            if len(result) != d + 1 or result[0] != drop:
                return "%s: cycle %s does not have %d members starting at %s" % (
                    label, result, d + 1, drop)
            cycles.setdefault(i // 2, result)
            return None
        cycle = cycles.get(i // 2)
        if cycle is None:
            return "%s: no complement cycle to compare with" % label
        if set(facet) - set(result) != {drop} or set(result) - set(facet) != {cycle[1]}:
            return "%s: %s is not %s with %s replaced by %s" % (
                label, result, facet, drop, cycle[1])
        if not is_tilting(arrows, result):
            return "%s: %s is not tilting" % (label, result)
        return None

    return Workload(ops, check)


WORKLOADS = {
    "verify-grid": verify_grid,
    "complex-census": complex_census,
    "cli-queries": cli_queries,
}


# ---------------------------------------------------------------------------
# the closed loop


def execute(op: Op, tracer: Optional[Tracer] = None) -> Tuple[float, float, object]:
    """Run one operation; (start, end, summary or OpFailed)."""
    if tracer is not None:
        tracer.next_context()
    with contextlib.redirect_stdout(_Discard()):
        start = time.perf_counter()
        try:
            raw = op.run()
        except Exception:
            end = time.perf_counter()
            traceback.print_exc()
            return start, end, OpFailed("%s raised (traceback on stderr)" % op.label)
        end = time.perf_counter()
    try:
        return start, end, op.summarize(raw)
    except (OSError, ValueError, KeyError) as exc:
        return start, end, OpFailed("%s: unreadable output: %s" % (op.label, exc))


def gate(workload: Workload, executions: List[Tuple[int, object]]) -> List[str]:
    """Error messages, one per failed execution."""
    errors = []
    for i, summary in executions:
        if isinstance(summary, OpFailed):
            errors.append(summary.message)
            continue
        message = workload.check(i, summary)
        if message is not None:
            errors.append(message)
    return errors


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: Workload, seconds: float) -> Tuple[Dict[str, float], list]:
    """Cycle the operations until each ran once and `seconds` passed.

    An operation's time is the median over its executions, rescaled to the
    reference speed (see speed.py); wall_s sums them over the operations."""
    ops = workload.ops
    raw: List[List[float]] = [[] for _ in ops]
    scaled: List[List[float]] = [[] for _ in ops]
    executions = []
    with SpeedSampler() as sampler:
        begin = time.perf_counter()
        i = 0
        while i < len(ops) or time.perf_counter() - begin < seconds:
            k = i % len(ops)
            start, end, summary = execute(ops[k])
            raw[k].append(end - start)
            scaled[k].append((end - start) * sampler.scale(start, end))
            executions.append((k, summary))
            i += 1
    per_op = [statistics.median(s) for s in scaled]
    metrics = {
        "wall_s": sum(per_op),
        "query_p50_ms": 1000 * percentile(per_op, 50),
        "query_p90_ms": 1000 * percentile(per_op, 90),
        "query_samples": len(per_op),
        "wall_unscaled_s": sum(statistics.median(s) for s in raw),
    }
    return metrics, executions


def measure_traced(workload: Workload, seconds: float) -> Tuple[Dict[str, float], list]:
    """Run each operation untraced and then traced, pass after pass, until
    `seconds` passed.  Per-layer figures are medians over the passes, in
    unscaled seconds; the overhead ratio compares scaled pass times."""
    ops = workload.ops
    tracer = Tracer()
    executions = []
    passes = []
    with SpeedSampler() as sampler:
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin < seconds:
            tracer.reset()
            untraced = traced = traced_unscaled = 0.0
            for k, op in enumerate(ops):
                start, end, summary = execute(op)
                untraced += (end - start) * sampler.scale(start, end)
                executions.append((k, summary))
                tracer.install()
                try:
                    start, end, summary = execute(op, tracer)
                finally:
                    tracer.uninstall()
                traced += (end - start) * sampler.scale(start, end)
                traced_unscaled += end - start
                executions.append((k, summary))
            passes.append((tracer.stats(), untraced, traced, traced_unscaled))
    metrics: Dict[str, float] = {}
    first = passes[0][0]
    for name in first:
        for stat in first[name]:
            metrics["%s.%s" % (name, stat)] = statistics.median(
                p[0][name][stat] for p in passes)
    metrics["bench.traced_wall_s"] = statistics.median(p[3] for p in passes)
    metrics["bench.trace_overhead_ratio"] = statistics.median(p[2] / p[1] for p in passes)
    return metrics, executions


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory for outputs")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, Path(args.work))
    run = measure_traced if args.trace else measure
    metrics, executions = run(workload, args.seconds)
    # before the gates, which build contexts of their own
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = gate(workload, executions)
    for message in errors[:20]:
        print("gate: %s" % message, file=sys.stderr)
    print(json.dumps({"attempted": len(executions), "failed": len(errors),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
