"""dcluster benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; it uses the package under src/.  Each
workload runs in its own fresh process, one after another, with one thread
per numeric library and a fixed PYTHONHASHSEED.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 it holds the per-layer metrics instead.  The
lines before it repeat each metric with its unit, plus the failed ratio and
sample counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ["verify-grid", "complex-census", "cli-queries"]
SETUP_SAMPLES = 5
TIME_LIMIT_S = 175.0   # per workload

# Times `import dcluster` in a fresh interpreter; prints unscaled and scaled
# seconds (see speed.py).
IMPORT_PROBE = """import sys, time
sys.path.insert(0, %r)
import speed
with speed.SpeedSampler() as sampler:
    start = time.perf_counter()
    import dcluster
    end = time.perf_counter()
print(end - start, (end - start) * sampler.scale(start, end))
""" % str(HERE)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(env: dict, deadline: float) -> dict:
    """Median time of `import dcluster` over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError("import dcluster failed:\n" + proc.stderr)
        samples.append([float(v) for v in proc.stdout.split()[-2:]])
    return {"setup_s": statistics.median(s for _, s in samples),
            "setup_unscaled_s": statistics.median(u for u, _ in samples)}


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> dict:
    env = child_env()
    metrics = {} if trace else setup_seconds(env, deadline)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=name + "-", dir=scratch)
    try:
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--work", work]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()),
                              text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass   # another run's directory is still there
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("workload %s exited with %d" % (name, proc.returncode))
    result = json.loads(lines[-1])
    result["metrics"].update(metrics)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "dcluster" / "__init__.py").is_file():
            raise BenchError("no dcluster package under %s" % (ROOT / "src"))
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        seconds = args.seconds or spec["run_seconds"]
        names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args.seed, seconds, args.trace,
                                      time.monotonic() + TIME_LIMIT_S)
                   for name in names}
        out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name, res in results.items():
            prefix = name + "." if args.workload == "all" else ""
            ratio = res["failed"] / res["attempted"]
            print("%-15s %-42s %14.6g %s" % (name, "failed_ratio", ratio, "ratio"))
            for metric in listed:
                if metric["name"] not in res["metrics"]:
                    raise BenchError("%s did not report %s" % (name, metric["name"]))
                value = res["metrics"][metric["name"]]
                print("%-15s %-42s %14.6g %s" % (name, metric["name"], value,
                                                 metric["unit"]))
                out["metrics"][prefix + metric["name"]] = {"value": value,
                                                           "unit": metric["unit"]}
            if not args.trace:
                for metric, unit in (("wall_unscaled_s", "s"),
                                     ("setup_unscaled_s", "s"),
                                     ("query_samples", "count")):
                    print("%-15s %-42s %14.6g %s" % (name, metric,
                                                     res["metrics"][metric], unit))
            out["attempted"] += res["attempted"]
            out["failed"] += res["failed"]
        out["correct"] = out["failed"] == 0
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
