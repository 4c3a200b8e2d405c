"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

The tracer must see every call cProfile sees, so no import site of a traced
function is missed; a wrong answer from the program must be counted by the
gates instead of crashing the run; inputs must depend on the seed only.
"""

from __future__ import annotations

import cProfile
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dcluster  # noqa: E402
from dcluster import cli, mutation, quiver, verify  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def _profiled_calls(stats: pstats.Stats, fn) -> int:
    code = fn.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return stats.stats[key][1] if key in stats.stats else 0


def test_traced_calls_equal_cprofile_calls(tmp_path):
    workload = workloads.verify_grid(0, tmp_path, configs=[("A", 3, 2)])
    tracer = Tracer()
    tracer.install()
    profile = cProfile.Profile()
    try:
        profile.enable()
        _, _, summary = workloads.execute(workload.ops[0], tracer)
        profile.disable()
    finally:
        tracer.uninstall()
    assert workload.check(0, summary) is None   # seed 0: digest committed
    assert len(tracer.originals) == len(TARGETS) + len(verify.CHECKS)
    stats = pstats.Stats(profile)
    traced = tracer.stats()
    for name, original in tracer.originals.items():
        assert traced[name]["calls"] == _profiled_calls(stats, original), name
    assert traced["orbit.push_piece"]["calls"] > 0
    assert traced["verify.check.exchange-team-fan"]["calls"] == 1


def test_uninstall_restores_every_binding():
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "dcluster" or name.startswith("dcluster.")}
    before_checks = list(verify.CHECKS)
    tracer = Tracer()
    tracer.install()
    assert cli.enumerate_tilting is not before["dcluster.cli"]["enumerate_tilting"]
    tracer.uninstall()
    for name, binding in before.items():
        now = vars(sys.modules[name])
        assert all(now[k] is v for k, v in binding.items()), name
    assert verify.CHECKS == before_checks
    assert "__wrapped__" not in vars(dcluster.reps.ModuleCategory.__init__)


def test_self_time_excludes_traced_children():
    tracer = Tracer()
    tracer.install()
    try:
        dcluster.linalg.in_span(dcluster.linalg.eye(3), dcluster.linalg.eye(3)[0], 101)
    finally:
        tracer.uninstall()
    st = tracer.stats()
    assert st["linalg.in_span"]["calls"] == st["linalg.solve_mod"]["calls"] == 1
    assert st["linalg.rref_mod"]["calls"] == 1
    inner = st["linalg.solve_mod"]["total_s"]
    assert st["linalg.in_span"]["self_s"] == st["linalg.in_span"]["total_s"] - inner


def test_failed_check_is_counted(tmp_path):
    workload = workloads.verify_grid(0, tmp_path, configs=[("A", 3, 2)])
    cid, statement, min_d, fn = verify.CHECKS[0]
    verify.CHECKS[0] = (cid, statement, min_d,
                        lambda ctx: {"status": "fail", "instances": 1,
                                     "counterexample": {}})
    try:
        _, executions = workloads.measure(workload, 0)
    finally:
        verify.CHECKS[0] = (cid, statement, min_d, fn)
    errors = workloads.gate(workload, executions)
    assert len(executions) == 1 and len(errors) == 1
    assert cid in errors[0]


def test_wrong_mutation_is_counted(tmp_path, monkeypatch):
    workload = workloads.cli_queries(3, tmp_path, pairs=2)
    monkeypatch.setattr(mutation, "mutate",
                        lambda ctx, objs, drop, pick=1: tuple(objs))
    _, executions = workloads.measure(workload, 0)
    errors = workloads.gate(workload, executions)
    assert len(executions) == 4
    assert len(errors) == 2 and all("mutate-" in e for e in errors)


def test_wrong_or_raising_census_is_counted(tmp_path, monkeypatch):
    workload = workloads.complex_census(0, tmp_path, configs=[("A", 3, 1)])
    _, executions = workloads.measure(workload, 0)
    assert workloads.gate(workload, executions) == []
    monkeypatch.setattr(quiver, "fomin_reading_count", lambda q, d: -1)
    _, executions = workloads.measure(workload, 0)
    errors = workloads.gate(workload, executions)
    assert len(errors) == 1 and "formula" in errors[0]

    def broken(q, d):
        raise RuntimeError("injected")

    monkeypatch.setattr(quiver, "fomin_reading_count", broken)
    _, executions = workloads.measure(workload, 0)
    assert len(workloads.gate(workload, executions)) == 1


def test_inputs_depend_on_the_seed_only():
    assert inputs.orientation("E", 6, 0) is None
    assert inputs.orientation("E", 6, 7) == inputs.orientation("E", 6, 7)
    assert len({str(inputs.orientation("E", 6, s)) for s in range(1, 9)}) > 1
    sample = inputs.query_sample(5, pairs=6)
    assert sample == inputs.query_sample(5, pairs=6)
    assert all(drop in facet for _, facet, drop in sample)
    assert len({str(arrows) for arrows, _, _ in sample}) > 1
    assert all(arrows is None for arrows, _, _ in inputs.query_sample(0, pairs=3))


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cli-queries", "--seed", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
