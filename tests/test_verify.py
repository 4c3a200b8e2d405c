"""Tests for the check registry and report determinism."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from dcluster.mutation import almost_completes, cyclic_form, fan_of
from dcluster.quiver import default_orientation
from dcluster.verify import (CHECK_IDS, CHECKS, load_context, report_to_json,
                             run_checks)

_cache = {}


def ctx(diagram, rank, d):
    key = (diagram, rank, d)
    if key not in _cache:
        _cache[key] = load_context(diagram, rank, d)
    return _cache[key]


def report(diagram, rank, d, only=None):
    rep, _ = run_checks(ctx(diagram, rank, d), only=only)
    return rep


def entry(rep, cid):
    matches = [c for c in rep["checks"] if c["id"] == cid]
    assert len(matches) == 1
    return matches[0]


def test_all_checks_pass_small_grid():
    for (dg, rk, d) in [("A", 1, 1), ("A", 1, 3), ("A", 2, 1), ("A", 2, 2),
                        ("A", 2, 3), ("A", 3, 1), ("A", 3, 2), ("D", 4, 1)]:
        rep = report(dg, rk, d)
        assert rep["summary"]["fail"] == 0, (dg, rk, d, rep["checks"])


def test_every_check_appears_once_in_order():
    rep = report("A", 2, 1)
    assert [c["id"] for c in rep["checks"]] == CHECK_IDS
    assert len(set(CHECK_IDS)) == len(CHECK_IDS) == 24


def test_gating_d1():
    rep = report("A", 3, 1)
    gated2 = ["degree-hom-constraints", "window-hom-reduction",
              "complement-degrees", "degree-profile", "middle-terms-disjoint"]
    gated3 = ["summand-hom-onedirectional", "successor-hom-vanishing"]
    for cid in gated2 + gated3:
        e = entry(rep, cid)
        assert e["status"] == "n/a"
        assert "requires d >= " in e["reason"]
    assert rep["summary"]["n/a"] == 7


def test_gating_d2():
    rep = report("A", 2, 2)
    assert entry(rep, "degree-profile")["status"] == "pass"
    assert entry(rep, "successor-hom-vanishing")["status"] == "n/a"
    assert rep["summary"]["n/a"] == 2


def test_gating_d3_nothing_gated():
    rep = report("A", 2, 3)
    assert rep["summary"]["n/a"] == 0
    assert rep["summary"]["pass"] == 24


def test_frozen_instance_counts_a2_d1():
    rep = report("A", 2, 1)
    assert entry(rep, "euler-identity")["instances"] == 9
    assert entry(rep, "fundamental-domain-size")["instances"] == 5
    assert entry(rep, "cy-duality")["instances"] == 75
    assert entry(rep, "rigidity-equivalence")["instances"] == 5
    cc = entry(rep, "complement-count")
    assert cc["instances"] == 5 and cc["complements_each"] == 2
    assert entry(rep, "facet-count-formula")["count"] == 5
    assert entry(rep, "mutation-regular")["degree"] == 2


def test_exchange_team_converse_modes():
    assert entry(report("A", 2, 2), "exchange-team-fan")["converse"] == "exhaustive"
    res = entry(report("D", 4, 3, only=["exchange-team-fan"]), "exchange-team-fan")
    assert res["converse"] == "exhaustive" and res["status"] == "pass"
    assert res["instances"] == 548340
    c = ctx("D", 4, 3)
    fans = {cyclic_form(c, fan_of(c, a)) for a in almost_completes(c)}
    assert res["teams"] == len(fans) == 490


def test_statements_have_no_citation_text():
    for cid, statement, _, _ in CHECKS:
        low = statement.lower()
        for banned in ("thm", "theorem", "lemma", "prop", "cor", "section",
                       "paper", "spec"):
            assert banned not in low, (cid, banned)


def test_report_deterministic():
    a = report_to_json(run_checks(load_context("A", 3, 2))[0])
    b = report_to_json(run_checks(load_context("A", 3, 2))[0])
    assert a == b
    assert "time" not in json.loads(a)


def test_report_config_block():
    rep = report("A", 2, 2)
    assert rep["config"] == {"diagram": "A", "rank": 2,
                             "orientation": [[0, 1]], "d": 2, "prime": 101}
    assert rep["schema"] == "verification-report"
    assert rep["schema_version"] == 1


def test_check_selection():
    rep = report("A", 2, 1, only=["cy-duality", "facet-count-formula"])
    assert [c["id"] for c in rep["checks"]] == ["cy-duality", "facet-count-formula"]
    with pytest.raises(ValueError):
        run_checks(ctx("A", 2, 1), only=["no-such-check"])


def test_custom_orientation_verifies():
    c = load_context("A", 3, 1, orientation=[[1, 0], [1, 2]])
    rep, _ = run_checks(c)
    assert rep["summary"]["fail"] == 0
    facet_entry = [e for e in rep["checks"] if e["id"] == "facet-count-formula"][0]
    assert facet_entry["count"] == 14


def _ext_table(c):
    oc = c.oc
    return [[[oc.ext_dim(x, y, k) for k in range(oc.d + 2)] for y in c.objects]
            for x in c.objects]


@given(st.sampled_from([("A", 3, 1), ("A", 3, 2), ("A", 4, 1), ("A", 4, 2),
                        ("D", 4, 1), ("D", 4, 2), ("A", 3, 3)]),
       st.sampled_from([2, 3, 5, 7, 101]), st.data())
@settings(max_examples=10, deadline=None)
def test_random_orientation_and_prime_verify(config, prime, data):
    diagram, rank, d = config
    arrows = [(t, s) if data.draw(st.booleans()) else (s, t)
              for s, t in default_orientation(diagram, rank)]
    c = load_context(diagram, rank, d, prime=prime, orientation=arrows)
    assert run_checks(c)[0]["summary"]["fail"] == 0
    ref = load_context(diagram, rank, d, orientation=arrows)
    assert c.objects == ref.objects
    assert _ext_table(c) == _ext_table(ref)


def test_shared_results_computed_once_per_context(monkeypatch):
    from dcluster import complex as cpxmod
    from dcluster import mutation as mut

    calls = {"almost": 0, "facet_stats": 0, "graph": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(mut, "enumerate_tilting", counted("almost", mut.enumerate_tilting))
    monkeypatch.setattr(cpxmod, "_facet_stats", counted("facet_stats", cpxmod._facet_stats))
    monkeypatch.setattr(mut, "_graph_checks", counted("graph", mut._graph_checks))
    c = load_context("A", 3, 2)
    report, _ = run_checks(c)
    assert report["summary"]["fail"] == 0
    # in mutation, enumerate_tilting is read once by almost_completes and
    # once by mutation_graph; 11 checks read almost_completes
    assert calls == {"almost": 2, "facet_stats": 1, "graph": 1}


def _cy_duality_by_loop(c):
    """Reference: the duality check as a loop over ext_dim."""
    oc = c.oc
    count = 0
    for x in oc.objects():
        for y in oc.objects():
            for i in range(oc.d + 2):
                count += 1
                if oc.ext_dim(x, y, i) != oc.ext_dim(y, x, oc.d + 1 - i):
                    return {"status": "fail", "instances": count, "counterexample":
                            {"x": oc.obj_name(x), "y": oc.obj_name(y), "i": i}}
    return {"status": "pass", "instances": count}


@pytest.mark.parametrize("entries", [[], [(5, 9, 1)], [(9, 5, 3), (5, 9, 1)],
                                     [(0, 3, 2), (3, 0, 1)], [(4, 4, 0)]])
def test_cy_duality_reports_the_loop_order_counterexample(entries):
    from dcluster.verify import check_cy_duality

    c = load_context("A", 3, 2)
    dims = c.oc.dims()
    for e in entries:
        dims[e] += 1
    # a corruption and its dual cancel out: [(0, 3, 2), (3, 0, 1)] passes
    assert json.dumps(check_cy_duality(c)) == json.dumps(_cy_duality_by_loop(c))


def _break_one_root_pair(monkeypatch, ctx, side):
    """Make one root pair's Hom basis one vector short (side "hom") or its
    cocycle space one too wide ("ext"); returns that pair."""
    from dcluster.reps import ModuleCategory

    roots = ctx.oc.cat.roots
    euler = ctx.oc.cat.euler_pairing
    pair = next((a, b) for a in roots for b in roots if euler(a, b) < 0) \
        if side == "ext" else (roots[-1], roots[-1])
    hom_basis, ext_data = ModuleCategory.hom_basis, ModuleCategory.ext_data

    def short_hom(self, ra, rb):
        out = hom_basis(self, ra, rb)
        return out[:-1] if (ra, rb) == pair else out

    def wide_ext(self, ra, rb):
        q_, s_, dim = ext_data(self, ra, rb)
        return (q_, s_, dim + 1) if (ra, rb) == pair else (q_, s_, dim)

    if side == "hom":
        monkeypatch.setattr(ModuleCategory, "hom_basis", short_hom)
    else:
        monkeypatch.setattr(ModuleCategory, "ext_data", wide_ext)
    return pair


@pytest.mark.parametrize("side", ["hom", "ext"])
def test_euler_identity_compares_linear_algebra_with_the_euler_form(monkeypatch, side):
    """A broken Hom basis or cocycle space on a single root pair is caught:
    euler-identity is no longer a tautology."""
    ctx = load_context("A", 3, 2)
    roots = ctx.oc.cat.roots
    pair = _break_one_root_pair(monkeypatch, ctx, side)
    report, _ = run_checks(ctx, ["euler-identity"])
    entry = report["checks"][0]
    assert entry["status"] == "fail"
    assert entry["counterexample"] == {"pair": [list(pair[0]), list(pair[1])]}
    assert entry["instances"] == roots.index(pair[0]) * len(roots) + roots.index(pair[1]) + 1


@pytest.mark.parametrize("side", ["hom", "ext"])
def test_window_reduction_compares_the_table_with_linear_algebra(monkeypatch, side):
    """piece_dim, the table's oracle, reads Hom-system and cocycle-space
    dimensions, so a broken root pair shows against the Euler-form table."""
    ctx = load_context("A", 3, 2)
    oc = ctx.oc
    a, b = _break_one_root_pair(monkeypatch, ctx, side)
    entry = run_checks(ctx, ["window-hom-reduction"])[0]["checks"][0]
    assert entry["status"] == "fail"
    y = (b, 0) if side == "hom" else (b, 1)
    assert entry["counterexample"] == {"x": oc.obj_name((a, 0)), "y": oc.obj_name(y)}
