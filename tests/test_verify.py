"""Tests for the check registry and report determinism."""

from __future__ import annotations

import hashlib
from array import array
import json
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcluster.mutation import cyclic_form, fan_of, fans
from dcluster.quiver import default_orientation, dynkin_edges
from dcluster.tilting import _bits
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
    cycles = {cyclic_form(c.indices(fan_of(c, c.objs_of(a)))) for a, _ in fans(c)}
    assert res["teams"] == len(cycles) == 490


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


@given(st.sampled_from([("A", 3, 1), ("A", 3, 2), ("A", 4, 1), ("A", 4, 2),
                        ("D", 4, 1), ("D", 4, 2), ("A", 3, 3), ("E", 6, 1)]),
       st.sampled_from([2, 3, 5, 7, 101]), st.data())
@settings(max_examples=10, deadline=None)
def test_random_orientation_and_prime_verify(config, prime, data):
    diagram, rank, d = config
    arrows = [(t, s) if data.draw(st.booleans()) else (s, t)
              for s, t in default_orientation(diagram, rank)]
    c = load_context(diagram, rank, d, prime=prime, orientation=arrows)
    assert run_checks(c)[0]["summary"]["fail"] == 0
    # the prime-free Euler-form table against linear algebra at this prime
    oc = c.oc
    for x in c.objects:
        for y in c.objects:
            for k in range(d + 2):
                assert oc.hom_dim_wide(x, (y[0], y[1] + k)) == oc.ext_dim(x, y, k)


def test_shared_results_computed_once_per_context(monkeypatch):
    from dcluster import complex as cpxmod
    from dcluster import mutation as mut

    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(mut, "_grow", counted("faces", mut._grow))
    monkeypatch.setattr(mut, "FaceTable", counted("table", mut.FaceTable))
    monkeypatch.setattr(mut, "_fan_cycle", counted("walks", mut._fan_cycle))
    monkeypatch.setattr(cpxmod, "_facet_stats", counted("facet_stats", cpxmod._facet_stats))
    monkeypatch.setattr(mut, "_graph_checks", counted("graph", mut._graph_checks))
    for diagram, rank, d, faces in (("A", 3, 2, 55), ("A", 3, 3, 105)):
        calls.update(dict.fromkeys(("faces", "table", "walks", "facet_stats", "graph"), 0))
        c = load_context(diagram, rank, d)
        report, _ = run_checks(c)
        assert report["summary"]["fail"] == 0
        # the codimension-1 faces are listed once, into the one face table
        # that the fan checks, the mutation graph and facet_stats all read;
        # its fan ids are filled once, one fan walk per distinct
        # common-neighbour mask, and a second run in the context walks no fan
        table = c._face_table
        common = {mut._common_mask(c, mask) for mask in table.masks()}
        want = {"faces": 1, "table": 1, "walks": len(common), "facet_stats": 1,
                "graph": 1}
        assert calls == want and len(common) < len(table) == faces
        assert run_checks(c)[0] == report and calls == want


FAN_WALKERS = ["complement-count", "complement-degrees", "fan-ext-pattern",
               "delta-composites", "middle-rigid", "exchange-team-fan",
               "degree-profile", "successor-hom-vanishing", "middle-terms-disjoint"]


def test_fan_checks_share_one_fan_walk(monkeypatch):
    from dcluster import mutation as mut

    calls = []
    cycle = mut._fan_cycle
    monkeypatch.setattr(mut, "_fan_cycle", lambda *args: calls.append(1) or cycle(*args))
    c = load_context("A", 3, 3)
    report, _ = run_checks(c, FAN_WALKERS)
    assert report["summary"] == {"pass": 9, "fail": 0, "n/a": 0}
    # one walk per distinct set of common neighbours, not one per face
    pairs = list(fans(c))
    common = {mut._common_mask(c, a) for a, _ in pairs}
    assert len(pairs) == 105 and len(calls) == len(common) == 63
    assert mut.face_table(c) is c._face_table
    run_checks(c, FAN_WALKERS)
    assert len(calls) == 63
    # a query on one face walks that face's fan afresh
    assert pairs == [(a, tuple(c.indices(fan_of(c, c.objs_of(a))))) for a, _ in pairs]
    assert len(calls) == 63 + len(pairs)


@pytest.mark.parametrize("diagram,rank,d", [("A", 3, 2), ("A", 3, 3), ("D", 4, 2)])
def test_verify_all_asks_each_fan_question_once(diagram, rank, d, monkeypatch, capsys):
    """verify --all composes the delta chains of each distinct cycle once,
    lists the faces once, and walks greedily once per object and once per
    distinct common-neighbour mask of the faces; a run failing on the last
    fan id names that fan's first face in table order."""
    from dcluster import cli
    from dcluster import mutation as mut
    from dcluster import verify

    calls = {"faces": 0, "walks": 0}
    chains, contexts = [], []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    compose, context = mut._chains_nonzero, cli._context
    monkeypatch.setattr(mut, "_grow", counted("faces", mut._grow))
    monkeypatch.setattr(verify, "complete_mask", counted("walks", verify.complete_mask))
    monkeypatch.setattr(mut, "_chains_nonzero",
                        lambda ctx, cycle: chains.append(cycle) or compose(ctx, cycle))
    monkeypatch.setattr(cli, "_context", lambda *args, **kw:
                        contexts.append(context(*args, **kw)) or contexts[-1])
    config = ["--diagram", diagram, "--rank", str(rank), "--d", str(d)]
    assert cli.run(["verify", "--all"] + config) == 0
    c, = contexts
    table = c._face_table
    assert sorted(chains) == sorted(set(table.cycles))
    assert calls["faces"] == 1
    common = {mut._common_mask(c, mask) for mask in table.masks()}
    assert calls["walks"] == len(c.objects) + len(common) < len(c.objects) + len(table)
    # the same run failing on the last fan id names its first face
    rigid = mut.middle_union_rigid
    monkeypatch.setattr(mut, "middle_union_rigid", lambda ctx, cycle, supports:
                        cycle != table.cycles[-1] and rigid(ctx, cycle, supports))
    contexts.clear()
    assert cli.run(["verify", "--all"] + config) == 1
    c, = contexts
    last = len(c._face_table.cycles) - 1
    first = list(c._face_table.fan_ids).index(last)
    want = {"almost": verify._names(c, _bits(list(c._face_table.masks())[first]))}
    assert "%-28s fail %6d instances counterexample=%s" % (
        "middle-rigid", first + 1, json.dumps(want, sort_keys=True)) in capsys.readouterr().out


@pytest.mark.parametrize("diagram,rank,d", [("A", 3, 2), ("A", 4, 2), ("D", 4, 2),
                                           ("A", 3, 3), ("D", 5, 1)])
def test_verify_names_no_facet(diagram, rank, d):
    """verify --all reads the facets as bitmasks only: the object tuples of
    enumerate_tilting are never built."""
    c = load_context(diagram, rank, d)
    assert run_checks(c)[0]["summary"]["fail"] == 0
    assert c._tilting is None and c._facet_masks


def _ints_only(value):
    """Is `value` an int, or a tuple, list or dict built of ints alone?"""
    if isinstance(value, dict):
        return all(_ints_only(k) and _ints_only(v) for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return all(_ints_only(v) for v in value)
    return isinstance(value, int) and not isinstance(value, bool)


def test_fan_layer_caches_hold_no_objects():
    """The fan layer caches face masks and object indices, never objects."""
    c = load_context("D", 4, 2)
    assert run_checks(c)[0]["summary"]["fail"] == 0
    for name in ("_face_table.cycles", "_face_table.middles", "oc._path_rows"):
        cache = attrgetter(name)(c)
        assert cache and _ints_only(cache), name
    # the delta verdicts are keyed by cycles of indices
    assert c._chains and _ints_only(list(c._chains))
    assert all(type(v) is bool for v in c._chains.values())
    # the per-face columns are flat arrays of unsigned ints
    table = c._face_table
    for column in (table.starts, table.members, table.drops, table.fan_ids):
        assert type(column) is array and column.typecode == "I"


def _holds_object(value):
    """Is an object (root, shift) found anywhere in `value`: in a tuple or
    list, a dict key or value, or a numpy array of Python objects?  A shift
    is an int and never a bool, so a (multiplicities, covers) pair of
    mutation._approximation is not taken for an object."""
    if isinstance(value, np.ndarray):
        return value.dtype == object
    if isinstance(value, dict):
        return any(_holds_object(k) or _holds_object(v) for k, v in value.items())
    if isinstance(value, (tuple, list)):
        if (len(value) == 2 and isinstance(value[0], tuple) and isinstance(value[1], int)
                and not isinstance(value[1], bool)):
            return True
        return any(map(_holds_object, value))
    return False


MUTATION_MEMOS = ["_approximations", "_radical_tops",
                  "_covers", "_chains", "_face_table.cycles", "_face_table.middles",
                  "oc._path_rows", "oc._tensors"]


@pytest.mark.parametrize("diagram,rank,d,seed", [("D", 4, 2, None), ("A", 4, 2, 7)])
def test_mutation_memos_hold_no_objects(diagram, rank, d, seed):
    """After verify --all, every memo of the mutation module, the composition
    tensors included, is keyed by indices and masks and holds no object."""
    arrows = None
    if seed is not None:
        rng = np.random.default_rng(seed)
        arrows = [(s, t) if rng.random() < 0.5 else (t, s)
                  for s, t in dynkin_edges(diagram, rank)]
    c = load_context(diagram, rank, d, orientation=arrows)
    # a spy on the orbit category's compose_tensor records the triples asked
    asked = set()
    build = c.oc.compose_tensor
    c.oc.compose_tensor = lambda *key: asked.add(key) or build(*key)
    assert run_checks(c)[0]["summary"]["fail"] == 0
    assert _holds_object({c.objects[0]: 1}) and _holds_object([(1, c.objects[-1])])
    # an approximation's (multiplicities, covers) pair holds indices only, but
    # an object planted in it, or in its place, is still found
    planted = dict(c._approximations)
    key = next(iter(planted))
    assert not _holds_object({key: planted[key]}) and not _holds_object(((), True))
    for value in ((((c.objects[0], 1),), True), (((0, 1),), c.objects[-1]), c.objects[0]):
        planted[key] = value
        assert _holds_object(planted), value
    for name in MUTATION_MEMOS:
        memo = attrgetter(name)(c)
        assert memo and not _holds_object(memo), name
    # the tensors are asked for by index triple, never by object
    assert asked and all(len(key) == 3 and all(type(i) is int for i in key)
                         for key in asked)
    # and the index triples share the tensors composed once per relative position
    assert len(c.oc._tensors) < len(asked)


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
    for e in entries:
        _add_to_ext(c.oc, *e)
    # a corruption and its dual cancel out: [(0, 3, 2), (3, 0, 1)] passes
    got = check_cy_duality(c)
    assert json.dumps(got) == json.dumps(_cy_duality_by_loop(c))
    assert (got["status"] == "pass") is (entries in ([], [(0, 3, 2), (3, 0, 1)]))


GRID = [("A", 3, 2), ("A", 4, 2), ("D", 4, 2), ("A", 3, 3), ("D", 5, 1)]


@pytest.mark.parametrize("diagram,rank,d", GRID)
def test_cy_duality_equals_the_loop_on_the_grid(diagram, rank, d):
    from dcluster.verify import check_cy_duality

    c = ctx(diagram, rank, d)
    assert check_cy_duality(c) == _cy_duality_by_loop(c)


def test_cy_duality_allocates_no_gather_of_the_table():
    """On E7 d=2 (n = 133 objects), the check's peak allocation is far below
    one n x n x (d+2) list of references: it reads the Hom table in place,
    two lists of n cells at a time."""
    import tracemalloc

    from dcluster.verify import check_cy_duality

    c = load_context("E", 7, 2)
    oc = c.oc
    oc.hom_table, oc.shifts, oc.objects()
    n = len(oc.objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = check_cy_duality(c)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert got == {"status": "pass", "instances": n * n * (oc.d + 2)}
    assert peak < 8 * n * n, (peak, n)


def _add_to_ext(oc, x, y, k):
    """Add 1 to Ext^k(X_x, X_y) = Hom(X_x, X_y[k]) and to each of its shifted
    copies Hom(X_x[l], X_y[k + l]), so that the Hom table stays invariant
    under the shift, as a table of C must."""
    shift = oc.shifts[1]
    start = a, b = x, oc.shifts[k][y]
    while True:
        oc.hom_table[a][b] += 1
        a, b = shift[a], shift[b]
        if (a, b) == start:
            return


def _break_one_root_pair(monkeypatch, ctx, side):
    """Make one root pair's Hom-system nullity one short (side "hom") or its
    cocycle space one too wide ("ext"); returns that pair."""
    from dcluster.reps import ModuleCategory

    roots = ctx.oc.cat.roots
    euler = ctx.oc.cat.euler_pairing
    pair = next((a, b) for a in roots for b in roots if euler(a, b) < 0) \
        if side == "ext" else (roots[-1], roots[-1])
    hom_dim, ext_dim = ModuleCategory.hom_dim, ModuleCategory.ext_dim

    def short_hom(self, ra, rb):
        return hom_dim(self, ra, rb) - ((ra, rb) == pair)

    def wide_ext(self, ra, rb):
        return ext_dim(self, ra, rb) + ((ra, rb) == pair)

    if side == "hom":
        monkeypatch.setattr(ModuleCategory, "hom_dim", short_hom)
    else:
        monkeypatch.setattr(ModuleCategory, "ext_dim", wide_ext)
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


def test_only_the_linear_algebra_checks_knit_modules(monkeypatch):
    """Morphisms are paths of the mesh category, so the modules are knitted
    only by the two checks that compare linear algebra with the Euler form."""
    from dcluster.reps import ModuleCategory

    def no_knit(self):
        raise RuntimeError("knitting was not needed here")

    monkeypatch.setattr(ModuleCategory, "_knit", no_knit)
    c = load_context("D", 4, 3)
    knitting = ["euler-identity", "window-hom-reduction"]
    report, _ = run_checks(c, [cid for cid in CHECK_IDS if cid not in knitting])
    assert report["summary"] == {"pass": 22, "fail": 0, "n/a": 0}
    for cid in knitting:
        with pytest.raises(RuntimeError, match="knitting was not needed here"):
            run_checks(c, [cid])


def _on_call(at, fn, failed):
    """fn, except that its at-th call returns failed(its result)."""
    calls = []

    def wrapper(*args):
        calls.append(1)
        got = fn(*args)
        return failed(got) if len(calls) == at else got
    return wrapper


_A3D3_NAMES = {
    "almost": ["root#0[0]", "root#5[0]"],
    "fan": ["root#2[0]", "root#3[0]", "root#2[2]", "root#2[1]"],
}


def _shorten_third_fan(table):
    """The face table, with the fan of its third face (a fan no earlier face
    has on A3 d=3) one member short, in place."""
    fid = table.fan_ids[2]
    table.cycles[fid] = table.cycles[fid][:-1]
    return table


# check id -> (module, attribute, at-th call, what that call returns instead,
# the failing entry on A3 d=3, where no check is gated)
FAILURE_PINS = {
    "complement-count": (
        "mutation", "face_table", 1, _shorten_third_fan,
        3, {"almost": _A3D3_NAMES["almost"], "complements": 3}),
    "complement-degrees": (
        "mutation", "degree_bounds_instances", 3, lambda got: (got[0], 1),
        4, {"almost": _A3D3_NAMES["almost"], "degrees": [0, 0, 2, 1]}),
    "fan-ext-pattern": (
        "mutation", "ext_pattern_ok", 3, lambda got: False,
        3, {"fan": _A3D3_NAMES["fan"]}),
    "delta-composites": (
        "mutation", "delta_chains_nonzero", 3, lambda got: False,
        3, {"fan": _A3D3_NAMES["fan"]}),
    "middle-rigid": (
        "mutation", "middle_union_rigid", 3, lambda got: False,
        3, {"almost": _A3D3_NAMES["almost"]}),
    # the teams lose the 1st and 3rd and gain a rotation of the 6th; the
    # difference lists teams minus fans, then fans minus teams, each sorted
    # by object tuples (the 1st and 3rd are in the other order by index)
    "exchange-team-fan": (
        "mutation", "exchange_teams_exhaustive", 1,
        lambda teams: [teams[1]] + teams[3:] + [teams[5][1:] + teams[5][:1]],
        35910, {"difference": [
            ["root#1[2]", "root#0[2]", "root#0[1]", "root#0[0]"],
            ["root#0[0]", "root#1[2]", "root#1[1]", "root#0[1]"],
            ["root#0[0]", "root#1[2]", "root#1[1]", "root#1[0]"]]}),
    "degree-profile": (
        "mutation", "degree_profile_instances", 3, lambda got: (got[0], 1),
        3, {"almost": _A3D3_NAMES["almost"], "degrees": [0, 0, 2, 1]}),
    "successor-hom-vanishing": (
        "mutation", "successor_hom_vanishing", 3, lambda got: False,
        3, {"almost": _A3D3_NAMES["almost"]}),
    "middle-terms-disjoint": (
        "mutation", "middle_supports_disjoint", 3, lambda got: False,
        3, {"almost": _A3D3_NAMES["almost"]}),
    # the completion loses its first summand
    "rigid-extends-to-tilting": (
        "verify", "complete_mask", 3, lambda got: got & (got - 1),
        3, {"size": 2, "start": ["root#2[0]"]}),
    # the 3rd almost complete start, after the 21 singletons
    "rigid-extends-to-tilting@almost": (
        "verify", "complete_mask", 24, lambda got: got & (got - 1),
        24, {"size": 2, "start": _A3D3_NAMES["almost"]}),
    "summand-hom-onedirectional": (
        "mutation", "hom_one_directional", 3, lambda got: False,
        3, {"facet": ["root#0[0]", "root#2[0]", "root#3[2]"]}),
}


# check id -> (the fan-only law it reads once per fan id, what that law
# returns on the patched fan, whether the report names the face)
FAN_LAW_CHECKS = {
    "fan-ext-pattern": ("ext_pattern_ok", lambda got: False, False),
    "delta-composites": ("delta_chains_nonzero", lambda got: False, False),
    "successor-hom-vanishing": ("successor_hom_vanishing", lambda got: False, True),
    "complement-degrees": ("degree_bounds_instances", lambda got: (got[0], 1), True),
    "degree-profile": ("degree_profile_instances", lambda got: (got[0], 1), True),
}


@pytest.mark.parametrize("cid", sorted(FAN_LAW_CHECKS))
def test_memoized_law_fails_at_the_first_face_of_its_fan(monkeypatch, cid):
    """A law made to fail on one fan that recurs fails its check at that
    fan's first face, with that face's instance count; that face comes after
    a memo hit, so counting distinct fans would give another count."""
    from dcluster import mutation as mut

    attr, failed, names_face = FAN_LAW_CHECKS[cid]
    law = getattr(mut, attr)
    c = load_context("A", 3, 3)
    pairs = list(mut.fans(c))
    fans = [fan for _, fan in pairs]
    first = next(i for i, fan in enumerate(fans) if fans.index(fan) == i
                 and fans.count(fan) > 1 and len(set(fans[:i])) < i)
    target = fans[first]
    if cid in ("complement-degrees", "degree-profile"):
        instances = sum(law(c, fan)[0] for fan in fans[:first + 1])
    else:
        instances = first + 1
    mask = pairs[first][0]
    named = c.objs_of(mask) if names_face else [c.objects[i] for i in target]
    calls = []

    def patched(ctx, cycle):
        calls.append(cycle)
        got = law(ctx, cycle)
        return failed(got) if cycle == target else got

    monkeypatch.setattr(mut, attr, patched)
    got = run_checks(c, [cid])[0]["checks"][0]
    assert got["status"] == "fail" and got["instances"] == instances
    assert got["counterexample"][("almost" if names_face else "fan")] == \
        [c.oc.obj_name(x) for x in named]
    # one call per distinct fan up to the failing one
    assert len(calls) == len(set(calls)) == len(set(fans[:first + 1]))


def test_complement_count_reads_each_face_s_own_fan():
    """A fan one member short fails complement-count at the first face, in
    table order, that has it, naming that face and the fan's size."""
    from dcluster import mutation as mut
    from dcluster.verify import check_complement_count

    c = load_context("A", 3, 3)
    table = mut.face_table(c)
    fids = list(table.fan_ids)
    for fid, cycle in enumerate(table.cycles):
        table.cycles[fid] = cycle[:-1]
        got = check_complement_count(c)
        table.cycles[fid] = cycle
        first = fids.index(fid)
        assert got == {"status": "fail", "instances": first + 1, "counterexample": {
            "almost": [c.oc.obj_name(x) for x in c.objs_of(list(table.masks())[first])],
            "complements": 3}}
    assert check_complement_count(c) == {"status": "pass", "instances": len(fids),
                                         "complements_each": 4}


# the orientations that perfbench's seed 1 draws (perfbench/inputs.py)
SEED_1_ARROWS = {
    ("A", 3): [[0, 1], [2, 1]],
    ("D", 4): [[1, 0], [1, 2], [1, 3]],
    ("A", 4): [[1, 0], [2, 1], [3, 2]],
    ("D", 5): [[0, 1], [2, 1], [2, 3], [2, 4]],
}

# sha256 of report_to_json of verify --all, keyed by (diagram, rank, d,
# orientation): the verify grid, E6 d=1, A1 d=3 and two configurations that
# gate no check (d = 3) in the default orientation, and A3 d=2, D4 d=2,
# A4 d=2, A3 d=3 and D5 d=1 in perfbench's seed-1 orientations (the
# composition tensors are keyed by vertex levels, which the orientation
# moves)
GOLDEN_REPORTS = {
    ("A", 3, 2, "default"): "4972860ce6d49ffe1f25ec8b35fffac46b9e088574fb1787a3012b9cfb731efc",
    ("A", 4, 2, "default"): "8b9d1179fbd15d970d92095266974db59798fdd74751b43dcbbf2730357b37f6",
    ("D", 4, 2, "default"): "e03087ede20bcbf72aecbb9d5d92363efd9bcaf3d12373044b0d0c7b96d785d5",
    ("D", 5, 1, "default"): "34a2937dfad596676c65749ace7db6dab1deba9d5ae98bae5996bcf76a19323c",
    ("E", 6, 1, "default"): "0a20da01c54c0965269914cca9e3a2bfa835c6e359c416d029e74f1427946095",
    ("A", 1, 3, "default"): "4116b47521625fa68dfc4f4181731c1af10bdd0c6a4ce1aad9b4a5774ff950f5",
    ("A", 3, 3, "default"): "2b65c336d620a6c9adf59a3331b8198302895668fd993d793cd45b921ebd7456",
    ("D", 4, 3, "default"): "5935ad5e6596f128590e73944bdd39e3b0f00b424ff0e532e01a630039bd035f",
    ("D", 4, 2, "seed-1"): "e961d15ec54c32f8b2b9f4ab5b0a4dbb91f8529f46639ac97e359ec39014e97f",
    ("A", 4, 2, "seed-1"): "79d5e39a337d6104e195610c355c098a2fc265c0b5ad13a5ba83787ac3866f20",
    ("A", 3, 2, "seed-1"): "7c1a2b1f6c81ffac0cc40bda802a2bad4eac7a4762ef8f213df694767d1e8457",
    ("A", 3, 3, "seed-1"): "af94fa709211a4a40cdc11a2f9de247791622331da066fdafceb385cd34d92ac",
    ("D", 5, 1, "seed-1"): "600375b16d906dafa37af2d9579e606f87a44fc5024acdc9d6b900c597d6df34",
}


@pytest.mark.parametrize("config", sorted(GOLDEN_REPORTS))
def test_report_bytes_match_the_golden_digest(config):
    diagram, rank, d, orientation = config
    arrows = SEED_1_ARROWS[(diagram, rank)] if orientation == "seed-1" else None
    text = report_to_json(run_checks(load_context(diagram, rank, d, orientation=arrows))[0])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[config]


def test_middle_rigid_failing_on_one_d4_d2_fan_reports_its_first_face(monkeypatch):
    """On D4 d=2, middle_union_rigid made to fail on one chosen fan (one
    face has it, after memo hits) fails middle-rigid at that face, with the
    count of the faces up to it."""
    from dcluster import mutation as mut

    c = load_context("D", 4, 2)
    target = tuple(c.indices([c.oc.parse_name(name)
                              for name in ("root#11[0]", "root#0[1]", "root#6[1]")]))
    rigid = mut.middle_union_rigid
    monkeypatch.setattr(mut, "middle_union_rigid", lambda ctx, cycle, supports:
                        tuple(cycle) != target and rigid(ctx, cycle, supports))
    got = run_checks(c, ["middle-rigid"])[0]["checks"][0]
    assert {k: got.get(k) for k in ("status", "instances", "counterexample")} == {
        "status": "fail", "instances": 187,
        "counterexample": {"almost": ["root#4[0]", "root#7[0]", "root#8[1]"]}}


@pytest.mark.parametrize("pin", sorted(FAILURE_PINS))
def test_failing_check_reports_the_exact_entry(monkeypatch, pin):
    """Each fan-level check, made to fail at one instance, reports exactly
    the status, instance count and counterexample of that instance."""
    import importlib

    cid = pin.split("@")[0]
    modname, attr, at, failed, instances, counterexample = FAILURE_PINS[pin]
    module = importlib.import_module("dcluster." + modname)
    monkeypatch.setattr(module, attr, _on_call(at, getattr(module, attr), failed))
    got = run_checks(load_context("A", 3, 3), [cid])[0]["checks"][0]
    assert {k: got.get(k) for k in ("status", "instances", "counterexample")} == {
        "status": "fail", "instances": instances, "counterexample": counterexample}


@pytest.mark.parametrize("argv", [["verify", "--check", "complement-count"],
                                  ["fans", "--verify-all"]])
def test_short_fan_fails_complement_count_through_the_cli(monkeypatch, capsys, argv):
    """A fan one member short, planted as complement-count's pin plants it:
    through the CLI, complement-count prints its fail line with the
    counterexample and the run exits 1, raising nothing.  The later fan
    laws, stated for fans of d+1 members, each fail naming the short fan."""
    import re

    from dcluster import cli, mutation

    monkeypatch.setattr(mutation, "face_table",
                        _on_call(1, mutation.face_table, _shorten_third_fan))
    assert cli.run(argv + ["--diagram", "A", "--rank", "3", "--d", "3"]) == 1
    out = capsys.readouterr().out
    example = json.dumps({"almost": _A3D3_NAMES["almost"], "complements": 3}, sort_keys=True)
    assert re.search(r"^complement-count +fail +3 instances counterexample=%s  \["
                     % re.escape(example), out, re.M)
    later = [line for line in out.splitlines()
             if line.split(" ")[0] in cli.FAN_CHECKS[1:]]
    assert len(later) == (len(cli.FAN_CHECKS) - 1 if argv[0] == "fans" else 0)
    short = re.escape(json.dumps({"fan": _A3D3_NAMES["fan"][:-1]}))
    assert all(re.search(r" fail +0 instances counterexample=%s  \[" % short, line)
               for line in later)
