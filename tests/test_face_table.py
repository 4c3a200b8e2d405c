"""The face table: codimension-1 faces in flat arrays, fans by id, middle
terms kept per fan (mutation.FaceTable)."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from dcluster import complex as cpxmod
from dcluster import mutation as mut
from dcluster import tilting
from dcluster.cli import run
from dcluster.orbit import OrbitCategory
from dcluster.quiver import dynkin_edges, parse_quiver
from dcluster.reps import ModuleCategory
from dcluster.tilting import TiltingContext, _bits, _closure, complete_mask, facet_masks
from dcluster.verify import check_rigid_extends, run_checks

GRID = [("A", 3, 2), ("A", 4, 2), ("D", 4, 2), ("A", 3, 3), ("D", 5, 1)]
LAW_CONFIGS = GRID + [("E", 6, 1), ("A", 1, 3)]
SEEDS = [None, 3, 11]

_orbits = {}


def _arrows(diagram, rank, seed):
    """seed None keeps the default orientation; otherwise one coin per edge."""
    if seed is None:
        return None
    rng = np.random.default_rng(seed)
    return [(s, t) if rng.random() < 0.5 else (t, s) for s, t in dynkin_edges(diagram, rank)]


def _ctx(diagram, rank, d, seed=None):
    """A context with empty memos over an orbit category shared per configuration."""
    key = (diagram, rank, d, seed)
    if key not in _orbits:
        q = parse_quiver(diagram, rank, _arrows(diagram, rank, seed))
        _orbits[key] = OrbitCategory(ModuleCategory(q), d)
    return TiltingContext(_orbits[key])


def _members(table, f):
    return list(table.members[table.starts[f]:table.starts[f + 1]])


def _group_by_face(masks):
    """Reference: each facet minus one summand, mapped to the positions of
    the facets containing it, in the first-seen order of a pass over the
    facets."""
    faces = {}
    for fi, mask in enumerate(masks):
        for i in _bits(mask):
            faces.setdefault(mask ^ 1 << i, []).append(fi)
    return faces


def _tuple_order(masks):
    return sorted(masks, key=lambda mask: tuple(_bits(mask)))


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("diagram,rank,d", GRID)
def test_face_table_matches_group_by_face(diagram, rank, d, seed):
    """Per face, in tuple order: the mask and the facet positions of the
    reference grouping, and the offsets walk the flat array without a gap."""
    c = _ctx(diagram, rank, d, seed)
    groups = _group_by_face(facet_masks(c))
    faces = _tuple_order(groups)
    table = mut.face_table(c)
    assert len(table) == len(groups)
    assert list(table.masks()) == faces
    assert [_members(table, f) for f in range(len(table))] == [groups[m] for m in faces]
    assert [list(members) for members in table.groups()] == [groups[m] for m in faces]
    assert table.starts[0] == 0 and table.starts[-1] == len(table.members)


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("diagram,rank,d", GRID + [("E", 6, 1)])
def test_sort_order_is_the_tuple_order(diagram, rank, d, seed):
    c = _ctx(diagram, rank, d, seed)
    want = _tuple_order(_group_by_face(facet_masks(c)))
    assert [mask for mask, _ in mut.fans(c)] == want
    assert list(mut.face_table(c).masks()) == want


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("diagram,rank,d", GRID)
def test_each_face_has_the_fan_of_its_mask(diagram, rank, d, seed):
    c = _ctx(diagram, rank, d, seed)
    table = mut.face_table(c)
    fresh = TiltingContext(c.oc)
    for mask, fid in zip(table.masks(), table.fan_ids):
        assert table.cycles[fid] == mut._fan(fresh, mask)
    # one id per distinct cycle, each used
    assert len(set(table.cycles)) == len(table.cycles) == len(set(table.fan_ids))
    assert list(mut.fans(c)) == [(mask, mut._fan(fresh, mask)) for mask in
                                 _tuple_order(table.masks())]


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("diagram,rank,d", GRID + [("E", 6, 1), ("A", 1, 3)])
def test_fan_order_is_the_first_seen_order_of_the_sorted_faces(diagram, rank, d, seed):
    """The fan ids number the fans as they first occur among the faces in
    tuple order, so a check that asks its law per fan id in id order asks
    it in the order of the sorted walk."""
    c = _ctx(diagram, rank, d, seed)
    table = mut.face_table(c)
    firsts = list(dict.fromkeys(table.fan_ids))
    assert firsts == list(range(len(table.cycles)))
    fresh = TiltingContext(c.oc)
    want = dict.fromkeys(mut._fan(fresh, mask)
                         for mask in _tuple_order(_group_by_face(facet_masks(c))))
    assert table.cycles == list(want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("diagram,rank,d", LAW_CONFIGS)
def test_faces_with_one_fan_have_equal_middle_terms(diagram, rank, d, seed):
    """The law the per-fan middles rest on: each face's middle terms, from
    its own right and left approximations, depend only on its fan (each
    Ext^1 along a fan is one-dimensional, so each triangle is unique)."""
    c = _ctx(diagram, rank, d, seed)
    table = mut.face_table(c)
    by_fan = {}
    for mask, fid in zip(table.masks(), table.fan_ids):
        got = mut._face_triangles(c, mask, table.cycles[fid])
        assert by_fan.setdefault(fid, got) == got, c.objs_of(mask)
    assert len(by_fan) == len(table.cycles) <= len(table)


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("diagram,rank,d", GRID)
def test_kept_middles_are_each_faces_own(diagram, rank, d, seed):
    """After the per-face pass, the middles kept for a fan id are those of
    every face with that fan, computed afresh in another context."""
    c = _ctx(diagram, rank, d, seed)
    table = mut.face_table(c)
    assert table.middles is None
    assert mut.fan_middles(c) is table.middles and len(table.middles) == len(table.cycles)
    fresh = TiltingContext(c.oc)
    for mask in table.masks():
        cycle = mut._fan(fresh, mask)
        assert table.middles[table.cycles.index(cycle)] == \
            mut._face_triangles(fresh, mask, cycle), c.objs_of(mask)


@pytest.mark.parametrize("diagram,rank,d", [("A", 3, 2), ("A", 3, 3)])
def test_every_face_gets_its_own_approximations(diagram, rank, d, monkeypatch):
    """The per-face witness is not skipped for a fan that already has
    middles: each face, in table order, asks for its own right and left
    approximations."""
    c = _ctx(diagram, rank, d)
    table = mut.face_table(c)
    calls = []
    approximation = mut._approximation
    monkeypatch.setattr(mut, "_approximation",
                        lambda *key: calls.append(key) or approximation(c, *key[1:]))
    mut.fan_middles(c)
    out, into = c.hom_masks()
    want = []
    for mask, fid in zip(table.masks(), table.fan_ids):
        cycle = table.cycles[fid]
        for k, i in enumerate(cycle):
            nxt = cycle[(k + 1) % len(cycle)]
            want += [(c, True, i, mask & into[i]), (c, False, nxt, mask & out[nxt])]
    assert calls == want
    # the pass runs once per context
    mut.fan_middles(c)
    assert len(calls) == len(want)


def _break_one_face(monkeypatch, c):
    """Make _face_triangles answer differently on the first face, in table
    order, of a fan already seen, and return its mask."""
    table = mut.face_table(c)
    seen, target = set(), None
    for mask, fid in zip(table.masks(), table.fan_ids):
        if fid in seen:
            target = mask
            break
        seen.add(fid)
    triangles = mut._face_triangles

    def broken(ctx, mask, cycle):
        got = triangles(ctx, mask, cycle)
        return got[1:] + got[:1] if mask == target else got

    monkeypatch.setattr(mut, "_face_triangles", broken)
    assert target is not None
    return target


def test_a_face_disagreeing_with_its_fan_raises(monkeypatch, capsys):
    c = _ctx("A", 3, 3)
    target = _break_one_face(monkeypatch, c)
    with pytest.raises(RuntimeError, match="middle terms of the triangles of %s differ"
                       % re.escape(repr(c.objs_of(target)))):
        run_checks(c, ["middle-terms-disjoint"])
    assert c._face_table.middles is None
    # the face is checked again, not skipped, by the next check
    with pytest.raises(RuntimeError, match="differ from those of another face"):
        run_checks(c, ["middle-rigid"])
    assert run(["verify", "--check", "middle-rigid", "--diagram", "A", "--rank", "3",
                "--d", "3"]) == 3
    assert "differ from those of another face" in capsys.readouterr().err


def test_every_face_is_checked_before_a_middle_verdict(monkeypatch, capsys):
    """At d = 1, where middle-terms-disjoint is gated, middle-rigid failing
    on the first fan still checks every face's own triangles first: a later
    face of an already seen fan with other middles stops the run (exit 3),
    and no middles are kept."""
    c = _ctx("D", 4, 1)
    first = next(mut.fans(c))[1]
    rigid = mut.middle_union_rigid
    monkeypatch.setattr(mut, "middle_union_rigid", lambda ctx, cycle, supports:
                        cycle != first and rigid(ctx, cycle, supports))
    assert run_checks(c, ["middle-rigid"])[0]["checks"][0]["status"] == "fail"
    target = _break_one_face(monkeypatch, c)
    want = "middle terms of the triangles of %r differ" % (c.objs_of(target),)
    with pytest.raises(RuntimeError, match=re.escape(want)):
        run_checks(TiltingContext(c.oc), ["middle-rigid"])
    assert run(["verify", "--check", "middle-rigid", "--diagram", "D", "--rank", "4",
                "--d", "1"]) == 3
    assert want in capsys.readouterr().err
    c = TiltingContext(c.oc)
    with pytest.raises(RuntimeError, match=re.escape(want)):
        mut.fan_middles(c)
    assert mut.face_table(c).middles is None


def test_each_middle_check_reads_the_other_ones_pass(monkeypatch):
    """middle-rigid and middle-terms-disjoint share one per-face pass, in
    table order, in whichever order they run, with the same report."""
    checks = ["middle-rigid", "middle-terms-disjoint"]
    want = run_checks(_ctx("A", 3, 3), checks)[0]
    faces = []
    triangles = mut._face_triangles
    monkeypatch.setattr(mut, "_face_triangles",
                        lambda ctx, mask, cycle: faces.append(mask) or
                        triangles(ctx, mask, cycle))
    for order in (checks, checks[::-1]):
        c = _ctx("A", 3, 3)
        faces.clear()
        got = [run_checks(c, [cid])[0]["checks"][0] for cid in order]
        assert sorted(got, key=lambda e: e["id"]) == sorted(want["checks"],
                                                            key=lambda e: e["id"])
        assert faces == list(mut.face_table(c).masks())


def test_rigid_extends_reads_the_sorted_faces(monkeypatch):
    """The singletons, then the first face in table order of each
    common-neighbour mask, in that order, are completed once each; the
    other faces count as instances without a completion of their own."""
    starts = []
    monkeypatch.setattr("dcluster.verify.complete_mask",
                        lambda ctx, mask: starts.append(mask) or complete_mask(ctx, mask))
    for config in [("A", 3, 3), ("D", 4, 2)]:
        c = _ctx(*config)
        starts.clear()
        table = mut.face_table(c)
        assert check_rigid_extends(c)["instances"] == len(c.objects) + len(table)
        firsts = {}
        for mask, _ in mut.fans(c):
            firsts.setdefault(mut._common_mask(c, mask), mask)
        assert starts == [1 << i for i in range(len(c.objects))] + list(firsts.values())
        assert len(firsts) < len(table), config


def test_a_face_that_is_not_rigid_raises_in_its_completion(monkeypatch):
    """A face table whose face is not rigid (here a face with one summand
    too many) makes that face a key of its own in rigid-extends-to-tilting:
    the first faces of the keys before it in table order complete, and
    then its completion raises."""
    c = _ctx("A", 3, 2)
    table = mut.face_table(c)
    facet = table.facets[table.members[table.starts[5]]]
    table.drops[5] = next(i for i in range(len(c.objects)) if not facet >> i & 1)
    bad = list(table.masks())[5]
    assert bad & facet == facet
    starts = []
    monkeypatch.setattr("dcluster.verify.complete_mask",
                        lambda ctx, mask: starts.append(mask) or complete_mask(ctx, mask))
    with pytest.raises(RuntimeError, match="greedy completion failed"):
        check_rigid_extends(c)
    sorted_masks = list(table.masks())
    before = sorted_masks[:sorted_masks.index(bad)]
    firsts = {}
    for mask in before:
        firsts.setdefault(mut._common_mask(c, mask), mask)
    assert starts == [1 << i for i in range(len(c.objects))] + list(firsts.values()) + [bad]


def test_a_face_not_rigid_is_completed_on_its_own(monkeypatch):
    """A face found not rigid is keyed by itself, not by its common
    neighbours: here one that shares its mask's key with an earlier face
    is reported not rigid, and it gets a completion of its own, at its
    place in table order."""
    c = _ctx("A", 3, 3)
    table = mut.face_table(c)
    sorted_masks = list(table.masks())
    firsts = {}
    for mask in sorted_masks:
        firsts.setdefault(mut._common_mask(c, mask), mask)
    bad = next(mask for mask in sorted_masks if mask not in firsts.values())
    monkeypatch.setattr("dcluster.verify._closure",
                        lambda ctx, mask: (mask != bad, _closure(ctx, mask)[1]))
    starts = []
    monkeypatch.setattr("dcluster.verify.complete_mask",
                        lambda ctx, mask: starts.append(mask) or complete_mask(ctx, mask))
    assert check_rigid_extends(c)["status"] == "pass"
    expected = sorted(list(firsts.values()) + [bad], key=sorted_masks.index)
    assert starts == [1 << i for i in range(len(c.objects))] + expected


def test_census_face_layer_keeps_under_100_bytes_per_face():
    """What the face layer keeps after mutation_graph_checks and
    facet_stats on E6 d=2: the flat arrays, the distinct fans and the
    verdicts, well under one Python object per face."""
    c = _ctx("E", 6, 2)
    facet_masks(c)
    c.adjacency(), c.hom_masks(), c.ext1_rows()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mut.mutation_graph_checks(c)
        cpxmod.facet_stats(cpxmod.build_complex(c))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    faces = len(c._face_table)
    assert faces == 33176
    assert kept < 100 * faces, kept / faces


def test_face_table_build_peaks_under_120_bytes_per_face():
    """Building the face table of E6 d=2, with the facets and the
    compatibility rows already built, allocates under 120 bytes per face at
    its peak (the facet positions are looked up in a dict that the build
    drops, and no face is grouped in a Python list), and keeps 31."""
    c = _ctx("E", 6, 2)
    facet_masks(c)
    c.adjacency(), c.hom_masks(), c.ext1_rows()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mut.face_table(c)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    faces = len(c._face_table)
    assert faces == 33176
    assert peak - before < 120 * faces, (peak - before) / faces
    assert kept - before < 32 * faces, (kept - before) / faces


@pytest.mark.parametrize("diagram,rank,d", [("A", 3, 2), ("D", 4, 1)])
def test_a_facet_missing_from_the_facet_list_stops_the_build(diagram, rank, d):
    """Each face, with each of its common neighbours, must be an enumerated
    facet: with one facet left out, the build raises at the first face of
    it in tuple order, the facet without its largest summand."""
    c = _ctx(diagram, rank, d)
    facets = facet_masks(c)
    gone = facets[len(facets) // 2]
    c._facet_masks = [mask for mask in facets if mask != gone]
    top = 1 << gone.bit_length() - 1
    want = "codimension-1 face %r with the common neighbour %r lies in no enumerated facet" \
        % (c.objs_of(gone ^ top), c.objects[top.bit_length() - 1])
    with pytest.raises(RuntimeError, match=re.escape(want)):
        mut.face_table(c)
    assert c._face_table is None


@pytest.mark.parametrize("extra", ["repeated", "not rigid"])
def test_an_extra_mask_in_the_facet_list_stops_the_build(extra):
    """The faces lie in n facets each, counted once per face, so a facet
    list with a mask that is no facet of its own fails the count."""
    c = _ctx("A", 3, 2)
    facets = facet_masks(c)
    # the first three objects are not all compatible (root#0..2 of A3)
    assert not _closure(c, 0b111)[0]
    c._facet_masks = facets + [facets[0] if extra == "repeated" else 0b111]
    want = ("the faces lie in %d facets, counted with multiplicity, not n = 3 times "
            "the %d enumerated facets" % (3 * len(facets), len(facets) + 1))
    with pytest.raises(RuntimeError, match=re.escape(want)):
        mut.face_table(c)
    assert c._face_table is None


def test_queries_leave_the_face_table_unbuilt(tmp_path, monkeypatch, capsys):
    """complements and mutate on one face of a seeded D5 d=2 never list
    the facets or the faces, in the library and through the CLI."""
    c = _ctx("D", 5, 2, 3)
    facet = c.objs_of(complete_mask(c, 1 << 4))
    almost = facet[1:]
    assert mut.complements(c, almost)
    assert mut.mutate(c, facet, facet[0]) != facet
    assert mut.fan_of(c, almost) and mut.triangles_of(c, almost)
    assert c._face_table is None and c._facet_masks is None

    def no_table(*args):
        raise AssertionError("a query built the face table")

    monkeypatch.setattr(mut, "face_table", no_table)
    monkeypatch.setattr(mut, "_grow", no_table)
    monkeypatch.setattr(tilting, "_grow", no_table)
    path = tmp_path / "orientation.json"
    path.write_text(str([list(a) for a in _arrows("D", 5, 3)]))
    names = [c.oc.obj_name(x) for x in facet]
    argv = ["--diagram", "D", "--rank", "5", "--d", "2", "--orientation", str(path),
            "--facet", ",".join(names), "--drop", names[0]]
    assert run(["complements"] + argv) == 0
    assert run(["mutate"] + argv) == 0
    capsys.readouterr()
