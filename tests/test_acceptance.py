"""Acceptance suite: the twelve top-level criteria, exact arithmetic only.

Each criterion is one test that prints one PASS/FAIL line (visible under
``pytest -s`` or in the captured output).  All comparisons are exact
integers; there is no numerical tolerance anywhere.
"""

from __future__ import annotations

import json
import time
from itertools import combinations

from dcluster.cli import run
from dcluster import complex as cpxmod
from dcluster import mutation as mut
from dcluster.quiver import fomin_reading_count, parse_quiver, positive_roots
from dcluster.reps import ModuleCategory
from dcluster.tilting import enumerate_tilting, verify_equivalence
from dcluster.verify import load_context

SMALL_GRID = [("A", 1), ("A", 2), ("A", 3), ("D", 4)]
RANK4_GRID = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)]
MAIN_GRID = [("A", 2), ("A", 3), ("D", 4)]
DS = (1, 2, 3)

_cache = {}


def ctx(diagram, rank, d):
    key = (diagram, rank, d)
    if key not in _cache:
        _cache[key] = load_context(diagram, rank, d)
    return _cache[key]


def report(num, name, ok, detail):
    line = "criterion %02d %-22s %s (%s)" % (num, name, "PASS" if ok else "FAIL",
                                             detail)
    print(line)
    assert ok, line


def test_criterion_01_fundamental_domain_size():
    checked = []
    for dg, rk in SMALL_GRID:
        for d in DS:
            t0 = time.time()
            c = ctx(dg, rk, d)
            objs = c.oc.objects()
            want = d * len(positive_roots(c.oc.cat.q)) + rk
            elapsed = time.time() - t0
            assert len(objs) == len(set(objs)) == want, (dg, rk, d)
            assert elapsed < 1.0, (dg, rk, d, elapsed)
            checked.append(want)
    report(1, "domain-size", True,
           "12 cases, sizes %s" % ", ".join(map(str, checked)))


def test_criterion_02_cy_duality():
    pairs = 0
    for dg, rk in RANK4_GRID:
        for d in DS:
            oc = ctx(dg, rk, d).oc
            objs = oc.objects()
            for x in objs:
                for y in objs:
                    pairs += 1
                    for i in range(d + 2):
                        assert oc.ext_dim(x, y, i) == oc.ext_dim(y, x, d + 1 - i), \
                            (dg, rk, d, x, y, i)
    report(2, "cy-duality", True, "%d object pairs, all slots" % pairs)


def test_criterion_03_euler_identity():
    pairs = 0
    for dg, rk in RANK4_GRID:
        cat = ctx(dg, rk, 1).oc.cat
        other = ModuleCategory(parse_quiver(dg, rk), p=7)
        for a in cat.roots:
            for b in cat.roots:
                pairs += 1
                hom, ext = cat.hom_dim(a, b), cat.ext_dim(a, b)
                assert hom - ext == cat.euler_pairing(a, b), (dg, rk, a, b)
                assert hom == other.hom_dim(a, b), (dg, rk, a, b)
                assert ext == other.ext_dim(a, b), (dg, rk, a, b)
    report(3, "euler-identity", True,
           "%d module pairs, primes 101 and 7 agree" % pairs)


def test_criterion_04_rigidity_equivalence():
    total = 0
    for dg, rk in MAIN_GRID:
        for d in DS:
            res = verify_equivalence(ctx(dg, rk, d))
            assert res["ok"], (dg, rk, d, res)
            total += res["count"]
    report(4, "rigidity-equivalence", True,
           "9 cases, %d maximal rigid sets, zero counterexamples" % total)


def test_criterion_05_complement_counts():
    total = 0
    for dg, rk in MAIN_GRID:
        for d in DS:
            c = ctx(dg, rk, d)
            for mask, _ in mut.fans(c):
                total += 1
                a = c.objs_of(mask)
                assert len(mut.fan_of(c, a)) == d + 1, (dg, rk, d, a)
    report(5, "complement-count", True,
           "%d almost complete sets, always d+1 complements" % total)


def test_criterion_06_fan_pattern_and_exchange_teams():
    fans = 0
    for dg, rk in MAIN_GRID:
        for d in DS:
            c = ctx(dg, rk, d)
            for mask, _ in mut.fans(c):
                fans += 1
                fan = c.indices(mut.fan_of(c, c.objs_of(mask)))
                assert mut.ext_pattern_ok(c, fan), (dg, rk, d, fan)
                assert mut.delta_chains_nonzero(c, fan), (dg, rk, d, fan)
    tuples = 0
    for d in (1, 2):
        c = ctx("A", 2, d)
        teams = set(mut.exchange_teams_exhaustive(c))
        real = {mut.cyclic_form(c.indices(mut.fan_of(c, c.objs_of(mask))))
                for mask, _ in mut.fans(c)}
        assert teams == real, (d, teams ^ real)
        tuples += len(teams)
    report(6, "exchange-teams", True,
           "%d fans pass pattern+composites; A_2 d<=2 exhaustive converse, "
           "%d teams = fans" % (fans, tuples))


def test_criterion_07_degree_profile():
    inst = 0
    for dg, rk in MAIN_GRID:
        for d in (2, 3):
            c = ctx(dg, rk, d)
            for mask, fan in mut.fans(c):
                got, viol = mut.degree_profile_instances(c, fan)
                inst += got
                assert viol == 0, (dg, rk, d, c.objs_of(mask))
    report(7, "degree-profile", True,
           "%d rotations matched the two-piece formula, zero violations" % inst)


def test_criterion_08_middle_disjoint_and_hom_vanishing():
    mids = homs = 0
    for dg, rk in MAIN_GRID:
        for d in (2, 3):
            c = ctx(dg, rk, d)
            for mask, fan in mut.fans(c):
                mids += 1
                supports = mut.supports_of(mut._face_triangles(c, mask, fan))
                assert mut.middle_supports_disjoint(supports), \
                    (dg, rk, d, c.objs_of(mask))
        c = ctx(dg, rk, 3)
        for facet in enumerate_tilting(c):
            homs += 1
            assert mut.hom_one_directional(c, c.mask_of(facet)), (dg, rk, facet)
        for mask, fan in mut.fans(c):
            assert mut.successor_hom_vanishing(c, fan), (dg, rk, c.objs_of(mask))
    report(8, "middle-terms", True,
           "%d fans disjoint (d>=2); %d facets one-directional and "
           "successor-Hom-free (d=3)" % (mids, homs))


def test_criterion_09_mutation_graph():
    cases = []
    for dg, rk in MAIN_GRID:
        for d in DS:
            res = mut.mutation_graph_checks(ctx(dg, rk, d))
            assert res["connected"] and res["regular"], (dg, rk, d, res)
            cases.append(res["vertices"])
    c = ctx("A", 2, 1)
    facets = enumerate_tilting(c)
    # facets sharing all but one summand, compared pairwise
    neighbors = [set() for _ in facets]
    for a, b in combinations(range(len(facets)), 2):
        if len(set(facets[a]) & set(facets[b])) == len(facets[a]) - 1:
            neighbors[a].add(b)
            neighbors[b].add(a)
    assert len(facets) == 5 and all(len(s) == 2 for s in neighbors)
    seen, cur, prev = {0}, 0, -1
    for _ in range(4):
        cur, prev = next(j for j in neighbors[cur] if j != prev), cur
        seen.add(cur)
    assert len(seen) == 5 and 0 in neighbors[cur]
    report(9, "mutation-graph", True,
           "9 cases connected and n*d-regular, sizes %s; A_2 d=1 is the "
           "5-cycle" % ", ".join(map(str, cases)))


def test_criterion_10_facet_counts():
    want = {("A", 2, 1): 5, ("A", 2, 2): 12, ("A", 3, 1): 14,
            ("A", 3, 2): 55, ("D", 4, 1): 50, ("D", 4, 2): 336}
    got = {}
    for (dg, rk, d), expect in sorted(want.items()):
        c = ctx(dg, rk, d)
        count = len(enumerate_tilting(c))
        formula = fomin_reading_count(c.oc.cat.q, d)
        assert count == formula == expect, (dg, rk, d, count, formula)
        got[(dg, rk, d)] = count
    report(10, "facet-counts", True,
           "enumeration = product formula: %s" %
           ", ".join("%s_%d d=%d: %d" % (dg, rk, d, v)
                     for (dg, rk, d), v in sorted(got.items())))


def test_criterion_11_complex_properties():
    faces = 0
    for dg, rk in MAIN_GRID:
        for d in DS:
            c = ctx(dg, rk, d)
            assert cpxmod.gamma_is_bijection(c.oc), (dg, rk, d)
            stats = cpxmod.facet_stats(cpxmod.build_complex(c))
            assert stats["pure"], (dg, rk, d)
            assert stats["codim1_in_d_plus_1"], (dg, rk, d, stats)
            assert stats["colors_ok"], (dg, rk, d)
            faces += stats["codim1_faces"]
    report(11, "complex-structure", True,
           "9 cases pure; %d codim-1 faces each in d+1 facets with every "
           "color present" % faces)


def test_criterion_12_reports_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        assert run(["verify", "--all", "--diagram", "A", "--rank", "2",
                    "--d", "2", "--out", str(p)]) == 0
    capsys.readouterr()
    same = paths[0].read_bytes() == paths[1].read_bytes()
    rep = json.loads(paths[0].read_text())
    ok = same and rep["summary"]["fail"] == 0 and len(rep["checks"]) == 24
    with capsys.disabled():
        report(12, "deterministic-reports", ok,
               "two verify --all runs wrote %d identical bytes, 24 checks" %
               len(paths[0].read_bytes()))
