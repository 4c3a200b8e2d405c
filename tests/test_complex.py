import gc
import json
import re
from itertools import combinations
from math import comb

import numpy as np
import pytest

from dcluster.complex import (ClusterComplex, build_complex, colored_roots,
                              f_vector, f_vector_text, facet_stats, gamma,
                              gamma_is_bijection, to_dot, to_json)
from dcluster import mutation as mut
from dcluster import tilting
from dcluster.mutation import face_table, fan_of, mutation_graph_checks
from dcluster.orbit import OrbitCategory
from dcluster.quiver import coxeter_data, dynkin_edges, fomin_reading_count, parse_quiver
from dcluster.reps import ModuleCategory
from dcluster.tilting import (TiltingContext, enumerate_tilting, is_rigid,
                              verify_equivalence)
from dcluster.verify import load_context

_cache = {}


def ctx(diagram, rank, d, p=101):
    key = (diagram, rank, d, p)
    if key not in _cache:
        q = parse_quiver(diagram, rank)
        _cache[key] = TiltingContext(OrbitCategory(ModuleCategory(q, p=p), d))
    return _cache[key]


CASES = [
    ("A", 1, 1), ("A", 1, 2), ("A", 1, 3),
    ("A", 2, 1), ("A", 2, 2), ("A", 2, 3),
    ("A", 3, 1), ("A", 3, 2),
    ("D", 4, 1),
]


def test_gamma_frozen_a2_d2():
    oc = ctx("A", 2, 2).oc
    assert gamma(oc, ((1, 0), 1)) == ((1, 0), 2, "positive")
    assert gamma(oc, ((0, 1), 2)) == ((0, 1), 1, "negative-simple")
    assert gamma(oc, ((1, 1), 0)) == ((1, 1), 1, "positive")


def test_gamma_frozen_any_d():
    for d in (1, 2, 3):
        oc = ctx("A", 2, d).oc
        assert gamma(oc, ((1, 1), 0)) == ((1, 1), 1, "positive")


@pytest.mark.parametrize("diagram,rank,d", CASES)
def test_gamma_bijection(diagram, rank, d):
    oc = ctx(diagram, rank, d).oc
    assert gamma_is_bijection(oc)
    target = colored_roots(oc)
    assert len(target) == d * len(oc.cat.roots) + rank
    negatives = [lab for lab in (gamma(oc, x) for x in oc.objects())
                 if lab[2] == "negative-simple"]
    assert len(negatives) == rank
    assert all(color == 1 and sum(root) == 1 for root, color, _ in negatives)


FVECTORS = [
    ("A", 1, 2, [1, 3]),
    ("A", 2, 1, [1, 5, 5]),
    ("A", 2, 2, [1, 8, 12]),
    ("A", 2, 3, [1, 11, 22]),
    ("A", 3, 1, [1, 9, 21, 14]),
    ("A", 3, 2, [1, 15, 55, 55]),
    ("D", 4, 1, [1, 16, 66, 100, 50]),
]


@pytest.mark.parametrize("diagram,rank,d,fv", FVECTORS)
def test_f_vector_frozen(diagram, rank, d, fv):
    c = ctx(diagram, rank, d)
    cpx = build_complex(c)
    assert f_vector(cpx) == fv
    assert fv[1] == len(cpx.vertices)
    assert fv[-1] == len(cpx.facets)


def test_f_vector_counts_rigid_subsets():
    c = ctx("A", 2, 2)
    fv = f_vector(build_complex(c))
    for size in range(c.n + 1):
        byhand = sum(1 for sub in combinations(c.objects, size) if is_rigid(c, sub))
        assert fv[size] == byhand


def _oriented(diagram, rank, d, seed):
    """A fresh context; seed None keeps the default orientation."""
    arrows = None
    if seed is not None:
        rng = np.random.default_rng(seed)
        arrows = [(s, t) if rng.random() < 0.5 else (t, s)
                  for s, t in dynkin_edges(diagram, rank)]
    return load_context(diagram, rank, d, orientation=arrows)


@pytest.mark.parametrize("seed", [None, 6])
@pytest.mark.parametrize("diagram,rank,d", [("A", 3, 2), ("A", 3, 3), ("D", 4, 2)])
def test_f_vector_equals_a_brute_force_count(diagram, rank, d, seed):
    c = _oriented(diagram, rank, d, seed)
    for positive in (False, True):
        cpx = build_complex(c, positive_only=positive)
        byhand = [sum(1 for sub in combinations(cpx.vertices, size) if is_rigid(c, sub))
                  for size in range(c.n + 1)]
        assert f_vector(cpx) == byhand
        assert to_json(cpx)["f_vector"] == byhand


def test_f_vector_is_counted_once_per_complex(monkeypatch):
    from dcluster import complex as cpxmod

    calls = []
    count = cpxmod._count_faces
    monkeypatch.setattr(cpxmod, "_count_faces",
                        lambda *args: calls.append(args[3]) or count(*args))
    cpx = build_complex(_oriented("A", 3, 2, None))
    want = f_vector(cpx)
    assert want == [1, 15, 55, 55] and calls.count(0) == 1
    counted = len(calls)
    assert f_vector_text(cpx) == "1 15 55 55\n"
    assert to_json(cpx)["f_vector"] == want
    # the caller owns the list it gets
    got = f_vector(cpx)
    got[1] = 0
    got.append(7)
    assert f_vector(cpx) == want
    assert len(calls) == counted


def test_sphere_euler_characteristics():
    # d = 1 complexes triangulate spheres
    fv = f_vector(build_complex(ctx("A", 3, 1)))
    assert fv[1] - fv[2] + fv[3] == 2
    fv = f_vector(build_complex(ctx("D", 4, 1)))
    assert fv[1] - fv[2] + fv[3] - fv[4] == 0


def _h_vector(fv):
    """h_k = sum_i (-1)^(k-i) C(n-i, k-i) f_(i-1), from fv = [1, f_0, ..., f_(n-1)]."""
    n = len(fv) - 1
    return [sum((-1) ** (k - i) * comb(n - i, k - i) * fv[i] for i in range(k + 1))
            for k in range(n + 1)]


LAW_CASES = [(dg, rk, d) for dg, rk in (("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5))
             for d in (1, 2)] + [("A", 3, 3), ("E", 6, 1), ("E", 6, 2)]


@pytest.mark.parametrize("diagram,rank,d", LAW_CASES)
def test_face_count_laws(diagram, rank, d):
    """The reduced Euler characteristic and the h-vector of Delta^d(Phi)
    are read off the facet counts N(Phi, d) and N(Phi, d-1), N(Phi, 0) = 1;
    in type A the h-vector is the Fuss-Narayana sequence."""
    c = ctx(diagram, rank, d)
    q, n = c.oc.cat.q, rank
    facets, below = fomin_reading_count(q, d), fomin_reading_count(q, d - 1)
    fv = f_vector(build_complex(c))
    assert sum((-1) ** (i - 1) * f for i, f in enumerate(fv)) == (-1) ** (n - 1) * below
    h = _h_vector(fv)
    assert (h[0], sum(h), h[n]) == (1, facets, below)
    if diagram == "A":
        assert [(n + 1) * hk for hk in h] == [comb(n + 1, k + 1) * comb(d * (n + 1), k)
                                              for k in range(n + 1)]
    stats = facet_stats(build_complex(c))
    assert fv[n - 1] == stats["codim1_faces"]
    assert n * stats["facets"] == (d + 1) * stats["codim1_faces"]


def test_face_count_laws_frozen_e6_d2():
    assert fomin_reading_count(parse_quiver("E", 6), 0) == 1
    assert _h_vector(f_vector(build_complex(ctx("E", 6, 2)))) \
        == [1, 72, 912, 3906, 6580, 4284, 833]


@pytest.mark.parametrize("diagram,rank,d", CASES)
def test_facet_stats(diagram, rank, d):
    c = ctx(diagram, rank, d)
    stats = facet_stats(build_complex(c))
    assert stats["pure"]
    assert stats["codim1_in_d_plus_1"]
    assert stats["codim1_incidence"] == {d + 1: stats["codim1_faces"]}
    assert stats["colors_ok"]
    assert stats["facets"] == len(enumerate_tilting(c))


def test_facet_stats_frozen_a2_d1():
    stats = facet_stats(build_complex(ctx("A", 2, 1)))
    assert stats["facets"] == 5
    assert stats["codim1_faces"] == 5
    assert stats["codim1_incidence"] == {2: 5}


def _positive_count(q, d):
    data = coxeter_data(q)
    num = den = 1
    for e in data.exponents:
        num *= d * data.h + e - 1
        den *= e + 1
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("diagram,rank,d", CASES)
def test_positive_part(diagram, rank, d):
    c = ctx(diagram, rank, d)
    pos = build_complex(c, positive_only=True)
    oc = c.oc
    assert len(pos.vertices) == d * len(oc.cat.roots)
    assert all(oc.degree(x) < d for x in pos.vertices)
    assert all(lab[2] == "positive" for lab in pos.labels.values())
    full = set(enumerate_tilting(c))
    assert set(pos.facets) <= full
    assert len(pos.facets) == _positive_count(oc.cat.q, d)
    with pytest.raises(ValueError):
        facet_stats(pos)


def test_positive_part_frozen():
    assert len(build_complex(ctx("A", 2, 2), positive_only=True).facets) == 7
    assert len(build_complex(ctx("A", 3, 1), positive_only=True).facets) == 5


def _facet_adjacency_pairwise(facets):
    """Facets sharing all but one summand, by comparing every pair."""
    return [{j for j, g in enumerate(facets) if len(set(f) & set(g)) == len(f) - 1}
            for f in facets]


def _dot_adjacency(dot, count):
    """The neighbour sets of the `count` facets of a DOT export, from its
    edge lines, which must be sorted and each written once."""
    edges = [tuple(map(int, m)) for m in re.findall(r"^  f(\d+) -- f(\d+);$", dot, re.M)]
    assert edges == sorted(set(edges)) and all(a < b for a, b in edges)
    nbrs = [set() for _ in range(count)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return nbrs


@pytest.mark.parametrize("diagram,rank,d", CASES)
def test_facet_adjacency_is_mutation_graph(diagram, rank, d):
    c = ctx(diagram, rank, d)
    for positive in (False, True):
        cpx = build_complex(c, positive_only=positive)
        assert cpx.facet_masks == [c.mask_of(f) for f in cpx.facets]
        assert (_dot_adjacency(to_dot(cpx), len(cpx.facets))
                == _facet_adjacency_pairwise(cpx.facets))


def test_facet_stats_catches_a_dropped_facet(monkeypatch):
    grow = tilting._grow

    def grow_but_drop_one(adj, n, mask, cand, size, start, emit):
        if size:
            return grow(adj, n, mask, cand, size, start, emit)
        found = []
        grow(adj, n, mask, cand, size, start, lambda *pair: found.append(pair))
        del found[len(found) // 2]
        for pair in found:
            emit(*pair)

    monkeypatch.setattr(tilting, "_grow", grow_but_drop_one)
    c = TiltingContext(OrbitCategory(ModuleCategory(parse_quiver("A", 3)), 2))
    cpx = build_complex(c)
    assert len(cpx.facets) == 54
    with pytest.raises(RuntimeError, match=r"codimension-1 face \(.*\) with the common "
                       r"neighbour .* lies in no enumerated facet"):
        facet_stats(cpx)


def test_facet_stats_catches_a_fan_off_its_facets(monkeypatch):
    """A fan that is not the set of summands completing its face in the
    facets (here the complements of another face's common neighbours) is
    named by facet_stats."""
    c = load_context("A", 3, 2)
    table = face_table(TiltingContext(c.oc))
    masks = list(table.masks())
    first, other = (mut._common_mask(c, mask) for mask in (masks[0], masks[-1]))
    assert mut._complements_among(c, first) != mut._complements_among(c, other)
    among = mut._complements_among
    monkeypatch.setattr(mut, "_complements_among", lambda ctx, common:
                        among(ctx, other if common == first else common))
    names = [c.oc.obj_name(x) for x in c.objs_of(masks[0])]
    with pytest.raises(RuntimeError, match=re.escape(
            "codimension-1 face {%s} is completed by" % ", ".join(names))):
        facet_stats(build_complex(c))


@pytest.mark.parametrize("diagram,rank,d", [("A", 3, 2), ("D", 4, 2), ("A", 3, 3)])
def test_colors_verdict_follows_each_fan(diagram, rank, d, monkeypatch):
    """With one object moved to the next color, colors_ok is False exactly
    when some face's fan then misses a color."""
    oc = load_context(diagram, rank, d).oc
    color = oc.color
    verdicts = set()
    for moved in oc.objects():
        monkeypatch.setattr(oc, "color", lambda x: color(x) % d + 1 if x == moved else color(x))
        c = TiltingContext(oc)
        want = all({oc.color(x) for x in fan_of(c, c.objs_of(mask))} == set(range(1, d + 1))
                   for mask in face_table(c).masks())
        assert facet_stats(build_complex(TiltingContext(oc)))["colors_ok"] is want
        verdicts.add(want)
    assert verdicts == {False, True}


def _census_operation(diagram, rank, d):
    """The library path of demos/complex_census.py on one configuration."""
    c = load_context(diagram, rank, d)
    facets = enumerate_tilting(c)
    assert verify_equivalence(c)["ok"]
    assert mutation_graph_checks(c)["connected"]
    full = build_complex(c)
    build_complex(c, positive_only=True)
    assert facet_stats(full)["colors_ok"]
    assert f_vector(full)[-1] == len(facets) == fomin_reading_count(c.oc.cat.q, d)
    assert len(to_json(full)["facets"]) == len(facets)


def test_census_operation_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        _census_operation("D", 4, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_json_export():
    c = ctx("A", 2, 2)
    cpx = build_complex(c)
    data = to_json(cpx)
    assert data["schema"] == "cluster-complex"
    assert data["schema_version"] == 1
    assert data["diagram"] == "A" and data["rank"] == 2 and data["d"] == 2
    assert data["f_vector"] == [1, 8, 12]
    assert len(data["vertices"]) == 8 and len(data["facets"]) == 12
    rec = next(v for v in data["vertices"] if v["root"] == [1, 0] and v["shift"] == 1)
    assert rec["label"] == {"root": [1, 0], "color": 2, "sign": "positive"}
    # serializes deterministically
    assert json.dumps(data, sort_keys=True) == json.dumps(to_json(build_complex(c)),
                                                          sort_keys=True)


def test_dot_export():
    cpx = build_complex(ctx("A", 2, 1))
    dot = to_dot(cpx)
    assert dot.startswith("graph complex {")
    assert dot.count(" -- ") == 5
    assert dot.count("label=") == 5


def test_f_vector_text():
    assert f_vector_text(build_complex(ctx("A", 2, 2))) == "1 8 12\n"
