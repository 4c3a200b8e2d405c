"""Compatibility in the d-cluster category against Fomin-Reading's
compatibility on colored almost positive roots (tests/fr_oracle.py), pair
by pair through the labels of complex.gamma.

The Coxeter form of the rotation is read on every orientation; on the
bipartite orientation Fomin-Reading's own form is read too, and the two
forms must agree there."""

import random

import pytest

from dcluster import quiver
from dcluster.complex import gamma
from dcluster.verify import load_context
from fr_oracle import (bipartite_r, cartan, colored_roots, compatibility, coxeter_r,
                       positive_roots, rotation)

TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5), ("E", 6)]
ORIENTATIONS = ["default", "bipartite", "seed-1", "seed-2"]


def _arrows(diagram, rank, orientation):
    """The orientation's arrows: None for the default; on the bipartite
    orientation the vertices at even distance from vertex 0 are sources."""
    edges = quiver.dynkin_edges(diagram, rank)
    if orientation == "default":
        return None
    if orientation == "bipartite":
        parity = {0: 0}
        while len(parity) < rank:
            for u, v in edges:
                if (u in parity) != (v in parity):
                    w, known = (v, u) if u in parity else (u, v)
                    parity[w] = 1 - parity[known]
        return [[u, v] if parity[u] == 0 else [v, u] for u, v in edges]
    rng = random.Random("%s:%s%d" % (orientation, diagram, rank))
    return [[u, v] if rng.random() < 0.5 else [v, u] for u, v in edges]


def _sinks(q):
    return [i for i in range(q.rank) if all(s != i for s, _ in q.arrows)]


def _label(oc, x):
    """gamma's label of x as a colored root of the oracle: a negative simple
    is its negated unit vector."""
    root, color, sign = gamma(oc, x)
    return (tuple(-c for c in root) if sign == "negative-simple" else root), color


def _mismatches(diagram, rank, d, orientation, form):
    ctx = load_context(diagram, rank, d, orientation=_arrows(diagram, rank, orientation))
    oc = ctx.oc
    q = oc.cat.q
    labels = [_label(oc, x) for x in ctx.objects]
    roots = positive_roots(cartan(rank, q.arrows))
    assert sorted(labels) == sorted(colored_roots(roots, d))
    if form == "bipartite":
        r = bipartite_r(rank, q.arrows, _sinks(q))
    else:
        r = coxeter_r(quiver.coxeter_matrix(q), oc.cat.proj_root)
    want = compatibility(labels, rotation(r, d))
    adj = ctx.adjacency()
    return [(oc.obj_name(x), oc.obj_name(y))
            for a, x in enumerate(ctx.objects) for b, y in enumerate(ctx.objects)
            if a < b and bool(adj[a] >> b & 1) != want[a][b]]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("diagram,rank", TYPES)
def test_compatibility_is_fomin_reading_by_coxeter_form(diagram, rank, d, orientation):
    assert _mismatches(diagram, rank, d, orientation, "coxeter") == []


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("diagram,rank", TYPES)
def test_compatibility_is_fomin_reading_by_bipartite_form(diagram, rank, d):
    assert _mismatches(diagram, rank, d, "bipartite", "bipartite") == []


@pytest.mark.parametrize("diagram,rank", TYPES)
def test_coxeter_form_is_the_bipartite_form(diagram, rank):
    """On the bipartite orientation R = tau_- tau_+ (I_+ the sinks) is the
    rotation that the Coxeter matrix gives, root by root."""
    q = quiver.parse_quiver(diagram, rank, _arrows(diagram, rank, "bipartite"))
    ctx = load_context(diagram, rank, 1, orientation=[list(a) for a in q.arrows])
    cox = coxeter_r(quiver.coxeter_matrix(q), ctx.oc.cat.proj_root)
    bip = bipartite_r(rank, q.arrows, _sinks(q))
    almost = [root for root, _ in colored_roots(positive_roots(cartan(rank, q.arrows)), 1)]
    assert [cox(root) for root in almost] == [bip(root) for root in almost]
    assert sorted(map(cox, almost)) == sorted(almost)
