import random
import re
from itertools import combinations

import numpy as np
import pytest

from dcluster.orbit import OrbitCategory
from dcluster.quiver import coxeter_data, dynkin_edges, fomin_reading_count, parse_quiver
from dcluster.reps import ModuleCategory
from dcluster.tilting import (TiltingContext, _bits, _closure, _nonzero_masks,
                              complete_mask, complete_to_tilting, enumerate_tilting,
                              facet_masks, is_maximal_rigid, is_rigid, is_tilting,
                              maximal_rigid_sets, verify_equivalence)

_cache = {}


def ctx(diagram, rank, d, p=101):
    key = (diagram, rank, d, p)
    if key not in _cache:
        q = parse_quiver(diagram, rank)
        _cache[key] = TiltingContext(OrbitCategory(ModuleCategory(q, p=p), d))
    return _cache[key]


FACETS = [
    ("A", 1, 1, 2), ("A", 1, 2, 3), ("A", 1, 3, 4),
    ("A", 2, 1, 5), ("A", 2, 2, 12), ("A", 2, 3, 22),
    ("A", 3, 1, 14), ("A", 3, 2, 55), ("A", 3, 3, 140),
    ("D", 4, 1, 50), ("D", 4, 2, 336), ("D", 4, 3, 1210),
]


@pytest.mark.parametrize("diagram,rank,d,count", FACETS)
def test_tilting_counts_match_product_formula(diagram, rank, d, count):
    c = ctx(diagram, rank, d)
    tiltings = enumerate_tilting(c)
    assert len(tiltings) == count
    q = parse_quiver(diagram, rank)
    assert fomin_reading_count(q, d) == count
    assert len(set(tiltings)) == count
    for t in tiltings:
        assert len(t) == rank


@pytest.mark.parametrize("diagram,rank,d", [
    ("A", 2, 1), ("A", 2, 2), ("A", 2, 3),
    ("A", 3, 1), ("A", 3, 2), ("A", 3, 3),
    ("D", 4, 1), ("D", 4, 2), ("D", 4, 3),
])
def test_three_rigidity_notions_agree(diagram, rank, d):
    report = verify_equivalence(ctx(diagram, rank, d))
    assert report["ok"], report


def test_a1_facets_are_singletons():
    for d in (1, 2, 3):
        c = ctx("A", 1, d)
        cliques = maximal_rigid_sets(c)
        assert len(cliques) == d + 1
        assert all(bin(m).count("1") == 1 for m in cliques)


def test_frozen_rigid_pair_a2_d2():
    # the pair {(1,0) at shift 0, (0,1) at shift 1} is rigid and tilting
    c = ctx("A", 2, 2)
    pair = [((1, 0), 0), ((0, 1), 1)]
    assert c.oc.ext_dim(pair[0], pair[1], 1) == 0
    assert c.oc.ext_dim(pair[1], pair[0], 1) == 0
    assert is_rigid(c, pair) and is_maximal_rigid(c, pair) and is_tilting(c, pair)
    assert len(pair) == c.n
    assert tuple(sorted(pair, key=c.index.get)) in enumerate_tilting(c)


def test_frozen_singleton_classification_a2_d2():
    c = ctx("A", 2, 2)
    single = [((1, 0), 0)]
    assert is_rigid(c, single)
    assert not is_maximal_rigid(c, single) and not is_tilting(c, single)
    assert len(single) < c.n


def test_greedy_completion_a2_d2():
    # ((1,1),0) is the first canonical object compatible with ((1,0),0); the
    # wide-window orbit sums confirm all intermediate Ext groups vanish.
    c = ctx("A", 2, 2)
    done = complete_to_tilting(c, [((1, 0), 0)])
    assert done == (((1, 0), 0), ((1, 1), 0))
    for k in (1, 2):
        assert c.oc.hom_dim_wide(((1, 0), 0), ((1, 1), k)) == 0
        assert c.oc.hom_dim_wide(((1, 1), 0), ((1, 0), k)) == 0
    assert is_tilting(c, done)


def test_completion_from_every_singleton():
    for diagram, rank, d in [("A", 2, 1), ("A", 2, 2), ("A", 3, 1), ("D", 4, 1)]:
        c = ctx(diagram, rank, d)
        for x in c.objects:
            t = complete_to_tilting(c, [x])
            assert x in t
            assert len(t) == rank
            assert is_tilting(c, t)


def _compatible(c):
    """compatible[i][j]: Ext^k(X_i, X_j) = Hom(X_i, X_j[k]) vanishes for
    1 <= k <= d, read cell by cell from the Hom table at the column of X_j[k]."""
    hom, shifts = c.oc.hom_table, c.oc.shifts
    m = len(c.objects)
    return [[not any(hom[i][shifts[k][j]] for k in range(1, c.oc.d + 1))
             for j in range(m)] for i in range(m)]


def test_rigidity_and_common_neighbors_by_definition():
    c = ctx("A", 3, 2)
    compatible = _compatible(c)
    m = len(c.objects)
    for size in (0, 1, 2, 3):
        for sub in combinations(range(m), size):
            rigid = all(compatible[a][b] for a in sub for b in sub)
            assert is_rigid(c, [c.objects[i] for i in sub]) is rigid
            common = sum(1 << j for j in range(m)
                         if j not in sub and all(compatible[i][j] for i in sub))
            assert _closure(c, sum(1 << i for i in sub)) == (rigid, common)
    # a repeated object is rejected even though it is compatible with itself
    x = c.objects[0]
    assert is_rigid(c, [x]) and not is_rigid(c, [x, x])


def test_completion_rejects_non_rigid():
    c = ctx("A", 2, 1)
    bad = [((1, 0), 0), ((0, 1), 0)]
    assert not is_rigid(c, bad)
    with pytest.raises(ValueError):
        complete_to_tilting(c, bad)


@pytest.mark.parametrize("diagram,rank,d", [("A", 3, 2), ("D", 4, 1)])
def test_mask_of_rejects_a_repeat_and_the_predicates_still_answer(diagram, rank, d):
    """mask_of is the one object-to-mask edge, and a repeated summand (also
    one given by its image under F) raises there; the predicates test
    rigidity first, so they still answer False or raise their own error."""
    c = ctx(diagram, rank, d)
    oc = c.oc
    for facet in enumerate_tilting(c)[:5]:
        x, y = facet[0], facet[-1]
        assert c.mask_of(facet) == sum(1 << i for i in c.indices(facet))
        assert c.mask_of([oc.obj_F(y), x]) == (1 << c.index[x]) | (1 << c.index[y])
        for repeated, twice in (([x, y, x], x), ([x, oc.obj_F(x)], x),
                                (list(facet) + [y], y)):
            with pytest.raises(ValueError, match=re.escape("summand %r is repeated" % (twice,))):
                c.mask_of(repeated)
            assert is_rigid(c, repeated) is False
            assert is_tilting(c, repeated) is False
            assert is_maximal_rigid(c, repeated) is False
            with pytest.raises(ValueError, match="starting set is not rigid"):
                complete_to_tilting(c, repeated)


def test_greedy_completion_that_leaves_rigidity_raises(monkeypatch):
    """The mask-level completion checks its result: a candidate that is not
    compatible with the set (a broken common-neighbour step) is caught."""
    from dcluster import tilting

    c = ctx("A", 3, 2)
    adj = c.adjacency()
    y = next(j for j in range(1, len(c.objects)) if not (adj[0] >> j) & 1)
    assert tilting.complete_mask(c, 1) == c.mask_of(complete_to_tilting(c, [c.objects[0]]))
    closure = tilting._closure
    steps = []
    # the first call, which starts the completion, offers y as a common neighbour
    monkeypatch.setattr(tilting, "_closure", lambda c, mask: (
        closure(c, mask) if steps else steps.append(1) or (True, 1 << y)))
    with pytest.raises(RuntimeError, match="greedy completion failed to reach a tilting object"):
        tilting.complete_mask(c, 1)
    assert steps == [1]


def test_is_tilting_makes_one_closure_pass(monkeypatch):
    """Rigidity and the closure condition come from one _closure call, for
    tilting, almost complete, non-rigid and repeated sets alike."""
    from dcluster import tilting

    c = ctx("A", 3, 2)
    facet = enumerate_tilting(c)[0]
    adj = c.adjacency()
    y = next(j for j in range(1, len(c.objects)) if not (adj[0] >> j) & 1)
    calls = []
    closure = tilting._closure
    monkeypatch.setattr(tilting, "_closure", lambda c, mask: calls.append(mask)
                        or closure(c, mask))
    for objs, want in ((facet, True), (facet[1:], False),
                       ((c.objects[0], c.objects[y]), False), (facet + facet[:1], False)):
        calls.clear()
        assert is_tilting(c, objs) is want
        assert len(calls) == 1


def test_every_tilting_is_maximal_and_closed():
    c = ctx("A", 3, 2)
    for t in enumerate_tilting(c)[::7]:
        assert is_maximal_rigid(c, t)
        assert is_tilting(c, t)
        for i in range(len(t)):
            sub = t[:i] + t[i + 1:]
            assert is_rigid(c, sub)
            assert not is_maximal_rigid(c, sub) and not is_tilting(c, sub)
            assert len(sub) < c.n


def test_counts_stable_across_primes():
    a = enumerate_tilting(ctx("A", 2, 2, p=101))
    b = enumerate_tilting(ctx("A", 2, 2, p=2))
    assert a == b
    assert len(enumerate_tilting(ctx("A", 3, 1, p=2))) == 14


def _fresh(diagram, rank, d):
    return TiltingContext(OrbitCategory(ModuleCategory(parse_quiver(diagram, rank)), d))


def _row_cell(c, i, j, k):
    """The Hom-table cell that adjacency reads for Ext^k(X_i, X_j) in row i:
    Hom(X_i[-k], X_j)."""
    return c.oc.shifts[k].index(i), j


def test_adjacency_names_a_non_rigid_object():
    c = _fresh("A", 3, 2)
    c.oc.hom_table[5][c.oc.shifts[1][5]] = 1    # a self-extension in degree 1
    with pytest.raises(RuntimeError, match=re.escape(
            "indecomposable %r is not rigid" % (c.objects[5],))):
        c.adjacency()


def test_adjacency_names_an_asymmetric_pair():
    c = _fresh("A", 3, 2)
    hom, shifts = c.oc.hom_table, c.oc.shifts
    compatible = _compatible(c)
    m = len(c.objects)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)
             if compatible[i][j] and compatible[j][i]]
    i, j = pairs[len(pairs) // 2]
    a, b = _row_cell(c, i, j, 2)
    hom[a][b] += 1   # Ext^2(X_i, X_j), not its dual
    with pytest.raises(RuntimeError, match=re.escape(
            "compatibility is not symmetric for %r, %r" % (c.objects[i], c.objects[j]))):
        c.adjacency()


def test_adjacency_reports_the_first_defect_in_row_order():
    c = _fresh("A", 3, 2)
    hom, shifts = c.oc.hom_table, c.oc.shifts
    compatible = _compatible(c)
    m = len(c.objects)
    i, j = next((i, j) for i in range(m) for j in range(i + 1, m)
                if i >= 2 and compatible[i][j] and compatible[j][i])
    a, b = _row_cell(c, i, j, 1)
    hom[a][b] += 1
    a, b = _row_cell(c, i + 1, i + 1, 2)
    hom[a][b] = 1           # a later row: the pair is named
    with pytest.raises(RuntimeError, match="not symmetric"):
        c.adjacency()
    a, b = _row_cell(c, i, i, 1)
    hom[a][b] = 1           # the same row: its own rigidity comes first
    c._hom_masks = None     # the masks memoize the table's first reading
    with pytest.raises(RuntimeError, match=re.escape(
            "indecomposable %r is not rigid" % (c.objects[i],))):
        c.adjacency()


# -- the bit kernels and the orders that reports depend on ------------------


def _seeded(diagram, rank, d, seed):
    """A fresh context; seed None keeps the default orientation."""
    arrows = None
    if seed is not None:
        rng = np.random.default_rng(seed)
        arrows = [(s, t) if rng.random() < 0.5 else (t, s)
                  for s, t in dynkin_edges(diagram, rank)]
    q = parse_quiver(diagram, rank, arrows)
    return TiltingContext(OrbitCategory(ModuleCategory(q), d))


def _reference_bits(mask):
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def test_bits_and_popcount_match_reference_loops():
    rng = random.Random(2024)
    masks = [0, 1, (1 << 64) - 1, 1 << 64, (1 << 200) | 5]
    masks += [rng.getrandbits(rng.randrange(65, 300)) for _ in range(200)]
    for mask in masks:
        want = _reference_bits(mask)
        assert list(_bits(mask)) == want


def test_nonzero_masks_match_the_bit_sum():
    rng = random.Random(11)
    for n in (1, 2, 5, 8, 9, 63, 64, 65, 200):
        for density in (0.0, 0.3, 1.0):
            table = [[rng.randrange(1, 7) if rng.random() < density else 0
                      for _ in range(n)] for _ in range(n)]
            rows = [sum(1 << j for j, v in enumerate(row) if v) for row in table]
            cols = [sum(1 << i for i, row in enumerate(table) if row[j]) for j in range(n)]
            got = _nonzero_masks(table)
            assert got == (rows, cols)
            assert all(type(m) is int for m in got[0] + got[1])
    assert _nonzero_masks([[1, 1, 0], [0, 0, 1], [0, 0, 0]]) == ([3, 4, 0], [1, 1, 2])


@pytest.mark.parametrize("diagram,rank,d,seed", [
    ("A", 3, 2, None), ("A", 3, 2, 6), ("D", 4, 2, None), ("D", 4, 2, 3)])
def test_facet_masks_come_in_bit_tuple_order(diagram, rank, d, seed):
    """Reports and to_json list facets in this order."""
    c = _seeded(diagram, rank, d, seed)
    masks = facet_masks(c)
    keys = [tuple(_bits(mask)) for mask in masks]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert [c.objs_of(mask) for mask in masks] == enumerate_tilting(c)


def _maximal_cliques_by_levels(adj, m):
    """Every clique, grown one larger index at a time, kept when no vertex
    outside it is adjacent to all of its members."""
    out = set()
    level = [0]
    while level:
        nxt = []
        for clique in level:
            members = _reference_bits(clique)
            common = [j for j in range(m) if not (clique >> j) & 1
                      and all((adj[i] >> j) & 1 for i in members)]
            if not common:
                out.add(clique)
            nxt.extend(clique | 1 << j for j in common if j >= clique.bit_length())
        level = nxt
    return out


def _pivoted_bron_kerbosch(adj, r, p, x, out):
    """The enumeration order of maximal_rigid_sets: the pivot is the first
    vertex of P | X, in index order, with the most neighbours in P."""
    if p == 0 and x == 0:
        out.append(r)
        return
    pivot = max(_reference_bits(p | x), key=lambda u: bin(p & adj[u]).count("1"))
    for v in _reference_bits(p & ~adj[pivot]):
        _pivoted_bron_kerbosch(adj, r | 1 << v, p & adj[v], x & adj[v], out)
        p &= ~(1 << v)
        x |= 1 << v


@pytest.mark.parametrize("diagram,rank,d,seed", [
    ("A", 3, 2, 6), ("A", 3, 2, 8), ("D", 4, 2, 3)])
def test_maximal_rigid_sets_by_brute_force_and_in_pivot_order(diagram, rank, d, seed):
    c = _seeded(diagram, rank, d, seed)
    adj = c.adjacency()
    m = len(c.objects)
    got = maximal_rigid_sets(c)
    assert set(got) == _maximal_cliques_by_levels(adj, m)
    want = []
    _pivoted_bron_kerbosch(adj, 0, (1 << m) - 1, 0, want)
    assert got == want


# the verify-grid configurations
GRID = [("A", 3, 2), ("A", 4, 2), ("D", 4, 2), ("A", 3, 3), ("D", 5, 1)]


def _greedy_by_rederiving(compatible, mask):
    """The greedy completion that re-derives the common neighbours of the
    whole grown set, from the compatibility table, after each step."""
    while True:
        members = _reference_bits(mask)
        common = [j for j in range(len(compatible)) if j not in members
                  and all(compatible[i][j] for i in members)]
        if not common:
            return mask
        mask |= 1 << common[0]


@pytest.mark.parametrize("seed", [None, 4, 9])
@pytest.mark.parametrize("diagram,rank,d", GRID)
def test_complete_mask_matches_rederiving_the_common_neighbours(diagram, rank, d, seed):
    """Narrowing the common neighbours by each added summand's row gives the
    same completion, from every singleton and every codimension-1 face."""
    from dcluster.mutation import fans

    c = _seeded(diagram, rank, d, seed)
    compatible = _compatible(c)
    starts = [1 << i for i in range(len(c.objects))] + [mask for mask, _ in fans(c)]
    for start in starts:
        got = complete_mask(c, start)
        assert got == _greedy_by_rederiving(compatible, start)
        assert got.bit_count() == rank


# -- the Hom table and its masks against the array formula ---------------------


def _hom_table_by_arrays(oc):
    """Reference: dim Hom_C(X_i, X_j) from the Euler form on int64 arrays, as
    first written: max(<a, b>, 0) at gap 0 and max(-<a, b>, 0) at gap 1, of
    X_i against X_j and against F X_j."""
    cat = oc.cat
    objs = oc.objects()
    mat = np.array(cat.roots, dtype=np.int64)
    euler = mat @ np.array(cat.euler, dtype=np.int64) @ mat.T
    src = np.array([cat.root_index[r] for r, _ in objs])[:, None]
    src_shift = np.array([s for _, s in objs])[:, None]
    out = 0
    for tgts in (objs, [oc.obj_F(y) for y in objs]):
        gap = np.array([s for _, s in tgts])[None, :] - src_shift
        pairing = euler[src, [cat.root_index[r] for r, _ in tgts]]
        sign = (gap == 0).astype(np.int64) - (gap == 1)
        out = out + np.maximum(sign * pairing, 0)
    return out


def _masks_by_arrays(rows):
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in rows]


@pytest.mark.parametrize("seed", [None, 4, 9])
@pytest.mark.parametrize("diagram,rank,d", GRID + [("E", 6, 1), ("A", 1, 3)])
def test_hom_table_and_masks_match_the_array_formula(diagram, rank, d, seed):
    """The Hom table built from blocks is the array formula's, and the four
    mask families (nonzero Hom out of and into each object, nonzero Ext^1,
    compatibility) are those the arrays give: Ext^k(X_i, X_j) read as
    Hom(X_i, X_j[k]) at the shifted columns."""
    c = _seeded(diagram, rank, d, seed)
    hom = _hom_table_by_arrays(c.oc)
    assert c.oc.hom_table == hom.tolist()
    assert c.hom_dims() is c.oc.hom_table
    shifts = c.oc.shifts
    ext = np.stack([hom[:, shifts[k]] for k in range(1, d + 1)], axis=1)
    compatible = ~ext.any(axis=1)
    np.fill_diagonal(compatible, False)
    assert c.hom_masks() == (_masks_by_arrays(hom), _masks_by_arrays(hom.T))
    assert c.ext1_rows() == _masks_by_arrays(hom[:, shifts[1]])
    assert c.adjacency() == _masks_by_arrays(compatible)


def test_building_the_hom_table_needs_little_more_than_the_table():
    """A3 d=100 (603 objects): the peak of traced memory while the table is
    built is at most twice the finished table."""
    import tracemalloc

    c = _fresh("A", 3, 100)
    assert len(c.objects) == 603
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = c.oc.hom_table
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 603
    assert peak - before <= 2 * (size - before)
