import re

import numpy as np
import pytest

from dcluster import cli, linalg, orbit, quiver
from dcluster.orbit import CMorphism, OrbitCategory
from dcluster.quiver import parse_quiver
from dcluster.reps import ModuleCategory
from module_oracle import (ModuleOrbitCategory, ext_basis_coords, vmap_add, vmap_id,
                           vmap_scale, vmap_zero)

CASES = [
    ("A", 1, 1), ("A", 1, 2), ("A", 1, 3),
    ("A", 2, 1), ("A", 2, 2), ("A", 2, 3),
    ("A", 3, 1), ("A", 3, 2),
    ("D", 4, 1), ("D", 4, 2),
]

_cache = {}


def oc(diagram, rank, d, p=101, kind=OrbitCategory):
    key = (diagram, rank, d, p, kind)
    if key not in _cache:
        q = parse_quiver(diagram, rank)
        _cache[key] = kind(ModuleCategory(q, p=p), d)
    return _cache[key]


def oracle(diagram, rank, d):
    """The orbit category with the module-path morphisms of module_oracle."""
    return oc(diagram, rank, d, kind=ModuleOrbitCategory)


@pytest.mark.parametrize("diagram,rank,d", CASES)
def test_fundamental_domain(diagram, rank, d):
    c = oc(diagram, rank, d)
    objs = c.objects()
    assert len(objs) == d * len(c.cat.roots) + rank
    assert len(set(objs)) == len(objs)
    for x in objs:
        assert c.is_canonical(x)
        assert c.normalize(x) == (x, 0)
        assert c.parse_name(c.obj_name(x)) == x


def test_object_names():
    c = oc("A", 2, 2)
    # roots are ordered (0,1), (1,0), (1,1)
    assert c.obj_name(((0, 1), 1)) == "root#0[1]"
    assert c.obj_name(((1, 1), 0)) == "root#2[0]"
    with pytest.raises(ValueError):
        c.parse_name("root#2")
    with pytest.raises(ValueError):
        c.parse_name("root#1[5]")  # not in the fundamental domain


def test_root_index_out_of_range_rejected():
    c = oc("A", 3, 2)
    # six roots: index -1 must not wrap around to root#5
    assert c.parse_name("root#5[0]") == (c.cat.roots[5], 0)
    for name in ("root#-1[0]", "root#6[0]", "root#99[0]"):
        with pytest.raises(ValueError, match="root index"):
            c.parse_name(name)
    # malformed names are refused with a message that quotes them
    for name in ("root#1[2[3]", "root#x[0]"):
        with pytest.raises(ValueError, match="bad object name " + re.escape(repr(name))):
            c.parse_name(name)


@pytest.mark.parametrize("diagram,rank,d", CASES)
def test_normalize_recovers_orbit_power(diagram, rank, d):
    c = oc(diagram, rank, d)
    for x in c.objects():
        up, down = x, x
        for e in range(1, 4):
            up = c.obj_F(up)
            down = c.obj_F_inv(down)
            assert c.normalize(up) == (x, e)
            assert c.normalize(down) == (x, -e)
            assert c.obj_F_inv(up) == (up[0], up[1]) or True
        assert c.obj_F(c.obj_F_inv(x)) == x
        assert c.obj_F_inv(c.obj_F(x)) == x


def test_normalize_frozen_example():
    # A_2 with the arrow 0 -> 1, d = 2: the projective at vertex 1 placed in
    # shift 3 normalizes to the projective-injective (1,1) at shift 0.
    c = oc("A", 2, 2)
    p1 = c.cat.proj_root[1]
    assert p1 == (0, 1)
    assert c.normalize((p1, 3)) == (((1, 1), 0), 1)


def test_degree_and_color():
    c = oc("A", 2, 3)
    assert c.degree(((1, 0), 2)) == 2
    assert c.color(((1, 0), 2)) == 3
    p = c.cat.proj_root[0]
    assert c.degree((p, 3)) == 3
    assert c.color((p, 3)) == 1
    # degree is an orbit invariant
    assert c.degree(c.obj_F(((1, 0), 2))) == 2


@pytest.mark.parametrize("diagram,rank,d", CASES)
def test_two_slots_suffice(diagram, rank, d):
    c = oc(diagram, rank, d)
    objs = c.objects()
    for x in objs:
        for y in objs:
            assert c.hom_dim(x, y) == c.hom_dim_wide(x, y)


@pytest.mark.parametrize("diagram,rank,d", CASES)
def test_calabi_yau_duality(diagram, rank, d):
    c = oc(diagram, rank, d)
    objs = c.objects()
    for x in objs:
        for y in objs:
            for i in range(d + 2):
                assert c.ext_dim(x, y, i) == c.ext_dim(y, x, d + 1 - i)


@pytest.mark.parametrize("diagram,rank,d", CASES)
def test_hom_invariant_under_translation(diagram, rank, d):
    c = oc(diagram, rank, d)
    objs = c.objects()
    for x in objs[::3]:
        for y in objs[::2]:
            n = c.hom_dim(x, y)
            assert c.hom_dim(c.obj_F(x), c.obj_F(y)) == n
            assert c.hom_dim((x[0], x[1] + 1), (y[0], y[1] + 1)) == n


@pytest.mark.parametrize("diagram,rank,d", [("A", 2, 1), ("A", 2, 2), ("A", 3, 2), ("D", 4, 1)])
def test_hom_basis_faithful(diagram, rank, d):
    c = oc(diagram, rank, d)
    objs = c.objects()
    for x in objs:
        for y in objs:
            basis = c.hom_basis(x, y)
            n = c.hom_dim(x, y)
            assert len(basis) == n
            if n == 0:
                continue
            # the k-th basis vector has the k-th unit vector as coordinates
            coords = np.stack([c.morph_coords(f) for f in basis], axis=1)
            assert np.array_equal(coords, np.eye(n, dtype=np.int64))
            for f in basis:
                assert not c.is_zero(f)


def _sample_composable(c, max_chains=40):
    objs = c.objects()
    chains = []
    for x in objs:
        for y in objs:
            if c.hom_dim(x, y) == 0:
                continue
            for z in objs:
                if c.hom_dim(y, z) == 0:
                    continue
                chains.append((x, y, z))
    return chains[::max(1, len(chains) // max_chains)]


@pytest.mark.parametrize("diagram,rank,d", [("A", 2, 1), ("A", 2, 2), ("A", 3, 1), ("D", 4, 2)])
def test_identity_laws(diagram, rank, d):
    _identity_laws(oc(diagram, rank, d))


def _identity_laws(c):
    objs = c.objects()
    for x in objs:
        ident = c.identity(x)
        assert not c.is_zero(ident)
        for y in objs:
            for f in c.hom_basis(x, y):
                lhs = c.compose(c.identity(y), f)
                rhs = c.compose(f, ident)
                ref = c.morph_coords(f)
                assert np.array_equal(c.morph_coords(lhs), ref)
                assert np.array_equal(c.morph_coords(rhs), ref)


@pytest.mark.parametrize("diagram,rank,d", [("A", 2, 1), ("A", 2, 2), ("A", 3, 1), ("A", 3, 2), ("D", 4, 1)])
def test_composition_bilinear_and_associative(diagram, rank, d):
    c = oc(diagram, rank, d)
    p = c.cat.p
    for x, y, z in _sample_composable(c):
        fb = c.hom_basis(x, y)
        gb = c.hom_basis(y, z)
        f, g = fb[0], gb[-1]
        # bilinearity against addition of basis elements
        sf = c.add(f, c.scale(3, fb[-1]))
        lhs = c.morph_coords(c.compose(g, sf))
        rhs = (c.morph_coords(c.compose(g, f))
               + 3 * c.morph_coords(c.compose(g, fb[-1]))) % p
        assert np.array_equal(lhs, rhs % p)
        # associativity along a further leg
        for w in c.objects():
            hb = c.hom_basis(z, w)
            if not hb:
                continue
            h = hb[0]
            a = c.compose(h, c.compose(g, f))
            b = c.compose(c.compose(h, g), f)
            assert np.array_equal(c.morph_coords(a), c.morph_coords(b))
            break


# -- functoriality of the translation on pieces -------------------------------


def _piece_coords_or_zero(c, src, tgt, piece):
    gap = tgt[1] - src[1]
    if gap not in (0, 1):
        assert c.piece_is_zero(src, tgt, piece)
        return None
    return c.piece_coords(src, tgt, piece)


@pytest.mark.parametrize("diagram,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_push_identity_and_hom_functorial(diagram, rank):
    c = oracle(diagram, rank, 1)
    cat = c.cat
    for r in cat.roots:
        x = (r, 0)
        fx = c.obj_F(x)
        pushed = c.push_piece(x, x, ("H", vmap_id(cat.rep[r])))
        ref = c.piece_coords(fx, fx, ("H", vmap_id(cat.rep[fx[0]])))
        assert np.array_equal(c.piece_coords(fx, fx, pushed), ref)


@pytest.mark.parametrize("diagram,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_push_respects_module_composition(diagram, rank):
    c = oracle(diagram, rank, 1)
    cat = c.cat
    roots = cat.roots
    for a in roots:
        for b in roots:
            if cat.hom_dim(a, b) == 0:
                continue
            for z in roots:
                if cat.hom_dim(b, z) == 0:
                    continue
                x, y, w = (a, 0), (b, 0), (z, 0)
                fx, fy, fw = c.obj_F(x), c.obj_F(y), c.obj_F(w)
                for fv in cat.hom_basis(a, b)[:2]:
                    for gv in cat.hom_basis(b, z)[:2]:
                        comp = c.compose_piece(x, y, ("H", fv), y, w, ("H", gv))
                        lhs = c.push_piece(x, w, comp)
                        pf = c.push_piece(x, y, ("H", fv))
                        pg = c.push_piece(y, w, ("H", gv))
                        rhs = c.compose_piece(fx, fy, pf, fy, fw, pg)
                        l = _piece_coords_or_zero(c, fx, fw, lhs)
                        r = _piece_coords_or_zero(c, fx, fw, rhs)
                        if l is not None and r is not None:
                            assert np.array_equal(l, r)


@pytest.mark.parametrize("diagram,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_push_respects_extension_pullback(diagram, rank):
    # F(u . f) = F(u) . F(f) for a module map f: X -> A and a class
    # u in Ext^1(A, B), and similarly for postcomposition with g: B -> C.
    c = oracle(diagram, rank, 1)
    cat = c.cat
    roots = cat.roots
    seen = 0
    for a in roots:
        for b in roots:
            if cat.ext_dim(a, b) == 0:
                continue
            ya, yb1 = (a, 0), (b, 1)
            for u in ext_basis_coords(cat, a, b)[:2]:
                upiece = ("E", u)
                for x in roots:
                    if cat.hom_dim(x, a) == 0 or x == a:
                        continue
                    xx = (x, 0)
                    for fv in cat.hom_basis(x, a)[:2]:
                        comp = c.compose_piece(xx, ya, ("H", fv), ya, yb1, upiece)
                        lhs = c.push_piece(xx, yb1, comp)
                        pf = c.push_piece(xx, ya, ("H", fv))
                        pu = c.push_piece(ya, yb1, upiece)
                        rhs = c.compose_piece(c.obj_F(xx), c.obj_F(ya), pf,
                                              c.obj_F(ya), c.obj_F(yb1), pu)
                        l = _piece_coords_or_zero(c, c.obj_F(xx), c.obj_F(yb1), lhs)
                        r = _piece_coords_or_zero(c, c.obj_F(xx), c.obj_F(yb1), rhs)
                        if l is not None and r is not None:
                            assert np.array_equal(l, r)
                            seen += 1
                for z in roots:
                    if cat.hom_dim(b, z) == 0 or z == b:
                        continue
                    zz1 = (z, 1)
                    for gv in cat.hom_basis(b, z)[:2]:
                        comp = c.compose_piece(ya, yb1, upiece, yb1, zz1, ("H", gv))
                        lhs = c.push_piece(ya, zz1, comp)
                        pu = c.push_piece(ya, yb1, upiece)
                        pg = c.push_piece(yb1, zz1, ("H", gv))
                        rhs = c.compose_piece(c.obj_F(ya), c.obj_F(yb1), pu,
                                              c.obj_F(yb1), c.obj_F(zz1), pg)
                        l = _piece_coords_or_zero(c, c.obj_F(ya), c.obj_F(zz1), lhs)
                        r = _piece_coords_or_zero(c, c.obj_F(ya), c.obj_F(zz1), rhs)
                        if l is not None and r is not None:
                            assert np.array_equal(l, r)
                            seen += 1
    assert seen > 0


# -- downward shift ------------------------------------------------------------
# the same laws on the module-path oracle and on the mesh category


def _shift_down_is_an_equivalence(c):
    objs = c.objects()
    for x in objs:
        for y in objs:
            basis = c.hom_basis(x, y)
            if not basis:
                continue
            shifted = [c.shift_down(f) for f in basis]
            x2 = c.normalize((x[0], x[1] - 1))[0]
            y2 = c.normalize((y[0], y[1] - 1))[0]
            assert c.hom_dim(x2, y2) == len(basis)
            for g in shifted:
                assert (g.src, g.tgt) == (x2, y2)
            coords = np.stack([c.morph_coords(g) for g in shifted], axis=1)
            assert linalg.rank_mod(coords, c.cat.p) == len(basis)


def _shift_down_natural(c):
    for x, y, z in _sample_composable(c, max_chains=25):
        f = c.hom_basis(x, y)[0]
        g = c.hom_basis(y, z)[-1]
        lhs = c.shift_down(c.compose(g, f))
        rhs = c.compose(c.shift_down(g), c.shift_down(f))
        assert np.array_equal(c.morph_coords(lhs), c.morph_coords(rhs))


def _shift_down_identity(c):
    for x in c.objects():
        s = c.shift_down(c.identity(x))
        x2 = c.normalize((x[0], x[1] - 1))[0]
        assert np.array_equal(c.morph_coords(s), c.morph_coords(c.identity(x2)))


SHIFT_CASES = [("A", 2, 1), ("A", 2, 2), ("A", 3, 1), ("A", 3, 2), ("D", 4, 1)]
NATURAL_CASES = [("A", 2, 1), ("A", 2, 2), ("A", 3, 2), ("D", 4, 1)]


@pytest.mark.parametrize("diagram,rank,d", SHIFT_CASES)
def test_shift_down_is_an_equivalence(diagram, rank, d):
    _shift_down_is_an_equivalence(oracle(diagram, rank, d))


@pytest.mark.parametrize("diagram,rank,d", NATURAL_CASES)
def test_shift_down_natural(diagram, rank, d):
    _shift_down_natural(oracle(diagram, rank, d))


def test_shift_down_identity():
    _shift_down_identity(oracle("A", 3, 2))


@pytest.mark.parametrize("diagram,rank,d", SHIFT_CASES + [("D", 4, 3), ("E", 6, 2)])
def test_mesh_shift_down_is_an_equivalence(diagram, rank, d):
    _shift_down_is_an_equivalence(oc(diagram, rank, d))


@pytest.mark.parametrize("diagram,rank,d", NATURAL_CASES + [("D", 4, 3), ("E", 6, 2)])
def test_mesh_shift_down_natural(diagram, rank, d):
    _shift_down_natural(oc(diagram, rank, d))


@pytest.mark.parametrize("diagram,rank,d", [("A", 3, 2), ("D", 4, 3)])
def test_mesh_shift_down_identity(diagram, rank, d):
    _shift_down_identity(oc(diagram, rank, d))


# -- Ext classes in the downward convention ------------------------------------


@pytest.mark.parametrize("diagram,rank,d", [("A", 1, 2), ("A", 2, 2), ("A", 3, 2), ("A", 2, 3)])
def test_ext_basis_sizes(diagram, rank, d):
    c = oc(diagram, rank, d)
    objs = c.objects()
    for x in objs[::2]:
        for y in objs[::3]:
            for k in range(d + 2):
                assert len(c.ext_basis(x, y, k)) == c.ext_dim(x, y, k)


def test_yoneda_square_of_simple_selfextension():
    # In the orbit category of A_1 with d = 2 the simple S has
    # Ext^k(S, S) of dimension 1 exactly for k = 0 and k = 3.
    c = oc("A", 1, 2)
    s = ((1,), 0)
    dims = [c.ext_dim(s, s, k) for k in range(4)]
    assert dims == [1, 0, 0, 1]
    # the degree-3 class composes with itself into degree 6 = 2(d+1),
    # again a one-dimensional space; the product of basis classes is nonzero
    u = c.ext_basis(s, s, 3)[0]
    uu = c.yoneda(u, u, 3)
    assert not c.is_zero(uu)


# -- the oracle's F and projective lift as cached linear maps ----------------


def _random_orientation(diagram, rank, seed):
    rng = np.random.default_rng(seed)
    return [(s, t) if rng.random() < 0.5 else (t, s)
            for s, t in quiver.dynkin_edges(diagram, rank)]


def _same_piece(x, y):
    if x is None or y is None:
        return x is None and y is None
    if x[0] != y[0]:
        return False
    if x[0] == "E":
        return x[1].dtype == y[1].dtype and np.array_equal(x[1], y[1])
    return len(x[1]) == len(y[1]) and all(
        u.dtype == v.dtype and u.shape == v.shape and np.array_equal(u, v)
        for u, v in zip(x[1], y[1]))


ORACLE_QUIVERS = [(dg, rk, seed) for dg, rk in (("A", 4), ("D", 4), ("E", 6))
                  for seed in (None, 7)]


@pytest.mark.parametrize("diagram,rank,seed", ORACLE_QUIVERS)
def test_cached_maps_equal_direct_lifts(diagram, rank, seed):
    arrows = None if seed is None else _random_orientation(diagram, rank, seed)
    c = ModuleOrbitCategory(ModuleCategory(parse_quiver(diagram, rank, arrows)), 1)
    cat = c.cat
    p = cat.p
    rng = np.random.default_rng(0 if seed is None else seed)
    rejected = 0
    for a in cat.roots:
        for b in cat.roots:
            h_src, h_tgt, e_tgt = (a, 0), (b, 0), (b, 1)
            basis = cat.hom_basis(a, b)
            f = vmap_zero(cat.rep[a], cat.rep[b])
            for g in basis:
                f = vmap_add(p, f, vmap_scale(p, int(rng.integers(p)), g))
            assert _same_piece(c.push_piece(h_src, h_tgt, ("H", f)),
                               c._push_direct(h_src, h_tgt, ("H", f)))
            assert np.array_equal(c._lift_blocks(a, b, f), c._lift_direct(a, b, f))
            width = sum(cat.rep[b].dims[x] for x in cat.pres[a].p1.verts)
            u = rng.integers(p, size=width).astype(np.int64)
            assert _same_piece(c.push_piece(h_src, e_tgt, ("E", u)),
                               c._push_direct(h_src, e_tgt, ("E", u)))
            # a vertexwise map that is not a morphism is refused by both caches
            bad = [rng.integers(p, size=m.shape).astype(np.int64) for m in f]
            if c.hom_coords(a, b, bad) is None:
                rejected += 1
                with pytest.raises(RuntimeError):
                    c.push_piece(h_src, h_tgt, ("H", bad))
                with pytest.raises(RuntimeError, match="projective lift failed"):
                    c._lift_blocks(a, b, bad)
    assert rejected > len(cat.roots)


# -- the Ext^k dimension table -------------------------------------------------


TABLE_CASES = [(dg, rk, d, seed)
               for dg, rk, d in (("A", 3, 2), ("A", 4, 2), ("D", 4, 2), ("A", 3, 3),
                                 ("D", 5, 1), ("E", 6, 1))
               for seed in (None, 5)]


@pytest.mark.parametrize("diagram,rank,d,seed", TABLE_CASES)
def test_dimension_table_matches_wide_window(diagram, rank, d, seed):
    arrows = None if seed is None else _random_orientation(diagram, rank, seed)
    c = OrbitCategory(ModuleCategory(parse_quiver(diagram, rank, arrows)), d)
    # built on the first dimension query, not before
    assert "hom_table" not in vars(c) and "shifts" not in vars(c)
    objs = c.objects()
    # one row of Python ints per object
    assert type(c.hom_table) is list and len(c.hom_table) == len(objs)
    assert all(type(row) is list and len(row) == len(objs) for row in c.hom_table)
    assert all(type(v) is int for row in c.hom_table for v in row)
    dims = [[[c.ext_dim(x, y, k) for k in range(d + 2)] for y in objs] for x in objs]
    want = [[[c.hom_dim_wide(x, (y[0], y[1] + k)) for k in range(d + 2)]
             for y in objs] for x in objs]
    assert dims == want
    for i, x in enumerate(objs):
        for j, y in enumerate(objs):
            assert c.hom_dim(x, y) == want[i][j][0]
            # non-canonical arguments and k outside 0..d+1 are normalized first
            fx, gy = c.obj_F(x), c.obj_F_inv(y)
            assert c.hom_dim(fx, gy) == want[i][j][0]
            assert c.ext_dim(fx, y, 1) == want[i][j][1]
            for k in (-1, d + 2):
                got = c.ext_dim(x, y, k)
                assert type(got) is int
                assert got == c.hom_dim_wide(x, (y[0], y[1] + k))
                assert c.ext_dim(x, gy, k) == got


SHIFT_CASES = [(dg, rk, d, seed)
               for dg, rk, d in (("A", 3, 2), ("A", 4, 2), ("D", 4, 2), ("A", 3, 3),
                                 ("D", 5, 1), ("E", 6, 1), ("E", 6, 2), ("A", 1, 3))
               for seed in (None, 5)]


@pytest.mark.parametrize("diagram,rank,d,seed", SHIFT_CASES)
def test_shift_table_permutes_the_domain_and_its_d_th_power_is_tau(diagram, rank, d, seed):
    """shifts[k][j] is the index of X_j[k]: each row is a permutation of the
    fundamental domain, and since F = tau^{-1}[d] is the identity in C,
    shifts[d] is tau on objects (tau P_i = I_i[-1])."""
    arrows = None if seed is None else _random_orientation(diagram, rank, seed)
    c = OrbitCategory(ModuleCategory(parse_quiver(diagram, rank, arrows)), d)
    objs = c.objects()
    n = len(objs)
    assert len(c.shifts) == d + 2
    for k, row in enumerate(c.shifts):
        assert sorted(row) == list(range(n))
        assert row == [c.index[c.normalize((r, s + k))[0]] for r, s in objs]
    cat = c.cat
    for j, (root, s) in enumerate(objs):
        if root in c.proj_roots:
            tau = (cat.inj_root[c.proj_vertex[root]], s - 1)
        else:
            tau = (cat.tau_plus[root], s)
        assert c.shifts[d][j] == c.index[c.normalize(tau)[0]]


# -- the mesh category of ZQ ---------------------------------------------------


MESH_CASES = [(dg, rk, d, seed)
              for dg, rk, d in (("A", 3, 2), ("A", 4, 2), ("D", 4, 2), ("A", 3, 3),
                                ("D", 5, 1), ("D", 4, 3), ("E", 6, 1))
              for seed in (None, 5)]


def _oriented(diagram, rank, d, seed):
    arrows = None if seed is None else _random_orientation(diagram, rank, seed)
    return OrbitCategory(ModuleCategory(parse_quiver(diagram, rank, arrows)), d)


def _phi_relabels_like_F(c):
    """phi(vertex(x)) = vertex(F x), in and out of the fundamental domain."""
    for x in c.objects():
        for y in (x, c.obj_F(x), c.obj_F_inv(x), (x[0], x[1] - 1)):
            assert c.phi(c.vertex(y)) == c.vertex(c.obj_F(y)), y


def _knitted_dims_match_the_table(c):
    """dim Hom(x, y) + dim Hom(x, phi y) of a fresh knit is the table's dim
    Hom_C(X, Y) for every pair, and Hom(x, phi^2 y), the slot-2 target, is 0."""
    homs = [orbit.knit_hom_from(c.cat, i) for i in range(c.cat.q.rank)]
    table = c.hom_table
    objs = c.objects()
    for a, x in enumerate(objs):
        m, i = c.vertex(x)
        for b, y in enumerate(objs):
            ends = [c.vertex(y)]
            for _ in range(2):
                ends.append(c.phi(ends[-1]))
            got = [homs[i].dims.get((v[0] - m, v[1]), 0) for v in ends]
            assert got[0] + got[1] == table[a][b] and got[2] == 0, (x, y)


@pytest.mark.parametrize("diagram,rank,d,seed", MESH_CASES)
def test_phi_relabels_like_F(diagram, rank, d, seed):
    _phi_relabels_like_F(_oriented(diagram, rank, d, seed))


@pytest.mark.parametrize("diagram,rank,d,seed", MESH_CASES)
def test_knitted_dims_match_the_table(diagram, rank, d, seed):
    c = _oriented(diagram, rank, d, seed)
    _knitted_dims_match_the_table(c)
    # the knit is a morphism-layer cost: objects and dimensions never build it
    assert "_mesh" not in vars(c) and "_knitted" not in vars(c.cat)


def test_mesh_is_knitted_once_per_vertex_on_the_first_morphism_call(monkeypatch):
    knits = []
    knit = orbit.knit_hom_from
    monkeypatch.setattr(orbit, "knit_hom_from", lambda cat, i: knits.append(i) or knit(cat, i))
    c = _oriented("D", 4, 2, None)
    x, y = c.objects()[0], c.objects()[5]
    c.hom_table, c.shifts
    assert knits == []
    c.compose(c.identity(x), c.identity(x))
    c.hom_basis(x, y)
    assert knits == [0, 1, 2, 3]


def test_basis_paths_are_single_paths_of_arrows():
    c = _oriented("D", 4, 2, None)
    arrows = {((0, t), (0, s)) for s, t in c.cat.q.arrows} | \
        {((0, s), (1, t)) for s, t in c.cat.q.arrows}
    for x in c.objects():
        for y in c.objects():
            xv, yv = c.vertex(x), c.vertex(y)
            for v, size in zip((yv, c.phi(yv)), c.slot_dims(x, y)):
                paths = c.basis_paths(xv, v)
                assert len(paths) == size == len(set(paths))
                for path in paths:
                    assert path[0] == xv and path[-1] == v
                    for (m1, i1), (m2, i2) in zip(path, path[1:]):
                        assert ((0, i1), (m2 - m1, i2)) in arrows
                    # a basis path has its unit vector as coordinates
                    coords = c.path_map(xv, path)
                    assert coords.shape[1] == 1
                    k = paths.index(path)
                    assert np.array_equal(coords[:, 0], np.eye(size, dtype=np.int64)[k])


def _arrow_product(c, u, path):
    """Reference: the product of the knit's arrow maps along `path` on
    Hom(u, -), as int64 arrays."""
    hom = c._mesh[u[1]]
    rel = [(m - u[0], i) for m, i in path]
    mat = np.eye(hom.dims.get(rel[0], 0), dtype=np.int64)
    for w, z in zip(rel, rel[1:]):
        if (w, z) not in hom.maps:
            return np.zeros((hom.dims.get(rel[-1], 0), mat.shape[1]), dtype=np.int64)
        arrow = np.array(hom.maps[(w, z)], dtype=np.int64).reshape(hom.dims[z], hom.dims[w])
        mat = arrow @ mat % c.cat.p
    return mat


@pytest.mark.parametrize("diagram,rank,d,seed", [
    (dg, rk, d, seed) for dg, rk, d in (("A", 3, 2), ("A", 4, 2), ("D", 4, 2), ("A", 3, 3),
                                        ("D", 5, 1))
    for seed in (None, 5)])
def test_path_rows_are_the_arrow_products(diagram, rank, d, seed):
    """Every path map compose_tensor reads, the basis paths of Hom(y, z) and
    Hom(y, phi z) and their phi images on Hom(x, -), has the rows of the
    arrow maps' product; so has every memo entry, read from its key alone."""
    c = _oriented(diagram, rank, d, seed)
    objs = c.objects()
    paths = set()
    for y in objs:
        yv = c.vertex(y)
        for z in objs:
            zv = c.vertex(z)
            for v in (zv, c.phi(zv)):
                for path in c.basis_paths(yv, v):
                    paths |= {path, tuple(map(c.phi, path))}
    for x in objs:
        xv = c.vertex(x)
        for path in sorted(paths):
            rows = c.path_rows(xv, path)
            want = _arrow_product(c, xv, path)
            assert len(rows) == want.shape[0] and {len(r) for r in rows} <= {want.shape[1]}
            assert np.array_equal(np.array(rows, dtype=np.int64).reshape(want.shape), want)
            assert np.array_equal(c.path_map(xv, path), want)
    for (i, rel), rows in c._path_rows.items():
        want = _arrow_product(c, (0, i), rel)
        assert np.array_equal(np.array(rows, dtype=np.int64).reshape(want.shape), want)
    assert len(c._path_rows) < len(objs) * len(paths)


def test_nonzero_slot_two_composite_raises():
    # f: F(Y) -> Y and g: Y -> F^-1(Y), each the identity path of F(y) or y in
    # slot 1; F(g1) f1 is then the identity of F(y), a nonzero slot-2 term,
    # which the fundamental domain never produces
    c = _oriented("A", 3, 2, None)
    y = c.objects()[0]
    one = np.ones(1, dtype=np.int64)
    f = CMorphism(c.obj_F(y), y, {1: one})
    g = CMorphism(y, c.obj_F_inv(y), {1: one})
    with pytest.raises(RuntimeError, match="nonzero slot-2 piece in orbit composition"):
        c.compose(g, f)


def test_nonzero_slot_two_tensor_raises():
    # the same pair as a tensor over the bases of Hom(F(Y), Y) and Hom(Y, F^-1(Y)),
    # F(Y) and F^-1(Y) given the indices n and n + 1 after the fundamental
    # domain's n, once the mesh is knitted and checked on the domain; nothing
    # is memoized for the triple, so a second call composes and raises again
    c = _oriented("A", 3, 2, None)
    y = c.objects()[0]
    assert c._mesh
    n = len(c.vertices)
    c.vertices = c.vertices + [c.vertex(c.obj_F(y)), c.vertex(c.obj_F_inv(y))]
    for _ in range(2):
        with pytest.raises(RuntimeError, match="nonzero slot-2 piece in orbit composition"):
            c.compose_tensor(n, 0, n + 1)
        assert c._tensors == {}


# mutants of the mesh category; each must fail the named test's assertions


def _wrong_phi(monkeypatch):
    """phi followed by one more tau^{-1}."""
    relabel = OrbitCategory._relabellings.func

    def wrong(self):
        root_vertex, shift, unshift, phi = relabel(self)
        tau_minus = tuple((1, i) for i in range(len(shift)))
        return root_vertex, shift, unshift, orbit._then(phi, tau_minus)

    monkeypatch.setattr(OrbitCategory, "_relabellings", property(wrong))


def _drop_a_mesh_relation(monkeypatch):
    """The first nonempty mesh relation of each knit loses its first column."""
    mesh_map = orbit._mesh_map
    dropped = set()

    def drop(hom, tau_z, preds):
        rel = mesh_map(hom, tau_z, preds)
        if rel and rel[0] and id(hom) not in dropped:
            dropped.add(id(hom))
            return [row[1:] for row in rel]
        return rel

    monkeypatch.setattr(orbit, "_mesh_map", drop)


def _swap_a_path_basis(monkeypatch):
    """In each knit, the first Hom of dimension >= 2 swaps its first two paths."""
    knit = orbit.knit_hom_from

    def swapped(cat, i):
        hom = knit(cat, i)
        steps = next((s for s in hom.steps.values() if len(s) >= 2), None)
        if steps is not None:
            steps[0], steps[1] = steps[1], steps[0]
        return hom

    monkeypatch.setattr(orbit, "knit_hom_from", swapped)


def test_wrong_phi_fails_test_phi_relabels_like_F(monkeypatch):
    _wrong_phi(monkeypatch)
    c = _oriented("D", 4, 2, None)
    with pytest.raises(AssertionError):
        _phi_relabels_like_F(c)
    # and the runtime check on the first morphism call refuses it
    with pytest.raises(RuntimeError, match="but the dimension table gives"):
        c.hom_basis(c.objects()[0], c.objects()[0])


def test_dropped_mesh_relation_fails_test_knitted_dims_match_the_table(monkeypatch):
    _drop_a_mesh_relation(monkeypatch)
    c = _oriented("D", 4, 2, None)
    with pytest.raises(AssertionError):
        _knitted_dims_match_the_table(c)


def _first_table_mismatch(c, homs):
    """The first (X, Y), in row-major order, whose knitted dim Hom(x, y) +
    dim Hom(x, phi y) differs from the table: (X, Y, knitted, table)."""
    table = c.hom_table
    for x in c.objects():
        m, i = c.vertex(x)
        for b, y in enumerate(c.objects()):
            yv = c.vertex(y)
            got = sum(homs[i].dims.get((v[0] - m, v[1]), 0) for v in (yv, c.phi(yv)))
            want = table[c.index[x]][b]
            if got != want:
                return x, y, got, want
    return None


@pytest.mark.parametrize("diagram,rank,d,seed", [("D", 4, 2, None), ("A", 3, 2, 5)])
def test_a_changed_knitted_dim_fails_the_table_check(diagram, rank, d, seed, monkeypatch):
    """Each knitted dimension raised by one or dropped to 0, and a dimension
    added one level below and one above the knit: every such change shows in
    some pair, and the table check names the first one a row-major loop
    finds."""
    knit = orbit.knit_hom_from
    base = _oriented(diagram, rank, d, seed)
    homs = [knit(base.cat, i) for i in range(rank)]
    top = max(m for hom in homs for m, _ in hom.dims)
    changes = [(i, key, delta) for i, hom in enumerate(homs) for key, dim in hom.dims.items()
               for delta in (1, -dim)]
    changes += [(i, (m, j), 1) for i in range(rank) for j in range(rank) for m in (-1, top + 1)]
    for i, key, delta in changes:
        def changed(cat, k):
            hom = knit(cat, k)
            if k == i:
                hom.dims[key] = hom.dims.get(key, 0) + delta
            return hom

        monkeypatch.setattr(orbit, "knit_hom_from", changed)
        c = _oriented(diagram, rank, d, seed)
        first = _first_table_mismatch(c, [changed(c.cat, k) for k in range(rank)])
        assert first is not None, (i, key, delta)
        with pytest.raises(RuntimeError) as exc:
            c._mesh
        assert str(exc.value) == ("Hom(%r, %r) has %d basis morphisms, but the "
                                  "dimension table gives %d" % first)


def test_swapped_path_basis_fails_test_identity_laws(monkeypatch):
    _swap_a_path_basis(monkeypatch)
    c = _oriented("D", 4, 2, None)
    with pytest.raises(AssertionError):
        _identity_laws(c)


def test_mesh_disagreeing_with_the_table_exits_3(monkeypatch, capsys):
    # the dimension table is right and the mesh is wrong: the first morphism
    # call compares the two and the command exits 3 with one line
    _drop_a_mesh_relation(monkeypatch)
    argv = ["verify", "--check", "middle-rigid", "--diagram", "A", "--rank", "3", "--d", "2"]
    assert cli.run(argv) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"internal error \(A3 d=2 p=101\): Hom\(.*\) has \d+ basis "
                        r"morphisms, but the dimension table gives \d+\n", err)
