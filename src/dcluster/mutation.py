"""Complements, exchange fans and approximation triangles.

An almost complete tilting set (a facet minus one summand) extends back to
a tilting set in finitely many ways.  The extensions carry a canonical
cyclic order: each complement X has exactly one other complement Y with a
nonvanishing extension class in Ext^1(X, Y), and following these classes
walks through all complements once before returning to the start.  We call
the ordered cycle a *fan*.

Consecutive fan members are linked by a triangle whose middle term lies in
the additive hull of the fixed almost complete part.  The middle term is
never built as a cone here; instead its multiplicities are computed twice,
as the radical-quotient dimensions of Hom(T_j, X_i) (minimal right
approximation of X_i) and of Hom(X_{i+1}, T_j) (minimal left approximation
of X_{i+1}), and the two routes must agree.  The factorization property of
the approximation is checked by one rank comparison per summand over cached
structure constants: each composition Hom(a, m) x Hom(m, b) -> Hom(a, b) is
computed once, as a tensor in the coordinates of the orbit category's Hom
bases (paths of the mesh category of ZQ), which also give the tensor's
shape.  Each of these small rank problems depends only on (a, b) and on the
summands t with Hom(a, t) and Hom(t, b) nonzero (the others contribute no
columns), so it is solved once per context and reused by every add set and
fan that poses it again.  Its size, dim Hom(a, b), is read from the
dimension table, so a problem without such summands composes nothing.

The same tensors give the composites of connecting classes.  The shift is
an autoequivalence, so the shifted class delta_j[k] of the one-dimensional
Ext^1(X_j, X_{j+1}) is a nonzero multiple of the basis vector of
Hom(X_j[k], X_{j+1}[k+1]).  The composite of the basis vectors along
X_i -> X_{i+1}[1] -> ... -> X_{i+k}[k] is thus a nonzero scalar times the
shifted Yoneda product of delta_i, ..., delta_{i+k-1}, and is zero exactly
when that product is.  Composition, through these tensors, is the module's
only morphism operation.

The module also packages the fan-level laws this data obeys: the cyclic
Ext-dimension pattern with its nonvanishing composites of connecting
classes ("exchange team"), degree bounds and the two-piece degree profile,
disjointness of middle-term supports, one-directional Hom between summands,
and the mutation graph on facets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .orbit import Obj
from .tilting import TiltingContext, _bits, _compatible_with, _popcount, \
    enumerate_tilting, facet_masks, is_rigid, is_tilting


def _almost_mask(ctx: TiltingContext, almost: Sequence[Obj]) -> int:
    """Bitmask of the normalized objects; a repeated summand is rejected."""
    mask = 0
    for i in ctx.indices(almost):
        if (mask >> i) & 1:
            raise ValueError("summand %r is repeated" % (ctx.objects[i],))
        mask |= 1 << i
    return mask


def _complement_mask(ctx: TiltingContext, mask: int) -> int:
    """Bitmask of the indecomposables completing the set `mask` to a tilting set."""
    near = _compatible_with(ctx, mask)
    if mask & ~near:
        raise ValueError("almost complete part is not rigid")
    adj = ctx.adjacency()
    # the set plus X_i is rigid for every common neighbour i, and is tilting
    # exactly when no other common neighbour is compatible with X_i
    cand = near & ~mask
    comps = 0
    for i in _bits(cand):
        if cand & adj[i] == 0:
            comps |= 1 << i
    return comps


def _successor(ctx: TiltingContext, comps: int, i: int) -> int:
    """The unique other complement hit by a nonzero class in Ext^1(X_i, -)."""
    succ = ctx.ext1_row(i) & comps & ~(1 << i)
    if succ == 0 or succ & (succ - 1):
        raise RuntimeError("complement %r has %d Ext^1-successors, expected 1"
                           % (ctx.objects[i], _popcount(succ)))
    return succ.bit_length() - 1


def _fan_cycle(ctx: TiltingContext, comps: int,
               start: Optional[int] = None) -> Tuple[int, ...]:
    """The complements `comps` ordered into the Ext^1-successor cycle, from
    `start` or else from the least complement."""
    if comps == 0:
        raise ValueError("no complements to order")
    if start is None:
        start = (comps & -comps).bit_length() - 1
    cycle = [start]
    seen = 1 << start
    cur = start
    for _ in range(_popcount(comps) - 1):
        cur = _successor(ctx, comps, cur)
        if (seen >> cur) & 1:
            raise RuntimeError("Ext^1-successors revisit %r before closing"
                               % (ctx.objects[cur],))
        cycle.append(cur)
        seen |= 1 << cur
    if _successor(ctx, comps, cur) != start:
        raise RuntimeError("Ext^1-successor cycle does not close")
    return tuple(cycle)


def _fan(ctx: TiltingContext, mask: int) -> Tuple[int, ...]:
    """The fan of the almost complete set `mask` as object indices (cached)."""
    cache = ctx._fans
    if mask not in cache:
        cache[mask] = _fan_cycle(ctx, _complement_mask(ctx, mask))
    return cache[mask]


def complements(ctx: TiltingContext, almost: Sequence[Obj]) -> List[Obj]:
    """All indecomposables completing `almost` to a tilting set, in domain order."""
    return list(ctx.objs_of(_complement_mask(ctx, _almost_mask(ctx, almost))))


def order_into_fan(ctx: TiltingContext, comps: Sequence[Obj],
                   start: Optional[Obj] = None) -> Tuple[Obj, ...]:
    """Order complements into the Ext^1-successor cycle, starting at `start`."""
    mask = ctx.mask_of(comps)
    i = None
    if start is not None:
        i = ctx.index.get(start)
        if i is None or not (mask >> i) & 1:
            raise ValueError("start %r is not among the complements" % (start,))
    return tuple(ctx.objects[j] for j in _fan_cycle(ctx, mask, i))


def fan_of(ctx: TiltingContext, almost: Sequence[Obj]) -> Tuple[Obj, ...]:
    """The ordered complement cycle of an almost complete set (cached)."""
    objects = ctx.objects
    return tuple(objects[i] for i in _fan(ctx, _almost_mask(ctx, almost)))


def rotate_to(cycle: Sequence[Obj], start: Obj) -> Tuple[Obj, ...]:
    cycle = tuple(cycle)
    i = cycle.index(start)
    return cycle[i:] + cycle[:i]


def cyclic_form(ctx: TiltingContext, cycle: Sequence[Obj]) -> Tuple[Obj, ...]:
    """Least rotation; identifies cycles that differ only in starting point."""
    cycle = tuple(cycle)
    rots = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
    return min(rots, key=lambda t: tuple(ctx.index[x] for x in t))


def fan_degrees(ctx: TiltingContext, cycle: Sequence[Obj]) -> Tuple[int, ...]:
    return tuple(ctx.oc.degree(x) for x in cycle)


def group_by_face(masks: Sequence[int]) -> Dict[int, List[int]]:
    """Map each facet minus one summand to the positions of the facets containing it."""
    faces: Dict[int, List[int]] = {}
    for fi, mask in enumerate(masks):
        rest = mask
        while rest:
            low = rest & -rest
            faces.setdefault(mask ^ low, []).append(fi)
            rest ^= low
    return faces


def codim1_faces(ctx: TiltingContext) -> Dict[int, List[int]]:
    """group_by_face over the facets of the context (cached)."""
    if ctx._faces is None:
        ctx._faces = group_by_face(facet_masks(ctx))
    return ctx._faces


def almost_completes(ctx: TiltingContext) -> List[Tuple[Obj, ...]]:
    """Every facet minus one summand, deduplicated, in canonical order."""
    if ctx._almost is None:
        objects = ctx.objects
        keys = sorted(tuple(_bits(mask)) for mask in codim1_faces(ctx))
        ctx._almost = [tuple(objects[i] for i in key) for key in keys]
    return ctx._almost


def fans(ctx: TiltingContext) -> List[Tuple[Tuple[Obj, ...], Tuple[Obj, ...]]]:
    """The (almost complete set, fan) pairs, in almost_completes order (cached)."""
    if ctx._fan_pairs is None:
        ctx._fan_pairs = [(a, fan_of(ctx, a)) for a in almost_completes(ctx)]
    return ctx._fan_pairs


# ---------------------------------------------------------------------------
# approximations


def _composite_tensor(ctx: TiltingContext, a: Obj, mid: Obj, b: Obj) -> np.ndarray:
    """Structure constants t[k, i, j] of composition through `mid` (cached):
    the coefficient of the k-th vector of hom_basis(a, b) in g_j o f_i, for
    f_i in hom_basis(a, mid) and g_j in hom_basis(mid, b).  Composition is
    bilinear, so any composite through `mid` is read off t."""
    cache = ctx._composites
    key = (a, mid, b)
    if key not in cache:
        oc = ctx.oc
        fs, gs = oc.hom_basis(a, mid), oc.hom_basis(mid, b)
        h = len(oc.hom_basis(a, b))
        coef = linalg.zeros(h, 0)
        if fs and gs:
            coef = np.stack([oc.morph_coords(oc.compose(g, f)) for f in fs for g in gs], axis=1)
        cache[key] = coef.reshape(h, len(fs), len(gs))
    return cache[key]


def _check_end_fields(ctx: TiltingContext, addset: Sequence[Obj]) -> None:
    for t in addset:
        if ctx.oc.hom_dim(t, t) != 1:
            raise RuntimeError("endomorphism ring of %r is not one-dimensional" % (t,))


def _ordered(right: bool, s, t):
    """(s, t) on the right-approximation side, (t, s) on its mirror image."""
    return (s, t) if right else (t, s)


def _approximation(ctx: TiltingContext, addset: Sequence[Obj], x: Obj,
                   right: bool) -> Dict[Obj, List[int]]:
    """Generators of Hom(T_j, x) (right) or Hom(x, T_j) (left) mod the radical,
    as indices into the Hom basis, for each T_j with that Hom nonzero.

    With (a, b) = (T_j, x) or (x, T_j), the radical is spanned by the
    composites through the other summands, and only the summands t with
    Hom(a, t) and Hom(t, b) nonzero contribute any; the generators are
    solved once per (a, b, those summands) and context.
    """
    index = ctx.index
    out, into = ctx.hom_masks()
    ix = index[ctx.canonical(x)]
    pos = [index[ctx.canonical(t)] for t in addset]
    # a repeated summand keeps its own bit: its copy spans Hom(a, b)
    mask = dup = 0
    for i in pos:
        dup |= mask & (1 << i)
        mask |= 1 << i
    memo = ctx._radical_tops
    tops = {}
    for i in pos:
        a, b = _ordered(right, i, ix)
        if not (out[a] >> b) & 1:
            continue
        key = (a, b, out[a] & into[b] & (mask & ~(1 << i) | dup))
        if key not in memo:
            memo[key] = _radical_tops(ctx, *key)
        tops[ctx.objects[i]] = list(memo[key])
    return tops


def _radical_tops(ctx: TiltingContext, a: int, b: int, rel: int) -> Tuple[int, ...]:
    """The pivots in the identity block of one row reduction of [radical | I],
    i.e. the first basis vectors of Hom(a, b) that complete the composites
    through the summands in the bitmask `rel` to a spanning set.  They depend
    only on the span of the radical, not on the order of its columns."""
    objs = ctx.objects
    a, b = objs[a], objs[b]
    h = ctx.oc.hom_dim(a, b)
    blocks = [_composite_tensor(ctx, a, objs[t], b).reshape(h, -1) for t in _bits(rel)]
    r = sum(blk.shape[1] for blk in blocks)
    _, piv = linalg.rref_mod(np.concatenate(blocks + [linalg.eye(h)], axis=1), ctx.oc.cat.p)
    return tuple(c - r for c in piv if c >= r)


def right_approximation(ctx: TiltingContext, addset: Sequence[Obj],
                        target: Obj) -> Dict[Obj, List[int]]:
    """Radical-complement generators of Hom(T_j, target) for each summand T_j.

    The number of generators at T_j is the multiplicity of T_j in the
    minimal right approximation of `target` from the additive hull of
    `addset`.  Every End(T_j) must be one-dimensional (the callers in this
    module check it once per add set), so that the radical is exactly the
    span of composites through the other summands.
    """
    return _approximation(ctx, addset, target, right=True)


def left_approximation(ctx: TiltingContext, addset: Sequence[Obj],
                       source: Obj) -> Dict[Obj, List[int]]:
    """Dual of right_approximation: generators of Hom(source, T_j) mod radical."""
    return _approximation(ctx, addset, source, right=False)


def _factors_through(ctx, addset, x, tops, right: bool) -> bool:
    """Does every map between add set and x factor through the generators?

    Right side: Hom(T_l, x) must be spanned by the composites f o v of the
    generators f at T_j with v in Hom(T_l, T_j); the left side is the mirror
    image.  One rank comparison per T_l over the cached structure constants,
    memoized by (side, T_l, x, generators at the T_j whose tensor has columns).
    """
    index = ctx.index
    out, into = ctx.hom_masks()
    ix = index[x]
    gens_at = [(index[tj], tuple(gens)) for tj, gens in tops.items() if gens]
    memo = ctx._covers
    for tl in addset:
        a, b = _ordered(right, index[tl], ix)
        if not (out[a] >> b) & 1:
            continue
        rel = out[a] & into[b]
        key = (right, a, b, tuple(tg for tg in gens_at if (rel >> tg[0]) & 1))
        if key not in memo:
            memo[key] = _covers(ctx, *key)
        if not memo[key]:
            return False
    return True


def _covers(ctx: TiltingContext, right: bool, a: int, b: int, gens_at) -> bool:
    """Do the composites through the generators (t, gens) span Hom(a, b)?"""
    objs = ctx.objects
    a, b = objs[a], objs[b]
    h = ctx.oc.hom_dim(a, b)
    blocks = [_composite_tensor(ctx, a, objs[t], b).take(gens, axis=2 if right else 1)
              .reshape(h, -1) for t, gens in gens_at]
    span = np.concatenate(blocks, axis=1) if blocks else linalg.zeros(h, 0)
    return linalg.rank_mod(span, ctx.oc.cat.p) == h


def approximation_mults(ctx: TiltingContext, addset: Sequence[Obj],
                        target: Obj) -> Dict[Obj, int]:
    """Multiplicities of the minimal right approximation, factorization-checked."""
    addset = tuple(map(ctx.canonical, addset))
    _check_end_fields(ctx, addset)
    tops = right_approximation(ctx, addset, target)
    if not _factors_through(ctx, addset, ctx.canonical(target), tops, right=True):
        raise RuntimeError("approximation candidates do not cover Hom(add set, %r)"
                           % (target,))
    return {tj: len(fs) for tj, fs in tops.items()}


def fan_triangles(ctx: TiltingContext, almost: Sequence[Obj],
                  cycle: Sequence[Obj]) -> List[Dict[str, object]]:
    """Middle-term data of the connecting triangles along a fan.

    Each entry records the multiplicities of the middle term between X_i
    (triangle target) and X_{i+1} (triangle source).  Multiplicities are
    computed from both ends and must agree; both factorization properties
    are checked.  An empty middle term is legal: the connecting class is
    then an isomorphism X_i = X_{i+1}[1].
    """
    almost = tuple(map(ctx.canonical, almost))
    cycle = tuple(map(ctx.canonical, cycle))
    _check_end_fields(ctx, almost)
    out = []
    m = len(cycle)
    for i in range(m):
        xi, xnext = cycle[i], cycle[(i + 1) % m]
        rtops = right_approximation(ctx, almost, xi)
        ltops = left_approximation(ctx, almost, xnext)
        rm = {t: len(fs) for t, fs in rtops.items() if fs}
        lm = {t: len(gs) for t, gs in ltops.items() if gs}
        if rm != lm:
            raise RuntimeError("middle term of triangle at %r disagrees between "
                               "right (%r) and left (%r) approximations" % (xi, rm, lm))
        if not _factors_through(ctx, almost, xi, rtops, right=True):
            raise RuntimeError("right approximation of %r does not cover all maps" % (xi,))
        if not _factors_through(ctx, almost, xnext, ltops, right=False):
            raise RuntimeError("left approximation of %r does not cover all maps" % (xnext,))
        out.append({"target": xi, "source": xnext, "mults": rm})
    return out


# ---------------------------------------------------------------------------
# connecting classes and the cyclic Ext pattern


def triangles_of(ctx: TiltingContext, almost: Sequence[Obj]) -> List[Dict[str, object]]:
    """fan_triangles over the cached fan of `almost`, itself cached."""
    mask = _almost_mask(ctx, almost)
    cache = ctx._triangles
    if mask not in cache:
        cache[mask] = fan_triangles(ctx, almost, fan_of(ctx, almost))
    return cache[mask]


def delta_chains_nonzero(ctx: TiltingContext, cycle: Sequence[Obj]) -> bool:
    """Are all composites of consecutive connecting classes nonzero?

    Starting anywhere, composing k of them gives a class in
    Ext^k(X_i, X_{i+k}); these must be nonzero for k up to the full cycle
    length (the length-(d+1) composite is a self-extension of top degree).
    Every starting point is tested, so the answer does not depend on
    rotation and is cached per cyclic_form.
    """
    cycle = tuple(map(ctx.canonical, cycle))
    key = cyclic_form(ctx, cycle)
    if key not in ctx._delta_chains:
        ctx._delta_chains[key] = _chains_nonzero(ctx, cycle)
    return ctx._delta_chains[key]


def _chains_nonzero(ctx: TiltingContext, cycle: Tuple[Obj, ...]) -> bool:
    """From each start X_i, the composites Y_0 -> ... -> Y_k of the basis
    vectors of Hom(Y_j, Y_{j+1}), Y_j = X_{i+j}[j], one tensor step each."""
    oc = ctx.oc
    m = len(cycle)
    for i in range(m):
        x, y = cycle[i], cycle[(i + 1) % m]
        if oc.ext_dim(x, y, 1) != 1:
            raise RuntimeError("Ext^1(%r, %r) is not one-dimensional" % (x, y))
    for i in range(m):
        ys = [oc.normalize((x[0], x[1] + k))[0]
              for k, x in enumerate(cycle[i:] + cycle[:i + 1])]
        chain = np.ones(1, dtype=np.int64)
        for k in range(1, m):
            t = _composite_tensor(ctx, ys[0], ys[k], ys[k + 1])
            chain = t[:, :, 0] @ chain % oc.cat.p
            if not chain.any():
                return False
    return True


def ext_pattern_ok(ctx: TiltingContext, cycle: Sequence[Obj]) -> bool:
    """One-dimensional endomorphisms and the cyclic shifted-Ext pattern.

    Requires dim Hom(X_i, X_i) = 1 and, for 1 <= k <= d,
    dim Ext^k(X_i, X_j) = 1 if i + k = j (mod cycle length) and 0
    otherwise.  Plain Homs between distinct members are deliberately not
    constrained: complement cycles at d = 2 can have nonzero
    Hom(X_i, X_{i-1}) (computed A_3, d = 2 fans do), and only d >= 3
    forces those to vanish.
    """
    d = ctx.oc.d
    idx = ctx.indices(cycle)
    m = len(idx)
    sub = ctx.oc.dims()[np.ix_(idx, idx)]
    pos = np.arange(m)
    # want[i, j, k-1] = 1 exactly when j = i + k (mod m)
    want = (pos[:, None, None] + np.arange(1, d + 1) - pos[None, :, None]) % m == 0
    return bool((np.diag(sub[:, :, 0]) == 1).all() and (sub[:, :, 1:d + 1] == want).all())


def is_exchange_team(ctx: TiltingContext, objs: Sequence[Obj]) -> bool:
    """Ordered (d+1)-tuple with the cyclic Ext pattern and nonzero composites."""
    objs = tuple(map(ctx.canonical, objs))
    if len(objs) != ctx.oc.d + 1 or len(set(objs)) != len(objs):
        return False
    if not ext_pattern_ok(ctx, objs):
        return False
    return delta_chains_nonzero(ctx, objs)


def exchange_teams_exhaustive(ctx: TiltingContext) -> List[Tuple[Obj, ...]]:
    """All exchange teams up to rotation, in sorted order.

    Consecutive team members have one-dimensional Ext^1 and a cyclic form
    starts at its least member, so each team is found once as a path of
    "Ext^1 = 1" edges from its least object; is_exchange_team tests the
    rest, including the closing edge.
    """
    oc = ctx.oc
    index = ctx.index
    ext1 = oc.dims()[:, :, 1]
    succ = {x: [ctx.objects[j] for j in np.flatnonzero(ext1[i] == 1)]
            for i, x in enumerate(ctx.objects)}
    paths = [(x,) for x in ctx.objects]
    for _ in range(oc.d):
        paths = [path + (y,) for path in paths for y in succ[path[-1]]
                 if index[y] > index[path[0]] and y not in path]
    return [path for path in paths if is_exchange_team(ctx, path)]


# ---------------------------------------------------------------------------
# fan-level laws


def degree_bounds_instances(ctx: TiltingContext, cycle: Sequence[Obj]) -> Tuple[int, int]:
    """(#rotations with deg X_0 = 0, #those breaking the degree bounds).

    For a rotation starting at degree 0 the next member has degree 0, d or
    d-1, and the i-th member has degree at least d - i for 2 <= i <= d.
    """
    d = ctx.oc.d
    degs = fan_degrees(ctx, cycle)
    m = len(cycle)
    instances = violations = 0
    for r in range(m):
        if degs[r] != 0:
            continue
        instances += 1
        rot = [degs[(r + i) % m] for i in range(m)]
        if rot[1] not in (0, d, d - 1) or \
                any(rot[i] < d - i for i in range(2, d + 1)):
            violations += 1
    return instances, violations


def degree_profile_instances(ctx: TiltingContext, cycle: Sequence[Obj]) -> Tuple[int, int]:
    """(#rotations with deg X_0 = 0 != deg X_1, #those off the two-piece profile).

    Such a rotation must satisfy, for some 0 <= k <= d: deg X_i = d - i for
    1 <= i <= k and deg X_i = d + 1 - i for k + 1 <= i <= d.
    """
    d = ctx.oc.d
    degs = fan_degrees(ctx, cycle)
    m = len(cycle)
    instances = violations = 0
    for r in range(m):
        rot = [degs[(r + i) % m] for i in range(m)]
        if rot[0] != 0 or rot[1] == 0:
            continue
        instances += 1
        if not any(all(rot[i] == d - i for i in range(1, k + 1)) and
                   all(rot[i] == d + 1 - i for i in range(k + 1, d + 1))
                   for k in range(d + 1)):
            violations += 1
    return instances, violations


def middle_supports_disjoint(triangles: List[Dict[str, object]]) -> bool:
    """Do the middle terms of a fan's triangles share no indecomposable summand?"""
    sups = [frozenset(t for t, mm in tri["mults"].items() if mm > 0)
            for tri in triangles]
    return all(not (sups[i] & sups[j])
               for i in range(len(sups)) for j in range(i + 1, len(sups)))


def middle_union_rigid(ctx: TiltingContext, cycle: Sequence[Obj],
                       triangles: List[Dict[str, object]]) -> bool:
    """Is the union of all middle-term summands rigid with each complement?"""
    support = sorted({t for tri in triangles
                      for t, mm in tri["mults"].items() if mm > 0},
                     key=lambda t: ctx.index[t])
    return all(is_rigid(ctx, support + [x]) for x in cycle)


def hom_one_directional(ctx: TiltingContext, objs: Sequence[Obj]) -> bool:
    """No two distinct members with nonzero Hom in both directions."""
    idx = ctx.indices(objs)
    hom = ctx.oc.dims()[:, :, 0][np.ix_(idx, idx)] != 0
    return not np.triu(hom & hom.T, 1).any()


def successor_hom_vanishing(ctx: TiltingContext, cycle: Sequence[Obj]) -> bool:
    """Hom(X_i, X_{i+1}) = 0 for consecutive fan members."""
    idx = ctx.indices(cycle)
    return not ctx.oc.dims()[idx, np.roll(idx, -1), 0].any()


# ---------------------------------------------------------------------------
# mutation of facets


def mutate(ctx: TiltingContext, objs: Sequence[Obj], drop: Obj,
           pick: int = 1) -> Tuple[Obj, ...]:
    """Replace `drop` by the pick-th complement along the fan starting there."""
    objs = tuple(sorted(map(ctx.canonical, objs), key=lambda t: ctx.index[t]))
    drop = ctx.canonical(drop)
    if drop not in objs:
        raise ValueError("drop object %r is not a summand" % (drop,))
    if not is_tilting(ctx, objs):
        raise ValueError("mutation requires a tilting set")
    almost = tuple(x for x in objs if x != drop)
    cycle = rotate_to(fan_of(ctx, almost), drop)
    new = cycle[pick % len(cycle)]
    return tuple(sorted(almost + (new,), key=lambda t: ctx.index[t]))


def facet_adjacency(faces: Dict[int, List[int]], count: int) -> List[set]:
    """Adjacency of `count` facets sharing all but one summand, from their
    group_by_face grouping."""
    nbrs = [set() for _ in range(count)]
    for members in faces.values():
        for a in members:
            nbrs[a].update(members)
            nbrs[a].discard(a)
    return nbrs


def mutation_graph(ctx: TiltingContext) -> Tuple[List[Tuple[Obj, ...]], List[set]]:
    """Facets and their adjacency (facets sharing all but one summand)."""
    facets = enumerate_tilting(ctx)
    return facets, facet_adjacency(codim1_faces(ctx), len(facets))


def mutation_graph_checks(ctx: TiltingContext) -> Dict[str, object]:
    """Vertex count, n*d-regularity and connectivity of the mutation graph (cached)."""
    if ctx._graph_checks is None:
        ctx._graph_checks = _graph_checks(ctx)
    return ctx._graph_checks


def _graph_checks(ctx: TiltingContext) -> Dict[str, object]:
    facets, nbrs = mutation_graph(ctx)
    want = ctx.n * ctx.oc.d
    regular = all(len(s) == want for s in nbrs)
    seen = set()
    if facets:
        queue = [0]
        seen.add(0)
        while queue:
            v = queue.pop()
            for w in nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return {"vertices": len(facets), "degree": want, "regular": regular,
            "connected": len(seen) == len(facets)}
