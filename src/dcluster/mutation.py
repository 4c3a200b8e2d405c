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
asked of OrbitCategory.compose_tensor by the index triple (a, m, b) and
computed once per relative position of the vertices of a, m and b in ZQ, as
a tensor in the coordinates of the orbit category's Hom bases (paths of the
mesh category of ZQ), by carrying identity blocks along the basis paths of
Hom(m, b).  A tensor is dim Hom(a, b) rows of Python ints, entry i * g + j
of row k being the k-th coordinate of g_j o f_i (g = dim Hom(m, b)): the
matrices are tiny, so the rank problems join tensors by extending rows,
pick generators by index lists and reduce with linalg.rref_rows and
complement_rows, without numpy.
Each of these small rank problems depends only on (a, b) and on the
summands t with Hom(a, t) and Hom(t, b) nonzero (the others contribute no
columns), so it is solved once per context and reused by every add set and
fan that poses it again.  Its size, dim Hom(a, b), is read from the
dimension table (TiltingContext.hom_dims), so a problem without such
summands composes nothing.

From the codimension-1 faces to the fan-level predicates, an almost
complete set is a bitmask of object indices, a fan a tuple of indices and a
middle term a tuple of (index, multiplicity) pairs; every memo is keyed by
indices and masks and holds no object.  Objects appear only at the public
edge (complements, fan_of, triangles_of, the approximations,
is_exchange_team, mutate), which turns them into a mask with
TiltingContext.mask_of and so rejects a repeated summand.

The complements of a set, and so its fan, depend only on the set's common
neighbours, and far fewer distinct sets of those occur than faces (3107
among the 33176 faces of E6 d=2, 1050 among the 14560 of E7 d=1), so the
face table filters and walks a fan once per common-neighbour mask and only
looks it up for every further face.  A query on one face (complements,
fan_of, triangles_of, mutate) walks its one fan and keeps no fan.

The checks over every face read one face table per context (FaceTable,
face_table), in flat arrays of unsigned ints with no Python object per
face.  A face is a rigid set of n - 1 objects with a common neighbour, so
the ordered backtracking that lists the facets (tilting._grow) lists the
faces too, with their common neighbours, in the order of their tuples of
object indices, which is the table's order; fan ids number the fans in the
order of their first faces.  A check asks its question of each fan in id
order and walks the faces in table order, and sorts nothing to name the
first failing face.  Each Ext^1(X_i, X_{i+1}) along a fan is
one-dimensional, so each triangle along it is unique up to isomorphism and
its middle terms depend only on the fan: fan_middles keeps them once per
fan id, after one pass in table order in which every face gets its own
right and left approximations, their agreement and their cover verdicts,
and its middle terms must equal those of its fan's first face; the pass
raises at the first face that differs or raises.

A minimal approximation of X depends only on the side, on X and on the
mask of the summands with nonzero Hom to (or from) X.  Its multiplicities
and its factorization verdict, all that a triangle reads of it, are
computed once per context for that key and shared by every almost complete
set and fan member that poses it; its generators are kept only per rank
problem, from which the object-level approximations read them again.

The same tensors give the composites of connecting classes.  The shift is
an autoequivalence, so the shifted class delta_j[k] of the one-dimensional
Ext^1(X_j, X_{j+1}) is a nonzero multiple of the basis vector of
Hom(X_j[k], X_{j+1}[k+1]).  The composite of the basis vectors along
X_i -> X_{i+1}[1] -> ... -> X_{i+k}[k] is thus a nonzero scalar times the
shifted Yoneda product of delta_i, ..., delta_{i+k-1}, and is zero exactly
when that product is.  The verdict is kept per cycle, as asked: the
exchange-team search finds each fan again, from its least member as the
face table has it, and reads the verdict that delta-composites composed.
The shifted members are read from the orbit
category's shift table (OrbitCategory.shifts), and so is every Ext^k the
module tests: Ext^k(X_i, X_j) = Hom(X_i, X_j[k]) is an entry of the Hom
table (TiltingContext.hom_dims).  Composition, through these tensors, is
the module's only morphism operation.

The module also packages the fan-level laws this data obeys: the cyclic
Ext-dimension pattern with its nonvanishing composites of connecting
classes ("exchange team"), degree bounds and the two-piece degree profile,
disjointness of middle-term supports, one-directional Hom between summands
(read from the nonzero-Hom bit rows), and the mutation graph on facets,
whose edges join the facets containing each face: its counts are read from
the face table without building a neighbour set.
"""

from __future__ import annotations

from array import array
from functools import reduce
from itertools import islice
from operator import mul, or_
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .orbit import Obj
from .tilting import TiltingContext, _bits, _closure, _grow, facet_masks, is_tilting

# a middle term: (object index j, multiplicity of T_j) for each summand in it
Middle = Tuple[Tuple[int, int], ...]


def _common_mask(ctx: TiltingContext, mask: int) -> int:
    """The common neighbours of the set `mask`, which must be rigid."""
    rigid, common = _closure(ctx, mask)
    if not rigid:
        raise ValueError("almost complete part is not rigid")
    return common


def _complements_among(ctx: TiltingContext, common: int) -> int:
    """The common neighbours, of the bitmask `common`, compatible with no
    other of them: the set plus X_i is rigid for every common neighbour i,
    and is tilting exactly when no other common neighbour is compatible with
    X_i."""
    adj = ctx.adjacency()
    rest = common
    comps = 0
    while rest:
        low = rest & -rest
        if common & adj[low.bit_length() - 1] == 0:
            comps |= low
        rest ^= low
    return comps


def _fan_cycle(ctx: TiltingContext, comps: int) -> Tuple[int, ...]:
    """The complements `comps` ordered into the Ext^1-successor cycle, from
    the least complement: the successor of X_i is the unique other
    complement hit by a nonzero class in Ext^1(X_i, -)."""
    if comps == 0:
        raise ValueError("no complements to order")
    ext1 = ctx.ext1_rows()
    m = comps.bit_count()
    start = cur = (comps & -comps).bit_length() - 1
    cycle = [start]
    seen = 1 << start
    while True:
        succ = ext1[cur] & comps & ~(1 << cur)
        if succ == 0 or succ & (succ - 1):
            raise RuntimeError("complement %r has %d Ext^1-successors, expected 1"
                               % (ctx.objects[cur], succ.bit_count()))
        cur = succ.bit_length() - 1
        if len(cycle) == m:
            if cur != start:
                raise RuntimeError("Ext^1-successor cycle does not close")
            return tuple(cycle)
        if (seen >> cur) & 1:
            raise RuntimeError("Ext^1-successors revisit %r before closing"
                               % (ctx.objects[cur],))
        cycle.append(cur)
        seen |= 1 << cur


def _fan(ctx: TiltingContext, mask: int) -> Tuple[int, ...]:
    """The fan of the almost complete set `mask` as object indices."""
    return _fan_cycle(ctx, _complements_among(ctx, _common_mask(ctx, mask)))


def complements(ctx: TiltingContext, almost: Sequence[Obj]) -> List[Obj]:
    """All indecomposables completing `almost` to a tilting set, in domain order."""
    comps = _complements_among(ctx, _common_mask(ctx, ctx.mask_of(almost)))
    return list(ctx.objs_of(comps))


def fan_of(ctx: TiltingContext, almost: Sequence[Obj]) -> Tuple[Obj, ...]:
    """The ordered complement cycle of an almost complete set."""
    objects = ctx.objects
    return tuple(objects[i] for i in _fan(ctx, ctx.mask_of(almost)))


def rotate_to(cycle: Sequence[Obj], start: Obj) -> Tuple[Obj, ...]:
    cycle = tuple(cycle)
    i = cycle.index(start)
    return cycle[i:] + cycle[:i]


def cyclic_form(cycle: Sequence[int]) -> Tuple[int, ...]:
    """Least rotation of a cycle of object indices; identifies cycles that
    differ only in starting point."""
    cycle = tuple(cycle)
    return min(cycle[i:] + cycle[:i] for i in range(len(cycle)))


def fan_degrees(ctx: TiltingContext, cycle: Sequence[int]) -> Tuple[int, ...]:
    """The degrees of the objects `cycle`: a canonical object's is its shift."""
    objects = ctx.objects
    return tuple(objects[i][1] for i in cycle)


class FaceTable:
    """The codimension-1 faces of a context's facets, in flat arrays.

    Faces are numbered in the order of their tuples of object indices.  Face
    f lies in the facets at the positions members[k] for starts[f] <= k <
    starts[f + 1], in increasing order; its mask is the first of those
    facets without the summand drops[f], and its fan is cycles[fan_ids[f]],
    numbered in the order of first faces.  middles (fan_middles) holds the
    middle terms along each cycle.
    """

    def __init__(self, facets: List[int], starts: array, members: array,
                 drops: array, fan_ids: array, cycles: List[Tuple[int, ...]]):
        self.facets = facets
        self.starts = starts
        self.members = members
        self.drops = drops
        self.fan_ids = fan_ids
        self.cycles = cycles
        self.middles: Optional[List[Tuple[Middle, ...]]] = None

    def __len__(self) -> int:
        return len(self.drops)

    def masks(self) -> Iterator[int]:
        """The mask of every face, in table order."""
        facets, members = self.facets, self.members
        return (facets[members[start]] ^ 1 << drop
                for start, drop in zip(self.starts, self.drops))

    def groups(self) -> Iterator[array]:
        """The positions of the facets containing each face, in table order."""
        members, starts = self.members, self.starts
        return (members[lo:hi] for lo, hi in zip(starts, islice(starts, 1, None)))


def face_table(ctx: TiltingContext) -> FaceTable:
    """The face table of the context's facets (cached).

    The faces are the rigid sets of n - 1 objects with a common neighbour,
    listed by tilting._grow with their common neighbours c; the facets
    containing a face are its unions with each c, found by position in
    facet_masks, which must hold each of them and nothing more.  A fan is
    walked once per distinct common-neighbour mask, and each distinct cycle
    gets the next id; nothing is kept when the build raises."""
    if ctx._face_table is None:
        facets = facet_masks(ctx)
        position = {mask: k for k, mask in enumerate(facets)}
        starts, members = array("I", [0]), array("I")
        drops, fan_ids = array("I"), array("I")
        by_common: Dict[int, int] = {}
        by_cycle: Dict[Tuple[int, ...], int] = {}

        def add_face(face: int, common: int) -> None:
            if not common:    # in no facet: rigidity-equivalence reports it
                return
            rest = common
            while rest:
                low = rest & -rest
                k = position.get(face | low)
                if k is None:
                    raise RuntimeError("codimension-1 face %r with the common neighbour %r "
                                       "lies in no enumerated facet"
                                       % (ctx.objs_of(face), ctx.objects[low.bit_length() - 1]))
                members.append(k)
                rest ^= low
            starts.append(len(members))
            drops.append((common & -common).bit_length() - 1)
            fid = by_common.get(common)
            if fid is None:
                cycle = _fan_cycle(ctx, _complements_among(ctx, common))
                fid = by_common[common] = by_cycle.setdefault(cycle, len(by_cycle))
            fan_ids.append(fid)

        _grow(ctx.adjacency(), ctx.n - 1, 0, (1 << len(ctx.objects)) - 1, 0, 0, add_face)
        if len(members) != ctx.n * len(facets):
            raise RuntimeError("the faces lie in %d facets, counted with multiplicity, "
                               "not n = %d times the %d enumerated facets"
                               % (len(members), ctx.n, len(facets)))
        ctx._face_table = FaceTable(facets, starts, members, drops, fan_ids, list(by_cycle))
    return ctx._face_table


def fans(ctx: TiltingContext) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """The (face mask, fan as object indices) pairs, in table order."""
    table = face_table(ctx)
    cycles = table.cycles
    return ((mask, cycles[fid]) for mask, fid in zip(table.masks(), table.fan_ids))


def fan_middles(ctx: TiltingContext) -> List[Tuple[Middle, ...]]:
    """The middle terms along each fan, by fan id (cached).

    One pass over the faces in table order gives each face its own
    triangles (_face_triangles), which must equal those of the first face
    with its fan: the pass raises at the first face whose triangles raise
    or differ (RuntimeError), and then nothing is kept."""
    table = face_table(ctx)
    if table.middles is None:
        cycles, objs = table.cycles, ctx.objects
        middles: List[Tuple[Middle, ...]] = []
        for mask, fid in zip(table.masks(), table.fan_ids):
            got = _face_triangles(ctx, mask, cycles[fid])
            if fid == len(middles):
                middles.append(got)
            elif middles[fid] != got:
                raise RuntimeError("middle terms of the triangles of %r differ from "
                                   "those of another face with the fan %r"
                                   % (ctx.objs_of(mask), tuple(objs[i] for i in cycles[fid])))
        table.middles = middles
    return table.middles


# ---------------------------------------------------------------------------
# approximations


def _check_end_fields(ctx: TiltingContext, mask: int) -> None:
    """Every End(T_j), j in `mask`, must be one-dimensional, so that the
    radical of a Hom from or to T_j is the span of the composites through
    the other summands."""
    if ctx._end_defects is None:
        ctx._end_defects = sum(1 << i for i, row in enumerate(ctx.hom_dims()) if row[i] != 1)
    bad = mask & ctx._end_defects
    if bad:
        raise RuntimeError("endomorphism ring of %r is not one-dimensional"
                           % (ctx.objects[(bad & -bad).bit_length() - 1],))


def _approximation(ctx: TiltingContext, right: bool, ix: int,
                   supp: int) -> Tuple[Middle, bool]:
    """The multiplicities of the minimal right (left) approximation of X_ix
    from add(T), the (j, number of generators at T_j) for each summand with
    a generator, and its factorization verdict (memoized).

    `supp` is the bitmask of the summands T_j with Hom(T_j, X_ix) (left:
    Hom(X_ix, T_j)) nonzero; the other summands contribute neither a
    generator nor a composite, so the result depends only on (right, ix,
    supp).
    """
    key = (right, ix, supp)
    memo = ctx._approximations
    got = memo.get(key)
    if got is None:
        gens = _generators(ctx, right, ix, supp)
        mults = tuple((j, len(g)) for j, g in zip(_bits(supp), gens) if g)
        # few distinct multiplicity tuples occur: each is kept once
        got = memo[key] = (ctx._shared_tuples.setdefault(mults, mults),
                           _covered(ctx, right, ix, supp, gens))
    return got


def _generators(ctx: TiltingContext, right: bool, ix: int,
                supp: int) -> Tuple[Tuple[int, ...], ...]:
    """For each bit j of `supp` in turn, the generators of Hom(T_j, X_ix)
    (left: Hom(X_ix, T_j)) mod the radical, as indices into the Hom basis.

    With (a, b) = (T_j, X_ix) or (X_ix, T_j), the radical is spanned by the
    composites through the other summands, and only the summands t with
    Hom(a, t) and Hom(t, b) nonzero contribute any; the generators are
    solved once per (a, b, those summands) and context.
    """
    out, into = ctx.hom_masks()
    memo = ctx._radical_tops
    gens = []
    for j in _bits(supp):
        a, b = (j, ix) if right else (ix, j)
        key = (a, b, out[a] & into[b] & supp & ~(1 << j))
        tops = memo.get(key)
        if tops is None:
            tops = memo[key] = _radical_tops(ctx, *key)
        gens.append(tops)
    return tuple(gens)


def _radical_tops(ctx: TiltingContext, a: int, b: int, rel: int) -> Tuple[int, ...]:
    """The greedy complement of the radical that linalg.complement_rows picks,
    i.e. the first basis vectors of Hom(a, b) that complete the composites
    through the summands in the bitmask `rel` to a spanning set.  They depend
    only on the span of the radical, not on the order of its columns."""
    rows: List[List[int]] = [[] for _ in range(ctx.hom_dims()[a][b])]
    for t in _bits(rel):
        for row, block in zip(rows, ctx.oc.compose_tensor(a, t, b)):
            row += block
    cols = len(rows[0]) if rows else 0
    return tuple(linalg.complement_rows(rows, cols, ctx.oc.cat.p)[1])


def _covered(ctx: TiltingContext, right: bool, ix: int, supp: int,
             gens: Tuple[Tuple[int, ...], ...]) -> bool:
    """Does every map between the summands in `supp` and X_ix factor through
    the generators `gens` (one tuple per bit of supp, as _generators gives)?

    Right side: Hom(T_l, X_ix) must be spanned by the composites f o v of the
    generators f at T_j with v in Hom(T_l, T_j); the left side is the mirror
    image.  One rank comparison per T_l over the cached structure constants,
    memoized by (side, T_l, X_ix, generators at the T_j whose tensor has
    columns).
    """
    out, into = ctx.hom_masks()
    gens_at = [(j, g) for j, g in zip(_bits(supp), gens) if g]
    memo = ctx._covers
    for l in _bits(supp):
        a, b = (l, ix) if right else (ix, l)
        rel = out[a] & into[b]
        key = (right, a, b, tuple(tg for tg in gens_at if (rel >> tg[0]) & 1))
        covers = memo.get(key)
        if covers is None:
            covers = memo[key] = _covers(ctx, *key)
        if not covers:
            return False
    return True


def _covers(ctx: TiltingContext, right: bool, a: int, b: int, gens_at) -> bool:
    """Do the composites through the generators (t, gens) span Hom(a, b)?
    The generators index the g axis of each tensor, Hom(t, b), on the right
    side and its f axis, Hom(a, t), on the left."""
    hom = ctx.hom_dims()
    rows: List[List[int]] = [[] for _ in range(hom[a][b])]
    for t, gens in gens_at:
        f, g = hom[a][t], hom[t][b]
        if right:
            take = [i * g + j for i in range(f) for j in gens]
        else:
            take = [i * g + j for i in gens for j in range(g)]
        for row, block in zip(rows, ctx.oc.compose_tensor(a, t, b)):
            row += [block[k] for k in take]
    cols = len(rows[0]) if rows else 0
    return len(linalg.rref_rows(rows, cols, ctx.oc.cat.p)) == len(rows)


def _support(ctx: TiltingContext, addset: Sequence[Obj], x: Obj,
             right: bool) -> Tuple[int, int]:
    """(index of x, bitmask of the summands of `addset` with nonzero Hom to
    (right) or from x) for _approximation and _generators; the summands must
    be distinct, and their endomorphism rings are checked to be fields."""
    mask = ctx.mask_of(addset)
    _check_end_fields(ctx, mask)
    ix = ctx.index[ctx.canonical(x)]
    out, into = ctx.hom_masks()
    return ix, mask & (into[ix] if right else out[ix])


def right_approximation(ctx: TiltingContext, addset: Sequence[Obj],
                        target: Obj) -> Dict[Obj, List[int]]:
    """Radical-complement generators of Hom(T_j, target) for each summand T_j
    with that Hom nonzero.

    The number of generators at T_j is the multiplicity of T_j in the
    minimal right approximation of `target` from the additive hull of
    `addset`, whose summands must be distinct.  Every End(T_j) must be
    one-dimensional (it is checked), so that the radical is exactly the span
    of composites through the other summands.
    """
    ix, supp = _support(ctx, addset, target, True)
    objs = ctx.objects
    return {objs[j]: list(g) for j, g in zip(_bits(supp), _generators(ctx, True, ix, supp))}


def left_approximation(ctx: TiltingContext, addset: Sequence[Obj],
                       source: Obj) -> Dict[Obj, List[int]]:
    """Dual of right_approximation: generators of Hom(source, T_j) mod radical."""
    ix, supp = _support(ctx, addset, source, False)
    objs = ctx.objects
    return {objs[j]: list(g) for j, g in zip(_bits(supp), _generators(ctx, False, ix, supp))}


def triangles_of(ctx: TiltingContext, almost: Sequence[Obj]) -> List[Dict[str, object]]:
    """Middle-term data of the connecting triangles along the fan of `almost`.

    Each entry records the multiplicities of the middle term between X_i
    (triangle target) and X_{i+1} (triangle source).  Multiplicities are
    computed from both ends and must agree; both factorization properties
    are checked.  An empty middle term is legal: the connecting class is
    then an isomorphism X_i = X_{i+1}[1].
    """
    mask = ctx.mask_of(almost)
    fan = _fan(ctx, mask)
    objs = ctx.objects
    m = len(fan)
    return [{"target": objs[i], "source": objs[fan[(k + 1) % m]],
             "mults": {objs[j]: n for j, n in mids}}
            for k, (i, mids) in enumerate(zip(fan, _face_triangles(ctx, mask, fan)))]


def _face_triangles(ctx: TiltingContext, mask: int, cycle: Tuple[int, ...]
                    ) -> Tuple[Middle, ...]:
    """The middle terms of the triangles X_{i+1} -> middle -> X_i from
    add(`mask`) along its fan `cycle`, each checked as triangles_of
    describes, from the face's own approximations; they are the
    approximations' shared tuples."""
    _check_end_fields(ctx, mask)
    out, into = ctx.hom_masks()
    objs = ctx.objects
    middles = []
    m = len(cycle)
    for k, i in enumerate(cycle):
        nxt = cycle[(k + 1) % m]
        rm, rcov = _approximation(ctx, True, i, mask & into[i])
        lm, lcov = _approximation(ctx, False, nxt, mask & out[nxt])
        if rm != lm:
            raise RuntimeError("middle term of triangle at %r disagrees between "
                               "right (%r) and left (%r) approximations"
                               % (objs[i], {objs[j]: n for j, n in rm},
                                  {objs[j]: n for j, n in lm}))
        if not rcov:
            raise RuntimeError("right approximation of %r does not cover all maps"
                               % (objs[i],))
        if not lcov:
            raise RuntimeError("left approximation of %r does not cover all maps"
                               % (objs[nxt],))
        middles.append(rm)
    return tuple(middles)


def supports_of(middles: Sequence[Middle]) -> List[int]:
    """The summand masks of the middle terms `middles`."""
    return [sum(1 << j for j, _ in mids) for mids in middles]


# ---------------------------------------------------------------------------
# connecting classes and the cyclic Ext pattern


def delta_chains_nonzero(ctx: TiltingContext, cycle: Sequence[int]) -> bool:
    """Are all composites of consecutive connecting classes nonzero?

    Starting anywhere, composing k of them gives a class in
    Ext^k(X_i, X_{i+k}); these must be nonzero for k up to the full cycle
    length (the length-(d+1) composite is a self-extension of top degree).
    Every starting point is tested, so the answer does not depend on
    rotation.  `cycle` holds object indices, and each Ext^1(X_i, X_{i+1})
    must be one-dimensional.  The verdict is kept per cycle tuple
    (TiltingContext._chains) once that test has passed.
    """
    cycle = tuple(cycle)
    got = ctx._chains.get(cycle)
    if got is None:
        hom, shift, objs = ctx.hom_dims(), ctx.oc.shifts[1], ctx.objects
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            if hom[x][shift[y]] != 1:
                raise RuntimeError("Ext^1(%r, %r) is not one-dimensional"
                                   % (objs[x], objs[y]))
        got = ctx._chains[cycle] = _chains_nonzero(ctx, cycle)
    return got


def _chains_nonzero(ctx: TiltingContext, cycle: Tuple[int, ...]) -> bool:
    """From each start X_i, the composites Y_0 -> ... -> Y_k of the basis
    vectors of Hom(Y_j, Y_{j+1}), Y_j = X_{i+j}[j], one tensor step each.
    `cycle` holds object indices, each Ext^1 step one-dimensional; the shifts
    are read from the orbit category's shift table."""
    m = len(cycle)
    shift = ctx.oc.shifts[1]
    # shifted[k][j] is the index of X_j[k]
    shifted = [cycle]
    for _ in range(m):
        shifted.append([shift[j] for j in shifted[-1]])
    p = ctx.oc.cat.p
    hom = ctx.hom_dims()
    for i in range(m):
        ys = [shifted[k][(i + k) % m] for k in range(m + 1)]
        chain = [1]
        for k in range(1, m):
            # the chain composed with the first basis vector, j = 0, of the step
            g = hom[ys[k]][ys[k + 1]]
            chain = [sum(map(mul, row[::g], chain)) % p
                     for row in ctx.oc.compose_tensor(ys[0], ys[k], ys[k + 1])]
            if not any(chain):
                return False
    return True


def ext_pattern_ok(ctx: TiltingContext, cycle: Sequence[int]) -> bool:
    """One-dimensional endomorphisms and the cyclic shifted-Ext pattern.

    Requires dim Hom(X_i, X_i) = 1 and, for 1 <= k <= d,
    dim Ext^k(X_i, X_j) = 1 if i + k = j (mod cycle length) and 0
    otherwise.  Plain Homs between distinct members are deliberately not
    constrained: complement cycles at d = 2 can have nonzero
    Hom(X_i, X_{i-1}) (computed A_3, d = 2 fans do), and only d >= 3
    forces those to vanish.  `cycle` holds object indices.
    """
    hom, shifts, d = ctx.hom_dims(), ctx.oc.shifts, ctx.oc.d
    m = len(cycle)
    for i, a in enumerate(cycle):
        row = hom[a]
        if row[a] != 1:
            return False
        for j, b in enumerate(cycle):
            for k in range(1, d + 1):
                if row[shifts[k][b]] != ((i + k - j) % m == 0):
                    return False
    return True


def is_exchange_team(ctx: TiltingContext, objs: Sequence[Obj]) -> bool:
    """Ordered (d+1)-tuple with the cyclic Ext pattern and nonzero composites."""
    idx = ctx.indices(objs)
    if len(idx) != ctx.oc.d + 1 or len(set(idx)) != len(idx):
        return False
    return ext_pattern_ok(ctx, idx) and delta_chains_nonzero(ctx, idx)


def exchange_teams_exhaustive(ctx: TiltingContext) -> List[Tuple[int, ...]]:
    """All exchange teams up to rotation, as object indices, in index order.

    A cyclic form starts at its least member, so each team is found once as
    a sequence of d+1 distinct objects from its least one, grown one member
    at a time.  A member X joining at position m must already have the
    pattern against each earlier member a_i, which every team has: End(X)
    is one-dimensional, and for 1 <= k <= d, dim Ext^k(a_i, X) = [k = m - i]
    and dim Ext^k(X, a_i) = [k = d + 1 - (m - i)].  The whole pattern and
    the composites are tested on each finished tuple.
    """
    hom, shifts, d = ctx.hom_dims(), ctx.oc.shifts, ctx.oc.d
    count = len(ctx.objects)
    # after[k][a] (before[k][a]): the objects X whose dimensions of Ext^l(X_a, X)
    # (of Ext^l(X, X_a)), 1 <= l <= d, are 1 at l = k and 0 elsewhere
    after = [[0] * count for _ in range(d + 1)]
    before = [[0] * count for _ in range(d + 1)]
    cols = shifts[1:d + 1]
    for a, row in enumerate(hom):
        for x in range(count):
            exts = [row[shift[x]] for shift in cols]
            if sum(exts) == 1:
                k = exts.index(1) + 1
                after[k][a] |= 1 << x
                before[k][x] |= 1 << a
    ends = sum(1 << x for x in range(count) if hom[x][x] == 1)
    paths = [(x,) for x in range(count) if ends >> x & 1]
    for m in range(1, d + 1):
        grown = []
        for path in paths:
            # above the least member, apart from the others
            cand = ends & ~((2 << path[0]) - 1)
            for i, a in enumerate(path):
                cand &= after[m - i][a] & before[d + 1 - m + i][a] & ~(1 << a)
            while cand:
                low = cand & -cand
                grown.append(path + (low.bit_length() - 1,))
                cand ^= low
        paths = grown
    return [path for path in paths
            if ext_pattern_ok(ctx, path) and delta_chains_nonzero(ctx, path)]


# ---------------------------------------------------------------------------
# fan-level laws


def _degree_zero_rotations(ctx: TiltingContext, cycle: Sequence[int]) -> List[Tuple[int, ...]]:
    """The rotations of the degrees of `cycle` (object indices) that start at degree 0."""
    degs = fan_degrees(ctx, cycle)
    return [degs[r:] + degs[:r] for r in range(len(degs)) if degs[r] == 0]


def degree_bounds_instances(ctx: TiltingContext, cycle: Sequence[int]) -> Tuple[int, int]:
    """(#rotations with deg X_0 = 0, #those breaking the degree bounds).

    For a rotation starting at degree 0 the next member has degree 0, d or
    d-1, and the i-th member has degree at least d - i for 2 <= i <= d.
    """
    d = ctx.oc.d
    rots = _degree_zero_rotations(ctx, cycle)
    return len(rots), sum(1 for rot in rots if rot[1] not in (0, d, d - 1) or
                          any(rot[i] < d - i for i in range(2, d + 1)))


def degree_profile_instances(ctx: TiltingContext, cycle: Sequence[int]) -> Tuple[int, int]:
    """(#rotations with deg X_0 = 0 != deg X_1, #those off the two-piece profile).

    Such a rotation must satisfy, for some 0 <= k <= d: deg X_i = d - i for
    1 <= i <= k and deg X_i = d + 1 - i for k + 1 <= i <= d.
    """
    d = ctx.oc.d
    rots = [rot for rot in _degree_zero_rotations(ctx, cycle) if rot[1] != 0]
    return len(rots), sum(1 for rot in rots if not any(
        all(rot[i] == d - i for i in range(1, k + 1)) and
        all(rot[i] == d + 1 - i for i in range(k + 1, d + 1)) for k in range(d + 1)))


def middle_supports_disjoint(supports: Sequence[int]) -> bool:
    """Do the middle terms of a fan's triangles, given by their summand
    masks, share no indecomposable summand (no bit is counted twice)?"""
    return sum(s.bit_count() for s in supports) == reduce(or_, supports, 0).bit_count()


def middle_union_rigid(ctx: TiltingContext, cycle: Sequence[int],
                       supports: Sequence[int]) -> bool:
    """Is the union of the middle terms' summand masks `supports` rigid with
    each complement in `cycle` (object indices)?"""
    # the common neighbours of a rigid support extend it to a rigid set
    rigid, common = _closure(ctx, reduce(or_, supports, 0))
    return all(rigid and (common >> i) & 1 for i in cycle)


def hom_one_directional(ctx: TiltingContext, mask: int) -> bool:
    """No two distinct members of the set `mask` with nonzero Hom in both directions."""
    out, into = ctx.hom_masks()
    return not any(out[i] & into[i] & mask & ~(1 << i) for i in _bits(mask))


def successor_hom_vanishing(ctx: TiltingContext, cycle: Sequence[int]) -> bool:
    """Hom(X_i, X_{i+1}) = 0 for consecutive fan members (object indices)."""
    out = ctx.hom_masks()[0]
    return not any(out[a] >> b & 1 for a, b in zip(cycle, cycle[1:] + cycle[:1]))


# ---------------------------------------------------------------------------
# mutation of facets


class NotTiltingError(ValueError):
    """The set given to mutate is not tilting (the CLI words it its own way)."""


def mutate(ctx: TiltingContext, objs: Sequence[Obj], drop: Obj,
           pick: int = 1) -> Tuple[Obj, ...]:
    """Replace `drop` by the pick-th complement along the fan starting there.
    Raises NotTiltingError unless `objs` is tilting, after a ValueError when
    `drop` is not among them."""
    i = ctx.index[ctx.canonical(drop)]
    if i not in ctx.indices(objs):
        raise ValueError("drop object %r is not a summand" % (ctx.objects[i],))
    if not is_tilting(ctx, objs):
        raise NotTiltingError("mutation requires a tilting set")
    almost = ctx.mask_of(objs) & ~(1 << i)
    fan = _fan(ctx, almost)
    return ctx.objs_of(almost | 1 << fan[(fan.index(i) + pick) % len(fan)])


def mutation_graph_checks(ctx: TiltingContext) -> Dict[str, object]:
    """Vertex and edge counts, n*d-regularity and connectivity of the
    mutation graph (cached)."""
    if ctx._graph_checks is None:
        ctx._graph_checks = _graph_checks(ctx)
    return ctx._graph_checks


def _graph_checks(ctx: TiltingContext) -> Dict[str, object]:
    """The counts read from the face table, with no neighbour set built.

    Two distinct facets share at most one codimension-1 face, so a facet's
    degree is the sum over its face groups of (members - 1), and two facets
    are connected exactly when a chain of face groups joins them: each group
    merges its members' components in a union-find forest."""
    table = face_table(ctx)
    count = len(table.facets)
    degree = [0] * count
    parent = list(range(count))
    for members in table.groups():
        others = len(members) - 1
        top = -1
        for a in members:
            degree[a] += others
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            if top < 0:
                top = a
            else:
                parent[a] = top
    want = ctx.n * ctx.oc.d
    roots = sum(1 for a, up in enumerate(parent) if a == up)
    return {"vertices": count, "edges": sum(degree) // 2, "degree": want,
            "regular": all(k == want for k in degree), "connected": roots <= 1}
