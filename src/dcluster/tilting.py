"""Rigidity, tilting objects, and their exhaustive enumeration.

Two indecomposables of the orbit category are compatible when all the
intermediate extension groups Ext^k, 1 <= k <= d, vanish between them (the
condition is symmetric by Calabi-Yau duality, and symmetry is asserted, not
assumed).  Rigid sets are cliques of the compatibility graph.  A tilting
set is rigid, and every indecomposable compatible with the whole set already
belongs to it (the definition-level closure condition).  That is also what
maximal rigid means (no proper rigid extension), so is_tilting and
is_maximal_rigid are one predicate.  _closure answers both questions of a
set, rigidity and common neighbours, in one pass over its compatibility rows.

Tilting sets are exactly the complete rigid sets, those with n = rank
elements.  verify_equivalence checks this by brute force: a pivoted
Bron-Kerbosch enumeration of all maximal cliques is compared against an
independent backtracking enumeration of size-n cliques, and the closure
condition is evaluated again on every maximal clique.  The enumeration
yields bitmasks; enumerate_tilting names them only when asked.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, Sequence, Tuple

from .orbit import Obj, OrbitCategory


class TiltingContext:
    """Compatibility bitmasks over the fundamental domain of an orbit category."""

    def __init__(self, oc: OrbitCategory):
        self.oc = oc
        self.objects = oc.objects()
        self.index = oc.index
        self.n = oc.cat.q.rank
        self._adj = None
        self._hom_masks = None
        self._ext1_rows = None
        # results shared by several checks: _facet_masks holds the tilting
        # sets (named in _tilting for enumerate_tilting only), and
        # _face_table the codimension-1 faces (mutation.FaceTable), listed
        # by _grow to n - 1 objects: for each face, in flat arrays, the
        # positions in _facet_masks of the facets containing it and its
        # fan's index among the distinct fans, and, once
        # mutation.fan_middles has passed, each fan's middle terms.
        self._facet_masks = None
        self._tilting = None
        self._face_table = None
        self._facet_stats = None
        self._graph_checks = None
        # memos of the mutation module, which hold object indices and
        # bitmasks, never objects, and nothing per face; the fans are kept
        # only in the face table, once per distinct cycle.
        # _composites maps an index triple (a, mid, b) to the structure
        # constants of Hom(a, mid) x Hom(mid, b) -> Hom(a, b) in Hom-basis
        # coordinates, as rows of ints: the tensor OrbitCategory.compose_tensor
        # keeps once per relative position of the three vertices in ZQ
        # (1813 of them for the 9373 triples of E6 d=2), looked up here
        # without reading a vertex.
        # _approximations maps (right, x, supp), supp the summands with
        # nonzero Hom to (right) or from x, to the pair (multiplicities,
        # factorization verdict), all that a triangle reads of it; the
        # generators are kept only per rank problem, in _radical_tops.
        # Few distinct multiplicity tuples occur (751 among the 26460
        # approximations of E7 d=1), so _shared_tuples keeps one copy of
        # each.  Approximations are built from two smaller rank
        # problems: _radical_tops maps (a, b, mask of summands t with Hom(a, t)
        # and Hom(t, b) nonzero) to the generators of Hom(a, b) mod the
        # radical, and _covers maps (right, a, b, ((t, generators), ...)) to
        # whether the generators at those summands span Hom(a, b).
        # _chains maps a cycle, as the tuple of indices asked, to whether
        # its composites of connecting classes are all nonzero
        # (delta_chains_nonzero): the exchange-team search asks again for
        # every fan that delta-composites has composed (35 of the 35 teams
        # of A3 d=2 are hits).
        # _end_defects masks the objects whose End is not one-dimensional.
        self._composites = {}
        self._approximations = {}
        self._shared_tuples = {}
        self._radical_tops = {}
        self._covers = {}
        self._chains = {}
        self._end_defects = None

    def adjacency(self) -> List[int]:
        """Irreflexive compatibility bitmasks; checks self-rigidity and symmetry.

        Ext^k(X_j[k], -) = Hom(X_j, -) and Ext^k(-, X_i) = Hom(-, X_i[k]), so
        for 1 <= k <= d the objects Y with some Ext^k(X_i, Y) != 0 are an OR
        of d rows of out, and those with some Ext^k(Y, X_i) != 0 an OR of d
        rows of into.  Compatibility is symmetric when the two agree."""
        if self._adj is not None:
            return self._adj
        out, into = self.hom_masks()
        m = len(self.objects)
        ext_out, ext_in = [0] * m, [0] * m
        for shift in self.oc.shifts[1:self.oc.d + 1]:
            for j, sj in enumerate(shift):
                ext_out[sj] |= out[j]
                ext_in[j] |= into[sj]
        adj = []
        full = (1 << m) - 1
        for i, (row, col) in enumerate(zip(ext_out, ext_in)):
            bit = 1 << i
            # the first defect in row order, the row's own rigidity before its pairs
            if (row | col) & bit:
                raise RuntimeError("indecomposable %r is not rigid" % (self.objects[i],))
            pairs = row ^ col
            if pairs:
                j = (pairs & -pairs).bit_length() - 1
                raise RuntimeError("compatibility is not symmetric for %r, %r"
                                   % (self.objects[i], self.objects[j]))
            adj.append(full & ~row & ~bit)
        self._adj = adj
        return adj

    def hom_dims(self) -> List[List[int]]:
        """dim Hom(X_i, X_j) at [i][j]: the rows of the Hom table, for the fan
        layer's rank problems and Ext patterns."""
        return self.oc.hom_table

    def hom_masks(self) -> Tuple[List[int], List[int]]:
        """Nonzero-Hom bitmasks (out, into): bit j of out[i] and bit i of
        into[j] are set when Hom(X_i, X_j) != 0, read from the Hom table."""
        if self._hom_masks is None:
            self._hom_masks = _nonzero_masks(self.oc.hom_table)
        return self._hom_masks

    def ext1_rows(self) -> List[int]:
        """Nonzero-Ext^1 bitmasks: bit j of row i is set when Ext^1(X_i, X_j)
        = Hom(X_i[-1], X_j) != 0."""
        if self._ext1_rows is None:
            out = self.hom_masks()[0]
            rows = [0] * len(out)
            for j, sj in enumerate(self.oc.shifts[1]):
                rows[sj] = out[j]    # Ext^1(X_j[1], -) = Hom(X_j, -)
            self._ext1_rows = rows
        return self._ext1_rows

    def canonical(self, x: Obj) -> Obj:
        """The fundamental-domain representative of x; x itself when it is one."""
        return x if x in self.index else self.oc.normalize(x)[0]

    def indices(self, objs: Sequence[Obj]) -> List[int]:
        """Positions in the fundamental domain of the normalized objects."""
        index = self.index
        return [index[x] if x in index else index[self.oc.normalize(x)[0]] for x in objs]

    def mask_of(self, objs: Sequence[Obj]) -> int:
        """Bitmask of the normalized objects.  A repeated summand is rejected,
        since add(T + T) = add(T) has no approximation that counts both copies."""
        mask = 0
        for i in self.indices(objs):
            if (mask >> i) & 1:
                raise ValueError("summand %r is repeated" % (self.objects[i],))
            mask |= 1 << i
        return mask

    def objs_of(self, mask: int) -> Tuple[Obj, ...]:
        return tuple(self.objects[i] for i in _bits(mask))


# byte v -> b"0" if v == 0 else b"1"
_NONZERO = bytes([48] + [49] * 255)


def _nonzero_masks(table: List[List[int]]) -> Tuple[List[int], List[int]]:
    """(rows, cols) for a square table of ints in 0..255: bit j of rows[i] and
    bit i of cols[j] are set when table[i][j] != 0.  The table is packed once
    as the bytes b"0"/b"1", in reverse order, so every row and every column
    is one slice, most significant bit first, read in base 2."""
    n = len(table)
    flat = bytes(chain.from_iterable(table)).translate(_NONZERO)[::-1]
    # flat[k] is entry n * n - 1 - k: row i is flat[(n - 1 - i) * n:(n - i) * n]
    # and column j is flat[n - 1 - j::n]
    rows = [int(flat[k:k + n], 2) for k in range((n - 1) * n, -1, -n)]
    cols = [int(flat[k::n], 2) for k in range(n - 1, -1, -1)]
    return rows, cols


def _bits(mask: int) -> List[int]:
    """The set bits of `mask`, least first, as a list.  The hot loops walk
    `low = mask & -mask` inline instead of calling this."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _closure(ctx: TiltingContext, mask: int) -> Tuple[bool, int]:
    """(is the set `mask` rigid, its common neighbours), in one pass over the
    members' compatibility rows, each with the member's own bit added."""
    adj = ctx.adjacency()
    near = (1 << len(ctx.objects)) - 1
    rest = mask
    while rest:
        low = rest & -rest
        near &= adj[low.bit_length() - 1] | low
        rest ^= low
    return mask & ~near == 0, near & ~mask


def _closure_of(ctx: TiltingContext, objs: Sequence[Obj]) -> Tuple[bool, int]:
    """_closure of the normalized objects, not rigid if one is repeated."""
    idx = set(ctx.indices(objs))
    rigid, common = _closure(ctx, sum(1 << i for i in idx))
    return rigid and len(idx) == len(objs), common


def is_rigid(ctx: TiltingContext, objs: Sequence[Obj]) -> bool:
    """Pairwise compatible, with no object repeated."""
    return _closure_of(ctx, objs)[0]


def is_tilting(ctx: TiltingContext, objs: Sequence[Obj]) -> bool:
    """Rigid, and add-closure contains everything compatible with the set."""
    rigid, common = _closure_of(ctx, objs)
    return rigid and common == 0


# Maximal rigid is the same predicate: a rigid set has a proper rigid
# extension exactly when some object outside it is compatible with all of it,
# i.e. is a common neighbour.
is_maximal_rigid = is_tilting


def complete_to_tilting(ctx: TiltingContext, objs: Sequence[Obj]) -> Tuple[Obj, ...]:
    """Greedy extension in canonical object order; result passes is_tilting."""
    if not is_rigid(ctx, objs):
        raise ValueError("starting set is not rigid")
    return ctx.objs_of(complete_mask(ctx, ctx.mask_of(objs)))


def complete_mask(ctx: TiltingContext, mask: int) -> int:
    """Greedy extension of the rigid set `mask` by its least common neighbour
    until none is left, narrowing the common neighbours by each added
    summand's row; the result must be rigid, and so tilting."""
    adj = ctx.adjacency()
    cand = _closure(ctx, mask)[1]
    while cand:
        low = cand & -cand
        mask |= low
        cand &= adj[low.bit_length() - 1]
    if not _closure(ctx, mask)[0]:
        raise RuntimeError("greedy completion failed to reach a tilting object")
    return mask


def maximal_rigid_sets(ctx: TiltingContext) -> List[int]:
    """All maximal cliques of the compatibility graph (pivoted Bron-Kerbosch)."""
    m = len(ctx.objects)
    out: List[int] = []
    _bron_kerbosch(ctx.adjacency(), 0, (1 << m) - 1, 0, out)
    return out


def _bron_kerbosch(adj: List[int], r: int, p: int, x: int, out: List[int]) -> None:
    if p == 0 and x == 0:
        out.append(r)
        return
    # the pivot is the first u of P | X, in index order, with the most
    # neighbours in P; the order of the output depends on that choice
    pux = p | x
    pivot, best = 0, -1
    while pux:
        low = pux & -pux
        u = low.bit_length() - 1
        deg = (p & adj[u]).bit_count()
        if deg > best:
            pivot, best = u, deg
        pux ^= low
    rest = p & ~adj[pivot]
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        _bron_kerbosch(adj, r | low, p & adj[v], x & adj[v], out)
        p ^= low
        x |= low
        rest ^= low


def facet_masks(ctx: TiltingContext) -> List[int]:
    """All rigid sets of size exactly n as bitmasks, by ordered backtracking (cached)."""
    if ctx._facet_masks is None:
        out: List[int] = []
        _grow(ctx.adjacency(), ctx.n, 0, (1 << len(ctx.objects)) - 1, 0, 0,
              lambda mask, common: out.append(mask))
        ctx._facet_masks = out
    return ctx._facet_masks


def enumerate_tilting(ctx: TiltingContext) -> List[Tuple[Obj, ...]]:
    """The tilting sets as object tuples, in the order of facet_masks (cached)."""
    if ctx._tilting is None:
        ctx._tilting = [ctx.objs_of(mask) for mask in facet_masks(ctx)]
    return ctx._tilting


def _grow(adj: List[int], n: int, mask: int, cand: int, size: int, start: int,
          emit: Callable[[int, int], None]) -> None:
    """Call emit(set, its common neighbours) on each rigid set of n objects
    extending the rigid set `mask`, of `size` objects and common neighbours
    `cand`, by objects of index `start` or more, in the order of the sets'
    tuples of object indices."""
    if size == n:
        emit(mask, cand)
        return
    rest = cand >> start << start
    if size + rest.bit_count() < n:
        return
    while rest:
        low = rest & -rest
        j = low.bit_length() - 1
        _grow(adj, n, mask | low, cand & adj[j], size + 1, j + 1, emit)
        rest ^= low


def verify_equivalence(ctx: TiltingContext) -> Dict[str, object]:
    """The three-way-equivalence check; raises on self/symmetry defects."""
    maximal = set(maximal_rigid_sets(ctx))
    complete = set(facet_masks(ctx))
    sizes = sorted({mask.bit_count() for mask in maximal})
    closure_ok = all(_closure(ctx, mask) == (True, 0) for mask in maximal)
    return {
        "count": len(maximal),
        "maximal_sizes": sizes,
        "maximal_equals_complete": maximal == complete,
        "all_sizes_n": sizes == [ctx.n],
        "closure_ok": closure_ok,
        "ok": maximal == complete and sizes == [ctx.n] and closure_ok,
    }
