"""The cluster complex: rigid subsets labeled by colored roots.

Vertices are the fundamental-domain objects, faces are the rigid subsets,
and facets are the tilting sets, so the complex is pure of dimension n-1.
Each vertex is labeled by a colored root: an object of degree i < d is sent
to its dimension vector with color i+1, and a degree-d object (a shifted
projective) to the negative simple root at its vertex, with color 1.  On
the fundamental domain this labeling is a bijection onto the set of
positive roots in d colors together with the negative simples.

The positive part is the vertex-restriction to degrees < d (no negative
labels); its facets are the tilting sets avoiding the shifted projectives.

Faces are never materialized beyond the facets, which are kept as bitmasks
over the fundamental domain; purity, the facet count and the exports read
the masks, and ClusterComplex.facets names them as object tuples on first
use.  The f-vector is counted by backtracking over compatibility bitmasks,
once per complex (the exports reuse that count), and its last level is
counted by popcount: a face one short of a facet extends to as many facets
as it has common neighbours above its largest member.  The codimension-1
faces of the full complex are listed once per context, with the facets
containing them, in the flat arrays of the face table (mutation.face_table);
the DOT export joins the complex's facets among those containing each
face.  Their statistics come from the complement fans, computed on the
same masks, and each fan must consist of exactly the summands that
complete the face in the enumerated facets.  A fan depends
only on the face's common neighbours, and many faces share one (33176 faces
and 3107 fans on E6 d=2), so each fan is walked once, the table holds each
face's fan as an index among the distinct fans, and a fan's member mask
and color verdict are computed once per facet_stats.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Tuple

from .mutation import face_table
from .orbit import Obj, OrbitCategory
from .tilting import TiltingContext, _bits, enumerate_tilting, facet_masks

ColoredRoot = Tuple[Tuple[int, ...], int, str]   # (root, color, sign)


def gamma(oc: OrbitCategory, x: Obj) -> ColoredRoot:
    """Colored-root label of a canonical object.

    Degree i < d objects keep their dimension vector, colored i+1; degree-d
    objects are projectives P_j and map to the simple root at j, colored 1
    and flagged as negative.
    """
    root, shift = oc.normalize(x)[0]
    deg = shift
    if deg < oc.d:
        return (root, deg + 1, "positive")
    j = oc.proj_vertex[root]
    simple = tuple(1 if v == j else 0 for v in range(len(root)))
    return (simple, 1, "negative-simple")


def colored_roots(oc: OrbitCategory) -> List[ColoredRoot]:
    """All colored roots: positive roots in colors 1..d plus negative simples."""
    out = [(r, c, "positive") for c in range(1, oc.d + 1) for r in oc.cat.roots]
    n = oc.cat.q.rank
    for j in range(n):
        out.append((tuple(1 if v == j else 0 for v in range(n)), 1, "negative-simple"))
    return out


def gamma_is_bijection(oc: OrbitCategory) -> bool:
    labels = [gamma(oc, x) for x in oc.objects()]
    return len(set(labels)) == len(labels) and set(labels) == set(colored_roots(oc))


class ClusterComplex:
    """Facet-level view of the complex (faces implicit via rigidity)."""

    def __init__(self, ctx: TiltingContext, positive_only: bool = False):
        self.ctx = ctx
        self.positive_only = positive_only
        oc = ctx.oc
        self.vertices = [x for x in ctx.objects if not positive_only or oc.degree(x) < oc.d]
        self.labels = {x: gamma(oc, x) for x in self.vertices}
        self.vertex_mask = vertex = ctx.mask_of(self.vertices)
        self.facet_masks = [mask for mask in facet_masks(ctx) if mask & vertex == mask]
        self._f_vector = None

    @property
    def facets(self) -> List[Tuple[Obj, ...]]:
        """The tilting sets within the vertex mask, named by enumerate_tilting."""
        vertex = self.vertex_mask
        return [facet for facet, mask in zip(enumerate_tilting(self.ctx), facet_masks(self.ctx))
                if mask & vertex == mask]


def build_complex(ctx: TiltingContext, positive_only: bool = False) -> ClusterComplex:
    return ClusterComplex(ctx, positive_only)


def f_vector(cpx: ClusterComplex) -> List[int]:
    """Face counts by size, starting from the empty face: [1, f_0, ..., f_{n-1}].

    Counted once per complex; each call returns a fresh copy."""
    if cpx._f_vector is None:
        ctx = cpx.ctx
        counts = [0] * (ctx.n + 1)
        counts[0] = 1
        _count_faces(ctx.adjacency(), ctx.n, cpx.vertex_mask, 0, counts)
        cpx._f_vector = counts
    return list(cpx._f_vector)


def _count_faces(adj: List[int], n: int, cand: int, size: int, counts: List[int]) -> None:
    """Count the faces extending a face of `size` members by members of
    `cand`, all compatible with the face and above its largest member."""
    counts[size + 1] += cand.bit_count()
    if size + 2 > n:
        return
    last = size + 2 == n
    while cand:
        low = cand & -cand
        cand ^= low
        nxt = cand & adj[low.bit_length() - 1]
        if last:
            counts[n] += nxt.bit_count()
        elif nxt:
            _count_faces(adj, n, nxt, size + 1, counts)


def facet_stats(cpx: ClusterComplex) -> Dict[str, object]:
    """Purity, codimension-1 incidence and complement-color census.

    Runs on the full complex: every codimension-1 face must lie in exactly
    d+1 facets, and the colors of its d+1 complements must cover 1..d.  The
    full complex is determined by its context, so the result is kept there.
    """
    ctx = cpx.ctx
    if cpx.positive_only:
        raise ValueError("facet statistics are defined on the full complex")
    if ctx._facet_stats is None:
        ctx._facet_stats = _facet_stats(cpx)
    return ctx._facet_stats


def _facet_stats(cpx: ClusterComplex) -> Dict[str, object]:
    ctx = cpx.ctx
    oc = ctx.oc
    masks = facet_masks(ctx)
    pure = all(mask.bit_count() == ctx.n for mask in masks)
    table = face_table(ctx)
    cycles = table.cycles
    colors = [oc.color(x) for x in ctx.objects]
    all_colors = set(range(1, oc.d + 1))
    # many faces share a fan: its member mask and color verdict, once each
    per_fan = [(sum(1 << i for i in fan), {colors[i] for i in fan} == all_colors)
               for fan in cycles]
    incidence: Dict[int, int] = {}
    colors_ok = True
    for almost, fid, members in zip(table.masks(), table.fan_ids, table.groups()):
        in_fan, covered = per_fan[fid]
        # the fan's members must be exactly the summands completing the
        # face in the enumerated facets, each of which contains the face
        found = 0
        for k in members:
            found |= masks[k]
        found ^= almost
        if found != in_fan:
            raise RuntimeError("codimension-1 face {%s} is completed by %s in the "
                               "facets, but its fan is %s" % (
                                   ", ".join(oc.obj_name(x) for x in ctx.objs_of(almost)),
                                   [oc.obj_name(x) for x in ctx.objs_of(found)],
                                   [oc.obj_name(ctx.objects[i]) for i in cycles[fid]]))
        size = len(cycles[fid])
        incidence[size] = incidence.get(size, 0) + 1
        if not covered:
            colors_ok = False
    return {
        "facets": len(masks),
        "pure": pure,
        "codim1_faces": len(table),
        "codim1_incidence": incidence,
        "codim1_in_d_plus_1": list(incidence) == [oc.d + 1],
        "colors_ok": colors_ok,
    }


# ---------------------------------------------------------------------------
# exports


def _names(ctx: TiltingContext) -> List[str]:
    """The name of each fundamental-domain object, by index."""
    return [ctx.oc.obj_name(x) for x in ctx.objects]


def _label_record(cpx: ClusterComplex, x: Obj, name: str) -> Dict[str, object]:
    root, color, sign = cpx.labels[x]
    return {
        "name": name,
        "root": list(x[0]),
        "shift": x[1],
        "label": {"root": list(root), "color": color, "sign": sign},
    }


def to_json(cpx: ClusterComplex) -> Dict[str, object]:
    """Versioned JSON form of the complex (vertices, labels, facets, f-vector)."""
    ctx = cpx.ctx
    q = ctx.oc.cat.q
    names = _names(ctx)
    return {
        "schema": "cluster-complex",
        "schema_version": 1,
        "diagram": q.diagram,
        "rank": q.rank,
        "orientation": [list(a) for a in q.arrows],
        "d": ctx.oc.d,
        "prime": ctx.oc.cat.p,
        "positive_only": cpx.positive_only,
        "vertices": [_label_record(cpx, x, names[ctx.index[x]]) for x in cpx.vertices],
        "facets": [[names[i] for i in _bits(mask)] for mask in cpx.facet_masks],
        "f_vector": f_vector(cpx),
    }


def facet_graph_dot(cpx: ClusterComplex, name: str) -> str:
    """DOT source, headed `graph <name> {`, for the adjacency of the facets
    of the complex.  Two facets are adjacent when they share a
    codimension-1 face, and two distinct facets share at most one, so the
    edges are the pairs of the complex's facets among those containing each
    face of the face table, each once, in sorted order."""
    ctx = cpx.ctx
    names = _names(ctx)
    vertex = cpx.vertex_mask
    # the node number of each facet of the complex, by position in facet_masks
    node = {}
    for k, mask in enumerate(facet_masks(ctx)):
        if mask & vertex == mask:
            node[k] = len(node)
    lines = ["graph %s {" % name]
    for i, mask in enumerate(cpx.facet_masks):
        lines.append('  f%d [label="%s"];' % (i, " + ".join(names[j] for j in _bits(mask))))
    lines += ["  f%d -- f%d;" % edge for edge in sorted(
        pair for members in face_table(ctx).groups()
        for pair in combinations([node[k] for k in members if k in node], 2))]
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(cpx: ClusterComplex) -> str:
    """DOT source for the facet-adjacency graph of the complex."""
    return facet_graph_dot(cpx, "complex")


def f_vector_text(cpx: ClusterComplex) -> str:
    return " ".join(str(c) for c in f_vector(cpx)) + "\n"
