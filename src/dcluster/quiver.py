"""Simply-laced Dynkin diagrams, quiver orientations, roots and Coxeter data.

Vertices are 0-based.  Canonical layouts:

  A_n : chain 0 - 1 - ... - (n-1)
  D_n : chain 0 - ... - (n-3), plus edges (n-3, n-2) and (n-3, n-1)
  E_n : chain 0 - ... - (n-2), plus edge (2, n-1)          (n = 6, 7, 8)

The default orientation points every edge toward the branch vertex (for A_n,
along the chain: 0 -> 1 -> ... -> n-1).  Any other orientation of the same
underlying diagram is accepted.

The Euler, Cartan and Coxeter matrices are lists of rows of Python ints.  No
matrix product is formed: Phi is applied to vectors by coxeter_map.
"""

from __future__ import annotations

import operator
from collections import Counter, deque
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Root = Tuple[int, ...]
Matrix = List[List[int]]   # an integer matrix as its rows of Python ints


def dynkin_edges(diagram: str, rank: int) -> List[Tuple[int, int]]:
    """Undirected edges of the Dynkin diagram."""
    if diagram == "A":
        if rank < 1:
            raise ValueError("type A needs rank >= 1")
        return [(i, i + 1) for i in range(rank - 1)]
    if diagram == "D":
        if rank < 4:
            raise ValueError("type D needs rank >= 4")
        edges = [(i, i + 1) for i in range(rank - 3)]
        edges += [(rank - 3, rank - 2), (rank - 3, rank - 1)]
        return edges
    if diagram == "E":
        if rank not in (6, 7, 8):
            raise ValueError("type E needs rank 6, 7 or 8")
        edges = [(i, i + 1) for i in range(rank - 2)]
        edges.append((2, rank - 1))
        return edges
    raise ValueError("unknown diagram %r" % (diagram,))


def branch_vertex(diagram: str, rank: int) -> Optional[int]:
    if diagram == "D":
        return rank - 3
    if diagram == "E":
        return 2
    return None


def default_orientation(diagram: str, rank: int) -> List[Tuple[int, int]]:
    """Default arrows: toward the branch vertex (A_n: along the chain)."""
    edges = dynkin_edges(diagram, rank)
    b = branch_vertex(diagram, rank)
    if b is None:
        return list(edges)
    # orient each edge from the endpoint farther from b to the nearer one
    dist = {b: 0}
    adj: Dict[int, List[int]] = {v: [] for v in range(rank)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    queue = deque([b])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return [(u, v) if dist[u] > dist[v] else (v, u) for u, v in edges]


ARROWS_SHAPE = "arrows must be a list of [source, target] vertex pairs"


def _vertex(v) -> int:
    """A vertex number: an integer, but not a bool (JSON true/false)."""
    if isinstance(v, bool):
        raise TypeError("a vertex is not a bool")
    return operator.index(v)


class DynkinQuiver:
    """A Dynkin diagram with a chosen orientation of its edges."""

    def __init__(self, diagram: str, rank: int,
                 arrows: Optional[Sequence[Tuple[int, int]]] = None):
        self.diagram = diagram
        self.rank = rank
        edges = dynkin_edges(diagram, rank)
        if arrows is None:
            arrows = default_orientation(diagram, rank)
        try:
            arrows = [(_vertex(s), _vertex(t)) for s, t in arrows]
        except (TypeError, ValueError):
            raise ValueError(ARROWS_SHAPE) from None
        want = {frozenset(e) for e in edges}
        got = [frozenset(a) for a in arrows]
        if len(arrows) != len(edges) or set(got) != want or len(set(got)) != len(got):
            raise ValueError("arrows do not orient the %s_%d diagram exactly once each"
                             % (diagram, rank))
        self.arrows: Tuple[Tuple[int, int], ...] = tuple(arrows)

    def __repr__(self):
        return "DynkinQuiver(%r, %d, %r)" % (self.diagram, self.rank, list(self.arrows))


def parse_quiver(diagram: str, rank: int, orientation=None) -> DynkinQuiver:
    """Build a quiver; orientation is None/'default' or a list of [s, t] pairs."""
    if orientation in (None, "default"):
        return DynkinQuiver(diagram, rank)
    return DynkinQuiver(diagram, rank, orientation)


def directed_paths(q: DynkinQuiver) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    """All directed paths as {(u, v): arrow index sequence u ~> v}.

    The underlying graph is a tree so there is at most one path per pair;
    (v, v) maps to the empty path.  Each vertex's outgoing (arrow index,
    target) pairs are listed once, before the n breadth-first searches.
    """
    out: List[List[Tuple[int, int]]] = [[] for _ in range(q.rank)]
    for i, (s, t) in enumerate(q.arrows):
        out[s].append((i, t))
    paths: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for u in range(q.rank):
        paths[(u, u)] = ()
        queue = deque([u])
        while queue:
            w = queue.popleft()
            for i, t in out[w]:
                if (u, t) not in paths:
                    paths[(u, t)] = paths[(u, w)] + (i,)
                    queue.append(t)
    return paths


def euler_matrix(q: DynkinQuiver) -> Matrix:
    """Matrix E of the Euler form: <a, b> = a^T E b, E = I - (arrow counts)."""
    e = _identity(q.rank)
    for s, t in q.arrows:
        e[s][t] -= 1
    return e


def cartan_matrix(q: DynkinQuiver) -> Matrix:
    e = euler_matrix(q)
    return [[x + y for x, y in zip(row, col)] for row, col in zip(e, zip(*e))]


def positive_roots(q: DynkinQuiver) -> List[Root]:
    """Positive roots in the simple-root basis, sorted by (height, coords).

    The roots are walked by height along their root strings: for a positive
    root b other than e_i in a simply-laced system, b + e_i is a root exactly
    when (C b)_i = -1, C the Cartan matrix.  Each root keeps its Cartan
    vector C b, and b + e_i gets it plus column i of C, which has at most
    four nonzero entries; so the walk is cubic in the rank, not quartic."""
    c = cartan_matrix(q)
    n = q.rank
    column = [[(j, x) for j, x in enumerate(row) if x] for row in c]   # C is symmetric
    level = {tuple(int(i == j) for j in range(n)): c[i] for i in range(n)}
    roots: List[Root] = []
    while level:
        nxt: Dict[Root, List[int]] = {}
        for beta in sorted(level):
            roots.append(beta)
            cb = level[beta]
            for i, x in enumerate(cb):
                if x == -1:
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if up not in nxt:
                        new = nxt[up] = list(cb)
                        for j, y in column[i]:
                            new[j] += y
        level = nxt
    return roots


class CoxeterData:
    """Coxeter transformation, Coxeter number and exponents of the quiver."""

    def __init__(self, matrix: Matrix, h: int, exponents: Tuple[int, ...]):
        self.matrix = matrix
        self.h = h
        self.exponents = exponents

    def __repr__(self):
        return "CoxeterData(h=%d, exponents=%r)" % (self.h, list(self.exponents))


def _identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def coxeter_map(q: DynkinQuiver) -> Callable[[Sequence[int]], Root]:
    """The Coxeter transformation Phi = -E^{-1} E^T, acting as [tau M] =
    Phi [M], as the map v -> Phi v that tau on roots, coxeter_matrix and the
    order check of coxeter_data all apply.

    Two sparse sweeps over the arrows, set up once: y = E^T v, y_u = v_u -
    sum_{w -> u} v_w, then z = E^{-1} y, z_u = y_u + sum_{u -> t} z_t,
    sinks first (a vertex reaches fewer vertices than any arrow into it
    starts from; the paths from u leave by its arrows, and the underlying
    graph is a tree, so they reach disjoint sets), and Phi v = -z.
    """
    reach = Counter(u for u, _ in directed_paths(q))
    sweep = [(u, [s for s, t in q.arrows if t == u], [t for s, t in q.arrows if s == u])
             for u in sorted(range(q.rank), key=reach.__getitem__)]

    def phi(v: Sequence[int]) -> Root:
        z = list(v)
        for u, sources, targets in sweep:
            zu = z[u]
            for w in sources:
                zu -= v[w]
            for t in targets:
                zu += z[t]
            z[u] = zu
        return tuple([-x for x in z])

    return phi


def coxeter_matrix(q: DynkinQuiver) -> Matrix:
    """Phi as its rows: its columns are the coxeter_map images of the unit
    vectors."""
    return [list(row) for row in zip(*map(coxeter_map(q), _identity(q.rank)))]


def _order_is(q: DynkinQuiver, h: int) -> bool:
    """Has Phi order exactly h: is Phi^k = I first at k = h?  The unit
    vectors are carried through coxeter_map, h times at most."""
    phi = coxeter_map(q)
    images = eye = [tuple(row) for row in _identity(q.rank)]
    for k in range(1, h + 1):
        images = [phi(v) for v in images]
        if images == eye:
            return k == h
    return False


def coxeter_exponents(q: DynkinQuiver) -> Tuple[int, Tuple[int, ...]]:
    """The Coxeter number h and the exponents, read from the root heights.

    The exponents are the dual partition of the numbers of positive roots of
    each height (Kostant), and h is one more than the highest height.  The
    height counts must form a partition, and the n exponents must sum to
    n h / 2.
    """
    counts = Counter(sum(r) for r in positive_roots(q))
    h = max(counts) + 1
    hist = [counts[k] for k in range(1, h)]
    if hist != sorted(hist, reverse=True):
        raise RuntimeError("root height counts %r are not a partition" % hist)
    exponents = tuple(sorted(sum(1 for c in hist if c >= j)
                             for j in range(1, hist[0] + 1)))
    if len(exponents) != q.rank or sum(exponents) != q.rank * h // 2:
        raise RuntimeError("exponent bookkeeping failed: %r" % (exponents,))
    return h, exponents


def coxeter_data(q: DynkinQuiver) -> CoxeterData:
    """Phi, which must have order exactly h, with coxeter_exponents."""
    h, exponents = coxeter_exponents(q)
    if not _order_is(q, h):
        raise RuntimeError("the Coxeter transformation does not have order "
                           "h = %d" % h)
    return CoxeterData(coxeter_matrix(q), h, exponents)


def fomin_reading_count(q: DynkinQuiver, d: int) -> int:
    """prod_i (d h + e_i + 1) / (e_i + 1), as an exact integer, from the h
    and exponents of coxeter_exponents (Phi itself is not built)."""
    h, exponents = coxeter_exponents(q)
    total = Fraction(1)
    for e in exponents:
        total *= Fraction(d * h + e + 1, e + 1)
    if total.denominator != 1:
        raise RuntimeError("facet-count product is not an integer: %s" % total)
    return int(total)
