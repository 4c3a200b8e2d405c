"""Fomin-Reading compatibility on colored almost positive roots, from root
combinatorics alone: no Hom, Ext or module enters.

The colored almost positive roots of Delta^d(Phi) are alpha^k, for alpha
positive and 1 <= k <= d, and (-alpha_i)^1.  A root is a tuple of
coordinates in the simple roots, so -alpha_i is the negated unit vector;
a colored root is (root, color).  The rotation is R_d(alpha^k) = alpha^(k+1)
for alpha positive and k < d, and (R alpha)^1 otherwise, for one of two
forms of R on the almost positive roots:

- bipartite_r, Fomin-Reading's own: R = tau_- tau_+, tau_+ applied first,
  where I_+ is the set of sinks of a bipartite orientation and tau_eps
  fixes -alpha_i for i in I_-eps and otherwise applies the product of the
  reflections s_i, i in I_eps, read from the Cartan matrix (Fomin and
  Zelevinsky, Y-systems and generalized associahedra, 2003);
- coxeter_r, for any orientation, from the Coxeter transformation c:
  alpha -> -alpha_j when alpha = dim P_j, c alpha for any other positive
  alpha, and -alpha_j -> -c dim P_j, which is dim I_j.

Compatibility is R_d-invariant and is given directly at a negative simple:
(-alpha_i)^1 is compatible with every other negative simple, and with
beta^k iff beta has coefficient 0 at alpha_i.  compatibility decides a pair
by rotating both until one is a negative simple, at every such step of the
pair's orbit, and asserts that the verdicts agree (Fomin-Reading's
well-definedness).
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Dict, List, Sequence, Tuple

Root = Tuple[int, ...]
ColoredRoot = Tuple[Root, int]


def cartan(rank: int, edges: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """The simply-laced Cartan matrix of the graph: 2 on the diagonal, -1 at
    each edge, whichever way it is oriented."""
    c = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for u, v in edges:
        c[u][v] = c[v][u] = -1
    return c


def reflect(c: List[List[int]], i: int, root: Root) -> Root:
    """s_i(root) = root - (C root)_i alpha_i."""
    pair = sum(x * y for x, y in zip(c[i], root))
    return root[:i] + (root[i] - pair,) + root[i + 1:]


def positive_roots(c: List[List[int]]) -> List[Root]:
    """The positive roots, closing the simple roots under the reflections
    that keep a root positive."""
    n = len(c)
    found = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    todo = list(found)
    while todo:
        root = todo.pop()
        for i in range(n):
            image = reflect(c, i, root)
            if min(image) >= 0 and image not in found:
                found.add(image)
                todo.append(image)
    return sorted(found)


def negative_simple(n: int, i: int) -> Root:
    return tuple(-int(i == j) for j in range(n))


def bipartite_r(rank: int, edges: Sequence[Tuple[int, int]],
                sinks: Sequence[int]) -> Callable[[Root], Root]:
    """R = tau_- tau_+ with I_+ = `sinks`, on the almost positive roots."""
    c = cartan(rank, edges)
    plus = sorted(sinks)
    minus = [i for i in range(rank) if i not in plus]

    def tau(side: List[int], other: List[int], root: Root) -> Root:
        if min(root) < 0 and root.index(-1) in other:
            return root
        for i in side:
            root = reflect(c, i, root)
        return root

    return lambda root: tau(minus, plus, tau(plus, minus, root))


def coxeter_r(cox: List[List[int]], proj: Sequence[Root]) -> Callable[[Root], Root]:
    """R from the Coxeter matrix `cox` and the dimension vectors proj[j] of
    the projectives P_j."""
    at = {root: j for j, root in enumerate(proj)}
    n = len(proj)

    def apply(root: Root) -> Root:
        return tuple(sum(x * y for x, y in zip(row, root)) for row in cox)

    def r(root: Root) -> Root:
        if min(root) < 0:
            return tuple(-x for x in apply(proj[root.index(-1)]))
        if root in at:
            return negative_simple(n, at[root])
        return apply(root)

    return r


def colored_roots(positive: Sequence[Root], d: int) -> List[ColoredRoot]:
    """alpha^k for the positive roots and 1 <= k <= d, then the (-alpha_i)^1."""
    n = len(positive[0])
    return ([(root, k) for k in range(1, d + 1) for root in positive]
            + [(negative_simple(n, i), 1) for i in range(n)])


def rotation(r: Callable[[Root], Root], d: int) -> Callable[[ColoredRoot], ColoredRoot]:
    """R_d on colored roots."""
    def rd(x: ColoredRoot) -> ColoredRoot:
        root, k = x
        if min(root) >= 0 and k < d:
            return root, k + 1
        return r(root), 1
    return rd


def compatibility(labels: Sequence[ColoredRoot],
                  rd: Callable[[ColoredRoot], ColoredRoot]) -> List[List[bool]]:
    """compatible[a][b] for the colored roots `labels`, which R_d must
    permute; the diagonal is False.  Each label's R_d-orbit is walked once;
    a pair is read at every step where one of the two is a negative simple,
    and all those verdicts must agree."""
    index: Dict[ColoredRoot, int] = {x: a for a, x in enumerate(labels)}
    step = [index[rd(x)] for x in labels]
    assert sorted(step) == list(range(len(labels))), "R_d does not permute the labels"
    # the order of R_d: the lcm of its cycle lengths
    order = 1
    for a in range(len(labels)):
        length, b = 1, step[a]
        while b != a:
            length, b = length + 1, step[b]
        order = lcm(order, length)
    orbit = [[a] for a in range(len(labels))]
    for path in orbit:
        for _ in range(order - 1):
            path.append(step[path[-1]])
    # neg[x] is i when label x is (-alpha_i)^1, else -1, and at[a] lists the
    # steps at which a's orbit is at a negative simple
    neg = [root.index(-1) if min(root) < 0 else -1 for root, _ in labels]
    at = [[t for t, x in enumerate(path) if neg[x] >= 0] for path in orbit]

    def base(x: int, y: int) -> bool:
        """(-alpha_i)^1 = labels[x] against labels[y] != labels[x]."""
        return neg[y] >= 0 or labels[y][0][neg[x]] == 0

    size = len(labels)
    out = [[False] * size for _ in range(size)]
    for a in range(size):
        for b in range(a + 1, size):
            pa, pb = orbit[a], orbit[b]
            verdicts = ({base(pa[t], pb[t]) for t in at[a]}
                        | {base(pb[t], pa[t]) for t in at[b]})
            assert len(verdicts) == 1, (labels[a], labels[b], verdicts)
            out[a][b] = out[b][a] = verdicts.pop()
    return out
