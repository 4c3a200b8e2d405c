"""The orbit category C_d of the bounded derived category by F = tau^{-1}[d].

Objects are pairs (root, shift) of an indecomposable's dimension vector and
an integer shift; each orbit of F meets the canonical window

    0 <= shift <= d-1          (any indecomposable), or
    shift == d                 (projectives only)

exactly once, and the window is the fundamental domain of C_d.  Every Hom
dimension is read from one square table over the fundamental domain, rows of
Python ints built from the Euler form and the Coxeter tau, without knitting a
module.  The shift [1] is an autoequivalence of C_d, so it permutes the
fundamental domain; a table of its powers gives the index of each X[k], and
Ext^k(X, Y) = Hom(X, Y[k]) is the Hom table read at the column of Y[k].

Morphisms live in the mesh category k(ZQ), which is D^b(kQ) for Dynkin Q
(Happel).  Vertex (m, i) of ZQ is tau^{-m} P_i; a Q-arrow s -> t gives the
arrows (m, t) -> (m, s) and (m, s) -> (m+1, t), and the mesh relation at z
sums the paths tau z -> w -> z.  The shift relabels vertices by
S(m, i) = (m + k_i + 1, j_i), where (k_i, j_i) is the vertex of I_i (because
P_i[1] = tau^{-1} I_i), and F by phi(v) = S^d(tau^{-1} v).  So for canonical
X, Y with vertices x, y, Hom_C(X, Y) = Hom(x, y) (+) Hom(x, phi y) (no other
F^l Y contributes), composition is path composition, and F^l acts on a path
by relabelling its vertices with phi^l: no F matrix is ever filled.

On the first morphism call, Hom((0, i), -) is knitted once per vertex i of
Q (tau^{-m} moves it to level m), and every Hom_C dimension it gives is
checked against the table, one whole row at a time.  Level by level, sinks
of Q first, Hom(x, z) for z != x is the cokernel of the mesh map
Hom(x, tau z) -> (+)_{w -> z} Hom(x, w), until a whole level is zero.  Its
basis is the greedy complement of the mesh map's image, which
linalg.complement_rows picks from the relation's rows R, so each basis
vector is a single path (a basis path of some Hom(x, w), then the arrow
w -> z) and the arrow maps of Hom(x, -) are blocks of the cokernel
projection, the reduced rows of [R | I] below the rank.  The knits of one
context share a memo of these reductions (knit_setup), so each distinct
mesh relation is reduced once per context (E6: 32 of 174).  The matrices are
tiny (often 1 x 1), so the knit keeps them as lists of Python ints, and so
does everything built from them: path_rows multiplies the arrow maps along
a path once per context, keyed by the source's vertex of Q and the path
relative to the source's level, and compose_tensor stacks those products
into rows of ints for three objects given by their indices, once per
context and relative position of their vertices (k(ZQ) is invariant under
moving every vertex up a level), which it reads from the per-index list
`vertices`.  A morphism of C_d is kept as its coordinates in these path
bases, slot 0 then slot 1.
g . f is f carried along the paths of g through the arrow maps of Hom(x, -),
with g's slot-0 paths relabelled by phi (push_piece) for the term through
F(Y); the slot-2 term must vanish.  compose_tensor is its batched form over
two Hom bases: the same path maps, applied to identity blocks.  The
CMorphism half keeps its coordinates as numpy vectors (path_map wraps
path_rows as an array); the tests keep it as the per-pair oracle of
compose_tensor, and it is the only part of this module that loads numpy
(through linalg.numpy, on first use).

Shifts of morphisms are implemented downward only (src/tgt both [-1]), so
re-canonicalization only ever applies F forward.  Ext^k classes are kept in
the convention Hom_C(normalize(X[-k]), Y), which makes Yoneda composition a
plain composition after one downward shift.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import add, itemgetter
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from . import linalg
from .quiver import _identity
from .reps import ModuleCategory

if TYPE_CHECKING:
    import numpy as np

Obj = Tuple[Tuple[int, ...], int]   # (root, shift)
Vertex = Tuple[int, int]            # (m, i): the vertex tau^{-m} P_i of ZQ
Path = Tuple[Vertex, ...]           # consecutive vertices joined by arrows
Rows = Tuple[Tuple[int, ...], ...]  # a matrix over F_p as its rows of Python ints
# a "piece" is a linear combination of paths with common ends: ((c, path), ...)
VertexMap = Tuple[Vertex, ...]      # (m, i) -> (m + a, j) stored as (a, j) at i
WIDE_WINDOW = 4                     # slots on each side of 0..d that hom_dim_wide sums


class CMorphism:
    """A morphism of the orbit category between canonical-window objects.

    pieces[l] is None (zero) or the coordinate vector, in the path basis, of
    a morphism X -> F^l(Y) of the derived category.
    """

    def __init__(self, src: Obj, tgt: Obj, pieces: Dict[int, Optional[np.ndarray]]):
        self.src = src
        self.tgt = tgt
        self.pieces = {0: pieces.get(0), 1: pieces.get(1)}

    def __repr__(self):
        coords = {l: None if c is None else c.tolist() for l, c in self.pieces.items()}
        return "CMorphism(%r -> %r, %r)" % (self.src, self.tgt, coords)


class OrbitCategory:
    def __init__(self, cat: ModuleCategory, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.cat = cat
        self.d = d
        self.proj_roots = frozenset(cat.proj_root)
        self.inj_roots = frozenset(cat.inj_root)
        self.inj_vertex = {cat.inj_root[x]: x for x in range(cat.q.rank)}
        self.proj_vertex = {cat.proj_root[x]: x for x in range(cat.q.rank)}
        # the mesh category (_mesh) is knitted on the first morphism call;
        # (source vertex, target vertex) -> the basis paths of its Hom,
        # (source vertex of Q, path relative to the source's level) -> the
        # rows of the path's map on Hom(source, -), and (x's vertex of Q,
        # y and z relative to x's level) -> the composition tensor of the
        # vertex triple (x, y, z)
        self._paths: Dict[Tuple[Vertex, Vertex], List[Path]] = {}
        self._path_rows: Dict[Tuple[int, Path], Rows] = {}
        self._tensors: Dict[Tuple[int, Vertex, Vertex], Rows] = {}
        # normalized y -> its slots F^l y, l = -WIDE_WINDOW, ..., for hom_dim_wide
        self._orbits: Dict[Obj, List[Obj]] = {}
        # (x, y) -> hom_basis(x, y), for normalized x and y
        self._hom_bases: Dict[Tuple[Obj, Obj], List[CMorphism]] = {}
        # position of each canonical object in objects(); hom_table and
        # shifts are built over them on the first dimension query
        self.index = {x: i for i, x in enumerate(self.objects())}

    # -- objects -------------------------------------------------------------

    def objects(self) -> List[Obj]:
        """The fundamental domain, in canonical order (shift, then root)."""
        out = [(r, s) for s in range(self.d) for r in self.cat.roots]
        out += [(r, self.d) for r in self.cat.roots if r in self.proj_roots]
        return out

    def obj_name(self, obj: Obj) -> str:
        return "root#%d[%d]" % (self.cat.root_index[obj[0]], obj[1])

    def parse_name(self, name: str) -> Obj:
        m = re.fullmatch(r"root#(-?\d+)\[(-?\d+)\]", name.strip())
        if m is None:
            raise ValueError("bad object name %r: expected root#<index>[<shift>]"
                             % name)
        i, shift = int(m.group(1)), int(m.group(2))
        if not 0 <= i < len(self.cat.roots):
            raise ValueError("%r: root index must be in 0..%d"
                             % (name, len(self.cat.roots) - 1))
        obj = (self.cat.roots[i], shift)
        if not self.is_canonical(obj):
            raise ValueError("%r is not in the fundamental domain" % name)
        return obj

    def obj_F(self, obj: Obj) -> Obj:
        root, s = obj
        if root in self.inj_roots:
            return (self.cat.proj_root[self.inj_vertex[root]], s + self.d + 1)
        return (self.cat.tau_minus[root], s + self.d)

    def obj_F_inv(self, obj: Obj) -> Obj:
        root, s = obj
        if root in self.proj_roots:
            return (self.cat.inj_root[self.proj_vertex[root]], s - self.d - 1)
        return (self.cat.tau_plus[root], s - self.d)

    def is_canonical(self, obj: Obj) -> bool:
        root, s = obj
        return 0 <= s <= self.d - 1 or (s == self.d and root in self.proj_roots)

    def normalize(self, obj: Obj) -> Tuple[Obj, int]:
        """(canonical representative c, e) with obj = F^e(c)."""
        e = 0
        cur = obj
        while not self.is_canonical(cur):
            if cur[1] < 0:
                cur = self.obj_F(cur)
                e -= 1
            else:
                cur = self.obj_F_inv(cur)
                e += 1
        return cur, e

    def degree(self, obj: Obj) -> int:
        c, _ = self.normalize(obj)
        return c[1]

    def color(self, obj: Obj) -> int:
        deg = self.degree(obj)
        return deg + 1 if deg <= self.d - 1 else 1

    # -- dimensions ----------------------------------------------------------

    def piece_dim(self, src: Obj, tgt: Obj) -> int:
        """dim Hom_D(A[i], B[s]) for stalks of modules A, B."""
        gap = tgt[1] - src[1]
        if gap == 0:
            return self.cat.hom_dim(src[0], tgt[0])
        if gap == 1:
            return self.cat.ext_dim(src[0], tgt[0])
        return 0

    @cached_property
    def hom_table(self) -> List[List[int]]:
        """hom_table[i][j] = dim Hom_C(X_i, X_j) over objects(), as rows of
        Python ints, built on the first dimension query from the Euler form:
        Dynkin indecomposables are directing (Ringel), so for roots a, b dim
        Hom = max(<a, b>, 0) and dim Ext^1 = max(-<a, b>, 0).  The entry adds
        those pieces of X_i against X_j and F X_j (piece_dim, the oracle,
        reads the same pieces from linear algebra); no object is normalized.

        Each row is put together from blocks over the roots of one slot.
        X_i = (a, s) meets X_j = (b, t) at gap t - s, so its row holds Hom(a, -)
        at slot s and Ext^1(a, -) at slot s + 1.  F X_j lies d slots above
        X_j (d + 1 for X_j injective), so the F part adds to the rows in slots
        d - 1 and d only: from slot d - 1, Ext^1(a, tau^-1 b) at slot 0; from
        slot d, Hom(a, tau^-1 b), or Ext^1(a, P_x) for b = I_x, at slot 0 and
        Ext^1(a, tau^-1 b) at slot 1.  Slot d holds the projective roots only.
        The table is built row by row, so building it needs little more
        memory than the table itself."""
        cat, d = self.cat, self.d
        roots, index = cat.roots, cat.root_index
        size = len(roots)
        # <a, b> for all roots, one row addition each: <e_u, b> = (E b)_u sums
        # E[u, v] b_v over the nonzero entries of the Euler matrix that
        # euler_pairing reads, and a root of height > 1 is a smaller root
        # plus a simple root e_i
        cols = list(zip(*roots))
        simple = [[0] * size for _ in cols]
        for u, v, e in cat.euler_terms:
            simple[u] = [x + e * y for x, y in zip(simple[u], cols[v])]
        # the simple roots come first, sorted by their coordinates
        pairing = [simple[a.index(1)] for a in roots[:len(cols)]]
        for a in roots[len(cols):]:
            for i, c in enumerate(a):
                if c:
                    k = index.get(a[:i] + (c - 1,) + a[i + 1:])
                    if k is not None:
                        pairing.append(list(map(add, pairing[k], simple[i])))
                        break
        # per root a: Hom(a, -), then Ext^1(a, -), each over the roots b
        hom_ext = [[x if x > 0 else 0 for x in row] + [-x if x < 0 else 0 for x in row]
                   for row in pairing]
        n = len(self.index)
        table = []
        for s in range(d - 1):
            for row_ab in hom_ext:
                row = [0] * n
                row[s * size:(s + 2) * size] = row_ab
                table.append(row)
        # the rows of slots d - 1 and d, each one gather of its n >= 2 entries
        # from hom_ext[a] and a zero at position zero (two gathers, added,
        # where blocks overlap, which happens for d = 1)
        zero = 2 * size
        fhom_at, fext_at = [], []
        for b in roots:
            if b in self.inj_roots:
                fhom_at.append(size + index[cat.proj_root[self.inj_vertex[b]]])
                fext_at.append(zero)
            else:
                fhom_at.append(index[cat.tau_minus[b]])
                fext_at.append(size + index[cat.tau_minus[b]])
        proj = [k for k, r in enumerate(roots) if r in self.proj_roots]
        ext_p, fext_p = [size + k for k in proj], [fext_at[k] for k in proj]
        padded = [row + [0] for row in hom_ext]
        for sources, parts in (
                (range(size), [(d - 1, range(size)), (d, ext_p), (0, fext_at)]),
                (proj, [(d, proj), (0, fhom_at), (1, fext_at if d > 1 else fext_p)])):
            first, second = [zero] * n, [zero] * n
            filled = set()
            for t, at in parts:
                (second if t in filled else first)[t * size:t * size + len(at)] = at
                filled.add(t)
            gather = itemgetter(*first)
            if len(filled) == len(parts):
                table += [list(gather(padded[a])) for a in sources]
            else:
                also = itemgetter(*second)
                table += [list(map(add, gather(padded[a]), also(padded[a])))
                          for a in sources]
        return table

    @cached_property
    def shifts(self) -> List[List[int]]:
        """shifts[k][j] is the index in objects() of X_j[k], normalized, for
        0 <= k <= d+1: one normalize per object gives [1], and [k] is its
        k-th power.  [1] is an autoequivalence of C, so it permutes the
        fundamental domain, and Ext^k(X_i, X_j) = Hom(X_i, X_j[k]) is
        hom_table[i][shifts[k][j]]."""
        one = [self.index[self.normalize((root, s + 1))[0]] for root, s in self.objects()]
        out = [list(range(len(one)))]
        for _ in range(self.d + 1):
            out.append([one[j] for j in out[-1]])
        return out

    def ext_dim(self, x: Obj, y: Obj, k: int) -> int:
        """dim Hom(X, Y[k]), hom_table at the column of Y[k]; objects outside the
        fundamental domain and k outside 0..d+1 are normalized, read at k = 0."""
        i, j = self.index.get(x), self.index.get(y)
        if i is None or j is None or not 0 <= k <= self.d + 1:
            i = self.index[self.normalize(x)[0]]
            j = self.index[self.normalize((y[0], y[1] + k))[0]]
            k = 0
        return self.hom_table[i][self.shifts[k][j]]

    def hom_dim(self, x: Obj, y: Obj) -> int:
        return self.ext_dim(x, y, 0)

    def hom_dim_wide(self, x: Obj, y: Obj) -> int:
        """Brute-force orbit sum of piece_dim(x, F^l y) over the 2 WIDE_WINDOW + d
        slots l from -WIDE_WINDOW (test oracle).  The orbit of each normalized
        y is walked once (_orbits) and read for every x."""
        x = self.normalize(x)[0]
        y = self.normalize(y)[0]
        orbit = self._orbits.get(y)
        if orbit is None:
            cur = y
            for _ in range(WIDE_WINDOW):
                cur = self.obj_F_inv(cur)
            orbit = []
            for _ in range(2 * WIDE_WINDOW + self.d):
                orbit.append(cur)
                cur = self.obj_F(cur)
            self._orbits[y] = orbit
        return sum(self.piece_dim(x, z) for z in orbit)

    # -- the mesh category k(ZQ) ----------------------------------------------

    @cached_property
    def _relabellings(self) -> tuple:
        """(vertex of each module root, S, S^-1, phi) as vertex maps."""
        cat = self.cat
        root_vertex: Dict[Tuple[int, ...], Vertex] = {}
        for i, root in enumerate(cat.proj_root):
            m = 0
            while root is not None:
                root_vertex[root] = (m, i)
                root, m = cat.tau_minus[root], m + 1
        shift = tuple((m + 1, j) for m, j in (root_vertex[r] for r in cat.inj_root))
        unshift = [None] * len(shift)
        for i, (a, j) in enumerate(shift):
            unshift[j] = (-a, i)
        phi = _then(tuple((1, i) for i in range(len(shift))),
                    *([shift] * self.d))
        return root_vertex, shift, tuple(unshift), phi

    def vertex(self, obj: Obj) -> Vertex:
        """The vertex of ZQ of an object (root, shift): S^shift of its module's."""
        root_vertex, shift, unshift, _ = self._relabellings
        step = shift if obj[1] >= 0 else unshift
        v = root_vertex[obj[0]]
        for _ in range(abs(obj[1])):
            v = _apply(step, v)
        return v

    @cached_property
    def vertices(self) -> List[Vertex]:
        """vertices[i] is the vertex of ZQ of X_i, over objects()."""
        return [self.vertex(x) for x in self.objects()]

    def phi(self, v: Vertex) -> Vertex:
        """F on vertices: phi(v) = S^d(tau^{-1} v)."""
        return _apply(self._relabellings[3], v)

    @cached_property
    def _mesh(self) -> List["HomFrom"]:
        """Hom((0, i), -) for every vertex i of Q, knitted on the first
        morphism call with one knit_setup (its memo goes with this call) and
        checked against the dimension table: for every canonical X and Y,
        dim Hom(x, y) + dim Hom(x, phi y) must be the table's dim Hom_C(X, Y).

        The check compares whole rows.  knit[i] lists dim Hom((0, i), (l, j))
        level by level, over every level l that a pair can reach, with zeros
        at the levels that were not knitted; for x = (m, i) one slice of
        knit[i] moves it to the level of x, and two gathers read the slice at
        the vertices of all y and of all phi y.  The first mismatch in
        row-major order is reported."""
        shared = knit_setup(self.cat)
        mesh = [knit_hom_from(self.cat, i, shared) for i in range(self.cat.q.rank)]
        rank = len(mesh)
        objs = self.objects()
        n = len(objs)
        xv = self.vertices
        yv = xv + [self.phi(v) for v in xv]
        ymin = min(m for m, _ in yv)
        low = ymin - max(m for m, _ in xv)
        high = max(m for m, _ in yv) - min(m for m, _ in xv)
        knit = []
        for hom in mesh:
            flat = [0] * ((high - low + 1) * rank)
            for (m, j), dim in hom.dims.items():
                if low <= m <= high:
                    flat[(m - low) * rank + j] = dim
            knit.append(flat)
        at = [(m - ymin) * rank + j for m, j in yv]
        at_y, at_phi = itemgetter(*at[:n]), itemgetter(*at[n:])   # n >= 2
        table = self.hom_table
        for a, (m, i) in enumerate(xv):
            # Hom((m, i), (m', j)) is Hom((0, i), (m' - m, j))
            seq = knit[i][(ymin - m - low) * rank:]
            got = list(map(add, at_y(seq), at_phi(seq)))
            if got != table[a]:
                b = next(b for b, (u, v) in enumerate(zip(got, table[a])) if u != v)
                raise RuntimeError("Hom(%r, %r) has %d basis morphisms, but the "
                                   "dimension table gives %d"
                                   % (objs[a], objs[b], got[b], table[a][b]))
        return mesh

    def mesh_dim(self, u: Vertex, v: Vertex) -> int:
        """dim Hom(u, v) in the mesh category."""
        return self._mesh[u[1]].dims.get((v[0] - u[0], v[1]), 0)

    def slot_dims(self, x: Obj, y: Obj) -> Tuple[int, int]:
        """(dim Hom(x, y), dim Hom(x, phi y)) on the vertices of x and y."""
        xv, yv = self.vertex(x), self.vertex(y)
        return self.mesh_dim(xv, yv), self.mesh_dim(xv, self.phi(yv))

    def basis_paths(self, u: Vertex, v: Vertex) -> List[Path]:
        """The paths u -> v forming the basis of Hom(u, v) (cached)."""
        key = (u, v)
        paths = self._paths.get(key)
        if paths is None:
            hom = self._mesh[u[1]]
            paths = []
            for k in range(hom.dims.get((v[0] - u[0], v[1]), 0)):
                path, z = [], (v[0] - u[0], v[1])
                while k is not None:
                    path.append((z[0] + u[0], z[1]))
                    z, k = hom.steps[z][k]
                paths.append(tuple(reversed(path)))
            self._paths[key] = paths
        return paths

    def path_rows(self, u: Vertex, path: Path) -> Rows:
        """Composition with `path` on Hom(u, -): the rows of the matrix from
        Hom(u, path[0]) to Hom(u, path[-1]), a product of arrow maps (zero
        when the path leaves the support of Hom(u, -)).  The map depends
        only on the knit of Hom((0, u[1]), -) and on the path moved down by
        u's level, so it is memoized per context by those two."""
        level = u[0]
        key = (u[1], tuple((m - level, i) for m, i in path))
        rows = self._path_rows.get(key)
        if rows is None:
            rows = self._path_rows[key] = _path_product(self._mesh[u[1]], key[1],
                                                        self.cat.p)
        return rows

    def path_map(self, u: Vertex, path: Path) -> np.ndarray:
        """path_rows as an int64 array, for the CMorphism half."""
        np = linalg.numpy()
        hom = self._mesh[u[1]]
        shape = (hom.dims.get((path[-1][0] - u[0], path[-1][1]), 0),
                 hom.dims.get((path[0][0] - u[0], path[0][1]), 0))
        return np.array(self.path_rows(u, path), dtype=np.int64).reshape(shape)

    def _piece(self, x: Obj, y: Obj, coords: Optional[np.ndarray]) -> Optional[tuple]:
        """The piece x -> y with the given path coordinates (None when zero)."""
        if coords is None or not coords.any():
            return None
        paths = self.basis_paths(self.vertex(x), self.vertex(y))
        return tuple((int(c), path) for c, path in zip(coords, paths) if c)

    def _carry(self, x: Obj, coords: Optional[np.ndarray],
               piece: Optional[tuple]) -> Optional[np.ndarray]:
        """piece . f, in coordinates, for f: x -> (start of the piece's paths)
        with path coordinates `coords`; None when either is zero."""
        if coords is None or piece is None:
            return None
        xv = self.vertex(x)
        out = sum(c * (self.path_map(xv, path) @ coords) for c, path in piece)
        return out % self.cat.p

    # -- morphism spaces -----------------------------------------------------

    def hom_basis(self, x: Obj, y: Obj) -> List[CMorphism]:
        """Basis of Hom_C(x, y) (cached): the basis paths of Hom(x, y), then
        those of Hom(x, phi y), as unit coordinate vectors.  Its length is the
        dimension table's (_mesh checks the knit against the table), which
        the fan layer reads to skip and key summands."""
        x = self.normalize(x)[0]
        y = self.normalize(y)[0]
        key = (x, y)
        if key not in self._hom_bases:
            self._hom_bases[key] = [CMorphism(x, y, {l: linalg.eye(size)[k]})
                                    for l, size in enumerate(self.slot_dims(x, y))
                                    for k in range(size)]
        return self._hom_bases[key]

    def is_zero(self, f: CMorphism) -> bool:
        return all(c is None or not c.any() for c in f.pieces.values())

    def morph_coords(self, f: CMorphism) -> np.ndarray:
        """Coordinates of f in hom_basis(f.src, f.tgt)."""
        np = linalg.numpy()
        return np.concatenate([np.zeros(size, dtype=np.int64) if c is None else c
                               for c, size in zip(f.pieces.values(),
                                                  self.slot_dims(f.src, f.tgt))])

    def identity(self, x: Obj) -> CMorphism:
        x = self.normalize(x)[0]
        return CMorphism(x, x, {0: linalg.eye(1)[0]})

    def add(self, f: CMorphism, g: CMorphism) -> CMorphism:
        assert f.src == g.src and f.tgt == g.tgt
        return CMorphism(f.src, f.tgt, {l: _add(f.pieces[l], g.pieces[l], self.cat.p)
                                        for l in (0, 1)})

    def scale(self, c: int, f: CMorphism) -> CMorphism:
        return CMorphism(f.src, f.tgt, {l: None if a is None else int(c) * a % self.cat.p
                                        for l, a in f.pieces.items()})

    # -- composition and shifts in the orbit category --------------------------

    def push_piece(self, src, tgt, piece: Optional[tuple]) -> Optional[tuple]:
        """Image under F of a piece src -> tgt: its paths relabelled by phi,
        a piece F(src) -> F(tgt).  src and tgt, objects or their vertices,
        only name the ends; the paths carry them."""
        return _relabel(self._relabellings[3], piece)

    def compose(self, g: CMorphism, f: CMorphism) -> CMorphism:
        """g . f for f: X -> Y, g: Y -> Z between canonical objects:
        slot 0 is g0 f0, slot 1 is g1 f0 + F(g0) f1, and F(g1) f1 must vanish."""
        if f.tgt != g.src:
            raise RuntimeError("compose: middle objects differ")
        x, y, z = f.src, f.tgt, g.tgt
        fz = self.obj_F(z)
        g0 = self._piece(y, z, g.pieces[0])
        g1 = self._piece(y, fz, g.pieces[1])
        f0, f1 = f.pieces[0], f.pieces[1]
        pieces = {0: self._carry(x, f0, g0),
                  1: _add(self._carry(x, f0, g1),
                          self._carry(x, f1, self.push_piece(y, z, g0)), self.cat.p)}
        r2 = self._carry(x, f1, self.push_piece(y, fz, g1))
        if r2 is not None and r2.any():
            raise RuntimeError("nonzero slot-2 piece in orbit composition")
        return CMorphism(x, z, pieces)

    def compose_tensor(self, a: int, mid: int, b: int) -> Rows:
        """compose over the bases, for the objects X_a, X_mid, X_b of objects(),
        as h rows of f * g ints: entry i * g + j of row k is the k-th
        coordinate, in hom_basis(X_a, X_b), of g_j . f_i, for f_i the i-th
        of the f vectors of hom_basis(X_a, X_mid) and g_j the j-th of the g
        vectors of hom_basis(X_mid, X_b).

        The tensor depends only on the vertices x, y, z of ZQ of the three,
        and moving all three up one level, (m, i) -> (m + 1, i), leaves it
        unchanged: the vertex maps (S, S^-1, phi) only add level offsets, and
        mesh_dim, basis_paths and path_rows read the knit of x's vertex of Q
        at coordinates relative to x.  So it is memoized per context by x's
        vertex of Q and y and z relative to x's level, and composed once per
        relative position (vertex_tensor); nothing is kept when the
        composition raises."""
        xv, yv, zv = self.vertices[a], self.vertices[mid], self.vertices[b]
        level = xv[0]
        key = (xv[1], (yv[0] - level, yv[1]), (zv[0] - level, zv[1]))
        t = self._tensors.get(key)
        if t is None:
            t = self._tensors[key] = self.vertex_tensor(xv, yv, zv)
        return t

    def vertex_tensor(self, xv: Vertex, yv: Vertex, zv: Vertex) -> Rows:
        """compose_tensor on the vertices of ZQ, composed afresh.

        The f_i are unit vectors, so the slab at j holds compose's path maps
        along g_j's basis path, applied to identity blocks: for g_j in slot 0
        (path p), path_rows(p) takes f's slot 0 to slot 0 and path_rows(phi p)
        takes f's slot 1 to slot 1; for g_j in slot 1 (path q), path_rows(q)
        takes f's slot 0 to slot 1, and path_rows(phi q), the slot-2 term,
        must vanish on f's slot 1."""
        phi_y, phi_z = self.phi(yv), self.phi(zv)
        f0, f1 = self.mesh_dim(xv, yv), self.mesh_dim(xv, phi_y)
        g0, g1 = self.mesh_dim(yv, zv), self.mesh_dim(yv, phi_z)
        h0, h1 = self.mesh_dim(xv, zv), self.mesh_dim(xv, phi_z)
        f, g = f0 + f1, g0 + g1
        t = [[0] * (f * g) for _ in range(h0 + h1)]

        def put(k, i, j, block):
            # block[r][c] is entry (k + r, i + c, j)
            for row, vals in zip(t[k:], block):
                row[i * g + j:(i + len(vals)) * g:g] = vals

        if f and g:
            for j, path in enumerate(self.basis_paths(yv, zv)):
                put(0, 0, j, self.path_rows(xv, path))
                if f1 and h1:
                    (_, path), = self.push_piece(yv, zv, ((1, path),))
                    put(h0, f0, j, self.path_rows(xv, path))
            for j, path in enumerate(self.basis_paths(yv, phi_z), g0):
                put(h0, 0, j, self.path_rows(xv, path))
                if f1:
                    (_, path), = self.push_piece(yv, phi_z, ((1, path),))
                    if any(map(any, self.path_rows(xv, path))):
                        raise RuntimeError("nonzero slot-2 piece in orbit composition")
        return tuple(map(tuple, t))

    def shift_down(self, f: CMorphism) -> CMorphism:
        """The morphism f[-1]: normalize(X[-1]) -> normalize(Y[-1]): each path
        relabelled by S^-1, and by phi when X[-1] left the window."""
        x2, ex = self.normalize((f.src[0], f.src[1] - 1))
        y2, ey = self.normalize((f.tgt[0], f.tgt[1] - 1))
        if ex not in (-1, 0) or ey not in (-1, 0):
            raise RuntimeError("unexpected normalization power in shift_down")
        unit = linalg.eye(1)[0]
        pieces: Dict[int, Optional[np.ndarray]] = {0: None, 1: None}
        for l in (0, 1):
            tgt_l = self.obj_F(f.tgt) if l else f.tgt
            piece = self._piece(f.src, tgt_l, f.pieces[l])
            if piece is None:
                continue
            src_l, tgt_l = (f.src[0], f.src[1] - 1), (tgt_l[0], tgt_l[1] - 1)
            piece = _relabel(self._relabellings[2], piece)
            if ex == -1:
                piece = self.push_piece(src_l, tgt_l, piece)
            coords = self._carry(x2, unit, piece)
            new_slot = l + ey - ex
            if new_slot in (0, 1):
                if pieces[new_slot] is not None:
                    raise RuntimeError("slot collision in shift_down")
                pieces[new_slot] = coords
            elif coords.any():
                raise RuntimeError("nonzero piece left the slot window in shift_down")
        return CMorphism(x2, y2, pieces)

    # -- Ext classes in the downward convention --------------------------------

    def ext_source(self, x: Obj, k: int) -> Obj:
        """normalize(X[-k]): the source object used for Ext^k classes."""
        return self.normalize((x[0], x[1] - k))[0]

    def ext_basis(self, x: Obj, y: Obj, k: int) -> List[CMorphism]:
        """Basis of Ext^k(X, Y) as morphisms normalize(X[-k]) -> Y."""
        return self.hom_basis(self.ext_source(x, k), self.normalize(y)[0])

    def yoneda(self, g: CMorphism, f: CMorphism, m: int) -> CMorphism:
        """g . f for f an Ext^k(X, Y)-class and g an Ext^m(Y, Z)-class.

        Both in the downward convention; the result represents the product
        in Ext^{k+m}(X, Z).
        """
        shifted = f
        for _ in range(m):
            shifted = self.shift_down(shifted)
        if shifted.tgt != g.src:
            raise RuntimeError("yoneda: endpoints do not match")
        return self.compose(g, shifted)


def _apply(relabel: VertexMap, v: Vertex) -> Vertex:
    a, j = relabel[v[1]]
    return (v[0] + a, j)


def _relabel(relabel: VertexMap, piece: Optional[tuple]) -> Optional[tuple]:
    if piece is None:
        return None
    return tuple((c, tuple(_apply(relabel, v) for v in path)) for c, path in piece)


def _then(first: VertexMap, *rest: VertexMap) -> VertexMap:
    """The vertex map applying `first`, then each of `rest` in turn."""
    out = first
    for nxt in rest:
        out = tuple((a + nxt[j][0], nxt[j][1]) for a, j in out)
    return out


def _add(a: Optional[np.ndarray], b: Optional[np.ndarray], p: int) -> Optional[np.ndarray]:
    if a is None or b is None:
        return b if a is None else a
    return (a + b) % p


class HomFrom(NamedTuple):
    """The representation Hom((0, i), -) of the mesh category.

    dims maps each vertex with a nonzero Hom to its dimension, maps each arrow
    w -> z between two such vertices to the rows of its matrix, and
    steps[z][k] is the (w, index) of the basis path that basis path k of
    Hom((0, i), z) extends by the arrow w -> z, or (None, None) for the
    identity path at (0, i).
    """
    dims: Dict[Vertex, int]
    maps: Dict[Tuple[Vertex, Vertex], List[List[int]]]
    steps: Dict[Vertex, List[tuple]]


def _mesh_map(hom: HomFrom, tau_z: Vertex, near: List[Tuple[Vertex, int]]) -> List[List[int]]:
    """Hom(x, tau z) -> (+)_w Hom(x, w), over the (w, dim Hom(x, w)) in near:
    the mesh relation at z, each path tau z -> w with coefficient 1, as rows."""
    cols = hom.dims.get(tau_z, 0)
    rows: List[List[int]] = []
    for w, size in near:
        rows += hom.maps.get((tau_z, w)) or [[0] * cols for _ in range(size)]
    return rows


def knit_setup(cat: ModuleCategory) -> tuple:
    """What the knits of one context share: the vertices of Q sinks first
    (a Q-arrow s -> t gives the ZQ arrow (m, t) -> (m, s)), the predecessors
    in ZQ of each vertex (m, j), as (level offset, vertex of Q), and the memo
    of reduced mesh relations, (cols, rows as tuples) -> (the greedy
    complement, the cokernel projection) that linalg.complement_rows gives."""
    arrows = cat.q.arrows
    order = sorted(range(cat.q.rank), key=lambda j: (len(cat.psupp[j]), j))
    preds = [[(0, t) for s, t in arrows if s == j] + [(-1, s) for s, t in arrows if t == j]
             for j in range(cat.q.rank)]
    return order, preds, {}


def knit_hom_from(cat: ModuleCategory, i: int, shared: Optional[tuple] = None) -> HomFrom:
    """Knit Hom((0, i), -) level by level until a level is all zero.  shared
    is knit_setup(cat), kept for all the knits of one context so that each
    distinct mesh relation is reduced once (a fresh one by default)."""
    order, preds, solved = shared or knit_setup(cat)
    hom = HomFrom({(0, i): 1}, {}, {(0, i): [(None, None)]})
    m = 0
    while True:
        level = False
        for j in order:
            z = (m, j)
            if z == (0, i):
                level = True
                continue
            near = [(w, size) for a, t in preds[j]
                    if (size := hom.dims.get(w := (m + a, t)))]
            if not near:
                continue
            rel = _mesh_map(hom, (m - 1, j), near)
            cols = len(rel[0])
            key = (cols, tuple(map(tuple, rel)))
            if key not in solved:
                rank, basis, red = linalg.complement_rows(rel, cols, cat.p)
                # the reduced rows below the rank project onto the cokernel,
                # taking the unit vector at the k-th basis path to the k-th one
                solved[key] = basis, red[rank:]
            basis, proj = solved[key]
            if not basis:
                continue
            hom.dims[z] = len(basis)
            lo = cols
            slots = []
            for w, size in near:
                # fresh slices: no two knits share a row of a shared projection
                hom.maps[(w, z)] = [row[lo:lo + size] for row in proj]
                slots += [(w, k) for k in range(size)]
                lo += size
            hom.steps[z] = [slots[c] for c in basis]
            level = True
        if not level:
            return hom
        m += 1


def _path_product(hom: HomFrom, path: Path, p: int) -> Rows:
    """The product of hom's arrow maps along `path` (vertices relative to the
    source of hom), as rows; zero when an arrow leaves hom's support."""
    n = hom.dims.get(path[0], 0)
    mat = _identity(n)
    for w, z in zip(path, path[1:]):
        arrow = hom.maps.get((w, z))
        if arrow is None:
            return ((0,) * n,) * hom.dims.get(path[-1], 0)
        mat = linalg.mul_rows(arrow, mat, n, p)
    return tuple(map(tuple, mat))
