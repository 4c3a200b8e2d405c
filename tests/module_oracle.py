"""Morphisms of the orbit category through module presentations: the oracle
for the mesh-category morphisms of dcluster.orbit.

ModuleOrbitCategory is an OrbitCategory whose morphisms come from the
knitted modules instead of paths of ZQ.  A slot-l piece X -> F^l(Y) is a
module map ("H", vmap) or an extension class ("E", cocycle coordinates over
the projective presentation of the source).  F acts on pieces through
minimal injective copresentations: lift, apply the Nakayama equivalence
backwards on canonical blocks, descend to the cokernel.  Because the
projective presentation of tau^{-1}M *is* the nu^{-1}-image of the
copresentation of M (see reps), extension data moves through F without any
comparison maps.  F is linear on each piece space, and so is the lift of a
module map along projective presentations that pulls cocycles back in
composition; each is a matrix built lazily, once per root pair, from the
direct lift on a basis (_push_direct, _lift_direct).  Hom coordinates are
Hom coordinates of module maps and classes of cocycles.  The modules are
those of ArrayKnit, the package's knit redone on numpy arrays; the Hom
bases and Ext data come from the package.

Nothing here reads a path or a vertex of ZQ, so comparing the two is a
comparison of independent models.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from dcluster import linalg, reps
from dcluster.orbit import Obj, OrbitCategory
from dcluster.reps import CopresData, ModuleCategory, PresData


# -- the module knit on numpy arrays ------------------------------------------
#
# reps.ModuleCategory knits its modules on rows of Python ints.  ArrayKnit
# runs the same steps on int64 arrays, with linalg's array functions: the
# reference that test_reps compares the row knit with, entry for entry, and
# the modules that ModuleOrbitCategory composes.


class Rep:
    """A quiver representation with int64 arrow matrices, the matrix of an
    arrow s -> t of shape (dims[t], dims[s]); mats may be arrays or rows."""

    def __init__(self, q, dims, mats):
        self.q = q
        self.dims = tuple(int(x) for x in dims)
        self.mats = [np.asarray(m, dtype=np.int64).reshape(self.dims[t], self.dims[s])
                     for (s, t), m in zip(q.arrows, mats)]
        self.path_actions = {}

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


def mmul(p, *mats) -> np.ndarray:
    """Product of matrices mod p, left to right."""
    out = np.asarray(mats[0], dtype=np.int64) % p
    for m in mats[1:]:
        out = (out @ (np.asarray(m, dtype=np.int64) % p)) % p
    return out


def vmap_zero(src, tgt):
    return [linalg.zeros(tgt.dims[v], src.dims[v]) for v in range(src.q.rank)]


def vmap_id(m):
    return [linalg.eye(d) for d in m.dims]


def vmap_compose(p, g, f):
    return [(g[v] @ f[v]) % p for v in range(len(f))]


def vmap_flatten(f) -> np.ndarray:
    if not f:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([m.ravel() for m in f])


def vmap_unflatten(flat: np.ndarray, shapes):
    """Inverse of vmap_flatten for vertex matrices of the given shapes."""
    out, lo = [], 0
    for rows, cols in shapes:
        out.append(flat[lo:lo + rows * cols].reshape(rows, cols))
        lo += rows * cols
    return out


def vmap_add(p, f, g):
    return [(f[v] + g[v]) % p for v in range(len(f))]


def vmap_scale(p, c, f):
    return [(int(c) * f[v]) % p for v in range(len(f))]


def vmap_is_zero(f) -> bool:
    return all(not m.size or not m.any() for m in f)


def is_morphism(p, src, tgt, f) -> bool:
    """Does the vmap of arrays f commute with all arrow actions?"""
    return all(np.array_equal((f[t] @ src.mats[i]) % p, (tgt.mats[i] @ f[s]) % p)
               for i, (s, t) in enumerate(src.q.arrows))


class ArraySumRep:
    """reps.SumRep with an array Rep: summand i sits at rows offsets[i][v]."""

    def __init__(self, cat, kind, verts):
        self.kind = kind
        self.verts = tuple(int(v) for v in verts)
        q = cat.q
        self.supports = [cat.psupp[x] if kind == "P" else cat.isupp[x]
                         for x in self.verts]
        dims = [0] * q.rank
        self.offsets = []
        for supp in self.supports:
            offs = [None] * q.rank
            for v in range(q.rank):
                if v in supp:
                    offs[v] = dims[v]
                    dims[v] += 1
            self.offsets.append(offs)
        mats = []
        for s, t in q.arrows:
            m = linalg.zeros(dims[t], dims[s])
            for k, supp in enumerate(self.supports):
                if s in supp and t in supp:
                    m[self.offsets[k][t], self.offsets[k][s]] = 1
            mats.append(m)
        self.rep = Rep(q, dims, mats)

    def __len__(self):
        return len(self.verts)


class ArrayKnit:
    """The modules of a ModuleCategory knitted on int64 arrays.

    rep, pres and copresentation have the row knit's layout with arrays in
    place of rows.  Every attribute it does not define is the wrapped
    category's, so Hom bases, Ext data and solve_block_map come from the
    package (and so from the row knit, which these modules must equal).
    """

    def __init__(self, cat: ModuleCategory):
        self.cat = cat

    def __getattr__(self, name):
        return getattr(self.cat, name)

    @cached_property
    def _knitted(self) -> tuple:
        return self._knit()

    rep = property(lambda self: self._knitted[0])
    pres = property(lambda self: self._knitted[1])

    def copresentation(self, root) -> CopresData:
        return self._knitted[2][root]

    def interval(self, support) -> Rep:
        dims = [1 if v in support else 0 for v in range(self.q.rank)]
        mats = [linalg.eye(1) if s in support and t in support
                else linalg.zeros(dims[t], dims[s]) for s, t in self.q.arrows]
        return Rep(self.q, dims, mats)

    def proj(self, x):
        return self.interval(self.psupp[x])

    def inj(self, x):
        return self.interval(self.isupp[x])

    def psum(self, verts) -> ArraySumRep:
        return ArraySumRep(self, "P", verts)

    def isum(self, verts) -> ArraySumRep:
        return ArraySumRep(self, "I", verts)

    def path_matrix(self, m: Rep, u: int, v: int) -> np.ndarray:
        """Action of the path u ~> v on m (read-only, computed once per m)."""
        key = (u, v, self.p)
        out = m.path_actions.get(key)
        if out is None:
            out = linalg.eye(m.dims[u])
            for a in self.paths[(u, v)]:
                out = (m.mats[a] @ out) % self.p
            out.flags.writeable = False
            m.path_actions[key] = out
        return out

    def blocks_to_vmap(self, src, tgt, blocks: np.ndarray):
        f = vmap_zero(src.rep, tgt.rep)
        for i, a in enumerate(src.verts):
            for j, b in enumerate(tgt.verts):
                supp = self._gen_support(src.kind, a, tgt.kind, b)
                c = int(blocks[j, i]) % self.p
                if supp is None or not c:
                    continue
                for v in supp:
                    f[v][tgt.offsets[j][v], src.offsets[i][v]] = c
        return f

    def vmap_to_blocks(self, src, tgt, f) -> np.ndarray:
        blocks = linalg.zeros(len(tgt), len(src))
        for i, a in enumerate(src.verts):
            for j, b in enumerate(tgt.verts):
                if self._gen_support(src.kind, a, tgt.kind, b) is None:
                    continue
                probe = a if src.kind == "P" else b
                blocks[j, i] = f[probe][tgt.offsets[j][probe], src.offsets[i][probe]]
        return blocks

    def socle_functionals(self, m: Rep):
        out = []
        for x in range(self.q.rank):
            outs = [m.mats[i] for i, (s, _) in enumerate(self.q.arrows) if s == x]
            stacked = np.concatenate(outs, axis=0) if outs else linalg.zeros(0, m.dims[x])
            soc = linalg.nullspace_mod(stacked, self.p)
            k = soc.shape[1]
            if k == 0:
                continue
            _, _, red = linalg.complement_rows(soc.tolist(), k, self.p)
            out += [(x, np.array(row[k:], dtype=np.int64)) for row in red[:k]]
        return out

    def envelope(self, m: Rep):
        socs = self.socle_functionals(m)
        j0 = self.isum([x for x, _ in socs])
        iota = vmap_zero(m, j0.rep)
        for i, (x, lam) in enumerate(socs):
            for v in self.isupp[x]:
                iota[v][j0.offsets[i][v], :] = (lam @ self.path_matrix(m, v, x)) % self.p
        return j0, iota

    def _cokernel(self, tgt: Rep, f):
        projs, secs = zip(*(linalg.cokernel_mod(fv, self.p) for fv in f))
        mats = [mmul(self.p, projs[t], tgt.mats[i], secs[s])
                for i, (s, t) in enumerate(self.q.arrows)]
        return Rep(self.q, [pr.shape[0] for pr in projs], mats), projs, secs

    def _copresent(self, m: Rep) -> CopresData:
        p = self.p
        j0, iota = self.envelope(m)
        assert is_morphism(p, m, j0.rep, iota)
        coker, projs, _ = self._cokernel(j0.rep, iota)
        j1, iota_c = self.envelope(coker)
        assert j1.rep.total_dim == coker.total_dim
        delta = [mmul(p, iota_c[v], projs[v]) for v in range(self.q.rank)]
        blocks = self.vmap_to_blocks(j0, j1, delta)
        assert all(np.array_equal(a, b)
                   for a, b in zip(self.blocks_to_vmap(j0, j1, blocks), delta))
        return CopresData(j0, j1, blocks, delta, iota)

    def _knit(self) -> tuple:
        q, p = self.q, self.p
        inj_vertex = {r: x for x, r in enumerate(self.inj_root)}
        rep, pres, copres = {}, {}, {}
        for x in range(q.rank):
            cur_root = self.proj_root[x]
            cur = self.proj(x)
            rep[cur_root] = cur
            p0 = self.psum([x])
            pres[cur_root] = PresData(
                self.psum([]), p0, linalg.zeros(1, 0),
                vmap_zero(self.psum([]).rep, p0.rep), vmap_id(cur), vmap_id(cur))
            while cur_root not in inj_vertex:
                cop = copres[cur_root] = self._copresent(cur)
                p1, p0 = self.psum(cop.j0.verts), self.psum(cop.j1.verts)
                pvm = self.blocks_to_vmap(p1, p0, cop.delta_blocks)
                new, pi, sec = self._cokernel(p0.rep, pvm)
                new_root = new.dims
                assert new_root == self.tau_minus[cur_root], (cur_root, new_root)
                if new_root in inj_vertex:
                    target = self.inj(inj_vertex[new_root])
                    u = self._iso(new, target)
                    pi = [mmul(p, u[v], pi[v]) for v in range(q.rank)]
                    sec = [mmul(p, sec[v], linalg.inv_mod(u[v], p))
                           for v in range(q.rank)]
                    new = target
                assert new_root not in rep
                rep[new_root] = new
                pres[new_root] = PresData(p1, p0, cop.delta_blocks, pvm, list(pi), list(sec))
                cur_root, cur = new_root, new
        assert len(rep) == len(self.roots)
        return rep, pres, copres

    def _iso(self, a: Rep, b: Rep):
        def rows(m):
            return reps.Rep(self.q, m.dims, [x.tolist() for x in m.mats])

        for f in self.cat.hom_vmaps(rows(a), rows(b)):
            if all(linalg.rank_mod(f[v], self.p) == a.dims[v]
                   for v in range(self.q.rank) if a.dims[v]):
                return f
        raise AssertionError("no isomorphism between equal dimension vectors")

    def pushforward_coords(self, blocks, src, tgt, n: Rep, coords) -> np.ndarray:
        """Coordinates of (phi . h) given phi: tgt -> n and h: src -> tgt."""
        p = self.p
        ssl, tsl = self.coord_slices(src, n), self.coord_slices(tgt, n)
        mat = linalg.zeros(ssl[-1][1] if ssl else 0, tsl[-1][1] if tsl else 0)
        for si, a in enumerate(src.verts):
            for ti, b in enumerate(tgt.verts):
                c = int(blocks[ti, si]) % p
                if c and (b, a) in self.paths:
                    (lo, hi), (lo2, hi2) = ssl[si], tsl[ti]
                    mat[lo:hi, lo2:hi2] = (c * self.path_matrix(n, b, a)) % p
        return (mat @ np.asarray(coords, dtype=np.int64)) % p


# -- cocycle coordinates: Hom(P_x, N) = N_x -----------------------------------


def pmap_from_coords(cat: ArrayKnit, psum: ArraySumRep, n: Rep, coords: np.ndarray):
    """The morphism psum.rep -> n with the given generator images."""
    sl = cat.coord_slices(psum, n)
    f = vmap_zero(psum.rep, n)
    for i, x in enumerate(psum.verts):
        gen = coords[sl[i][0]:sl[i][1]]
        for v in cat.psupp[x]:
            col = (cat.path_matrix(n, x, v) @ gen) % cat.p
            f[v][:, psum.offsets[i][v]] = col
    return f


def coords_from_pmap(cat, psum, n: Rep, f) -> np.ndarray:
    sl = cat.coord_slices(psum, n)
    out = np.zeros(sl[-1][1] if sl else 0, dtype=np.int64)
    for i, x in enumerate(psum.verts):
        out[sl[i][0]:sl[i][1]] = f[x][:, psum.offsets[i][x]]
    return out


def ext_basis_coords(cat: ModuleCategory, ra, rb) -> List[np.ndarray]:
    _, s_, dim = cat.ext_data(ra, rb)
    return [s_[:, k].copy() for k in range(dim)]


def ext_class(cat: ModuleCategory, ra, rb, cocycle: np.ndarray) -> np.ndarray:
    q_, _, _ = cat.ext_data(ra, rb)
    return (q_ @ cocycle) % cat.p


class VMorphism:
    """pieces[l] is None or ("H", vmap) / ("E", cocycle coords), a morphism
    X -> F^l(Y) of the derived category."""

    def __init__(self, src: Obj, tgt: Obj, pieces: Dict[int, Optional[tuple]]):
        self.src = src
        self.tgt = tgt
        self.pieces = {0: pieces.get(0), 1: pieces.get(1)}


class ModuleOrbitCategory(OrbitCategory):
    """The orbit category of cat, with cat's modules knitted on arrays
    (self.cat is cat's ArrayKnit)."""

    def __init__(self, cat: ModuleCategory, d: int):
        super().__init__(ArrayKnit(cat), d)
        # (kind, a_root, b_root) -> (output kind, matrix of F, output shapes)
        self._push_maps: Dict[tuple, tuple] = {}
        # (a_root, b_root) -> matrix taking Hom coordinates to P1 lift blocks
        self._lift_maps: Dict[tuple, np.ndarray] = {}
        # (a_root, b_root) -> (flattened basis, pivot rows, inverse minor)
        self._hom_coords: Dict[tuple, tuple] = {}

    # -- Hom coordinates of module maps ---------------------------------------

    def hom_coords(self, ra, rb, f) -> Optional[np.ndarray]:
        """Coordinates of the vmap f in cat.hom_basis(ra, rb), or None if f is
        not in its span (not a morphism)."""
        cat = self.cat
        key = (ra, rb)
        if key not in self._hom_coords:
            basis = cat.hom_basis(ra, rb)
            size = sum(cat.rep[rb].dims[v] * cat.rep[ra].dims[v]
                       for v in range(cat.q.rank))
            mat = np.stack([vmap_flatten(g) for g in basis], axis=1) if basis \
                else linalg.zeros(size, 0)
            _, piv = linalg.rref_mod(mat.T, cat.p)
            self._hom_coords[key] = (mat, piv, linalg.inv_mod(mat[piv, :], cat.p))
        mat, piv, minv = self._hom_coords[key]
        flat = vmap_flatten(f) % cat.p
        coords = (minv @ flat[piv]) % cat.p
        if not np.array_equal((mat @ coords) % cat.p, flat):
            return None
        return coords

    # -- morphism spaces -------------------------------------------------------

    def piece_basis(self, src: Obj, tgt: Obj) -> List[tuple]:
        gap = tgt[1] - src[1]
        if gap == 0:
            return [("H", f) for f in self.cat.hom_basis(src[0], tgt[0])]
        if gap == 1:
            return [("E", u) for u in ext_basis_coords(self.cat, src[0], tgt[0])]
        return []

    def piece_is_zero(self, src: Obj, tgt: Obj, piece: Optional[tuple]) -> bool:
        if piece is None:
            return True
        kind, data = piece
        if kind == "H":
            return vmap_is_zero(data)
        return not ext_class(self.cat, src[0], tgt[0], data).any()

    def piece_coords(self, src: Obj, tgt: Obj, piece: Optional[tuple]) -> np.ndarray:
        """Coordinates of a piece in piece_basis(src, tgt)."""
        if piece is None:
            return np.zeros(self.piece_dim(src, tgt), dtype=np.int64)
        kind, data = piece
        if kind == "E":
            return ext_class(self.cat, src[0], tgt[0], data)
        coords = self.hom_coords(src[0], tgt[0], data)
        if coords is None:
            raise RuntimeError("a module map %r -> %r lies outside the span of "
                               "the Hom basis" % (src, tgt))
        return coords

    def hom_basis(self, x: Obj, y: Obj) -> List[VMorphism]:
        x = self.normalize(x)[0]
        y = self.normalize(y)[0]
        key = (x, y)
        if key not in self._hom_bases:
            basis = [VMorphism(x, y, {l: piece}) for l, fly in enumerate((y, self.obj_F(y)))
                     for piece in self.piece_basis(x, fly)]
            dim = self.hom_dim(x, y)
            if len(basis) != dim:
                raise RuntimeError("Hom(%r, %r) has %d basis morphisms, but the "
                                   "dimension table gives %d" % (x, y, len(basis), dim))
            self._hom_bases[key] = basis
        return self._hom_bases[key]

    def morph_coords(self, f: VMorphism) -> np.ndarray:
        fy = self.obj_F(f.tgt)
        return np.concatenate([self.piece_coords(f.src, f.tgt, f.pieces[0]),
                               self.piece_coords(f.src, fy, f.pieces[1])])

    def identity(self, x: Obj) -> VMorphism:
        x = self.normalize(x)[0]
        return VMorphism(x, x, {0: ("H", vmap_id(self.cat.rep[x[0]]))})

    # -- composition in the derived category -----------------------------------

    def compose_piece(self, fsrc: Obj, fmid: Obj, f: Optional[tuple],
                      gmid: Obj, gtgt: Obj, g: Optional[tuple]) -> Optional[tuple]:
        """(g: gmid->gtgt) . (f: fsrc->fmid) with fmid == gmid, in D."""
        if f is None or g is None:
            return None
        if fmid != gmid:
            raise RuntimeError("non-matching middle object in composition")
        cat = self.cat
        gf, gg = fmid[1] - fsrc[1], gtgt[1] - gmid[1]
        if gf == 0 and gg == 0:
            return ("H", vmap_compose(cat.p, g[1], f[1]))
        if gf == 0 and gg == 1:
            # pull the cocycle of g back along f through the presentations
            pa, pb = cat.pres[fsrc[0]], cat.pres[fmid[0]]
            blocks = self._lift_blocks(fsrc[0], fmid[0], f[1])
            return ("E", cat.pushforward_coords(blocks, pa.p1, pb.p1,
                                                cat.rep[gtgt[0]], g[1]))
        if gf == 1 and gg == 0:
            # postcompose the cocycle of f with the module map g
            pa = cat.pres[fsrc[0]]
            n_src = cat.rep[fmid[0]]
            n_tgt = cat.rep[gtgt[0]]
            sl_src = cat.coord_slices(pa.p1, n_src)
            sl_tgt = cat.coord_slices(pa.p1, n_tgt)
            out = np.zeros(sl_tgt[-1][1] if sl_tgt else 0, dtype=np.int64)
            for i, x in enumerate(pa.p1.verts):
                lo, hi = sl_src[i]
                out[sl_tgt[i][0]:sl_tgt[i][1]] = (g[1][x] @ f[1][lo:hi]) % cat.p
            return ("E", out)
        if gf == 1 and gg == 1:
            return None  # lands in a gap-2 group, which vanishes
        raise RuntimeError("unexpected piece gaps (%d, %d)" % (gf, gg))

    def _lift_direct(self, a_root, b_root, fv) -> np.ndarray:
        """Blocks of a lift P1_A -> P1_B of the module map fv: A -> B along
        the projective presentations (the oracle behind _lift_blocks)."""
        cat = self.cat
        pa, pb = cat.pres[a_root], cat.pres[b_root]
        f0 = cat.solve_block_map(pa.p0, pb.p0, [(pb.pi, None,
                                                 vmap_compose(cat.p, fv, pa.pi))])
        if f0 is None:
            raise RuntimeError("projective lift failed")
        f1 = cat.solve_block_map(pa.p1, pb.p1, [(pb.p_vmap, None,
                                                 vmap_compose(cat.p, f0, pa.p_vmap))])
        if f1 is None:
            raise RuntimeError("projective lift failed at level 1")
        return cat.vmap_to_blocks(pa.p1, pb.p1, f1)

    def _lift_blocks(self, a_root, b_root, fv) -> np.ndarray:
        """_lift_direct as one matrix product on the Hom coordinates of fv.

        solve_mod's particular solution is linear in the right-hand side, so
        this equals _lift_direct exactly, not just up to homotopy.
        """
        cat = self.cat
        coords = self.hom_coords(a_root, b_root, fv)
        if coords is None:
            raise RuntimeError("projective lift failed")
        shape = (len(cat.pres[b_root].p1), len(cat.pres[a_root].p1))
        key = (a_root, b_root)
        if key not in self._lift_maps:
            cols = [self._lift_direct(a_root, b_root, g).ravel()
                    for g in cat.hom_basis(a_root, b_root)]
            self._lift_maps[key] = np.stack(cols, axis=1) if cols \
                else linalg.zeros(shape[0] * shape[1], 0)
        return ((self._lift_maps[key] @ coords) % cat.p).reshape(shape)

    # -- the translation functor on pieces --------------------------------------

    def push_piece(self, src: Obj, tgt: Obj, piece: Optional[tuple]) -> Optional[tuple]:
        """Image under F of a piece src -> tgt, as a piece F(src) -> F(tgt):
        one product with the matrix of F on its piece space."""
        if piece is None:
            return None
        kind, data = piece
        a_root, b_root = src[0], tgt[0]
        if kind == "H":
            if a_root in self.inj_roots and b_root not in self.inj_roots:
                if not vmap_is_zero(data):
                    raise RuntimeError("nonzero module map out of an injective "
                                       "into a non-injective indecomposable")
                return None
            coords = self.hom_coords(a_root, b_root, data)
            if coords is None:
                raise RuntimeError("injective lift failed")
        else:
            if b_root in self.inj_roots:
                if not self.piece_is_zero(src, tgt, piece):
                    raise RuntimeError("nonzero extension class with injective target")
                return None
            coords = data
        out_kind, mat, shapes = self._push_map(kind, a_root, b_root)
        flat = (mat @ coords) % self.cat.p
        return (out_kind, vmap_unflatten(flat, shapes) if out_kind == "H" else flat)

    def _push_map(self, kind: str, a_root, b_root) -> tuple:
        key = (kind, a_root, b_root)
        if key not in self._push_maps:
            cat = self.cat
            src, tgt = (a_root, 0), (b_root, 0 if kind == "H" else 1)
            if kind == "H":
                basis = cat.hom_basis(a_root, b_root)
                zero = vmap_zero(cat.rep[a_root], cat.rep[b_root])
            else:
                width = sum(cat.rep[b_root].dims[x] for x in cat.pres[a_root].p1.verts)
                basis = list(linalg.eye(width))
                zero = np.zeros(0, dtype=np.int64)
            # an empty basis still pushes zero once, for the output's kind and shape
            images = [self._push_direct(src, tgt, (kind, x)) for x in basis or [zero]]
            out_kind = images[0][0]
            flatten = vmap_flatten if out_kind == "H" else (lambda v: v)
            mat = np.stack([flatten(data) for _, data in images], axis=1)
            shapes = [m.shape for m in images[0][1]] if out_kind == "H" else None
            self._push_maps[key] = (out_kind, mat[:, :len(basis)], shapes)
        return self._push_maps[key]

    def _push_direct(self, src: Obj, tgt: Obj, piece: Optional[tuple]) -> Optional[tuple]:
        """push_piece by lifting along (co)presentations."""
        if piece is None:
            return None
        cat = self.cat
        p = cat.p
        kind, data = piece
        a_root, b_root = src[0], tgt[0]
        a_inj, b_inj = a_root in self.inj_roots, b_root in self.inj_roots
        if kind == "H":
            if not a_inj and not b_inj:
                # lift along the copresentations, nu^{-1}, descend
                ca, cb = cat.copresentation(a_root), cat.copresentation(b_root)
                phi0 = cat.solve_block_map(ca.j0, cb.j0, [(None, ca.iota,
                    vmap_compose(p, cb.iota, data))])
                if phi0 is None:
                    raise RuntimeError("injective lift failed")
                phi1 = cat.solve_block_map(ca.j1, cb.j1, [(None, ca.delta_vmap,
                    vmap_compose(p, cb.delta_vmap, phi0))])
                if phi1 is None:
                    raise RuntimeError("injective lift failed at level 1")
                na = cat.pres[cat.tau_minus[a_root]]
                nb = cat.pres[cat.tau_minus[b_root]]
                blocks = cat.vmap_to_blocks(ca.j1, cb.j1, phi1)
                nu_phi1 = cat.blocks_to_vmap(na.p0, nb.p0, blocks)
                out = vmap_compose(p, nb.pi, vmap_compose(p, nu_phi1, na.sec))
                return ("H", out)
            if not a_inj and b_inj:
                # module map into an injective becomes an extension class
                y = self.inj_vertex[b_root]
                ca = cat.copresentation(a_root)
                iy = cat.isum([y])
                phi0 = cat.solve_block_map(ca.j0, iy, [(None, ca.iota, data)])
                if phi0 is None:
                    raise RuntimeError("extension along the envelope failed")
                na = cat.pres[cat.tau_minus[a_root]]
                py = cat.psum([y])
                blocks = cat.vmap_to_blocks(ca.j0, iy, phi0)
                nu_phi0 = cat.blocks_to_vmap(na.p1, py, blocks)
                pyroot = cat.proj_root[y]
                return ("E", coords_from_pmap(cat, na.p1, cat.rep[pyroot], nu_phi0))
            if a_inj and not b_inj:
                # Hom(I_x, N) = 0 for indecomposable non-injective N
                if not vmap_is_zero(data):
                    raise RuntimeError("nonzero module map out of an injective "
                                       "into a non-injective indecomposable")
                return None
            # both injective: strict Nakayama relabelling
            x, y = self.inj_vertex[a_root], self.inj_vertex[b_root]
            blocks = cat.vmap_to_blocks(cat.isum([x]), cat.isum([y]), data)
            out = cat.blocks_to_vmap(cat.psum([x]), cat.psum([y]), blocks)
            return ("H", out)
        # extension piece
        if b_inj:
            if not self.piece_is_zero(src, tgt, piece):
                raise RuntimeError("nonzero extension class with injective target")
            return None
        cb = cat.copresentation(b_root)
        pa = cat.pres[a_root]
        umap = pmap_from_coords(cat, pa.p1, cat.rep[b_root], data)
        # chain homotopy s0: P0 -> J0_B with s0 . p = iota_B . u
        s0 = cat.solve_block_map(pa.p0, cb.j0, [(None, pa.p_vmap,
            vmap_compose(p, cb.iota, umap))])
        if s0 is None:
            raise RuntimeError("homotopy solve failed")
        rhs = vmap_compose(p, cb.delta_vmap, s0)
        nb = cat.pres[cat.tau_minus[b_root]]
        if not a_inj:
            # w: J0_A -> J1_B with w . iota_A . pi_A = delta_B . s0
            ca = cat.copresentation(a_root)
            iota_pi = vmap_compose(p, ca.iota, pa.pi)
            w = cat.solve_block_map(ca.j0, cb.j1, [(None, iota_pi, rhs)])
            if w is None:
                raise RuntimeError("injective-model solve failed")
            na = cat.pres[cat.tau_minus[a_root]]
            blocks = cat.vmap_to_blocks(ca.j0, cb.j1, w)
            nu_w = cat.blocks_to_vmap(na.p1, nb.p0, blocks)
            out = vmap_compose(p, nb.pi, nu_w)
            return ("E", coords_from_pmap(cat, na.p1, cat.rep[cat.tau_minus[b_root]], out))
        # source injective: the class becomes a plain module map P_x -> tau^{-1}B
        x = self.inj_vertex[a_root]
        ix = cat.isum([x])
        w = cat.solve_block_map(ix, cb.j1, [(None, pa.pi, rhs)])
        if w is None:
            raise RuntimeError("injective-model solve failed")
        blocks = cat.vmap_to_blocks(ix, cb.j1, w)
        nu_w = cat.blocks_to_vmap(cat.psum([x]), nb.p0, blocks)
        return ("H", vmap_compose(p, nb.pi, nu_w))

    # -- composition and shifts in the orbit category ---------------------------

    def compose(self, g: VMorphism, f: VMorphism) -> VMorphism:
        """g . f for f: X -> Y, g: Y -> Z between canonical objects."""
        if f.tgt != g.src:
            raise RuntimeError("compose: middle objects differ")
        x, y, z = f.src, f.tgt, g.tgt
        fy, fz = self.obj_F(y), self.obj_F(z)
        f2z = self.obj_F(fz)
        pieces: Dict[int, Optional[tuple]] = {}
        pieces[0] = self.compose_piece(x, y, f.pieces[0], y, z, g.pieces[0])
        term_a = self.compose_piece(x, y, f.pieces[0], y, fz, g.pieces[1])
        push_g0 = self.push_piece(y, z, g.pieces[0])
        term_b = self.compose_piece(x, fy, f.pieces[1], fy, fz, push_g0)
        if term_a is None:
            pieces[1] = term_b
        elif term_b is None:
            pieces[1] = term_a
        elif term_a[0] == "H":
            pieces[1] = ("H", vmap_add(self.cat.p, term_a[1], term_b[1]))
        else:
            pieces[1] = ("E", (term_a[1] + term_b[1]) % self.cat.p)
        # the slot-2 term must vanish; verify rather than assume
        push_g1 = self.push_piece(y, fz, g.pieces[1])
        r2 = self.compose_piece(x, fy, f.pieces[1], fy, f2z, push_g1)
        if r2 is not None and not self.piece_is_zero(x, f2z, r2):
            raise RuntimeError("nonzero slot-2 piece in orbit composition")
        return VMorphism(x, z, pieces)

    def shift_down(self, f: VMorphism) -> VMorphism:
        """The morphism f[-1]: normalize(X[-1]) -> normalize(Y[-1])."""
        x2, ex = self.normalize((f.src[0], f.src[1] - 1))
        y2, ey = self.normalize((f.tgt[0], f.tgt[1] - 1))
        if ex not in (-1, 0) or ey not in (-1, 0):
            raise RuntimeError("unexpected normalization power in shift_down")
        pieces: Dict[int, Optional[tuple]] = {0: None, 1: None}
        for l in (0, 1):
            piece = f.pieces[l]
            if piece is None:
                continue
            src_l = (f.src[0], f.src[1] - 1)
            tgt_l = self.obj_F(f.tgt) if l else f.tgt
            tgt_l = (tgt_l[0], tgt_l[1] - 1)
            if ex == -1:
                piece = self.push_piece(src_l, tgt_l, piece)
                src_l, tgt_l = self.obj_F(src_l), self.obj_F(tgt_l)
            new_slot = l + ey - ex
            if new_slot in (0, 1):
                if pieces[new_slot] is not None:
                    raise RuntimeError("slot collision in shift_down")
                pieces[new_slot] = piece
            elif not self.piece_is_zero(src_l, tgt_l, piece):
                raise RuntimeError("nonzero piece left the slot window in shift_down")
        return VMorphism(x2, y2, pieces)


def composite_tensor(oc: ModuleOrbitCategory, a: Obj, mid: Obj, b: Obj) -> np.ndarray:
    """The structure constants of Hom(a, mid) x Hom(mid, b) -> Hom(a, b) in
    the oracle's bases, as an (h, f, g) array: OrbitCategory.compose_tensor,
    asked by the objects' indices, gives the rows of its reshape(h, f * g)
    in the path bases of ZQ."""
    fs, gs = oc.hom_basis(a, mid), oc.hom_basis(mid, b)
    h = len(oc.hom_basis(a, b))
    coef = linalg.zeros(h, 0)
    if fs and gs:
        coef = np.stack([oc.morph_coords(oc.compose(g, f)) for f in fs for g in gs], axis=1)
    return coef.reshape(h, len(fs), len(gs))
