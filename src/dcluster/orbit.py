"""The orbit category C_d of the bounded derived category by tau^{-1}[d].

Objects are pairs (root, shift) of an indecomposable's dimension vector and
an integer shift; each orbit of the translation F = tau^{-1}[d] meets the
canonical window

    0 <= shift <= d-1          (any indecomposable), or
    shift == d                 (projectives only)

exactly once, and the window is the fundamental domain of C_d.  Morphism
spaces are Hom_C(X, Y) = (+)_l Hom_D(X, F^l Y); for canonical pairs only
l = 0, 1 can contribute, each piece being either a module morphism ("H"
piece, a vertexwise matrix tuple) or an extension class ("E" piece, a
cocycle over the projective presentation of the source).  Every Hom and
Ext^k dimension is read from one integer table over the fundamental domain,
built from the Euler form and the Coxeter tau, without knitting a module.
Each Hom_C(X, Y) has one basis, the slot-0 piece basis followed by the
slot-1 one, built once per pair and checked against that table; a morphism's
coordinates in it are Hom coordinates of module maps and classes of cocycles.

F acts on morphisms through minimal injective copresentations: lift, apply
the Nakayama equivalence backwards on canonical blocks, descend to the
cokernel.  Because the projective presentation of tau^{-1}M *is* the
nu^{-1}-image of the copresentation of M (see reps), extension data moves
through F without any comparison maps.  F is linear on each piece space, and
so is the lift of a module map along projective presentations that pulls
cocycles back in composition; each is a matrix built lazily, once per root
pair, from the direct lift on a basis (kept as the test oracle).

Shifts of morphisms are implemented downward only (src/tgt both [-1]), so
re-canonicalization only ever applies F forward.  Ext^k classes are kept in
the convention Hom_C(normalize(X[-k]), Y), which makes Yoneda composition a
plain composition after one downward shift.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import linalg, reps
from .reps import ModuleCategory, vmap_add, vmap_compose, vmap_flatten, \
    vmap_is_zero, vmap_scale, vmap_unflatten, vmap_zero

Obj = Tuple[Tuple[int, ...], int]   # (root, shift)


class CMorphism:
    """A morphism of the orbit category between canonical-window objects.

    pieces[l] is None or ("H", vmap) / ("E", cocycle coords), a morphism
    X -> F^l(Y) of the derived category.
    """

    def __init__(self, src: Obj, tgt: Obj, pieces: Dict[int, Optional[tuple]]):
        self.src = src
        self.tgt = tgt
        self.pieces = {0: pieces.get(0), 1: pieces.get(1)}

    def __repr__(self):
        kinds = {l: (p[0] if p else None) for l, p in self.pieces.items()}
        return "CMorphism(%r -> %r, %r)" % (self.src, self.tgt, kinds)


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
        # matrices of linear maps on piece spaces, filled lazily per root pair:
        # (kind, a_root, b_root) -> (output kind, matrix of F, output shapes)
        self._push_maps: Dict[tuple, tuple] = {}
        # (a_root, b_root) -> matrix taking Hom coordinates to P1 lift blocks
        self._lift_maps: Dict[tuple, np.ndarray] = {}
        # (x, y) -> hom_basis(x, y), for normalized x and y
        self._hom_bases: Dict[Tuple[Obj, Obj], List[CMorphism]] = {}
        # position of each canonical object in objects(), and the Ext^k
        # dimension table over them, built on the first dimension query
        self.index = {x: i for i, x in enumerate(self.objects())}
        self._dims: Optional[np.ndarray] = None

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

    def dims(self) -> np.ndarray:
        """dims[i, j, k] = dim Hom(X_i, X_j[k]) over objects(), 0 <= k <= d+1.

        Built once from the Euler form: Dynkin indecomposables are directing
        (Ringel), so for roots a, b dim Hom = max(<a, b>, 0) and dim Ext^1 =
        max(-<a, b>, 0).  X_j[k] is normalized to a canonical c, and the entry
        adds those pieces of X_i against c and F c (piece_dim, the oracle,
        reads the same pieces from linear algebra).
        """
        if self._dims is None:
            self._dims = self._build_dims()
        return self._dims

    def _build_dims(self) -> np.ndarray:
        cat = self.cat
        roots = cat.roots
        objs = self.objects()
        mat = np.array(roots, dtype=np.int64)
        euler = mat @ cat.euler @ mat.T
        hom, ext = np.maximum(euler, 0), np.maximum(-euler, 0)
        # the two slots of each target: root index and shift of c and of F c
        targets = []
        for root, shift in objs:
            row = []
            for k in range(self.d + 2):
                c = self.normalize((root, shift + k))[0]
                fc = self.obj_F(c)
                row.append((cat.root_index[c[0]], c[1],
                            cat.root_index[fc[0]], fc[1]))
            targets.append(row)
        t = np.array(targets, dtype=np.int64)          # (objects, d+2, 4)
        src_root = np.array([cat.root_index[r] for r, _ in objs])[:, None, None]
        src_shift = np.array([s for _, s in objs])[:, None, None]
        out = np.zeros((len(objs), len(objs), self.d + 2), dtype=np.int64)
        for slot in (0, 2):
            tgt_root, gap = t[None, :, :, slot], t[None, :, :, slot + 1] - src_shift
            out += np.where(gap == 0, hom[src_root, tgt_root],
                            np.where(gap == 1, ext[src_root, tgt_root], 0))
        return out

    def ext_dim(self, x: Obj, y: Obj, k: int) -> int:
        """dim Hom(X, Y[k]) from dims(); objects outside the fundamental domain
        and k outside 0..d+1 are normalized first and read at k = 0."""
        dims = self.dims()
        i, j = self.index.get(x), self.index.get(y)
        if i is None or j is None or not 0 <= k <= self.d + 1:
            i = self.index[self.normalize(x)[0]]
            j = self.index[self.normalize((y[0], y[1] + k))[0]]
            k = 0
        return int(dims[i, j, k])

    def hom_dim(self, x: Obj, y: Obj) -> int:
        return self.ext_dim(x, y, 0)

    def hom_dim_wide(self, x: Obj, y: Obj, window: int = 4) -> int:
        """Brute-force orbit sum over slots -window..d+window (test oracle)."""
        x = self.normalize(x)[0]
        y = self.normalize(y)[0]
        total = 0
        cur = y
        for _ in range(window):
            cur = self.obj_F_inv(cur)
        for _ in range(2 * window + self.d):
            total += self.piece_dim(x, cur)
            cur = self.obj_F(cur)
        return total

    # -- morphism spaces -----------------------------------------------------

    def piece_basis(self, src: Obj, tgt: Obj) -> List[tuple]:
        gap = tgt[1] - src[1]
        if gap == 0:
            return [("H", f) for f in self.cat.hom_basis(src[0], tgt[0])]
        if gap == 1:
            return [("E", u) for u in self.cat.ext_basis_coords(src[0], tgt[0])]
        return []

    def piece_is_zero(self, src: Obj, tgt: Obj, piece: Optional[tuple]) -> bool:
        if piece is None:
            return True
        kind, data = piece
        if kind == "H":
            return vmap_is_zero(data)
        return not self.cat.ext_class(src[0], tgt[0], data).any()

    def piece_coords(self, src: Obj, tgt: Obj, piece: Optional[tuple]) -> np.ndarray:
        """Coordinates of a piece in piece_basis(src, tgt): Hom coordinates of
        a module map, the class of a cocycle (the Ext basis is the section of
        the class projection), zeros for an empty slot."""
        if piece is None:
            return np.zeros(self.piece_dim(src, tgt), dtype=np.int64)
        kind, data = piece
        if kind == "E":
            return self.cat.ext_class(src[0], tgt[0], data)
        coords = self.cat.hom_coords(src[0], tgt[0], data)
        if coords is None:
            raise RuntimeError("a module map %r -> %r lies outside the span of "
                               "the Hom basis" % (src, tgt))
        return coords

    def hom_basis(self, x: Obj, y: Obj) -> List[CMorphism]:
        """Basis of Hom_C(x, y) (cached): the basis of the slot-0 piece, then
        that of the slot-1 piece.  Its length must match the dimension table,
        which the fan layer reads to skip and key summands."""
        x = self.normalize(x)[0]
        y = self.normalize(y)[0]
        key = (x, y)
        if key not in self._hom_bases:
            basis = [CMorphism(x, y, {l: piece}) for l, fly in enumerate((y, self.obj_F(y)))
                     for piece in self.piece_basis(x, fly)]
            dim = self.hom_dim(x, y)
            if len(basis) != dim:
                raise RuntimeError("Hom(%r, %r) has %d basis morphisms, but the "
                                   "dimension table gives %d" % (x, y, len(basis), dim))
            self._hom_bases[key] = basis
        return self._hom_bases[key]

    def is_zero(self, f: CMorphism) -> bool:
        fy = self.obj_F(f.tgt)
        return (self.piece_is_zero(f.src, f.tgt, f.pieces[0])
                and self.piece_is_zero(f.src, fy, f.pieces[1]))

    def morph_coords(self, f: CMorphism) -> np.ndarray:
        """Coordinates of f in hom_basis(f.src, f.tgt)."""
        fy = self.obj_F(f.tgt)
        return np.concatenate([self.piece_coords(f.src, f.tgt, f.pieces[0]),
                               self.piece_coords(f.src, fy, f.pieces[1])])

    def identity(self, x: Obj) -> CMorphism:
        x = self.normalize(x)[0]
        return CMorphism(x, x, {0: ("H", reps.vmap_id(self.cat.rep[x[0]]))})

    def add(self, f: CMorphism, g: CMorphism) -> CMorphism:
        assert f.src == g.src and f.tgt == g.tgt
        pieces = {}
        for l in (0, 1):
            a, b = f.pieces[l], g.pieces[l]
            if a is None:
                pieces[l] = b
            elif b is None:
                pieces[l] = a
            elif a[0] == "H":
                pieces[l] = ("H", vmap_add(self.cat.p, a[1], b[1]))
            else:
                pieces[l] = ("E", (a[1] + b[1]) % self.cat.p)
        return CMorphism(f.src, f.tgt, pieces)

    def scale(self, c: int, f: CMorphism) -> CMorphism:
        pieces = {}
        for l in (0, 1):
            a = f.pieces[l]
            if a is None:
                pieces[l] = None
            elif a[0] == "H":
                pieces[l] = ("H", vmap_scale(self.cat.p, c, a[1]))
            else:
                pieces[l] = ("E", (int(c) * a[1]) % self.cat.p)
        return CMorphism(f.src, f.tgt, pieces)

    # -- composition in the derived category ----------------------------------

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
        coords = cat.hom_coords(a_root, b_root, fv)
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

    # -- the translation functor on pieces ------------------------------------

    def push_piece(self, src: Obj, tgt: Obj, piece: Optional[tuple]) -> Optional[tuple]:
        """Image under F of a piece src -> tgt, as a piece F(src) -> F(tgt).

        F is linear on each piece space: its matrix is built once per
        (kind, source root, target root) by _push_direct on a basis (Hom
        basis vmaps, or unit cocycles), and each push is one product.
        """
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
            coords = self.cat.hom_coords(a_root, b_root, data)
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
        """push_piece by lifting along (co)presentations (the oracle)."""
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
                na, ra = cat.pres[cat.tau_minus[a_root]], cat.tau_minus[a_root]
                nb, rb = cat.pres[cat.tau_minus[b_root]], cat.tau_minus[b_root]
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
                return ("E", cat.coords_from_pmap(na.p1, cat.rep[pyroot], nu_phi0))
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
        umap = cat.pmap_from_coords(pa.p1, cat.rep[b_root], data)
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
            return ("E", cat.coords_from_pmap(na.p1, cat.rep[cat.tau_minus[b_root]], out))
        # source injective: the class becomes a plain module map P_x -> tau^{-1}B
        x = self.inj_vertex[a_root]
        ix = cat.isum([x])
        w = cat.solve_block_map(ix, cb.j1, [(None, pa.pi, rhs)])
        if w is None:
            raise RuntimeError("injective-model solve failed")
        blocks = cat.vmap_to_blocks(ix, cb.j1, w)
        nu_w = cat.blocks_to_vmap(cat.psum([x]), nb.p0, blocks)
        return ("H", vmap_compose(p, nb.pi, nu_w))

    # -- composition and shifts in the orbit category --------------------------

    def compose(self, g: CMorphism, f: CMorphism) -> CMorphism:
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
        return CMorphism(x, z, pieces)

    def shift_down(self, f: CMorphism) -> CMorphism:
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
