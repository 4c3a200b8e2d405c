"""Representations of a Dynkin quiver over F_p.

The whole engine leans on the underlying graph being a tree:

  * indecomposable projectives P_x and injectives I_x are "interval"
    representations (dimension <= 1 at every vertex, all arrow maps = 1 on
    the support), with supp P_x = {v : x ~> v} and supp I_x = {v : v ~> x};
  * Hom(P_a, P_b), Hom(I_a, I_b) and Hom(P_a, I_b) are at most 1-dimensional,
    spanned by a canonical indicator morphism, so the Nakayama equivalence
    nu: proj -> inj is strict relabelling with coefficient 1;
  * the algebra is hereditary, so minimal projective presentations and
    minimal injective copresentations are short exact.

The roots of P_x and I_x are their supports and tau acts on roots as the
Coxeter matrix, so no dimension count needs a module.  The modules are the
morphism layer, knitted on the first access to rep or pres: tau^{-1} is
applied repeatedly to the projectives, as tau^{-1} M = coker( nu^{-1} J0 ->
nu^{-1} J1 ) for the minimal injective copresentation 0 -> M -> J0 -> J1 -> 0,
and each cokernel must have the Coxeter tau^{-1} as its dimension vector.
The nu^{-1}-image of that copresentation is kept as *the* projective
presentation of tau^{-1} M, which keeps every later Ext computation
consistent with the translation functor.

Isomorphism testing is dimension-vector equality (valid here: Gabriel).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import linalg
from .quiver import DynkinQuiver, coxeter_matrix, directed_paths, euler_matrix, \
    positive_roots

Root = Tuple[int, ...]


class Rep:
    """A quiver representation: dims per vertex, one matrix per arrow.

    The matrix for an arrow s -> t has shape (dims[t], dims[s]) and acts on
    column vectors.
    """

    def __init__(self, q: DynkinQuiver, dims, mats):
        self.q = q
        self.dims = tuple(int(x) for x in dims)
        self.mats = [np.asarray(m, dtype=np.int64).reshape(
            self.dims[t], self.dims[s]) for (s, t), m in zip(q.arrows, mats)]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def __repr__(self):
        return "Rep(dims=%r)" % (self.dims,)


# ---------------------------------------------------------------------------
# vertexwise maps ("vmaps"): a list of matrices, one per vertex


def vmap_zero(src: Rep, tgt: Rep) -> List[np.ndarray]:
    return [linalg.zeros(tgt.dims[v], src.dims[v]) for v in range(src.q.rank)]


def vmap_id(m: Rep) -> List[np.ndarray]:
    return [linalg.eye(d) for d in m.dims]


def vmap_compose(p: int, g: List[np.ndarray], f: List[np.ndarray]) -> List[np.ndarray]:
    return [(g[v] @ f[v]) % p for v in range(len(f))]


def vmap_add(p, f, g):
    return [(f[v] + g[v]) % p for v in range(len(f))]


def vmap_scale(p, c, f):
    return [(int(c) * f[v]) % p for v in range(len(f))]


def vmap_flatten(f: List[np.ndarray]) -> np.ndarray:
    if not f:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([m.ravel() for m in f])


def vmap_unflatten(flat: np.ndarray, shapes) -> List[np.ndarray]:
    """Inverse of vmap_flatten for vertex matrices of the given shapes."""
    out, lo = [], 0
    for rows, cols in shapes:
        out.append(flat[lo:lo + rows * cols].reshape(rows, cols))
        lo += rows * cols
    return out


def vmap_is_zero(f) -> bool:
    return all(not m.size or not m.any() for m in f)


def vmap_invert(p, f):
    return [linalg.inv_mod(m, p) for m in f]


def is_morphism(p: int, src: Rep, tgt: Rep, f: List[np.ndarray]) -> bool:
    """Does f commute with all arrow actions?"""
    for i, (s, t) in enumerate(src.q.arrows):
        lhs = (f[t] @ src.mats[i]) % p
        rhs = (tgt.mats[i] @ f[s]) % p
        if not np.array_equal(lhs, rhs):
            return False
    return True


class SumRep:
    """A formal direct sum of indecomposable projectives or injectives.

    kind is "P" or "I"; verts lists the defining vertex of each summand
    (with multiplicity).  The realized Rep keeps each summand in a
    contiguous block, with offsets[i][v] the row offset of summand i at
    vertex v (or None when the summand has no support there).
    """

    def __init__(self, cat: "ModuleCategory", kind: str, verts):
        self.cat = cat
        self.kind = kind
        self.verts = tuple(int(v) for v in verts)
        q = cat.q
        self.supports = [cat.psupp[x] if kind == "P" else cat.isupp[x]
                         for x in self.verts]
        dims = [0] * q.rank
        self.offsets: List[List[Optional[int]]] = []
        for supp in self.supports:
            offs: List[Optional[int]] = [None] * q.rank
            for v in range(q.rank):
                if v in supp:
                    offs[v] = dims[v]
                    dims[v] += 1
            self.offsets.append(offs)
        mats = []
        for i, (s, t) in enumerate(q.arrows):
            m = linalg.zeros(dims[t], dims[s])
            for k, supp in enumerate(self.supports):
                if s in supp and t in supp:
                    m[self.offsets[k][t], self.offsets[k][s]] = 1
            mats.append(m)
        self.rep = Rep(q, dims, mats)

    def __len__(self):
        return len(self.verts)


# ---------------------------------------------------------------------------


class PresData:
    """Short exact 0 -> P1 -> P0 -> M -> 0 (p1 may be the empty sum)."""

    def __init__(self, p1: SumRep, p0: SumRep, p_blocks: np.ndarray,
                 p_vmap, pi, sec):
        self.p1 = p1          # SumRep of kind P
        self.p0 = p0          # SumRep of kind P
        self.p_blocks = p_blocks  # (len p0, len p1) canonical-generator scalars
        self.p_vmap = p_vmap  # realized map p1.rep -> p0.rep
        self.pi = pi          # p0.rep -> M
        self.sec = sec        # M -> p0.rep with pi . sec = id


class CopresData:
    """Short exact 0 -> M -> J0 -> J1 -> 0 (j1 may be the empty sum)."""

    def __init__(self, j0: SumRep, j1: SumRep, delta_blocks: np.ndarray,
                 delta_vmap, iota):
        self.j0 = j0
        self.j1 = j1
        self.delta_blocks = delta_blocks  # (len j1, len j0)
        self.delta_vmap = delta_vmap      # j0.rep -> j1.rep
        self.iota = iota                  # M -> j0.rep


class ModuleCategory:
    """All indecomposables of mod kQ over F_p, with Hom/Ext machinery."""

    def __init__(self, q: DynkinQuiver, p: int = 101):
        self.q = q
        self.p = p
        self.roots = positive_roots(q)
        # Every product below has inner dimension at most rank * height *
        # (largest coefficient): a (co)presentation term of an indecomposable
        # M has at most sum_x dim Ext^1(S_x, M) <= rank * dim M summands, and
        # a cocycle has one block of size <= largest coefficient per summand.
        linalg.check_field(p, q.rank * max(map(sum, self.roots))
                           * max(map(max, self.roots)))
        self.paths = directed_paths(q)
        self.psupp = [frozenset(v for v in range(q.rank) if (x, v) in self.paths)
                      for x in range(q.rank)]
        self.isupp = [frozenset(v for v in range(q.rank) if (v, x) in self.paths)
                      for x in range(q.rank)]
        self.euler = euler_matrix(q)
        self.root_index = {r: i for i, r in enumerate(self.roots)}
        self.proj_root = [tuple(int(v in s) for v in range(q.rank)) for s in self.psupp]
        self.inj_root = [tuple(int(v in s) for v in range(q.rank)) for s in self.isupp]
        # [tau M] = Phi [M]; Phi [P_x] = -[I_x] is not a root, so tau P_x = 0
        phi = coxeter_matrix(q)
        self.tau_minus: Dict[Root, Optional[Root]] = dict.fromkeys(self.roots)
        self.tau_plus: Dict[Root, Optional[Root]] = dict.fromkeys(self.roots)
        for r in self.roots:
            t = tuple(int(v) for v in phi @ r)
            if t in self.root_index:
                self.tau_plus[r], self.tau_minus[t] = t, r
        self._hom_cache: Dict[Tuple[Root, Root], List[List[np.ndarray]]] = {}
        self._ext_cache: Dict[Tuple[Root, Root], tuple] = {}
        self._hom_coords_cache: Dict[Tuple[Root, Root], tuple] = {}

    @cached_property
    def _knitted(self) -> tuple:
        return self._knit()

    # root -> its indecomposable, and -> its projective presentation
    rep = property(lambda self: self._knitted[0])
    pres = property(lambda self: self._knitted[1])

    # -- interval modules ---------------------------------------------------

    def interval(self, support) -> Rep:
        dims = [1 if v in support else 0 for v in range(self.q.rank)]
        mats = []
        for s, t in self.q.arrows:
            if s in support and t in support:
                mats.append(np.array([[1]], dtype=np.int64))
            else:
                mats.append(linalg.zeros(dims[t], dims[s]))
        return Rep(self.q, dims, mats)

    def proj(self, x: int) -> Rep:
        return self.interval(self.psupp[x])

    def inj(self, x: int) -> Rep:
        return self.interval(self.isupp[x])

    def psum(self, verts) -> SumRep:
        return SumRep(self, "P", verts)

    def isum(self, verts) -> SumRep:
        return SumRep(self, "I", verts)

    def path_matrix(self, m: Rep, u: int, v: int) -> np.ndarray:
        """Action of the unique path u ~> v on m, as a dims[v] x dims[u] matrix."""
        out = linalg.eye(m.dims[u])
        for a in self.paths[(u, v)]:
            out = (m.mats[a] @ out) % self.p
        return out

    # -- canonical generators between P/I summands --------------------------

    def _gen_support(self, skind: str, a: int, tkind: str, b: int):
        """Support of the canonical generator summand_a -> summand_b, or None."""
        if skind == "P" and tkind == "P":
            return self.psupp[a] if (b, a) in self.paths else None
        if skind == "I" and tkind == "I":
            return self.isupp[b] if (b, a) in self.paths else None
        if skind == "P" and tkind == "I":
            if (a, b) not in self.paths:
                return None
            return frozenset(v for v in self.psupp[a] if v in self.isupp[b])
        raise ValueError("no canonical generators from I to P")

    def block_generators(self, src: SumRep, tgt: SumRep):
        """All canonical generator blocks (i, j, vmap): src summand i -> tgt j.

        These form a basis of Hom(src.rep, tgt.rep).
        """
        out = []
        for i, a in enumerate(src.verts):
            for j, b in enumerate(tgt.verts):
                supp = self._gen_support(src.kind, a, tgt.kind, b)
                if supp is None:
                    continue
                f = vmap_zero(src.rep, tgt.rep)
                for v in supp:
                    f[v][tgt.offsets[j][v], src.offsets[i][v]] = 1
                out.append((i, j, f))
        return out

    def blocks_to_vmap(self, src: SumRep, tgt: SumRep, blocks: np.ndarray):
        """Realize a (len tgt, len src) scalar block matrix as a vmap."""
        f = vmap_zero(src.rep, tgt.rep)
        for i, j, g in self.block_generators(src, tgt):
            c = int(blocks[j, i]) % self.p
            if c:
                f = vmap_add(self.p, f, vmap_scale(self.p, c, g))
        return f

    def vmap_to_blocks(self, src: SumRep, tgt: SumRep, f) -> np.ndarray:
        """Extract canonical block scalars from a map src.rep -> tgt.rep."""
        blocks = linalg.zeros(len(tgt), len(src))
        for i, a in enumerate(src.verts):
            for j, b in enumerate(tgt.verts):
                supp = self._gen_support(src.kind, a, tgt.kind, b)
                if supp is None:
                    continue
                probe = a if src.kind == "P" else b
                blocks[j, i] = f[probe][tgt.offsets[j][probe],
                                        src.offsets[i][probe]]
        return blocks

    def solve_block_map(self, src: SumRep, tgt: SumRep, conditions):
        """Solve for X: src -> tgt in the canonical-generator span.

        conditions is a list of (left, right, rhs) with left: tgt.rep -> W,
        right: V -> src.rep (either may be None for identity) and rhs a vmap
        V -> W; the constraint is left . X . right = rhs.  Returns a vmap or
        None when the system is inconsistent.
        """
        gens = self.block_generators(src, tgt)
        cols = []
        rhs_flat = np.concatenate([vmap_flatten(rhs) for _, _, rhs in conditions]) \
            if conditions else np.zeros(0, dtype=np.int64)
        for _, _, g in gens:
            pieces = []
            for left, right, _ in conditions:
                term = g
                if right is not None:
                    term = vmap_compose(self.p, term, right)
                if left is not None:
                    term = vmap_compose(self.p, left, term)
                pieces.append(vmap_flatten(term))
            cols.append(np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64))
        a = np.stack(cols, axis=1) if cols else linalg.zeros(len(rhs_flat), 0)
        z = linalg.solve_mod(a, rhs_flat, self.p)
        if z is None:
            return None
        f = vmap_zero(src.rep, tgt.rep)
        for (_, _, g), c in zip(gens, z):
            if int(c):
                f = vmap_add(self.p, f, vmap_scale(self.p, int(c), g))
        return f

    # -- envelopes and knitting ---------------------------------------------

    def socle_functionals(self, m: Rep):
        """(vertex, functional row) pairs giving a dual basis of soc(m)."""
        out = []
        for x in range(self.q.rank):
            outs = [m.mats[i] for i, (s, _) in enumerate(self.q.arrows) if s == x]
            stacked = np.concatenate(outs, axis=0) if outs else linalg.zeros(0, m.dims[x])
            soc = linalg.nullspace_mod(stacked, self.p)
            if soc.shape[1] == 0:
                continue
            _, sec = linalg.cokernel_mod(soc, self.p)
            basis = np.concatenate([soc, sec], axis=1)
            lam = linalg.inv_mod(basis, self.p)[:soc.shape[1], :]
            for k in range(soc.shape[1]):
                out.append((x, lam[k]))
        return out

    def envelope(self, m: Rep):
        """Injective envelope: (ISum j0, iota: m -> j0.rep)."""
        socs = self.socle_functionals(m)
        j0 = self.isum([x for x, _ in socs])
        iota = vmap_zero(m, j0.rep)
        for i, (x, lam) in enumerate(socs):
            for v in self.isupp[x]:
                row = (lam @ self.path_matrix(m, v, x)) % self.p
                iota[v][j0.offsets[i][v], :] = row
        return j0, iota

    def copresentation(self, root: Root) -> CopresData:
        """The copresentation knitting took tau^{-1} of (root not injective)."""
        return self._knitted[2][root]

    def _cokernel(self, tgt: Rep, f):
        """(coker f, projections, sections) of a vmap f into tgt, per vertex."""
        projs, secs = zip(*(linalg.cokernel_mod(fv, self.p) for fv in f))
        mats = [linalg.mmul(self.p, projs[t], tgt.mats[i], secs[s])
                for i, (s, t) in enumerate(self.q.arrows)]
        return Rep(self.q, [pr.shape[0] for pr in projs], mats), projs, secs

    def _copresent(self, m: Rep) -> CopresData:
        p = self.p
        j0, iota = self.envelope(m)
        if not is_morphism(p, m, j0.rep, iota):
            raise RuntimeError("envelope map is not a morphism")
        coker, projs, _ = self._cokernel(j0.rep, iota)
        j1, iota_c = self.envelope(coker)
        # hereditary: the cokernel is itself injective, so its envelope has
        # the same total dimension and delta is onto
        if j1.rep.total_dim != coker.total_dim:
            raise RuntimeError("copresentation is not short exact (not hereditary?)")
        delta = [linalg.mmul(p, iota_c[v], projs[v]) for v in range(self.q.rank)]
        blocks = self.vmap_to_blocks(j0, j1, delta)
        # the extraction must be faithful
        if not all(np.array_equal(a, b) for a, b in
                   zip(self.blocks_to_vmap(j0, j1, blocks), delta)):
            raise RuntimeError("delta is not in the canonical block span")
        return CopresData(j0, j1, blocks, delta, iota)

    def _nakayama_minus(self, isrc: SumRep, itgt: SumRep, blocks: np.ndarray):
        """nu^{-1} of a map between injective sums: same blocks, P-sums."""
        psrc = self.psum(isrc.verts)
        ptgt = self.psum(itgt.verts)
        return psrc, ptgt, self.blocks_to_vmap(psrc, ptgt, blocks)

    def _knit(self) -> tuple:
        """(rep, pres, copres) by root, checked against the Coxeter tau."""
        q, p = self.q, self.p
        inj_vertex = {r: x for x, r in enumerate(self.inj_root)}
        rep: Dict[Root, Rep] = {}
        pres: Dict[Root, PresData] = {}
        copres: Dict[Root, CopresData] = {}
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
                p1, p0, pvm = self._nakayama_minus(cop.j0, cop.j1, cop.delta_blocks)
                new, projs, secs = self._cokernel(p0.rep, pvm)
                new_root = new.dims
                if new_root != self.tau_minus[cur_root]:
                    raise RuntimeError("knitted tau^-1 of %r is %r, not the Coxeter "
                                       "image %r" % (cur_root, new_root,
                                                     self.tau_minus[cur_root]))
                pi, sec = projs, secs
                if new_root in inj_vertex:
                    # rebase onto the canonical interval copy of the injective
                    target = self.inj(inj_vertex[new_root])
                    u = self._iso(new, target)
                    uinv = vmap_invert(p, u)
                    pi = [linalg.mmul(p, u[v], projs[v]) for v in range(q.rank)]
                    sec = [linalg.mmul(p, secs[v], uinv[v]) for v in range(q.rank)]
                    new = target
                if new_root in rep:
                    raise RuntimeError("knitting revisited root %r" % (new_root,))
                rep[new_root] = new
                pres[new_root] = PresData(
                    p1, p0, self.vmap_to_blocks(p1, p0, pvm), pvm,
                    [m.copy() for m in pi], [m.copy() for m in sec])
                cur_root, cur = new_root, new
        if len(rep) != len(self.roots):
            raise RuntimeError("knitting found %d indecomposables, expected %d"
                               % (len(rep), len(self.roots)))
        return rep, pres, copres

    def _iso(self, a: Rep, b: Rep):
        basis = self.hom_vmaps(a, b)
        for f in basis:
            if all(linalg.rank_mod(f[v], self.p) == a.dims[v]
                   for v in range(self.q.rank) if a.dims[v]):
                return f
        raise RuntimeError("expected an isomorphism between equal dimension vectors")

    # -- Hom and Ext --------------------------------------------------------

    def hom_vmaps(self, a: Rep, b: Rep) -> List[List[np.ndarray]]:
        """Echelon basis of Hom(a, b) as vmaps (uncached; see hom_basis)."""
        p = self.p
        n = self.q.rank
        sizes = [b.dims[v] * a.dims[v] for v in range(n)]
        offs = np.cumsum([0] + sizes)
        total = int(offs[-1])
        heights = [b.dims[t] * a.dims[s] for s, t in self.q.arrows]
        system = linalg.zeros(sum(heights), total)
        lo = 0
        for i, (s, t) in enumerate(self.q.arrows):
            # phi_t a(i) - b(i) phi_s = 0, unknowns = row-major entries of each
            # phi_v; the equation (r, c) is row r * a.dims[s] + c of the block
            bt, a_s = b.dims[t], a.dims[s]
            blk = system[lo:lo + heights[i]].reshape(bt, a_s, total)
            lo += heights[i]
            if not heights[i]:
                continue  # skips the index work of the many empty blocks
            # (phi_t a(i))[r, c] = sum_q phi_t[r, q] a(i)[q, c]
            left = blk[:, :, offs[t]:offs[t + 1]].reshape(bt, a_s, bt, a.dims[t])
            rr = np.arange(bt)
            left[rr, :, rr, :] = a.mats[i].T
            # (b(i) phi_s)[r, c] = sum_q b(i)[r, q] phi_s[q, c]
            right = blk[:, :, offs[s]:offs[s + 1]].reshape(bt, a_s, b.dims[s], a_s)
            cc = np.arange(a_s)
            right[:, cc, :, cc] = (-b.mats[i]) % p
        ns = linalg.nullspace_mod(system, p)
        shapes = [(b.dims[v], a.dims[v]) for v in range(n)]
        return [vmap_unflatten(ns[:, k], shapes) for k in range(ns.shape[1])]

    def hom_basis(self, ra: Root, rb: Root):
        key = (ra, rb)
        if key not in self._hom_cache:
            self._hom_cache[key] = self.hom_vmaps(self.rep[ra], self.rep[rb])
        return self._hom_cache[key]

    def hom_coords(self, ra: Root, rb: Root, f) -> Optional[np.ndarray]:
        """Coordinates of the vmap f in hom_basis(ra, rb), or None if f is
        not in its span (not a morphism).

        Per pair this keeps the flattened basis, a set of pivot rows on which
        it is invertible and the inverse of that minor; the coordinates read
        off the pivot rows are then checked against every row.
        """
        key = (ra, rb)
        if key not in self._hom_coords_cache:
            basis = self.hom_basis(ra, rb)
            size = sum(self.rep[rb].dims[v] * self.rep[ra].dims[v]
                       for v in range(self.q.rank))
            mat = np.stack([vmap_flatten(g) for g in basis], axis=1) if basis \
                else linalg.zeros(size, 0)
            _, piv = linalg.rref_mod(mat.T, self.p)
            self._hom_coords_cache[key] = (mat, piv,
                                           linalg.inv_mod(mat[piv, :], self.p))
        mat, piv, minv = self._hom_coords_cache[key]
        flat = vmap_flatten(f) % self.p
        coords = (minv @ flat[piv]) % self.p
        if not np.array_equal((mat @ coords) % self.p, flat):
            return None
        return coords

    def hom_dim(self, ra: Root, rb: Root) -> int:
        return len(self.hom_basis(ra, rb))

    def euler_pairing(self, ra, rb) -> int:
        return int(np.asarray(ra, dtype=np.int64) @ self.euler @ np.asarray(rb, dtype=np.int64))

    def ext_dim(self, ra: Root, rb: Root) -> int:
        return self.ext_data(ra, rb)[2]

    # Ext^1(A, N) is Hom(P1, N) / im Hom(P0, N), with Hom(P., N) read through
    # Hom(P_x, N) = N_x.  Cocycles are coordinate vectors in (+) N_{p1.verts}.

    def coord_slices(self, sumrep: SumRep, n: Rep):
        sizes = [n.dims[x] for x in sumrep.verts]
        offs = np.cumsum([0] + sizes)
        return [(int(offs[i]), int(offs[i + 1])) for i in range(len(sizes))]

    def pushforward_coords(self, blocks: np.ndarray, src: SumRep, tgt: SumRep,
                           n: Rep, coords: np.ndarray) -> np.ndarray:
        """Coordinates of (phi . h) given phi: tgt -> n and h: src -> tgt."""
        p = self.p
        ssl = self.coord_slices(src, n)
        tsl = self.coord_slices(tgt, n)
        out = np.zeros(ssl[-1][1] if ssl else 0, dtype=np.int64)
        for si, a in enumerate(src.verts):
            acc = np.zeros(n.dims[a], dtype=np.int64)
            for ti, b in enumerate(tgt.verts):
                c = int(blocks[ti, si]) % p
                if c and (b, a) in self.paths:
                    acc = (acc + c * ((self.path_matrix(n, b, a)
                                       @ coords[tsl[ti][0]:tsl[ti][1]]) % p)) % p
            lo, hi = ssl[si]
            out[lo:hi] = acc
        return out

    def pmap_from_coords(self, psum: SumRep, n: Rep, coords: np.ndarray):
        """The morphism psum.rep -> n with the given generator images."""
        sl = self.coord_slices(psum, n)
        f = vmap_zero(psum.rep, n)
        for i, x in enumerate(psum.verts):
            gen = coords[sl[i][0]:sl[i][1]]
            for v in self.psupp[x]:
                col = (self.path_matrix(n, x, v) @ gen) % self.p
                f[v][:, psum.offsets[i][v]] = col
        return f

    def coords_from_pmap(self, psum: SumRep, n: Rep, f) -> np.ndarray:
        sl = self.coord_slices(psum, n)
        out = np.zeros(sl[-1][1] if sl else 0, dtype=np.int64)
        for i, x in enumerate(psum.verts):
            out[sl[i][0]:sl[i][1]] = f[x][:, psum.offsets[i][x]]
        return out

    def ext_data(self, ra: Root, rb: Root):
        """(Q, S, dim) for Ext^1(A, B): Q projects cocycles onto classes,
        S sections class coordinates back to cocycles."""
        key = (ra, rb)
        if key in self._ext_cache:
            return self._ext_cache[key]
        pres = self.pres[ra]
        n = self.rep[rb]
        sl1 = self.coord_slices(pres.p1, n)
        len1 = sl1[-1][1] if sl1 else 0
        sl0 = self.coord_slices(pres.p0, n)
        len0 = sl0[-1][1] if sl0 else 0
        cob = linalg.zeros(len1, len0)
        for j in range(len0):
            e = np.zeros(len0, dtype=np.int64)
            e[j] = 1
            cob[:, j] = self.pushforward_coords(pres.p_blocks, pres.p1, pres.p0, n, e)
        q_, s_ = linalg.cokernel_mod(cob, self.p)
        data = (q_, s_, q_.shape[0])
        if data[2] != self.hom_dim(ra, rb) - self.euler_pairing(ra, rb):
            raise RuntimeError("Ext dimension mismatch for %r, %r" % (ra, rb))
        self._ext_cache[key] = data
        return data

    def ext_basis_coords(self, ra: Root, rb: Root) -> List[np.ndarray]:
        _, s_, dim = self.ext_data(ra, rb)
        return [s_[:, k].copy() for k in range(dim)]

    def ext_class(self, ra: Root, rb: Root, cocycle: np.ndarray) -> np.ndarray:
        q_, _, _ = self.ext_data(ra, rb)
        return (q_ @ cocycle) % self.p
