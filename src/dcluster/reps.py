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

The roots of P_x and I_x are their supports, and tau acts on roots as the
Coxeter transformation -E^{-1} E^T by quiver.coxeter_map, the one sweep for
Phi, so no dimension count needs a module; morphisms of the orbit category
are paths of ZQ (see orbit), so no composition needs one either.
The modules are the linear-algebra witness that the Euler-form dimensions are right: the
euler-identity and window-hom-reduction checks read hom_dim, the nullity of
the Hom system, and ext_dim, the corank of the coboundary, two separate
systems so that hom - ext = <a, b> is not read off one rank.  Both are
small (a Hom system averages about 12 x 12 on E8), so they are assembled
once as rows of Python ints and reduced by linalg.rref_rows.  The modules
are knitted on the first access to rep or pres, on row matrices of Python
ints too (a map of representations, a "vmap", is one row matrix per
vertex), so the knit imports no numpy: tau^{-1} is applied repeatedly to
the projectives, as
tau^{-1} M = coker( nu^{-1} J0 -> nu^{-1} J1 ) for the minimal injective
copresentation 0 -> M -> J0 -> J1 -> 0, and each cokernel must have the
Coxeter tau^{-1} as its dimension vector.  The nu^{-1}-image of that
copresentation is kept as *the* projective presentation of tau^{-1} M, which
keeps every Ext computation consistent with the translation functor.
hom_vmaps/hom_basis, solve_block_map, copresentation, coboundary,
pushforward_coords and ext_data are the array edge that the tests' module
oracle composes with: they take and return int64 arrays, converting rows.

Isomorphism testing is dimension-vector equality (valid here: Gabriel).
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from . import linalg
from .linalg import mul_rows
from .quiver import (DynkinQuiver, _identity, coxeter_map, directed_paths, euler_matrix,
                     positive_roots)

if TYPE_CHECKING:
    import numpy as np

Root = Tuple[int, ...]
Rows = List[List[int]]   # a matrix over F_p as its rows of Python ints


def _zeros(rows: int, cols: int) -> Rows:
    return [[0] * cols for _ in range(rows)]


class Rep:
    """A quiver representation: dims per vertex, one matrix per arrow.

    The matrix for an arrow s -> t has dims[t] rows of dims[s] ints and acts
    on column vectors.  The matrices are not changed after construction, so
    path actions computed from them are kept in path_actions (see
    ModuleCategory.path_matrix).
    """

    def __init__(self, q: DynkinQuiver, dims, mats: List[Rows]):
        self.q = q
        self.dims = tuple(dims)
        self.mats = mats
        self.path_actions: Dict[Tuple[int, int, int], Tuple[Tuple[int, ...], ...]] = {}

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def __repr__(self):
        return "Rep(dims=%r)" % (self.dims,)


# ---------------------------------------------------------------------------
# vertexwise maps ("vmaps"): a list of row matrices, one per vertex


def vmap_zero(src: Rep, tgt: Rep) -> List[Rows]:
    return [_zeros(t, s) for s, t in zip(src.dims, tgt.dims)]


def vmap_id(m: Rep) -> List[Rows]:
    return [_identity(d) for d in m.dims]


def _array(rows: Rows, cols: int) -> np.ndarray:
    """Rows of ints, possibly none, as an int64 array with `cols` columns."""
    np = linalg.numpy()
    return np.array(rows, dtype=np.int64).reshape(len(rows), cols)


def _arrays(f: List[Rows], src: Rep) -> List[np.ndarray]:
    """The vmap f out of src with its matrices as int64 arrays."""
    return [_array(m, s) for m, s in zip(f, src.dims)]


def is_morphism(p: int, src: Rep, tgt: Rep, f: List[Rows]) -> bool:
    """Does f commute with all arrow actions?"""
    return all(mul_rows(f[t], src.mats[i], src.dims[s], p)
               == mul_rows(tgt.mats[i], f[s], src.dims[s], p)
               for i, (s, t) in enumerate(src.q.arrows))


class SumRep:
    """A formal direct sum of indecomposable projectives or injectives.

    kind is "P" or "I"; verts lists the defining vertex of each summand
    (with multiplicity).  The realized Rep keeps each summand in a
    contiguous block, with offsets[i][v] the row offset of summand i at
    vertex v (or None when the summand has no support there).
    """

    def __init__(self, cat: "ModuleCategory", kind: str, verts):
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
        for s, t in q.arrows:
            m = _zeros(dims[t], dims[s])
            for k, supp in enumerate(self.supports):
                if s in supp and t in supp:
                    m[self.offsets[k][t]][self.offsets[k][s]] = 1
            mats.append(m)
        self.rep = Rep(q, dims, mats)

    def __len__(self):
        return len(self.verts)


# ---------------------------------------------------------------------------


class PresData(NamedTuple):
    """Short exact 0 -> P1 -> P0 -> M -> 0 (p1 may be the empty sum)."""
    p1: SumRep             # of kind P
    p0: SumRep             # of kind P
    p_blocks: Rows         # (len p0, len p1) canonical-generator scalars
    p_vmap: list           # realized map p1.rep -> p0.rep
    pi: list               # p0.rep -> M
    sec: list              # M -> p0.rep with pi . sec = id


class CopresData(NamedTuple):
    """Short exact 0 -> M -> J0 -> J1 -> 0 (j1 may be the empty sum)."""
    j0: SumRep
    j1: SumRep
    delta_blocks: Rows         # (len j1, len j0)
    delta_vmap: list           # j0.rep -> j1.rep
    iota: list                 # M -> j0.rep


class ModuleCategory:
    """All indecomposables of mod kQ over F_p, with Hom/Ext machinery."""

    def __init__(self, q: DynkinQuiver, p: int = 101):
        self.q = q
        self.p = p
        self.roots = positive_roots(q)
        # Every array-edge product has inner dimension at most rank * height *
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
        # [tau M] = Phi [M] (quiver.coxeter_map); Phi [P_x] = -[I_x] is not a
        # root, so tau P_x = 0
        phi = coxeter_map(q)
        self.tau_minus: Dict[Root, Optional[Root]] = dict.fromkeys(self.roots)
        self.tau_plus: Dict[Root, Optional[Root]] = dict.fromkeys(self.roots)
        for r in self.roots:
            t = phi(r)
            if t in self.root_index:
                self.tau_plus[r], self.tau_minus[t] = t, r
        self._hom_cache: Dict[Tuple[Root, Root], List[List[np.ndarray]]] = {}
        self._hom_dims: Dict[Tuple[Root, Root], int] = {}
        self._ext_cache: Dict[Tuple[Root, Root], int] = {}

    @cached_property
    def _knitted(self) -> tuple:
        return self._knit()

    # root -> its indecomposable, and -> its projective presentation
    rep = property(lambda self: self._knitted[0])
    pres = property(lambda self: self._knitted[1])

    # -- interval modules ---------------------------------------------------

    def interval(self, support) -> Rep:
        dims = [1 if v in support else 0 for v in range(self.q.rank)]
        mats = [[[1]] if s in support and t in support else _zeros(dims[t], dims[s])
                for s, t in self.q.arrows]
        return Rep(self.q, dims, mats)

    def proj(self, x: int) -> Rep:
        return self.interval(self.psupp[x])

    def inj(self, x: int) -> Rep:
        return self.interval(self.isupp[x])

    def psum(self, verts) -> SumRep:
        return SumRep(self, "P", verts)

    def isum(self, verts) -> SumRep:
        return SumRep(self, "I", verts)

    def path_matrix(self, m: Rep, u: int, v: int) -> Tuple[Tuple[int, ...], ...]:
        """Action of the unique path u ~> v on m, as dims[v] rows of dims[u]
        ints (tuples, computed once per m)."""
        key = (u, v, self.p)
        out = m.path_actions.get(key)
        if out is None:
            rows = _identity(m.dims[u])
            for a in self.paths[(u, v)]:
                rows = mul_rows(m.mats[a], rows, m.dims[u], self.p)
            out = m.path_actions[key] = tuple(map(tuple, rows))
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
                    f[v][tgt.offsets[j][v]][src.offsets[i][v]] = 1
                out.append((i, j, f))
        return out

    def blocks_to_vmap(self, src: SumRep, tgt: SumRep, blocks: Rows):
        """Realize a (len tgt, len src) scalar block matrix as a vmap: each
        scalar is written on the support of its canonical generator (the
        generators' supports occupy disjoint entries)."""
        f = vmap_zero(src.rep, tgt.rep)
        for i, a in enumerate(src.verts):
            for j, b in enumerate(tgt.verts):
                supp = self._gen_support(src.kind, a, tgt.kind, b)
                c = blocks[j][i] % self.p
                if supp is None or not c:
                    continue
                for v in supp:
                    f[v][tgt.offsets[j][v]][src.offsets[i][v]] = c
        return f

    def vmap_to_blocks(self, src: SumRep, tgt: SumRep, f) -> Rows:
        """Extract canonical block scalars from a map src.rep -> tgt.rep."""
        blocks = _zeros(len(tgt), len(src))
        for i, a in enumerate(src.verts):
            for j, b in enumerate(tgt.verts):
                supp = self._gen_support(src.kind, a, tgt.kind, b)
                if supp is None:
                    continue
                probe = a if src.kind == "P" else b
                blocks[j][i] = f[probe][tgt.offsets[j][probe]][src.offsets[i][probe]]
        return blocks

    def solve_block_map(self, src: SumRep, tgt: SumRep, conditions):
        """Solve for X: src -> tgt in the canonical-generator span.

        conditions is a list of (left, right, rhs) with left: tgt.rep -> W,
        right: V -> src.rep (either may be None for identity) and rhs a vmap
        V -> W, all of int64 arrays; the constraint is left . X . right =
        rhs.  Returns a vmap of int64 arrays (the particular solution of
        linalg.solve_mod: 0 at every free generator) or None when the system
        is inconsistent.
        """
        p = self.p
        gens = self.block_generators(src, tgt)
        # one equation per entry of each rhs, in row-major order: the
        # generators' images at that entry, then the entry of rhs
        system = []
        for left, right, rhs in conditions:
            for v, want in enumerate(rhs):
                cols = want.shape[1]
                images = []
                for _, _, g in gens:
                    term = g[v]
                    if right is not None:
                        term = mul_rows(term, right[v].tolist(), cols, p)
                    if left is not None:
                        term = mul_rows(left[v].tolist(), term, cols, p)
                    images.append(term)
                for r, row in enumerate(want.tolist()):
                    system += [[img[r][c] for img in images] + [w % p]
                               for c, w in enumerate(row)]
        piv = linalg.rref_rows(system, len(gens) + 1, p)
        if piv and piv[-1] == len(gens):
            return None
        blocks = _zeros(len(tgt), len(src))
        for row, k in zip(system, piv):
            i, j, _ = gens[k]
            blocks[j][i] = row[-1]
        return _arrays(self.blocks_to_vmap(src, tgt, blocks), src.rep)

    # -- envelopes and knitting ---------------------------------------------

    def socle_functionals(self, m: Rep):
        """(vertex, functional row) pairs giving a dual basis of soc(m): the
        I block of the first k rows of linalg.complement_rows on [S | I], S
        the k basis columns of soc(m)_x, i.e. the first k rows of [S | C]^-1
        for C the greedy complement of im S."""
        out = []
        for x in range(self.q.rank):
            outs = [row for i, (s, _) in enumerate(self.q.arrows) if s == x
                    for row in m.mats[i]]
            soc = linalg.nullspace_rows(outs, m.dims[x], self.p)
            k = len(soc)
            if k == 0:
                continue
            _, _, red = linalg.complement_rows([list(r) for r in zip(*soc)], k, self.p)
            out += [(x, row[k:]) for row in red[:k]]
        return out

    def envelope(self, m: Rep):
        """Injective envelope: (ISum j0, iota: m -> j0.rep)."""
        socs = self.socle_functionals(m)
        j0 = self.isum([x for x, _ in socs])
        iota = vmap_zero(m, j0.rep)
        for i, (x, lam) in enumerate(socs):
            for v in self.isupp[x]:
                iota[v][j0.offsets[i][v]] = mul_rows(
                    [lam], self.path_matrix(m, v, x), m.dims[v], self.p)[0]
        return j0, iota

    def copresentation(self, root: Root) -> CopresData:
        """The copresentation knitting took tau^{-1} of (root not injective),
        with its maps as int64 arrays."""
        cop = self._knitted[2][root]
        return cop._replace(delta_blocks=_array(cop.delta_blocks, len(cop.j0)),
                            delta_vmap=_arrays(cop.delta_vmap, cop.j0.rep),
                            iota=_arrays(cop.iota, self.rep[root]))

    def _cokernel(self, src: Rep, tgt: Rep, f):
        """(coker f, projections, sections) of a vmap f: src -> tgt, per
        vertex as in linalg.cokernel_mod: the I block of complement_rows'
        rows below the rank, and the unit columns of the greedy complement."""
        p = self.p
        projs, secs = [], []
        for fv, n in zip(f, src.dims):
            r, comp, red = linalg.complement_rows(fv, n, p)
            projs.append([row[n:] for row in red[r:]])
            secs.append([[int(i == j) for j in comp] for i in range(len(fv))])
        mats = [mul_rows(mul_rows(projs[t], tgt.mats[i], tgt.dims[s], p),
                         secs[s], len(projs[s]), p)
                for i, (s, t) in enumerate(self.q.arrows)]
        return Rep(self.q, [len(pr) for pr in projs], mats), projs, secs

    def _copresent(self, m: Rep) -> CopresData:
        p = self.p
        j0, iota = self.envelope(m)
        if not is_morphism(p, m, j0.rep, iota):
            raise RuntimeError("envelope map is not a morphism")
        coker, projs, _ = self._cokernel(m, j0.rep, iota)
        j1, iota_c = self.envelope(coker)
        # hereditary: the cokernel is itself injective, so its envelope has
        # the same total dimension and delta is onto
        if j1.rep.total_dim != coker.total_dim:
            raise RuntimeError("copresentation is not short exact (not hereditary?)")
        delta = [mul_rows(iota_c[v], projs[v], n, p) for v, n in enumerate(j0.rep.dims)]
        blocks = self.vmap_to_blocks(j0, j1, delta)
        # the extraction must be faithful
        if self.blocks_to_vmap(j0, j1, blocks) != delta:
            raise RuntimeError("delta is not in the canonical block span")
        return CopresData(j0, j1, blocks, delta, iota)

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
                self.psum([]), p0, [[]],
                vmap_zero(self.psum([]).rep, p0.rep), vmap_id(cur), vmap_id(cur))
            while cur_root not in inj_vertex:
                cop = copres[cur_root] = self._copresent(cur)
                # nu^{-1} of delta: the same canonical blocks between P-sums
                p1, p0 = self.psum(cop.j0.verts), self.psum(cop.j1.verts)
                pvm = self.blocks_to_vmap(p1, p0, cop.delta_blocks)
                new, pi, sec = self._cokernel(p1.rep, p0.rep, pvm)
                new_root = new.dims
                if new_root != self.tau_minus[cur_root]:
                    raise RuntimeError("knitted tau^-1 of %r is %r, not the Coxeter "
                                       "image %r" % (cur_root, new_root,
                                                     self.tau_minus[cur_root]))
                if new_root in inj_vertex:
                    # rebase onto the canonical interval copy of the injective
                    target = self.inj(inj_vertex[new_root])
                    u = self._iso(new, target)
                    pi = [mul_rows(u[v], pi[v], n, p) for v, n in enumerate(p0.rep.dims)]
                    sec = [mul_rows(sec[v], linalg.inv_rows(u[v], p), n, p)
                           for v, n in enumerate(new.dims)]
                    new = target
                if new_root in rep:
                    raise RuntimeError("knitting revisited root %r" % (new_root,))
                rep[new_root] = new
                pres[new_root] = PresData(p1, p0, cop.delta_blocks, pvm, pi, sec)
                cur_root, cur = new_root, new
        if len(rep) != len(self.roots):
            raise RuntimeError("knitting found %d indecomposables, expected %d"
                               % (len(rep), len(self.roots)))
        return rep, pres, copres

    def _iso(self, a: Rep, b: Rep):
        """The first vector of the Hom(a, b) kernel basis that is invertible
        at every vertex, as a vmap of rows."""
        for f in self._hom_rows(a, b):
            if all(len(linalg.rref_rows(list(f[v]), a.dims[v], self.p)) == a.dims[v]
                   for v in range(self.q.rank) if a.dims[v]):
                return f
        raise RuntimeError("expected an isomorphism between equal dimension vectors")

    # -- Hom and Ext --------------------------------------------------------

    def _hom_system(self, a: Rep, b: Rep) -> Tuple[List[List[int]], List[int]]:
        """The linear system of Hom(a, b) as rows of Python ints, and the
        column offsets of the unknowns: the row-major entries of each phi_v,
        vertex by vertex.  An arrow s -> t gives the equations
        phi_t a(i) - b(i) phi_s = 0, equation (r, c) being row r * a.dims[s] + c
        of the arrow's block."""
        p = self.p
        offs = [0]
        for bv, av in zip(b.dims, a.dims):
            offs.append(offs[-1] + bv * av)
        rows: List[List[int]] = []
        for i, (s, t) in enumerate(self.q.arrows):
            a_s, a_t, b_s = a.dims[s], a.dims[t], b.dims[s]
            if not (b.dims[t] and a_s):
                continue
            am = a.mats[i]
            for r, brow in enumerate(b.mats[i]):
                # (phi_t a(i))[r, c] = sum_q phi_t[r, q] a(i)[q, c]
                left = offs[t] + r * a_t
                for c in range(a_s):
                    row = [0] * offs[-1]
                    for q in range(a_t):
                        row[left + q] = am[q][c]
                    # (b(i) phi_s)[r, c] = sum_q b(i)[r, q] phi_s[q, c]
                    for q in range(b_s):
                        row[offs[s] + q * a_s + c] = -brow[q] % p
                    rows.append(row)
        return rows, offs

    def _hom_rows(self, a: Rep, b: Rep) -> List[List[Rows]]:
        """Echelon basis of Hom(a, b) as vmaps of rows: one kernel vector of
        _hom_system per free column, cut into its row-major vertex blocks."""
        rows, offs = self._hom_system(a, b)
        return [[[vec[lo + r * av:lo + (r + 1) * av] for r in range(bv)]
                 for lo, bv, av in zip(offs, b.dims, a.dims)]
                for vec in linalg.nullspace_rows(rows, offs[-1], self.p)]

    def hom_vmaps(self, a: Rep, b: Rep) -> List[List[np.ndarray]]:
        """_hom_rows with int64 arrays (uncached; see hom_basis)."""
        return [_arrays(f, a) for f in self._hom_rows(a, b)]

    def hom_basis(self, ra: Root, rb: Root):
        key = (ra, rb)
        if key not in self._hom_cache:
            self._hom_cache[key] = self.hom_vmaps(self.rep[ra], self.rep[rb])
        return self._hom_cache[key]

    def hom_dim(self, ra: Root, rb: Root) -> int:
        """dim Hom(A, B): the nullity of _hom_system, memoized per root pair."""
        key = (ra, rb)
        dim = self._hom_dims.get(key)
        if dim is None:
            rows, offs = self._hom_system(self.rep[ra], self.rep[rb])
            rank = len(linalg.rref_rows(rows, offs[-1], self.p))
            dim = self._hom_dims[key] = offs[-1] - rank
        return dim

    @cached_property
    def euler_terms(self) -> List[Tuple[int, int, int]]:
        """The nonzero entries (u, v, E[u, v]) of the Euler matrix, as ints."""
        return [(u, v, e) for u, row in enumerate(self.euler)
                for v, e in enumerate(row) if e]

    def euler_pairing(self, ra, rb) -> int:
        """<a, b> = a^T E b, summed over the nonzero entries of E."""
        return sum(e * ra[u] * rb[v] for u, v, e in self.euler_terms)

    def ext_dim(self, ra: Root, rb: Root) -> int:
        """dim Ext^1(A, B): the cocycle space Hom(P1, B) modulo the image of
        the coboundary, checked against dim Hom(A, B) - <a, b>."""
        key = (ra, rb)
        if key not in self._ext_cache:
            rows, cols = self.coboundary_rows(ra, rb)
            dim = len(rows) - len(linalg.rref_rows(rows, cols, self.p))
            if dim != self.hom_dim(ra, rb) - self.euler_pairing(ra, rb):
                raise RuntimeError("Ext dimension mismatch for %r, %r" % (ra, rb))
            self._ext_cache[key] = dim
        return self._ext_cache[key]

    # Ext^1(A, N) is Hom(P1, N) / im Hom(P0, N) for the presentation
    # 0 -> P1 -> P0 -> A -> 0, with Hom(P., N) read through Hom(P_x, N) = N_x:
    # cocycles are coordinate vectors in (+) N_{p1.verts}, and coboundary is
    # the matrix of Hom(p, N), whose rank ext_dim subtracts.

    def coord_slices(self, sumrep: SumRep, n: Rep):
        out, lo = [], 0
        for x in sumrep.verts:
            hi = lo + n.dims[x]
            out.append((lo, hi))
            lo = hi
        return out

    def _pushforward_rows(self, blocks: Rows, src: SumRep, tgt: SumRep,
                          n: Rep) -> Tuple[List[List[int]], int]:
        """(rows, columns) of the matrix of phi |-> phi . h on coordinates, for
        h: src -> tgt given by its canonical blocks and phi: tgt -> n; the
        (src summand a, tgt summand b) block is blocks[b][a] times the action
        of the path b ~> a on n."""
        p = self.p
        ssl = self.coord_slices(src, n)
        tsl = self.coord_slices(tgt, n)
        cols = tsl[-1][1] if tsl else 0
        rows = [[0] * cols for _ in range(ssl[-1][1] if ssl else 0)]
        for si, a in enumerate(src.verts):
            for ti, b in enumerate(tgt.verts):
                c = blocks[ti][si] % p
                if c and (b, a) in self.paths:
                    lo = tsl[ti][0]
                    for row, action in zip(rows[ssl[si][0]:], self.path_matrix(n, b, a)):
                        row[lo:lo + len(action)] = [c * v % p for v in action]
        return rows, cols

    def pushforward_coords(self, blocks: np.ndarray, src: SumRep, tgt: SumRep,
                           n: Rep, coords: np.ndarray) -> np.ndarray:
        """Coordinates of (phi . h) given phi: tgt -> n and h: src -> tgt."""
        np = linalg.numpy()
        return (_array(*self._pushforward_rows(blocks.tolist(), src, tgt, n))
                @ np.asarray(coords, dtype=np.int64)) % self.p

    def coboundary_rows(self, ra: Root, rb: Root) -> Tuple[List[List[int]], int]:
        """Hom(P0, B) -> Hom(P1, B) on coordinates, for the presentation of A,
        as (rows, columns)."""
        pres = self.pres[ra]
        return self._pushforward_rows(pres.p_blocks, pres.p1, pres.p0, self.rep[rb])

    def coboundary(self, ra: Root, rb: Root) -> np.ndarray:
        """coboundary_rows as an int64 array."""
        return _array(*self.coboundary_rows(ra, rb))

    def ext_data(self, ra: Root, rb: Root):
        """(Q, S, dim) for Ext^1(A, B) (uncached; dimensions read ext_dim):
        Q projects cocycles onto classes and S sections class coordinates
        back to cocycles, from the cokernel of coboundary(ra, rb)."""
        q_, s_ = linalg.cokernel_mod(self.coboundary(ra, rb), self.p)
        return q_, s_, self.ext_dim(ra, rb)
