import numpy as np
import pytest

from dcluster import linalg, quiver, reps
from dcluster.orbit import OrbitCategory


def cat(diagram, rank, p=101, arrows=None):
    return reps.ModuleCategory(quiver.parse_quiver(diagram, rank, arrows), p)


QUIVERS = [
    ("A", 1, None),
    ("A", 2, None),
    ("A", 3, None),
    ("A", 3, [(1, 0), (1, 2)]),
    ("A", 4, None),
    ("D", 4, None),
    ("D", 4, [(1, 0), (1, 2), (3, 1)]),
]


@pytest.mark.parametrize("diagram,rank,arrows", QUIVERS)
def test_gabriel_bijection(diagram, rank, arrows):
    """Knitting finds exactly one indecomposable per positive root."""
    c = cat(diagram, rank, arrows=arrows)
    assert set(c.rep) == set(c.roots)
    for r, m in c.rep.items():
        assert m.dims == r


@pytest.mark.parametrize("diagram,rank,arrows",
                         QUIVERS + [("D", 6, None), ("E", 7, None), ("E", 8, None)])
def test_tau_matches_coxeter_matrix(diagram, rank, arrows):
    """Knitting against the Coxeter matrix: [tau M] = Phi [M] on non-projectives.

    tau is read from Phi, so the test checks what knitting built: each module
    has its root as dimension vector, and the presentation knitted at
    tau^{-1} M is the nu^{-1}-image of the copresentation of M, whose class
    [nu^{-1} J1] - [nu^{-1} J0] Phi maps back to [M].  The orbit category's
    F = tau^{-1}[d] sends I_x to P_x[d + 1].
    """
    c = cat(diagram, rank, arrows=arrows)
    phi = quiver.coxeter_matrix(c.q)
    projs, injs = set(c.proj_root), set(c.inj_root)
    oc = OrbitCategory(c, 2)
    for r in c.roots:
        assert c.rep[r].dims == r
        prev, nxt = c.tau_plus[r], c.tau_minus[r]
        assert (prev is None) == (r in projs)
        if prev is not None:
            assert np.array_equal(np.array(prev), phi @ np.array(r))
            assert c.tau_minus[prev] == r
        assert (nxt is None) == (r in injs)
        img, shift = oc.obj_F((r, 0))
        if nxt is None:
            assert shift == 3 and np.array_equal(phi @ np.array(img), -np.array(r))
            continue
        assert (img, shift) == (nxt, 2)
        cop, pres = c.copresentation(r), c.pres[nxt]
        assert pres.p1.verts == cop.j0.verts and pres.p0.verts == cop.j1.verts
        knitted = np.subtract(pres.p0.rep.dims, pres.p1.rep.dims)
        assert tuple(knitted) == c.rep[nxt].dims
        assert np.array_equal(phi @ knitted, np.array(r))


def test_wrong_coxeter_tau_makes_knitting_raise():
    c = cat("D", 4)
    r = next(r for r in c.roots if c.tau_minus[r] is not None)
    c.tau_minus[r] = next(t for t in c.roots if t not in (r, c.tau_minus[r]))
    with pytest.raises(RuntimeError, match="not the Coxeter image"):
        c.rep


def test_knitting_waits_for_the_first_morphism_call():
    c = cat("D", 4)
    assert c.tau_plus and "_knitted" not in vars(c)
    c.pres
    assert "_knitted" in vars(c) and set(c.rep) == set(c.roots)


def test_proj_inj_interval_shapes():
    c = cat("A", 3)
    assert c.proj_root == [(1, 1, 1), (0, 1, 1), (0, 0, 1)]
    assert c.inj_root == [(1, 0, 0), (1, 1, 0), (1, 1, 1)]


def test_hom_dim_projective_injective_fast_facts():
    c = cat("D", 4)
    for r, m in c.rep.items():
        for x in range(4):
            assert c.hom_dim(c.proj_root[x], r) == r[x]
            assert c.hom_dim(r, c.inj_root[x]) == r[x]


def interval_hom(a, b, cdm, d):
    # linear A_n oracle: Hom(M[a,b], M[c,d]) = k iff c <= a <= d <= b
    return 1 if cdm <= a <= d <= b else 0


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_linear_an_hom_oracle(rank):
    c = cat("A", rank)
    spans = {}
    for r in c.roots:
        supp = [v for v in range(rank) if r[v]]
        spans[r] = (min(supp), max(supp))
    for r1 in c.roots:
        for r2 in c.roots:
            a, b = spans[r1]
            cc, d = spans[r2]
            assert c.hom_dim(r1, r2) == interval_hom(a, b, cc, d), (r1, r2)


@pytest.mark.parametrize("diagram,rank,arrows", QUIVERS)
def test_hom_bases_are_morphisms(diagram, rank, arrows):
    c = cat(diagram, rank, arrows=arrows)
    for r1 in c.roots:
        for r2 in c.roots:
            basis = c.hom_basis(r1, r2)
            for f in basis:
                assert reps.is_morphism(c.p, c.rep[r1], c.rep[r2], f)
            if basis:
                flat = np.stack([reps.vmap_flatten(f) for f in basis], axis=1)
                assert linalg.rank_mod(flat, c.p) == len(basis)


def test_a2_known_ext():
    c = cat("A", 2)
    s0, s1, p0 = (1, 0), (0, 1), (1, 1)
    assert c.ext_dim(s0, s1) == 1      # the AR sequence 0->S_1->P_0->S_0->0
    assert c.ext_dim(s1, s0) == 0
    assert c.ext_dim(p0, s0) == 0 and c.ext_dim(p0, s1) == 0
    assert c.ext_dim(s0, s0) == 0


@pytest.mark.parametrize("diagram,rank,arrows", QUIVERS)
def test_presentations_short_exact(diagram, rank, arrows):
    c = cat(diagram, rank, arrows=arrows)
    p = c.p
    for r, m in c.rep.items():
        pres = c.pres[r]
        assert reps.is_morphism(p, pres.p1.rep, pres.p0.rep, pres.p_vmap)
        assert reps.is_morphism(p, pres.p0.rep, m, pres.pi)
        # p injective, pi surjective, im p = ker pi, and pi sec = id
        for v in range(c.q.rank):
            pv = pres.p_vmap[v]
            assert linalg.rank_mod(pv, p) == pres.p1.rep.dims[v]
            assert linalg.rank_mod(pres.pi[v], p) == m.dims[v]
            assert not ((pres.pi[v] @ pv) % p).any()
            assert pres.p0.rep.dims[v] - pres.p1.rep.dims[v] == m.dims[v]
            assert np.array_equal((pres.pi[v] @ pres.sec[v]) % p, linalg.eye(m.dims[v]))


@pytest.mark.parametrize("diagram,rank,arrows", QUIVERS)
def test_copresentations_short_exact(diagram, rank, arrows):
    c = cat(diagram, rank, arrows=arrows)
    p = c.p
    inj = set(c.inj_root)
    for r, m in c.rep.items():
        if r in inj:
            continue
        cop = c.copresentation(r)
        assert reps.is_morphism(p, m, cop.j0.rep, cop.iota)
        assert reps.is_morphism(p, cop.j0.rep, cop.j1.rep, cop.delta_vmap)
        for v in range(c.q.rank):
            assert linalg.rank_mod(cop.iota[v], p) == m.dims[v]
            assert linalg.rank_mod(cop.delta_vmap[v], p) == cop.j1.rep.dims[v]
            assert not ((cop.delta_vmap[v] @ cop.iota[v]) % p).any()
            assert cop.j0.rep.dims[v] - cop.j1.rep.dims[v] == m.dims[v]


@pytest.mark.parametrize("diagram,rank,arrows", QUIVERS)
def test_ext_data_rank_agrees_with_euler(diagram, rank, arrows):
    # ext_data raises internally if the cocycle-space rank disagrees with
    # hom - <.,.>; touching every pair exercises that cross-check.
    c = cat(diagram, rank, arrows=arrows)
    for r1 in c.roots:
        for r2 in c.roots:
            c.ext_data(r1, r2)


def test_ext_classes_kill_coboundaries():
    c = cat("A", 3)
    rng = np.random.default_rng(7)
    for r1 in c.roots:
        pres = c.pres[r1]
        for r2 in c.roots:
            n = c.rep[r2]
            sl0 = c.coord_slices(pres.p0, n)
            len0 = sl0[-1][1] if sl0 else 0
            for _ in range(3):
                phi = rng.integers(0, c.p, size=len0).astype(np.int64)
                cob = c.pushforward_coords(pres.p_blocks, pres.p1, pres.p0, n, phi)
                assert not c.ext_class(r1, r2, cob).any()
            for k, u in enumerate(c.ext_basis_coords(r1, r2)):
                cls = c.ext_class(r1, r2, u)
                want = np.zeros(c.ext_dim(r1, r2), dtype=np.int64)
                want[k] = 1
                assert np.array_equal(cls, want)


def test_pushforward_matches_vmap_composition():
    """Block-calculus cross-check: coords(phi . p) computed two ways."""
    c = cat("D", 4)
    rng = np.random.default_rng(11)
    for r1 in list(c.roots)[:8]:
        pres = c.pres[r1]
        for r2 in list(c.roots)[:8]:
            n = c.rep[r2]
            sl0 = c.coord_slices(pres.p0, n)
            len0 = sl0[-1][1] if sl0 else 0
            coords = rng.integers(0, c.p, size=len0).astype(np.int64)
            phi = c.pmap_from_coords(pres.p0, n, coords)
            assert reps.is_morphism(c.p, pres.p0.rep, n, phi)
            assert np.array_equal(c.coords_from_pmap(pres.p0, n, phi), coords)
            comp = reps.vmap_compose(c.p, phi, pres.p_vmap)
            direct = c.coords_from_pmap(pres.p1, n, comp)
            via_blocks = c.pushforward_coords(pres.p_blocks, pres.p1, pres.p0, n, coords)
            assert np.array_equal(direct, via_blocks)


def test_solve_block_map_lifts_along_envelope():
    c = cat("A", 3)
    p = c.p
    for r in c.roots:
        if r in set(c.inj_root):
            continue
        cop = c.copresentation(r)
        # solve X: j0 -> j0 with X iota = iota; identity is a solution
        x = c.solve_block_map(cop.j0, cop.j0, [(None, cop.iota, cop.iota)])
        assert x is not None
        got = reps.vmap_compose(p, x, cop.iota)
        assert all(np.array_equal(a, b) for a, b in zip(got, cop.iota))


def test_block_generators_are_morphisms_and_a_basis():
    c = cat("D", 4)
    j = c.isum([0, 1, 2])
    q = c.psum([0, 1, 1, 3])
    for src, tgt in [(q, q), (j, j), (q, j)]:
        gens = c.block_generators(src, tgt)
        for _, _, g in gens:
            assert reps.is_morphism(c.p, src.rep, tgt.rep, g)
        n_hom = len(c.hom_vmaps(src.rep, tgt.rep))
        assert len(gens) == n_hom
        if gens:
            flat = np.stack([reps.vmap_flatten(g) for _, _, g in gens], axis=1)
            assert linalg.rank_mod(flat, c.p) == len(gens)


@pytest.mark.parametrize("p", [2, 101])
def test_other_prime_same_combinatorics(p):
    c2 = cat("D", 4, p=p)
    c101 = cat("D", 4, p=101)
    assert set(c2.rep) == set(c101.rep)
    for r1 in c2.roots:
        for r2 in c2.roots:
            assert c2.hom_dim(r1, r2) == c101.hom_dim(r1, r2)


def _hom_vmaps_by_kron(c, a, b):
    """Reference: the Hom system assembled arrow by arrow with np.kron."""
    n = c.q.rank
    sizes = [b.dims[v] * a.dims[v] for v in range(n)]
    offs = np.cumsum([0] + sizes)
    total = int(offs[-1])
    rows = []
    for i, (s, t) in enumerate(c.q.arrows):
        blk = linalg.zeros(b.dims[t] * a.dims[s], total)
        if blk.shape[0]:
            if sizes[t]:
                blk[:, offs[t]:offs[t + 1]] = np.kron(linalg.eye(b.dims[t]), a.mats[i].T)
            if sizes[s]:
                blk[:, offs[s]:offs[s + 1]] = (-np.kron(b.mats[i], linalg.eye(a.dims[s]))) % c.p
        rows.append(blk)
    system = np.concatenate(rows, axis=0) if rows else linalg.zeros(0, total)
    ns = linalg.nullspace_mod(system, c.p)
    shapes = [(b.dims[v], a.dims[v]) for v in range(n)]
    return [reps.vmap_unflatten(ns[:, k], shapes) for k in range(ns.shape[1])]


def _seeded_arrows(diagram, rank, seed):
    """The default orientation (seed None) or a seeded random one."""
    if seed is None:
        return None
    rng = np.random.default_rng(seed)
    return [(s, t) if rng.random() < 0.5 else (t, s)
            for s, t in quiver.dynkin_edges(diagram, rank)]


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("diagram,rank", [("A", 4), ("D", 5), ("E", 6)])
def test_hom_basis_matches_kron_assembly(diagram, rank, seed):
    c = cat(diagram, rank, arrows=_seeded_arrows(diagram, rank, seed))
    for r1 in c.roots:
        for r2 in c.roots:
            got = c.hom_basis(r1, r2)
            want = _hom_vmaps_by_kron(c, c.rep[r1], c.rep[r2])
            assert len(got) == len(want)
            for f, g in zip(got, want):
                assert all(u.shape == v.shape and np.array_equal(u, v)
                           for u, v in zip(f, g))


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("diagram,rank", [("A", 4), ("D", 5), ("E", 6)])
def test_hom_and_cocycle_dims_follow_the_euler_form(diagram, rank, seed):
    """Directing modules, by linear algebra on every root pair:
    dim Hom = max(<a, b>, 0) and dim Ext^1 = max(-<a, b>, 0), the rule the
    orbit category's dimension table is built from."""
    c = cat(diagram, rank, arrows=_seeded_arrows(diagram, rank, seed))
    for a in c.roots:
        for b in c.roots:
            e = c.euler_pairing(a, b)
            assert len(c.hom_basis(a, b)) == max(e, 0), (a, b)
            assert c.ext_data(a, b)[2] == max(-e, 0), (a, b)
