import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcluster import linalg


def random_matrix(rng, rows, cols, p):
    return rng.integers(0, p, size=(rows, cols)).astype(np.int64)


@pytest.mark.parametrize("p", [2, 5, 101])
def test_rref_shapes_and_pivots(p):
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = random_matrix(rng, rng.integers(0, 6), rng.integers(0, 6), p)
        r, piv = linalg.rref_mod(a, p)
        assert r.shape == a.shape
        for row, col in enumerate(piv):
            assert r[row, col] == 1
            # pivot column is a standard basis vector
            assert np.count_nonzero(r[:, col]) == 1


def _rref_per_pivot(a, p):
    """Reference: the per-pivot numpy elimination rref_mod first used, one
    swap, scale and rank-one update of the whole array per pivot."""
    r = np.array(a, dtype=np.int64, copy=True) % p
    rows, cols = r.shape
    piv = []
    h = 0
    for j in range(cols):
        if h >= rows:
            break
        nz = np.nonzero(r[h:, j])[0]
        if nz.size == 0:
            continue
        i = h + int(nz[0])
        if i != h:
            r[[h, i]] = r[[i, h]]
        r[h] = (r[h] * pow(int(r[h, j]), p - 2, p)) % p
        col = r[:, j].copy()
        col[h] = 0
        r = (r - np.outer(col, r[h])) % p
        piv.append(j)
        h += 1
    return r, piv


def _rref_cases(rng, p):
    for _ in range(150):
        yield random_matrix(rng, rng.integers(0, 9), rng.integers(0, 9), p)
    for _ in range(100):
        m, n, k = rng.integers(1, 9), rng.integers(1, 9), rng.integers(0, 4)
        low = random_matrix(rng, m, k, p) @ random_matrix(rng, k, n, p)
        low[:, rng.integers(0, n)] = 0
        low[rng.integers(0, m)] = 0
        yield low % p
    for _ in range(30):
        sparse = random_matrix(rng, 12, 16, p) * (rng.random((12, 16)) < 0.2)
        yield np.concatenate([sparse, linalg.eye(12)], axis=1)
    for m, n in [(0, 0), (0, 5), (5, 0), (1, 1), (3, 1), (1, 3)]:
        yield linalg.zeros(m, n)
    yield linalg.eye(5)[::-1]
    # entries outside [0, p) are reduced first
    yield rng.integers(-3 * p, 3 * p, size=(4, 6))


@pytest.mark.parametrize("p", [2, 3, 101])
def test_rref_matches_the_per_pivot_elimination(p):
    rng = np.random.default_rng(40 + p)
    for a in _rref_cases(rng, p):
        r, piv = linalg.rref_mod(a, p)
        want_r, want_piv = _rref_per_pivot(a, p)
        assert r.dtype == np.int64 and r.shape == a.shape
        assert np.array_equal(r, want_r)
        assert piv == want_piv and all(type(j) is int for j in piv)


def test_rref_rows_reduces_in_place():
    rows = [[0, 2, 4], [3, 1, 0], [3, 3, 4]]
    assert linalg.rref_rows(rows, 3, 5) == [0, 1]
    assert rows == [[1, 0, 1], [0, 1, 2], [0, 0, 0]]
    assert linalg.rref_rows([], 4, 5) == []
    empty = [[], []]
    assert linalg.rref_rows(empty, 0, 5) == [] and empty == [[], []]
    # a row is replaced, never written into
    mine = [1, 0, 0, 2, 0, 0]
    rows = [[1, 1, 0, 0, 0, 0], mine]
    assert linalg.rref_rows(rows, 6, 5) == [0, 1]
    assert rows == [[1, 0, 0, 2, 0, 0], [0, 1, 0, 3, 0, 0]]
    assert mine == [1, 0, 0, 2, 0, 0]


@pytest.mark.parametrize("p", [2, 101])
def test_nullspace_is_kernel(p):
    rng = np.random.default_rng(1)
    for _ in range(40):
        a = random_matrix(rng, rng.integers(1, 6), rng.integers(1, 6), p)
        ns = linalg.nullspace_mod(a, p)
        assert np.all((a @ ns) % p == 0)
        assert ns.shape[1] == a.shape[1] - linalg.rank_mod(a, p)
        if ns.shape[1]:
            assert linalg.rank_mod(ns, p) == ns.shape[1]


def test_nullspace_rows_reduce_in_place_and_give_the_columns_of_nullspace_mod():
    p = 5
    a = [[1, 2, 0, 3], [2, 4, 1, 1], [0, 0, 1, 0]]
    rows = [r[:] for r in a]
    basis = linalg.nullspace_rows(rows, 4, p)
    assert rows == linalg.rref_mod(np.array(a), p)[0].tolist()
    assert basis == [[3, 1, 0, 0], [2, 0, 0, 1]]
    assert np.array_equal(linalg.nullspace_mod(np.array(a), p), np.array(basis).T)
    assert linalg.nullspace_rows([], 3, p) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.nullspace_rows([[], []], 0, p) == []


@pytest.mark.parametrize("p", [2, 101])
def test_solve_roundtrip(p):
    rng = np.random.default_rng(2)
    for _ in range(40):
        a = random_matrix(rng, rng.integers(1, 6), rng.integers(1, 6), p)
        x = random_matrix(rng, a.shape[1], 2, p)
        b = (a @ x) % p
        got = linalg.solve_mod(a, b, p)
        assert got is not None
        assert np.array_equal((a @ got) % p, b)


def test_solve_detects_inconsistency():
    a = np.array([[1, 0], [0, 0]], dtype=np.int64)
    b = np.array([0, 1], dtype=np.int64)
    assert linalg.solve_mod(a, b, 101) is None


@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_inverse(n, seed):
    p = 101
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(n, n)).astype(np.int64)
    if linalg.rank_mod(a, p) < n:
        a = (a + np.eye(n, dtype=np.int64)) % p  # nudge; skip if still singular
        if linalg.rank_mod(a, p) < n:
            return
    inv = linalg.inv_mod(a, p)
    assert np.array_equal((a @ inv) % p, np.eye(n, dtype=np.int64))


def test_inverse_singular_raises():
    with pytest.raises(ZeroDivisionError):
        linalg.inv_mod(np.zeros((2, 2), dtype=np.int64), 101)


def test_check_field():
    for p in (2, 3, 101, 7919):
        linalg.check_field(p, 100)
    for p in (-7, 0, 1, 4, 6, 9, 7917):
        with pytest.raises(ValueError, match="not a prime"):
            linalg.check_field(p, 100)
    for inner in (1, 100, 1392):
        with pytest.raises(ValueError, match="too large") as exc:
            linalg.check_field(2 ** 40, inner)
        limit = int(str(exc.value).rsplit("<= ", 1)[1])
        # every accepted p keeps inner * (p-1)^2 + (p-1) within int64
        assert inner * (limit - 1) ** 2 + (limit - 1) <= linalg.INT64_MAX
        assert (inner + 1) * limit ** 2 > linalg.INT64_MAX
        with pytest.raises(ValueError, match="too large"):
            linalg.check_field(limit + 1, inner)
    with pytest.raises(ValueError, match="too large"):
        linalg.check_field(4294967311, 1)


@pytest.mark.parametrize("p", [2, 101])
def test_cokernel_projection(p):
    rng = np.random.default_rng(3)
    for _ in range(40):
        a = random_matrix(rng, rng.integers(1, 6), rng.integers(0, 6), p)
        proj, sec = linalg.cokernel_mod(a, p)
        m = a.shape[0]
        r = linalg.rank_mod(a, p)
        assert proj.shape == (m - r, m)
        assert sec.shape == (m, m - r)
        # kills the image, and sections back to the identity
        assert np.all((proj @ a) % p == 0)
        assert np.array_equal((proj @ sec) % p, np.eye(m - r, dtype=np.int64))
        # full rank, so it really is the quotient by im(a)
        assert linalg.rank_mod(proj, p) == m - r


def test_empty_matrices_are_fine():
    p = 101
    a = np.zeros((0, 3), dtype=np.int64)
    assert linalg.rank_mod(a, p) == 0
    assert linalg.nullspace_mod(a, p).shape == (3, 3)
    b = np.zeros((3, 0), dtype=np.int64)
    assert linalg.nullspace_mod(b, p).shape == (0, 0)
    proj, sec = linalg.cokernel_mod(b, p)
    assert proj.shape == (3, 3)


def _cokernel_by_three_eliminations(a, p):
    """Reference: the pivot columns of a, then the greedy complement of their
    span among the e_j, then the inverse of [span | complement]."""
    a = linalg.mod_p(a, p)
    m = a.shape[0]
    _, piv = linalg.rref_mod(a, p)
    cspan = a[:, piv]
    r = len(piv)
    _, piv2 = linalg.rref_mod(np.concatenate([cspan, linalg.eye(m)], axis=1), p)
    sel = [j - r for j in piv2 if j >= r]
    basis = np.concatenate([cspan, linalg.eye(m)[:, sel]], axis=1)
    return linalg.inv_mod(basis, p)[r:, :], linalg.eye(m)[:, sel]


def _cokernel_cases(rng, p):
    for _ in range(60):
        yield random_matrix(rng, rng.integers(0, 7), rng.integers(0, 7), p)
    for _ in range(60):
        m, n, k = rng.integers(1, 7), rng.integers(1, 7), rng.integers(0, 4)
        low = random_matrix(rng, m, k, p) @ random_matrix(rng, k, n, p)
        low[:, rng.integers(0, n)] = 0
        yield low % p
    for m, n in [(0, 0), (0, 4), (4, 0), (5, 1), (1, 5)]:
        yield linalg.zeros(m, n)
    yield linalg.eye(4)
    yield np.concatenate([linalg.zeros(4, 2), linalg.eye(4)[:, [2, 0]]], axis=1)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_cokernel_matches_three_eliminations(p):
    """One elimination of [a | I] gives the same projection and section,
    entry for entry, as the pivot-span / complement / inverse route."""
    rng = np.random.default_rng(17 + p)
    for a in _cokernel_cases(rng, p):
        proj, sec = linalg.cokernel_mod(a, p)
        want_proj, want_sec = _cokernel_by_three_eliminations(a, p)
        assert proj.shape == want_proj.shape and np.array_equal(proj, want_proj)
        assert sec.shape == want_sec.shape and np.array_equal(sec, want_sec)
        k = a.shape[0] - linalg.rank_mod(a, p)
        assert not ((proj @ a) % p).any()
        assert np.array_equal((proj @ sec) % p, linalg.eye(k))


@pytest.mark.parametrize("p", [2, 3, 101])
def test_complement_rows_match_three_eliminations(p):
    """complement_rows' complement and the I block of its rows below the rank
    are the section's columns and the projection of the three-elimination
    route; its rows come back whole, as the reduced echelon form of [a | I]."""
    rng = np.random.default_rng(29 + p)
    for a in _cokernel_cases(rng, p):
        m, n = a.shape
        rows = (a % p).tolist()
        rank, comp, red = linalg.complement_rows(rows, n, p)
        want_proj, want_sec = _cokernel_by_three_eliminations(a, p)
        assert rank == linalg.rank_mod(a, p)
        assert linalg.eye(m)[:, comp].shape == want_sec.shape
        assert np.array_equal(linalg.eye(m)[:, comp], want_sec)
        assert comp == sorted(comp)
        proj = np.array([row[n:] for row in red[rank:]], dtype=np.int64).reshape(m - rank, m)
        assert np.array_equal(proj, want_proj)
        assert all(len(row) == n + m for row in red)
        aug = np.concatenate([a % p, linalg.eye(m)], axis=1)
        assert np.array_equal(np.array(red, dtype=np.int64).reshape(m, n + m),
                              _rref_per_pivot(aug, p)[0])
