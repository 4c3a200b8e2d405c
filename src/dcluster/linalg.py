"""Exact linear algebra over the prime field F_p.

Everything in the package that looks like numerical linear algebra goes
through this module, so all ranks, kernels and solves are exact.  The
elimination core, rref_rows, its reduction of [a | I], complement_rows, and
the kernel basis read from it, nullspace_rows, run on row matrices: lists
of r lists of c Python ints in [0, p).  The matrices reduced here are small
(a knit's mesh relations average 1.4 x 2.0), and on them numpy's per-call
dispatch costs more than the arithmetic.  With mul_rows and inv_rows, they
serve the module knit, the Hom systems and coboundaries, the mesh category
and the fan layer.  The other functions are the array edge for the tests'
module oracle, which no command calls: they take and return numpy int64
arrays with entries reduced into [0, p), converting to rows and back around
one call of the core, and import numpy through numpy() on their first call.
check_field's int64 bound guards only their products; Python-int rows
cannot overflow.  p is a parameter everywhere (the default prime lives in
config, not here).  Zero-sized matrices are legal and common (empty
representations).
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt
from operator import mul
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    import numpy as np

INT64_MAX = 2 ** 63 - 1


def numpy():
    """The numpy module, imported on the first call (later calls find it in
    sys.modules).  The array layers call this instead of importing numpy at
    module level."""
    import numpy
    return numpy


def check_field(p: int, inner: int) -> None:
    """Raise ValueError unless p is a prime whose arithmetic stays exact.

    The array functions reduce products mod p after summing, so a sum of
    `inner` products of reduced entries, inner * (p-1)^2, must fit in int64;
    `inner` bounds the inner dimension of every matrix product the caller
    forms.  The bound guards only those array functions, which the tests'
    module oracle calls; the row functions compute on Python ints.
    """
    limit = isqrt(INT64_MAX // (inner + 1)) + 1
    if p > limit:
        raise ValueError("p = %d is too large: sums of %d products overflow "
                         "int64 unless p <= %d" % (p, inner, limit))
    if p < 2 or any(p % k == 0 for k in range(2, isqrt(p) + 1)):
        raise ValueError("%d is not a prime" % p)


def mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Reduce an integer array into [0, p)."""
    np = numpy()
    return np.asarray(a, dtype=np.int64) % p


def zeros(rows: int, cols: int) -> np.ndarray:
    np = numpy()
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    np = numpy()
    return np.eye(n, dtype=np.int64)


def rref_rows(rows: List[List[int]], ncols: int, p: int) -> List[int]:
    """Reduce `rows`, lists of ncols ints in [0, p), to reduced row echelon
    form mod p in place (each row of the list is replaced by its reduced
    row), and return the pivot columns.

    Rows with a 0 in the pivot column are left alone, and a pivot row is
    scaled only when its pivot is not already 1.  A pivot row is zero left
    of its pivot, so the update of the other rows starts at the pivot column.
    """
    piv: List[int] = []
    h = 0
    n = len(rows)
    for j in range(ncols):
        if h == n:
            break
        for i in range(h, n):
            if rows[i][j]:
                break
        else:
            continue
        top = rows[i]
        if i != h:
            rows[i] = rows[h]
        c = top[j]
        if c != 1:
            c = pow(c, p - 2, p)
            top = [v * c % p for v in top]
        rows[h] = top
        right = top[j:]
        for k in range(n):
            row = rows[k]
            c = row[j]
            if c and k != h:
                rows[k] = row[:j] + [(v - c * t) % p for v, t in zip(row[j:], right)]
        piv.append(j)
        h += 1
    return piv


def rref_mod(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Row-reduced echelon form mod p; returns (R, pivot column list).

    R is an int64 array of a's shape, read back from rref_rows on a's rows;
    the reduced echelon form of a matrix is unique, so it does not depend on
    how the elimination is ordered.
    """
    np = numpy()
    a = np.asarray(a, dtype=np.int64)
    rows = (a % p).tolist()
    piv = rref_rows(rows, a.shape[1], p)
    return np.array(rows, dtype=np.int64).reshape(a.shape), piv


def rank_mod(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref_mod(a, p)[1])


def nullspace_rows(rows: List[List[int]], ncols: int, p: int) -> List[List[int]]:
    """Basis of the right kernel of the matrix given by `rows`, lists of
    ncols ints in [0, p), which are reduced in place (see rref_rows): one
    vector per free column j, 1 at j and minus column j of the reduced rows
    at the pivots."""
    piv = rref_rows(rows, ncols, p)
    pivots = set(piv)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for row, pj in zip(rows, piv):
            vec[pj] = -row[j] % p
        basis.append(vec)
    return basis


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel of a, as the columns of the result."""
    np = numpy()
    a = np.asarray(a, dtype=np.int64)
    basis = nullspace_rows((a % p).tolist(), a.shape[1], p)
    return np.array(basis, dtype=np.int64).reshape(len(basis), a.shape[1]).T


def solve_mod(a: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """A particular solution x of a @ x = b mod p, or None if inconsistent.

    b may be a vector or a matrix (solved column by column).
    """
    np = numpy()
    a = mod_p(np.asarray(a, dtype=np.int64), p)
    b = mod_p(np.asarray(b, dtype=np.int64), p)
    vec = b.ndim == 1
    b2 = b.reshape(-1, 1) if vec else b
    m, n = a.shape
    aug = np.concatenate([a, b2], axis=1)
    r, piv = rref_mod(aug, p)
    if any(j >= n for j in piv):
        return None
    x = zeros(n, b2.shape[1])
    for i, j in enumerate(piv):
        x[j] = r[i, n:]
    return x[:, 0] if vec else x


def inv_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix mod p (raises if singular)."""
    np = numpy()
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("inv_mod needs a square matrix")
    return np.array(inv_rows((a % p).tolist(), p), dtype=np.int64).reshape(n, n)


def in_span(span: np.ndarray, v: np.ndarray, p: int) -> bool:
    """Is the vector v in the column span of `span` mod p?"""
    return solve_mod(span, v, p) is not None


def complement_rows(rows: List[List[int]], ncols: int,
                    p: int) -> Tuple[int, List[int], List[List[int]]]:
    """(rank of a, complement, reduced rows) of [a | I] mod p, for a given
    by its m rows of ncols ints in [0, p).  The pivots of the I block are the
    greedy complement of im(a): each e_j not in the span of im(a) and the
    e_i before it.  All m rows are pivot rows; the rows below the rank kill
    a and are unit vectors on the complement.  The rows are returned whole."""
    m = len(rows)
    red = [row + [0] * k + [1] + [0] * (m - k - 1) for k, row in enumerate(rows)]
    piv = rref_rows(red, ncols + m, p)
    rank = bisect_left(piv, ncols)
    return rank, [j - ncols for j in piv[rank:]], red


def mul_rows(a: List[List[int]], b: List[List[int]], ncols: int, p: int) -> List[List[int]]:
    """The product a @ b mod p of row matrices, b with ncols columns (which
    its rows cannot tell when it has none)."""
    cols = list(zip(*b)) if b else [()] * ncols
    return [[sum(map(mul, row, col)) % p for col in cols] for row in a]


def inv_rows(rows: List[List[int]], p: int) -> List[List[int]]:
    """Inverse of a square row matrix mod p (raises if singular): the I block
    of complement_rows' reduced rows."""
    n = len(rows)
    r, _, red = complement_rows(rows, n, p)
    if r < n:
        raise ZeroDivisionError("matrix is singular mod %d" % p)
    return [row[n:] for row in red]


def cokernel_mod(a: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cokernel of a: k^n -> k^m as a pair (proj, sec).

    proj is a (m-rank) x m matrix with kernel exactly the column span of a,
    and sec is an m x (m-rank) section with proj @ sec = identity.  proj
    realizes the quotient k^m / im(a) in the coordinates of the standard
    basis vectors chosen by sec, the greedy complement of im(a); proj is the
    I block of complement_rows' rows below the rank.
    """
    np = numpy()
    a = mod_p(np.asarray(a, dtype=np.int64), p)
    m, n = a.shape
    r, comp, red = complement_rows(a.tolist(), n, p)
    proj = np.array([row[n:] for row in red[r:]], dtype=np.int64).reshape(m - r, m)
    return proj, eye(m)[:, comp]
