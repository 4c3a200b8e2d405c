import math
import os
import subprocess
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from coxeter_oracle import coxeter_by_sum_of_powers
from dcluster import quiver
from dcluster.reps import ModuleCategory


def test_default_orientations():
    a3 = quiver.parse_quiver("A", 3)
    assert a3.arrows == ((0, 1), (1, 2))
    d4 = quiver.parse_quiver("D", 4)
    assert set(d4.arrows) == {(0, 1), (2, 1), (3, 1)}
    e6 = quiver.parse_quiver("E", 6)
    assert set(e6.arrows) == {(0, 1), (1, 2), (3, 2), (4, 3), (5, 2)}


def test_bad_input_rejected():
    with pytest.raises(ValueError):
        quiver.parse_quiver("Z", 2)
    with pytest.raises(ValueError):
        quiver.parse_quiver("D", 3)
    with pytest.raises(ValueError):
        quiver.parse_quiver("A", 3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        quiver.parse_quiver("A", 3, [(0, 1), (0, 2)])


def test_bool_vertices_rejected():
    # JSON true/false are ints to operator.index; they must not pass as 1/0
    for arrows in ([(False, True), (True, 2)], [(0, 1), (1, True)],
                   [(np.bool_(False), 1), (1, 2)]):
        with pytest.raises(ValueError, match="arrows must be a list of "
                           r"\[source, target\] vertex pairs"):
            quiver.DynkinQuiver("A", 3, arrows)
    assert quiver.DynkinQuiver("A", 3, [(np.int64(0), 1), (1, 2)]).arrows == ((0, 1), (1, 2))


def test_reversed_orientation_accepted():
    q = quiver.parse_quiver("A", 3, [(1, 0), (1, 2)])
    assert q.arrows == ((1, 0), (1, 2))


# number of positive roots of each type (classical counts)
ROOT_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("D", 4): 12, ("D", 5): 20, ("E", 6): 36,
}


@pytest.mark.parametrize("diagram,rank", sorted(ROOT_COUNTS))
def test_positive_root_counts(diagram, rank):
    q = quiver.parse_quiver(diagram, rank)
    roots = quiver.positive_roots(q)
    assert len(roots) == ROOT_COUNTS[(diagram, rank)]
    assert len(set(roots)) == len(roots)
    assert roots == sorted(roots, key=lambda r: (sum(r), r))


def _positive_roots_on_arrays(q):
    """Reference: the reflection closure on numpy vectors, as first written."""
    c = np.array(quiver.cartan_matrix(q))
    found = set()
    frontier = [tuple(int(x) for x in row) for row in np.eye(q.rank, dtype=np.int64)]
    while frontier:
        nxt = []
        for beta in frontier:
            if beta in found:
                continue
            found.add(beta)
            bv = np.array(beta, dtype=np.int64)
            for i in range(q.rank):
                new = bv.copy()
                new[i] -= int(c[i] @ bv)
                if new.min() >= 0 and new.max() > 0:
                    t = tuple(int(x) for x in new)
                    if t not in found:
                        nxt.append(t)
        frontier = nxt
    return sorted(found, key=lambda r: (sum(r), r))


ALL_TYPES = [("A", n) for n in range(1, 7)] + [("D", n) for n in (4, 5, 6)] + \
    [("E", n) for n in (6, 7, 8)]


def _orientations(diagram, rank):
    """The default orientation and three seeded ones."""
    rng = np.random.default_rng(rank)
    edges = quiver.dynkin_edges(diagram, rank)
    return [None] + [[(u, v) if flip else (v, u) for (u, v), flip
                      in zip(edges, rng.integers(0, 2, len(edges)))]
                     for _ in range(3)]


@pytest.mark.parametrize("diagram,rank", ALL_TYPES)
def test_positive_roots_match_the_array_closure(diagram, rank):
    for arrows in _orientations(diagram, rank):
        q = quiver.parse_quiver(diagram, rank, arrows)
        roots = quiver.positive_roots(q)
        assert roots == _positive_roots_on_arrays(q)
        assert all(type(x) is int for r in roots for x in r)


def _positive_roots_by_reflection(q):
    """Reference: the closure of the simple roots under the simple
    reflections s_i(b) = b - (c_i . b) e_i, kept while nonnegative, on tuples
    of Python ints (quartic in the rank)."""
    c = quiver.cartan_matrix(q)
    found = set()
    frontier = [tuple(int(i == j) for j in range(q.rank)) for i in range(q.rank)]
    while frontier:
        nxt = []
        for beta in frontier:
            if beta in found:
                continue
            found.add(beta)
            for i, row in enumerate(c):
                new = list(beta)
                new[i] -= sum(x * y for x, y in zip(row, beta))
                if min(new) >= 0 and max(new) > 0:
                    t = tuple(new)
                    if t not in found:
                        nxt.append(t)
        frontier = nxt
    return sorted(found, key=lambda r: (sum(r), r))


@pytest.mark.parametrize("diagram,ranks", [("A", range(1, 31)), ("D", range(4, 31)),
                                           ("E", (6, 7, 8))])
def test_positive_roots_match_the_reflection_closure(diagram, ranks):
    for rank in ranks:
        q = quiver.parse_quiver(diagram, rank)
        assert quiver.positive_roots(q) == _positive_roots_by_reflection(q), rank


def test_positive_roots_of_a200_within_seconds():
    """The height walk is cubic in the rank: A_200's 20100 roots take well
    under a second, where the reflection closure takes minutes."""
    code = ("from dcluster import quiver\n"
            "print(len(quiver.positive_roots(quiver.parse_quiver('A', 200))))")
    assert _fresh_python(code, timeout=30) == "20100\n"


def test_module_category_of_a200_within_seconds():
    """The Coxeter matrix and tau both from coxeter_map's two sparse sweeps
    per vector: A_200's module category, with tau on its 20100 roots, takes
    seconds, where the dense forms took over a minute."""
    code = ("from dcluster import quiver\n"
            "from dcluster.reps import ModuleCategory\n"
            "q = quiver.parse_quiver('A', 200)\n"
            "phi = quiver.coxeter_matrix(q)\n"
            "cat = ModuleCategory(q)\n"
            "print(sum(t is not None for t in cat.tau_plus.values()), len(phi))")
    # tau P_x = 0 for the 200 projectives
    assert _fresh_python(code, timeout=60) == "19900 200\n"


def test_a2_roots_frozen():
    q = quiver.parse_quiver("A", 2)
    assert quiver.positive_roots(q) == [(0, 1), (1, 0), (1, 1)]


def test_euler_matrix_and_form():
    q = quiver.parse_quiver("A", 2)
    assert quiver.euler_matrix(q) == [[1, -1], [0, 1]]
    assert quiver.cartan_matrix(q) == [[2, -1], [-1, 2]]
    euler = ModuleCategory(q).euler_pairing
    # hom - ext of P_0=(1,1) against S_0=(1,0): hom=1, ext=0
    assert euler((1, 1), (1, 0)) == 1
    # ... and against S_1=(0,1): hom=0 (no map out of the top), ext=0
    assert euler((1, 1), (0, 1)) == 0
    assert euler((0, 1), (1, 0)) == 0
    # bilinearity spot check
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b, c = (rng.integers(-3, 4, size=2) for _ in range(3))
        assert euler(a + c, b) == euler(a, b) + euler(c, b)


COXETER = {
    ("A", 1): (2, (1,)),
    ("A", 2): (3, (1, 2)),
    ("A", 3): (4, (1, 2, 3)),
    ("A", 4): (5, (1, 2, 3, 4)),
    ("D", 4): (6, (1, 3, 3, 5)),
    ("D", 5): (8, (1, 3, 4, 5, 7)),
    ("D", 6): (10, (1, 3, 5, 5, 7, 9)),
    ("E", 6): (12, (1, 4, 5, 7, 8, 11)),
    ("E", 7): (18, (1, 5, 7, 9, 11, 13, 17)),
    ("E", 8): (30, (1, 7, 11, 13, 17, 19, 23, 29)),
}


@pytest.mark.parametrize("diagram,rank", sorted(COXETER))
def test_coxeter_numbers_and_exponents(diagram, rank):
    q = quiver.parse_quiver(diagram, rank)
    cox = quiver.coxeter_data(q)
    h, exps = COXETER[(diagram, rank)]
    assert cox.h == h
    assert cox.exponents == exps
    # |positive roots| = n h / 2
    assert len(quiver.positive_roots(q)) == rank * h // 2


def _rank_q(mat):
    """Rank over Q, by exact Fraction elimination (a rank mod p can be lower)."""
    rows = [[Fraction(int(v)) for v in row] for row in mat]
    rank = 0
    for c in range(mat.shape[1]):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _coxeter_by_eigenvalues(q):
    """Reference: h as the order of Phi, and the exponents from eigenvalue
    counts.  Phi has finite order h, so it is diagonalizable with eigenvalues
    exp(2 pi i m / h) over the exponents m.  dim ker(Phi^j - I) counts the
    eigenvalues whose order divides j; Moebius inversion over the divisors
    of h leaves those of exact order k, which fill whole sets of primitive
    k-th roots exp(2 pi i r / k), gcd(r, k) = 1, each giving the exponent
    h r / k.  Phi is the dense one of coxeter_oracle."""
    phi = np.array(coxeter_by_sum_of_powers(q))
    eye = np.eye(q.rank, dtype=np.int64)
    powers = [eye]
    while len(powers) == 1 or not np.array_equal(powers[-1], eye):
        powers.append(powers[-1] @ phi)
    h = len(powers) - 1
    exact = {}
    exponents = []
    for k in (k for k in range(1, h + 1) if h % k == 0):
        exact[k] = q.rank - _rank_q(powers[k] - eye) - \
            sum(c for j, c in exact.items() if k % j == 0)
        coprime = [r for r in range(1, k + 1) if math.gcd(r, k) == 1]
        mult, rem = divmod(exact[k], len(coprime))
        assert rem == 0 and mult >= 0
        for r in coprime:
            exponents.extend([h * r // k] * mult)
    return h, tuple(sorted(exponents))


@pytest.mark.parametrize("diagram,ranks", [("A", range(1, 25)), ("D", range(4, 25)),
                                           ("E", (6, 7, 8))])
def test_coxeter_matrix_matches_the_sum_of_powers(diagram, ranks):
    """Phi as coxeter_map's images of the unit vectors, the sweep that tau
    applies, equals the dense sum of powers, in four orientations of each
    rank."""
    for rank in ranks:
        for arrows in _orientations(diagram, rank):
            q = quiver.parse_quiver(diagram, rank, arrows)
            assert quiver.coxeter_matrix(q) == coxeter_by_sum_of_powers(q), (rank, arrows)


@pytest.mark.parametrize("diagram,rank", sorted(COXETER))
def test_exponents_match_height_dual_partition(diagram, rank):
    """Kostant: the exponents that coxeter_data reads off the root heights
    (their dual partition) are those of the eigenvalues of Phi, and h is its
    order, in every orientation."""
    for arrows in _orientations(diagram, rank):
        q = quiver.parse_quiver(diagram, rank, arrows)
        cox = quiver.coxeter_data(q)
        assert (cox.h, cox.exponents) == _coxeter_by_eigenvalues(q)
        assert cox.matrix == quiver.coxeter_matrix(q)
        assert all(type(v) is int for row in cox.matrix for v in row)


@pytest.mark.parametrize("wrong", ["identity", "square", "cube", "unipotent"])
def test_coxeter_data_checks_the_order_of_phi(wrong, monkeypatch):
    """Phi must have order exactly h = 12 on E6: order 1, order 6 = h/2,
    order 4 = h/3 and infinite order, planted in coxeter_map (the Phi that
    tau applies), are all refused."""
    q = quiver.parse_quiver("E", 6)
    phi = np.array(quiver.coxeter_matrix(q))
    mats = {"identity": np.eye(6, dtype=np.int64), "square": phi @ phi,
            "cube": phi @ phi @ phi,
            "unipotent": np.eye(6, dtype=np.int64) + np.eye(6, k=1, dtype=np.int64)}
    mat = mats[wrong]
    monkeypatch.setattr(quiver, "coxeter_map",
                        lambda q: lambda v: tuple(map(int, mat @ np.array(v))))
    with pytest.raises(RuntimeError, match="does not have order h = 12"):
        quiver.coxeter_data(q)


def test_coxeter_is_orientation_dependent_but_h_is_not():
    for arrows in [[(0, 1), (1, 2)], [(1, 0), (1, 2)], [(2, 1), (1, 0)]]:
        q = quiver.parse_quiver("A", 3, arrows)
        assert quiver.coxeter_data(q).h == 4
        assert quiver.coxeter_data(q).exponents == (1, 2, 3)


FACETS = {
    ("A", 1, 1): 2, ("A", 1, 2): 3, ("A", 1, 3): 4,
    ("A", 2, 1): 5, ("A", 2, 2): 12, ("A", 2, 3): 22,
    ("A", 3, 1): 14, ("A", 3, 2): 55, ("A", 3, 3): 140,
    ("D", 4, 1): 50, ("D", 4, 2): 336, ("D", 4, 3): 1210,
}


@pytest.mark.parametrize("diagram,rank,d", sorted(FACETS))
def test_facet_count_formula(diagram, rank, d):
    q = quiver.parse_quiver(diagram, rank)
    assert quiver.fomin_reading_count(q, d) == FACETS[(diagram, rank, d)]


def _fresh_python(code, timeout=None):
    """stdout of `code` run in a fresh interpreter with the package on its
    path, within `timeout` seconds when one is given."""
    src = str(Path(quiver.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env, timeout=timeout).stdout


def test_import_does_not_load_sympy():
    code = "import sys, dcluster; print('sympy' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


_QUERY = """
import contextlib, io
from dcluster import cli, enumerate_tilting, load_context
ctx = load_context("D", 5, 2)
names = [ctx.oc.obj_name(x) for x in enumerate_tilting(ctx)[7]]
with contextlib.redirect_stdout(io.StringIO()):
    for command in ("complements", "mutate"):
        assert cli.run([command, "--diagram", "D", "--rank", "5", "--d", "2",
                        "--facet", ",".join(names), "--drop", names[1]]) == 0
"""

_CENSUS = """
from dcluster import (build_complex, f_vector, facet_stats, fomin_reading_count,
                      load_context, mutation_graph_checks, verify_equivalence)
from dcluster.complex import to_json
ctx = load_context("A", 3, 2)
ctx.adjacency()
assert verify_equivalence(ctx)["ok"]
graph = mutation_graph_checks(ctx)
assert graph["regular"] and graph["connected"]
full = build_complex(ctx)
assert facet_stats(full)["pure"]
assert f_vector(full)[-1] == fomin_reading_count(ctx.oc.cat.q, 2) == 55
assert len(to_json(full)["facets"]) == 55
"""


_VERIFY = """
import contextlib, io
from dcluster import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.run(["verify", "--all", "--diagram", "D", "--rank", "4", "--d", "2"]) == 0
assert out.getvalue().splitlines()[-1] == "summary: 22 pass, 0 fail, 2 n/a"
"""

_EXT_TABLE = """
import contextlib, io
from dcluster import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["ext-table", "--diagram", "D", "--rank", "5", "--d", "2"]) == 0
"""


@pytest.mark.parametrize("code", [
    "import dcluster",
    "from dcluster import enumerate_tilting, load_context\n"
    "assert len(enumerate_tilting(load_context('D', 5, 2))) == 2079",
    _QUERY, _CENSUS, _VERIFY, _EXT_TABLE],
    ids=["import", "enumerate", "queries", "census", "verify", "ext-table"])
def test_queries_and_the_census_do_not_load_numpy(code):
    """numpy is loaded by the array edges only, which no command calls:
    importing the package, enumerating the tilting sets, a complements and a
    mutate query, the census of the complex, verify --all (the module knit
    included) and ext-table never import it."""
    code += "\nimport sys; print('numpy' in sys.modules)"
    assert _fresh_python(code).splitlines()[-1] == "False"


def test_verify_all_passes_without_numpy():
    """verify --all runs every check with numpy made unimportable, with the
    summary lines of a run that could import it."""
    code = ("import contextlib, io, sys\n"
            "sys.modules['numpy'] = None\n"
            "from dcluster import cli\n"
            "for diagram, rank, d in (('A', 2, 1), ('D', 4, 2)):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        rc = cli.run(['verify', '--all', '--diagram', diagram, '--rank', str(rank), "
            "'--d', str(d)])\n"
            "    lines = out.getvalue().splitlines()\n"
            "    assert not any(' fail ' in line for line in lines), lines\n"
            "    print(rc, lines[-1])")
    assert _fresh_python(code).splitlines() == ["0 summary: 17 pass, 0 fail, 7 n/a",
                                                "0 summary: 22 pass, 0 fail, 2 n/a"]


def test_directed_paths():
    q = quiver.parse_quiver("A", 3)
    paths = quiver.directed_paths(q)
    assert paths[(0, 2)] == (0, 1)
    assert (2, 0) not in paths
    d4 = quiver.parse_quiver("D", 4)
    paths = quiver.directed_paths(d4)
    assert (0, 1) in paths and (0, 2) not in paths


def _directed_paths_by_scans(q):
    """Reference: the breadth-first searches of directed_paths with a scan
    of every arrow for the arrows leaving each vertex reached."""
    paths = {}
    for u in range(q.rank):
        paths[(u, u)] = ()
        queue = deque([u])
        while queue:
            w = queue.popleft()
            for i, t in [(i, t) for i, (s, t) in enumerate(q.arrows) if s == w]:
                if (u, t) not in paths:
                    paths[(u, t)] = paths[(u, w)] + (i,)
                    queue.append(t)
    return paths


@pytest.mark.parametrize("diagram,ranks", [("A", range(1, 31)), ("D", range(4, 31)),
                                           ("E", (6, 7, 8))])
def test_directed_paths_match_the_per_step_scan(diagram, ranks):
    """The outgoing arrows listed once give the paths of the per-step scan,
    in the same order, in the default and a seeded orientation."""
    for rank in ranks:
        for arrows in _orientations(diagram, rank)[:2]:
            q = quiver.parse_quiver(diagram, rank, arrows)
            assert list(quiver.directed_paths(q).items()) == \
                list(_directed_paths_by_scans(q).items()), (rank, arrows)
