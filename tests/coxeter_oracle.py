"""The dense Coxeter transformation: the reference that the package's sweep
(quiver.coxeter_map, so tau on roots and quiver.coxeter_matrix) is checked
against, built from the Euler matrix alone with no path or sweep."""

from dcluster import quiver


def coxeter_by_sum_of_powers(q):
    """Phi = -E^{-1} E^T with E^{-1} = sum_{k<n} A^k, A the arrow matrix of
    E = I - A, by n dense products of Python ints (quartic in the rank)."""
    e = quiver.euler_matrix(q)
    n = q.rank
    arrows = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(e)]
    power = inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(1, n):
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*arrows)]
                 for row in power]
        inv = [[x + y for x, y in zip(r, s)] for r, s in zip(inv, power)]
    return [[-sum(x * y for x, y in zip(row, col)) for col in e] for row in inv]
