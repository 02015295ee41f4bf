"""The homological monodromy of the Milnor fiber of T_{p,q,r}.

The fiber carries a torus fibration with three singular fibers, each a
closed chain of 2-spheres; dropping one sphere from each chain and tying
the rest to a regular fiber yields the S' basis of H_2, whose
intersection form is ``quadlattice.t_tilde_lattice``.  This module gives
the homological monodromy action on that basis and its characteristic
polynomial.
"""

from __future__ import annotations

from operator import add

from . import _check_int_rows, _check_triple
from .quadlattice import LatticeError, _arm_starts

__all__ = ["monodromy_action", "char_poly"]

IntMatrix = tuple[tuple[int, ...], ...]


def monodromy_action(p: int, q: int, r: int) -> IntMatrix:
    """Homological monodromy on the S' basis, columns = images.

    Each sphere chain shifts cyclically, s{m}_j -> s{m}_{j+1}, the wrap
    image s{m}_0 expanding through the fiber relation t2 = chain sum;
    s+ -> s+ + s1_1 + s2_1 + s3_1 - t2 and t2 is fixed.

    Classically (Gabrielov) this is the product of the Picard-Lefschetz
    reflections x -> x + <x, v> v over the S basis of ``t_tilde_lattice(p,
    q, r, "S")``, the first listed acting first: arms 1, 2 and 3, each
    from its outer sphere inward, then s-, then s+; the product is read in
    S' coordinates, with t2 = s+ - s-.
    """
    _check_triple((p, q, r), LatticeError, 0)
    starts = _arm_starts(p, q, r)
    plus = starts[3]
    t2 = plus + 1
    rows = [[0] * (t2 + 1) for _ in range(t2 + 1)]
    for a, b in zip(starts, starts[1:]):  # the chain s{m}_1 .. is a .. b-1
        rows[a][plus] = 1  # s+ -> ... + s{m}_1
        rows[t2][b - 1] = 1  # the wrap of s{m}_last: t2 - chain sum
        for i in range(a, b):
            rows[i][b - 1] = -1
            if i > a:
                rows[i][i - 1] = 1  # the shift s{m}_(i-1) -> s{m}_i
    rows[plus][plus] = rows[t2][t2] = 1
    rows[t2][plus] = -1
    return tuple(map(tuple, rows))


def _row_times(row, right) -> dict[int, int]:
    """The row vector given by its (index, entry) pairs times the matrix
    whose row k has the nonzero entries right[k], as (column, entry)
    pairs; the result is {column: entry} without zeros.  Only the nonzero
    products are formed, so the cost is the number of such products."""
    out: dict[int, int] = {}
    for k, x in row:
        if x:
            for j, y in right[k]:
                out[j] = out.get(j, 0) + x * y
    return {j: x for j, x in out.items() if x}


def char_poly(m: IntMatrix) -> tuple[int, ...]:
    """Coefficients (c_0, ..., c_n) of det(x*I - M), exact.

    Berkowitz's division-free algorithm: the polynomial of each leading
    (k+1)x(k+1) block is a lower-triangular Toeplitz matrix, built from the
    new row R, column C and corner a as (1, -a, -R C, -R A C, ...,
    -R A^(k-1) C), times the polynomial of the k x k block A.  The Krylov
    vectors A^j C are kept sparse and multiplied through the nonzero
    entries of each column of A; once one is zero, so are the later terms.
    An entry that is not an int is refused first, then a matrix that is
    not square.
    """
    _check_int_rows("matrix entries", m)
    if any(len(row) != len(m) for row in m):
        raise ValueError("char_poly needs a square matrix")
    poly = [1]  # highest degree first
    cols: list[list[tuple[int, int]]] = [[] for _ in m]  # nonzeros (i, m_ij), i < k
    for k, row in enumerate(m):
        c = dict(cols[k])
        toeplitz = [1, -row[k]]
        while c and len(toeplitz) < k + 2:
            toeplitz.append(-sum(row[j] * x for j, x in c.items()))
            c = _row_times(c.items(), cols)
        # Each nonzero Toeplitz term adds a shifted multiple, truncated to degree k+1.
        new = poly + [0]
        for j, x in enumerate(toeplitz[1:], 1):
            if x:
                new[j:] = map(add, new[j:], map(x.__mul__, poly))
        poly = new
        for j, x in enumerate(row):
            if x:
                cols[j].append((k, x))
    return tuple(reversed(poly))
