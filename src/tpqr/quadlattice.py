"""Exact integral-lattice arithmetic.

Gram matrices of the star diagrams T(p,q,r) and their degenerate
extensions, discriminants, signatures and parity, Smith normal form
certified by its row and column operations, and radicals.

Every lattice a builder returns (``t_lattice``, ``t_tilde_lattice``,
``e_lattice``, ``hyperbolic_plane``, ``direct_sum`` and ``k3_lattice``)
carries its determinant and inertia in closed form (``_star_form``);
``direct_sum`` multiplies the determinants of its parts and adds their
inertias.  A builder checks its own inputs, a diagonal and an edge list
or checked parts, in time linear in them, and stores the lattice without
the O(n^2) scans of the constructor (``_stored``).  Only a lattice built
by hand, ``GramLattice(labels, gram)`` from JSON or a library caller,
keeps every check and runs one plain fraction-free (Bareiss) integer
elimination, ``_eliminate``, at most once per object, for its
determinant and inertia; no CLI request builds one.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress
from math import prod

from . import _check_int_rows, _check_ints, _check_triple, triple_excess, value_class

__all__ = [
    "GramLattice",
    "SNFResult",
    "LatticeError",
    "e_lattice",
    "hyperbolic_plane",
    "direct_sum",
    "t_lattice",
    "t_tilde_lattice",
    "k3_lattice",
    "discriminant",
    "signature",
    "parity",
    "smith_normal_form",
    "radical",
]


class LatticeError(ValueError):
    pass


@value_class
class GramLattice:
    """Symmetric integer Gram matrix on a labeled basis, from any sequences,
    stored as tuples.  It refuses entries that are not ``int`` (bool
    included), then a shape not matching the labels, then asymmetry.
    These checks scan all n^2 entries; they are for input from outside
    the program, and the builders, which check their own smaller inputs,
    store their lattices through ``_stored`` instead.

    The determinant and inertia behind ``discriminant``/``signature``
    and the Smith normal form are computed at most once per object and
    kept on it; a builder sets the first pair in closed form, so only a
    lattice built by hand runs the elimination.
    """

    labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        labels, g = tuple(self.labels), tuple(map(tuple, self.gram))
        n = len(labels)
        _check_int_rows("Gram entries", g)
        if len(g) != n or any(len(row) != n for row in g):
            raise LatticeError("gram matrix shape does not match labels")
        if g != tuple(zip(*g)):  # name the first asymmetric (i, j), j >= i
            i, j = next((i, j) for i in range(n) for j in range(i, n) if g[i][j] != g[j][i])
            raise LatticeError(f"gram matrix not symmetric at ({i},{j})")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "gram", g)

    @cached_property
    def _rows(self) -> tuple[dict[int, int], ...]:
        """The Gram matrix as sparse rows {column: entry} without zeros,
        built once per lattice, or by ``_gram`` with the dense rows.  Its
        readers copy a row before they change it: the elimination, the
        reduction and ``SNFResult.verify``."""
        return tuple(dict(compress(enumerate(row), row)) for row in self.gram)

    @cached_property
    def _elimination(self) -> tuple[int, tuple[int, int, int]]:
        """Determinant and inertia, from one elimination per lattice; a
        builder puts its closed form in this slot instead."""
        return _eliminate(self._rows)

    @cached_property
    def _snf(self) -> SNFResult:
        """The verified Smith normal form, computed once per lattice."""
        return _smith(self)

    @property
    def rank(self) -> int:
        return len(self.labels)

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "gram": [list(r) for r in self.gram]}

    @classmethod
    def from_json(cls, data) -> "GramLattice":
        return cls(map(str, data["labels"]), data["gram"])


def _stored(labels: tuple, gram: tuple, **cached) -> GramLattice:
    """A lattice whose labels and Gram tuples are already known to be well
    formed, stored as they are with ``cached`` in the slots of its cached
    properties; ``__post_init__`` does not run.  Only the builders call
    it, on what they have checked or built from checked lattices."""
    lat = object.__new__(GramLattice)
    vars(lat).update(labels=labels, gram=gram, **cached)
    return lat


def _gram(labels, diagonal, edges, form) -> GramLattice:
    """The lattice on ``labels`` whose Gram matrix has ``diagonal`` on
    the diagonal, x at (i, j) and (j, i) for each edge (i, j, x), and 0
    elsewhere; ``form``, its determinant and inertia, is kept in the slot
    of the elimination's cache.

    The matrix is fully determined by these inputs, so they are what is
    checked, in time linear in them: int values (bool refused), one
    diagonal entry per label and 0 <= i < j < n for each edge.  Symmetry
    and shape then hold by construction.  One pass over the diagonal and
    the edges writes both the dense rows and the sparse ``_rows``."""
    labels, n = tuple(labels), len(labels)
    _check_ints("Gram entries", chain(diagonal, chain.from_iterable(edges)))
    if len(diagonal) != n:
        raise LatticeError(f"{len(diagonal)} diagonal entries for {n} labels")
    dense, rows = [[0] * n for _ in range(n)], [{} for _ in range(n)]
    for i, x in enumerate(diagonal):
        if x:
            dense[i][i] = rows[i][i] = x
    for i, j, x in edges:
        if not 0 <= i < j < n:
            raise LatticeError(f"edge ({i},{j}) is not 0 <= i < j < {n}")
        if x:
            dense[i][j] = dense[j][i] = rows[i][j] = rows[j][i] = x
    return _stored(labels, tuple(map(tuple, dense)), _rows=tuple(rows), _elimination=form)


def hyperbolic_plane() -> GramLattice:
    return _gram(["e", "f"], [0, 0], [(0, 1, 1)], (-1, (1, 0, 1)))


def _arm_starts(p: int, q: int, r: int) -> tuple[int, int, int, int]:
    """Basis layout of T(p,q,r) and its Milnor lattices: the arms of p-1,
    q-1 and r-1 spheres begin at the first three indices and the center
    s+ sits at the fourth; the Milnor lattices put t2 or s- after it."""
    return (0, p - 1, p + q - 2, p + q + r - 3)


def _star(p: int, q: int, r: int) -> tuple[list[str], list[tuple[int, int, int]]]:
    """Labels and +1 edges of the star diagram: arm m is the chain s{m}_1,
    s{m}_2, ..., whose first vertex s{m}_1 is joined to the center s+."""
    starts = _arm_starts(p, q, r)
    center = starts[3]
    labels, edges = [], []
    for m, (a, b) in enumerate(zip(starts, starts[1:]), 1):
        labels += [f"s{m}_{j}" for j in range(1, b - a + 1)]
        edges += [(i, i + 1, 1) for i in range(a, b - 1)] + [(a, center, 1)]
    return labels + ["s+"], edges


def _star_form(p: int, q: int, r: int) -> tuple[int, tuple[int, int, int]]:
    """Determinant and inertia (n+, n0, n-) of T(p,q,r), n = p+q+r-2, in
    closed form.

    With the arms first and the center s+ last, G = [[A, b], [b^T, -2]].
    An arm of k-1 spheres is the chain -A_{k-1}: negative definite, with
    determinant (-1)^(k-1) k and -(k-1)/k as the entry of its inverse at
    the sphere next to the center, where b has its 1.  So det A =
    (-1)^(n-1) pqr, and the Schur complement at the center is

        s = -2 - b^T A^-1 b = -2 + sum (k-1)/k = 1 - 1/p - 1/q - 1/r = e/(pqr)

    with e = ``triple_excess(p, q, r)``.  Hence det G = det A * s =
    (-1)^n (pq + qr + rp - pqr), and by Haynsworth's additivity the
    inertia is that of A, (0, 0, n-1), plus the sign of s: (1, 0, n-1)
    for a cusp (e > 0), (0, 1, n-1) for a parabolic triple (e = 0) and
    (0, 0, n) otherwise (D_n and E6-E8)."""
    e, n = triple_excess(p, q, r), p + q + r - 2
    inertia = (1, 0, n - 1) if e > 0 else (0, 1, n - 1) if e == 0 else (0, 0, n)
    return (-1) ** n * -e, inertia


def t_lattice(p: int, q: int, r: int) -> GramLattice:
    """Gram matrix of the star diagram T(p,q,r), rank p+q+r-2.

    Sign convention: -2 self-pairings and +1 on edges, matching resolution
    spheres, so T(2,3,7) compares directly against e_lattice(8) + H.
    """
    _check_triple((p, q, r), LatticeError)
    labels, edges = _star(p, q, r)
    return _gram(labels, [-2] * len(labels), edges, _star_form(p, q, r))


def e_lattice(k: int) -> GramLattice:
    """E_k := T(2,3,k-3) in the same sign convention on the basis e1, ...,
    ek, 6 <= k <= 10."""
    _check_ints("k", (k,))
    if k not in (6, 7, 8, 9, 10):
        raise LatticeError(f"e_lattice supports k in 6..10, got {k}")
    _, edges = _star(2, 3, k - 3)
    return _gram([f"e{i}" for i in range(1, k + 1)], [-2] * k, edges, _star_form(2, 3, k - 3))


def t_tilde_lattice(p: int, q: int, r: int, generator: str = "S'") -> GramLattice:
    """Rank p+q+r-1 intersection form of the Milnor fiber of T_{p,q,r}.

    generator "S": basis (spheres, s+, s-); both of the last two vectors
    pair +1 with the arm vertices nearest the center and the corner block
    is all -2.  generator "S'": basis (spheres, s+, t2), where t2 = s+ - s-
    pairs to zero with everything.

    In S' the Gram matrix is that of T(p,q,r) bordered by the zero row of
    t2, so the determinant is 0 and the inertia is that of T with one more
    zero; S is S' after the unimodular change s- = s+ - t2, which keeps
    both.
    """
    _check_triple((p, q, r), LatticeError, 0)
    labels, edges = _star(p, q, r)
    last = len(labels)
    pos, zero, neg = _star_form(p, q, r)[1]
    form = 0, (pos, zero + 1, neg)
    if generator == "S'":
        return _gram(labels + ["t2"], [-2] * last + [0], edges, form)
    if generator == "S":
        *arms, center = _arm_starts(p, q, r)
        corner = [(a, last, 1) for a in arms] + [(center, last, -2)]
        return _gram(labels + ["s-"], [-2] * (last + 1), edges + corner, form)
    raise LatticeError(f"unknown generator tag {generator!r}")


def direct_sum(*lattices: GramLattice) -> GramLattice:
    """The orthogonal sum, with labels suffixed .1, .2, ... by part, a
    single part included.  Its determinant is the product of the parts'
    and its inertia their sum, so only a part built by hand runs an
    elimination, its own, once.  The parts were checked when they were
    built, so the sum is stored without a scan; its sparse rows are left
    to be built on first read."""
    for lat in lattices:
        if not isinstance(lat, GramLattice):
            raise TypeError(f"direct_sum takes GramLattice parts, got {type(lat).__name__}")
    if not lattices:
        raise LatticeError("direct_sum of nothing")
    n = sum(lat.rank for lat in lattices)
    rows, labels, offset = [], [], 0
    for bi, lat in enumerate(lattices, 1):
        rows += [(0,) * offset + r + (0,) * (n - offset - lat.rank) for r in lat.gram]
        labels += [f"{lab}.{bi}" for lab in lat.labels]
        offset += lat.rank
    dets, inertias = zip(*(lat._elimination for lat in lattices))
    form = prod(dets), tuple(map(sum, zip(*inertias)))
    return _stored(tuple(labels), tuple(rows), _elimination=form)


def k3_lattice() -> GramLattice:
    """2E8 + 3H: the even unimodular lattice of rank 22 and signature (3,19),
    built on each call.  Of the CLI requests only ``lattice k3`` builds it:
    k3glue compares a glued lattice with its rank, inertia and parity."""
    h = hyperbolic_plane()
    return direct_sum(e_lattice(8), e_lattice(8), h, h, h)


def _eliminate(rows) -> tuple[int, tuple[int, int, int]]:
    """Determinant and inertia (n+, n0, n-) of a symmetric integer matrix
    given as its sparse rows {column: entry} without zeros (left
    unchanged), by one fraction-free (Bareiss) elimination on copies of
    them.

    Each step updates every trailing row by (x * pivot - f * y) / previous
    pivot, an exact division that keeps every entry an integer minor; the
    trailing block is the previous pivot times the Schur complement, so it
    stays symmetric and the sign of pivot/previous pivot is one term of the
    inertia.  A zero pivot is replaced by a symmetric swap with the first
    nonzero diagonal entry or, when the whole diagonal of the block is
    zero, by the unimodular congruence v_d += v_b on the first nonzero
    m_db with d < b; a block without one is zero.  A row update reads the
    nonzeros of the row and of the pivot row, and drops column k.  Only a
    lattice built by hand runs it: every builder lattice carries its
    determinant and inertia in closed form."""
    m = [dict(row) for row in rows]
    n = len(m)
    prev, pos, neg = 1, 0, 0
    for k in range(n):
        d = k if k in m[k] else next((i for i in range(k + 1, n) if i in m[i]), None)
        if d is None:
            # rows k..d-1 are zero, so by symmetry min(m[d]) is the first b > d
            d = next((i for i in range(k, n) if m[i]), None)
            if d is None:
                return 0, (pos, n - k, neg)
            b = min(m[d])
            _add(m[d], m[b], 1)
            for row in m[k:]:
                if b in row:
                    _add(row, {d: row[b]}, 1)
        if d != k:  # the symmetric swap of k and d
            m[k], m[d] = m[d], m[k]
            for row in m[k:]:
                x, y = row.pop(k, 0), row.pop(d, 0)
                row.update((c, z) for c, z in ((d, x), (k, y)) if z)
        tail = m[k]  # row k is not read again
        piv = tail.pop(k)
        if (piv > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            row = m[i]
            f = row.pop(k, 0)
            new = {j: x * piv // prev for j, x in row.items()}  # exact where f * y = 0
            if f:
                for j, y in tail.items():
                    x = (row.get(j, 0) * piv - f * y) // prev
                    if x:
                        new[j] = x
                    else:  # so j is in row, as f * y != 0
                        del new[j]
            m[i] = new
        prev = piv
    return prev, (pos, 0, neg)


def discriminant(lat: GramLattice) -> int:
    """Exact determinant of the Gram matrix."""
    return lat._elimination[0]


def signature(lat: GramLattice) -> tuple[int, int, int]:
    """(n+, n0, n-) of the Gram matrix."""
    return lat._elimination[1]


def parity(lat: GramLattice) -> str:
    """"even" iff every vector has even self-pairing (diagonal test)."""
    return "even" if all(lat.gram[i][i] % 2 == 0 for i in range(lat.rank)) else "odd"


def _add(t: dict, src: dict, f: int) -> None:
    """t += f * src for sparse vectors {index: entry} and f != 0, keeping
    no zero entry."""
    for k, y in src.items():
        x = t.get(k, 0) + f * y
        if x:
            t[k] = x
        else:
            del t[k]


def _well_formed(ops, n: int, sizes: tuple[int, ...]) -> bool:
    """Every operation is a tuple of ints (bool is not one) whose length is
    one of ``sizes``, with its indices op[:2] in range(n) and two distinct
    indices in an add: an add of a line to itself would scale it."""
    if set(map(type, ops)) - {tuple} or set(map(type, chain.from_iterable(ops))) - {int}:
        return False
    for op in ops:
        size, i = len(op), op[0] if op else -1
        j = op[1] if size > 1 else i
        if size not in sizes or not (0 <= i < n and 0 <= j < n) or (size == 3 and i == j):
            return False
    return True


def _replay(vectors: list, ops) -> list:
    """Replay ``ops``, well formed, on the sparse vectors {index: entry},
    in place and in order: (i, j, f) adds f * t_j to t_i, (i, j) swaps t_i
    and t_j, (i,) negates t_i.  The rows of a matrix take its row
    operations, its columns its column operations."""
    for op in ops:
        if len(op) == 2:
            i, j = op
            vectors[i], vectors[j] = vectors[j], vectors[i]
        elif len(op) == 1:
            vectors[op[0]] = {k: -x for k, x in vectors[op[0]].items()}
        elif op[2]:  # f = 0 changes nothing
            t, f = vectors[op[0]], op[2]
            for k, y in vectors[op[1]].items():
                x = t.get(k, 0) + f * y
                if x:
                    t[k] = x
                else:
                    del t[k]
    return vectors


def _dense(rows: list) -> tuple[tuple[int, ...], ...]:
    """The square matrix with these sparse rows, as dense tuples."""
    n = len(rows)
    out = [[0] * n for _ in rows]
    for dense, row in zip(out, rows):
        for j, x in row.items():
            dense[j] = x
    return tuple(map(tuple, out))


@value_class
class SNFResult:
    """U * G * V = diag(divisors) with d1 | d2 | ... and every d >= 0,
    certified by ``row_ops`` and ``col_ops``: the elementary row and
    column operations that take G to the diagonal, each list in the order
    it was applied, as plain int tuples whose length gives the kind.

    - ``(i, j, f)``: line_i += f * line_j, with i != j;
    - ``(i, j)``: lines i and j trade places;
    - ``(i,)``: row_i = -row_i; there is no column negation.

    Each of these is unimodular by its form, so U, the product of the row
    operations, and V, that of the column operations, have |det| = 1 with
    no further proof, for singular G as well.  The fields are tuples, each
    operation as given; ``u`` and ``v`` are built on first read, dense.
    """

    divisors: tuple[int, ...]
    row_ops: tuple[tuple[int, ...], ...]
    col_ops: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for name in ("divisors", "row_ops", "col_ops"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def verify(self, lat: GramLattice) -> bool:
        """Exact check of the certificate against ``lat``, in three steps.

        1. Every operation of each list is well formed (``_well_formed``);
           if one is not, the answer is False, with no exception.
        2. The operations are replayed on a fresh sparse copy of G.  Row
           operations multiply on the left and column operations on the
           right, so the two lists commute: the row operations run on the
           rows, then the column operations on the columns of the result.
        3. The result must be exactly diag(divisors), a chain of
           non-negative int divisors.

        No elimination and no code of the reduction runs."""
        n, d = lat.rank, self.divisors
        ops_ok = _well_formed(self.row_ops, n, (1, 2, 3)) and _well_formed(self.col_ops, n, (2, 3))
        d_ok = len(d) == n and not set(map(type, d)) - {int}
        return d_ok and ops_ok and self._replays_to_diagonal(lat)

    def _replays_to_diagonal(self, lat: GramLattice) -> bool:
        """Steps 2 and 3 of ``verify``, for n int divisors and well-formed
        operations: what ``_smith`` checks on the lists it has just built."""
        d, nz = self.divisors, [x for x in self.divisors if x]
        if any(x < 0 for x in d) or any(b % a for a, b in zip(nz, nz[1:])):
            return False
        rows = _replay([dict(row) for row in lat._rows], self.row_ops)
        cols = [{} for _ in range(lat.rank)]
        for i, row in enumerate(rows):
            for j, x in row.items():
                cols[j][i] = x
        _replay(cols, self.col_ops)
        return all(col == ({j: x} if x else {}) for j, (col, x) in enumerate(zip(cols, d)))

    @cached_property
    def u(self) -> tuple[tuple[int, ...], ...]:
        """U, the row operations replayed on the rows of I."""
        eye = [{i: 1} for i in range(len(self.divisors))]
        return _dense(_replay(eye, self.row_ops))

    @cached_property
    def v(self) -> tuple[tuple[int, ...], ...]:
        """V, from its rows replayed backwards (``_v_rows``)."""
        n = len(self.divisors)
        return _dense(_v_rows(self.col_ops, n, range(n)))

    def to_json(self) -> dict:
        return {"divisors": list(self.divisors),
                "u": [list(r) for r in self.u], "v": [list(r) for r in self.v]}


def smith_normal_form(lat: GramLattice) -> SNFResult:
    """Smith normal form of the Gram matrix, verified by replaying its
    operations on G, computed once per lattice object."""
    return lat._snf


def _smith(lat: GramLattice) -> SNFResult:
    """D = U G V by pivoting on the first smallest nonzero entry (row-major)
    of the trailing block.  Only G is reduced: each elementary operation
    is applied to G and appended to the certificate's row or column list;
    U and V are left for the certificate to build if they are read.

    G is held by rows, copies of the lattice's sparse rows {column:
    entry}, so an operation costs the nonzeros it touches.  The columns
    are permuted, not moved: ``key[c]`` is the dict key that holds
    logical column c and ``col`` is its inverse, so a column swap
    exchanges two keys and touches no row.  The operations are recorded,
    and ties in the pivot search broken, in logical columns.  Once step
    s is done, row s and column s hold only their diagonal entry.  Step s
    scans rows s+1.. for column s and its column operations walk the
    rows that still hold an entry there.  No index of the rows holding
    each column is kept: on the lattices of the benchmark ladder it gave
    the same operations and no gain, as its upkeep on every row operation
    costs what the scans save.  The result passes the checks of
    ``SNFResult.verify`` but its form check, which the operations built
    here need not, before it is returned."""
    n = lat.rank
    m = [dict(row) for row in lat._rows]
    key, col = list(range(n)), list(range(n))
    row_ops, col_ops = [], []

    def row_op(i, j, f):  # row_i -= f * row_j, f != 0
        _add(m[i], m[j], -f)
        row_ops.append((i, j, -f))

    for s in range(n):
        while True:  # rows s.. have no entry left of column s
            best = None
            for i in range(s, n):
                if m[i]:
                    x = min(map(abs, m[i].values()))
                    if best is None or x < best[0]:
                        best = x, i
                        if x == 1:
                            break
            if best is None:
                break
            x, i = best
            j = min(col[k] for k, y in m[i].items() if abs(y) == x)
            if i != s:
                m[s], m[i] = m[i], m[s]
                row_ops.append((s, i))
            if j != s:
                key[s], key[j] = key[j], key[s]
                col[key[s]], col[key[j]] = s, j
                col_ops.append((s, j))
            # |piv| is the least in the block, so every quotient is nonzero
            c = key[s]
            piv, rows = m[s][c], [s]
            for i in range(s + 1, n):
                if c in m[i]:
                    row_op(i, s, m[i][c] // piv)
                    if c in m[i]:
                        rows.append(i)
            for j in sorted(col[k] for k in m[s] if k != c):  # col_j -= f * col_s
                kj = key[j]
                f = m[s][kj] // piv
                for r in rows:
                    row = m[r]
                    x = row.get(kj, 0) - f * row[c]
                    if x:
                        row[kj] = x
                    else:
                        del row[kj]
                col_ops.append((j, s, -f))
            if len(rows) > 1 or len(m[s]) > 1:
                continue
            bad = None if abs(piv) == 1 else next(
                (i for i in range(s + 1, n) if any(x % piv for x in m[i].values())), None
            )
            if bad is not None:
                row_op(s, bad, -1)
                continue
            break
        if m[s].get(key[s], 0) < 0:
            m[s] = {k: -x for k, x in m[s].items()}
            row_ops.append((s,))

    res = SNFResult([m[s].get(key[s], 0) for s in range(n)], row_ops, col_ops)
    if not res._replays_to_diagonal(lat):  # pragma: no cover - algorithmic guard
        raise AssertionError("SNF failed to verify")
    return res


def _v_rows(col_ops, n: int, columns) -> list:
    """The sparse rows {column: entry} of V restricted to ``columns``.
    V = C_1 C_2 ... C_k, the column operations in the order applied, so
    they run last first, as row operations, on those columns of I: (i, j, f)
    adds f * row i to row j, skipped when f = 0, and (i, j) swaps the two."""
    rows = [{} for _ in range(n)]
    for j in columns:
        rows[j][j] = 1
    for op in reversed(col_ops):
        if len(op) == 2:
            i, j = op
            rows[i], rows[j] = rows[j], rows[i]
        elif op[2] and rows[op[0]]:  # an empty row i adds nothing
            i, j, f = op
            _add(rows[j], rows[i], f)
    return rows


def radical(lat: GramLattice) -> list[tuple[int, ...]]:
    """Integer basis of the kernel sublattice: the columns of V whose
    divisor is 0, from ``_v_rows`` on those columns alone."""
    snf = lat._snf
    zero = [j for j, d in enumerate(snf.divisors) if d == 0]
    if not zero:
        return []
    rows = _v_rows(snf.col_ops, lat.rank, zero)
    return [tuple(row.get(j, 0) for row in rows) for j in zero]
