"""Exact integral-lattice arithmetic.

Gram matrices of the star diagrams T(p,q,r) and their degenerate
extensions, discriminants and signatures from one fraction-free integer
elimination, Smith normal form with transforms, radicals, and the
rank/signature/parity isomorphism test for indefinite unimodular
lattices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sl2z import triple_excess

__all__ = [
    "GramLattice",
    "SNFResult",
    "LatticeError",
    "NotUnimodularError",
    "DefiniteLatticeError",
    "a_block",
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
    "unimodular_indefinite_isomorphic",
]


class LatticeError(ValueError):
    pass


class NotUnimodularError(LatticeError):
    pass


class DefiniteLatticeError(LatticeError):
    pass


@dataclass(frozen=True)
class GramLattice:
    """Symmetric integer Gram matrix with labeled basis."""

    labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise LatticeError("gram matrix shape does not match labels")
        for i in range(n):
            for j in range(i, n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise LatticeError(f"gram matrix not symmetric at ({i},{j})")

    @property
    def rank(self) -> int:
        return len(self.labels)

    def entry(self, i: int, j: int) -> int:
        return self.gram[i][j]

    def permuted(self, order: list[int]) -> "GramLattice":
        return GramLattice(
            tuple(self.labels[i] for i in order),
            tuple(tuple(self.gram[i][j] for j in order) for i in order),
        )

    def basis_changed(self, b: list[list[int]]) -> "GramLattice":
        """Gram matrix B^T G B for the new basis given by the columns of B."""
        n = self.rank
        gb = [
            [sum(self.gram[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        new = [
            [sum(b[k][i] * gb[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        return GramLattice(self.labels, tuple(tuple(row) for row in new))

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "gram": [list(r) for r in self.gram]}

    @classmethod
    def from_json(cls, data) -> "GramLattice":
        return cls(
            tuple(str(s) for s in data["labels"]),
            tuple(tuple(int(v) for v in row) for row in data["gram"]),
        )

    @classmethod
    def from_rows(cls, labels, rows) -> "GramLattice":
        return cls(tuple(labels), tuple(tuple(int(v) for v in row) for row in rows))


def a_block(n: int) -> GramLattice:
    """Positive-definite A_n chain: +2 diagonal, -1 on diagram edges."""
    if n < 1:
        raise LatticeError("a_block needs n >= 1")
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
        if i + 1 < n:
            rows[i][i + 1] = rows[i + 1][i] = -1
    return GramLattice.from_rows([f"a{i+1}" for i in range(n)], rows)


def hyperbolic_plane() -> GramLattice:
    return GramLattice.from_rows(["e", "f"], [[0, 1], [1, 0]])


def _star_rows(p: int, q: int, r: int) -> list[list[int]]:
    """Star diagram on arms of p-1, q-1, r-1 vertices plus a center:
    -2 diagonal, +1 edges; arm vertex 1 is the one adjacent to the center."""
    arms = (p - 1, q - 1, r - 1)
    n = sum(arms) + 1
    center = n - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = -2
    offset = 0
    for arm in arms:
        for j in range(arm - 1):
            i = offset + j
            rows[i + 1][i] = rows[i][i + 1] = 1
        rows[offset][center] = rows[center][offset] = 1
        offset += arm
    return rows


def _star_labels(p: int, q: int, r: int) -> list[str]:
    labels = []
    for m, arm in ((1, p - 1), (2, q - 1), (3, r - 1)):
        labels += [f"s{m}_{j}" for j in range(1, arm + 1)]
    return labels + ["s+"]


def t_lattice(p: int, q: int, r: int) -> GramLattice:
    """Gram matrix of the star diagram T(p,q,r), rank p+q+r-2.

    Sign convention: -2 self-pairings and +1 on edges, matching resolution
    spheres, so T(2,3,7) compares directly against e_lattice(8) + H.
    """
    if min(p, q, r) < 2:
        raise LatticeError("t_lattice needs p,q,r >= 2")
    return GramLattice.from_rows(_star_labels(p, q, r), _star_rows(p, q, r))


def e_lattice(k: int) -> GramLattice:
    """E_k := T(2,3,k-3) in the same sign convention, 6 <= k <= 10."""
    if k not in (6, 7, 8, 9, 10):
        raise LatticeError(f"e_lattice supports k in 6..10, got {k}")
    base = t_lattice(2, 3, k - 3)
    return GramLattice(tuple(f"e{i+1}" for i in range(base.rank)), base.gram)


def t_tilde_lattice(p: int, q: int, r: int, generator: str = "S'") -> GramLattice:
    """Rank p+q+r-1 intersection form of the Milnor fiber of T_{p,q,r}.

    generator "S": basis (spheres, s+, s-); both of the last two vectors
    pair +1 with the arm vertices nearest the center and the corner block
    is all -2.  generator "S'": basis (spheres, s+, t2), where t2 = s+ - s-
    pairs to zero with everything.
    """
    if min(p, q, r) < 2:
        raise LatticeError("t_tilde_lattice needs p,q,r >= 2")
    if triple_excess(p, q, r) < 0:
        raise LatticeError(f"({p},{q},{r}) is neither a cusp nor a parabolic triple")
    star = _star_rows(p, q, r)
    n = len(star) + 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(n - 1):
            rows[i][j] = star[i][j]
    labels = _star_labels(p, q, r)
    if generator == "S'":
        return GramLattice.from_rows(labels + ["t2"], rows)
    if generator == "S":
        last = n - 1
        for i in range(n - 2):
            rows[i][last] = rows[last][i] = star[i][n - 2]
        rows[last][last] = -2
        rows[n - 2][last] = rows[last][n - 2] = -2
        return GramLattice.from_rows(labels + ["s-"], rows)
    raise LatticeError(f"unknown generator tag {generator!r}")


def direct_sum(*lattices: GramLattice) -> GramLattice:
    if not lattices:
        raise LatticeError("direct_sum of nothing")
    if len(lattices) == 1:
        return lattices[0]
    n = sum(lat.rank for lat in lattices)
    rows = [[0] * n for _ in range(n)]
    labels = []
    offset = 0
    for bi, lat in enumerate(lattices):
        for i in range(lat.rank):
            for j in range(lat.rank):
                rows[offset + i][offset + j] = lat.gram[i][j]
        labels += [f"{lab}.{bi+1}" for lab in lat.labels]
        offset += lat.rank
    return GramLattice.from_rows(labels, rows)


def k3_lattice() -> GramLattice:
    """The even unimodular lattice of rank 22 and signature (3,19)."""
    h = hyperbolic_plane()
    return direct_sum(e_lattice(8), e_lattice(8), h, h, h)


def _eliminate(rows) -> tuple[int, tuple[int, int, int]]:
    """Determinant and, for symmetric input, inertia (n+, n0, n-) of a
    square integer matrix given as a sequence of rows (left unchanged), by
    one fraction-free elimination.

    Bareiss updates divided by the previous pivot keep every entry an
    integer minor; the trailing block is the previous pivot times the Schur
    complement, so the sign of pivot/previous pivot is one term of the
    inertia.  A zero pivot is replaced, in order of preference, by a
    symmetric swap with a nonzero diagonal entry, by the unimodular
    congruence v_a += v_b when m_ab + m_ba != 0, or by a row swap; the last
    only happens once the remaining block is skew, so never for symmetric
    input, and the inertia is then meaningless.
    """
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev, pos, neg = 1, 1, 0, 0
    for k in range(n):
        d = next((i for i in range(k, n) if m[i][i]), None)
        if d is None:
            d, b = next(
                ((a, b) for a in range(k, n) for b in range(a + 1, n) if m[a][b] + m[b][a]),
                (None, None),
            )
            if d is not None:
                for j in range(k, n):
                    m[d][j] += m[b][j]
                for i in range(k, n):
                    m[i][d] += m[i][b]
        if d is None:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return 0, (pos, n - k, neg)
            m[k], m[i] = m[i], m[k]
            sign = -sign
        elif d != k:
            m[k], m[d] = m[d], m[k]
            for row in m:
                row[k], row[d] = row[d], row[k]
        piv, pivot_row = m[k][k], m[k]
        if (piv > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for row in m[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [
                (x * piv - f * y) // prev
                for x, y in zip(row[k + 1 :], pivot_row[k + 1 :])
            ]
        prev = piv
    return sign * prev, (pos, 0, neg)


def discriminant(lat: GramLattice) -> int:
    """Exact determinant of the Gram matrix."""
    return _eliminate(lat.gram)[0]


def signature(lat: GramLattice) -> tuple[int, int, int]:
    """(n+, n0, n-) of the Gram matrix."""
    return _eliminate(lat.gram)[1]


def parity(lat: GramLattice) -> str:
    """"even" iff every vector has even self-pairing (diagonal test)."""
    return "even" if all(lat.gram[i][i] % 2 == 0 for i in range(lat.rank)) else "odd"


@dataclass(frozen=True)
class SNFResult:
    """U * G * V = diag(divisors) with d1 | d2 | ...; U, V unimodular."""

    divisors: tuple[int, ...]
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    def verify(self, lat: GramLattice) -> bool:
        n = lat.rank
        ug = [
            [sum(self.u[i][k] * lat.gram[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        ugv = [
            [sum(ug[i][k] * self.v[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            for j in range(n):
                if ugv[i][j] != (self.divisors[i] if i == j else 0):
                    return False
        nz = [d for d in self.divisors if d]
        if any(b % a for a, b in zip(nz, nz[1:])):
            return False
        if any(d < 0 for d in self.divisors):
            return False
        return all(abs(_eliminate(t)[0]) == 1 for t in (self.u, self.v))

    def to_json(self) -> dict:
        return {
            "divisors": list(self.divisors),
            "u": [list(r) for r in self.u],
            "v": [list(r) for r in self.v],
        }


def smith_normal_form(lat: GramLattice) -> SNFResult:
    n = lat.rank
    m = [list(row) for row in lat.gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, f):  # row_i -= f * row_j
        for k in range(n):
            m[i][k] -= f * m[j][k]
        for k in range(n):
            u[i][k] -= f * u[j][k]

    def col_op(i, j, f):  # col_i -= f * col_j
        for k in range(n):
            m[k][i] -= f * m[k][j]
        for k in range(n):
            v[k][i] -= f * v[k][j]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for k in range(n):
            m[k][i], m[k][j] = m[k][j], m[k][i]
            v[k][i], v[k][j] = v[k][j], v[k][i]

    for s in range(n):
        while True:
            best = None
            for i in range(s, n):
                for j in range(s, n):
                    if m[i][j] != 0 and (
                        best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])
                    ):
                        best = (i, j)
            if best is None:
                break
            if best[0] != s:
                row_swap(s, best[0])
            if best[1] != s:
                col_swap(s, best[1])
            clean = True
            for i in range(s + 1, n):
                if m[i][s]:
                    row_op(i, s, m[i][s] // m[s][s])
                    if m[i][s]:
                        clean = False
            for j in range(s + 1, n):
                if m[s][j]:
                    col_op(j, s, m[s][j] // m[s][s])
                    if m[s][j]:
                        clean = False
            if not clean:
                continue
            piv = m[s][s]
            bad = next(
                (
                    i
                    for i in range(s + 1, n)
                    if any(m[i][j] % piv for j in range(s + 1, n))
                ),
                None,
            )
            if bad is not None:
                row_op(s, bad, -1)
                continue
            break
        if s < n and m[s][s] < 0:
            for k in range(n):
                m[s][k] = -m[s][k]
                u[s][k] = -u[s][k]

    res = SNFResult(
        tuple(m[i][i] for i in range(n)),
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in v),
    )
    if not res.verify(lat):  # pragma: no cover - algorithmic guard
        raise AssertionError("SNF failed to verify")
    return res


def radical(lat: GramLattice) -> list[tuple[int, ...]]:
    """Integer basis of the kernel sublattice, read off the SNF transforms."""
    snf = smith_normal_form(lat)
    n = lat.rank
    return [
        tuple(snf.v[i][j] for i in range(n))
        for j in range(n)
        if snf.divisors[j] == 0
    ]


def unimodular_indefinite_isomorphic(l1: GramLattice, l2: GramLattice) -> bool:
    """Isomorphism test valid for indefinite unimodular lattices: rank,
    signature and parity decide."""
    sigs = []
    for lat in (l1, l2):
        det, sig = _eliminate(lat.gram)
        if abs(det) != 1:
            raise NotUnimodularError(f"|det| != 1 for lattice of rank {lat.rank}")
        if sig[0] == 0 or sig[2] == 0:
            raise DefiniteLatticeError("definite lattice outside the test's scope")
        sigs.append(sig)
    return l1.rank == l2.rank and sigs[0] == sigs[1] and parity(l1) == parity(l2)
