"""Shared test oracles.

The brute-force conjugator search is deliberately independent of the
production RL/normal-form machinery and is used only as an oracle here.
``normal_form_conjugator`` is the library's earlier decision for
|trace| <= 2: an extended-gcd normal form for parabolic matrices, and for
elliptic ones a rational walk of the fixed point followed by a search over
small conjugators.
The determinant, signature and characteristic-polynomial oracles are the
library's earlier kernels: plain Bareiss elimination, recursive congruence
over exact rationals, and Lagrange interpolation of n+1 determinants.  The
cusp-unit and module-action oracles are likewise the earlier product of
continued-fraction values over all rotations and the rational solve for
coordinates in the basis (1, omega), both in ``Quad``: the field
arithmetic that ``QuadIrrational`` carried before its values became
closed forms.  The seed oracles are the sampler's earlier
one-seed-at-a-time draws of torus and shell seeds.  The RL
reduction oracle is the earlier conjugator construction from products of
R^u and the determinant -1 swap iota on raw tuples; the monodromy and
cycle-dual oracles are the earlier three-factor product and the dual
built from the least of all rotations; ``block_key_canonical`` is the
earlier rotation rule that compared in full every rotation starting at a
block of least key.  The SNF certificate oracle is the earlier dense
check: U G V multiplied out in full, then one elimination each to show
|det U| = |det V| = 1; it reads the divisors and the dense
U and V, so it judges the views of an operation list as well.
``dense_smith`` is the earlier Smith normal form on dense lists, which
carried U and V along: the same pivot rule and operations, each one
scanning a full row or column, returning (divisors, U, V).
``dense_radical`` reads the columns of ``dense_smith``'s V whose divisor
is 0, so it shares no code with ``radical`` and ``SNFResult.v``, which
both read V from one backward replay.  The ``dense_*``
diagram builders are the earlier constructors of H, T(p,q,r) and
its Milnor lattices, each filling a dense matrix by hand from arm
offsets of its own, and ``column_monodromy_action`` is the earlier
monodromy, built image column by image column and then transposed, with
the S' basis indices derived again from p, q and r.  ``basis_changed`` is
the Gram matrix B^T G B of a change of basis, multiplied out in full.
``unimodular_indefinite_isomorphic`` is the library's earlier isomorphism
test for two indefinite unimodular lattices, which compares their rank,
inertia and parity, and refuses a lattice that is not unimodular
(``NotUnimodularError``) or is definite (``DefiniteLatticeError``).
The dense Berkowitz and dense elimination oracles are the exact kernels
before they used sparsity: full Krylov vectors, and every trailing row
rescaled at every step.
``general_eliminate`` is the sparse elimination as it ran on any square
matrix, with a row swap and a determinant sign for a skew block, and a
congruence pair m_ab + m_ba read off every row of the block.  The
cycle-product oracle multiplies one factor per entry, runs of twos
included.  The ``object_*`` oracles are the SL(2,Z) products as they ran
before they moved to integer tuples: the cycle matrix (a run of twos as
one factor), the RL word, powers by repeated squaring, the twist word as
powers of twist matrices and the Gauss reduction, each building one
SL2Matrix per factor through ``object_mul``, the entrywise product that
``SL2Matrix.__mul__`` had before it called the tuple kernel.  ``where_bump`` and ``where_bump_deriv`` evaluate the
transition polynomials on every entry and select with ``np.where``.  The
``separate_ft_*`` oracles are the deformed map and its Wirtinger
gradients as separate evaluations, each recomputing the radii, the bump
factors and the monomials; the radii, the ratios, the cross terms and
the derivative profile with its integral they use are the earlier
bodies, which selected columns and entries by mask and fancy index.
``separate_project_to_level`` is the Newton projection built on them,
and ``looped_draw_per_seed`` the sampler's per-seed generator calls
before they were replayed from raw words.  ``looped_defect_draws`` fills
the Lagrangian-defect seeds row by row, ``per_point_critical_reports``
builds each critical-point report from keywords and per-entry
conversions, ``stacked_real_jacobian`` interleaves the real Jacobian with
``np.stack``, ``built_hessian_model`` builds every matrix of the model on
each call, and ``triu_fd_hessian`` its index arrays.
``staged_verify_fibration`` is the fibration pipeline and its verdict as
the CLI ran them stage by stage before ``numcheck.verify_fibration``.
``two_pass_inose_classification`` is the earlier Inose boundary match: a
pass over the table triples for the inverse side and, only when nothing
matched there, a second pass for the direct side, building each
monodromy matrix again.
The ``Dataclass*`` classes are four value classes as they were declared
before ``tpqr.value_class`` replaced ``@dataclass(frozen=True)``: their
fields, defaults, validation and cached property.  ``DataclassQuadIrrational``
normalises in ``__post_init__`` as the constructor of ``QuadIrrational``
does, by a rule of its own: it writes the value over a square-free
radicand found by trial division, which gives the canonical form while
the discriminant of the value stays below 10^18, as it does for every
value the comparison draws.
``meyer_signature`` is the signature of the Lefschetz fibration of a twist
word from Meyer's cocycle alone, in rationals, with twists of its own: it
shares no code with ``quadlattice`` or ``sl2z``, so it can judge every
lattice built from a word.
``reflection_monodromy`` is the classical Milnor monodromy, a product of
Picard-Lefschetz reflections in the S basis: it shares nothing with
``milnorfiber`` beyond the Gram of ``t_tilde_lattice``, so it judges the
chain-shift picture of ``monodromy_action`` from outside.
``iterated_half_sphere_boundary_points`` is the domain audit's sphere
sampler before c had a closed form: three correction steps for the tiny
coordinate, which move no bit once the domain bound holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, groupby
from operator import mul
from typing import Iterator, Optional

import numpy as np
import pytest
from hypothesis import strategies as st

from tpqr import _check_triple, numcheck
from tpqr.cuspdual import CuspDualityError, CycleData, QuadIrrational, cf_value
from tpqr.k3glue import InoseClassification, inose_monodromy, strange_duality_table
from tpqr.numcheck import (
    _ALPHA,
    _CHART_ORDER,
    _PLATEAU,
    C3Point,
    FibrationParams,
    NumericalConfig,
    _axyz,
    _exponents,
    _monomials,
    _phi_parts,
    f_eval,
    point,
)
from tpqr.quadlattice import (
    GramLattice,
    LatticeError,
    _add,
    _eliminate,
    discriminant,
    parity,
    signature,
    t_tilde_lattice,
)
from tpqr.sl2z import (
    ALPHA,
    BETA,
    GAMMA,
    R,
    HomologyClass,
    MatrixClass,
    SL2Matrix,
    _floor_surd,
    classify,
    evaluate_word,
    is_conjugate,
    monodromy_matrix,
)

_I = SL2Matrix(1, 0, 0, 1)


@pytest.fixture(autouse=True)
def fresh_level_stack():
    """No level-set stack is kept from another test: numcheck keeps the
    last one by equal parameters and config, so a test that monkeypatches
    the seed functions would otherwise read the stack of the real seeds."""
    numcheck._level_stack.cache_clear()


def assert_same_bits(got, want, label=""):
    """Same type, dtype, shape and bytes.  Signed zeros must agree, and a
    NaN equals a NaN with the same bits, which np.array_equal denies."""
    assert type(got) is type(want), label
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, label
    assert got.tobytes() == want.tobytes(), label


def mat2(rows):
    (a, b), (c, d) = rows
    return SL2Matrix(a, b, c, d)


def fibration_word(p, q, r):
    """The twist word of the T_{p,q,r} fibration, beta^p gamma^q alpha^r
    with the leftmost letter acting last: one twist per critical point of
    each of the three families."""
    return [(BETA, p), (GAMMA, q), (ALPHA, r)]


def glued_word(pair):
    """W_L, then W_R with each class moved by P, where P M_R P^-1 = M_L^-1:
    a word of 24 twists around the two cusps of a duality pair whose
    product is I."""
    left, right = fibration_word(*pair.left), fibration_word(*pair.right)
    cert = is_conjugate(evaluate_word(right), evaluate_word(left).inverse())
    assert cert is not None, pair
    return left + [(HomologyClass(*cert.conjugator.apply((c.m, c.n))), e) for c, e in right]


def word_letters(word):
    """The classes of a twist word as (m, n) pairs, one per letter, in
    written order."""
    return [(c.m, c.n) for c, e in word for _ in range(e)]


def all_triples(limit, strict=None):
    """The triples p <= q <= r <= limit with 1/p + 1/q + 1/r <= 1: the
    cusp ones (sum < 1) for strict=True, the parabolic ones for False,
    both for None."""
    for p in range(2, limit + 1):
        for q in range(p, limit + 1):
            for r in range(q, limit + 1):
                s = Fraction(1, p) + Fraction(1, q) + Fraction(1, r)
                if s <= 1 and (strict is None or (s < 1) == strict):
                    yield p, q, r


def mat_mul(a, b):
    """Integer matrix product on nested sequences, as lists of lists."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def mul2(x, y):
    """Independent 2x2 integer product on row-pair tuples."""
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _meyer_tau(a, b):
    """Meyer's cocycle tau(A, B): the signature of the form
    (x1 + y1)^T J (I - B) y2, symmetrized, on the space V of (x, y) in
    Q^2 x Q^2 with (A^-1 - I) x + (B - I) y = 0.  J = (0 1; -1 0), so
    x^T J y is HomologyClass's pairing x1 y2 - x2 y1."""
    (p, q), (r, s) = a
    (e, f), (g, h) = b
    rows = [[Fraction(v) for v in row] for row in ((s - 1, -q, e - 1, f), (-r, p - 1, g, h - 1))]
    pivots = []  # Gauss-Jordan on the two rows; V has one vector per free column
    for col in range(4):
        k = len(pivots)
        i = next((i for i in range(k, 2) if rows[i][col]), None)
        if i is None:
            continue
        rows[k], rows[i] = rows[i], rows[k]
        rows[k] = [v / rows[k][col] for v in rows[k]]
        rows[1 - k] = [u - rows[1 - k][col] * v for u, v in zip(rows[1 - k], rows[k])]
        pivots.append(col)
    basis = []  # each vector scaled to integers, which keeps the signature
    for free in (col for col in range(4) if col not in pivots):
        v = [Fraction(col == free) for col in range(4)]
        for k, col in enumerate(pivots):
            v[col] = -rows[k][free]
        scale = math.lcm(*(x.denominator for x in v))
        basis.append([int(x * scale) for x in v])

    def form(v, w):
        z1, z2 = (1 - e) * w[2] - f * w[3], -g * w[2] + (1 - h) * w[3]  # (I - B) y2
        return (v[0] + v[2]) * z2 - (v[1] + v[3]) * z1

    pos, _, neg = congruence_sig([[Fraction(form(v, w) + form(w, v)) for w in basis] for v in basis])
    return pos - neg


def meyer_signature(classes):
    """The signature of the Lefschetz fibration over D^2 whose vanishing
    cycles are ``classes``, (m, n) pairs in written order, from Meyer's
    cocycle alone: with T_j the twist I + N, N = (mn -m^2; n^2 -mn), along
    the j-th class, P_1 = T_0 and P_{j+1} = P_j T_j (the order in which
    evaluate_word multiplies), it is the sum of tau(P_j, T_j) for
    j = 1 .. n-1.  A nodal fiber's neighbourhood has signature 0, so by
    Novikov additivity nothing else contributes.  Of the four order and
    sign conventions this is the one the tests fix: the reversed order
    and the negated sum match no triple's lattice."""
    twists = [((1 + m * n, -m * m), (n * n, 1 - m * n)) for m, n in classes]
    total, prod = 0, twists[0]
    for t in twists[1:]:
        total += _meyer_tau(prod, t)
        prod = mul2(prod, t)
    return total


def brute_conjugator(m: SL2Matrix, n: SL2Matrix, bound: int = 20):
    """Search P with entries in [-bound, bound], det 1, P m P^-1 = n."""
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                num = 1 + b * c
                if a != 0:
                    if num % a:
                        continue
                    d = num // a
                    if abs(d) > bound:
                        continue
                    p = SL2Matrix(a, b, c, d)
                    if p * m == n * p:
                        return p
                elif num == 0:
                    for d in rng:
                        p = SL2Matrix(0, b, c, d)
                        if p * m == n * p:
                            return p
    return None


def _parabolic_normal_form(m: SL2Matrix) -> tuple[int, SL2Matrix]:
    """For trace-2 m != I: returns (k, P) with P^{-1} m P = (1 k; 0 1)."""
    if m.c != 0:
        v1, v2 = m.d - 1, -m.c
        if v1 == 0 and v2 == 0:  # pragma: no cover
            raise AssertionError("not parabolic")
        g = math.gcd(abs(v1), abs(v2))
        v1, v2 = v1 // g, v2 // g
    else:
        v1, v2 = 1, 0
    # complete (v1,v2) to a determinant-1 basis
    g, w2, w1 = _xgcd(v1, v2)
    assert g == 1
    w1 = -w1
    p = SL2Matrix(v1, w1, v2, w2)
    t = p.inverse() * m * p
    assert (t.a, t.c, t.d) == (1, 0, 1)
    return t.b, p


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _conjugate_parabolic(m: SL2Matrix, n: SL2Matrix) -> Optional[SL2Matrix]:
    sign = 1 if m.trace == 2 else -1
    m1 = m if sign == 1 else -m
    n1 = n if sign == 1 else -n
    km, pm = _parabolic_normal_form(m1)
    kn, pn = _parabolic_normal_form(n1)
    if km != kn:
        return None
    return pn * pm.inverse()


def _elliptic_reduce(m: SL2Matrix) -> tuple[SL2Matrix, SL2Matrix]:
    """Conjugate an elliptic m so its fixed point lies in the fundamental
    domain; returns (reduced, U) with U m U^{-1} = reduced."""
    t = m.trace
    assert m.c != 0
    re = Fraction(m.a - m.d, 2 * m.c)
    im2 = Fraction(4 - t * t, 4 * m.c * m.c)
    u = _I
    cur = m
    s_mat = SL2Matrix(0, -1, 1, 0)
    while True:
        shift = (re + Fraction(1, 2)).__floor__()
        if shift:
            rs = R ** (-shift)
            cur = cur.conjugate_by(rs)
            u = rs * u
            re -= shift
        if re * re + im2 < 1:
            cur = cur.conjugate_by(s_mat)
            u = s_mat * u
            norm = re * re + im2
            re, im2 = -re / norm, im2 / (norm * norm)
        else:
            return cur, u


def _conjugate_elliptic(m: SL2Matrix, n: SL2Matrix) -> Optional[SL2Matrix]:
    rm, um = _elliptic_reduce(m)
    rn, un = _elliptic_reduce(n)
    # reduced fixed points lie in the fundamental domain, so any remaining
    # conjugator has tiny entries
    for p in _small_matrices(3):
        if rm.conjugate_by(p) == rn:
            return un.inverse() * p * um
    return None


def _small_matrices(bound: int) -> Iterator[SL2Matrix]:
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                num = 1 + b * c
                if a != 0:
                    if num % a == 0 and abs(num // a) <= bound:
                        yield SL2Matrix(a, b, c, num // a)
                elif num == 0:
                    for dd in rng:
                        yield SL2Matrix(0, b, c, dd)


def normal_form_conjugator(m: SL2Matrix, n: SL2Matrix) -> Optional[SL2Matrix]:
    """P with P m P^-1 = n for |trace| <= 2, or None: +-I by equality,
    parabolic matrices by their extended-gcd normal form (1 k; 0 1) and
    elliptic ones by a walk of the fixed point into the fundamental domain
    and a search over small conjugators."""
    if m.trace != n.trace:
        return None
    cm = classify(m)
    if cm is not classify(n):
        return None
    if cm in (MatrixClass.IDENTITY, MatrixClass.MINUS_IDENTITY):
        return _I if m == n else None
    if cm is MatrixClass.PARABOLIC:
        return _conjugate_parabolic(m, n)
    return _conjugate_elliptic(m, n)


class Quad(QuadIrrational):
    """QuadIrrational with exact field arithmetic.

    Above 10^18 the radicand d of a value is its discriminant, so two
    values of one field can carry radicands that differ by a square
    factor; each operation first writes both operands over the gcd of
    their radicands (the smaller one when it divides the other)."""

    @classmethod
    def of(cls, x) -> "Quad":
        if isinstance(x, QuadIrrational):
            return cls(x.a, x.b, x.c, x.d)
        if isinstance(x, (int, Fraction)):
            return cls.rational(x)
        raise TypeError(f"cannot coerce {x!r}")

    @classmethod
    def rational(cls, x: Fraction | int) -> "Quad":
        x = Fraction(x)
        return cls(x.numerator, 0, x.denominator, 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadIrrational):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    __hash__ = QuadIrrational.__hash__

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def conjugate(self) -> "Quad":
        return Quad(self.a, -self.b, self.c, self.d)

    def over(self, d: int) -> tuple[int, int, int]:
        """(a, b, c) with self = (a + b*sqrt(d)) / c."""
        if self.b == 0:
            return self.a, 0, self.c
        k = math.isqrt(self.d // d)
        if self.d != d * k * k:
            raise ValueError(f"incompatible fields sqrt({self.d}) vs sqrt({d})")
        return self.a, self.b * k, self.c

    def common(self, other):
        """Both operands written over one radicand: ((a, b, c), (a, b, c), d)."""
        other = Quad.of(other)
        d = math.gcd(*(x.d for x in (self, other) if x.b)) or 1
        return self.over(d), other.over(d), d

    def __add__(self, other) -> "Quad":
        (a1, b1, c1), (a2, b2, c2), d = self.common(other)
        return Quad(a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, c1 * c2, d)

    def __neg__(self) -> "Quad":
        return Quad(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other) -> "Quad":
        return self + (-Quad.of(other))

    def __mul__(self, other) -> "Quad":
        (a1, b1, c1), (a2, b2, c2), d = self.common(other)
        return Quad(a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2, c1 * c2, d)

    def inverse(self) -> "Quad":
        # 1/((a+b sqrt d)/c) = c(a - b sqrt d)/(a^2 - b^2 d)
        norm_num = self.a * self.a - self.b * self.b * self.d
        if norm_num == 0:
            raise ZeroDivisionError("inverse of zero")
        return Quad(self.c * self.a, -self.c * self.b, norm_num, self.d)

    def __truediv__(self, other) -> "Quad":
        return self * Quad.of(other).inverse()

    def norm(self) -> Fraction:
        return Fraction(self.a * self.a - self.b * self.b * self.d, self.c * self.c)

    def trace(self) -> Fraction:
        return Fraction(2 * self.a, self.c)

    def compare(self, other) -> int:
        """Exact sign of self - other."""
        diff = self - other
        if diff.b == 0:
            return (diff.a > 0) - (diff.a < 0)
        # sign of a + b*sqrt(d)
        if diff.a >= 0 and diff.b > 0:
            return 1
        if diff.a <= 0 and diff.b < 0:
            return -1
        lhs, rhs = diff.a * diff.a, diff.b * diff.b * diff.d
        if diff.a > 0:  # b < 0
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def __gt__(self, other) -> bool:
        return self.compare(other) > 0

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0


def rotation_alpha_v(cycle: CycleData) -> Quad:
    """Product of cf_value over all cyclic rotations of the cycle: the
    totally positive unit generating the automorphism group of the cusp."""
    out = Quad.rational(1)
    for rot in cycle.rotations():
        out = out * cf_value(CycleData(rot))
    return out


def basis_solve_action(cycle: CycleData) -> SL2Matrix:
    """Matrix of multiplication by the unit on Z + Z*omega in the basis
    (1, omega), rows = images, solved over the rationals."""
    omega = Quad.of(cf_value(cycle))
    alpha = rotation_alpha_v(cycle)
    s, t = in_module_basis(alpha, omega)
    u, v = in_module_basis(alpha * omega, omega)
    return SL2Matrix(s, t, u, v)


def in_module_basis(x: Quad, omega: Quad) -> tuple[int, int]:
    """Integer coordinates (s, t) with x = s + t*omega, or error."""
    if omega.is_rational:  # pragma: no cover
        raise CuspDualityError("module basis degenerate")
    (xa, xb, xc), (wa, wb, wc), _ = x.common(omega)
    t = Fraction(xb, xc) / Fraction(wb, wc)
    s = Fraction(xa, xc) - t * Fraction(wa, wc)
    if t.denominator != 1 or s.denominator != 1:
        raise CuspDualityError(
            f"{x} does not lie in Z + Z*({omega}): module not preserved"
        )
    return int(s), int(t)


_IOTA = (0, 1, 1, 0)  # t -> 1/t, determinant -1; kept out of SL2Matrix


def _raw_mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _raw_rpow(n):
    return (1, n, 0, 1)


def power_word_matrix(exps) -> SL2Matrix:
    """R^{e1} L^{e2} R^{e3} ... by repeated squaring of R and L."""
    r, l = SL2Matrix(1, 1, 0, 1), SL2Matrix(1, 0, 1, 1)
    out = SL2Matrix(1, 0, 0, 1)
    for i, e in enumerate(exps):
        out = out * ((r if i % 2 == 0 else l) ** e)
    return out


def preperiod_rl_reduce(m: SL2Matrix):
    """(exps, P, odd) with P * m * P^{-1} = R^{e1} L^{e2} ...; odd tells
    whether the pre-period of the continued fraction has odd length."""
    t = m.trace
    d = t * t - 4
    sd = math.isqrt(d)
    p_st, q_st = m.a - m.d, 2 * m.c
    states: dict = {}
    quotients: list[int] = []
    while (p_st, q_st) not in states:
        states[(p_st, q_st)] = len(quotients)
        u = _floor_surd(p_st, q_st, sd)
        quotients.append(u)
        p_next = u * q_st - p_st
        q_next = (d - p_next * p_next) // q_st
        p_st, q_st = p_next, q_next
    i0 = states[(p_st, q_st)]
    period = quotients[i0:]
    if len(period) % 2 == 1:
        period = period + period
    w0 = power_word_matrix(period)
    w, k = w0, 1
    while w.trace < t:
        w = w * w0
        k += 1
    exps = tuple(period) * k

    # conjugator from the pre-period: x0 = G(x_reduced), G = prod R^{u_i} iota
    g = (1, 0, 0, 1)
    for u in quotients[:i0]:
        g = _raw_mul(_raw_mul(g, _raw_rpow(u)), _IOTA)
    det_g = g[0] * g[3] - g[1] * g[2]
    if det_g == -1:
        g = _raw_mul(g, _IOTA)
    gm = SL2Matrix(*g)
    conj = gm.inverse()
    if det_g == -1:
        # conj*m*conj^-1 is the R<->L swapped word starting with L^{e1};
        # rotate that first block to the back.
        e1 = exps[0]
        exps = exps[1:] + (e1,)
        conj = (SL2Matrix(1, 0, 1, 1) ** (-e1)) * conj
    return exps, conj, det_g == -1


def entrywise_cycle_matrix(entries) -> SL2Matrix:
    out = SL2Matrix(1, 0, 0, 1)
    for c in entries:
        out = out * SL2Matrix(c, -1, 1, 0)
    return out


def object_mul(x: SL2Matrix, y: SL2Matrix) -> SL2Matrix:
    """x * y entry by entry, into a new SL2Matrix."""
    return SL2Matrix(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def object_cycle_matrix(entries) -> SL2Matrix:
    """The cycle product one SL2Matrix per factor, a run of twos included."""
    out = _I
    for c, run in groupby(entries):
        if c == 2:
            z = sum(1 for _ in run)
            out = object_mul(out, SL2Matrix(z + 1, -z, z, 1 - z))
        else:
            for _ in run:
                out = object_mul(out, SL2Matrix(c, -1, 1, 0))
    return out


def object_word_matrix(exps) -> SL2Matrix:
    """R^{e1} L^{e2} ... one SL2Matrix per factor."""
    out = _I
    for i, e in enumerate(exps):
        out = object_mul(out, SL2Matrix(1, e, 0, 1) if i % 2 == 0 else SL2Matrix(1, 0, e, 1))
    return out


def same_rl_word(v, w) -> bool:
    """Equal signs, and w's exponents are v's rotated by whole R^a L^b blocks."""
    e = v.exponents
    return v.sign == w.sign and w.exponents in {e[k:] + e[:k] for k in range(0, len(e), 2)}


def object_power(m: SL2Matrix, n: int) -> SL2Matrix:
    """m^n by repeated squaring of SL2Matrix objects."""
    if n < 0:
        return object_power(m.inverse(), -n)
    out = _I
    while n:
        if n & 1:
            out = object_mul(out, m)
        m = object_mul(m, m)
        n >>= 1
    return out


def object_dehn_twist(c) -> SL2Matrix:
    e1 = (1 + c.n * c.m, c.n * c.n)  # image of (1,0); <(1,0),c> = n
    e2 = (-c.m * c.m, 1 - c.m * c.n)  # image of (0,1); <(0,1),c> = -m
    return SL2Matrix(e1[0], e2[0], e1[1], e2[1])


def object_evaluate_word(word) -> SL2Matrix:
    """The twist word as a product of powers of twist matrices."""
    out = _I
    for c, e in word:
        out = object_mul(out, object_power(object_dehn_twist(c), e))
    return out


def object_reduce(m: SL2Matrix) -> tuple[SL2Matrix, SL2Matrix]:
    """Gauss reduction of |trace| <= 2 conjugating SL2Matrix objects."""

    def conjugate(x, p):
        return object_mul(object_mul(p, x), p.inverse())

    s = SL2Matrix(0, -1, 1, 0)
    cur, p = m, _I
    while cur.c:
        span = abs(cur.c)
        k = -((cur.a - cur.d + span) // (2 * span))
        shift = SL2Matrix(1, k if cur.c > 0 else -k, 0, 1)
        cur, p = conjugate(cur, shift), object_mul(shift, p)
        if abs(cur.b) >= span:
            break
        cur, p = conjugate(cur, s), object_mul(s, p)
    return cur, p


def three_factor_monodromy(p: int, q: int, r: int) -> SL2Matrix:
    def factor(n):
        return SL2Matrix(n - 1, -1, 1, 0)

    return factor(r) * factor(q) * factor(p)


def two_pass_inose_classification(case, gamma=GAMMA) -> Optional[InoseClassification]:
    """Match the boundary monodromy against the fourteen table triples,
    the inverse side in a first pass and the direct side in a second."""
    m = inose_monodromy(case, gamma)
    table = strange_duality_table()
    triples = sorted({pair.left for pair in table} | {pair.right for pair in table})
    for prefer in ("inverse", "direct"):
        matches = []
        for t in triples:
            a = monodromy_matrix(*t)
            cert = is_conjugate(m, a.inverse() if prefer == "inverse" else a)
            if cert is not None:
                other = is_conjugate(m, a if prefer == "inverse" else a.inverse())
                side = "both" if other is not None else prefer
                matches.append((t, side, cert))
        if len(matches) == 1:
            return InoseClassification(*matches[0])
        if len(matches) > 1:
            raise AssertionError(f"ambiguous classification: {matches}")
    return None


def all_rotations_canonical(cycle: CycleData) -> CycleData:
    """The earlier ``CycleData.canonical``: the least of all rotations that
    start at an entry >= 3, each copied in full."""
    e = cycle.entries
    return CycleData(min(e[i:] + e[:i] for i, c in enumerate(e) if c >= 3))


def block_key_canonical(cycle: CycleData) -> CycleData:
    """The earlier ``CycleData.canonical``: of the rotations that start
    at a block of least key (gamma, s - t), the least, each copied in
    full, so a cycle with many tied blocks costs quadratic time."""
    e = cycle.entries
    starts = [i for i, c in enumerate(e) if c >= 3]
    keys = [(e[s], s - t) for s, t in zip(starts, starts[1:] + [starts[0] + len(e)])]
    least = min(keys)
    return CycleData(min(e[s:] + e[:s] for s, key in zip(starts, keys) if key == least))


def rotation_dual_cycle(cycle: CycleData) -> CycleData:
    """Run-length dual read off the least of all rotations that start at an
    entry >= 3."""
    c = all_rotations_canonical(cycle).entries
    gammas: list[int] = []
    runs: list[int] = []
    i = 0
    while i < len(c):
        gammas.append(c[i])
        i += 1
        z = 0
        while i < len(c) and c[i] == 2:
            z += 1
            i += 1
        runs.append(z)
    reversed_dual: list[int] = []
    for gamma, z in zip(gammas, runs):
        reversed_dual += [2] * (gamma - 3)
        reversed_dual.append(z + 3)
    return CycleData(tuple(reversed(reversed_dual)))


def bareiss_det(m: list[list[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def dense_eliminate(rows) -> tuple[int, tuple[int, int, int]]:
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


def dense_lazy_eliminate(rows) -> tuple[int, tuple[int, int, int]]:
    """The elimination of quadlattice before it moved to sparse rows: the
    same pivot order and the same lazy rescaling of rows whose multiplier
    is zero (``base``), on dense rows."""
    m = [list(row) for row in rows]
    n = len(m)
    base = [1] * n  # row i holds its up-to-date entries times base[i] / prev
    sign, prev, pos, neg = 1, 1, 0, 0

    def current(i: int, k: int) -> None:
        if base[i] != prev:
            m[i][k:] = [x * prev // base[i] for x in m[i][k:]]
            base[i] = prev

    for k in range(n):
        d = next((i for i in range(k, n) if m[i][i]), None)
        if d is None:
            for i in range(k, n):
                current(i, k)
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
            m[k], m[i], base[k], base[i] = m[i], m[k], base[i], base[k]
            sign = -sign
        elif d != k:
            m[k], m[d], base[k], base[d] = m[d], m[k], base[d], base[k]
            for row in m:
                row[k], row[d] = row[d], row[k]
        current(k, k)
        piv, pivot_row = m[k][k], m[k]
        if (piv > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if m[i][k]:
                current(i, k)
                row, f = m[i], m[i][k]
                row[k + 1 :] = [
                    (x * piv - f * y) // prev
                    for x, y in zip(row[k + 1 :], pivot_row[k + 1 :])
                ]
                base[i] = piv
        prev = piv
    return sign * prev, (pos, 0, neg)


def general_eliminate(rows) -> tuple[int, tuple[int, int, int]]:
    """quadlattice's elimination before it took symmetric input only: the
    determinant and, for symmetric input, inertia (n+, n0, n-) of a
    square integer matrix given as a sequence of rows (left unchanged), by
    one fraction-free elimination on sparse rows {column: entry}.

    Bareiss updates divided by the previous pivot keep every entry an
    integer minor; the trailing block is the previous pivot times the Schur
    complement, so the sign of pivot/previous pivot is one term of the
    inertia.  A zero pivot is replaced, in order of preference, by a
    symmetric swap with a nonzero diagonal entry, by the unimodular
    congruence v_a += v_b when m_ab + m_ba != 0, or by a row swap; the last
    only happens once the remaining block is skew, so never for symmetric
    input, and the inertia is then meaningless.  A row update reads the
    nonzeros of the row and of the pivot row, and drops column k.  A row
    whose multiplier is 0 would only be scaled by pivot/previous pivot, so
    it is left as it is; it keeps the pivot of its last update in ``base``
    and is brought up to date, by an exact division, only when it is read
    across rows."""
    m = [dict(compress(enumerate(row), row)) for row in rows]
    n = len(m)
    base = [1] * n  # row i holds its up-to-date entries times base[i] / prev
    sign, prev, pos, neg = 1, 1, 0, 0

    def current(i: int) -> dict:
        if base[i] != prev:
            m[i] = {j: x * prev // base[i] for j, x in m[i].items()}
            base[i] = prev
        return m[i]

    for k in range(n):
        d = k if k in m[k] else next((i for i in range(k + 1, n) if i in m[i]), None)
        if d is None:
            for i in range(k, n):
                current(i)
            d, b = next(
                ((a, b) for a in range(k, n) for b in range(a + 1, n)
                 if m[a].get(b, 0) + m[b].get(a, 0)),
                (None, None),
            )
            if d is not None:
                _add(m[d], m[b], 1)
                for row in m[k:]:
                    if b in row:
                        _add(row, {d: row[b]}, 1)
        if d is None:
            i = next((i for i in range(k + 1, n) if k in m[i]), None)
            if i is None:
                return 0, (pos, n - k, neg)
            m[k], m[i], base[k], base[i] = m[i], m[k], base[i], base[k]
            sign = -sign
        elif d != k:
            m[k], m[d], base[k], base[d] = m[d], m[k], base[d], base[k]
            for row in m[k:]:
                x, y = row.pop(k, 0), row.pop(d, 0)
                row.update((c, z) for c, z in ((d, x), (k, y)) if z)
        tail = current(k)  # row k is not read again
        piv = tail.pop(k)
        if (piv > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if k in m[i]:
                row = current(i)
                f = row.pop(k)
                new = {j: x * piv // prev for j, x in row.items()}  # exact off the tail
                for j, y in tail.items():
                    x = (row.get(j, 0) * piv - f * y) // prev
                    if x:
                        new[j] = x
                    else:  # so j is in row, as f * y != 0
                        del new[j]
                m[i], base[i] = new, piv
        prev = piv
    return sign * prev, (pos, 0, neg)


def dense_snf_verify(fields, lat: GramLattice) -> bool:
    """``fields`` = (divisors, U, V), dense: U G V = diag(divisors)
    multiplied out in full, a chain of non-negative divisors, and
    |det U| = |det V| = 1 by one elimination each."""
    divisors, u, v = fields
    n = lat.rank
    ugv = mat_mul(mat_mul(u, lat.gram), v)
    for i in range(n):
        for j in range(n):
            if ugv[i][j] != (divisors[i] if i == j else 0):
                return False
    nz = [d for d in divisors if d]
    if any(b % a for a, b in zip(nz, nz[1:])):
        return False
    if any(d < 0 for d in divisors):
        return False
    return all(abs(general_eliminate(t)[0]) == 1 for t in (u, v))


def dense_smith(lat: GramLattice) -> tuple:
    """(divisors, U, V) as plain tuples."""
    n = lat.rank
    m = [list(row) for row in lat.gram]
    u, v = ([[int(i == j) for j in range(n)] for i in range(n)] for _ in range(2))

    def row_op(i, j, f):  # row_i -= f * row_j
        if not f:
            return
        for t in (m, u):
            t[i] = [x - f * y for x, y in zip(t[i], t[j])]

    def col_op(i, j, f):  # col_i -= f * col_j
        if not f:
            return
        for t in (m, v):
            for row in t:
                if row[j]:
                    row[i] -= f * row[j]

    def row_swap(i, j):
        for t in (m, u):
            t[i], t[j] = t[j], t[i]

    def col_swap(i, j):
        for t in (m, v):
            for row in t:
                row[i], row[j] = row[j], row[i]

    for s in range(n):
        while True:
            best, least = None, 0
            for i in range(s, n):
                row = m[i]
                for j in range(s, n):
                    x = abs(row[j])
                    if x and (best is None or x < least):
                        best, least = (i, j), x
                        if x == 1:
                            break
                if least == 1:
                    break
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
            bad = None if abs(piv) == 1 else next(
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
        if m[s][s] < 0:
            m[s] = [-x for x in m[s]]
            u[s] = [-x for x in u[s]]

    return tuple(m[i][i] for i in range(n)), *(tuple(map(tuple, t)) for t in (u, v))


def dense_radical(lat: GramLattice) -> list[tuple[int, ...]]:
    divisors, _, v = dense_smith(lat)
    return [tuple(row[j] for row in v) for j, dj in enumerate(divisors) if dj == 0]


def sparse_rows(rows) -> list[dict[int, int]]:
    """The rows of a matrix as {column: entry} without zeros, the form
    that ``_eliminate`` reads."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def dense_star_rows(p: int, q: int, r: int) -> list[list[int]]:
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


def dense_star_labels(p: int, q: int, r: int) -> list[str]:
    labels = []
    for m, arm in ((1, p - 1), (2, q - 1), (3, r - 1)):
        labels += [f"s{m}_{j}" for j in range(1, arm + 1)]
    return labels + ["s+"]


def dense_hyperbolic_plane() -> GramLattice:
    return GramLattice(["e", "f"], [[0, 1], [1, 0]])


def dense_t_lattice(p: int, q: int, r: int) -> GramLattice:
    if min(p, q, r) < 2:
        raise LatticeError("t_lattice needs p,q,r >= 2")
    return GramLattice(dense_star_labels(p, q, r), dense_star_rows(p, q, r))


def dense_t_tilde_lattice(p: int, q: int, r: int, generator: str = "S'") -> GramLattice:
    _check_triple((p, q, r), LatticeError, 0)
    star = dense_star_rows(p, q, r)
    n = len(star) + 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(n - 1):
            rows[i][j] = star[i][j]
    labels = dense_star_labels(p, q, r)
    if generator == "S'":
        return GramLattice(labels + ["t2"], rows)
    if generator == "S":
        last = n - 1
        for i in range(n - 2):
            rows[i][last] = rows[last][i] = star[i][n - 2]
        rows[last][last] = -2
        rows[n - 2][last] = rows[last][n - 2] = -2
        return GramLattice(labels + ["s-"], rows)
    raise LatticeError(f"unknown generator tag {generator!r}")


def basis_changed(lat: GramLattice, b: list[list[int]]) -> GramLattice:
    """Gram matrix B^T G B for the new basis given by the columns of B."""
    r = range(lat.rank)
    gb = [[sum(lat.gram[i][k] * b[k][j] for k in r) for j in r] for i in r]
    new = [[sum(b[k][i] * gb[k][j] for k in r) for j in r] for i in r]
    return GramLattice(lat.labels, new)


class NotUnimodularError(LatticeError):
    pass


class DefiniteLatticeError(LatticeError):
    pass


def unimodular_indefinite_isomorphic(l1: GramLattice, l2: GramLattice) -> bool:
    """Isomorphism test valid for indefinite unimodular lattices: rank,
    signature and parity decide."""
    sigs = []
    for lat in (l1, l2):
        sig = signature(lat)
        if abs(discriminant(lat)) != 1:
            raise NotUnimodularError(f"|det| != 1 for lattice of rank {lat.rank}")
        if sig[0] == 0 or sig[2] == 0:
            raise DefiniteLatticeError("definite lattice outside the test's scope")
        sigs.append(sig)
    return l1.rank == l2.rank and sigs[0] == sigs[1] and parity(l1) == parity(l2)


def column_monodromy_action(p: int, q: int, r: int) -> tuple[tuple[int, ...], ...]:
    _check_triple((p, q, r), LatticeError, 0)
    arms = (p - 1, q - 1, r - 1)
    n = sum(arms) + 2
    t2 = n - 1
    plus = n - 2

    def arm_indices(m):
        start = sum(arms[: m - 1])
        return list(range(start, start + arms[m - 1]))

    cols: list[list[int]] = []
    for m in (1, 2, 3):
        idx = arm_indices(m)
        for pos, i in enumerate(idx):
            col = [0] * n
            if pos + 1 < len(idx):
                col[idx[pos + 1]] = 1
            else:
                col[t2] = 1
                for j in idx:
                    col[j] -= 1
            cols.append(col)
    col_plus = [0] * n
    col_plus[plus] = 1
    for m in (1, 2, 3):
        col_plus[arm_indices(m)[0]] += 1
    col_plus[t2] -= 1
    cols.append(col_plus)
    col_t2 = [0] * n
    col_t2[t2] = 1
    cols.append(col_t2)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def reflection_monodromy(p: int, q: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The Milnor monodromy as a product of Picard-Lefschetz reflections
    s_v(x) = x + <x, v> v on the S basis of ``t_tilde_lattice(p, q, r,
    "S")``, read from its labels and Gram alone, the first listed acting
    first: each arm from its outer sphere inward (arms 1, 2, 3), then s-,
    then s+.  The product C, columns as images, is returned in S'
    coordinates as B C B, where the involution B takes S' coordinates to S
    ones (t2 = s+ - s-)."""
    lat = t_tilde_lattice(p, q, r, "S")
    gram, index = lat.gram, {label: i for i, label in enumerate(lat.labels)}
    order = [index[f"s{m}_{j}"] for m, k in ((1, p), (2, q), (3, r)) for j in range(k - 1, 0, -1)]
    c = [[int(i == j) for j in range(len(gram))] for i in range(len(gram))]
    for v in order + [index["s-"], index["s+"]]:
        gain = [0] * len(gram)  # the row vector <., v> of C: s_v adds it to row v
        for k, g in enumerate(gram[v]):
            if g:
                gain = [x + g * y for x, y in zip(gain, c[k])]
        c[v] = [x + y for x, y in zip(c[v], gain)]
    plus, minus = index["s+"], index["s-"]
    c[plus] = [x + y for x, y in zip(c[plus], c[minus])]
    c[minus] = [-y for y in c[minus]]
    for row in c:
        row[minus] = row[plus] - row[minus]
    return tuple(map(tuple, c))


def congruence_sig(g: list[list[Fraction]]) -> tuple[int, int, int]:
    n = len(g)
    if n == 0:
        return (0, 0, 0)
    i = next((i for i in range(n) if g[i][i] != 0), None)
    if i is not None:
        piv = g[i][i]
        rest = [k for k in range(n) if k != i]
        sub = [
            [g[k][l] - g[k][i] * g[i][l] / piv for l in rest]
            for k in rest
        ]
        pos, zero, neg = congruence_sig(sub)
        return (pos + 1, zero, neg) if piv > 0 else (pos, zero, neg + 1)
    pair = next(
        ((a, b) for a in range(n) for b in range(a + 1, n) if g[a][b] != 0), None
    )
    if pair is None:
        return (0, n, 0)
    i, j = pair
    c = g[i][j]
    rest = [k for k in range(n) if k not in (i, j)]
    # w_k = v_k - (g[k][j]/c) v_i - (g[k][i]/c) v_j kills both pairings;
    # since w_k is orthogonal to v_i, v_j, w_k.w_l = w_k.v_l.
    lam = {k: -g[k][j] / c for k in rest}
    mu = {k: -g[k][i] / c for k in rest}
    sub = [
        [g[k][l] + lam[k] * g[i][l] + mu[k] * g[j][l] for l in rest]
        for k in rest
    ]
    pos, zero, neg = congruence_sig(sub)
    # the (v_i, v_j) block is (0 c; c 0): one plus, one minus
    return (pos + 1, zero, neg + 1)


def dense_berkowitz(m) -> tuple[int, ...]:
    poly = [1]  # highest degree first
    for k in range(len(m)):
        block = [row[:k] for row in m[:k]]
        r, c = m[k][:k], [row[k] for row in m[:k]]
        toeplitz = [1, -m[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(map(mul, r, c)))
            c = [sum(map(mul, row, c)) for row in block]
        poly = [sum(map(mul, toeplitz[i::-1], poly)) for i in range(k + 2)]
    return tuple(reversed(poly))


def interpolated_char_poly(m) -> tuple[int, ...]:
    """Coefficients (c_0, ..., c_n) of det(x*I - M), exact.

    Evaluated at n+1 integer points by fraction-free elimination and
    interpolated back; coefficients of an integer matrix are integers.
    """
    n = len(m)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        rows = [
            [(x if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)
        ]
        ys.append(bareiss_det(rows))
    # Lagrange interpolation with exact rationals
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        poly = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(poly) + 1)
            for k, c in enumerate(poly):
                new[k] -= c * xj
                new[k + 1] += c
            poly = new
        scale = Fraction(yi) / denom
        for k, c in enumerate(poly):
            coeffs[k] += c * scale
    out = []
    for c in coeffs:
        if c.denominator != 1:  # pragma: no cover - integrality guard
            raise AssertionError("non-integer characteristic coefficient")
        out.append(int(c))
    return tuple(out)


def _torus_seed(params: FibrationParams, rng: np.random.Generator) -> C3Point:
    c = params.a ** (-2.0 / 3.0)
    ph1, ph2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    ph3 = params.theta - ph1 - ph2
    return point(c * np.exp(1j * ph1), c * np.exp(1j * ph2), c * np.exp(1j * ph3))


def _shell_seed(
    params: FibrationParams, crit: C3Point, rng: np.random.Generator
) -> C3Point:
    """Point near a critical point, transverse radius covering the bump
    transition region."""
    axis = int(np.argmax(np.abs(crit)))
    scale = abs(crit[axis])
    eta = rng.uniform(0.02, 0.48)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
    split = rng.uniform(0.0, math.pi / 2.0)
    others = [k for k in (0, 1, 2) if k != axis]
    coords = [0j, 0j, 0j]
    coords[axis] = crit[axis] * (1.0 + rng.uniform(-0.05, 0.05))
    coords[others[0]] = eta * scale * math.cos(split) * np.exp(1j * phases[0])
    coords[others[1]] = eta * scale * math.sin(split) * np.exp(1j * phases[1])
    return point(*coords)


def _smoothstep(t):
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_integral(t):
    return t * t * t * t * (2.5 + t * (-3.0 + t))


def _profile(u):
    """Derivative profile of the transition, for u in [0, 1]."""
    return _PLATEAU * np.where(
        u < _ALPHA,
        _smoothstep(u / _ALPHA),
        np.where(u > 1.0 - _ALPHA, _smoothstep((1.0 - u) / _ALPHA), 1.0),
    )


def _profile_integral(u):
    """Integral of the profile from 0 to u, for u in [0, 1]."""
    ramp_in = _PLATEAU * _ALPHA * _smoothstep_integral(u / _ALPHA)
    plateau = _PLATEAU * (_ALPHA / 2.0 + (u - _ALPHA))
    ramp_out = 1.0 - _PLATEAU * _ALPHA * _smoothstep_integral((1.0 - u) / _ALPHA)
    return np.where(u < _ALPHA, ramp_in, np.where(u <= 1.0 - _ALPHA, plateau, ramp_out))


def _where_transition(s):
    """The argument as an array, checked, and its position in [0, 1]
    across the transition interval [1/6, 1/2]."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("bump argument must be >= 0")
    return s, np.clip(3.0 * (np.minimum(s, 0.5) - 1.0 / 6.0), 0.0, 1.0)


def where_bump(s):
    """1 on [0, 1/6], 0 on [1/2, inf], monotone C^2 in between."""
    s, u = _where_transition(s)
    return np.where(
        s <= 1.0 / 6.0, 1.0, np.where(s >= 0.5, 0.0, 1.0 - _profile_integral(u))
    )[()]


def where_bump_deriv(s):
    s, u = _where_transition(s)
    return np.where((s <= 1.0 / 6.0) | (s >= 0.5), 0.0, -3.0 * _profile(u))[()]


def _radii(pt: C3Point) -> tuple[np.ndarray, np.ndarray]:
    """|u_j| and the transverse radius |(u_{j+1}, u_{j+2})| for each axis j."""
    mod = np.abs(pt)
    if np.any(np.all(mod == 0.0, axis=-1)):
        raise ValueError("bump factors are undefined at the origin")
    return mod, np.hypot(mod[..., _CHART_ORDER[:, 1]], mod[..., _CHART_ORDER[:, 2]])


def _ratios(pt: C3Point) -> np.ndarray:
    """Transverse radius over |u_j| for each axis j; inf where u_j = 0."""
    mod, rho = _radii(pt)
    with np.errstate(divide="ignore", over="ignore"):
        return rho / mod


def _cross_terms(params: FibrationParams, pt: C3Point) -> np.ndarray:
    """a*y*z, a*z*x, a*x*y: the gradient of a*x*y*z."""
    pt = np.asarray(pt)
    return params.a * pt[..., _CHART_ORDER[:, 1]] * pt[..., _CHART_ORDER[:, 2]]


def _phi_values(pt: C3Point) -> np.ndarray:
    return where_bump(_ratios(pt))


def separate_ft_eval(params: FibrationParams, pt: C3Point) -> complex:
    t = params.t
    if t == 0.0:
        _ratios(pt)  # keep the domain of the whole family uniform
        return f_eval(params, pt)
    h = np.sum(_phi_values(pt) * _monomials(params, pt), axis=-1) + _axyz(params, pt)
    return (1.0 - t) * f_eval(params, pt) + t * h


def _phi_gradient_parts(pt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coef, diag): the holomorphic Wirtinger gradient of the j-th bump
    factor is coef_j * conj(u_k) in entry k != j and diag_j in entry j."""
    mod, rho = _radii(pt)
    with np.errstate(divide="ignore", over="ignore"):
        dphi = where_bump_deriv(rho / mod)
    # Both vanish with dphi; unit radii there keep the quotients finite.
    active = dphi != 0.0
    au = np.where(active, mod, 1.0)
    rho = np.where(active, rho, 1.0)
    # d(rho/|u|)/du = -rho conj(u) / (2|u|^3); d/dv = conj(v)/(2|u| rho)
    return dphi / (2.0 * au * rho), -dphi * rho / (2.0 * au * au) * (np.conj(pt) / au)


def _bump_part(params: FibrationParams, pt: np.ndarray, anti: bool) -> np.ndarray:
    """sum_j m_j dphi_j for the monomials m_j, with dphi_j the holomorphic
    (or, with anti, the antiholomorphic) gradient of the j-th bump factor."""
    coef, diag = _phi_gradient_parts(pt)
    mono = _monomials(params, pt)
    w = mono * coef
    others = w[..., _CHART_ORDER[:, 1]] + w[..., _CHART_ORDER[:, 2]]  # j != k
    if anti:
        return pt * others + mono * np.conj(diag)
    return np.conj(pt) * others + mono * diag


def separate_ft_grad(params: FibrationParams, pt: C3Point) -> np.ndarray:
    pt = np.asarray(pt, dtype=complex)
    t = params.t
    n = _exponents(params)
    weights = 1.0 - t + t * _phi_values(pt)
    grad = weights * n * pt ** (n - 1) + _cross_terms(params, pt)
    if t != 0.0:
        grad = grad + t * _bump_part(params, pt, anti=False)
    return grad


def separate_ft_antigrad(params: FibrationParams, pt: C3Point) -> np.ndarray:
    pt = np.asarray(pt, dtype=complex)
    t = params.t
    if t == 0.0:
        _ratios(pt)
        return np.zeros(pt.shape, dtype=complex)
    return t * _bump_part(params, pt, anti=True)


def separate_project_to_level(params: FibrationParams, pts: np.ndarray,
                              config: NumericalConfig, max_iter: int = 50) -> np.ndarray:
    """Newton projection of the rows of pts (n, 3) onto the level, with
    the value and the gradient each evaluated on its own."""
    tau = params.target
    tol = config.residual_tol * max(abs(tau), 1e-300)
    pts = np.array(pts, dtype=complex)
    todo = np.arange(len(pts))
    for _ in range(max_iter):
        rows = pts[todo]
        res = separate_ft_eval(params, rows) - tau
        moving = ~(np.abs(res) <= tol)
        todo = todo[moving]
        if todo.size == 0:
            return pts
        rows, res = rows[moving], res[moving]
        grad = separate_ft_grad(params, rows)
        norm2 = np.sum(grad.real**2 + grad.imag**2, axis=-1)
        pts[todo] = rows - res[:, None] * np.conj(grad) / norm2[:, None]
    raise AssertionError(f"no convergence after {max_iter} iterations")


_NEXT, _AFTER = _CHART_ORDER[:, 1:].T.copy()


def _taken_band(u):
    """The bump and its derivative across the transition, the smoothstep
    and its integral each evaluated on its own."""
    ramp_in = u < _ALPHA
    v = np.where(ramp_in, u / _ALPHA, (1.0 - u) / _ALPHA)
    ramp = _PLATEAU * _ALPHA * _smoothstep_integral(v)
    plateau = _PLATEAU * (_ALPHA / 2.0 + (u - _ALPHA))
    integral = np.where(ramp_in, ramp, np.where(u <= 1.0 - _ALPHA, plateau, 1.0 - ramp))
    profile = _PLATEAU * np.where(ramp_in | (u > 1.0 - _ALPHA), _smoothstep(v), 1.0)
    return 1.0 - integral, -3.0 * profile


def _taken_transition(s):
    low = s <= 1.0 / 6.0
    band = (~(low | (s >= 0.5))).ravel().nonzero()[0]
    phi = low.astype(float)
    dphi = np.zeros(s.shape)
    if band.size:
        phi_band, dphi_band = _taken_band((3.0 * (s.take(band) - 1.0 / 6.0)).clip(0.0, 1.0))
        phi.put(band, phi_band)
        dphi.put(band, dphi_band)
    return phi, dphi


def _taken_cross_terms(params: FibrationParams, pt: np.ndarray) -> np.ndarray:
    return params.a * pt.take(_NEXT, axis=-1) * pt.take(_AFTER, axis=-1)


def reducing_ft_pass(params: FibrationParams, pt: C3Point):
    """The one-pass kernel as it was before the t = 0 path and the column
    arithmetic: the radii, the ratios and the bump factors at every t,
    sums and the origin test as reductions along the coordinate axis, and
    transverse pairs taken with _NEXT and _AFTER."""
    pt = np.asarray(pt, dtype=complex)
    mod = np.abs(pt)
    if not mod.any(axis=-1).all():
        raise ValueError("bump factors are undefined at the origin")
    rho = np.hypot(mod.take(_NEXT, axis=-1), mod.take(_AFTER, axis=-1))
    with np.errstate(divide="ignore", over="ignore"):
        phi, dphi = _taken_transition(rho / mod)
    n = _exponents(params)
    mono = pt**n
    axyz = _axyz(params, pt)
    t = params.t
    value = mono.sum(axis=-1) + axyz
    if t != 0.0:
        value = (1.0 - t) * value + t * ((phi * mono).sum(axis=-1) + axyz)

    def grads(rows=None, anti=False):
        index = None if rows is None else rows.nonzero()[0]

        def at(x):
            return x if index is None else x.take(index, axis=0)

        u = at(pt)
        holo = (1.0 - t + t * at(phi)) * n * u ** (n - 1) + _taken_cross_terms(params, u)
        if t == 0.0:
            return (holo, np.zeros(u.shape, dtype=complex)) if anti else holo
        m = at(mono)
        coef, diag = _phi_parts(u, at(mod), at(rho), at(dphi))
        w = m * coef
        others = w.take(_NEXT, axis=-1) + w.take(_AFTER, axis=-1)
        holo = holo + t * (np.conj(u) * others + m * diag)
        return (holo, t * (u * others + m * np.conj(diag))) if anti else holo

    return value, grads


def looped_draw_per_seed(rng: np.random.Generator, count: int, choices: int, low, high):
    """For each of count seeds in turn: an index below choices, then one
    uniform in [low[k], high[k]) for each k.  The random stream is that of
    rng.integers followed by scalar rng.uniform calls."""
    picks = np.empty(count, dtype=int)
    unit = np.empty((count, len(low)))
    for i in range(count):
        picks[i] = rng.integers(choices)
        unit[i] = rng.random(len(low))
    low = np.asarray(low)
    return picks, low + (np.asarray(high) - low) * unit


def looped_defect_draws(rng: np.random.Generator, count: int):
    """The phases (count, 2) and complex noise (count, 3) of the default
    Lagrangian-defect seeds, one seed at a time: rng.random(2), then
    rng.standard_normal(6)."""
    phases = np.empty((count, 2))
    noise = np.empty((count, 3), dtype=complex)
    for i in range(count):
        phases[i] = 2.0 * math.pi * rng.random(2)
        z = rng.standard_normal(6)
        noise[i] = z[:3] + 1j * z[3:]
    return phases, noise


def per_point_critical_reports(params: FibrationParams, pts: np.ndarray,
                               config: NumericalConfig) -> list:
    """The critical-point reports of the rows of pts, each built from
    keyword arguments with its entries converted one by one."""
    tau = params.target
    value, grads = numcheck._ft_pass(params, pts)
    residual = np.abs(value - tau) / abs(tau)
    _, _, vh = np.linalg.svd(numcheck._real_jacobian(*grads(anti=True)), full_matrices=True)
    tangent = np.swapaxes(vh[:, 2:], -1, -2)
    jg = numcheck.g_real_jacobian(pts)
    svals = np.linalg.svd(jg @ tangent, compute_uv=False)
    ambient = np.linalg.svd(jg, compute_uv=False)[:, 0]
    rank_ratio = svals[:, -1] / ambient
    corank2_ratio = svals[:, 0] / ambient
    return [
        numcheck.CriticalPointReport(
            residual_rel=float(residual[i]),
            rank_ratio=float(rank_ratio[i]),
            corank2_ratio=float(corank2_ratio[i]),
            residual_ok=bool(residual[i] < config.residual_tol),
            rank_ok=bool(corank2_ratio[i] < config.rank_tol),
        )
        for i in range(len(pts))
    ]


def stacked_real_jacobian(holo: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """2x6 real Jacobian from a Wirtinger pair, interleaved by np.stack."""
    dx = holo + anti
    dy = 1j * (holo - anti)
    row = np.stack([dx, dy], axis=-1).reshape(*dx.shape[:-1], 6)
    return np.stack([row.real, row.imag], axis=-2)


def built_hessian_model(p: int, a: float) -> numcheck.HessianModel:
    """The Hessian model with every matrix built on each call."""
    if p < 2:
        raise ValueError("exponent must be >= 2")
    lam = (2.0 / p) * a ** ((2 * p - 3) / p)
    if not lam > 1.0:
        raise numcheck.AdmissibilityError("model requires lam > 1; enlarge a")
    A = np.array(
        [
            [-1.0, 0.0, -lam, 0.0],
            [0.0, -1.0, 0.0, lam],
            [-lam, 0.0, -1.0, 0.0],
            [0.0, lam, 0.0, -1.0],
        ]
    )
    s3 = math.sqrt(3.0)
    B = np.diag([s3, s3, -s3, -s3])
    P = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
        ]
    ) / math.sqrt(2.0)
    ptap = P.T @ A @ P
    ptbp = P.T @ B @ P
    target_a = np.diag([lam - 1.0, -lam - 1.0, lam - 1.0, -lam - 1.0])
    target_b = np.zeros((4, 4))
    target_b[0, 1] = target_b[1, 0] = s3
    target_b[2, 3] = target_b[3, 2] = s3
    dev = max(
        float(np.max(np.abs(ptap - target_a))) / (lam + 1.0),
        float(np.max(np.abs(ptbp - target_b))) / s3,
    )
    return numcheck.HessianModel(lam, A, B, P, ptap, ptbp, dev, bool(dev <= 1e-12))


def triu_fd_hessian(values: np.ndarray, delta: float) -> np.ndarray:
    """4x4 Hessian from the values on delta * numcheck._STENCIL, with the
    upper-triangle indices built on each call."""
    g0 = values[0]
    h = np.diag((values[1:9:2] - 2.0 * g0 + values[2:9:2]) / delta**2)
    corners = values[9:].reshape(6, 4)
    upper = np.triu_indices(4, 1)
    h[upper] = h[upper[::-1]] = (
        corners[:, 0] - corners[:, 1] - corners[:, 2] + corners[:, 3]
    ) / (4.0 * delta**2)
    return h


def staged_verify_fibration(params: FibrationParams, cfg: NumericalConfig) -> dict:
    """The verify-fibration report built one stage call at a time."""
    p, q, r = params.p, params.q, params.r
    report: dict = {
        "params": {
            "pqr": [p, q, r],
            "a": params.a,
            "theta": params.theta,
            "t": params.t,
        },
        "config": {
            "residual_tol": cfg.residual_tol,
            "rank_tol": cfg.rank_tol,
            "samples": cfg.samples,
            "seed": cfg.seed,
        },
    }
    params.check()
    with np.errstate(all="ignore"):
        crit_reports = numcheck.verify_critical_points(params, cfg)
        report["critical_points"] = {
            "count": len(crit_reports),
            "expected": p + q + r,
            "all_ok": all(rep.ok for rep in crit_reports),
            "worst_residual": max(rep.residual_rel for rep in crit_reports),
            "worst_rank_ratio": max(rep.rank_ratio for rep in crit_reports),
        }
        hess = numcheck.hessian_fd_check(params, numcheck.critical_points(params)[0], cfg)
        report["hessian_x_axis"] = hess.to_json()
        audit = numcheck.symplectic_inequality_audit(params, cfg)
        report["symplectic_inequality"] = audit.to_json()
        if params.t == 1.0:
            defect = numcheck.lagrangian_defect(params, config=cfg)
            report["lagrangian_defect"] = defect.to_json()
            if params.domain_y_admissible:
                report["domain_y"] = numcheck.domain_y_audit(params, cfg).to_json()
    passed = (
        report["critical_points"]["all_ok"]
        and report["critical_points"]["count"] == p + q + r
        and hess.matches
        and audit.passed
        and all(
            report[k]["passed"]
            for k in ("lagrangian_defect", "domain_y")
            if k in report
        )
    )
    report["passed"] = passed
    return report


def whole_stack_project_to_level(params: FibrationParams, seeds: np.ndarray,
                                 config: NumericalConfig, max_iter: int = 50) -> np.ndarray:
    """project_to_level before each row had its own outcome: a vanishing
    gradient in any row raises at once, and the holomorphic gradient is
    the one that always adds the bump terms."""
    tau = params.target
    tol = config.residual_tol * max(abs(tau), 1e-300)
    pts = np.array(seeds, dtype=complex)
    todo = np.arange(len(pts))
    for _ in range(max_iter):
        rows = pts.take(todo, axis=0)
        value, grads = numcheck._ft_pass(params, rows)
        res = value - tau
        moving = ~(np.abs(res) <= tol)
        keep = moving.nonzero()[0]
        if keep.size == 0:
            return pts
        todo = todo.take(keep)
        grad = grads(moving, anti=True)[0]
        norm2 = numcheck._row_sum(grad.real**2 + grad.imag**2)
        if (norm2 == 0.0).any():
            raise numcheck.ProjectionError("vanishing gradient during projection")
        pts[todo] = rows.take(keep, axis=0) - res.take(keep)[:, None] * np.conj(grad) / norm2[:, None]
    raise numcheck.ProjectionError(f"no convergence after {max_iter} iterations")


def separate_sample_on_level(params: FibrationParams, config: NumericalConfig) -> np.ndarray:
    """sample_on_level with its own projection at every t."""
    params.check()
    rng = np.random.default_rng(config.seed)
    crits = numcheck.critical_points(params)
    n_torus = config.samples // 2
    seeds = np.concatenate([
        numcheck._torus_seeds(params, rng.uniform(0.0, 2.0 * math.pi, size=(n_torus, 2))),
        numcheck._shell_seeds(params, crits, rng, config.samples - n_torus),
    ])
    return whole_stack_project_to_level(params, seeds, config)


def separate_inequality_audit(params: FibrationParams,
                              config: NumericalConfig) -> numcheck.InequalityAudit:
    """The inequality audit on its own samples and its own kernel pass."""
    try:
        params.check()
    except numcheck.AdmissibilityError as exc:
        return numcheck.InequalityAudit(0, math.nan, None, 0, False, 0, str(exc))
    pts = separate_sample_on_level(params, config)
    holo, anti = numcheck._ft_pass(params, pts)[1](anti=True)
    anti = numcheck._row_norm(anti)
    margin = numcheck._row_norm(holo) - anti
    worst = int(margin.argmin())
    mod = np.abs(pts)
    largest = np.maximum(np.maximum(mod[:, 0], mod[:, 1]), mod[:, 2])
    return numcheck.InequalityAudit(
        len(pts),
        float(margin[worst]),
        tuple(complex(c) for c in pts[worst]),
        int(np.count_nonzero(anti > 0.0)),
        bool((largest > params.m / params.a).all()),
        int(np.count_nonzero(margin <= 0.0)),
        None,
        None if params.precision_reviewed else "index above 9: review precision",
    )


def separate_lagrangian_defect(params: FibrationParams, config: NumericalConfig,
                               tolerance: float = 1e-6) -> numcheck.DefectReport:
    """The Lagrangian defect at its default points, with their own
    projection and their own kernel pass at every t."""
    params.check()
    rng = np.random.default_rng(config.seed)
    phases, noise = numcheck._defect_draws(rng, max(10, config.samples // 10))
    seeds = numcheck._torus_seeds(params, phases) * (1.0 + 0.05 * noise)
    pts = whole_stack_project_to_level(params, seeds, config)
    if (np.abs(pts) == 0.0).any():
        raise ValueError("fiber tangent planes are not defined on the axes")
    jg = numcheck.g_real_jacobian(pts)
    _, svals, vh = np.linalg.svd(
        np.concatenate([numcheck.ft_real_jacobian(params, pts), jg], axis=-2),
        full_matrices=True,
    )
    used = ~(svals[:, 3] < 1e-9 * np.linalg.norm(jg, axis=(-2, -1)))
    defect = np.abs(numcheck._omega0(vh[used, 4], vh[used, 5]))
    return numcheck.DefectReport(
        samples=int(np.count_nonzero(used)),
        max_defect=float(defect.max(initial=0.0)),
        lagrangian_expected=bool(params.t == 1.0),
        tolerance=tolerance,
        tried=len(pts),
    )


def iterated_half_sphere_boundary_points(params: FibrationParams, rng: np.random.Generator,
                                         count: int) -> np.ndarray:
    """The half-sphere points of the domain audit as they were computed
    before c had a closed form: three correction steps on c for the tiny
    modulus, and each coordinate written into its column by hand."""
    tau = params.target
    tiny_axis, draws = numcheck._draw_per_seed(
        rng, count, 3, (0.75, 0.0, 0.0), (1.3, 2 * math.pi, 2 * math.pi)
    )
    mu, ph1, ph2 = draws.T
    # solve c with c^2 (mu^2 + mu^-2) + |z|^2 = 1/4, |z| = |tau| / (a c^2)
    spread = mu**2 + mu**-2
    c = np.sqrt(0.25 / spread)
    for _ in range(3):
        tiny = abs(tau) / (params.a * ((c * mu) * (c / mu)))
        c = np.sqrt(np.maximum(0.25 - tiny**2, 0.0) / spread)
    rows = np.arange(count)
    others = np.array([[1, 2], [0, 2], [0, 1]])[tiny_axis]
    big1 = c * mu * np.exp(1j * ph1)
    big2 = c * (1.0 / mu) * np.exp(1j * ph2)
    out = np.zeros((count, 3), dtype=complex)
    out[rows, others[:, 0]] = big1
    out[rows, others[:, 1]] = big2
    out[rows, tiny_axis] = tau / (params.a * big1 * big2)
    return out


@dataclass(frozen=True)
class DataclassSL2Matrix:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if not isinstance(v, int):
                raise TypeError(f"integer entries required, got {v!r}")
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(
                f"determinant must be 1: [[{self.a},{self.b}],[{self.c},{self.d}]]"
            )


@dataclass(frozen=True)
class DataclassRLWord:
    exponents: tuple[int, ...]
    sign: int = 1

    def __post_init__(self):
        if len(self.exponents) == 0 or len(self.exponents) % 2 != 0:
            raise ValueError("exponent tuple must be nonempty of even length")
        if any(e < 1 for e in self.exponents):
            raise ValueError("all exponents must be >= 1")


@dataclass(frozen=True)
class DataclassQuadIrrational:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        a, b, c, d = abcd = self.a, self.b, self.c, self.d
        if any(type(v) is not int for v in abcd):
            raise TypeError(f"integer coefficients required, got {abcd!r}")
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if d <= 0:
            raise ValueError("sqrt argument must be positive")
        f = 2
        while f * f <= d:  # move the square part of d into b
            while d % (f * f) == 0:
                b, d = b * f, d // (f * f)
            f += 1
        if d == 1:
            a, b = a + b, 0
        if b == 0:
            d = 1
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        for name, value in zip("abcd", (a // g, b // g, c // g, d)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class DataclassGramLattice:
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

    @cached_property
    def _elimination(self) -> tuple[int, tuple[int, int, int]]:
        return _eliminate(sparse_rows(self.gram))


SMALL = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3])


@st.composite
def symmetric_matrices(draw, max_n=16):
    """Sparse symmetric integer matrices, optionally with an all-zero
    diagonal, a repeated row and column, or a hyperbolic summand."""
    n = draw(st.integers(0, max_n))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(SMALL)
    if draw(st.booleans()):
        for i in range(n):
            g[i][i] = 0
    if n >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(n)))[:2]
        for i in range(n):
            g[i][b] = 0
            g[b][i] = 0
        g[a][a] = g[b][b] = 0
        g[a][b] = g[b][a] = draw(st.sampled_from([1, -1, 2]))
    if n >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(n)))[:2]
        g[a] = list(g[b])
        for row in g:
            row[a] = row[b]
    return g


@st.composite
def square_matrices(draw, max_n=10):
    """Sparse integer matrices, optionally with an all-zero diagonal or
    skew-symmetric."""
    n = draw(st.integers(0, max_n))
    m = [[draw(SMALL) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["plain", "zero diagonal", "skew"]))
    for i in range(n if shape != "plain" else 0):
        m[i][i] = 0
        if shape == "skew":
            for j in range(i):
                m[i][j] = -m[j][i]
    return m


@st.composite
def integer_matrices(draw, max_n=12):
    """Sparse or dense integer matrices, plain, symmetric or skew, optionally
    with a zero diagonal and optionally singular (one row and column a
    multiple of another)."""
    n = draw(st.integers(0, max_n))
    entry = draw(st.sampled_from([SMALL, st.integers(-20, 20)]))
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["plain", "symmetric", "skew"]))
    for i in range(n if shape != "plain" else 0):
        for j in range(i):
            m[i][j] = m[j][i] if shape == "symmetric" else -m[j][i]
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    if n >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-2, 2))
        m[a] = [c * x for x in m[b]]
        for row in m:
            row[a] = c * row[b]
    return m


@pytest.fixture(scope="session")
def minimal_params_237():
    return FibrationParams.minimal(2, 3, 7)
