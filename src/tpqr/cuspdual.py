"""Extended strange duality for cusp triples.

Converts a triple (p,q,r) to the resolution cycle of its dual cusp,
applies the run-length duality rule on cycles, evaluates the repeating
modified continued fraction [[c1 ... ck]] = c1 - 1/(c2 - 1/(...)) exactly
in a real quadratic field, forms the totally positive unit acting on the
module Z + Z*omega, and compares that action with the torus-bundle
monodromy of the triple.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

from . import value_class
from .sl2z import (
    ConjugacyCertificate,
    SL2Matrix,
    cycle_matrix,
    is_conjugate,
    is_conjugate_to_inverse,
    monodromy_matrix,
    triple_excess,
)

__all__ = [
    "CycleData",
    "QuadIrrational",
    "Triple",
    "DualityReport",
    "CuspDualityError",
    "triple_to_cycle",
    "cycle_to_triple",
    "dual_cycle",
    "dual_triple",
    "cf_value",
    "alpha_v",
    "module_action_matrix",
    "verify_duality",
]


class CuspDualityError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Exact real quadratic field elements
# ---------------------------------------------------------------------------


_EXACT_BELOW = 10**18


@lru_cache(maxsize=None)
def _squarefree(n: int) -> tuple[int, int]:
    """n = s^2 * d with d squarefree; returns (s, d), for 0 < n < 10^18.

    Trial division removes every prime up to 10^6 or the cube root of the
    cofactor; a cofactor below 10^18 then has at most two prime factors,
    so isqrt settles whether it is a square.  From 10^18 on a square prime
    factor above 10^6 could stay in d, so such n are refused."""
    if not 0 < n < _EXACT_BELOW:
        raise ValueError(f"square-free part needs 0 < n < 10^18, got {n}")
    s, d, m = 1, 1, n
    f = 2
    while f <= 1_000_000 and f * f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            s *= f ** (e // 2)
            d *= f ** (e % 2)
        f += 1 if f == 2 else 2
    root = math.isqrt(m)
    return (s * root, d) if root * root == m else (s, d * m)


def _check_coefficients(abcd: tuple) -> None:
    if any(type(v) is not int for v in abcd):  # bool is not a coefficient
        raise TypeError(f"integer coefficients required, got {abcd!r}")


@value_class
class QuadIrrational:
    """(a + b*sqrt(d)) / c with c > 0 and gcd(a, b, c) = 1; d = 1 encodes a
    rational value with b = 0.

    ``make`` is the only normaliser, and its form is a function of the
    number alone.  An irrational x is keyed by its primitive minimal
    polynomial u x^2 + v x + w (u > 0), whose discriminant disc is
    intrinsic to x.  Below 10^18, d is the square-free part of disc, so d
    names the field.  From 10^18 on, (a, b, c, d) = (-v, +-1, 2u, disc)
    with no factoring: d is that discriminant and does not name the field,
    since two values of one field can carry radicands that differ by a
    square factor."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        a, b, c, d = abcd = self.a, self.b, self.c, self.d
        _check_coefficients(abcd)
        if c <= 0:
            raise ValueError("canonical form requires c > 0")
        if d <= 0:
            raise ValueError("canonical form requires d > 0")
        if b == 0 and d != 1:
            raise ValueError("rational value must carry d = 1")
        if d == 1 and b != 0:
            raise ValueError("d = 1 must be folded into the rational part")
        if math.gcd(a, b, c) != 1:
            raise ValueError("not gcd-reduced")

    @classmethod
    def make(cls, a: int, b: int, c: int, d: int) -> "QuadIrrational":
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if d <= 0:
            raise ValueError("sqrt argument must be positive")
        root = math.isqrt(d)
        if b == 0 or root * root == d:
            a, b, d = a + b * root, 0, 1
        else:
            # (c x - a)^2 = b^2 d gives the minimal polynomial; make it primitive
            u, v, w = c * c, -2 * a * c, a * a - b * b * d
            g = math.gcd(u, v, w)
            u, v, w = u // g, v // g, w // g
            disc = v * v - 4 * u * w
            s, d = (1, disc) if disc >= _EXACT_BELOW else _squarefree(disc)
            # x is the larger root (-v + sqrt(disc)) / 2u exactly when b/c > 0
            a, b, c = -v, s if (b > 0) == (c > 0) else -s, 2 * u
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        return cls(a // g, b // g, c // g, d)

    def conjugate(self) -> "QuadIrrational":
        return QuadIrrational.make(self.a, -self.b, self.c, self.d)

    def __float__(self) -> float:
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    @classmethod
    def from_json(cls, data) -> "QuadIrrational":
        abcd = tuple(data[k] for k in "abcd")
        _check_coefficients(abcd)
        return cls.make(*abcd)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a) if self.c == 1 else f"{self.a}/{self.c}"
        if self.b == 1:
            root = f"sqrt({self.d})"
        elif self.b == -1:
            root = f"-sqrt({self.d})"
        else:
            root = f"{self.b}*sqrt({self.d})"
        if self.a == 0:
            body = root
        else:
            body = f"{self.a}+{root}" if not root.startswith("-") else f"{self.a}{root}"
        return body if self.c == 1 else f"({body})/{self.c}"


# ---------------------------------------------------------------------------
# Resolution cycles
# ---------------------------------------------------------------------------


@value_class
class CycleData:
    """Cyclic self-intersection data (c_1, ..., c_k) of a resolution cycle,
    c_j = -C_j^2 for k >= 2; for k = 1 the entry is the normal Euler number
    of the nodal curve, c_1 = -C_1^2 + 2."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise CuspDualityError("empty cycle")
        if any(type(c) is not int for c in self.entries):
            raise TypeError(f"integer cycle entries required, got {self.entries!r}")
        if any(c < 2 for c in self.entries):
            raise CuspDualityError("all cycle entries must be >= 2")
        if all(c == 2 for c in self.entries):
            raise CuspDualityError("some entry must be >= 3")

    @classmethod
    def of(cls, *entries: int) -> "CycleData":
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def single(self) -> bool:
        return len(self.entries) == 1

    def rotations(self) -> list[tuple[int, ...]]:
        e = self.entries
        return [e[i:] + e[:i] for i in range(len(e))]

    def canonical(self) -> "CycleData":
        """Lexicographically least rotation starting at an entry >= 3."""
        e = self.entries
        return CycleData(min(e[i:] + e[:i] for i, c in enumerate(e) if c >= 3))

    def cyclic_equal(self, other: "CycleData") -> bool:
        return self.canonical().entries == other.canonical().entries

    def to_json(self) -> list[int]:
        return list(self.entries)


@value_class
class Triple:
    """Index triple with its sorted normalization kept alongside."""

    given: tuple[int, int, int]

    def __post_init__(self):
        given = self.given
        if len(given) != 3 or any(type(v) is not int for v in given):  # bool is not an index
            raise TypeError(f"integer triple required, got {given!r}")
        if min(self.given) < 2:
            raise CuspDualityError("triple entries must be >= 2")

    @classmethod
    def of(cls, p: int, q: int, r: int) -> "Triple":
        return cls((p, q, r))

    @property
    def sorted(self) -> tuple[int, int, int]:
        return tuple(sorted(self.given))

    @property
    def is_cusp(self) -> bool:
        return triple_excess(*self.given) > 0

    @property
    def is_parabolic(self) -> bool:
        return triple_excess(*self.given) == 0

    def __iter__(self):
        return iter(self.given)

    def __str__(self) -> str:
        return "({},{},{})".format(*self.given)


def triple_to_cycle(p: int, q: int, r: int) -> CycleData:
    """Resolution cycle of the dual-side cusp attached to T_{p,q,r}.

    With p <= q <= r: three curves (q-1, r-1, p-1) when p >= 3; two curves
    (q-2, r-2) when p = 2, q >= 4; a single nodal curve (r-4) when
    (p,q) = (2,3).
    """
    t = Triple.of(p, q, r)
    if not t.is_cusp:
        raise CuspDualityError(f"{t} is not a cusp triple (needs 1/p+1/q+1/r < 1)")
    p, q, r = t.sorted
    if p >= 3:
        return CycleData.of(q - 1, r - 1, p - 1)
    if q >= 4:
        return CycleData.of(q - 2, r - 2)
    return CycleData.of(r - 4)


def cycle_to_triple(cycle: CycleData) -> Optional[Triple]:
    """Invert triple_to_cycle, up to cyclic rotation; None when the cycle is
    longer than 3 or no rotation matches the construction."""
    k = len(cycle)
    if k > 3:
        return None
    if k == 1:
        return Triple.of(2, 3, cycle.entries[0] + 4)
    if k == 2:
        d1, d2 = sorted(cycle.entries)
        return Triple.of(2, d1 + 2, d2 + 2)
    for d1, d2, d3 in cycle.rotations():
        p, q, r = d3 + 1, d1 + 1, d2 + 1
        if p <= q <= r and p >= 3:
            return Triple.of(p, q, r)
    return None


def dual_cycle(cycle: CycleData) -> CycleData:
    """Run-length dual of a resolution cycle.

    Rotate so the cycle reads gamma_1, 2^(z_1), gamma_2, 2^(z_2), ...,
    gamma_n, 2^(z_n) with every gamma_i >= 3; the runs define delta-values
    z_i = delta_{n+1-i} - 3, and the dual cycle written backwards is
    2^(gamma_1 - 3), delta_n, 2^(gamma_2 - 3), delta_{n-1}, ..., delta_1.
    The operation is involutive up to rotation.
    """
    runs: list[list[int]] = []  # [gamma_i, z_i]
    for c in cycle.canonical().entries:
        if c >= 3:
            runs.append([c, 0])
        else:
            runs[-1][1] += 1
    dual: list[int] = []
    for gamma, z in reversed(runs):
        dual.append(z + 3)
        dual += [2] * (gamma - 3)
    return CycleData(tuple(dual))


def dual_triple(p: int, q: int, r: int) -> Triple:
    """Strange-dual triple, via the cycle calculus."""
    cycle = triple_to_cycle(p, q, r)
    short = sum(c - 2 for c in cycle.entries) <= 3  # the dual cycle's length
    dual = cycle_to_triple(dual_cycle(cycle)) if short else None
    if dual is None:
        raise CuspDualityError(
            f"dual cycle of ({p},{q},{r}) has length > 3: no hypersurface dual"
        )
    return dual


# ---------------------------------------------------------------------------
# Modified continued fractions and the module action
# ---------------------------------------------------------------------------


def cf_value(cycle: CycleData) -> QuadIrrational:
    """Value of the repeating modified continued fraction [[c1 ... ck]].

    The value is the fixed point > 1 of the Moebius map x -> c1 - 1/(c2 -
    ... - 1/x), the larger root of C x^2 + (D - A) x - B for the cycle
    matrix (A B; C D); the conjugate root lies in (0,1).
    """
    return _omega(cycle_matrix(cycle.entries))


def alpha_v(cycle: CycleData) -> QuadIrrational:
    """The totally positive unit generating the automorphism group of the
    cusp, i.e. the product of cf_value over all cyclic rotations: the larger
    eigenvalue (t + sqrt(t^2 - 4))/2 of the cycle matrix of trace t."""
    return _unit(cycle_matrix(cycle.entries))


def module_action_matrix(cycle: CycleData) -> SL2Matrix:
    """Matrix of multiplication by alpha_v on Z + Z*omega in the basis
    (1, omega), omega = cf_value(cycle); exact, determinant 1.

    omega is the fixed point of the cycle matrix (A B; C D), so alpha =
    C*omega + D and alpha*omega = B + A*omega: the action is (D C; B A).

    Row convention: row i holds the expansion of alpha * basis_i, so the
    matrix acts on integer coordinate rows.  This is the arrangement under
    which the action for the cycle of a cusp is conjugate to the cusp's
    own torus-bundle monodromy (the column arrangement lands in the
    inverse class, i.e. the dual partner's).
    """
    return _action(cycle_matrix(cycle.entries))


def _omega(m: SL2Matrix) -> QuadIrrational:
    # C > 0 for every cycle: each factor (c -1; 1 0), c >= 2, takes the
    # lower-left entry from C_{k-1} to C_k = c C_{k-1} - C_{k-2}, so it rises
    # by at least 1 from C_0 = 0.  The + root is then the larger one.
    t = m.trace
    return QuadIrrational.make(m.a - m.d, 1, 2 * m.c, t * t - 4)


def _unit(m: SL2Matrix) -> QuadIrrational:
    t = m.trace
    return QuadIrrational.make(t, 1, 2, t * t - 4)


def _action(m: SL2Matrix) -> SL2Matrix:
    return SL2Matrix(m.d, m.c, m.b, m.a)


# ---------------------------------------------------------------------------
# Full duality report
# ---------------------------------------------------------------------------


@value_class
class DualityReport:
    triple: Triple
    dual: Triple
    self_cycle: CycleData  # resolution cycle of the cusp itself
    dual_side_cycle: CycleData  # resolution cycle of the dual cusp
    omega_self: QuadIrrational
    omega_dual: QuadIrrational
    alpha_self: QuadIrrational
    alpha_dual: QuadIrrational
    alphas_equal: bool
    action_conjugacy: ConjugacyCertificate
    dual_action_conjugacy: ConjugacyCertificate
    inverse_conjugacy: ConjugacyCertificate
    self_dual: bool

    def verify(self) -> bool:
        return (
            self.action_conjugacy.verify()
            and self.dual_action_conjugacy.verify()
            and self.inverse_conjugacy.verify()
        )

    def to_json(self) -> dict:
        return {
            "triple": list(self.triple.given),
            "dual": list(self.dual.given),
            "self_dual": self.self_dual,
            "self_cycle": self.self_cycle.to_json(),
            "dual_side_cycle": self.dual_side_cycle.to_json(),
            "omega_self": str(self.omega_self),
            "omega_dual": str(self.omega_dual),
            "omega_self_exact": self.omega_self.to_json(),
            "omega_dual_exact": self.omega_dual.to_json(),
            "alpha_v": str(self.alpha_self),
            "alpha_v_exact": self.alpha_self.to_json(),
            "alpha_v_dual": str(self.alpha_dual),
            "alphas_equal": self.alphas_equal,
            "action_conjugacy": self.action_conjugacy.to_json(),
            "dual_action_conjugacy": self.dual_action_conjugacy.to_json(),
            "inverse_conjugacy": self.inverse_conjugacy.to_json(),
        }


def verify_duality(p: int, q: int, r: int) -> DualityReport:
    """Builds and re-verifies the whole duality picture for one triple:
    cycles on both sides, continued-fraction values, equality of the two
    units, the module action conjugate to the monodromy, and the
    monodromies of the pair conjugate-inverse to each other."""
    t = Triple.of(p, q, r)
    dual = dual_triple(p, q, r)
    dual_side = triple_to_cycle(p, q, r)
    self_cycle = dual_cycle(dual_side)

    m_self = cycle_matrix(self_cycle.entries)
    m_dual = cycle_matrix(dual_side.entries)
    a_self = _unit(m_self)
    a_dual = _unit(m_dual)

    a = monodromy_matrix(*t.sorted)
    a_prime = monodromy_matrix(*dual.sorted)

    act = _action(m_self)
    act_dual = _action(m_dual)
    cert1 = is_conjugate(act, a)
    cert2 = is_conjugate(act_dual, a_prime)
    cert3 = is_conjugate_to_inverse(a, a_prime)
    if cert1 is None or cert2 is None or cert3 is None:
        raise CuspDualityError(
            f"duality conjugacy failed for {t}: this contradicts the theory"
        )
    return DualityReport(
        triple=t,
        dual=dual,
        self_cycle=self_cycle,
        dual_side_cycle=dual_side,
        omega_self=_omega(m_self),
        omega_dual=_omega(m_dual),
        alpha_self=a_self,
        alpha_dual=a_dual,
        alphas_equal=a_self == a_dual,
        action_conjugacy=cert1,
        dual_action_conjugacy=cert2,
        inverse_conjugacy=cert3,
        self_dual=dual.sorted == t.sorted,
    )
