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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

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


@lru_cache(maxsize=None)
def _squarefree(n: int) -> tuple[int, int]:
    """n = s^2 * d with d squarefree; returns (s, d), exact for n < 10^18.

    Trial division removes every prime up to 10^6 or the cube root of the
    cofactor; a cofactor below 10^18 then has at most two prime factors,
    so isqrt settles whether it is a square.  Past 10^18 a square prime
    factor above 10^6 can stay in d."""
    if n <= 0:
        raise ValueError("positive argument required")
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


@dataclass(frozen=True)
class QuadIrrational:
    """(a + b*sqrt(d)) / c in canonical form: d squarefree (d = 1 encodes a
    rational value with b = 0), c > 0, gcd(a, b, c) = 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("canonical form requires c > 0")
        if self.d <= 0:
            raise ValueError("canonical form requires d > 0")
        if self.b == 0 and self.d != 1:
            raise ValueError("rational value must carry d = 1")
        if self.d == 1 and self.b != 0:
            raise ValueError("d = 1 must be folded into the rational part")
        if math.gcd(math.gcd(abs(self.a), abs(self.b)), self.c) != 1:
            raise ValueError("not gcd-reduced")

    @classmethod
    def make(cls, a: int, b: int, c: int, d: int) -> "QuadIrrational":
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if d <= 0:
            raise ValueError("sqrt argument must be positive")
        s, d0 = _squarefree(d)
        b *= s
        if d0 == 1:
            a, b = a + b, 0
        if b == 0:
            d0 = 1
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        if g == 0:
            g = 1
        return cls(a // g, b // g, c // g, d0)

    @classmethod
    def rational(cls, x: Fraction | int) -> "QuadIrrational":
        x = Fraction(x)
        return cls.make(x.numerator, 0, x.denominator, 1)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def conjugate(self) -> "QuadIrrational":
        return QuadIrrational.make(self.a, -self.b, self.c, self.d)

    def _common_d(self, other: "QuadIrrational") -> int:
        if self.d != 1 and other.d != 1 and self.d != other.d:
            raise ValueError(f"incompatible fields sqrt({self.d}) vs sqrt({other.d})")
        return self.d if self.d != 1 else other.d

    def __add__(self, other) -> "QuadIrrational":
        other = _coerce(other)
        d = self._common_d(other)
        return QuadIrrational.make(
            self.a * other.c + other.a * self.c,
            self.b * other.c + other.b * self.c,
            self.c * other.c,
            d,
        )

    def __neg__(self) -> "QuadIrrational":
        return QuadIrrational.make(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other) -> "QuadIrrational":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "QuadIrrational":
        other = _coerce(other)
        d = self._common_d(other)
        return QuadIrrational.make(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            self.c * other.c,
            d,
        )

    def inverse(self) -> "QuadIrrational":
        # 1/((a+b sqrt d)/c) = c(a - b sqrt d)/(a^2 - b^2 d)
        norm_num = self.a * self.a - self.b * self.b * self.d
        if norm_num == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadIrrational.make(
            self.c * self.a, -self.c * self.b, norm_num, self.d
        ) if norm_num > 0 else QuadIrrational.make(
            -self.c * self.a, self.c * self.b, -norm_num, self.d
        )

    def __truediv__(self, other) -> "QuadIrrational":
        return self * _coerce(other).inverse()

    def norm(self) -> Fraction:
        return Fraction(self.a * self.a - self.b * self.b * self.d, self.c * self.c)

    def trace(self) -> Fraction:
        return Fraction(2 * self.a, self.c)

    def compare(self, other) -> int:
        """Exact sign of self - other."""
        diff = self - _coerce(other)
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

    def __float__(self) -> float:
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    @classmethod
    def from_json(cls, data) -> "QuadIrrational":
        return cls.make(int(data["a"]), int(data["b"]), int(data["c"]), int(data["d"]))

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


def _coerce(x) -> QuadIrrational:
    if isinstance(x, QuadIrrational):
        return x
    if isinstance(x, (int, Fraction)):
        return QuadIrrational.rational(x)
    raise TypeError(f"cannot coerce {x!r}")


# ---------------------------------------------------------------------------
# Resolution cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleData:
    """Cyclic self-intersection data (c_1, ..., c_k) of a resolution cycle,
    c_j = -C_j^2 for k >= 2; for k = 1 the entry is the normal Euler number
    of the nodal curve, c_1 = -C_1^2 + 2."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise CuspDualityError("empty cycle")
        if any(c < 2 for c in self.entries):
            raise CuspDualityError("all cycle entries must be >= 2")
        if all(c == 2 for c in self.entries):
            raise CuspDualityError("some entry must be >= 3")

    @classmethod
    def of(cls, *entries: int) -> "CycleData":
        return cls(tuple(int(c) for c in entries))

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


@dataclass(frozen=True)
class Triple:
    """Index triple with its sorted normalization kept alongside."""

    given: tuple[int, int, int]

    def __post_init__(self):
        if min(self.given) < 2:
            raise CuspDualityError("triple entries must be >= 2")

    @classmethod
    def of(cls, p: int, q: int, r: int) -> "Triple":
        return cls((int(p), int(q), int(r)))

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
    ... - 1/x), solved exactly through the matrix of the composition; the
    conjugate root lies in (0,1), which is asserted.
    """
    m = cycle_matrix(cycle.entries)
    t = m.trace
    if t < 3:  # pragma: no cover - excluded by the cycle invariant
        raise AssertionError("cycle matrix must be hyperbolic")
    # fixed point: C x^2 + (D - A) x - B = 0 for (A B; C D)
    disc = t * t - 4
    root = QuadIrrational.make(m.a - m.d, 1, 2 * m.c, disc)
    other = root.conjugate()
    one = QuadIrrational.rational(1)
    if not root > one:
        root, other = other, root
    assert root > one
    assert other > QuadIrrational.rational(0) and QuadIrrational.rational(1) > other
    return root


def alpha_v(cycle: CycleData) -> QuadIrrational:
    """The totally positive unit generating the automorphism group of the
    cusp, i.e. the product of cf_value over all cyclic rotations: the larger
    eigenvalue (t + sqrt(t^2 - 4))/2 of the cycle matrix of trace t."""
    t = cycle_matrix(cycle.entries).trace
    return QuadIrrational.make(t, 1, 2, t * t - 4)


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
    m = cycle_matrix(cycle.entries)
    return SL2Matrix(m.d, m.c, m.b, m.a)


# ---------------------------------------------------------------------------
# Full duality report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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

    omega_self = cf_value(self_cycle)
    omega_dual = cf_value(dual_side)
    a_self = alpha_v(self_cycle)
    a_dual = alpha_v(dual_side)

    a = monodromy_matrix(*t.sorted)
    a_prime = monodromy_matrix(*dual.sorted)

    act = module_action_matrix(self_cycle)
    act_dual = module_action_matrix(dual_side)
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
        omega_self=omega_self,
        omega_dual=omega_dual,
        alpha_self=a_self,
        alpha_dual=a_dual,
        alphas_equal=a_self == a_dual,
        action_conjugacy=cert1,
        dual_action_conjugacy=cert2,
        inverse_conjugacy=cert3,
        self_dual=dual.sorted == t.sorted,
    )
