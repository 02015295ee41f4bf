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
from functools import cached_property, lru_cache
from typing import Optional

from . import _check_ints, _check_triple, value_class
from .sl2z import (
    ConjugacyCertificate,
    SL2Matrix,
    cycle_matrix,
    is_conjugate,
    is_conjugate_to_inverse,
    monodromy_matrix,
)

__all__ = [
    "CycleData",
    "QuadIrrational",
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

    Trial division removes every prime up to the cube root of the
    cofactor, so what is left has at most two prime factors and isqrt
    settles whether it is a square.  The cofactor is below 10^18, so no
    divisor above 10^6 is tried.  From 10^18 on that bound would not hold,
    so such n are refused."""
    if not 0 < n < _EXACT_BELOW:
        raise ValueError(f"square-free part needs 0 < n < 10^18, got {n}")
    s, d, m = 1, 1, n
    f = 2
    while f * f * f <= m:
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


@value_class
class QuadIrrational:
    """(a + b*sqrt(d)) / c with c > 0 and gcd(a, b, c) = 1; d = 1 encodes a
    rational value with b = 0.

    The constructor is the one normaliser: it takes any int a, b, c, d
    with c != 0 and d > 0 and keeps the canonical form of the number,
    which is a function of the number alone.
    An irrational x is keyed by its primitive minimal polynomial
    u x^2 + v x + w (u > 0), whose discriminant disc is intrinsic to x.
    Below 10^18, d is the square-free part of disc, so d names the field.
    From 10^18 on, (a, b, c, d) = (-v, +-1, 2u, disc) with no factoring:
    d is that discriminant and does not name the field, since two values
    of one field can carry radicands that differ by a square factor."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        a, b, c, d = abcd = self.a, self.b, self.c, self.d
        _check_ints("coefficients", abcd, abcd)
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
        for name, value in zip("abcd", (a // g, b // g, c // g, d)):
            object.__setattr__(self, name, value)

    def __float__(self) -> float:
        """Within 1 ulp, from integers alone: |a + b sqrt(d)| > 2^-m, m the
        bits of |a| + |b| sqrt(d), so with 2^k >= |b| 2^(m+64) flooring
        sqrt(d) 2^k moves the numerator by < 2^-64 of it; the int division
        rounds once and overflows only past the double range."""
        a, b, c, d = self.a, self.b, self.c, self.d
        k = 66 + b.bit_length() + max(a.bit_length(), b.bit_length() + d.bit_length())
        return ((a << k) + b * math.isqrt(d << 2 * k)) / (c << k)

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    @classmethod
    def from_json(cls, data) -> "QuadIrrational":
        return cls(*(data[k] for k in "abcd"))

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
        _check_ints("cycle entries", self.entries, self.entries)
        if any(c < 2 for c in self.entries):
            raise CuspDualityError("all cycle entries must be >= 2")
        if all(c == 2 for c in self.entries):
            raise CuspDualityError("some entry must be >= 3")
        object.__setattr__(self, "entries", tuple(self.entries))

    @cached_property
    def _matrix(self) -> SL2Matrix:
        """The cycle matrix, multiplied out once per cycle object for
        ``cf_value``, ``alpha_v`` and ``module_action_matrix``."""
        return cycle_matrix(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def rotations(self) -> list[tuple[int, ...]]:
        e = self.entries
        return [e[i:] + e[:i] for i in range(len(e))]

    def canonical(self) -> "CycleData":
        """Lexicographically least rotation starting at an entry >= 3.

        Such a rotation reads as blocks (gamma, 2^z): an entry gamma >= 3
        and the run of z 2s after it.  Two rotations compare block by
        block: a smaller gamma is smaller, and for equal gamma the longer
        run is smaller, since where the shorter run ends that rotation has
        an entry >= 3 and the other a 2.  So rotations are ordered as
        their sequences of block keys (gamma, -z).  The least rotation of
        the key sequence is found in time linear in the length for every
        input, like Booth's algorithm (IPL 10, 1980) but with two
        candidates in place of a failure function."""
        e = self.entries
        s = _least_blocks(e)[0]
        return CycleData(e[s:] + e[:s])

    def to_json(self) -> list[int]:
        return list(self.entries)


def _least_blocks(e: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    """The start in e of ``CycleData.canonical`` and the keys of its blocks
    in order, which ``dual_cycle`` reads without building the cycle.  The
    key of the block at s, with the next block at t, is (gamma, s - t), as
    s - t = -z - 1.

    The key rotations at i < j are the two candidates left; every other
    start below j is ruled out.  They agree on their first k keys.  At
    the first difference, the rotation at the larger candidate and at
    each of the k starts after it is beaten by the rotation as far after
    the other candidate, so those starts are ruled out.  If they agree
    on all n keys, the two rotations are equal and i serves.  Each step
    raises i + j + k, which stays below 3n."""
    starts = [i for i, c in enumerate(e) if c >= 3]
    keys = [(e[s], s - t) for s, t in zip(starts, starts[1:] + [starts[0] + len(e)])]
    n, twice = len(keys), keys + keys
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = twice[i + k], twice[j + k]
        if a == b:
            k += 1
        elif a > b:
            i, j, k = j, max(j + 1, i + k + 1), 0
        else:
            j, k = j + k + 1, 0
    return starts[i], twice[i:i + n]


def triple_to_cycle(p: int, q: int, r: int) -> CycleData:
    """Resolution cycle of the dual-side cusp attached to T_{p,q,r}.

    With p <= q <= r: three curves (q-1, r-1, p-1) when p >= 3; two curves
    (q-2, r-2) when p = 2, q >= 4; a single nodal curve (r-4) when
    (p,q) = (2,3).
    """
    _check_triple((p, q, r), CuspDualityError, 1)
    p, q, r = sorted((p, q, r))
    if p >= 3:
        return CycleData((q - 1, r - 1, p - 1))
    if q >= 4:
        return CycleData((q - 2, r - 2))
    return CycleData((r - 4,))


def cycle_to_triple(cycle: CycleData) -> Optional[tuple[int, int, int]]:
    """Invert triple_to_cycle, up to cyclic rotation: the sorted triple, or
    None when the cycle is longer than 3 or no rotation matches the
    construction."""
    k = len(cycle)
    if k > 3:
        return None
    if k == 1:
        return (2, 3, cycle.entries[0] + 4)
    if k == 2:
        d1, d2 = sorted(cycle.entries)
        return (2, d1 + 2, d2 + 2)
    for d1, d2, d3 in cycle.rotations():
        p, q, r = d3 + 1, d1 + 1, d2 + 1
        if 3 <= p <= q <= r:
            return (p, q, r)
    return None


def dual_cycle(cycle: CycleData) -> CycleData:
    """Run-length dual of a resolution cycle.

    The canonical rotation reads gamma_1, 2^(z_1), gamma_2, 2^(z_2), ...,
    gamma_n, 2^(z_n) with every gamma_i >= 3; the runs define delta-values
    z_i = delta_{n+1-i} - 3, and the dual cycle written backwards is
    2^(gamma_1 - 3), delta_n, 2^(gamma_2 - 3), delta_{n-1}, ..., delta_1.
    The operation is involutive up to rotation.
    """
    dual: list[int] = []
    for gamma, back in reversed(_least_blocks(cycle.entries)[1]):
        dual.append(2 - back)  # z + 3, as back = -z - 1
        dual += [2] * (gamma - 3)
    return CycleData(tuple(dual))


def _duality(p: int, q: int, r: int) -> tuple[CycleData, CycleData, tuple[int, int, int]]:
    """(dual_side, self_cycle, dual): the resolution cycle of the dual-side
    cusp, its dual (the cusp's own cycle) and the sorted strange-dual
    triple, each built once.  The length rule refuses a triple before its
    dual cycle is built."""
    dual_side = triple_to_cycle(p, q, r)
    if sum(c - 2 for c in dual_side.entries) <= 3:  # the dual cycle's length
        self_cycle = dual_cycle(dual_side)
        dual = cycle_to_triple(self_cycle)
        if dual is not None:
            return dual_side, self_cycle, dual
    raise CuspDualityError(
        f"dual cycle of ({p},{q},{r}) has length > 3: no hypersurface dual"
    )


def dual_triple(p: int, q: int, r: int) -> tuple[int, int, int]:
    """Strange-dual triple, sorted, via the cycle calculus."""
    return _duality(p, q, r)[2]


# ---------------------------------------------------------------------------
# Modified continued fractions and the module action
# ---------------------------------------------------------------------------


def cf_value(cycle: CycleData) -> QuadIrrational:
    """Value of the repeating modified continued fraction [[c1 ... ck]].

    The value is the fixed point > 1 of the Moebius map x -> c1 - 1/(c2 -
    ... - 1/x), the larger root of C x^2 + (D - A) x - B for the cycle
    matrix (A B; C D); the conjugate root lies in (0,1).  C > 0 for every
    cycle: each factor (c -1; 1 0), c >= 2, takes the lower-left entry
    from C_{k-1} to C_k = c C_{k-1} - C_{k-2}, so it rises by at least 1
    from C_0 = 0.  The larger root is then (A - D + sqrt(t^2 - 4)) / 2C
    for the trace t, and no value is compared or factored here.
    """
    m = cycle._matrix
    t = m.trace
    return QuadIrrational(m.a - m.d, 1, 2 * m.c, t * t - 4)


def alpha_v(cycle: CycleData) -> QuadIrrational:
    """The totally positive unit generating the automorphism group of the
    cusp, i.e. the product of cf_value over all cyclic rotations: the larger
    eigenvalue (t + sqrt(t^2 - 4))/2 of the cycle matrix of trace t."""
    t = cycle._matrix.trace
    return QuadIrrational(t, 1, 2, t * t - 4)


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
    m = cycle._matrix
    return SL2Matrix(m.d, m.c, m.b, m.a)


# ---------------------------------------------------------------------------
# Full duality report
# ---------------------------------------------------------------------------


@value_class
class DualityReport:
    triple: tuple[int, int, int]  # as given
    dual: tuple[int, int, int]  # sorted
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
            "triple": list(self.triple),
            "dual": list(self.dual),
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
    dual_side, self_cycle, dual = _duality(p, q, r)

    a_self = alpha_v(self_cycle)
    a_dual = alpha_v(dual_side)

    t = tuple(sorted((p, q, r)))
    a = monodromy_matrix(*t)
    a_prime = monodromy_matrix(*dual)

    cert1 = is_conjugate(module_action_matrix(self_cycle), a)
    cert2 = is_conjugate(module_action_matrix(dual_side), a_prime)
    cert3 = is_conjugate_to_inverse(a, a_prime)
    if cert1 is None or cert2 is None or cert3 is None:
        raise CuspDualityError(
            f"duality conjugacy failed for ({p},{q},{r}): this contradicts the theory"
        )
    return DualityReport(
        triple=(p, q, r),
        dual=dual,
        self_cycle=self_cycle,
        dual_side_cycle=dual_side,
        omega_self=cf_value(self_cycle),
        omega_dual=cf_value(dual_side),
        alpha_self=a_self,
        alpha_dual=a_dual,
        alphas_equal=a_self == a_dual,
        action_conjugacy=cert1,
        dual_action_conjugacy=cert2,
        inverse_conjugacy=cert3,
        self_dual=dual == t,
    )
