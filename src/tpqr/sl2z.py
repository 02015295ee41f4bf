"""Exact SL(2,Z) arithmetic for torus-bundle monodromies.

Monodromy matrices of the T_{p,q,r} family, trace classification, a
complete conjugacy decision procedure with explicit certificates, and
Dehn-twist words acting on H_1 of the 2-torus.

Hyperbolic conjugacy is decided through the RL-factorization: every
hyperbolic matrix of positive trace is conjugate to a positive word in

    R = (1 1; 0 1)   and   L = (1 0; 1 1),

unique up to cyclic rotation of the word.  The factorization is found by
running the continued-fraction expansion of the attracting fixed point
entirely in integer arithmetic.  Every other class (|trace| <= 2) is
decided by one Gauss reduction of the binary form (c, d-a, -b) of the
matrix, whose reduced matrix is unique in its class.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Optional

from . import _check_ints, _check_triple, value_class

__all__ = [
    "SL2Matrix",
    "HomologyClass",
    "TwistWord",
    "RLWord",
    "ConjugacyCertificate",
    "MatrixClass",
    "ALPHA",
    "BETA",
    "GAMMA",
    "monodromy_matrix",
    "cycle_matrix",
    "classify",
    "rl_word",
    "is_conjugate",
    "is_conjugate_to_inverse",
    "dehn_twist",
    "evaluate_word",
]


@value_class
class SL2Matrix:
    """2x2 integer matrix (a b; c d) with determinant exactly 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        a, b, c, d = abcd = self.a, self.b, self.c, self.d
        _check_ints("entries", abcd)
        if a * d - b * c != 1:
            raise ValueError(f"determinant must be 1: [[{a},{b}],[{c},{d}]]")

    @cached_property
    def _rl(self) -> tuple[tuple[int, ...], "SL2Matrix"]:
        """``_rl_reduce`` of the matrix, or of its negative when the trace
        is negative, computed at most once per object; only a hyperbolic
        matrix has one.  A P that conjugates -m to -n conjugates m to n,
        so ``rl_word`` and the conjugacy test both read this."""
        return _rl_reduce(self if self.trace > 0 else -self)

    @property
    def trace(self) -> int:
        return self.a + self.d

    def __mul__(self, other: "SL2Matrix") -> "SL2Matrix":
        return SL2Matrix(*_prod((self.a, self.b, self.c, self.d),
                                (other.a, other.b, other.c, other.d)))

    def __neg__(self) -> "SL2Matrix":
        return SL2Matrix(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "SL2Matrix":
        return SL2Matrix(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "SL2Matrix":
        _check_ints("exponent", (n,))
        a, b, c, d = self.a, self.b, self.c, self.d
        base = (a, b, c, d) if n >= 0 else (d, -b, -c, a)
        n, out = abs(n), (1, 0, 0, 1)
        while n:
            if n & 1:
                out = _prod(out, base)
            base = _prod(base, base)
            n >>= 1
        return SL2Matrix(*out)

    def conjugate_by(self, p: "SL2Matrix") -> "SL2Matrix":
        """p * self * p^{-1}."""
        return p * self * p.inverse()

    def apply(self, v: tuple[int, int]) -> tuple[int, int]:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def to_json(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    @classmethod
    def from_json(cls, data) -> "SL2Matrix":
        (a, b), (c, d) = data
        return cls(a, b, c, d)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


def _prod(x: tuple, y: tuple) -> tuple[int, int, int, int]:
    """Product of (a, b, c, d) tuples.  The kernels below multiply tuples and
    build one SL2Matrix per result, whose constructor checks it."""
    (a, b, c, d), (e, f, g, h) = x, y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


R = SL2Matrix(1, 1, 0, 1)
L = SL2Matrix(1, 0, 1, 1)


class MatrixClass(Enum):
    IDENTITY = "identity"
    MINUS_IDENTITY = "minus_identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@value_class
class HomologyClass:
    """Primitive class (m,n) in H_1 of the torus.

    Convention used throughout: alpha=(1,0), beta=(0,1), gamma=(1,-1),
    with the intersection pairing <(x1,x2),(y1,y2)> = x1*y2 - x2*y1.
    """

    m: int
    n: int

    def __post_init__(self):
        mn = (self.m, self.n)
        _check_ints("class", mn, mn)
        if math.gcd(abs(self.m), abs(self.n)) != 1:
            raise ValueError(f"({self.m},{self.n}) is not a primitive class")


ALPHA = HomologyClass(1, 0)
BETA = HomologyClass(0, 1)
GAMMA = HomologyClass(1, -1)


@value_class
class TwistWord:
    """Ordered Dehn-twist word; the leftmost letter acts last."""

    steps: tuple[tuple[HomologyClass, int], ...]

    def __post_init__(self):
        """The steps, from any iterable, are (class, exponent) pairs, as
        tuples or lists, checked before they are unpacked; then the
        exponents are ints.  They are stored as a tuple of tuples."""
        steps = tuple(self.steps)
        if any(
            type(s) not in (tuple, list) or len(s) != 2 or not isinstance(s[0], HomologyClass)
            for s in steps
        ):
            raise TypeError(f"HomologyClass steps required, got {steps!r}")
        _check_ints("exponents", [e for _, e in steps], steps)
        object.__setattr__(self, "steps", tuple(map(tuple, steps)))

    def __iter__(self) -> Iterator[tuple[HomologyClass, int]]:
        return iter(self.steps)

    def to_json(self) -> list[dict]:
        return [{"class": [c.m, c.n], "exp": e} for c, e in self.steps]

    @classmethod
    def from_json(cls, data) -> "TwistWord":
        return cls((HomologyClass(*s["class"]), s["exp"]) for s in data)


@value_class
class ConjugacyCertificate:
    """Witness P for P * source * P^{-1} = target; checked on construction."""

    source: SL2Matrix
    target: SL2Matrix
    conjugator: SL2Matrix

    def __post_init__(self):
        if not self.verify():
            raise ValueError("certificate does not re-verify")

    def verify(self) -> bool:
        return self.source.conjugate_by(self.conjugator) == self.target

    def to_json(self) -> dict:
        return {"source": self.source.to_json(), "target": self.target.to_json(),
                "conjugator": self.conjugator.to_json(), "relation": "P*M*P^-1 = N"}


def monodromy_matrix(p: int, q: int, r: int) -> SL2Matrix:
    """Torus-bundle monodromy of the T_{p,q,r} link: the cycle matrix of
    (r-1, q-1, p-1), i.e. the product of the three factors (n-1 -1; 1 0)
    for n = r, q, p, with the r-factor leftmost."""
    _check_triple((p, q, r), ValueError)
    return cycle_matrix((r - 1, q - 1, p - 1))


def cycle_matrix(entries: Iterable[int]) -> SL2Matrix:
    """Product of the factors (c -1; 1 0) over the entries, leftmost first:
    the Moebius map x -> c1 - 1/(c2 - ... - 1/x) of a resolution cycle."""
    entries = tuple(entries)
    _check_ints("cycle entries", entries)
    a, b, c, d = 1, 0, 0, 1
    for e in entries:
        a, b, c, d = a * e + b, -a, c * e + d, -c
    return SL2Matrix(a, b, c, d)


def classify(m: SL2Matrix) -> MatrixClass:
    if m.b == m.c == 0:  # then a = d = +-1
        return MatrixClass.IDENTITY if m.a == 1 else MatrixClass.MINUS_IDENTITY
    t = abs(m.trace)
    if t < 2:
        return MatrixClass.ELLIPTIC
    if t == 2:
        return MatrixClass.PARABOLIC
    return MatrixClass.HYPERBOLIC


def dehn_twist(c: HomologyClass) -> SL2Matrix:
    """Right-handed twist along c acting on H_1: v -> v + <v,c> c."""
    return evaluate_word(((c, 1),))


def evaluate_word(word: TwistWord | Iterable[tuple[HomologyClass, int]]) -> SL2Matrix:
    """Exact product of the twist word, leftmost letter applied last.  The
    twist along c = (m, n) is I + N, N = (mn -m^2; n^2 -mn), and N^2 = 0,
    so its e-th power is I + eN.  The word's pairs are checked by building
    a TwistWord of them."""
    out = (1, 0, 0, 1)
    for c, e in TwistWord(word):
        k = e * c.m
        out = _prod(out, (1 + k * c.n, -k * c.m, e * c.n * c.n, 1 - k * c.n))
    return SL2Matrix(*out)


# ---------------------------------------------------------------------------
# RL-factorization of hyperbolic matrices.
#
# The attracting fixed point of a hyperbolic M with trace t >= 3 is the
# quadratic surd x = (P + sqrt(D))/Q with P = a-d, Q = 2c, D = t^2 - 4.
# Running the ordinary continued fraction of x (the integer PQa recursion)
# eventually cycles; two CF steps x = u1 + 1/(u2 + 1/x') combine into the
# SL2 move R^{u1} L^{u2}, so the cycle is the RL-word and the pre-period
# gives an explicit conjugator.
# ---------------------------------------------------------------------------

def _floor_surd(p: int, q: int, isqrt_d: int) -> int:
    """floor((p + sqrt(d))/q) for non-square d > 0, q != 0."""
    if q > 0:
        return (p + isqrt_d) // q
    return -((p + isqrt_d) // (-q)) - 1


def _word(exps: Iterable[int]) -> tuple[int, int, int, int]:
    """R^{e1} L^{e2} R^{e3} ... as a tuple, with R^e = (1 e; 0 1) and
    L^e = (1 0; e 1)."""
    a, b, c, d = 1, 0, 0, 1
    for i, e in enumerate(exps):
        if i % 2:
            a, c = a + b * e, c + d * e
        else:
            b, d = b + a * e, d + c * e
    return a, b, c, d


def _word_matrix(exps: Iterable[int]) -> SL2Matrix:
    return SL2Matrix(*_word(exps))


@value_class
class RLWord:
    """Cyclic positive word R^{e1} L^{e2} ... R^{e_{2s-1}} L^{e_{2s}}.

    ``sign`` is +1 when the factored matrix itself has positive trace and
    -1 when the factorization was computed for its negative.
    """

    exponents: tuple[int, ...]
    sign: int = 1

    def __post_init__(self):
        if len(self.exponents) == 0 or len(self.exponents) % 2 != 0:
            raise ValueError("exponent tuple must be nonempty of even length")
        _check_ints("exponents", self.exponents, self.exponents)
        if any(e < 1 for e in self.exponents):
            raise ValueError("all exponents must be >= 1")
        _check_ints("sign", (self.sign,))
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be 1 or -1, got {self.sign}")
        object.__setattr__(self, "exponents", tuple(self.exponents))


def _rl_reduce(m: SL2Matrix) -> tuple[tuple[int, ...], SL2Matrix]:
    """Factor hyperbolic m of trace >= 3: returns (exps, P) with

    P * m * P^{-1} = _word_matrix(exps).
    """
    t = m.trace
    if t < 3:
        raise ValueError("positive hyperbolic trace required")
    d = t * t - 4
    sd = math.isqrt(d)
    # c = 0 would force a = d = +-1 and |trace| = 2, impossible here.
    assert m.c != 0
    p_st, q_st = m.a - m.d, 2 * m.c

    states: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    while (p_st, q_st) not in states:
        states[(p_st, q_st)] = len(quotients)
        u = _floor_surd(p_st, q_st, sd)
        quotients.append(u)
        p_st = u * q_st - p_st
        q_st = (d - p_st * p_st) // q_st
    i0 = states[(p_st, q_st)]
    period = quotients[i0:]
    if len(period) % 2 == 1:
        period = period + period

    # one-period word and the power matching the trace
    w0 = w = _word(period)
    k = 1
    while w[0] + w[3] < t:
        w = _prod(w, w0)
        k += 1
    if w[0] + w[3] != t:  # pragma: no cover - guarded by the theory
        raise AssertionError("trace mismatch in RL factorization")
    exps = tuple(period) * k

    # conjugator from the pre-period: x0 = G(x_reduced) with G the product
    # of R^{u_i} iota, iota: t -> 1/t; that is the alternating word
    # R^{u_1} L^{u_2} ..., times a trailing iota when i0 is odd.
    a, b, c, d = _word(quotients[:i0])
    a, b, c, d = d, -b, -c, a  # the inverse
    if i0 % 2:
        # conj*m*conj^-1 is the R<->L swapped word starting with L^{e1};
        # rotate that first block to the back: conj = L^{-e1} * conj.
        e1 = exps[0]
        exps = exps[1:] + (e1,)
        c, d = c - e1 * a, d - e1 * b
    conj = SL2Matrix(a, b, c, d)
    if m.conjugate_by(conj) != _word_matrix(exps):  # pragma: no cover
        raise AssertionError("RL reduction failed to verify")
    return exps, conj


def rl_word(m: SL2Matrix) -> RLWord:
    """Cyclically-reduced RL exponent word of a hyperbolic matrix.

    Matrices of equal trace sign are conjugate iff their words agree up to
    cyclic rotation.  Negative-trace input is factored through -m.
    """
    if classify(m) is not MatrixClass.HYPERBOLIC:
        raise ValueError("rl_word requires a hyperbolic matrix")
    return RLWord(m._rl[0], 1 if m.trace > 0 else -1)


# ---------------------------------------------------------------------------
# Conjugacy decision
# ---------------------------------------------------------------------------


def _conjugate_hyperbolic(m: SL2Matrix, n: SL2Matrix) -> Optional[SL2Matrix]:
    """m and n have one trace, of absolute value >= 3."""
    (exps_m, pm), (exps_n, pn) = m._rl, n._rl
    for k in range(0, len(exps_m), 2):  # the rotations that keep R and L blocks in place
        if exps_m[k:] + exps_m[:k] == exps_n:
            a, b, c, d = _word(exps_m[:k])
            # word(exps_n) = prefix^-1 * word(exps_m) * prefix
            head = _prod((pn.d, -pn.b, -pn.c, pn.a), (d, -b, -c, a))
            return SL2Matrix(*_prod(head, (pm.a, pm.b, pm.c, pm.d)))
    return None


def _reduce(m: SL2Matrix) -> tuple[SL2Matrix, SL2Matrix]:
    """Gauss reduction of the binary form (c, d-a, -b) of m, |trace m| <= 2:
    returns (reduced, P) with P * m * P^{-1} = reduced.

    Conjugating by R^k shifts d-a by -2kc, and by S = (0 -1; 1 0) maps the
    form (A, B, C) to (C, -B, A).  Each class of discriminant t^2 - 4 in
    {0, -3, -4} holds exactly one reduced matrix: +-(1 k; 0 1), or one with
    d-a in (-|c|, |c|] and |c| <= |b|.
    """
    (a, b, c, d), p = (m.a, m.b, m.c, m.d), (1, 0, 0, 1)
    while c:
        span = abs(c)
        k = -((a - d + span) // (2 * span))  # ceil((d-a-|c|) / 2|c|)
        s = k if c > 0 else -k  # conjugate by R^s
        a, b, d, p = a + s * c, b + s * (d - a - s * c), d - s * c, _prod((1, s, 0, 1), p)
        if abs(b) >= span:
            break
        a, b, c, d, p = d, -c, -b, a, _prod((0, -1, 1, 0), p)  # by S
    return SL2Matrix(a, b, c, d), SL2Matrix(*p)


def is_conjugate(m: SL2Matrix, n: SL2Matrix) -> Optional[ConjugacyCertificate]:
    """Decide SL(2,Z)-conjugacy; a certificate or None."""
    if m.trace != n.trace:
        return None
    if abs(m.trace) > 2:
        conj = _conjugate_hyperbolic(m, n)
    else:
        (rm, pm), (rn, pn) = _reduce(m), _reduce(n)
        conj = pn.inverse() * pm if rm == rn else None
    if conj is None:
        return None
    return ConjugacyCertificate(source=m, target=n, conjugator=conj)


def is_conjugate_to_inverse(m: SL2Matrix, n: SL2Matrix) -> Optional[ConjugacyCertificate]:
    """Certificate for m ~ n^{-1}, when one exists."""
    return is_conjugate(m, n.inverse())
