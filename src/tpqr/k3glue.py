"""K3-side bookkeeping: the duality table, critical-point counts, glued
lattices, and the boundary classification for loops in the base of the
Kummer-surface elliptic fibration with two IV* fibers and eight I_1
fibers.

A triple is a sorted int tuple.  Of the other layers only sl2z is loaded
here: ``glued_lattice`` imports quadlattice where it builds a lattice.
The boundary match takes one pass over the fourteen table triples."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from . import _check_ints, _check_triple, value_class
from .sl2z import (
    ALPHA,
    BETA,
    GAMMA,
    ConjugacyCertificate,
    HomologyClass,
    SL2Matrix,
    evaluate_word,
    is_conjugate,
    monodromy_matrix,
)

if TYPE_CHECKING:
    from .quadlattice import GramLattice

__all__ = [
    "DualPair",
    "InoseCase",
    "InoseClassification",
    "GluedVerdict",
    "strange_duality_table",
    "pair_for_triple",
    "critical_count",
    "glued_lattice",
    "inose_monodromy",
    "classify_inose_boundary",
    "SINGULAR_FIBER_EULER",
    "INOSE_FIBER_COUNTS",
]


@value_class
class DualPair:
    left_label: str
    left: tuple[int, int, int]
    right_label: str
    right: tuple[int, int, int]

    def __post_init__(self):
        for name in ("left", "right"):
            triple = tuple(getattr(self, name))
            _check_triple(triple, ValueError)
            object.__setattr__(self, name, triple)

    @property
    def self_dual(self) -> bool:
        return self.left == self.right

    def to_json(self) -> dict:
        return {
            "left": {"label": self.left_label, "triple": list(self.left)},
            "right": {"label": self.right_label, "triple": list(self.right)},
            "self_dual": self.self_dual,
        }


_TABLE = (
    DualPair("E12", (2, 3, 7), "E12", (2, 3, 7)),
    DualPair("Z11", (2, 4, 5), "E13", (2, 3, 8)),
    DualPair("Q10", (3, 3, 4), "E14", (2, 3, 9)),
    DualPair("Z12", (2, 4, 6), "Z12", (2, 4, 6)),
    DualPair("Q11", (3, 3, 5), "Z13", (2, 4, 7)),
    DualPair("Q12", (3, 3, 6), "Q12", (3, 3, 6)),
    DualPair("W12", (2, 5, 5), "W12", (2, 5, 5)),
    DualPair("S11", (3, 4, 4), "W13", (2, 5, 6)),
    DualPair("S12", (3, 4, 5), "S12", (3, 4, 5)),
    DualPair("U12", (4, 4, 4), "U12", (4, 4, 4)),
)


def strange_duality_table() -> tuple[DualPair, ...]:
    """The ten duality pairs (six self-dual) among the fourteen cusp
    triples, keyed by the standard singularity labels."""
    return _TABLE


def pair_for_triple(p: int, q: int, r: int) -> Optional[DualPair]:
    """The table pair with (p,q,r), in any order, on one side; None for
    a triple of indices >= 2 outside the table."""
    _check_triple((p, q, r), ValueError)
    t = tuple(sorted((p, q, r)))
    for pair in _TABLE:
        if t in (pair.left, pair.right):
            return pair
    return None


def critical_count(pair: DualPair) -> int:
    """Total count of fibration critical points over the two sides."""
    if pair not in _TABLE:
        raise ValueError(f"{pair} is not a duality-table pair")
    return sum(pair.left) + sum(pair.right)


@value_class
class GluedVerdict:
    det: int
    signature: tuple[int, int, int]
    parity: str
    unimodular: bool
    isomorphic_to_k3: Optional[bool]

    def to_json(self) -> dict:
        return {
            "det": self.det,
            "signature": list(self.signature),
            "parity": self.parity,
            "unimodular": self.unimodular,
            "isomorphic_to_k3": self.isomorphic_to_k3,
        }


# Rank, inertia and parity of quadlattice.k3_lattice(), 2E8 + 3H.
_K3 = (22, (3, 0, 19), "even")


def glued_lattice(pair: DualPair) -> tuple[GramLattice, GluedVerdict]:
    """T(left) + T(right) + H, unimodular exactly for the (2,3,7) self-pair,
    in which case the sum is the K3 lattice.  H is ``hyperbolic_plane()``:
    e.3 = sigma + F and f.3 = F for a section sigma (sigma^2 = -2) and the
    fiber class F, the isotropic basis with Gram [[0, 1], [1, 0]].

    A unimodular sum is compared with the K3 lattice by its rank, inertia
    and parity, against ``_K3``: by Milnor's classification these fix an
    indefinite unimodular lattice, and the sum is indefinite, as H is.  No
    K3 lattice is built; ``isomorphic_to_k3`` is None for any other sum."""
    if pair not in _TABLE:
        raise ValueError(f"{pair} is not a duality-table pair")
    from . import quadlattice as ql  # the one user of the layer here

    left, right = ql.t_lattice(*pair.left), ql.t_lattice(*pair.right)
    lat = ql.direct_sum(left, right, ql.hyperbolic_plane())
    det, sig, par = ql.discriminant(lat), ql.signature(lat), ql.parity(lat)
    uni = abs(det) == 1
    iso = (lat.rank, sig, par) == _K3 if uni else None
    return lat, GluedVerdict(det, sig, par, uni, iso)


# Euler numbers of the singular fibers of the Kummer-surface fibration:
# eight nodal fibers and two of the star type with five components.
SINGULAR_FIBER_EULER = {"I1": 1, "IV*": 8}
INOSE_FIBER_COUNTS = {"I1": 8, "IV*": 2}


@value_class
class InoseCase:
    """Quadrant counts (c1,c2,c3,c4): how many of the eight simple critical
    values in each quadrant the domain contains; each quadrant holds two."""

    counts: tuple[int, int, int, int]

    def __post_init__(self):
        _check_ints("quadrant counts", self.counts, self.counts)
        if len(self.counts) != 4 or any(c not in (0, 1, 2) for c in self.counts):
            raise ValueError("quadrant counts must be four values in {0,1,2}")
        object.__setattr__(self, "counts", tuple(self.counts))


def inose_monodromy(
    case: InoseCase,
    gamma: HomologyClass = GAMMA,
) -> SL2Matrix:
    """Boundary monodromy of a star-convex domain with the given quadrant
    counts: (ta tb)^4 ta^{c4} tb^{c3} tg^{c2} ta^{c1}, rightmost first.

    ``gamma`` is the third curve; the default (1,-1) is the convention
    fixed by requiring all four classified cases to match.
    """
    c1, c2, c3, c4 = case.counts
    word = [(ALPHA, 1), (BETA, 1)] * 4 + [
        (ALPHA, c4),
        (BETA, c3),
        (gamma, c2),
        (ALPHA, c1),
    ]
    return evaluate_word(word)


@value_class
class InoseClassification:
    triple: tuple[int, int, int]  # sorted
    side: str  # "direct": monodromy ~ A; "inverse": monodromy ~ A^{-1}
    certificate: ConjugacyCertificate


def classify_inose_boundary(
    case: InoseCase, gamma: HomologyClass = GAMMA
) -> Optional[InoseClassification]:
    """Match the boundary monodromy against the fourteen table triples.

    Accepts conjugacy to A or to A^{-1} and records which side matched.
    The inverse side is consulted first: under the fixed twist convention
    the computed boundary word lands uniformly in the inverse class of the
    link-monodromy normalization (the boundary circle is traversed
    opposite to it), and preferring one side keeps dual pairs - whose
    monodromies are inverse-conjugate to each other - unambiguous.
    """
    m = inose_monodromy(case, gamma)
    inverse, direct = [], []  # the matches of each side, as (triple, side, certificate)
    for t in sorted({pair.left for pair in _TABLE} | {pair.right for pair in _TABLE}):
        a = monodromy_matrix(*t)
        to_inverse, to_direct = is_conjugate(m, a.inverse()), is_conjugate(m, a)
        if to_inverse is not None:
            inverse.append((t, "inverse" if to_direct is None else "both", to_inverse))
        if to_direct is not None:
            direct.append((t, "direct" if to_inverse is None else "both", to_direct))
    for matches in (inverse, direct):
        if len(matches) == 1:
            return InoseClassification(*matches[0])
        if len(matches) > 1:  # pragma: no cover - distinct triples, distinct classes
            raise AssertionError(f"ambiguous classification: {matches}")
    return None
