import itertools
import re
from collections import Counter

import pytest

from conftest import (
    all_triples,
    glued_word,
    mat2,
    meyer_signature,
    two_pass_inose_classification,
    unimodular_indefinite_isomorphic,
    word_letters,
)
from tpqr import cli, k3glue, quadlattice
from tpqr.cuspdual import CuspDualityError, _duality
from tpqr.k3glue import (
    INOSE_FIBER_COUNTS,
    SINGULAR_FIBER_EULER,
    DualPair,
    InoseCase,
    classify_inose_boundary,
    critical_count,
    glued_lattice,
    inose_monodromy,
    pair_for_triple,
    strange_duality_table,
)
from tpqr.quadlattice import discriminant, k3_lattice, parity, signature, t_lattice
from tpqr.sl2z import (
    GAMMA,
    HomologyClass,
    SL2Matrix,
    evaluate_word,
    is_conjugate,
    is_conjugate_to_inverse,
    monodromy_matrix,
)


def test_table_structure():
    table = strange_duality_table()
    assert len(table) == 10
    assert sum(1 for p in table if p.self_dual) == 6
    assert sum(1 for p in table if not p.self_dual) == 4
    triples = {p.left for p in table} | {p.right for p in table}
    assert len(triples) == 14
    assert any(p.left == p.right == (2, 3, 7) for p in table)
    assert any({p.left, p.right} == {(2, 4, 5), (2, 3, 8)} for p in table)


def test_pair_lookup():
    pair = pair_for_triple(2, 3, 8)
    assert pair is not None and {pair.left, pair.right} == {(2, 4, 5), (2, 3, 8)}
    assert pair_for_triple(5, 5, 5) is None


def test_critical_count():
    for pair in strange_duality_table():
        assert critical_count(pair) == 24
    with pytest.raises(ValueError):
        critical_count(DualPair("X", (2, 2, 2), "X", (2, 2, 2)))


def test_a_pair_built_from_lists_is_the_table_pair():
    e12 = pair_for_triple(2, 3, 7)
    pair = DualPair("E12", [2, 3, 7], "E12", [2, 3, 7])
    assert pair == e12 and hash(pair) == hash(e12)
    assert pair.left == pair.right == (2, 3, 7) and type(pair.left) is tuple
    assert critical_count(pair) == 24


@pytest.mark.parametrize(
    "left, right, error, message",
    [
        ((2.0, 3, 7), (2, 3, 7), TypeError, "integer triple required, got (2.0, 3, 7)"),
        ((2, 3, 7), (2, 3, True), TypeError, "integer triple required, got (2, 3, True)"),
        ((2, 3), (2, 3, 7), TypeError, "integer triple required, got (2, 3)"),
        ((2, 3, 7), (2, 3, 7, 7), TypeError, "integer triple required, got (2, 3, 7, 7)"),
        ((1, 3, 7), (2, 3, 7), ValueError, "indices must be >= 2, got (1,3,7)"),
    ],
)
def test_a_pair_refuses_a_side_that_is_not_three_indices(left, right, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        DualPair("E12", left, "E12", right)


def test_boundary_gluing_inverse_conjugacy_all_pairs():
    for pair in strange_duality_table():
        a = monodromy_matrix(*pair.left)
        b = monodromy_matrix(*pair.right)
        cert = is_conjugate_to_inverse(a, b)
        assert cert is not None and cert.verify(), pair


def test_the_gluing_condition_picks_the_duality_pairs():
    """Exhaustive over the 26 cusp triples with p+q+r <= 14.

    ``_duality`` refuses a triple whose dual cycle would be longer than 3
    by the length rule sum(c - 2) <= 3 over the entries c of
    ``triple_to_cycle``.  With p <= q <= r that sum is p+q+r-9 for p >= 3
    (entries q-1, r-1, p-1), q+r-8 for p = 2, q >= 4 (entries q-2, r-2)
    and r-6 for (2, 3, r) (entry r-4).  A triple with a hypersurface dual
    thus has p+q+r <= 12, 13 or 14, and every cusp triple past 14 is
    refused, so within that bound the scan is complete.  There:
    ``_duality`` succeeds on exactly the 14 table triples, the boundary
    monodromies are inverse-conjugate, M(u) ~ M(t)^-1, for exactly the 10
    table pairs, and each such pair totals 24 critical points.  The
    inverse-conjugacy relation is scanned only within the bound."""
    triples = [t for t in all_triples(14, strict=True) if sum(t) <= 14]
    assert len(triples) == 26
    table = strange_duality_table()

    def has_dual(triple):
        try:
            _duality(*triple)
        except CuspDualityError:
            return False
        return True

    assert {t for t in triples if has_dual(t)} == {x for pair in table for x in (pair.left, pair.right)}
    matrices = {t: monodromy_matrix(*t) for t in triples}
    glued = {(u, t) for u, t in itertools.combinations_with_replacement(triples, 2)
             if is_conjugate(matrices[u], matrices[t].inverse()) is not None}
    assert glued == {tuple(sorted((pair.left, pair.right))) for pair in table}
    assert all(sum(u) + sum(t) == 24 for u, t in glued)


def test_glued_lattice_237():
    pair = pair_for_triple(2, 3, 7)
    lat, verdict = glued_lattice(pair)
    assert lat.rank == 22
    assert verdict.signature == (3, 0, 19)
    assert abs(verdict.det) == 1
    assert verdict.parity == "even"
    assert verdict.unimodular and verdict.isomorphic_to_k3
    # H as hyperbolic_plane() returns it: e = section + fiber, f = fiber
    assert lat.labels[-2:] == ("e.3", "f.3")
    assert [row[-2:] for row in lat.gram[-2:]] == [(0, 1), (1, 0)]


def test_glued_lattice_z11_e13_not_unimodular():
    pair = pair_for_triple(2, 4, 5)
    _, verdict = glued_lattice(pair)
    # disc T(2,4,5) = disc T(2,3,8) = -2 in magnitude 2; H contributes -1
    assert abs(discriminant(t_lattice(2, 4, 5))) == 2
    assert abs(discriminant(t_lattice(2, 3, 8))) == 2
    assert abs(verdict.det) == 4
    assert not verdict.unimodular and verdict.isomorphic_to_k3 is None


def test_the_glue_reads_the_k3_lattices_invariants():
    """``_K3`` is the rank, inertia and parity of ``k3_lattice()``, and on
    each pair the verdict agrees with the rank/signature/parity oracle
    against the K3 lattice when the glue is unimodular."""
    k3 = k3_lattice()
    assert k3glue._K3 == (k3.rank, signature(k3), parity(k3))
    for pair in strange_duality_table():
        lat, verdict = glued_lattice(pair)
        want = unimodular_indefinite_isomorphic(lat, k3) if verdict.unimodular else None
        assert verdict.isomorphic_to_k3 is want, pair


def test_no_glue_builds_the_k3_lattice(monkeypatch, capsys):
    """``k3 --pair`` on each of the 14 table triples builds no K3 lattice;
    ``lattice k3`` builds it once."""
    calls = []

    def counted(_fn=quadlattice.k3_lattice):
        calls.append(1)
        return _fn()

    monkeypatch.setattr(quadlattice, "k3_lattice", counted)
    triples = sorted({t for pair in strange_duality_table() for t in (pair.left, pair.right)})
    assert len(triples) == 14
    for t in triples:
        assert cli.main(["k3", "--pair", ",".join(map(str, t)), "--json"]) == 0, t
    assert calls == []
    assert cli.main(["lattice", "k3", "--json"]) == 0
    assert calls == [1]
    capsys.readouterr()


def test_glued_lattice_unimodular_only_for_237():
    for pair in strange_duality_table():
        _, verdict = glued_lattice(pair)
        expect = pair.left == pair.right == (2, 3, 7)
        assert verdict.unimodular == expect, pair
        # determinant factorizes over the three summands
        det = (
            discriminant(t_lattice(*pair.left))
            * discriminant(t_lattice(*pair.right))
            * -1
        )
        assert verdict.det == det


def test_the_twists_of_each_duality_pair_multiply_to_the_identity():
    for pair in strange_duality_table():
        word = glued_word(pair)
        assert sum(e for _, e in word) == 24, pair
        assert evaluate_word(word) == SL2Matrix(1, 0, 0, 1), pair


def test_the_meyer_signature_of_each_glued_word_is_that_of_k3():
    pos, zero, neg = signature(k3_lattice())
    assert (pos, zero, neg) == (3, 0, 19)
    for pair in strange_duality_table():
        word = glued_word(pair)
        classes = word_letters(word)
        assert len(classes) == 24 and evaluate_word(word) == SL2Matrix(1, 0, 0, 1), pair
        assert meyer_signature(classes) == pos - neg == -16, pair


def test_inose_monodromy_cases():
    # direct 2x2 products frozen from the fixed twist convention
    assert inose_monodromy(InoseCase((0, 0, 2, 2))) == mat2(((2, 1), (1, 1)))
    m2 = inose_monodromy(InoseCase((0, 2, 0, 2)))
    assert m2 == mat2(((2, 3), (3, 5))) and m2.trace == 7
    assert monodromy_matrix(2, 5, 5).trace == 7
    m0 = inose_monodromy(InoseCase((0, 0, 0, 0)))
    assert m0 == mat2(((0, 1), (-1, -1)))
    from tpqr.sl2z import MatrixClass, classify

    assert classify(m0) is MatrixClass.ELLIPTIC


def test_inose_case_validation():
    with pytest.raises(ValueError):
        InoseCase((0, 3, 0, 0))
    with pytest.raises(ValueError):
        InoseCase((1, 1))


@pytest.mark.parametrize(
    "case,triple,trace",
    [
        ((0, 0, 2, 2), (2, 3, 7), 3),
        ((0, 2, 0, 2), (2, 5, 5), 7),
        ((0, 1, 0, 2), (2, 4, 5), 4),
        ((0, 2, 1, 2), (2, 3, 8), 4),
    ],
)
def test_boundary_classification(case, triple, trace):
    m = inose_monodromy(InoseCase(case))
    assert m.trace == trace
    cls = classify_inose_boundary(InoseCase(case))
    assert cls is not None
    assert cls.triple == triple
    assert cls.certificate.verify()
    # self-dual monodromies match on both sides, dual pairs on one
    assert cls.side == ("both" if triple in ((2, 3, 7), (2, 5, 5)) else "inverse")


def test_trace4_cases_distinguish_the_dual_pair():
    a = inose_monodromy(InoseCase((0, 1, 0, 2)))
    b = inose_monodromy(InoseCase((0, 2, 1, 2)))
    assert a.trace == b.trace == 4
    assert is_conjugate(a, b) is None
    # within the preferred side the match is unique
    assert classify_inose_boundary(InoseCase((0, 1, 0, 2))).triple == (2, 4, 5)
    assert classify_inose_boundary(InoseCase((0, 2, 1, 2))).triple == (2, 3, 8)


def test_no_match_case():
    assert classify_inose_boundary(InoseCase((0, 0, 0, 0))) is None


def test_alternative_gamma_convention_fails_case_two():
    # the convention gamma=(1,1) breaks the trace of the second case,
    # documenting why gamma=(1,-1) is the right third curve
    bad = HomologyClass(1, 1)
    m = inose_monodromy(InoseCase((0, 2, 0, 2)), gamma=bad)
    assert m.trace != 7
    good = inose_monodromy(InoseCase((0, 2, 0, 2)), gamma=GAMMA)
    assert good.trace == 7


def test_euler_number_bookkeeping():
    total = sum(
        SINGULAR_FIBER_EULER[kind] * count for kind, count in INOSE_FIBER_COUNTS.items()
    )
    assert total == 24
    assert INOSE_FIBER_COUNTS == {"I1": 8, "IV*": 2}


def test_all_81_quadrant_cases_classify_unambiguously():
    classified = 0
    for counts in itertools.product((0, 1, 2), repeat=4):
        out = classify_inose_boundary(InoseCase(counts))
        if out is not None:
            assert out.certificate.verify()
            classified += 1
    assert classified == 22  # frozen census over the full case space


def test_each_inose_domain_and_its_complement_are_a_duality_pair():
    # the complement, with counts 2 - c, holds the other IV* fiber and the
    # other 8 - sum(c) nodal fibers of the Kummer fibration
    census = Counter()
    for counts in itertools.product((0, 1, 2), repeat=4):
        case, complement = InoseCase(counts), InoseCase(tuple(2 - c for c in counts))
        domain, other = classify_inose_boundary(case), classify_inose_boundary(complement)
        assert (domain is None) == (other is None), counts
        m, m_complement = inose_monodromy(case), inose_monodromy(complement)
        assert is_conjugate(m_complement, m.inverse()) is not None, counts
        if domain is None:
            continue
        pair = pair_for_triple(*domain.triple)
        assert (domain.triple, other.triple) in ((pair.left, pair.right), (pair.right, pair.left)), counts
        assert 8 + sum(counts) == sum(domain.triple), counts  # Euler: chi of T_pqr's fiber is p+q+r
        census[pair.left_label, pair.right_label] += 1
    assert census == {("E12", "E12"): 12, ("Z11", "E13"): 8, ("W12", "W12"): 2}


@pytest.mark.parametrize("gamma", [GAMMA, HomologyClass(1, 1)], ids=["gamma-1-minus-1", "gamma-1-1"])
def test_one_pass_classification_equals_the_two_pass_oracle(gamma, monkeypatch):
    """The same (triple, side, certificate) on all 81 quadrant cases, with
    each table triple's monodromy matrix built once per call."""
    built = []

    def counted(*t):
        built.append(t)
        return monodromy_matrix(*t)

    monkeypatch.setattr(k3glue, "monodromy_matrix", counted)
    sides = set()
    for counts in itertools.product((0, 1, 2), repeat=4):
        case = InoseCase(counts)
        built.clear()
        got = classify_inose_boundary(case, gamma)
        assert len(built) == len(set(built)) == 14, counts
        assert got == two_pass_inose_classification(case, gamma), counts
        sides.add(None if got is None else got.side)
    assert {None, "inverse", "both"} <= sides
