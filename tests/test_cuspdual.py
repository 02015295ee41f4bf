import itertools
import math
import random
import sys
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    Quad,
    all_rotations_canonical,
    basis_solve_action,
    block_key_canonical,
    brute_conjugator,
    rotation_alpha_v,
    rotation_dual_cycle,
)
from tpqr.cuspdual import (
    CuspDualityError,
    CycleData,
    QuadIrrational,
    _squarefree,
    alpha_v,
    cf_value,
    cycle_to_triple,
    dual_cycle,
    dual_triple,
    module_action_matrix,
    triple_to_cycle,
    verify_duality,
)
from tpqr.sl2z import cycle_matrix, is_conjugate, is_conjugate_to_inverse, monodromy_matrix

TABLE = [
    (2, 3, 7),
    (2, 4, 5),
    (3, 3, 4),
    (2, 3, 8),
    (2, 4, 6),
    (3, 3, 5),
    (2, 3, 9),
    (2, 4, 7),
    (3, 3, 6),
    (2, 5, 5),
    (3, 4, 4),
    (2, 5, 6),
    (3, 4, 5),
    (4, 4, 4),
]

DUALS = {
    (2, 3, 7): (2, 3, 7),
    (2, 4, 5): (2, 3, 8),
    (3, 3, 4): (2, 3, 9),
    (2, 4, 6): (2, 4, 6),
    (3, 3, 5): (2, 4, 7),
    (3, 3, 6): (3, 3, 6),
    (2, 5, 5): (2, 5, 5),
    (3, 4, 4): (2, 5, 6),
    (3, 4, 5): (3, 4, 5),
    (4, 4, 4): (4, 4, 4),
}
DUALS.update({v: k for k, v in DUALS.items()})


def valid_cycles(max_len=8, max_entry=9):
    return (
        st.lists(st.integers(2, max_entry), min_size=1, max_size=max_len)
        .filter(lambda e: any(c >= 3 for c in e))
        .map(lambda e: CycleData(tuple(e)))
    )


# --- QuadIrrational canonical form; field arithmetic of the oracle --------------


def test_quad_canonical_form():
    x = QuadIrrational(2, 2, 4, 12)  # (2 + 2*sqrt(12))/4 = (1+2sqrt(3))/2
    assert (x.a, x.b, x.c, x.d) == (1, 2, 2, 3)
    y = QuadIrrational(3, 1, 1, 9)  # 3 + 3 = 6
    assert (y.a, y.b, y.c, y.d) == (6, 0, 1, 1)
    with pytest.raises(ZeroDivisionError):
        QuadIrrational(1, 1, 0, 5)


def test_quad_str_forms():
    assert str(QuadIrrational(2, 1, 1, 3)) == "2+sqrt(3)"
    assert str(QuadIrrational(3, 1, 2, 3)) == "(3+sqrt(3))/2"
    assert str(QuadIrrational(0, -1, 1, 5)) == "-sqrt(5)"
    assert str(QuadIrrational(7, 0, 2, 1)) == "7/2"


def test_quad_json_round_trip():
    x = QuadIrrational(3, -2, 5, 7)
    assert QuadIrrational.from_json(x.to_json()) == x


@given(
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(1, 20),
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(1, 20),
)
@settings(max_examples=80, deadline=None)
def test_quad_field_axioms(a1, b1, c1, a2, b2, c2):
    d = 3
    x = Quad(a1, b1, c1, d)
    y = Quad(a2, b2, c2, d)
    assert (x + y) - y == x
    assert x * y == y * x
    if not (y.a == 0 and y.b == 0):
        assert (x * y) / y == x
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    # norm and trace through conjugation
    assert (x * x.conjugate()).is_rational
    assert Fraction((x + x.conjugate()).a, (x + x.conjugate()).c) == x.trace()


LARGE_PRIME_PAIRS = [
    (),
    (999983,),
    (1000003,),
    (999983, 1000003),
    (1000003, 1000033),
    (1000003, 1000003),
    (1000039, 1000039),
]


@given(
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
    st.sampled_from(LARGE_PRIME_PAIRS),
)
@example([1, 1, 0], (1000003, 1000003))  # 6 * 1000003^2 -> (1000003, 6)
@settings(max_examples=100, deadline=None)
def test_squarefree_against_factorisation(small, large):
    # n < 10^18 built from known primes, square factors above the 10^6
    # trial-division bound included: (s, d) follows from the exponents
    factors = [2] * small[0] + [3] * small[1] + [5] * small[2] + list(large)
    n, s, d = 1, 1, 1
    for f in set(factors):
        e = factors.count(f)
        n *= f**e
        s *= f ** (e // 2)
        d *= f ** (e % 2)
    assert n < 10**18
    assert _squarefree(n) == (s, d)


LARGE_PRIMES = [999983, 1000003, 1000033, 1000037]


@given(
    st.integers(-10**6, 10**6),
    st.integers(-30, 30),
    st.integers(-30, 30).filter(bool),
    st.one_of(st.integers(1, 10**12), st.sampled_from(LARGE_PRIMES)),
    st.one_of(st.integers(1, 100), st.sampled_from(LARGE_PRIMES)),
)
@example(1, 1, 1, 1000033, 1000003)  # d k^2 > 10^18, square prime above 10^6
@example(1, 1, 1, 2, 999983)  # d k^2 < 10^18
@settings(max_examples=150, deadline=None)
def test_the_constructor_depends_on_the_number_only(a, b, c, d, k):
    assert QuadIrrational(a, b * k, c, d) == QuadIrrational(a, b, c, d * k * k)


def _radicands():
    """d = m * k^2 * (primes of LARGE_PRIME_PAIRS): square factors, square
    primes above 10^6, and discriminants on both sides of 10^18."""
    return st.builds(
        lambda m, k, large: m * k * k * math.prod(large),
        st.integers(1, 10**6),
        st.one_of(st.integers(1, 100), st.sampled_from(LARGE_PRIMES)),
        st.sampled_from(LARGE_PRIME_PAIRS),
    )


@given(
    st.integers(-10**6, 10**6),
    st.integers(-30, 30),
    st.integers(-30, 30).filter(bool),
    st.one_of(st.integers(1, 100), _radicands()),
)
@example(0, 1, 1, 8)  # sqrt(8) = 2*sqrt(2)
@example(1, 1, 2, 20)  # (1+sqrt(20))/2 = (1+2*sqrt(5))/2
@example(1, 1, -2, 5)  # c < 0
@example(3, 0, 2, 7)  # rational, d != 1
@example(2, 0, 4, 1)  # not gcd-reduced
@example(1, 1, 1, 1000033 * 1000003**2)  # disc > 10^18
@settings(max_examples=150, deadline=None)
def test_the_constructor_is_the_one_normaliser(a, b, c, d):
    x = QuadIrrational(a, b, c, d)
    assert vars(QuadIrrational(**vars(x))) == vars(x)  # canonical values are fixed points
    assert x.c > 0 and math.gcd(x.a, x.b, x.c) == 1 and (x.b == 0) == (x.d == 1)
    assert math.isclose(float(x), (a + b * math.sqrt(d)) / c, rel_tol=1e-12, abs_tol=1e-6)


@pytest.mark.parametrize("length", [1, 2, 3, 10, 100, 400, 1000])
def test_float_is_within_one_ulp_however_long_the_coefficients(length):
    """float() of cf_value and alpha_v against a 1200-digit decimal
    evaluation, on aperiodic cycles whose coefficients pass the double
    range long before their values do: (3)^399 (4) has d of 1112 bits.
    A value past the double range raises OverflowError."""
    rng = random.Random(length)
    cycles = [(3,) * (length - 1) + (4,)]
    while len(cycles) < 4:
        cycle = tuple(rng.choice((2, 2, 3, 4, 5, 6)) for _ in range(length))
        if max(cycle) >= 3 and all(cycle != cycle[k:] + cycle[:k] for k in range(1, length)):
            cycles.append(cycle)
    with localcontext() as ctx:
        ctx.prec = 1200
        for cycle in cycles:
            for x in (cf_value(CycleData(cycle)), alpha_v(CycleData(cycle))):
                exact = (Decimal(x.a) + Decimal(x.b) * Decimal(x.d).sqrt()) / x.c
                if exact > sys.float_info.max:
                    with pytest.raises(OverflowError):
                        float(x)
                    continue
                f = float(x)
                assert abs(Decimal(f) - exact) <= Decimal(math.ulp(f)), (cycle, x)


def test_squarefree_refuses_from_the_bound():
    assert _squarefree(10**18 - 1) == (9, (10**18 - 1) // 81)  # 3^4 * 7 * 11 * ...
    with pytest.raises(ValueError):
        _squarefree(10**18)


def test_alpha_v_past_the_bound_is_keyed_by_its_discriminant():
    t = 2 + 1000003**2 * 1000033  # t^2 - 4 = (t - 2)(t + 2) has the square 1000003^2
    alpha = alpha_v(CycleData((t,)))
    assert (alpha.a, alpha.b, alpha.c, alpha.d) == (t, 1, 2, t * t - 4)
    assert QuadIrrational.from_json(alpha.to_json()) == alpha


def test_quad_comparisons_exact():
    root3 = Quad(0, 1, 1, 3)
    assert root3 > Fraction(17, 10)
    assert not root3 > Fraction(174, 100)
    assert root3 < Fraction(7, 4)


def test_incompatible_fields_rejected():
    with pytest.raises(ValueError):
        Quad(0, 1, 1, 2) + Quad(0, 1, 1, 3)
    # rationals embed into any field
    assert Quad(0, 1, 1, 2) + Quad.rational(2) == (
        QuadIrrational(2, 1, 1, 2)
    )


# --- cycles ---------------------------------------------------------------------


def test_cycle_invariants():
    with pytest.raises(CuspDualityError):
        CycleData((2, 2, 2))
    with pytest.raises(CuspDualityError):
        CycleData((3, 1))
    with pytest.raises(CuspDualityError):
        CycleData(())


def test_canonical_rotation():
    c = CycleData((2, 2, 5, 2, 3))
    assert c.canonical().entries == (3, 2, 2, 5, 2)
    assert c.canonical() == CycleData((5, 2, 3, 2, 2)).canonical()


@st.composite
def block_cycles(draw):
    """Cycles where the block keys of ``canonical`` tie or wrap: random
    ones, single entries, periodic ones ((3,2)^k, (4,2,3,2)^k or a random
    period) and runs of 2s that cross the end."""
    kind = draw(st.sampled_from(["random", "single", "periodic", "wrap"]))
    if kind == "single":
        return (draw(st.integers(3, 40)),)
    period = draw(st.one_of(
        st.sampled_from([(3, 2), (4, 2, 3, 2)]),
        st.lists(st.integers(2, 5), min_size=1, max_size=6).map(tuple),
    ))
    if kind == "periodic":
        entries = period * draw(st.integers(1, 30))
    else:
        entries = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=60)))
    if kind == "wrap":
        entries = (2,) * draw(st.integers(1, 5)) + entries + (2,) * draw(st.integers(1, 5))
    assume(any(c >= 3 for c in entries))
    return entries


@given(block_cycles(), st.integers(0, 200))
@settings(max_examples=600, deadline=None)
@example((3, 2) * 7, 3)
@example((4, 2, 3, 2) * 5, 1)
@example((2, 2, 3, 2, 3, 2, 2, 2), 0)
@example((7,), 0)
@example((3, 2) * 500, 1)
@example((3,) * 500 + (4,), 7)
@example((4, 2, 3, 2) * 200, 2)
def test_canonical_and_the_dual_match_the_all_rotations_oracle(entries, shift):
    """The block-key rotation is the one the full comparison of all
    rotations picks, so ``canonical`` and ``dual_cycle`` answer as the
    earlier code did, from any starting rotation, tied blocks included."""
    shift %= len(entries)
    cycle = CycleData(entries[shift:] + entries[:shift])
    assert cycle.canonical() == all_rotations_canonical(cycle) == block_key_canonical(cycle)
    assert dual_cycle(cycle) == rotation_dual_cycle(cycle)


def test_triple_to_cycle_three_cases():
    assert triple_to_cycle(2, 3, 8).entries == (4,)
    assert triple_to_cycle(3, 3, 4).entries == (2, 3, 2)
    assert triple_to_cycle(2, 3, 7).entries == (3,)
    assert triple_to_cycle(2, 4, 6).entries == (2, 4)
    with pytest.raises(CuspDualityError):
        triple_to_cycle(3, 3, 3)  # parabolic: no cusp cycle


def test_cycle_to_triple_inverts():
    assert cycle_to_triple(CycleData((4,))) == (2, 3, 8)
    assert cycle_to_triple(CycleData((2, 3, 2))) == (3, 3, 4)
    assert cycle_to_triple(CycleData((3, 3, 3, 3))) is None
    for t in TABLE:
        assert cycle_to_triple(triple_to_cycle(*t)) == t


def test_dual_cycle_examples():
    assert dual_cycle(CycleData((3, 2))).entries == (4,)
    assert dual_cycle(CycleData((3,))).entries == (3,)
    assert dual_cycle(CycleData((4,))).canonical() == CycleData((3, 2)).canonical()


@given(valid_cycles())
@settings(max_examples=200, deadline=None)
def test_dual_cycle_involution(cycle):
    assert dual_cycle(dual_cycle(cycle)).canonical() == cycle.canonical()


@given(valid_cycles(max_len=12))
@settings(max_examples=200, deadline=None)
def test_dual_cycle_equals_the_all_rotations_oracle(cycle):
    assert dual_cycle(cycle) == rotation_dual_cycle(cycle)
    rotated = CycleData(cycle.entries[1:] + cycle.entries[:1])
    assert dual_cycle(rotated) == dual_cycle(cycle)


def test_dual_cycle_of_a_long_cycle_stays_small():
    cycle = CycleData((3,) + (2,) * 1999)
    tracemalloc.start()
    try:
        dual = dual_cycle(cycle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dual.entries == (2002,)
    assert peak < 2**20


def test_dual_triple_reproduces_table():
    for t in TABLE:
        assert dual_triple(*t) == DUALS[t], t
    # involution on the table
    for t in TABLE:
        assert dual_triple(*dual_triple(*t)) == t


def test_dual_triple_reports_long_cycles():
    # (5,5,5) has self-cycle of length > 3 on the resolution side
    with pytest.raises(CuspDualityError):
        dual_triple(5, 5, 5)


# --- continued fractions ---------------------------------------------------------


def test_cf_values_of_the_worked_example():
    assert cf_value(CycleData((4,))) == QuadIrrational(2, 1, 1, 3)
    assert cf_value(CycleData((3, 2))) == QuadIrrational(3, 1, 2, 3)
    assert cf_value(CycleData((2, 3))) == QuadIrrational(3, 1, 3, 3)


def _nested_cf_oracle(entries, value):
    """Independent fixed-point check: value == c1 - 1/(c2 - ... - 1/value)."""
    x = Quad.of(value)
    for c in reversed(entries):
        x = Quad.rational(c) - x.inverse()
    return x == value


@given(valid_cycles(max_len=6, max_entry=7))
@example(CycleData((6, 7, 6, 6, 5, 5, 7, 6, 6, 7, 7, 6)))  # radicand above 10^18
@settings(max_examples=120, deadline=None)
def test_cf_fixed_point_and_root_selection(cycle):
    w = Quad.of(cf_value(cycle))
    assert _nested_cf_oracle(cycle.entries, w)
    assert w > Fraction(1)
    conj = w.conjugate()
    assert Quad.rational(0) < conj < Quad.rational(1)


@given(valid_cycles(max_len=60, max_entry=40))
@settings(max_examples=100, deadline=None)
def test_cycle_matrix_lower_left_entry_is_positive(cycle):
    # the sign rule by which cf_value takes the + root
    assert cycle_matrix(cycle.entries).c > 0


@given(valid_cycles(max_len=5, max_entry=6))
@settings(max_examples=80, deadline=None)
def test_alpha_v_is_a_norm_one_unit(cycle):
    a = Quad.of(alpha_v(cycle))
    assert a.norm() == 1
    assert a * a.conjugate() == Quad.rational(1)
    assert a > Fraction(1)


def test_alpha_v_norm_one_on_hundred_full_range_cycles():
    import random

    rng = random.Random(17)
    done = 0
    while done < 100:
        entries = tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 8)))
        if all(c == 2 for c in entries):
            continue
        a = Quad.of(alpha_v(CycleData(entries)))
        assert a.norm() == 1, entries
        done += 1


def test_alpha_v_of_the_worked_example():
    two_plus_root3 = QuadIrrational(2, 1, 1, 3)
    assert alpha_v(CycleData((3, 2))) == two_plus_root3
    assert alpha_v(CycleData((4,))) == two_plus_root3


@given(valid_cycles(max_len=12, max_entry=7))
# radicands above 10^18: omega's is alpha_v's divided by 8^2
@example(CycleData((6, 7, 6, 6, 5, 5, 7, 6, 6, 7, 7, 6)))
@settings(max_examples=100, deadline=None)
def test_closed_forms_match_rotation_and_basis_solve_oracles(cycle):
    assert alpha_v(cycle) == rotation_alpha_v(cycle)
    assert module_action_matrix(cycle) == basis_solve_action(cycle)


# --- module action -----------------------------------------------------------------


def test_module_action_entries_from_expansion():
    m = module_action_matrix(CycleData((3, 2)))
    # alpha = 2+sqrt(3), omega = (3+sqrt(3))/2:
    #   alpha * 1     = -1 + 2 omega
    #   alpha * omega = -3 + 5 omega
    alpha = Quad.of(alpha_v(CycleData((3, 2))))
    omega = Quad.of(cf_value(CycleData((3, 2))))
    assert alpha == Quad.rational(-1) + omega * 2
    assert alpha * omega == Quad.rational(-3) + omega * 5
    assert (m.a, m.b, m.c, m.d) == (-1, 2, -3, 5)
    assert m.trace == 4


def test_module_action_preserves_module_on_random_elements():
    cycle = CycleData((4, 2, 3))
    m = module_action_matrix(cycle)
    alpha = Quad.of(alpha_v(cycle))
    omega = Quad.of(cf_value(cycle))
    for s, t in [(1, 0), (0, 1), (3, -2), (-5, 7)]:
        value = Quad.rational(s) + omega * t
        image = alpha * value
        # row-vector convention: (s, t) . M gives the new coordinates
        s2 = s * m.a + t * m.c
        t2 = s * m.b + t * m.d
        assert image == Quad.rational(s2) + omega * t2


def test_module_action_trace_identity_and_det():
    for cycle in [CycleData((3, 2)), CycleData((5, 2, 2)), CycleData((3, 3, 3))]:
        m = module_action_matrix(cycle)
        a = Quad.of(alpha_v(cycle))
        assert Fraction(m.trace) == a.trace()
        assert m.a * m.d - m.b * m.c == 1


def test_module_action_conjugate_to_monodromy():
    m = module_action_matrix(CycleData((3, 2)))
    cert = is_conjugate(m, monodromy_matrix(2, 3, 8))
    assert cert is not None and cert.verify()
    # and the brute-force oracle agrees
    assert brute_conjugator(m, monodromy_matrix(2, 3, 8)) is not None


def test_actions_of_dual_cycles_are_inverse_conjugate():
    for t in TABLE:
        dual_side = triple_to_cycle(*t)
        self_cycle = dual_cycle(dual_side)
        a = module_action_matrix(self_cycle)
        b = module_action_matrix(dual_side)
        assert is_conjugate_to_inverse(a, b) is not None, t
        assert (a, b) == (basis_solve_action(self_cycle), basis_solve_action(dual_side))
        assert alpha_v(self_cycle) == rotation_alpha_v(self_cycle), t
    # but not plainly conjugate for a genuinely non-self-dual pair
    a = module_action_matrix(CycleData((3, 2)))
    b = module_action_matrix(CycleData((4,)))
    assert is_conjugate(a, b) is None


# --- full reports --------------------------------------------------------------------


def test_the_cycle_matrix_is_multiplied_out_once_per_cycle(monkeypatch):
    from tpqr import cuspdual

    calls = []

    def counted(entries):
        calls.append(entries)
        return cycle_matrix(entries)

    monkeypatch.setattr(cuspdual, "cycle_matrix", counted)
    cycle = CycleData((5, 2, 2, 3, 4))
    for _ in range(2):
        cf_value(cycle), alpha_v(cycle), module_action_matrix(cycle)
    assert calls == [cycle.entries]
    calls.clear()
    verify_duality(3, 4, 5)
    assert len(calls) == 2  # the cycle of each side


@pytest.mark.parametrize("p, q, r", [(3, 4, 5), (2, 3, 7)])
def test_verify_duality_builds_each_cycle_once(monkeypatch, p, q, r):
    from tpqr import cuspdual

    calls = []
    for name in ("triple_to_cycle", "dual_cycle", "cycle_to_triple"):
        def counted(*args, _f=getattr(cuspdual, name), _name=name):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(cuspdual, name, counted)
    rep = verify_duality(p, q, r)
    assert calls == ["triple_to_cycle", "dual_cycle", "cycle_to_triple"]
    assert rep.dual_side_cycle == triple_to_cycle(p, q, r)
    assert rep.self_cycle == dual_cycle(rep.dual_side_cycle)
    assert rep.dual == cycle_to_triple(rep.self_cycle) == DUALS[p, q, r]


def test_a_filled_cycle_cache_leaves_the_value_unchanged():
    cycle, twin = CycleData((3, 4, 2)), CycleData((3, 4, 2))
    before = repr(cycle), hash(cycle)
    alpha_v(cycle)
    assert "_matrix" in vars(cycle) and "_matrix" not in vars(twin)
    assert (repr(cycle), hash(cycle)) == before == (repr(twin), hash(twin)) and cycle == twin


def test_verify_duality_238():
    rep = verify_duality(2, 3, 8)
    assert rep.dual == (2, 4, 5)
    assert rep.alpha_self == QuadIrrational(2, 1, 1, 3)
    assert rep.alphas_equal
    assert rep.verify()
    data = rep.to_json()
    assert data["alpha_v"] == "2+sqrt(3)"
    assert data["dual"] == [2, 4, 5]


def test_verify_duality_self_dual():
    rep = verify_duality(2, 3, 7)
    assert rep.self_dual
    assert rep.verify()


def test_all_fourteen_report():
    seen_pairs = set()
    for t in TABLE:
        rep = verify_duality(*t)
        assert rep.verify()
        assert rep.alphas_equal
        seen_pairs.add(frozenset({t, rep.dual}))
    assert len(seen_pairs) == 10


def test_oversized_dual_rejected_before_it_is_built():
    # the dual cycle of (2,3,10^9) would hold 10^9 - 6 entries
    t0 = time.perf_counter()
    with pytest.raises(CuspDualityError):
        verify_duality(2, 3, 10**9)
    assert time.perf_counter() - t0 < 0.05
    with pytest.raises(CuspDualityError):
        dual_triple(10**9, 10**9, 10**9)


def test_verify_duality_keeps_the_given_triple_and_sorts_the_dual():
    rep = verify_duality(7, 3, 2)
    assert rep.triple == (7, 3, 2) and rep.dual == (2, 3, 7)
    assert rep.self_dual
    data = rep.to_json()
    assert (data["triple"], data["dual"]) == ([7, 3, 2], [2, 3, 7])


def test_cycle_to_triple_returns_a_sorted_int_tuple():
    """Every cycle of length <= 3 with entries 2..12 that has a triple."""
    found = 0
    for k in (1, 2, 3):
        for entries in itertools.product(range(2, 13), repeat=k):
            if max(entries) < 3 or (t := cycle_to_triple(CycleData(entries))) is None:
                continue
            found += 1
            assert type(t) is tuple and list(map(type, t)) == [int] * 3, entries
            assert t == tuple(sorted(t)), entries
            assert triple_to_cycle(*t).canonical() == CycleData(entries).canonical(), entries
    assert found == 10 + 120 + 835  # by length: every one, every one, a frozen census


def test_cycle_to_triple_absent_for_unmatchable_rotation():
    # (2,4,3) admits no rotation of the three-curve construction
    assert cycle_to_triple(CycleData((2, 4, 3))) is None


@pytest.mark.parametrize("entries", [(3.0, 2), (3, 2.0), (True, 3), (Fraction(3), 4)])
def test_cycle_entries_must_be_ints(entries):
    with pytest.raises(TypeError, match="integer cycle entries"):
        CycleData(entries)


@pytest.mark.parametrize("entries", [(3.7, 2), (3.0, 2), (3, True)])
def test_cycle_entries_given_as_a_list_must_be_ints(entries):
    with pytest.raises(TypeError, match="integer cycle entries"):
        CycleData(list(entries))


@pytest.mark.parametrize("key", "abcd")
@pytest.mark.parametrize("bad", [5.0, 5.5, True])
def test_quad_irrational_reader_rejects_floats_and_bools(key, bad):
    data = {"a": 1, "b": 1, "c": 2, "d": 5}
    assert QuadIrrational.from_json(data) == QuadIrrational(1, 1, 2, 5)
    with pytest.raises(TypeError, match="integer coefficients"):
        QuadIrrational.from_json({**data, key: bad})
