import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_conjugator,
    entrywise_cycle_matrix,
    fibration_word,
    mat2,
    mul2,
    normal_form_conjugator,
    object_cycle_matrix,
    object_evaluate_word,
    object_mul,
    object_power,
    object_reduce,
    object_word_matrix,
    preperiod_rl_reduce,
    same_rl_word,
    three_factor_monodromy,
)
from tpqr import triple_excess
from tpqr.sl2z import (
    ALPHA,
    BETA,
    GAMMA,
    ConjugacyCertificate,
    HomologyClass,
    MatrixClass,
    RLWord,
    SL2Matrix,
    TwistWord,
    classify,
    cycle_matrix,
    dehn_twist,
    evaluate_word,
    is_conjugate,
    is_conjugate_to_inverse,
    monodromy_matrix,
    rl_word,
)
from tpqr.sl2z import _reduce

I = SL2Matrix(1, 0, 0, 1)


# --- construction and basic arithmetic -------------------------------------


def test_determinant_enforced():
    with pytest.raises(ValueError):
        SL2Matrix(1, 0, 0, 2)
    with pytest.raises(ValueError):
        SL2Matrix(2, 0, 0, 2)


def test_det_preserved_under_products():
    rng = random.Random(0)
    m = I
    for _ in range(40):
        g = mat2(((1, rng.randint(-3, 3)), (0, 1)))
        h = mat2(((1, 0), (rng.randint(-3, 3), 1)))
        m = m * g * h.inverse()
        assert m.a * m.d - m.b * m.c == 1


def test_pow_and_inverse():
    m = monodromy_matrix(2, 3, 7)
    assert m**0 == I
    assert m**3 * m**-3 == I
    assert m * m.inverse() == I


def test_json_round_trip():
    m = monodromy_matrix(3, 4, 5)
    assert SL2Matrix.from_json(m.to_json()) == m
    w = TwistWord(((ALPHA, 2), (GAMMA, -1)))
    assert TwistWord.from_json(w.to_json()) == w


# --- monodromy matrices -----------------------------------------------------


def test_monodromy_237_displayed_value():
    assert monodromy_matrix(2, 3, 7) == mat2(((5, -11), (1, -2)))


def test_monodromy_333_by_direct_multiplication():
    factor = ((2, -1), (1, 0))
    expect = mul2(mul2(factor, factor), factor)
    assert monodromy_matrix(3, 3, 3) == mat2(expect)
    assert mat2(expect) == mat2(((4, -3), (3, -2)))


def test_monodromy_238_by_direct_multiplication():
    expect = mul2(mul2(((7, -1), (1, 0)), ((2, -1), (1, 0))), ((1, -1), (1, 0)))
    m = monodromy_matrix(2, 3, 8)
    assert m == mat2(expect)
    assert m == mat2(((6, -13), (1, -2)))
    assert m.trace == 4


def test_monodromy_rejects_small_indices():
    with pytest.raises(ValueError):
        monodromy_matrix(1, 3, 7)
    with pytest.raises(ValueError):
        monodromy_matrix(2, 3, 0)


# --- classification ----------------------------------------------------------


def test_classify_cases():
    assert classify(monodromy_matrix(2, 3, 7)) is MatrixClass.HYPERBOLIC
    assert classify(I) is MatrixClass.IDENTITY
    assert classify(-I) is MatrixClass.MINUS_IDENTITY
    assert classify(monodromy_matrix(2, 4, 4)) is MatrixClass.PARABOLIC
    assert monodromy_matrix(2, 4, 4) == mat2(((5, -8), (2, -3)))
    assert classify(mat2(((0, -1), (1, 0)))) is MatrixClass.ELLIPTIC


def _random_sl2(rng, size=4):
    m = I
    for _ in range(rng.randint(1, 6)):
        m = m * mat2(((1, rng.randint(-size, size)), (0, 1)))
        m = m * mat2(((1, 0), (rng.randint(-size, size), 1)))
    return m


def test_classify_conjugation_invariant():
    rng = random.Random(1)
    samples = [
        monodromy_matrix(2, 3, 7),
        monodromy_matrix(2, 4, 4),
        mat2(((0, -1), (1, 0))),
        mat2(((1, -1), (1, 0))),
        -monodromy_matrix(2, 3, 9),
        I,
        -I,
    ]
    for m in samples:
        for _ in range(15):
            p = _random_sl2(rng)
            assert classify(m.conjugate_by(p)) is classify(m)


# --- RL words ----------------------------------------------------------------


def test_rl_word_of_trace3():
    w = rl_word(mat2(((2, 1), (1, 1))))
    assert w.sign == 1
    assert w.exponents == (1, 1)  # its only rotation
    # brute-force confirms (2,1;1,1) ~ RL
    rl = mat2(((1, 1), (0, 1))) * mat2(((1, 0), (1, 1)))
    assert brute_conjugator(mat2(((2, 1), (1, 1))), rl, bound=10) is not None


def test_rl_word_rejects_non_hyperbolic():
    with pytest.raises(ValueError):
        rl_word(mat2(((1, 1), (0, 1))))
    with pytest.raises(ValueError):
        rl_word(I)


def test_rl_word_237_matches_21_11():
    assert same_rl_word(rl_word(monodromy_matrix(2, 3, 7)), rl_word(mat2(((2, 1), (1, 1)))))


def test_rl_word_matrix_reconstruction():
    for m in (monodromy_matrix(2, 3, 7), monodromy_matrix(3, 4, 5)):
        w = rl_word(m)
        assert is_conjugate(object_word_matrix(w.exponents), m) is not None


@st.composite
def _word_and_conjugator(draw):
    k = draw(st.integers(1, 3))
    exps = tuple(draw(st.integers(1, 4)) for _ in range(2 * k))
    moves = draw(st.lists(st.tuples(st.booleans(), st.integers(-3, 3)), max_size=6))
    return exps, moves


@given(_word_and_conjugator())
@settings(max_examples=60, deadline=None)
def test_rl_word_is_conjugacy_invariant(data):
    exps, moves = data
    r = mat2(((1, 1), (0, 1)))
    el = mat2(((1, 0), (1, 1)))
    m = I
    for i, e in enumerate(exps):
        m = m * ((r if i % 2 == 0 else el) ** e)
    p = I
    for upper, k in moves:
        p = p * ((r if upper else el) ** k)
    conj = m.conjugate_by(p)
    assert same_rl_word(rl_word(conj), rl_word(m))
    # negative-trace variant
    assert same_rl_word(rl_word(-conj), rl_word(-m))
    assert rl_word(-m).sign == -1


# --- conjugacy decision -------------------------------------------------------


def test_conjugate_237_to_21_11_with_certificate():
    cert = is_conjugate(monodromy_matrix(2, 3, 7), mat2(((2, 1), (1, 1))))
    assert cert is not None and cert.verify()


def test_self_conjugacy_identity_certificate():
    m = monodromy_matrix(4, 5, 6)
    cert = is_conjugate(m, m)
    assert cert is not None and cert.verify()


def test_parabolic_classes_distinguished():
    assert is_conjugate(mat2(((1, 1), (0, 1))), mat2(((1, 2), (0, 1)))) is None
    # brute force agrees (entries bounded by 20)
    assert brute_conjugator(mat2(((1, 1), (0, 1))), mat2(((1, 2), (0, 1)))) is None
    # R^k ~ L^-k
    cert = is_conjugate(mat2(((1, 3), (0, 1))), mat2(((1, 0), (-3, 1))))
    assert cert is not None


def test_trace_minus_two_parabolic():
    m = -mat2(((1, 5), (0, 1)))
    p = _random_sl2(random.Random(7))
    cert = is_conjugate(m, m.conjugate_by(p))
    assert cert is not None
    assert is_conjugate(m, -mat2(((1, 6), (0, 1)))) is None
    assert is_conjugate(m, mat2(((1, 5), (0, 1)))) is None


def test_elliptic_classes():
    s = mat2(((0, -1), (1, 0)))
    p = _random_sl2(random.Random(3))
    assert is_conjugate(s, s.conjugate_by(p)) is not None
    # the two order-4 classes are distinct in SL(2,Z)
    assert is_conjugate(s, s.inverse()) is None
    assert brute_conjugator(s, s.inverse(), bound=12) is None


S = mat2(((0, -1), (1, 0)))

# One matrix of every class with |trace| <= 2: +-I and +-(1 k; 0 1) for
# |k| <= 8, then S, -S and the two classes each of trace 1 and -1.
SMALL_TRACE_CLASSES = [mat2(((s, s * k), (0, s))) for s in (1, -1) for k in range(-8, 9)] + [
    mat2(rows)
    for rows in (
        ((0, -1), (1, 0)),
        ((0, 1), (-1, 0)),
        ((0, -1), (1, 1)),
        ((0, 1), (-1, 1)),
        ((-1, -1), (1, 0)),
        ((-1, 1), (-1, 0)),
    )
]


def _is_reduced(m):
    return m.c == 0 or abs(m.d - m.a) <= abs(m.c) <= abs(m.b)


def test_every_small_trace_class_is_its_own_reduced_form():
    assert len(set(SMALL_TRACE_CLASSES)) == len(SMALL_TRACE_CLASSES)
    for m in SMALL_TRACE_CLASSES:
        assert _reduce(m) == (m, I)


@st.composite
def _words_in_r_and_s(draw):
    """A product of letters S and R^k."""
    p = I
    for k in draw(st.lists(st.one_of(st.none(), st.integers(-9, 9)), max_size=12)):
        p = p * (S if k is None else mat2(((1, k), (0, 1))))
    return p


@st.composite
def _small_trace_pairs(draw):
    """Two class representatives of one trace, each with a conjugate."""
    rep_m = draw(st.sampled_from(SMALL_TRACE_CLASSES))
    rep_n = draw(st.sampled_from([x for x in SMALL_TRACE_CLASSES if x.trace == rep_m.trace]))
    return (
        (rep_m, rep_m.conjugate_by(draw(_words_in_r_and_s()))),
        (rep_n, rep_n.conjugate_by(draw(_words_in_r_and_s()))),
    )


@given(_small_trace_pairs())
@settings(max_examples=400, deadline=None)
def test_small_trace_conjugacy_is_the_reduced_form_equality(pairs):
    (rep_m, m), (rep_n, n) = pairs
    cert = is_conjugate(m, n)
    assert (cert is None) == (normal_form_conjugator(m, n) is None) == (rep_m != rep_n)
    if cert is not None:
        assert (cert.source, cert.target) == (m, n) and cert.verify()
    for rep, x in pairs:
        reduced, p = _reduce(x)
        assert reduced == rep and x.conjugate_by(p) == reduced
        assert _is_reduced(reduced)


def test_certificates_reverify_by_construction():
    with pytest.raises(ValueError):
        ConjugacyCertificate(
            source=monodromy_matrix(2, 3, 7),
            target=mat2(((2, 1), (1, 1))),
            conjugator=I,
        )


def test_conjugacy_agrees_with_brute_force_on_small_matrices():
    rng = random.Random(5)
    pool = [
        mat2(((2, 1), (1, 1))),
        mat2(((3, 1), (2, 1))),
        mat2(((1, 1), (0, 1))),
        mat2(((1, 0), (2, 1))),
        mat2(((0, -1), (1, 0))),
        mat2(((0, -1), (1, 1))),
        mat2(((1, -1), (1, 0))),
    ]
    pool += [m.conjugate_by(_random_sl2(rng, 2)) for m in pool]
    for _ in range(60):
        m, n = rng.choice(pool), rng.choice(pool)
        ours = is_conjugate(m, n)
        oracle = brute_conjugator(m, n, bound=12)
        if oracle is not None:
            assert ours is not None, (m, n)
        if ours is not None and max(map(abs, (m.a, m.b, m.c, m.d, n.a, n.b, n.c, n.d))) <= 3:
            assert brute_conjugator(m, n, bound=20) is not None, (m, n)


def test_inverse_conjugacy_cases():
    m = mat2(((2, 1), (1, 1)))
    cert = is_conjugate_to_inverse(m, m)
    assert cert is not None
    assert m.inverse() == mat2(((1, -1), (-1, 2)))
    assert is_conjugate_to_inverse(monodromy_matrix(2, 4, 5), monodromy_matrix(2, 3, 8))
    # traces 3 vs 5 differ; inverse preserves trace
    assert monodromy_matrix(2, 3, 9).trace == 5
    assert (
        is_conjugate_to_inverse(monodromy_matrix(2, 3, 7), monodromy_matrix(2, 3, 9))
        is None
    )


# --- Dehn twists --------------------------------------------------------------


def _twist_oracle(c: HomologyClass) -> SL2Matrix:
    """Independent evaluation of v -> v + <v,c> c on the basis."""
    def image(v):
        pair = v[0] * c.n - v[1] * c.m
        return (v[0] + pair * c.m, v[1] + pair * c.n)

    e1, e2 = image((1, 0)), image((0, 1))
    return mat2(((e1[0], e2[0]), (e1[1], e2[1])))


@pytest.mark.parametrize(
    "cls,expected",
    [
        (ALPHA, ((1, -1), (0, 1))),
        (BETA, ((1, 0), (1, 1))),
        (GAMMA, ((0, -1), (1, 2))),
    ],
)
def test_dehn_twist_matrices(cls, expected):
    assert dehn_twist(cls) == _twist_oracle(cls) == mat2(expected)


def test_dehn_twist_trace_two_and_fixes_class():
    rng = random.Random(11)
    import math

    for _ in range(50):
        m, n = rng.randint(-9, 9), rng.randint(-9, 9)
        if math.gcd(abs(m), abs(n)) != 1:
            continue
        c = HomologyClass(m, n)
        tw = dehn_twist(c)
        assert tw.trace == 2
        assert tw.apply((m, n)) == (m, n)


def test_dehn_twist_rejects_imprimitive():
    with pytest.raises(ValueError):
        HomologyClass(2, 4)
    with pytest.raises(ValueError):
        HomologyClass(0, 0)


def test_torus_relation_and_word_evaluation():
    tb_ta = evaluate_word([(BETA, 1), (ALPHA, 1)])
    for n in range(1, 5):
        assert tb_ta ** (6 * n) == I
    assert evaluate_word(TwistWord(())) == I
    assert evaluate_word([(ALPHA, 1), (BETA, 1)]) ** 4 == mat2(((0, 1), (-1, -1)))


def test_word_composition_order():
    # leftmost applied last means plain left-to-right matrix product
    w = [(ALPHA, 2), (BETA, -1)]
    assert evaluate_word(w) == dehn_twist(ALPHA) ** 2 * dehn_twist(BETA) ** -1
    assert evaluate_word([list(step) for step in w]) == evaluate_word(w)  # pairs as lists


def test_the_fibration_word_is_conjugate_to_the_inverse_link_monodromy():
    # the main theorem, for every cusp and parabolic triple up to 10
    triples = [
        t for t in itertools.combinations_with_replacement(range(2, 11), 3) if triple_excess(*t) >= 0
    ]
    assert len(triples) == 153
    also_direct = 0
    for triple in triples:
        a, m = monodromy_matrix(*triple), evaluate_word(fibration_word(*triple))
        cert = is_conjugate(m, a.inverse())
        assert cert is not None and cert.verify(), triple
        also_direct += is_conjugate(m, a) is not None
    assert also_direct == 6
    # the order of the letters matters: the reversed word matches neither
    a, m = monodromy_matrix(3, 4, 5), evaluate_word(fibration_word(3, 4, 5)[::-1])
    assert is_conjugate(m, a) is None and is_conjugate(m, a.inverse()) is None


def test_stress_randomized_word_conjugacy():
    # longer words, larger conjugators, both trace signs
    from tpqr.sl2z import _word_matrix

    rng = random.Random(2024)
    r_, l_ = mat2(((1, 1), (0, 1))), mat2(((1, 0), (1, 1)))

    def rand_conj():
        p = I
        for _ in range(rng.randint(0, 8)):
            p = p * (r_ ** rng.randint(-9, 9)) * (l_ ** rng.randint(-9, 9))
        return p

    for _ in range(120):
        s = rng.randint(1, 6)
        exps = tuple(rng.randint(1, 7) for _ in range(2 * s))
        m = _word_matrix(exps)
        sgn = 1 if rng.random() < 0.5 else -1
        base = m if sgn == 1 else -m
        conj = base.conjugate_by(rand_conj())
        w = rl_word(conj)
        assert w.sign == sgn and same_rl_word(w, rl_word(base))
        cert = is_conjugate(conj, base)
        assert cert is not None and cert.verify()


def test_same_trace_classes_separate():
    import itertools

    from tpqr.sl2z import _word_matrix

    rng = random.Random(99)
    words = [(1, 4), (4, 1), (2, 2), (1, 1, 1, 1), (1, 2, 2, 1), (2, 1, 1, 2)]
    reps = [( _word_matrix(e), e) for e in words]
    for (m1, e1), (m2, e2) in itertools.combinations(reps, 2):
        if m1.trace != m2.trace:
            continue
        same = min(e1[2 * j:] + e1[:2 * j] for j in range(len(e1) // 2)) == min(
            e2[2 * j:] + e2[:2 * j] for j in range(len(e2) // 2)
        )
        got = is_conjugate(m1.conjugate_by(_random_sl2(rng)), m2.conjugate_by(_random_sl2(rng)))
        assert (got is not None) == same, (e1, e2)


def test_large_trace_monodromy_round_trip():
    m = monodromy_matrix(10, 10, 10)
    w = rl_word(m)
    wm = object_word_matrix(w.exponents)
    assert wm.trace == m.trace
    cert = is_conjugate(m, wm)
    assert cert is not None and cert.verify()


# --- one word product, one cycle product, one triple test ------------------------


@st.composite
def conjugated_words(draw):
    """A positive RL word conjugated by a product of R^a L^b factors."""
    from tpqr.sl2z import _word_matrix

    exps = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    exps += draw(st.lists(st.integers(1, 6), min_size=len(exps), max_size=len(exps)))
    conj = I
    for a, b in draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=5)):
        conj = conj * mat2(((1, a), (0, 1))) * mat2(((1, 0), (b, 1)))
    return _word_matrix(exps).conjugate_by(conj)


ODD_PREPERIOD = SL2Matrix(1, 1, 2, 3)


@given(conjugated_words())
@example(ODD_PREPERIOD)
@settings(max_examples=300, deadline=None)
def test_rl_reduce_equals_the_preperiod_oracle(m):
    from tpqr.sl2z import _rl_reduce

    exps, conj, _ = preperiod_rl_reduce(m)
    assert _rl_reduce(m) == (exps, conj)


def test_the_oracle_example_has_an_odd_preperiod():
    assert preperiod_rl_reduce(ODD_PREPERIOD)[2]


def test_monodromy_is_the_three_factor_product():
    for p, q, r in itertools.product(range(2, 13), repeat=3):
        assert monodromy_matrix(p, q, r) == three_factor_monodromy(p, q, r)


@given(
    st.lists(
        st.one_of(st.integers(-3, 9).map(lambda c: [c]), st.integers(1, 80).map(lambda z: [2] * z)),
        max_size=10,
    )
)
@example([[2] * 200])
@settings(max_examples=200, deadline=None)
def test_cycle_matrix_matches_the_entrywise_product(runs):
    entries = [c for run in runs for c in run]
    assert cycle_matrix(iter(entries)) == entrywise_cycle_matrix(entries)


def test_triple_excess_has_the_sign_of_the_weight_deficit_and_is_trace_minus_2():
    for p, q, r in itertools.product(range(2, 12), range(2, 12), range(2, 40)):
        excess = triple_excess(p, q, r)
        deficit = 1 - Fraction(1, p) - Fraction(1, q) - Fraction(1, r)
        assert (excess > 0) - (excess < 0) == (deficit > 0) - (deficit < 0)
        assert excess == monodromy_matrix(p, q, r).trace - 2


# --- the tuple kernels against the object loops they replaced ---------------


@st.composite
def sl2_words(draw, length, bound):
    """+-I or S times a product of R^a L^b factors with |a|, |b| <= bound."""
    out = draw(st.sampled_from([I, -I, mat2(((0, -1), (1, 0)))]))
    for a, b in draw(st.lists(st.tuples(*[st.integers(-bound, bound)] * 2), max_size=length)):
        out = out * mat2(((1, a), (0, 1))) * mat2(((1, 0), (b, 1)))
    return out


@given(
    st.lists(
        st.one_of(
            st.integers(-(10**30), 10**30).map(lambda c: [c]),
            st.integers(1, 400).map(lambda z: [2] * z),
        ),
        max_size=12,
    )
)
@example([[2] * 1000, [10**30], [2] * 3])
@settings(max_examples=200, deadline=None)
def test_cycle_matrix_equals_the_object_products(runs):
    entries = [c for run in runs for c in run]
    got = cycle_matrix(entries)
    assert got == object_cycle_matrix(entries) == entrywise_cycle_matrix(entries)


@pytest.mark.parametrize("k", [1, 10, 1000, 10**4])
def test_cycle_matrix_equals_the_closed_form_of_a_run_of_twos(k):
    """Long runs of twos, against the oracle that takes a run of z twos
    as the one factor (z+1 -z; z 1-z)."""
    for entries in ((3,) + (2,) * k, (2,) * k + (5,)):
        assert cycle_matrix(entries) == object_cycle_matrix(entries)


@given(st.lists(st.integers(-(10**12), 10**12), max_size=24))
@settings(max_examples=200, deadline=None)
def test_word_matrix_equals_the_object_product(exps):
    from tpqr.sl2z import _word_matrix

    assert _word_matrix(exps) == object_word_matrix(exps)


@given(sl2_words(3, 4), st.integers(-300, 300))
@example(mat2(((1, 1), (0, 1))), -(10**6 + 7))
@settings(max_examples=200, deadline=None)
def test_power_equals_repeated_object_squaring(m, n):
    assert m**n == object_power(m, n)
    assert object_mul(m**n, m**-n) == I


@st.composite
def twist_words(draw):
    pair = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(
        lambda v: math.gcd(*v) == 1
    )
    letters = st.tuples(pair.map(lambda v: HomologyClass(*v)), st.integers(-60, 60))
    return draw(st.lists(letters, max_size=14))


@given(twist_words())
@settings(max_examples=200, deadline=None)
def test_evaluate_word_equals_the_object_twist_powers(word):
    assert evaluate_word(word) == object_evaluate_word(word)
    assert evaluate_word(TwistWord(word)) == object_evaluate_word(word)


@given(
    data=st.data(),
    base=st.one_of(
        st.integers(-30, 30).map(lambda k: (1, k, 0, 1)),
        st.sampled_from([(0, -1, 1, 0), (0, -1, 1, 1), (1, -1, 1, 0)]),
    ),
    sign=st.sampled_from([1, -1]),
)
@settings(max_examples=200, deadline=None)
def test_reduce_equals_the_object_reduction(data, base, sign):
    m = SL2Matrix(*(sign * x for x in base)).conjugate_by(data.draw(sl2_words(4, 6)))
    assert _reduce(m) == object_reduce(m)


def test_twist_word_stores_each_step_as_a_tuple():
    word = TwistWord(([ALPHA, 1], (BETA, -2)))
    assert word == TwistWord(((ALPHA, 1), (BETA, -2))) == TwistWord(([ALPHA, 1], [BETA, -2]))
    assert word.steps == ((ALPHA, 1), (BETA, -2))
    assert hash(TwistWord(([ALPHA, 1],))) == hash(TwistWord(((ALPHA, 1),)))
    assert TwistWord(step for step in word).steps == word.steps  # read once, then kept


def test_a_twist_word_reads_back_its_json():
    word = TwistWord(((ALPHA, 1), (BETA, -2), (GAMMA, 0)))
    assert TwistWord.from_json(word.to_json()) == word
    assert TwistWord.from_json([]) == TwistWord(())
    with pytest.raises(TypeError, match="integer exponents required"):
        TwistWord.from_json([{"class": [1, 0], "exp": 1.0}])


@pytest.mark.parametrize("sign", [1, -1])
def test_is_conjugate_then_rl_word_reduces_each_matrix_once(monkeypatch, sign):
    from tpqr import sl2z

    calls = []
    reduce = sl2z._rl_reduce

    def counted(m):
        calls.append(m)
        return reduce(m)

    monkeypatch.setattr(sl2z, "_rl_reduce", counted)
    m = monodromy_matrix(3, 4, 5) * SL2Matrix(sign, 0, 0, sign)
    n = m.conjugate_by(SL2Matrix(2, 3, 1, 2))
    for _ in range(2):
        assert is_conjugate(m, n) is not None
        assert rl_word(m).sign == rl_word(n).sign == sign
    assert len(calls) == 2
    assert same_rl_word(rl_word(m), rl_word(n))


def test_a_filled_rl_cache_leaves_the_value_unchanged():
    m, twin = monodromy_matrix(2, 3, 7), monodromy_matrix(2, 3, 7)
    before = repr(m), hash(m)
    rl_word(m)
    assert "_rl" in vars(m) and "_rl" not in vars(twin)
    assert (repr(m), hash(m)) == before == (repr(twin), hash(twin)) and m == twin


def test_each_product_kernel_builds_one_matrix(monkeypatch):
    from tpqr.sl2z import _word_matrix

    built = []
    init = SL2Matrix.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    m = SL2Matrix(2, 1, 1, 1)
    kernels = {
        "cycle_matrix": lambda: cycle_matrix([3, 2, 2, 2, 5, 4, 2, 7]),
        "_word_matrix": lambda: _word_matrix((3, 1, 4, 1, 5, 9, 2, 6)),
        "__pow__": lambda: m**37,
        "__pow__ negative": lambda: m ** -37,
        "evaluate_word": lambda: evaluate_word([(ALPHA, 3), (GAMMA, -2), (BETA, 5)]),
    }
    monkeypatch.setattr(SL2Matrix, "__init__", counting_init)
    for name, kernel in kernels.items():
        built.clear()
        kernel()
        assert len(built) == 1, name


@pytest.mark.parametrize(
    "build",
    [
        lambda: SL2Matrix(True, False, False, True),
        lambda: SL2Matrix(1, 0, 0, 1.0),
        lambda: HomologyClass(True, False),
        lambda: HomologyClass(1, 0.0),
        lambda: RLWord((1, 2.5)),
        lambda: RLWord((True, 2)),
        lambda: cycle_matrix((2.0, 3)),
        lambda: cycle_matrix((3, 2, 2.0)),
        lambda: SL2Matrix(2, 1, 1, 1) ** 2.0,
        lambda: SL2Matrix(2, 1, 1, 1) ** True,
        lambda: evaluate_word([(ALPHA, True)]),
    ],
)
def test_non_integer_entries_and_exponents_raise_type_error(build):
    with pytest.raises(TypeError, match="integer"):
        build()


@pytest.mark.parametrize("data", [[[1.5, 0], [0, 1]], [[1.0, 0], [0, 1]], [[True, 0], [0, 1]]])
def test_matrix_reader_rejects_floats_and_bools(data):
    with pytest.raises(TypeError, match="integer entries"):
        SL2Matrix.from_json(data)


@pytest.mark.parametrize(
    "read",
    [
        lambda: TwistWord.from_json([{"class": [1, 0], "exp": 2.9}]),
        lambda: TwistWord.from_json([{"class": [1, 0], "exp": True}]),
        lambda: TwistWord.from_json([{"class": [1.0, 0], "exp": 2}]),
        lambda: TwistWord(((ALPHA, 2.0),)),
        lambda: TwistWord(((ALPHA, 1), (BETA, False))),
    ],
)
def test_twist_word_readers_reject_floats_and_bools(read):
    with pytest.raises(TypeError, match="integer"):
        read()
