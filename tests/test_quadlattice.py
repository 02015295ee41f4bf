import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DefiniteLatticeError,
    NotUnimodularError,
    all_triples,
    bareiss_det,
    basis_changed,
    congruence_sig,
    dense_eliminate,
    dense_hyperbolic_plane,
    dense_lazy_eliminate,
    dense_radical,
    dense_smith,
    dense_snf_verify,
    dense_t_lattice,
    dense_t_tilde_lattice,
    fibration_word,
    general_eliminate,
    integer_matrices,
    mat_mul,
    meyer_signature,
    sparse_rows,
    square_matrices,
    symmetric_matrices,
    unimodular_indefinite_isomorphic,
    word_letters,
)
from tpqr import cli, k3glue, quadlattice, triple_excess
from tpqr.milnorfiber import char_poly
from tpqr.quadlattice import (
    GramLattice,
    LatticeError,
    SNFResult,
    _eliminate,
    _v_rows,
    direct_sum,
    discriminant,
    e_lattice,
    hyperbolic_plane,
    k3_lattice,
    parity,
    radical,
    signature,
    smith_normal_form,
    t_lattice,
    t_tilde_lattice,
)
from tpqr.sl2z import monodromy_matrix


def disc_formula(p, q, r):
    return (-1) ** (p + q + r - 2) * (q * r + r * p + p * q - p * q * r)


# --- construction -------------------------------------------------------------


def test_gram_validation():
    with pytest.raises(LatticeError):
        GramLattice(["a", "b"], [[0, 1], [2, 0]])
    with pytest.raises(LatticeError):
        GramLattice(["a"], [[0, 1], [1, 0]])


def test_hyperbolic_plane():
    h = hyperbolic_plane()
    assert discriminant(h) == -1
    assert signature(h) == (1, 0, 1)
    assert parity(h) == "even"


@given(
    st.integers(2, 12).flatmap(lambda p: st.tuples(st.just(p), st.integers(p, 12))),
    st.integers(2, 60),
)
@example((2, 3), 6)  # the three parabolic triples: radical rank 2
@example((3, 3), 3)
@example((2, 4), 4)
@example((12, 12), 60)  # the largest drawn
@settings(max_examples=150, deadline=None)
def test_diagram_lattices_match_the_dense_builders(pq, r):
    p, q = pq
    assert hyperbolic_plane() == dense_hyperbolic_plane()
    assert t_lattice(p, q, r) == dense_t_lattice(p, q, r)
    if triple_excess(p, q, r) >= 0:  # cusp or parabolic
        for gen in ("S", "S'"):
            assert t_tilde_lattice(p, q, r, gen) == dense_t_tilde_lattice(p, q, r, gen)


def test_e8_is_negative_definite_unimodular_even():
    e8 = e_lattice(8)
    assert e8.rank == 8
    assert abs(discriminant(e8)) == 1
    assert signature(e8) == (0, 0, 8)
    assert parity(e8) == "even"


def test_e_lattice_determinants():
    # |det| over the supported range: 3, 2, 1, 0, 1
    assert [abs(discriminant(e_lattice(k))) for k in range(6, 11)] == [3, 2, 1, 0, 1]
    with pytest.raises(LatticeError):
        e_lattice(11)
    with pytest.raises(LatticeError):
        e_lattice(5)


@pytest.mark.parametrize("k", [8.0, True])
def test_e_lattice_refuses_a_k_that_is_not_an_int(k):
    with pytest.raises(TypeError, match=rf"^integer k required, got {k!r}$"):
        e_lattice(k)


def test_t_lattice_shape():
    t = t_lattice(2, 3, 7)
    assert t.rank == 10
    assert all(t.gram[i][i] == -2 for i in range(10))
    # center is last and touches the first vertex of each arm
    center = t.rank - 1
    touching = [i for i in range(center) if t.gram[i][center] == 1]
    assert touching == [0, 1, 3]  # s1_1, s2_1, s3_1


def test_k3_lattice_shape():
    k3 = k3_lattice()
    assert k3.rank == 22
    assert signature(k3) == (3, 0, 19)
    assert abs(discriminant(k3)) == 1
    assert parity(k3) == "even"


# --- discriminants ------------------------------------------------------------


def test_disc_237_and_parabolic_and_239():
    assert discriminant(t_lattice(2, 3, 7)) == -1 == disc_formula(2, 3, 7)
    assert discriminant(t_lattice(3, 3, 3)) == 0
    assert q_checks_239()


def q_checks_239():
    # 27 + 18 + 6 - 54 = -3
    assert 3 * 9 + 9 * 2 + 2 * 3 - 2 * 3 * 9 == -3
    assert abs(discriminant(t_lattice(2, 3, 9))) == 3
    return True


def test_disc_matches_closed_formula_up_to_12():
    for p in range(2, 13):
        for q in range(p, 13):
            for r in range(q, 13):
                assert discriminant(t_lattice(p, q, r)) == disc_formula(p, q, r), (
                    p,
                    q,
                    r,
                )


def test_the_meyer_signature_of_each_fibration_word_is_that_of_its_lattice():
    # 155 triples, p <= q <= 8 and q <= r <= 11; the reversed letter order
    # and the negated sum, the other three conventions, match none of them
    triples = [t for t in all_triples(11) if t[1] <= 8]
    assert len(triples) == 155
    for triple in triples:
        pos, _, neg = signature(t_lattice(*triple))
        classes = word_letters(fibration_word(*triple))
        forward, backward = meyer_signature(classes), meyer_signature(classes[::-1])
        assert forward == pos - neg, triple
        assert pos - neg not in (backward, -forward, -backward), triple


def test_unimodular_iff_237_over_cusp_range():
    # the closed formula equals the determinant (previous test); sweep it
    hits = [
        (p, q, r)
        for (p, q, r) in all_triples(20, strict=True)
        if abs(disc_formula(p, q, r)) == 1
    ]
    assert hits == [(2, 3, 7)]
    # spot-check the formula-determinant agreement in the extended range
    rng = random.Random(2)
    pool = [t for t in all_triples(20, strict=True) if max(t) > 12]
    for p, q, r in rng.sample(pool, 12):
        assert discriminant(t_lattice(p, q, r)) == disc_formula(p, q, r)


def test_t_tilde_is_degenerate_with_rank_one_radical():
    for p, q, r in [(2, 3, 7), (2, 4, 5), (3, 3, 4), (4, 4, 4), (2, 3, 9)]:
        tt = t_tilde_lattice(p, q, r, "S'")
        assert tt.rank == p + q + r - 1
        assert discriminant(tt) == 0
        rad = radical(tt)
        assert len(rad) == 1
        vec = rad[0]
        # generated by the fiber class, the final basis vector
        assert [abs(v) for v in vec] == [0] * (tt.rank - 1) + [1]


def test_t_tilde_radical_rank_two_for_parabolic():
    assert len(radical(t_tilde_lattice(3, 3, 3, "S'"))) == 2


def test_t_tilde_S_generator_pairings():
    tt = t_tilde_lattice(2, 3, 7, "S")
    n = tt.rank
    # both of the last two rows: +1 against each nearest-arm sphere, -2 corner
    for row in (tt.gram[n - 2], tt.gram[n - 1]):
        assert row[n - 2] == row[n - 1] == -2
        assert [i for i in range(n - 2) if row[i] == 1] == [0, 1, 3]
    assert tt.gram[n - 2] == tt.gram[n - 1]


def test_p_equal_2_arm_is_single_minus2_block():
    tt = t_tilde_lattice(2, 5, 5, "S'")
    assert tt.labels[0] == "s1_1"
    assert tt.gram[0][0] == -2
    # its only neighbor is the central sphere
    center = tt.rank - 2
    assert [j for j in range(tt.rank) if j != 0 and tt.gram[0][j] != 0] == [center]


def test_t_tilde_last_row_zero_for_S_prime():
    tt = t_tilde_lattice(2, 3, 7, "S'")
    assert all(v == 0 for v in tt.gram[-1])


def test_S_and_S_prime_related_by_basis_change():
    for triple in all_triples(8):
        tts = t_tilde_lattice(*triple, "S")
        ttp = t_tilde_lattice(*triple, "S'")
        n = ttp.rank
        b = [[int(i == j) for j in range(n)] for i in range(n)]
        # last S-vector in the S' basis: s- = s+ - t2
        b[n - 2][n - 1] = 1
        b[n - 1][n - 1] = -1
        assert basis_changed(ttp, b).gram == tts.gram


def test_e10_cartan_block_from_permuted_s_prime():
    tt = t_tilde_lattice(2, 3, 7, "S'")
    labels = list(tt.labels)
    order = [
        labels.index("s2_2"),
        labels.index("s2_1"),
        labels.index("s+"),
        labels.index("s3_1"),
        labels.index("s3_2"),
        labels.index("s3_3"),
        labels.index("s3_4"),
        labels.index("s3_5"),
        labels.index("s3_6"),
        labels.index("s1_1"),
        labels.index("t2"),
    ]
    perm = GramLattice(
        [tt.labels[i] for i in order], [[tt.gram[i][j] for j in order] for i in order]
    )
    # expected: negative of the rank-10 Cartan matrix (A9 chain, 10th node
    # attached at position 3), bordered by the zero fiber row
    expect = [[0] * 11 for _ in range(11)]
    for i in range(10):
        expect[i][i] = -2
    for i in range(8):
        expect[i][i + 1] = expect[i + 1][i] = 1
    expect[9][2] = expect[2][9] = 1
    assert perm.gram == tuple(tuple(row) for row in expect)


# --- signature / parity / SNF ---------------------------------------------------


def test_signature_t237():
    assert signature(t_lattice(2, 3, 7)) == (1, 0, 9)


def test_signature_zero_block_handled():
    tt = t_tilde_lattice(2, 3, 7, "S'")
    assert signature(tt) == (1, 1, 9)
    # all-zero corner exercised through the hyperbolic pivot
    lat = GramLattice(["a", "b", "c"], [[0, 1, 0], [1, 0, 0], [0, 0, -2]])
    assert signature(lat) == (1, 0, 2)


@given(symmetric_matrices())
@settings(max_examples=80, deadline=None)
def test_det_and_inertia_match_oracles(g):
    lat = GramLattice([f"v{i}" for i in range(len(g))], g)
    assert discriminant(lat) == bareiss_det([list(r) for r in g])
    assert signature(lat) == congruence_sig([[Fraction(v) for v in r] for r in g])


@given(square_matrices())
@settings(max_examples=80, deadline=None)
def test_det_of_general_matrices_matches_oracle(m):
    assert general_eliminate(m)[0] == bareiss_det([list(r) for r in m])


# Zero diagonal, not symmetric: the congruence pair m_ab + m_ba is read from
# two rows that the lazy rescaling can leave at different scales.
PAIR_ACROSS_STALE_ROWS = [
    [0, -2, -1, 1, 0, 0, 0],
    [-2, 0, -1, 1, -1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 3, -2, 1],
    [0, 0, 0, 3, 0, 0, -1],
    [-2, 0, -2, 0, 0, 0, 0],
    [1, 0, 0, 0, 1, -2, 0],
]


@given(integer_matrices())
@example([[0, 1], [0, 0]])  # congruence pair on a non-symmetric block
@example([[0, 1, 2], [-1, 0, 0], [-2, 0, 0]])  # skew: the row-swap path
@example(PAIR_ACROSS_STALE_ROWS)
@settings(max_examples=150, deadline=None)
def test_eliminate_matches_dense_oracle(m):
    assert general_eliminate(m) == dense_eliminate(m)


def _zero_diagonal(m):
    return [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]


@st.composite
def skew_tail_matrices(draw, max_n=10):
    """Block upper-triangular [[A, B], [0, S]] with S skew, zero on its
    diagonal, and A nonzero on its diagonal: while A is eliminated on
    nonzero pivots no row of S has a multiplier, so S stays skew and the
    elimination ends on the row swap."""
    n = draw(st.integers(2, max_n))
    h = draw(st.integers(0, n - 2))
    m = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if i < h:
            m[i][i] = m[i][i] or 1
            continue
        m[i][:h] = [0] * h
        m[i][i] = 0
        for j in range(h, i):
            m[i][j] = -m[j][i]
    return m


@given(st.one_of(square_matrices().map(_zero_diagonal), skew_tail_matrices()))
@example([[2, 1, 1], [0, 0, 3], [0, -3, 0]])  # a skew tail under a pivot
@example(PAIR_ACROSS_STALE_ROWS)
@settings(max_examples=200, deadline=None)
def test_general_oracle_matches_both_dense_oracles(m):
    assert general_eliminate(m) == dense_lazy_eliminate(m) == dense_eliminate(m)


@given(
    st.one_of(
        symmetric_matrices(),
        symmetric_matrices().map(_zero_diagonal),  # the congruence v_d += v_b
    )
)
@example([[0, 1, 0], [1, 0, 0], [0, 0, 0]])  # congruence, then a zero row
@settings(max_examples=150, deadline=None)
def test_sparse_elimination_matches_both_dense_oracles(m):
    assert _eliminate(sparse_rows(m)) == dense_lazy_eliminate(m) == dense_eliminate(m)


def _hyperbolic_sum(copies):
    return direct_sum(*[hyperbolic_plane()] * copies).gram


@st.composite
def zero_tail_matrices(draw, max_n=14):
    """Symmetric matrices whose diagonal is nonzero on a short head and
    zero after it, optionally with one row and column a multiple of
    another (so singular).  The head's pivots leave the tail rows they do
    not reach stale, so the congruence adds rows kept at other scales."""
    n = draw(st.integers(1, max_n))
    h = draw(st.integers(0, n // 2))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.sampled_from([0, 0, 0, 1, -1, 2, -3]))
        if i < h:
            g[i][i] = draw(st.sampled_from([1, -1, 2, -2, 3, 5]))
    if n >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-2, 2))
        g[a] = [c * x for x in g[b]]
        for row in g:
            row[a] = c * row[b]
    return g


@given(
    st.one_of(
        symmetric_matrices(),
        zero_tail_matrices(),
        st.integers(1, 40).map(_hyperbolic_sum),
    )
)
@example(_hyperbolic_sum(50))
@example([[0, 0, 0], [0, 0, 2], [0, 2, 0]])  # a zero row before the congruence pair
@settings(max_examples=300, deadline=None)
def test_eliminate_matches_the_general_oracle_on_symmetric_input(g):
    assert _eliminate(sparse_rows(g)) == general_eliminate(g)


@given(st.integers(25, 175), st.sampled_from(["T", "S", "S'"]))
@example(25, "T")
@example(175, "T")
@example(175, "S")
@example(175, "S'")
@settings(max_examples=12, deadline=None)
def test_sparse_elimination_on_the_ladder_matches_both_dense_oracles(rank, kind):
    lat = t_lattice(3, 4, rank - 5) if kind == "T" else t_tilde_lattice(3, 4, rank - 6, kind)
    g = lat.gram
    assert _eliminate(lat._rows) == dense_lazy_eliminate(g) == dense_eliminate(g)


def test_snf_239():
    lat = t_lattice(2, 3, 9)
    snf = smith_normal_form(lat)
    assert snf.divisors == (1,) * 11 + (3,)


def coker_a_minus_i(p, q, r):
    """The Smith invariants != 1 of A_{p,q,r} - I: the gcd g of its
    entries, and |det|/g."""
    a = monodromy_matrix(p, q, r)
    w, x, y, z = a.a - 1, a.b, a.c, a.d - 1
    g = math.gcd(w, x, y, z)
    return [d for d in (g, abs(w * z - x * y) // g) if d != 1]


def test_the_discriminant_group_of_t_is_the_cokernel_of_a_minus_i():
    table = {t for pair in k3glue.strange_duality_table() for t in (pair.left, pair.right)}
    triples = set(all_triples(12, strict=True))
    assert len(table) == 14 and table <= triples
    for triple in sorted(triples):
        divisors = [d for d in smith_normal_form(t_lattice(*triple)).divisors if d != 1]
        assert divisors == coker_a_minus_i(*triple), triple
    assert coker_a_minus_i(2, 3, 7) == [] and coker_a_minus_i(3, 4, 5) == [13]
    assert coker_a_minus_i(4, 4, 4) == [4, 4]


def _fields(snf):
    """(divisors, U, V) of a certificate, the dense views included."""
    return snf.divisors, snf.u, snf.v


def _snf_oracle_check(lat):
    """Independent re-multiplication of U G V, and |det U| = |det V| = 1."""
    snf = smith_normal_form(lat)
    assert dense_snf_verify(_fields(snf), lat)
    return snf


def test_snf_transforms_and_divisors_on_corpus():
    corpus = [
        t_lattice(2, 3, 7),
        t_lattice(3, 4, 5),
        t_tilde_lattice(2, 3, 7, "S'"),
        t_tilde_lattice(3, 3, 3, "S"),
        e_lattice(6),
        hyperbolic_plane(),
        direct_sum(e_lattice(8), hyperbolic_plane()),
        k3_lattice(),
    ]
    rng = random.Random(9)
    for _ in range(6):
        n = rng.randint(1, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-4, 4)
        corpus.append(GramLattice([f"v{i}" for i in range(n)], rows))
    for lat in corpus:
        assert lat.rank <= 25
        snf = _snf_oracle_check(lat)
        prod = 1
        for d in snf.divisors:
            prod *= d
        assert abs(prod) == abs(discriminant(lat))


@st.composite
def gram_lattices(draw):
    """symmetric_matrices, sometimes with one row and column set to zero."""
    g = draw(symmetric_matrices())
    n = len(g)
    if n and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        for i in range(n):
            g[k][i] = g[i][k] = 0
    return GramLattice([f"v{i}" for i in range(n)], g)


def _replaced(snf, **fields):
    """The certificate with the given fields replaced."""
    return SNFResult(**{"divisors": snf.divisors, "row_ops": snf.row_ops,
                        "col_ops": snf.col_ops, **fields})


def _ops(snf):
    """(list name, index, operation) for each operation of the certificate,
    the row operations first."""
    for field in ("row_ops", "col_ops"):
        for k, op in enumerate(getattr(snf, field)):
            yield field, k, op


def _with_op(snf, field, k, op=None):
    """The certificate with operation k of the list ``field`` replaced by
    ``op``, or dropped."""
    ops = getattr(snf, field)
    return _replaced(snf, **{field: ops[:k] + ((op,) if op is not None else ()) + ops[k + 1 :]})


def _with_divisor(snf, k, d):
    return _replaced(snf, divisors=snf.divisors[:k] + (d,) + snf.divisors[k + 1 :])


def _is_add(op):
    return len(op) == 3


@given(gram_lattices(), st.data())
@settings(max_examples=80, deadline=None)
def test_sparse_verify_agrees_with_the_dense_oracle(lat, data):
    """On the SNF, and on a well-formed log with one operation dropped or
    one multiplier moved by +-1 or +-2, or one divisor moved by +-1, the
    replay check and the dense oracle on the log's own U and V give the
    same verdict.  A moved multiplier always fails: the row or column it
    adds holds a nonzero entry when it is added, and the operations after
    it are invertible."""
    snf = smith_normal_form(lat)
    assert snf.verify(lat) and dense_snf_verify(_fields(snf), lat)
    n = lat.rank
    if n == 0:
        return
    which = data.draw(st.sampled_from(["drop", "multiplier", "divisor"]))
    delta = data.draw(st.sampled_from([1, -1, 2, -2]))
    if which == "divisor":
        i = data.draw(st.integers(0, n - 1))
        bad = _with_divisor(snf, i, snf.divisors[i] + delta // abs(delta))
    else:
        adds = [(field, k) for field, k, op in _ops(snf) if _is_add(op) or which == "drop"]
        if not adds:
            return
        field, k = data.draw(st.sampled_from(adds))
        op = getattr(snf, field)[k]
        moved = op[:2] + (op[2] + delta,) if which == "multiplier" else None
        bad = _with_op(snf, field, k, moved)
    assert bad.verify(lat) == dense_snf_verify(_fields(bad), lat)
    if which != "drop":
        assert not bad.verify(lat), (which, delta)


@given(gram_lattices())
@settings(max_examples=80, deadline=None)
def test_snf_matches_the_dense_oracle_field_by_field(lat):
    """(divisors, U, V) equal the dense reduction's, and the dense oracle
    holds on the views: U G V = D, |det U| = |det V| = 1."""
    snf = smith_normal_form(lat)
    assert _fields(snf) == dense_smith(lat)
    assert dense_snf_verify(_fields(snf), lat)


def _ladder_lattice(kind, rank):
    """T(3,4,rank-5), or its Milnor lattice of that rank in basis S or S'."""
    return t_lattice(3, 4, rank - 5) if kind == "T" else t_tilde_lattice(3, 4, rank - 6, kind)


@pytest.mark.parametrize("rank", [25, 45, 65, 85, 175])
@pytest.mark.parametrize("kind", ["T", "S", "S'"])
def test_snf_matches_the_dense_oracle_on_the_ladder(kind, rank):
    """T(3,4,r) and its Milnor lattice in both bases, up to rank 175."""
    lat = _ladder_lattice(kind, rank)
    assert lat.rank == rank
    assert _fields(smith_normal_form(lat)) == dense_smith(lat)
    assert radical(lat) == dense_radical(lat)


def _forged(snf, lat):
    """(name, certificate) for one of each kind of forged log built from
    the true one: every forgery here is malformed, or its replay differs
    from diag(divisors)."""
    n, d = lat.rank, snf.divisors
    k = max(i for i, x in enumerate(d) if x)  # the last nonzero divisor
    twice = _with_divisor(snf, k, 2 * d[k])
    # a row (column) added to itself scales it by 2: the replay gives
    # exactly diag(twice.divisors), a chain, so only the form rule can refuse
    yield "row scaling", _replaced(twice, row_ops=snf.row_ops + ((k, k, 1),))
    yield "column scaling", _replaced(twice, col_ops=snf.col_ops + ((k, k, 1),))
    first = next(i for i, op in enumerate(snf.row_ops) if len(op) == 2)
    yield "index n", _with_op(snf, "row_ops", first, (snf.row_ops[first][0], n))
    top = max(x for _, _, op in _ops(snf) for x in op[:2])
    field, at, op = next(t for t in _ops(snf) if top in t[2][:2])
    # Python reads top - n as top, so the replay would be the true one
    moved = tuple(x - n if x == top else x for x in op[:2])
    yield "negative index", _with_op(snf, field, at, moved + op[2:])
    # negating a column twice, or an add with a fourth entry 0, replays as
    # the true log, so only the length rule can refuse these
    yield "column negation", _replaced(snf, col_ops=snf.col_ops + ((k,), (k,)))
    for field in ("row_ops", "col_ops"):
        ops = getattr(snf, field)
        add = next(i for i, op in enumerate(ops) if _is_add(op))
        i, j, f = ops[add]
        # True adds as 1 and is undone at once, and 2.0 adds as 2: the replays
        # are the true one, so only the type rule can refuse these
        undone = ((i, j, True), (i, j, -1))
        yield f"bool multiplier in {field}", _replaced(snf, **{field: ops[:add] + undone + ops[add:]})
        yield f"float multiplier in {field}", _with_op(snf, field, add, (i, j, float(f)))
        yield f"4-tuple in {field}", _with_op(snf, field, add, (i, j, f, 0))
    for field, i, op in _ops(snf):
        yield f"{field} {i} dropped", _with_op(snf, field, i)
        if _is_add(op):
            for delta in (1, -1):
                moved = op[:2] + (op[2] + delta,)
                yield f"{field} {i} multiplier {delta:+d}", _with_op(snf, field, i, moved)
    for i in range(n):
        for delta in (1, -1):
            yield f"divisor {i} {delta:+d}", _with_divisor(snf, i, d[i] + delta)


@pytest.mark.parametrize("rank", [25, 45, 85])
@pytest.mark.parametrize("kind", ["T", "S", "S'"])
def test_every_forged_log_fails_without_raising(kind, rank):
    lat = _ladder_lattice(kind, rank)
    snf = smith_normal_form(lat)
    assert snf.verify(lat) and dense_snf_verify(_fields(snf), lat)
    for name, bad in _forged(snf, lat):
        assert bad.verify(lat) is False, name


@pytest.mark.parametrize("rank", [25, 45, 85])
def test_a_log_fails_against_another_lattice_of_its_rank(rank):
    """T(3,4,r) against T(2,5,r), and the S and S' bases of one Milnor
    lattice against each other."""
    pairs = [
        (t_lattice(3, 4, rank - 5), t_lattice(2, 5, rank - 5)),
        (_ladder_lattice("S", rank), _ladder_lattice("S'", rank)),
    ]
    for a, b in pairs:
        assert a.rank == b.rank == rank
        for lat, other in ((a, b), (b, a)):
            assert not smith_normal_form(lat).verify(other)


def test_a_malformed_operation_is_refused_without_raising():
    lat = t_lattice(3, 4, 5)
    snf = smith_normal_form(lat)
    n = lat.rank
    for field, op in [
        ("row_ops", ()),
        ("col_ops", ()),
        ("col_ops", (0,)),  # there is no column negation
        ("row_ops", (0, 1, 1, 1)),
        ("col_ops", (0, 1, 1, 0)),
        ("row_ops", [0, 1]),
        ("col_ops", [0, 1]),
        ("row_ops", None),
        ("col_ops", None),
        ("row_ops", (True, 1)),
        ("row_ops", (True,)),
        ("row_ops", (0.0,)),
        ("col_ops", (0, 1, True)),
        ("row_ops", (n,)),
        ("col_ops", (0, n)),
        ("col_ops", (-1, 0, 1)),
        ("row_ops", (0, 0, -2)),  # a negation in this form is still refused
        ("col_ops", (0, 0, 1)),
        ("row_ops", ("0", 1, 1)),
        ("row_ops", (2.0, 0)),
    ]:
        bad = _replaced(snf, **{field: getattr(snf, field) + (op,)})
        assert bad.verify(lat) is False, (field, op)
    for field in ("row_ops", "col_ops"):  # the identity
        assert _replaced(snf, **{field: getattr(snf, field) + ((0, 0),)}).verify(lat)
    assert _replaced(snf, divisors=snf.divisors[:-1]).verify(lat) is False
    assert _replaced(snf, divisors=snf.divisors[:-1] + (13.0,)).verify(lat) is False


def test_a_scaling_would_forge_a_singular_form_of_a_regular_lattice():
    """G = (2): the log 'row_0 += -1 * row_0' takes G to (0), so without
    the rule on equal indices the zero divisor would pass."""
    lat = GramLattice(["a"], [[2]])
    assert smith_normal_form(lat) == SNFResult((2,), (), ())
    assert not SNFResult((0,), ((0, 0, -1),), ()).verify(lat)
    assert not SNFResult((0,), (), ((0, 0, -1),)).verify(lat)


@pytest.mark.parametrize(
    "diag", [(2, 3), (1, -2), (-1, 1)], ids=["no-chain", "negative", "negative-unit"]
)
def test_a_diagonal_that_is_no_nonnegative_divisor_chain_fails(diag):
    """The empty log certifies U G V = diag(G) exactly, with U = V = I, so
    only the chain or the sign rule can reject these."""
    lat = GramLattice(["a", "b"], [[diag[0], 0], [0, diag[1]]])
    eye = ((1, 0), (0, 1))
    bad = SNFResult(diag, (), ())
    assert (bad.u, bad.v) == (eye, eye)
    assert not bad.verify(lat)
    assert not dense_snf_verify(_fields(bad), lat)
    assert smith_normal_form(lat).verify(lat)


def test_a_negated_divisor_fails_although_the_products_hold():
    lat = t_lattice(2, 3, 9)
    snf = smith_normal_form(lat)
    k = lat.rank - 1
    bad = _replaced(snf, divisors=snf.divisors[:k] + (-snf.divisors[k],),
                    row_ops=snf.row_ops + ((k,),))
    n = lat.rank
    diag = [[bad.divisors[i] if i == j else 0 for j in range(n)] for i in range(n)]
    assert mat_mul(mat_mul(bad.u, lat.gram), bad.v) == diag
    assert not bad.verify(lat)


def test_the_views_are_the_replayed_operations_and_are_built_on_first_read():
    lat = t_tilde_lattice(2, 3, 7, "S'")
    snf = smith_normal_form(lat)
    assert vars(snf).keys() == {"divisors", "row_ops", "col_ops"}
    assert snf.to_json() == {"divisors": list(snf.divisors),
                             "u": [list(r) for r in snf.u], "v": [list(r) for r in snf.v]}
    assert snf.u is snf.u and snf.v is snf.v
    assert {type(x) for _, _, op in _ops(snf) for x in op} == {int}
    assert {len(op) for op in snf.col_ops} == {2, 3} and 1 in {len(op) for op in snf.row_ops}


def test_radical_reads_no_u(monkeypatch):
    lat = t_tilde_lattice(3, 4, 80, "S'")

    def refuse(self):
        raise AssertionError("radical built U")

    monkeypatch.setattr(SNFResult, "u", property(refuse))
    assert radical(lat) == [tuple(int(label == "t2") for label in lat.labels)]
    assert smith_normal_form(lat).divisors[-1] == 0


def test_radical_builds_no_v(monkeypatch):
    lat = t_tilde_lattice(3, 3, 3, "S")

    def refuse(self):
        raise AssertionError("radical built V")

    want = dense_radical(lat)
    assert len(want) == 2
    monkeypatch.setattr(SNFResult, "v", property(refuse))
    assert radical(lat) == want
    assert radical(t_lattice(3, 4, 80)) == []


@given(gram_lattices())
@example(GramLattice("abc", [[0, 1, 0], [1, 0, 0], [0, 0, 0]]))  # H and a zero row
@example(GramLattice("ab", [[0, 0], [0, 0]]))
@example(GramLattice("abcd", [[0, 2, 0, 1], [2, 0, 0, 2], [0, 0, 0, 0], [1, 2, 0, 0]]))
@settings(max_examples=150, deadline=None)
def test_radical_matches_the_dense_oracle(lat):
    """The columns replayed backwards equal the columns of the dense V,
    and they span a kernel of rank n0."""
    rad = radical(lat)
    assert rad == dense_radical(lat)
    assert len(rad) == signature(lat)[1]
    assert all(mat_mul(lat.gram, [[v] for v in x]) == [[0]] * lat.rank for x in rad)


@given(gram_lattices(), st.integers(0, 2**16 - 1))
@example(GramLattice("abc", [[0, 1, 0], [1, 0, 0], [0, 0, 0]]), 0b101)
@example(GramLattice("ab", [[0, 0], [0, 0]]), 0b11)
@example(GramLattice("abcd", [[0, 2, 0, 1], [2, 0, 0, 2], [0, 0, 0, 0], [1, 2, 0, 0]]), 0b1011)
@settings(max_examples=150, deadline=None)
def test_v_rows_are_the_dense_v_on_any_columns(lat, mask):
    """The backward replay on a subset of the columns gives those columns
    of the dense reduction's V: what ``v`` reads on all of them, ``radical``
    on the zero divisors and a complement basis on the rest."""
    n = lat.rank
    cols = [j for j in range(n) if mask >> j & 1]
    _, _, v = dense_smith(lat)
    want = [{j: x for j in cols if (x := row[j])} for row in v]
    assert _v_rows(smith_normal_form(lat).col_ops, n, cols) == want


def test_the_sparse_rows_are_built_once_and_left_unchanged():
    """A builder lattice has its sparse rows from birth, a hand-built one
    on first read; every reader copies the rows it changes, and the cache
    is kept out of the value."""
    lat = t_tilde_lattice(2, 3, 9, "S")
    fresh = t_tilde_lattice(2, 3, 9, "S")
    by_hand = GramLattice(lat.labels, lat.gram)
    assert "_rows" in vars(lat) and "_rows" not in vars(by_hand)
    for one in (lat, by_hand):
        rows = one._rows
        assert rows == tuple({j: x for j, x in enumerate(r) if x} for r in one.gram)
        kept = [dict(r) for r in rows]
        discriminant(one), signature(one), radical(one)
        assert smith_normal_form(one).verify(one)
        assert one._rows is rows and list(rows) == kept
    assert lat == fresh == by_hand and hash(lat) == hash(fresh) == hash(by_hand)
    assert repr(lat) == repr(fresh) == repr(by_hand)


def test_verify_runs_no_elimination_and_no_code_of_the_reduction(monkeypatch):
    lat = t_tilde_lattice(2, 3, 7, "S'")
    snf = smith_normal_form(lat)

    def refuse(*args):
        raise AssertionError("verify ran code of the elimination or the reduction")

    for name in ("_eliminate", "_add", "_smith"):
        monkeypatch.setattr(quadlattice, name, refuse)
    assert snf.verify(lat)


def _counting(monkeypatch, *names):
    calls = Counter()
    for name in names:
        fn = getattr(quadlattice, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(quadlattice, name, counted)
    return calls


def test_the_smith_guard_replays_without_the_form_check(monkeypatch):
    """_smith checks the list it built by the divisor chain and the replay
    of verify; only verify, which takes a list from anywhere, checks its
    form as well."""
    calls = _counting(monkeypatch, "_well_formed", "_replay")
    lat = t_tilde_lattice(2, 3, 9, "S'")
    snf = smith_normal_form(lat)
    assert calls == {"_replay": 2}  # the rows, then the columns
    assert snf.verify(lat)
    assert calls == {"_replay": 4, "_well_formed": 2}  # once per list


def test_one_elimination_and_one_snf_per_lattice(monkeypatch):
    calls = _counting(monkeypatch, "_eliminate", "_smith")
    built = t_tilde_lattice(2, 3, 9, "S'")
    lat = GramLattice(built.labels, built.gram)  # the same matrix, by hand
    for _ in range(2):
        discriminant(lat), signature(lat), smith_normal_form(lat), radical(lat)
    assert calls == {"_eliminate": 1, "_smith": 1}
    signature(GramLattice(built.labels, built.gram))  # an equal object has its own
    assert calls == {"_eliminate": 2, "_smith": 1}
    for _ in range(2):
        discriminant(built), signature(built), smith_normal_form(built), radical(built)
    assert calls == {"_eliminate": 2, "_smith": 2}  # a builder lattice eliminates nothing
    assert (discriminant(built), signature(built)) == (discriminant(lat), signature(lat))


def _counting_the_scans(monkeypatch):
    """Counts of ``_eliminate`` and ``_smith`` calls and of the
    constructor's checks, ``GramLattice.__post_init__``."""
    calls = _counting(monkeypatch, "_eliminate", "_smith")

    def counted(self, _fn=GramLattice.__post_init__):
        calls["__post_init__"] += 1
        _fn(self)

    monkeypatch.setattr(GramLattice, "__post_init__", counted)
    return calls


def test_glued_lattices_run_no_elimination(monkeypatch):
    """The T parts, the plane H and their sum that ``glued_lattice``
    builds, and ``k3_lattice()``, are builder lattices: none is checked by
    the constructor or eliminated, and none is reduced."""
    calls = _counting_the_scans(monkeypatch)
    GramLattice(("a",), ((2,),))
    assert calls == {"__post_init__": 1}  # the spy sees a lattice built by hand
    calls.clear()
    for pair in k3glue.strange_duality_table():
        _, verdict = k3glue.glued_lattice(pair)
        assert verdict.isomorphic_to_k3 == (True if pair.left == pair.right == (2, 3, 7) else None)
    k3 = k3_lattice()
    signature(k3), discriminant(k3)
    assert calls == {}
    assert k3_lattice() == k3 and not hasattr(k3_lattice, "cache_clear")


def test_no_command_runs_the_elimination_or_the_constructor_checks(monkeypatch, capsys):
    """Every lattice that a CLI request reads is a builder lattice, so no
    request runs ``_eliminate`` or ``GramLattice.__post_init__``: neither
    ``lattice``, ``monodromy``, ``dual``, ``table`` and ``inose``, nor
    ``k3`` on any of the ten pairs."""
    calls = _counting_the_scans(monkeypatch)
    argvs = [
        ["lattice", "t", "--triple", "3,4,5"],
        ["lattice", "ttilde", "--triple", "3,4,5", "--generator", "S"],
        ["lattice", "ttilde", "--triple", "3,4,5", "--generator", "S'"],
        ["lattice", "e", "--k", "10"],
        ["lattice", "h"],
        ["lattice", "k3"],
        ["monodromy", "2", "3", "7"],  # a cusp triple
        ["monodromy", "3", "3", "3"],  # a parabolic one
        ["dual", "2", "3", "7"],
        ["table"],
        ["inose", "--case", "2,2,2,2"],
    ]
    argvs += [["k3", "--pair", ",".join(map(str, pair.left))]
              for pair in k3glue.strange_duality_table()]
    for argv in argvs:
        assert cli.main(argv + ["--json"]) == 0, argv
        assert calls["_eliminate"] == calls["__post_init__"] == 0, argv
    capsys.readouterr()


# --- closed forms ----------------------------------------------------------------


def _builder_lattices():
    """(name, lattice) for every builder lattice the closed forms cover
    here: T(p,q,r) for 2 <= p <= q <= r <= 12, its Milnor lattice in both
    bases for each cusp or parabolic triple among them, E6..E10, H and
    the K3 lattice."""
    for p in range(2, 13):
        for q in range(p, 13):
            for r in range(q, 13):
                yield f"T{p, q, r}", t_lattice(p, q, r)
    for triple in all_triples(12):
        for gen in ("S", "S'"):
            yield f"{gen}{triple}", t_tilde_lattice(*triple, gen)
    for k in range(6, 11):
        yield f"E{k}", e_lattice(k)
    yield "H", hyperbolic_plane()
    yield "K3", k3_lattice()


def test_every_builder_lattice_carries_its_elimination_in_closed_form():
    kinds = Counter()
    for name, lat in _builder_lattices():
        assert "_elimination" in vars(lat), name  # set by the builder
        assert lat._elimination == _eliminate(lat._rows), name
        kinds[signature(lat)[:2]] += 1
    # (n+, n0): 269 cusp T, H and E10; 14 spherical T and E6-E8; 3 parabolic
    # T and E9; 269 cusp triples in two bases; 3 parabolic ones; K3
    assert kinds == {(1, 0): 271, (0, 0): 17, (0, 1): 4, (1, 1): 538, (0, 2): 6, (3, 0): 1}


def _every_builder_lattice():
    """(name, lattice) for T(p,q,r) on every ordered triple with entries
    2..12, its Milnor lattice in both bases where the triple is a cusp or
    parabolic one, E6..E10, H, the K3 lattice and direct sums of these."""
    for p in range(2, 13):
        for q in range(2, 13):
            for r in range(2, 13):
                yield f"T{p, q, r}", t_lattice(p, q, r)
                if triple_excess(p, q, r) >= 0:
                    for gen in ("S", "S'"):
                        yield f"{gen}{p, q, r}", t_tilde_lattice(p, q, r, gen)
    for k in range(6, 11):
        yield f"E{k}", e_lattice(k)
    yield "H", hyperbolic_plane()
    yield "K3", k3_lattice()
    t, h = t_lattice(2, 3, 7), hyperbolic_plane()
    odd = GramLattice(["u", "v"], [[1, 0], [0, -1]])
    for parts in ((t, t, h), (e_lattice(8), h), (t_tilde_lattice(3, 4, 5, "S"), odd, h)):
        yield "+".join(lat.labels[0] for lat in parts), direct_sum(*parts)


def test_every_builder_lattice_is_the_lattice_the_checked_constructor_builds():
    """The builders check their inputs, not the n^2 entries; what they
    store is what ``GramLattice`` stores from the same labels and matrix,
    and the sparse rows are those of the dense matrix."""
    count = 0
    for name, lat in _every_builder_lattice():
        by_hand = GramLattice(lat.labels, lat.gram)
        assert lat == by_hand and hash(lat) == hash(by_hand), name
        assert type(lat.labels) is tuple and type(lat.gram) is tuple, name
        assert all(type(row) is tuple for row in lat.gram), name
        assert lat._rows == tuple(sparse_rows(lat.gram)) == by_hand._rows, name
        count += 1
    assert count == 11**3 + 2 * 1285 + 10  # 1285 ordered cusp or parabolic triples


def test_the_smith_certificate_of_a_builder_lattice_is_that_of_its_hand_built_copy():
    """The sparse rows of ``_gram`` hold their entries in another order
    than rows read off the dense matrix; the reduction gives the same
    operations on both."""
    for lat in (t_lattice(3, 4, 20), t_tilde_lattice(3, 4, 20, "S"), t_tilde_lattice(3, 4, 20, "S'"),
                hyperbolic_plane(), k3_lattice()):
        assert smith_normal_form(lat) == smith_normal_form(GramLattice(lat.labels, lat.gram))


@pytest.mark.parametrize(
    "diagonal, edges, error, message",
    [
        ([-2, True], [(0, 1, 1)], TypeError, "integer Gram entries required, got True"),
        ([-2, -2], [(0, 1, 1.0)], TypeError, "integer Gram entries required, got 1.0"),
        ([-2, -2], [(0.0, 1, 1)], TypeError, "integer Gram entries required, got 0.0"),
        ([-2], [], LatticeError, "1 diagonal entries for 2 labels"),
        ([-2, -2, -2], [], LatticeError, "3 diagonal entries for 2 labels"),
        ([-2, -2], [(1, 0, 1)], LatticeError, "edge (1,0) is not 0 <= i < j < 2"),
        ([-2, -2], [(1, 1, 1)], LatticeError, "edge (1,1) is not 0 <= i < j < 2"),
        ([-2, -2], [(0, 2, 1)], LatticeError, "edge (0,2) is not 0 <= i < j < 2"),
        ([-2, -2], [(-1, 1, 1)], LatticeError, "edge (-1,1) is not 0 <= i < j < 2"),
    ],
)
def test_the_builder_path_checks_its_diagonal_and_edges(diagonal, edges, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        quadlattice._gram(["a", "b"], diagonal, edges, (0, (0, 0, 0)))


@pytest.mark.parametrize("parts, got", [
    ((((1,),),), "tuple"),
    ((t_lattice(2, 3, 7), [[1]]), "list"),
    ((hyperbolic_plane(), None), "NoneType"),
])
def test_direct_sum_refuses_a_part_that_is_not_a_lattice(parts, got):
    with pytest.raises(TypeError, match=f"^direct_sum takes GramLattice parts, got {got}$"):
        direct_sum(*parts)


@st.composite
def builder_lattices(draw):
    """A lattice from one of the builders, of rank at most 22."""
    kind = draw(st.sampled_from(["T", "S", "S'", "E", "H", "K3"]))
    if kind == "E":
        return e_lattice(draw(st.integers(6, 10)))
    if kind == "H":
        return hyperbolic_plane()
    if kind == "K3":
        return k3_lattice()
    if kind == "T":
        p, q, r = sorted(draw(st.lists(st.integers(2, 8), min_size=3, max_size=3)))
        return t_lattice(p, q, r)
    return t_tilde_lattice(*draw(st.sampled_from(list(all_triples(8)))), kind)


@given(st.lists(st.one_of(builder_lattices(), gram_lattices()), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_direct_sum_multiplies_determinants_and_adds_inertias(parts):
    lat = direct_sum(*parts)
    assert lat.rank == sum(part.rank for part in parts)
    assert (discriminant(lat), signature(lat)) == _eliminate(lat._rows)


@pytest.mark.parametrize("part", [hyperbolic_plane(), e_lattice(8), t_lattice(3, 4, 5),
                                  GramLattice(["u", "v"], [[1, 0], [0, -1]])],
                         ids=["H", "E8", "T(3,4,5)", "by hand"])
def test_direct_sum_of_one_part_suffixes_its_labels(part):
    """One part goes the way of several: a copy with labels suffixed .1."""
    lat = direct_sum(part)
    assert lat is not part and lat.labels == tuple(f"{lab}.1" for lab in part.labels)
    assert lat.gram == part.gram
    assert (discriminant(lat), signature(lat)) == (discriminant(part), signature(part))


@pytest.mark.parametrize("rank", [25, 45, 65, 85, 180])
@pytest.mark.parametrize("kind", ["T", "S", "S'"])
def test_the_closed_forms_agree_with_the_smith_certificate_on_the_ladder(kind, rank):
    """The nonzero divisors multiply to |det| where det != 0, and n0 of
    them are zero."""
    lat = _ladder_lattice(kind, rank)
    det, (_, n0, _) = discriminant(lat), signature(lat)
    divisors = smith_normal_form(lat).divisors
    nonzero = [d for d in divisors if d]
    assert len(divisors) - len(nonzero) == n0 == (kind != "T")
    if n0:
        assert det == 0
    else:
        assert math.prod(nonzero) == abs(det)


# --- unimodular classification --------------------------------------------------


def test_t237_isomorphic_to_e8_plus_h():
    assert unimodular_indefinite_isomorphic(
        t_lattice(2, 3, 7), direct_sum(e_lattice(8), hyperbolic_plane())
    )


def test_two_t237_plus_h_is_k3():
    t = t_lattice(2, 3, 7)
    assert unimodular_indefinite_isomorphic(
        direct_sum(t, t, hyperbolic_plane()), k3_lattice()
    )


def test_parity_distinguishes_h_from_odd_plane():
    odd = GramLattice(["u", "v"], [[1, 0], [0, -1]])
    assert parity(odd) == "odd"
    assert not unimodular_indefinite_isomorphic(hyperbolic_plane(), odd)


def test_classification_guards():
    with pytest.raises(NotUnimodularError):
        unimodular_indefinite_isomorphic(t_lattice(2, 3, 8), hyperbolic_plane())
    with pytest.raises(DefiniteLatticeError):
        unimodular_indefinite_isomorphic(e_lattice(8), e_lattice(8))


def test_json_round_trip():
    lat = t_tilde_lattice(2, 4, 5, "S")
    assert GramLattice.from_json(lat.to_json()) == lat


@pytest.mark.parametrize(
    "gram, bad",
    [
        ([[-2.5]], "-2.5 at (0,0)"),
        ([[True]], "True at (0,0)"),
        ([[-2.0]], "-2.0 at (0,0)"),
        ([[2.5, 1], [1, True]], "2.5 at (0,0)"),
        ([[2, 1], [1.0, True]], "1.0 at (1,0)"),
    ],
)
def test_gram_readers_reject_floats_and_bools(gram, bad):
    labels = [f"v{i}" for i in range(len(gram))]
    rows = tuple(map(tuple, gram))
    message = rf"^integer Gram entries required, got {re.escape(bad)}$"
    with pytest.raises(TypeError, match=message):
        GramLattice.from_json({"labels": labels, "gram": gram})
    with pytest.raises(TypeError, match=message):
        GramLattice(labels, gram)
    with pytest.raises(TypeError, match=message):
        GramLattice(tuple(labels), rows)
    # the one matrix rule, with the same locator, in char_poly
    with pytest.raises(TypeError, match=rf"^integer matrix entries required, got {re.escape(bad)}$"):
        char_poly(rows)


def test_a_bad_entry_of_a_large_gram_matrix_is_named_in_one_short_line():
    t = t_lattice(2, 3, 172)
    assert t.rank == 175
    rows = [list(row) for row in t.gram]
    rows[100][101] = -2.0
    with pytest.raises(TypeError) as info:
        GramLattice(t.labels, rows)
    assert str(info.value) == "integer Gram entries required, got -2.0 at (100,101)"
