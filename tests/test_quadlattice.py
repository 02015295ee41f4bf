import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    bareiss_det,
    congruence_sig,
    dense_eliminate,
    dense_smith,
    dense_snf_verify,
    integer_matrices,
    square_matrices,
    symmetric_matrices,
)
from tpqr import k3glue, quadlattice
from tpqr.quadlattice import (
    DefiniteLatticeError,
    GramLattice,
    LatticeError,
    NotUnimodularError,
    SNFResult,
    _eliminate,
    a_block,
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
    unimodular_indefinite_isomorphic,
)


def disc_formula(p, q, r):
    return (-1) ** (p + q + r - 2) * (q * r + r * p + p * q - p * q * r)


def cusp_triples(limit, strict=True):
    for p in range(2, limit + 1):
        for q in range(p, limit + 1):
            for r in range(q, limit + 1):
                s = Fraction(1, p) + Fraction(1, q) + Fraction(1, r)
                if (s < 1) if strict else (s <= 1):
                    yield p, q, r


# --- construction -------------------------------------------------------------


def test_gram_validation():
    with pytest.raises(LatticeError):
        GramLattice.from_rows(["a", "b"], [[0, 1], [2, 0]])
    with pytest.raises(LatticeError):
        GramLattice.from_rows(["a"], [[0, 1], [1, 0]])


def test_a_block_and_h():
    a3 = a_block(3)
    assert a3.gram == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    h = hyperbolic_plane()
    assert discriminant(h) == -1
    assert signature(h) == (1, 0, 1)
    assert parity(h) == "even"


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


def test_unimodular_iff_237_over_cusp_range():
    # the closed formula equals the determinant (previous test); sweep it
    hits = [
        (p, q, r)
        for (p, q, r) in cusp_triples(20)
        if abs(disc_formula(p, q, r)) == 1
    ]
    assert hits == [(2, 3, 7)]
    # spot-check the formula-determinant agreement in the extended range
    rng = random.Random(2)
    pool = [t for t in cusp_triples(20) if max(t) > 12]
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
    for triple in [(2, 3, 7), (3, 3, 4), (2, 4, 6)]:
        tts = t_tilde_lattice(*triple, "S")
        ttp = t_tilde_lattice(*triple, "S'")
        n = ttp.rank
        b = [[int(i == j) for j in range(n)] for i in range(n)]
        # last S-vector in the S' basis: s- = s+ - t2
        b[n - 2][n - 1] = 1
        b[n - 1][n - 1] = -1
        assert ttp.basis_changed(b).gram == tts.gram


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
    perm = tt.permuted(order)
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
    lat = GramLattice.from_rows(["a", "b", "c"], [[0, 1, 0], [1, 0, 0], [0, 0, -2]])
    assert signature(lat) == (1, 0, 2)


@given(symmetric_matrices())
@settings(max_examples=80, deadline=None)
def test_det_and_inertia_match_oracles(g):
    lat = GramLattice.from_rows([f"v{i}" for i in range(len(g))], g)
    assert discriminant(lat) == bareiss_det([list(r) for r in g])
    assert signature(lat) == congruence_sig([[Fraction(v) for v in r] for r in g])


@given(square_matrices())
@settings(max_examples=80, deadline=None)
def test_det_of_general_matrices_matches_oracle(m):
    assert _eliminate(m)[0] == bareiss_det([list(r) for r in m])


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
    assert _eliminate(m) == dense_eliminate(m)


def test_snf_239():
    lat = t_lattice(2, 3, 9)
    snf = smith_normal_form(lat)
    assert snf.divisors == (1,) * 11 + (3,)


def _snf_oracle_check(lat):
    """Independent re-multiplication of U G V, and |det U| = |det V| = 1."""
    snf = smith_normal_form(lat)
    assert dense_snf_verify(snf, lat)
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
        corpus.append(GramLattice.from_rows([f"v{i}" for i in range(n)], rows))
    for lat in corpus:
        assert lat.rank <= 25
        snf = _snf_oracle_check(lat)
        prod = 1
        for d in snf.divisors:
            prod *= d
        assert abs(prod) == abs(discriminant(lat))


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _integer_inverse(m):
    """Inverse of a square integer matrix if it has integer entries, else
    None (Gauss-Jordan over Fraction)."""
    n = len(m)
    a = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    inv = [row[n:] for row in a]
    if any(x.denominator != 1 for row in inv for x in row):
        return None
    return tuple(tuple(int(x) for x in row) for row in inv)


def _bumped(t, i, j, delta):
    rows = [list(r) for r in t]
    rows[i][j] += delta
    return tuple(map(tuple, rows))


@st.composite
def gram_lattices(draw):
    """symmetric_matrices, sometimes with one row and column set to zero."""
    g = draw(symmetric_matrices())
    n = len(g)
    if n and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        for i in range(n):
            g[k][i] = g[i][k] = 0
    return GramLattice.from_rows([f"v{i}" for i in range(n)], g)


@given(gram_lattices(), st.data())
@settings(max_examples=80, deadline=None)
def test_sparse_verify_agrees_with_the_dense_oracle(lat, data):
    """On the SNF and on a certificate with one entry of U, V or D moved
    by +-1 (carrying the true integer inverse when there is one), the
    sparse check and the dense oracle give the same verdict."""
    snf = smith_normal_form(lat)
    assert snf.verify(lat) and dense_snf_verify(snf, lat)
    n = lat.rank
    if n == 0:
        return
    which = data.draw(st.sampled_from(["u", "v", "divisors"]))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    delta = data.draw(st.sampled_from([1, -1]))
    if which == "divisors":
        d = list(snf.divisors)
        d[i] += delta
        bad = SNFResult(**dict(vars(snf), divisors=tuple(d)))
    else:
        t = _bumped(getattr(snf, which), i, j, delta)
        inv = _integer_inverse(t) or getattr(snf, which + "_inv")
        bad = SNFResult(**dict(vars(snf), **{which: t, which + "_inv": inv}))
    assert bad.verify(lat) == dense_snf_verify(bad, lat)


@pytest.mark.parametrize(
    "lat",
    [
        t_lattice(2, 3, 7),
        t_lattice(3, 4, 5),
        t_tilde_lattice(2, 3, 7, "S'"),
        t_tilde_lattice(3, 3, 3, "S"),
    ],
    ids=["T237", "T345", "T~237-S'", "T~333-S"],
)
def test_every_single_entry_mutant_of_a_transform_fails(lat):
    snf = smith_normal_form(lat)
    n = lat.rank
    for name in ("u", "v", "u_inv", "v_inv"):
        t = getattr(snf, name)
        for i, j, delta in itertools.product(range(n), range(n), (1, -1)):
            bad = SNFResult(**dict(vars(snf), **{name: _bumped(t, i, j, delta)}))
            assert not bad.verify(lat), (name, i, j, delta)


def _fields(snf):
    return snf.divisors, snf.u, snf.v, snf.u_inv, snf.v_inv


@given(symmetric_matrices())
@settings(max_examples=80, deadline=None)
def test_snf_matches_the_dense_oracle_field_by_field(g):
    lat = GramLattice.from_rows([f"v{i}" for i in range(len(g))], g)
    assert _fields(smith_normal_form(lat)) == _fields(dense_smith(lat))


@pytest.mark.parametrize("r", [20, 80, 170])
@pytest.mark.parametrize("gen", ["T", "S", "S'"])
def test_snf_matches_the_dense_oracle_on_the_ladder(gen, r):
    """T(3,4,r) and its Milnor lattice in both bases, up to rank 176."""
    lat = t_lattice(3, 4, r) if gen == "T" else t_tilde_lattice(3, 4, r, gen)
    assert _fields(smith_normal_form(lat)) == _fields(dense_smith(lat))


@pytest.mark.parametrize(
    "lat", [t_lattice(3, 4, 5), t_tilde_lattice(3, 4, 5, "S'")], ids=["T345", "T~345-S'"]
)
def test_every_single_entry_mutant_of_the_certificate_fails(lat):
    """One entry of any of the five fields moved by +-1: U U^-1 = I,
    V V^-1 = I and U^-1 (D V^-1) = G reject it, and so does the dense
    oracle, which multiplies out U G V, U U^-1 and V V^-1."""
    snf = smith_normal_form(lat)
    n = lat.rank
    assert snf.divisors[-1] == (0 if lat.labels[-1] == "t2" else 13)
    for delta in (1, -1):
        for k in range(n):
            d = list(snf.divisors)
            d[k] += delta
            bad = SNFResult(**dict(vars(snf), divisors=tuple(d)))
            assert not bad.verify(lat) and not dense_snf_verify(bad, lat), (k, delta)
        for name, i, j in itertools.product(("u", "v", "u_inv", "v_inv"), range(n), range(n)):
            bad = SNFResult(**dict(vars(snf), **{name: _bumped(getattr(snf, name), i, j, delta)}))
            assert not bad.verify(lat) and not dense_snf_verify(bad, lat), (name, i, j, delta)


@given(symmetric_matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_a_changed_entry_of_any_field_is_judged_as_the_dense_oracle_judges_it(g, data):
    """One entry of one of the five fields moved by +-1 or +-2, with no
    inverse carried along, on lattices that include singular ones with
    several zero divisors: the sparse check agrees with the dense oracle,
    and both reject the changed certificate."""
    lat = GramLattice.from_rows([f"v{i}" for i in range(len(g))], g)
    n = lat.rank
    if n == 0:
        return
    snf = smith_normal_form(lat)
    name = data.draw(st.sampled_from(["divisors", "u", "v", "u_inv", "v_inv"]))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    delta = data.draw(st.sampled_from([1, -1, 2, -2]))
    if name == "divisors":
        changed = snf.divisors[:i] + (snf.divisors[i] + delta,) + snf.divisors[i + 1 :]
    else:
        changed = _bumped(getattr(snf, name), i, j, delta)
    bad = SNFResult(**dict(vars(snf), **{name: changed}))
    assert bad.verify(lat) == dense_snf_verify(bad, lat)
    assert not bad.verify(lat), (name, i, j, delta)


@pytest.mark.parametrize(
    "diag", [(2, 3), (1, -2), (-1, 1)], ids=["no-chain", "negative", "negative-unit"]
)
def test_a_diagonal_that_is_no_nonnegative_divisor_chain_fails(diag):
    """U = V = I certifies U G V = diag(G) exactly, so only the chain or
    the sign rule can reject these."""
    lat = GramLattice.from_rows(["a", "b"], [[diag[0], 0], [0, diag[1]]])
    eye = ((1, 0), (0, 1))
    bad = SNFResult(diag, eye, eye, eye, eye)
    assert not bad.verify(lat)
    assert not dense_snf_verify(bad, lat)
    assert smith_normal_form(lat).verify(lat)


def test_a_negated_divisor_fails_although_the_products_hold():
    lat = t_lattice(2, 3, 9)
    snf = smith_normal_form(lat)
    k = lat.rank - 1
    bad = SNFResult(
        divisors=snf.divisors[:k] + (-snf.divisors[k],),
        u=snf.u[:k] + (tuple(-x for x in snf.u[k]),),
        v=snf.v,
        u_inv=tuple(r[:k] + (-r[k],) for r in snf.u_inv),
        v_inv=snf.v_inv,
    )
    n = lat.rank
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    diag = [[bad.divisors[i] if i == j else 0 for j in range(n)] for i in range(n)]
    assert _matmul(_matmul(bad.u, lat.gram), bad.v) == diag
    assert _matmul(bad.u, bad.u_inv) == eye
    assert not bad.verify(lat)


def test_verify_runs_no_elimination(monkeypatch):
    lat = t_tilde_lattice(2, 3, 7, "S'")
    snf = smith_normal_form(lat)

    def refuse(rows):
        raise AssertionError("verify eliminated a matrix")

    monkeypatch.setattr(quadlattice, "_eliminate", refuse)
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


def test_one_elimination_and_one_snf_per_lattice(monkeypatch):
    calls = _counting(monkeypatch, "_eliminate", "_smith")
    lat = t_tilde_lattice(2, 3, 9, "S'")
    for _ in range(2):
        discriminant(lat), signature(lat), smith_normal_form(lat), radical(lat)
    assert calls == {"_eliminate": 1, "_smith": 1}
    signature(t_tilde_lattice(2, 3, 9, "S'"))  # an equal object has its own
    assert calls == {"_eliminate": 2, "_smith": 1}


def test_glued_lattice_eliminates_each_lattice_once(monkeypatch):
    calls = _counting(monkeypatch, "_eliminate", "_smith")
    _, verdict = k3glue.glued_lattice(k3glue.pair_for_triple(2, 3, 7))
    assert verdict.isomorphic_to_k3
    assert calls == {"_eliminate": 2}  # the glued lattice and the K3 lattice


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
    odd = GramLattice.from_rows(["u", "v"], [[1, 0], [0, -1]])
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
