import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_triples,
    column_monodromy_action,
    dense_berkowitz,
    dense_eliminate,
    general_eliminate,
    integer_matrices,
    interpolated_char_poly,
    mat_mul,
    reflection_monodromy,
    square_matrices,
)
from tpqr import cli, quadlattice, triple_excess
from tpqr.milnorfiber import char_poly, monodromy_action
from tpqr.quadlattice import _eliminate, t_tilde_lattice


def _arm(labels, m) -> list[int]:
    """Basis indices of the spheres s{m}_1, s{m}_2, ... among the S' labels."""
    names = itertools.takewhile(labels.__contains__, (f"s{m}_{j}" for j in itertools.count(1)))
    return [labels.index(name) for name in names]


def _removed_sphere(labels, m) -> list[int]:
    """Coordinates of the sphere s{m}_0 dropped from chain m: t2 - sum_j s{m}_j."""
    v = [0] * len(labels)
    v[labels.index("t2")] = 1
    for i in _arm(labels, m):
        v[i] = -1
    return v


def _pairing(gram, u, v) -> int:
    return sum(x * g * y for x, row in zip(u, gram) for g, y in zip(row, v))


def test_the_s_prime_basis_is_the_default_and_ends_with_t2():
    for triple in [(2, 3, 7), (3, 3, 4), (3, 3, 3)]:
        lattice = t_tilde_lattice(*triple)
        assert lattice == t_tilde_lattice(*triple, "S'")
        assert lattice.rank == sum(triple) - 1 == len(monodromy_action(*triple))
        assert lattice.labels.index("t2") == lattice.rank - 1
        assert [len(_arm(lattice.labels, m)) for m in (1, 2, 3)] == [k - 1 for k in triple]


def _count_lattices(monkeypatch) -> list:
    calls = []
    build = quadlattice.t_tilde_lattice

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(quadlattice, "t_tilde_lattice", counted)
    return calls


def test_lattice_is_built_once_and_only_when_read(monkeypatch, capsys):
    calls = _count_lattices(monkeypatch)
    monodromy_action(3, 4, 114)
    assert calls == []
    assert cli.main(["monodromy", "3", "4", "114", "--json"]) == 0
    h2 = json.loads(capsys.readouterr().out)["h2_action"]
    assert len(h2["gram"]) == 120 and h2["labels"].index("t2") == 119
    assert _arm(h2["labels"], 3)[-1] == 117
    assert calls == [(3, 4, 114)]


def test_center_pairs_plus_one_with_first_arm_spheres():
    lattice = t_tilde_lattice(2, 3, 7)
    g = lattice.gram
    plus = lattice.labels.index("s+")
    for m in (1, 2, 3):
        first, *others = _arm(lattice.labels, m)
        assert g[plus][first] == 1
        for other in others:
            assert g[plus][other] == 0


def test_removed_sphere_expansion_pairings():
    # s+ . expanded s{m}_0 = -1 while s+ . s{m}_1 = +1
    lattice = t_tilde_lattice(2, 3, 7)
    g = lattice.gram
    plus = [int(name == "s+") for name in lattice.labels]
    for m in (1, 2, 3):
        assert _pairing(g, plus, _removed_sphere(lattice.labels, m)) == -1


def test_each_removed_sphere_closes_its_chain():
    # s{m}_0, s{m}_1, ..., s{m}_last pair as a cycle of -2 spheres, each
    # meeting the next once (twice when the cycle has two spheres)
    for triple in all_triples(10):
        lattice = t_tilde_lattice(*triple)
        for m in (1, 2, 3):
            unit = [[int(i == j) for j in range(lattice.rank)] for i in _arm(lattice.labels, m)]
            chain = [_removed_sphere(lattice.labels, m), *unit]
            n = len(chain)
            got = [[_pairing(lattice.gram, u, v) for v in chain] for u in chain]
            want = [
                [-2 if i == j else ((j - i) % n == 1) + ((i - j) % n == 1) for j in range(n)]
                for i in range(n)
            ]
            assert got == want, (triple, m)


def test_fiber_class_self_pairing_zero():
    lattice = t_tilde_lattice(3, 4, 5)
    t2 = lattice.labels.index("t2")
    assert lattice.gram[t2][t2] == 0


def test_monodromy_fixes_fiber_and_is_isometry_small():
    mu = monodromy_action(2, 3, 7)
    n = len(mu)
    assert [mu[i][n - 1] for i in range(n)] == [0] * (n - 1) + [1]
    g = [list(r) for r in t_tilde_lattice(2, 3, 7, "S'").gram]
    assert mat_mul(mat_mul(list(zip(*mu)), g), mu) == g


def test_monodromy_isometry_all_triples_to_ten():
    for triple in all_triples(10):
        mu = monodromy_action(*triple)
        g = [list(r) for r in t_tilde_lattice(*triple, "S'").gram]
        assert mat_mul(mat_mul(list(zip(*mu)), g), mu) == g, triple


def test_monodromy_determinant_unit():
    from conftest import bareiss_det

    for triple in [(2, 3, 7), (3, 3, 4), (2, 4, 6), (3, 3, 3)]:
        assert abs(bareiss_det([list(r) for r in monodromy_action(*triple)])) == 1


def test_p2_wrap_formula():
    # with a single sphere on the arm, one step lands on t2 minus itself
    mu = monodromy_action(2, 3, 7)
    n = len(mu)
    col = [mu[i][0] for i in range(n)]
    expect = [0] * n
    expect[0] = -1
    expect[n - 1] = 1
    assert col == expect


def test_wrap_expansion_on_longer_arm():
    # (3,4,5): the q-arm is s2_1..s2_3; its last sphere wraps to s2_0 = t2 - chain sum
    labels = t_tilde_lattice(3, 4, 5).labels
    mu = monodromy_action(3, 4, 5)
    n = len(mu)
    arm = _arm(labels, 2)
    col = [mu[i][arm[-1]] for i in range(n)]
    assert col == _removed_sphere(labels, 2)
    # interior steps shift by one
    col0 = [mu[i][arm[0]] for i in range(n)]
    expect0 = [0] * n
    expect0[arm[1]] = 1
    assert col0 == expect0


def test_center_image():
    labels = t_tilde_lattice(2, 3, 7).labels
    mu = monodromy_action(2, 3, 7)
    n = len(mu)
    plus = n - 2
    col = [mu[i][plus] for i in range(n)]
    expect = [0] * n
    expect[plus] = 1
    for m in (1, 2, 3):
        expect[_arm(labels, m)[0]] += 1
    expect[labels.index("t2")] -= 1
    assert col == expect


def test_monodromy_matches_the_column_built_oracle():
    triples = itertools.product(range(2, 13), repeat=3)
    for triple in [*(t for t in triples if triple_excess(*t) >= 0), (3, 4, 114), (2, 3, 116)]:
        assert monodromy_action(*triple) == column_monodromy_action(*triple), triple


def test_monodromy_is_the_product_of_picard_lefschetz_reflections():
    triples = list(all_triples(12))
    assert len(triples) == 272
    for triple in triples:
        assert monodromy_action(*triple) == reflection_monodromy(*triple), triple


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.integers(2, 40)] * 3).filter(lambda t: triple_excess(*t) >= 0))
def test_monodromy_is_the_reflection_product_on_larger_triples(triple):
    assert monodromy_action(*triple) == reflection_monodromy(*triple)


def test_monodromy_has_infinite_order_for_cusp_triples():
    for triple in [(2, 3, 7), (2, 4, 5), (3, 3, 4)]:
        mu = [list(r) for r in monodromy_action(*triple)]
        n = len(mu)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        power = ident
        for _ in range(100):
            power = mat_mul(power, mu)
            assert power != ident


def test_char_poly_against_direct_expansion():
    mu = monodromy_action(2, 3, 7)
    coeffs = char_poly(mu)
    n = len(mu)
    assert len(coeffs) == n + 1
    assert coeffs[-1] == 1  # monic
    # evaluate at a few integers and compare against a determinant oracle
    from conftest import bareiss_det

    for x in (-2, 2, 5):
        value = sum(c * x**k for k, c in enumerate(coeffs))
        rows = [[(x if i == j else 0) - mu[i][j] for j in range(n)] for i in range(n)]
        assert value == bareiss_det(rows)
    # the fixed fiber class forces a root at 1
    assert sum(coeffs) == 0


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_char_poly_is_the_closed_form_monodromy_polynomial():
    # (x^p - 1)(x^q - 1)(x^r - 1)/(x - 1), coefficients lowest degree first
    for p, q, r in [*all_triples(10, strict=True), (3, 4, 114), (2, 3, 116)]:
        want = [1] * p  # (x^p - 1)/(x - 1)
        for k in (q, r):
            want = poly_mul(want, [-1] + [0] * (k - 1) + [1])
        assert list(char_poly(monodromy_action(p, q, r))) == want, (p, q, r)


@given(square_matrices())
@settings(max_examples=50, deadline=None)
def test_char_poly_matches_interpolation_oracle(m):
    assert char_poly(m) == interpolated_char_poly(m)


@pytest.mark.parametrize("m", [((1, 0, 0), (0, 1)), ((1, 2),), ((1,), (2,)), ((1, 0), (0, 1, 0))])
def test_char_poly_refuses_a_matrix_that_is_not_square(m):
    with pytest.raises(ValueError, match="^char_poly needs a square matrix$"):
        char_poly(m)


@given(integer_matrices())
@settings(max_examples=150, deadline=None)
def test_char_poly_matches_dense_berkowitz(m):
    assert char_poly(m) == dense_berkowitz(m)


def test_sparse_kernels_match_dense_oracles_on_monodromy():
    for triple in all_triples(10):
        mu = monodromy_action(*triple)
        lat = t_tilde_lattice(*triple, "S'")
        g = lat.gram
        assert char_poly(mu) == dense_berkowitz(mu), triple
        assert general_eliminate(mu) == dense_eliminate(mu), triple
        assert _eliminate(lat._rows) == dense_eliminate(g), triple
