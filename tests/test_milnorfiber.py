import itertools
import json

import pytest
from hypothesis import given, settings

from conftest import (
    all_triples,
    column_monodromy_action,
    dense_berkowitz,
    dense_eliminate,
    general_eliminate,
    integer_matrices,
    interpolated_char_poly,
    mat_mul,
    square_matrices,
)
from tpqr import cli, milnorfiber, triple_excess
from tpqr.milnorfiber import (
    char_poly,
    monodromy_action,
    section_vector,
    surface_system,
)
from tpqr.quadlattice import _eliminate, t_tilde_lattice


def test_surface_system_matches_lattice():
    for triple in [(2, 3, 7), (3, 3, 4), (3, 3, 3)]:
        sys_ = surface_system(*triple)
        assert sys_.lattice == t_tilde_lattice(*triple, "S'")
        assert sys_.rank == sum(triple) - 1
        assert sys_.labels[sys_.t2_index] == "t2"


def _count_lattices(monkeypatch) -> list:
    calls = []
    build = milnorfiber.t_tilde_lattice

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(milnorfiber, "t_tilde_lattice", counted)
    return calls


def test_lattice_is_built_once_and_only_when_read(monkeypatch, capsys):
    calls = _count_lattices(monkeypatch)
    monodromy_action(3, 4, 114), section_vector(3, 4, 114)
    sys_ = surface_system(3, 4, 114)
    assert sys_.rank == 120 and sys_.t2_index == 119 and sys_.arm_indices(3)[-1] == 117
    assert calls == []
    assert sys_.labels[sys_.t2_index] == "t2" and sys_.lattice.rank == 120
    assert calls == [(3, 4, 114)]
    calls.clear()
    assert cli.main(["monodromy", "3", "4", "114", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["h2_action"]["gram"]) == 120
    assert calls == [(3, 4, 114)]


def test_surface_system_rejects_hyperbolic_deficit():
    with pytest.raises(ValueError):
        surface_system(2, 2, 2)
    with pytest.raises(ValueError):
        surface_system(1, 5, 9)


def test_center_pairs_plus_one_with_first_arm_spheres():
    sys_ = surface_system(2, 3, 7)
    g = sys_.lattice.gram
    plus = sys_.rank - 2
    for m in (1, 2, 3):
        first = sys_.arm_indices(m)[0]
        assert g[plus][first] == 1
        for other in sys_.arm_indices(m)[1:]:
            assert g[plus][other] == 0


def test_removed_sphere_expansion_pairings():
    # s+ . expanded s{m}_0 = -1 while s+ . s{m}_1 = +1
    sys_ = surface_system(2, 3, 7)
    g = sys_.lattice.gram
    plus = sys_.rank - 2
    for m in (1, 2, 3):
        e = sys_.expand_sigma_m0(m)
        pairing = sum(e[i] * g[plus][i] for i in range(sys_.rank))
        assert pairing == -1


def test_fiber_class_self_pairing_zero():
    sys_ = surface_system(3, 4, 5)
    t2 = sys_.t2_index
    assert sys_.lattice.gram[t2][t2] == 0


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
    # (3,4,5): the q-arm has indices 1..3; its last sphere wraps through t2
    sys_ = surface_system(3, 4, 5)
    mu = monodromy_action(3, 4, 5)
    n = len(mu)
    arm = sys_.arm_indices(2)
    last = arm[-1]
    col = [mu[i][last] for i in range(n)]
    expect = [0] * n
    for i in arm:
        expect[i] = -1
    expect[sys_.t2_index] = 1
    assert col == expect
    # interior steps shift by one
    col0 = [mu[i][arm[0]] for i in range(n)]
    expect0 = [0] * n
    expect0[arm[1]] = 1
    assert col0 == expect0


def test_center_image():
    sys_ = surface_system(2, 3, 7)
    mu = monodromy_action(2, 3, 7)
    n = len(mu)
    plus = n - 2
    col = [mu[i][plus] for i in range(n)]
    expect = [0] * n
    expect[plus] = 1
    for m in (1, 2, 3):
        expect[sys_.arm_indices(m)[0]] += 1
    expect[sys_.t2_index] -= 1
    assert col == expect


def test_monodromy_matches_the_column_built_oracle():
    triples = itertools.product(range(2, 13), repeat=3)
    for triple in [*(t for t in triples if triple_excess(*t) >= 0), (3, 4, 114), (2, 3, 116)]:
        assert monodromy_action(*triple) == column_monodromy_action(*triple), triple


def test_monodromy_has_infinite_order_for_cusp_triples():
    for triple in [(2, 3, 7), (2, 4, 5), (3, 3, 4)]:
        mu = [list(r) for r in monodromy_action(*triple)]
        n = len(mu)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        power = ident
        for _ in range(100):
            power = mat_mul(power, mu)
            assert power != ident


def test_section_vector_pairings():
    sec = section_vector(2, 3, 7)
    sys_ = surface_system(2, 3, 7)
    assert sec[sys_.t2_index] == 1
    assert all(sec[i] == 0 for i in range(sys_.rank) if i != sys_.t2_index)
    # against the expanded removed spheres the pairing is +1
    for m in (1, 2, 3):
        e = sys_.expand_sigma_m0(m)
        assert sum(a * b for a, b in zip(sec, e)) == 1


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
