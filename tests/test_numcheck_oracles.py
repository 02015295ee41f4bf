"""The Newton path and the per-cell steps of numcheck against their earlier
bodies (the oracles in conftest), bit for bit, and the input rules of the
bump: NaN is rejected like a negative argument."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    all_triples,
    built_hessian_model,
    iterated_half_sphere_boundary_points,
    looped_defect_draws,
    per_point_critical_reports,
    separate_project_to_level,
    stacked_real_jacobian,
    triu_fd_hessian,
)
from test_numcheck_bitwise import TABLE_TRIPLES, assert_bitwise
from tpqr import numcheck
from tpqr.numcheck import FibrationParams, NumericalConfig, critical_points


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       count=st.one_of(st.integers(0, 30), st.integers(31, 600)))
@example(seed=0, count=10)
@example(seed=5, count=0)
def test_defect_draws_equal_the_per_seed_loop(seed, count):
    one, two = np.random.default_rng(seed), np.random.default_rng(seed)
    phases, noise = numcheck._defect_draws(one, count)
    want_phases, want_noise = looped_defect_draws(two, count)
    assert_bitwise(phases, want_phases)
    assert_bitwise(noise, want_noise)
    assert one.bit_generator.state == two.bit_generator.state
    assert one.standard_normal() == two.standard_normal()


def tail_seeds(params):
    """Torus and shell seeds at distances from the level that differ by
    orders of magnitude, then one far row: rows stop at different
    iterations, and the last ones move alone."""
    rng = np.random.default_rng(17)
    torus = numcheck._torus_seeds(params, rng.uniform(0.0, 2.0 * math.pi, size=(12, 2)))
    torus *= 1.0 + np.logspace(-14, -2, 12)[:, None]
    shell = numcheck._shell_seeds(params, critical_points(params), rng, 12)
    return np.concatenate([torus, shell, torus[-1:] * 1.3])


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_projection_with_a_one_row_tail_equals_the_separate_projection(t, monkeypatch):
    params = FibrationParams.minimal(2, 3, 7, theta=0.9, t=t)
    config = NumericalConfig()
    seeds = tail_seeds(params)
    sizes = []
    kernel = numcheck._ft_pass

    def counted(params, pt):
        sizes.append(len(pt))
        return kernel(params, pt)

    monkeypatch.setattr(numcheck, "_ft_pass", counted)
    got = numcheck.project_to_level(params, seeds, config)
    monkeypatch.undo()
    assert sizes[0] == len(seeds) and sizes == sorted(sizes, reverse=True)
    assert sizes.count(1) >= 2 and len(set(sizes)) >= 4  # a tail of one row
    assert_bitwise(got, separate_project_to_level(params, seeds, config))


@pytest.mark.parametrize("triple", TABLE_TRIPLES)
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_critical_reports_equal_the_per_point_construction(triple, t):
    params = FibrationParams.minimal(*triple, theta=2.2, t=t)
    config = NumericalConfig(rank_tol=1e-15)  # some rank verdicts fail
    pts = critical_points(params)
    got = numcheck._critical_reports(params, pts, config)
    want = per_point_critical_reports(params, pts, config)
    assert got == want
    for g, w in zip(got, want):
        for key, value in vars(w).items():
            assert type(vars(g)[key]) is type(value)
            if type(value) is float:
                assert vars(g)[key].hex() == value.hex()


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.complex_numbers(max_magnitude=1e3), min_size=33, max_size=33),
       delta=st.floats(1e-8, 1.0))
def test_fd_hessian_equals_the_earlier_body(values, delta):
    values = np.array(values, dtype=complex)
    assert_bitwise(numcheck._fd_hessian(values, delta), triu_fd_hessian(values, delta))


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from([(3,), (0, 3), (1, 3), (17, 3), (2, 5, 3)]),
       seed=st.integers(0, 2**32 - 1))
def test_real_jacobian_equals_the_stacked_one(shape, seed):
    rng = np.random.default_rng(seed)
    holo, anti = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    anti[rng.random(shape) < 0.3] = -0.0  # signed zeros, as at t = 0
    assert_bitwise(numcheck._real_jacobian(holo, anti), stacked_real_jacobian(holo, anti))


@settings(max_examples=200, deadline=None)
@given(p=st.integers(2, 700), a=st.floats(1.0, 6.7e153))
@example(p=2, a=1e8)
def test_hessian_model_equals_the_one_built_per_call(p, a):
    try:
        want = built_hessian_model(p, a)
    except numcheck.AdmissibilityError:
        with pytest.raises(numcheck.AdmissibilityError):
            numcheck.hessian_model(p, a)
        return
    got = numcheck.hessian_model(p, a)
    for key, value in vars(want).items():
        assert_bitwise(vars(got)[key], value, key)


def test_hessian_model_matrices_are_read_only():
    model = numcheck.hessian_model(2, 1e8)
    for m in (model.b_matrix, model.p_matrix, model.ptbp):
        with pytest.raises(ValueError):
            m[0, 0] = 0.0
    model.a_matrix[0, 0] = 5.0  # its own
    assert numcheck.hessian_model(2, 1e8).a_matrix[0, 0] == -1.0


@st.composite
def domain_params(draw):
    """Parameters of a cusp triple with indices <= 9 whose a passes the
    domain bound: the next double above it, or any double up to 1e40."""
    triple = draw(st.sampled_from(list(all_triples(9, strict=True))))
    low = math.nextafter(FibrationParams(*triple, a=1.0).domain_bound, math.inf)
    a = draw(st.one_of(st.just(low), st.floats(low, 1e40)))
    return FibrationParams(*triple, a=a, theta=draw(st.floats(0.0, 2.0 * math.pi)))


@settings(max_examples=200, deadline=None)
@given(params=domain_params(), seed=st.integers(0, 2**64 - 1), count=st.integers(1, 300))
def test_half_sphere_points_equal_the_iterated_solve(params, seed, count):
    one, two = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_bitwise(numcheck._half_sphere_boundary_points(params, one, count),
                   iterated_half_sphere_boundary_points(params, two, count))
    assert one.bit_generator.state == two.bit_generator.state


@pytest.mark.parametrize("fn", [numcheck.bump, numcheck.bump_deriv])
@pytest.mark.parametrize(
    "arg", [math.nan, np.array([0.3, math.nan]), np.array(math.nan), np.array([[0.1], [-math.nan]])],
    ids=["scalar", "array", "0-d", "negative-nan"],
)
def test_bump_rejects_nan(fn, arg):
    with pytest.raises(ValueError, match="bump argument"):
        fn(arg)
