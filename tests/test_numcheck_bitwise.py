"""The one-pass numcheck kernel and the replayed seed draws against the
separate evaluations and the per-seed generator calls they replaced
(the oracles in conftest), bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    _phi_gradient_parts,
    looped_draw_per_seed,
    separate_ft_antigrad,
    separate_ft_eval,
    separate_ft_grad,
    separate_project_to_level,
    where_bump,
    where_bump_deriv,
)
from tpqr import numcheck
from tpqr.numcheck import FibrationParams, NumericalConfig, critical_points

TABLE_TRIPLES = (
    (2, 3, 7), (2, 3, 8), (2, 3, 9), (2, 4, 5), (2, 4, 6), (2, 4, 7), (2, 5, 5),
    (2, 5, 6), (3, 3, 4), (3, 3, 5), (3, 3, 6), (3, 4, 4), (3, 4, 5), (4, 4, 4),
)


def assert_bitwise(got, want, label=""):
    """Same type, dtype, shape and bytes: signed zeros must agree too."""
    assert type(got) is type(want), label
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, label
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), label


# --- kernel against the separate evaluations ---------------------------------------

phase = st.floats(0.0, 2 * math.pi)
phases = st.tuples(phase, phase, phase)


@st.composite
def rows(draw):
    """A point whose bump ratio on a chosen axis lies below, inside or above
    the transition (1/6, 1/2), or that has a zero coordinate or lies on an
    axis (ratio inf on the other two)."""
    kind = draw(st.sampled_from(["below", "inside", "above", "zero", "axis"]))
    axis = draw(st.integers(0, 2))
    mods = [draw(st.floats(1e-3, 1.0)) for _ in range(3)]
    ratio = {
        "below": st.floats(0.0, 1 / 6),
        "inside": st.floats(1 / 6, 1 / 2, exclude_min=True, exclude_max=True),
        "above": st.floats(1 / 2, 4.0),
    }.get(kind)
    if ratio is not None:
        rho = mods[axis] * draw(ratio)
        split = draw(st.floats(0.0, math.pi / 2))
        others = [k for k in range(3) if k != axis]
        mods[others[0]] = rho * math.cos(split)
        mods[others[1]] = rho * math.sin(split)
    elif kind == "zero":
        mods[axis] = 0.0
    else:
        mods = [mods[k] if k == axis else 0.0 for k in range(3)]
    return [m * complex(math.cos(ph), math.sin(ph)) for m, ph in zip(mods, draw(phases))]


stacks = st.lists(rows(), min_size=1, max_size=24).map(np.array)
times = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


def phi_gradients_oracle(pt):
    pt = np.asarray(pt, dtype=complex)
    coef, diag = _phi_gradient_parts(pt)
    out = coef[..., :, None] * np.conj(pt)[..., None, :]
    out[..., range(3), range(3)] = diag
    return out


# (kernel, oracle) for every function the one-pass kernel serves.
KERNELS = {
    "ft_eval": (numcheck.ft_eval, separate_ft_eval),
    "ft_grad": (numcheck.ft_grad, separate_ft_grad),
    "ft_antigrad": (numcheck.ft_antigrad, separate_ft_antigrad),
    "ft_real_jacobian": (
        numcheck.ft_real_jacobian,
        lambda p, pt: numcheck._real_jacobian(separate_ft_grad(p, pt),
                                              separate_ft_antigrad(p, pt)),
    ),
    "phi_gradients": (lambda p, pt: numcheck.phi_gradients(pt),
                      lambda p, pt: phi_gradients_oracle(pt)),
}


@settings(max_examples=150, deadline=None)
@given(stack=stacks, t=times, triple=st.sampled_from(TABLE_TRIPLES), theta=phase)
def test_kernel_equals_the_separate_evaluations_bitwise(stack, t, triple, theta):
    params = FibrationParams.minimal(*triple, theta=theta, t=t)
    for name, (kernel, oracle) in KERNELS.items():
        assert_bitwise(kernel(params, stack), oracle(params, stack), name)
        for row in stack:
            assert_bitwise(kernel(params, row), oracle(params, row), name)


@settings(max_examples=100, deadline=None)
@given(stack=stacks, t=times, data=st.data())
def test_gradients_of_a_row_subset_equal_those_of_the_subset(stack, t, data):
    params = FibrationParams.minimal(2, 3, 7, theta=0.4, t=t)
    subset = np.array(data.draw(st.lists(st.booleans(), min_size=len(stack),
                                         max_size=len(stack))), dtype=bool)
    value, grads = numcheck._ft_pass(params, stack)
    assert_bitwise(value, separate_ft_eval(params, stack))
    holo, anti = grads(subset, anti=True)
    assert_bitwise(holo, separate_ft_grad(params, stack[subset]))
    assert_bitwise(anti, separate_ft_antigrad(params, stack[subset]))
    assert_bitwise(grads(subset), holo)


edges = st.sampled_from([0.0, 1 / 6, 0.5, math.inf])


@given(s=st.lists(st.one_of(st.floats(0.0, 1.0), edges), max_size=12).map(np.array))
@example(s=np.array(1 / 6))
@example(s=np.array(0.3))
def test_bump_and_its_derivative_equal_the_where_selection(s):
    assert_bitwise(numcheck.bump(s), where_bump(s))
    assert_bitwise(numcheck.bump_deriv(s), where_bump_deriv(s))
    assert_bitwise(numcheck.bump(float(np.sum(s))), where_bump(float(np.sum(s))))
    with pytest.raises(ValueError):
        numcheck.bump(np.append(s, -1e-300))
    with pytest.raises(ValueError):
        numcheck.bump_deriv(-0.25)


# --- replayed draws against the generator calls --------------------------------------


def assert_same_draws(seed, count, choices, width, cached=None):
    """_draw_per_seed and the per-seed loop from equal generators: equal
    picks and doubles, equal generator state, equal next draws."""
    low = tuple(0.25 * k for k in range(width))
    high = tuple(1.0 + k for k in range(width))
    gens = [np.random.default_rng(seed) for _ in range(2)]
    if cached is not None:
        for g in gens:
            state = g.bit_generator.state
            state.update(has_uint32=1, uinteger=cached)
            g.bit_generator.state = state
    picks, draws = numcheck._draw_per_seed(gens[0], count, choices, low, high)
    want_picks, want_draws = looped_draw_per_seed(gens[1], count, choices, low, high)
    assert_bitwise(picks, want_picks)
    assert_bitwise(draws, want_draws)
    assert gens[0].bit_generator.state == gens[1].bit_generator.state
    assert gens[0].integers(7) == gens[1].integers(7)
    assert gens[0].random() == gens[1].random()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    count=st.one_of(st.integers(0, 40), st.integers(41, 1500)),
    choices=st.integers(2, 60),
    width=st.integers(1, 6),
    cached=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
@example(seed=0, count=1, choices=3, width=5, cached=None)
@example(seed=1, count=0, choices=3, width=3, cached=7)
@example(seed=2, count=1, choices=3, width=3, cached=7)
@example(seed=3, count=25, choices=1, width=2, cached=None)
@example(seed=4, count=25, choices=2**31 + 1, width=2, cached=None)
def test_bulk_draw_equals_the_per_seed_calls(seed, count, choices, width, cached):
    assert_same_draws(seed, count, choices, width, cached)


@pytest.mark.parametrize("seed", [0, 11, 12345])
def test_bulk_draw_replays_a_cached_half_word_that_lemire_rejects(seed):
    """A cached half-word 0 gives the leftover 0 < (2^32 - 3) % 3 = 1 for
    three choices, so the first index is drawn again from a new word."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    state.update(has_uint32=1, uinteger=0)
    rng.bit_generator.state = state
    rng.integers(3)
    assert rng.bit_generator.state["has_uint32"] == 1  # the rejected half was replaced
    assert_same_draws(seed, 40, 3, 3, cached=0)


def test_six_normals_are_the_two_triples_of_normals():
    """lagrangian_defect draws standard_normal(6) per seed where it drew
    standard_normal(3) twice; the generator gives the same doubles."""
    for seed in range(20):
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            assert_bitwise(one.random(2), two.random(2))
            assert_bitwise(one.standard_normal(6),
                           np.concatenate([two.standard_normal(3), two.standard_normal(3)]))


# --- the sampler against one built from the oracles ----------------------------------


def oracle_samples(params, config, monkeypatch):
    rng = np.random.default_rng(config.seed)
    n_torus = config.samples // 2
    torus = numcheck._torus_seeds(params, rng.uniform(0.0, 2.0 * math.pi, size=(n_torus, 2)))
    with monkeypatch.context() as patch:
        patch.setattr(numcheck, "_draw_per_seed", looped_draw_per_seed)
        shell = numcheck._shell_seeds(params, critical_points(params), rng,
                                      config.samples - n_torus)
    return separate_project_to_level(params, np.concatenate([torus, shell]), config)


@pytest.mark.parametrize("triple", TABLE_TRIPLES)
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_sampler_equals_the_oracle_sampler_bitwise(triple, t, monkeypatch):
    params = FibrationParams.minimal(*triple, theta=1.1 + sum(triple), t=t)
    config = NumericalConfig(samples=301, seed=sum(triple) * 7 + int(4 * t))
    assert_bitwise(numcheck.sample_on_level(params, config),
                   oracle_samples(params, config, monkeypatch))
