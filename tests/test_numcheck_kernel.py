"""The level-set kernel against the one it replaced (the oracle
reducing_ft_pass in conftest), bit for bit with signed zeros; the numpy
identities its column arithmetic rests on; the Newton loop against the
one that gathered its rows on every step (gathered_newton); and the
axial Newton solve, which accepts rows that stall at the rounding floor
of ft and no others."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_same_bits, gathered_newton, reducing_ft_pass
from test_numcheck_bitwise import TABLE_TRIPLES, rows
from tpqr import cli, numcheck
from tpqr.numcheck import FibrationParams, ProjectionError, critical_points, hessian_fd_check

# --- the kernel against the reducing oracle ------------------------------------------

phase = st.floats(0.0, 2 * math.pi)
times = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def signed_rows(draw):
    """A row of rows(), with some of its six real parts set to 0.0 or -0.0
    and the sign of some of its zero parts flipped.  All six may end up
    zero: the origin, which both kernels must reject."""
    parts = np.array(draw(rows()), dtype=complex).view(float)
    for k in range(6):
        change = draw(st.sampled_from(["keep", "keep", "zero", "negative zero", "flip zero"]))
        if change == "zero":
            parts[k] = 0.0
        elif change == "negative zero":
            parts[k] = -0.0
        elif change == "flip zero" and parts[k] == 0.0:
            parts[k] = -parts[k]
    return parts.view(complex)


MAX_ROWS = 24
stacks = st.lists(st.one_of(rows(), signed_rows()), min_size=1, max_size=MAX_ROWS)


def outputs(kernel, params, stack, subset):
    """Everything the kernel hands out: the value, the holomorphic gradient
    alone and with the antiholomorphic one, at every row and at a subset
    (a boolean mask; None for every row)."""
    value, grads = kernel(params, stack)
    return (value, grads(), *grads(anti=True), grads(subset), *grads(subset, anti=True))


def assert_kernel_equals_oracle(params, stack, subset):
    # the subnormal example gives NaN gradients in both kernels; as in
    # verify_fibration, numpy warns of none of its floating-point steps
    with np.errstate(all="ignore"):
        try:
            want = outputs(reducing_ft_pass, params, stack, subset)
        except ValueError as exc:
            assert str(exc) == "bump factors are undefined at the origin"
            with pytest.raises(ValueError, match="^bump factors are undefined at the origin$"):
                numcheck._ft_pass(params, stack)
            return
        got = outputs(numcheck._ft_pass, params, stack, subset)
    for name, g, w in zip(("value", "holo", "holo, anti", "anti", "holo of the subset",
                           "holo of the subset, anti", "anti of the subset"), got, want):
        assert_same_bits(g, w, name)


@settings(max_examples=300, deadline=None)
@given(rows_=stacks, copies=st.sampled_from([1, 1, 9, 90]), t=times,
       triple=st.sampled_from(TABLE_TRIPLES), theta=phase,
       mask=st.lists(st.booleans(), min_size=MAX_ROWS, max_size=MAX_ROWS))
@example(rows_=[[0j, 4.83e-312j, 1.07e-311 + 0j]], copies=1, t=0.5, triple=(2, 3, 7),
         theta=0.0, mask=[True] * MAX_ROWS)
def test_kernel_equals_the_reducing_oracle_bitwise(rows_, copies, t, triple, theta, mask):
    """Stacks of up to 2160 rows, so that numpy's vector loops run too.  In
    the example, a subnormal row, both kernels give NaN gradients with the
    same bits."""
    params = FibrationParams.minimal(*triple, theta=theta, t=t)
    stack = np.tile(np.array(rows_), (copies, 1))
    subset = np.tile(mask[:len(rows_)], copies)
    assert_kernel_equals_oracle(params, stack, subset)
    for row in stack[:4]:  # a single point, shape (3,), and a one-row stack
        assert_kernel_equals_oracle(params, row, None)
        assert_kernel_equals_oracle(params, row[None], np.array([True]))


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 0.3])
@pytest.mark.parametrize("zero", [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
def test_the_origin_is_rejected_at_every_time(t, zero):
    params = FibrationParams.minimal(2, 3, 7, theta=0.4, t=t)
    origin = np.array([zero, zero.conjugate(), -zero])
    for pts in (origin, np.array([[0.1, 0.2j, 0.3], origin])):
        for kernel in (numcheck._ft_pass, reducing_ft_pass):
            with pytest.raises(ValueError, match="origin"):
                kernel(params, pts)
        with pytest.raises(ValueError, match="origin"):
            numcheck.ft_eval(params, pts)


@pytest.mark.parametrize("row", [
    [complex(0.5, -0.0), complex(0.5, -0.0), complex(-0.5, -0.0)],
    [complex(-0.5, 0.0), complex(-0.5, -0.0), complex(-0.5, -0.0)],
])
def test_imaginary_parts_that_are_all_negative_zero_sum_to_zero(row):
    """The monomials and a*x*y*z of these rows of (2,3,7) all have the
    imaginary part -0.0, so at t = 0 the value's is 0.0 only if the sum
    starts from 0.0 as numpy's does."""
    params = FibrationParams.minimal(2, 3, 7, theta=0.0, t=0.0)
    assert_kernel_equals_oracle(params, np.array([row]), np.array([True]))
    assert math.copysign(1.0, numcheck._ft_pass(params, np.array(row))[0].imag) == 1.0


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_a_single_subnormal_coordinate_is_not_the_origin(t):
    params = FibrationParams.minimal(2, 3, 7, theta=0.4, t=t)
    tiny = 5e-324
    stack = np.array([[tiny, 0, 0], [0, -tiny, 0], [0, 0, 1j * tiny], [0, 0, -0.0 - 1j * tiny]],
                     dtype=complex)
    assert_kernel_equals_oracle(params, stack, np.array([True, False, True, True]))


# --- the numpy identities behind the column arithmetic ---------------------------------

SPECIAL = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -1e308, 1e308])


def same_up_to_nan_sign(got, want):
    """Equal dtype, shape and bytes once every NaN is the same NaN: which
    operand's NaN a sum or maximum returns is left open by IEEE 754, and
    numpy's reductions and elementwise loops differ in it."""
    def canonical(x):
        x = np.array(x)
        parts = x.view(float) if x.dtype == complex else x
        parts[np.isnan(parts)] = math.nan
        return x
    got, want = canonical(got), canonical(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.one_of(st.integers(1, 40), st.integers(41, 2000)), seed=st.integers(0, 2**32 - 1),
       share=st.sampled_from([0.0, 0.1, 0.5, 0.95]), complex_=st.booleans())
@example(n=2000, seed=0, share=0.5, complex_=True)
@example(n=1, seed=1, share=0.95, complex_=False)
def test_column_arithmetic_equals_the_reductions(n, seed, share, complex_):
    """_row_sum is x.sum(axis=-1), _row_norm np.linalg.norm(x, axis=-1) and
    nested np.maximum of the moduli is np.abs(x).max(axis=-1) for stacks
    of 3-vectors, bit for bit with signed zeros: a sum of -0.0 entries is
    0.0 in both.  The maximum is taken only of moduli, as in the
    inequality audit, which are never -0.0."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6 if complex_ else 3)) * 10.0 ** rng.integers(-300, 300, (1, 1))
    special = rng.random(x.shape) < share
    x[special] = rng.choice(SPECIAL, int(special.sum()))
    x[rng.integers(n)] = -0.0  # a row of negative zeros
    if complex_:
        x = x.view(complex)
    with np.errstate(all="ignore"):
        assert same_up_to_nan_sign(numcheck._row_sum(x), x.sum(axis=-1))
        assert same_up_to_nan_sign(numcheck._row_norm(x), np.linalg.norm(x, axis=-1))
        mod = np.abs(x)
        assert same_up_to_nan_sign(np.maximum(np.maximum(mod[:, 0], mod[:, 1]), mod[:, 2]),
                                   mod.max(axis=-1))


def test_a_sum_of_negative_zeros_is_positive_zero():
    x = np.full((5, 3), -0.0)
    assert numcheck._row_sum(x).tobytes() == x.sum(axis=-1).tobytes() == np.zeros(5).tobytes()
    z = np.full((5, 3), complex(-0.0, -0.0))
    assert numcheck._row_sum(z).tobytes() == z.sum(axis=-1).tobytes() == np.zeros(5, complex).tobytes()


# --- the axial Newton solve at the rounding floor --------------------------------------

# Cells of the grid theta = 2 pi k / 120 + 1e-3 over the 17 triples and
# t in {0, 1/2, 1} in which the axial solve of some critical point raised
# under the stop rule 1e-15 |tau| alone: three of each (triple, t) that has
# any (608 cells of 6120 did), as (triple, t, k).
FLOOR_CELLS = [
    ((2, 3, 6), 0.0, 10), ((2, 3, 6), 0.0, 32), ((2, 3, 6), 0.0, 92),
    ((2, 3, 6), 0.5, 60), ((2, 3, 6), 0.5, 97),
    ((2, 3, 8), 0.0, 3), ((2, 3, 8), 0.0, 5), ((2, 3, 8), 0.0, 6),
    ((2, 3, 8), 0.5, 3), ((2, 3, 8), 0.5, 5), ((2, 3, 8), 0.5, 6),
    ((2, 3, 8), 1.0, 99),
    ((2, 3, 9), 0.0, 0), ((2, 3, 9), 0.0, 1), ((2, 3, 9), 0.0, 2),
    ((2, 3, 9), 0.5, 0), ((2, 3, 9), 0.5, 1), ((2, 3, 9), 0.5, 3),
    ((2, 3, 9), 1.0, 2), ((2, 3, 9), 1.0, 3), ((2, 3, 9), 1.0, 5),
    ((2, 4, 5), 0.0, 13), ((2, 4, 5), 0.0, 53), ((2, 4, 5), 0.0, 64),
    ((2, 4, 5), 0.5, 17), ((2, 4, 5), 0.5, 30), ((2, 4, 5), 0.5, 53),
    ((2, 4, 5), 1.0, 99),
    ((2, 4, 6), 0.0, 1), ((2, 4, 6), 0.0, 3), ((2, 4, 6), 0.0, 4),
    ((2, 4, 6), 0.5, 4), ((2, 4, 6), 0.5, 6), ((2, 4, 6), 0.5, 9),
    ((2, 4, 6), 1.0, 3), ((2, 4, 6), 1.0, 7), ((2, 4, 6), 1.0, 8),
    ((2, 5, 6), 0.0, 32), ((2, 5, 6), 0.5, 36),
    ((3, 3, 6), 0.0, 10), ((3, 3, 6), 0.5, 97),
    ((3, 4, 5), 0.0, 18), ((3, 4, 5), 0.0, 53), ((3, 4, 5), 0.0, 67),
    ((3, 4, 5), 0.5, 25), ((3, 4, 5), 0.5, 52), ((3, 4, 5), 0.5, 57),
    ((3, 4, 5), 1.0, 99),
]


def floor_params():
    for triple, t, k in FLOOR_CELLS:
        yield FibrationParams.minimal(*triple, theta=2 * math.pi * k / 120 + 1e-3, t=t)
    yield FibrationParams.minimal(2, 3, 9, theta=0.3, t=0.5)
    for t in (0.0, 0.5, 1.0):
        yield FibrationParams.minimal(4, 4, 4, theta=6.249554709692088, t=t)


def test_the_hessian_check_finishes_and_matches_where_rows_stall_at_the_floor(monkeypatch):
    stalled = []
    floor = numcheck._rounding_floor

    def counted(params, pts):
        stalled.append(len(pts))
        return floor(params, pts)

    monkeypatch.setattr(numcheck, "_rounding_floor", counted)
    cells = 0
    for params in floor_params():
        before = len(stalled)
        for pt in critical_points(params):
            assert hessian_fd_check(params, pt).matches
        assert len(stalled) > before  # some row of the cell stalled
        cells += 1
    assert cells == len(FLOOR_CELLS) + 4


def test_the_z_axis_points_of_2_3_9_stall_at_the_floor(monkeypatch):
    """Four of the nine z-axis points of (2,3,9) at theta = 0.3, t = 1/2
    have rows still moving after 60 steps; each point matches the model."""
    params = FibrationParams.minimal(2, 3, 9, theta=0.3, t=0.5)
    stalled = []
    floor = numcheck._rounding_floor
    monkeypatch.setattr(numcheck, "_rounding_floor",
                        lambda params, pts: stalled.append(len(pts)) or floor(params, pts))
    stalling = 0
    for pt in critical_points(params)[5:]:
        before = len(stalled)
        report = hessian_fd_check(params, pt)
        assert report.axis == 2 and report.exponent == 9 and report.matches
        stalling += len(stalled) > before
    assert stalling == 4


def test_a_row_stalled_far_above_the_floor_raises(monkeypatch):
    """A value that jitters by 1e-9 |tau| keeps every row moving with a
    residual about 1e7 times the floor: the solve must raise."""
    params = FibrationParams.minimal(2, 3, 9, theta=0.3, t=0.5)
    pt = critical_points(params)[-1]
    kernel = numcheck._ft_pass
    calls = []

    def jittered(params, pts):
        value, grads = kernel(params, pts)
        calls.append(None)
        return value + 1e-9 * abs(params.target) * (-1) ** len(calls), grads

    monkeypatch.setattr(numcheck, "_ft_pass", jittered)
    with pytest.raises(ProjectionError, match="axial Newton did not converge"):
        numcheck._solve_axial(params, 2, np.array([[1e-3, 2e-3j], [0.0, 1e-4]]) * abs(pt[2]), pt[2])
    assert len(calls) == 61  # the 60 steps and the check of the last iterates


# --- the Newton loop against the gathered one ----------------------------------------


def newton_runs(loop, call):
    """What call leaves of each _newton run with loop in its place: the
    iterates and the outcome of its rows; then the error call raised, if
    any.  numpy's warnings are off, as far seeds overflow on the way."""
    runs = []

    def spy(params, pts, *rest):
        outcome = loop(params, pts, *rest)
        runs.extend((pts.copy(), outcome))
        return outcome

    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(numcheck, "_newton", spy)
        try:
            call()
        except (ProjectionError, ValueError) as exc:
            runs.append(repr(exc))
    return runs


def assert_same_runs(call):
    got, want = newton_runs(numcheck._newton, call), newton_runs(gathered_newton, call)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_bits(g, w)


@settings(max_examples=40, deadline=None)
@given(stack=stacks, triple=st.sampled_from(TABLE_TRIPLES), theta=phase,
       depth=st.sampled_from([0.0, 1.0, 2.0]), crit=st.integers(0, 8),
       stretch=st.sampled_from([0.0, 0.01, 0.5]))
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_a_step_whose_rows_all_move_equals_the_gathered_step_bitwise(
        t, stack, triple, theta, depth, crit, stretch):
    """The rows of stack scaled by a^(-depth/3): at depth 0 they are
    about a^(2/3) times as far out as the regular torus, and every row
    moves for several steps; at depth 2 they are about as far out.  The
    axial solve starts stretch away from a critical point."""
    params = FibrationParams.minimal(*triple, theta=theta, t=t)
    seeds = np.array(stack) * params.a ** (-depth / 3.0)
    config = numcheck.NumericalConfig()
    assert_same_runs(lambda: numcheck._project(params, seeds.copy(), config, 50))
    pt = critical_points(params)[crit % sum(triple)]
    axis = int(np.argmax(np.abs(pt)))
    transverse = 0.1 * abs(pt[axis]) * np.array(stack)[:, :2]
    assert_same_runs(lambda: numcheck._solve_axial(params, axis, transverse, pt[axis] * (1.0 + stretch)))


def test_the_floor_is_a_few_hundred_roundings_of_the_terms():
    params = FibrationParams.minimal(2, 3, 9, theta=0.3, t=0.5)
    pts = critical_points(params)
    floor = numcheck._rounding_floor(params, pts)
    tau = abs(params.target)
    # On the level, the terms sum to tau: at a critical point one monomial is tau.
    assert np.allclose(floor, 8 * (9 + 3) * 2.0**-53 * tau, rtol=1e-12)
    assert (floor < 1.1e-14 * tau).all()


def test_the_4_4_4_direction_that_failed_gives_a_verdict(capsys):
    argv = ["verify-fibration", "--pqr", "4,4,4", "--theta", "6.249554709692088",
            "--t", "0.5", "--samples", "200", "--seed", "1"]
    assert cli.main(argv) in (0, 1)
    assert "overall:" in capsys.readouterr().out
