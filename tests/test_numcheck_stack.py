"""At t = 1 the inequality audit and the Lagrangian defect project their
seeds in one Newton stack and take ft's Wirtinger pair from one kernel
pass, kept on the parameter object for one config.  Both reports must
equal those of the separate projections they replaced (the oracles in
conftest) bit for bit, a failure must stay with the side whose rows
failed, and the holomorphic gradient may leave out the bump terms only
where adding them changes no bit."""

import json
import math

import numpy as np
import pytest
from conftest import (
    separate_inequality_audit,
    separate_lagrangian_defect,
    whole_stack_project_to_level,
)
from test_numcheck_bitwise import TABLE_TRIPLES, assert_bitwise
from tpqr import cli, numcheck
from tpqr.numcheck import (
    FibrationParams,
    NumericalConfig,
    ProjectionError,
    lagrangian_defect,
    sample_on_level,
    symplectic_inequality_audit,
)


def bits(value):
    """A value with every float as float.hex, so that signed zeros and the
    last bit count."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return type(value).__name__, value


def report_bits(report):
    return type(report).__name__, {k: bits(v) for k, v in vars(report).items()}


def oracle_defect(params, points=None, config=NumericalConfig(), tolerance=1e-6):
    return separate_lagrangian_defect(params, config, tolerance)


# --- the reports against the separate projections ---------------------------------


@pytest.mark.parametrize("triple", TABLE_TRIPLES, ids=str)
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("theta", [0.3, 4.1])
def test_audit_and_defect_equal_the_separate_projections_bitwise(triple, t, theta):
    for k, samples in enumerate((1, 20, 200, 2000)):
        params = FibrationParams.minimal(*triple, theta=theta, t=t)
        config = NumericalConfig(samples=samples, seed=11 + k)
        if k % 2:  # either consumer may come first and fill the stack
            defect = lagrangian_defect(params, config=config)
            audit = symplectic_inequality_audit(params, config)
        else:
            audit = symplectic_inequality_audit(params, config)
            defect = lagrangian_defect(params, config=config)
        assert defect.tried == max(10, samples // 10)
        assert report_bits(audit) == report_bits(separate_inequality_audit(params, config))
        assert report_bits(defect) == report_bits(separate_lagrangian_defect(params, config))


@pytest.mark.parametrize("argv", [
    "--pqr 2,3,7 --samples 10000",
    "--pqr 3,4,5 --theta 1.0 --samples 3000 --seed 7",
    "--pqr 2,4,5 --t 0.5 --theta 2.0 --samples 2000 --seed 3",
])
def test_verify_fibration_json_equals_that_of_the_separate_projections(argv, capsys, monkeypatch):
    argv = ["verify-fibration", *argv.split(), "--json"]
    assert cli.main(argv) == 0
    got = capsys.readouterr().out
    monkeypatch.setattr(numcheck, "symplectic_inequality_audit", separate_inequality_audit)
    monkeypatch.setattr(numcheck, "lagrangian_defect", oracle_defect)
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    assert got == want
    assert json.loads(got)["passed"] is True


# --- a failure stays with the side whose rows failed --------------------------------

CONFIG = NumericalConfig(samples=200, seed=5)
# A row that stays NaN, and one whose holomorphic gradient is exactly zero:
# x^2, y^3, z^4 and a*y*z underflow, and every bump derivative vanishes.
# The NaN row makes numpy warn of invalid values, as it did before the stack.
STALLING = [math.nan, 0.0, 0.0]
VANISHING = [1e-200, 0.0, 0.0]
FAILURES = {
    "stalled": (STALLING, "no convergence after 50 iterations"),
    "vanishing": (VANISHING, "vanishing gradient during projection"),
}


def poisoned(draw, row):
    """draw with its third seed replaced by row."""
    def seeds(params, config):
        out = draw(params, config)
        out[2] = row
        return out
    return seeds


def expected_failure(params, seeds):
    """The error of projecting these seeds alone, as before the stack."""
    with pytest.raises(ProjectionError) as exc:
        whole_stack_project_to_level(params, seeds, CONFIG)
    return str(exc.value)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("failure", sorted(FAILURES))
@pytest.mark.parametrize("defect_first", [False, True])
def test_a_failing_defect_row_fails_the_defect_alone(failure, defect_first, monkeypatch):
    params = FibrationParams.minimal(3, 4, 5, theta=0.7)
    row, message = FAILURES[failure]
    draw = numcheck._defect_seeds
    monkeypatch.setattr(numcheck, "_defect_seeds", poisoned(draw, row))
    assert message == expected_failure(params, numcheck._defect_seeds(params, CONFIG))
    if defect_first:
        with pytest.raises(ProjectionError, match=f"^{message}$"):
            lagrangian_defect(params, config=CONFIG)
    audit = symplectic_inequality_audit(params, CONFIG)
    assert audit.passed
    assert report_bits(audit) == report_bits(separate_inequality_audit(params, CONFIG))
    with pytest.raises(ProjectionError, match=f"^{message}$"):
        lagrangian_defect(params, config=CONFIG)
    with pytest.raises(ProjectionError, match=f"^{message}$"):
        numcheck.verify_fibration(params, CONFIG)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_a_failing_audit_row_fails_the_audit_and_the_defect_still_reports(failure, monkeypatch):
    params = FibrationParams.minimal(3, 4, 5, theta=0.7)
    row, message = FAILURES[failure]
    draw = numcheck._sample_seeds
    monkeypatch.setattr(numcheck, "_sample_seeds", poisoned(draw, row))
    assert message == expected_failure(params, numcheck._sample_seeds(params, CONFIG))
    projections = []
    newton = numcheck._newton
    monkeypatch.setattr(numcheck, "_newton", lambda *a: projections.append(1) or newton(*a))
    for stage in (symplectic_inequality_audit, sample_on_level):
        with pytest.raises(ProjectionError, match=f"^{message}$"):
            stage(params, CONFIG)
    defect = lagrangian_defect(params, config=CONFIG)
    assert len(projections) == 1
    with pytest.raises(ProjectionError, match=f"^{message}$"):
        numcheck.verify_fibration(params, CONFIG)
    monkeypatch.undo()
    assert defect.passed
    assert report_bits(defect) == report_bits(separate_lagrangian_defect(params, CONFIG))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_projection_of_a_point_still_raises_for_each_failure():
    params = FibrationParams.minimal(3, 4, 5, theta=0.7)
    for row, message in FAILURES.values():
        with pytest.raises(ProjectionError, match=f"^{message}$"):
            numcheck.project_to_level(params, np.array(row, dtype=complex))
    # a vanishing gradient takes precedence over a stall, in either order
    for rows in ([STALLING, VANISHING], [VANISHING, STALLING]):
        with pytest.raises(ProjectionError, match="^vanishing gradient during projection$"):
            numcheck.project_to_level(params, np.array(rows, dtype=complex))


# --- one projection per parameter object and config at t = 1 -----------------------


def count_projections(monkeypatch):
    calls = []
    newton = numcheck._newton
    monkeypatch.setattr(numcheck, "_newton", lambda *a: calls.append(len(a[1])) or newton(*a))
    return calls


@pytest.mark.parametrize("t, projections", [(1.0, 1), (0.5, 2), (0.0, 2)])
def test_audit_and_defect_project_once_at_t_1_and_twice_before(t, projections, monkeypatch):
    params = FibrationParams.minimal(2, 3, 7, theta=0.7, t=t)
    config = NumericalConfig(samples=200)
    calls = count_projections(monkeypatch)
    symplectic_inequality_audit(params, config)
    lagrangian_defect(params, config=config)
    assert len(calls) == projections
    if t == 1.0:
        assert calls == [200 + 20]
        sample_on_level(params, config)
        symplectic_inequality_audit(params, NumericalConfig(samples=200))  # an equal config
        assert len(calls) == 1
        other = NumericalConfig(samples=200, seed=1)
        symplectic_inequality_audit(params, other)
        lagrangian_defect(params, config=other)
        assert len(calls) == 2
        lagrangian_defect(params, config=config)  # the one entry now holds the other config
        assert len(calls) == 3


def test_the_samples_handed_out_are_a_copy():
    params = FibrationParams.minimal(2, 4, 5, theta=0.7)
    config = NumericalConfig(samples=200)
    want = numcheck.project_to_level(params, numcheck._sample_seeds(params, config))
    pts = sample_on_level(params, config)
    assert_bitwise(pts, want)
    pts[:] = 1.0
    assert report_bits(lagrangian_defect(params, config=config)) == report_bits(
        separate_lagrangian_defect(params, config))
    assert report_bits(symplectic_inequality_audit(params, config)) == report_bits(
        separate_inequality_audit(params, config))
    assert_bitwise(sample_on_level(params, config), want)


# --- the bump terms of the holomorphic gradient -------------------------------------

# Rows of (2,3,7) with no bump derivative nonzero, where a part of the
# gradient without the bump terms is -0.0 and adding them makes it 0.0.
# In the rows at t = 1/2 every zero part of that gradient is -0.0.
SIGNED_ZERO_ROWS = {
    0.5: [[complex(0.74, -0.38), complex(-0.0, -0.0), complex(0.52, -0.52)],
          [complex(-0.06, -0.0), complex(-0.68, -0.38), 0j]],
    1.0: [[complex(-0.25, 0.5), complex(0.05, -0.07), complex(-0.0, 0.0)],
          [complex(-0.1, 0.4), complex(-0.4, -0.5), complex(0.0, -0.0)]],
}


@pytest.mark.parametrize("t", sorted(SIGNED_ZERO_ROWS))
def test_the_bump_terms_are_added_where_a_part_is_zero(t):
    params = FibrationParams.minimal(2, 3, 7, theta=0.4, t=t)
    n = numcheck._exponents(params)
    stack = np.array(SIGNED_ZERO_ROWS[t])
    for pts in (stack, *stack[:, None]):
        assert not numcheck._transition(numcheck._ratios(pts))[1].any()
        _, grads = numcheck._ft_pass(params, pts)
        full = grads(anti=True)[0]  # the path that always adds them
        bare = (1.0 - t + t * numcheck.phi_values(pts)) * n * pts ** (n - 1) + (
            numcheck._cross_terms(params, pts))
        assert bare.tobytes() != full.tobytes()
        assert_bitwise(grads(), full)
        assert_bitwise(numcheck.ft_grad(params, pts), full)
        assert_bitwise(numcheck.ft_grad(params, pts[0]), full[0])


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_the_bump_terms_are_left_out_of_rows_outside_the_transition(t, monkeypatch):
    params = FibrationParams.minimal(2, 3, 7, theta=0.4, t=t)
    pts = numcheck.project_to_level(params, numcheck._torus_seeds(
        params, np.random.default_rng(3).uniform(0.0, 2 * math.pi, size=(50, 2))))
    _, grads = numcheck._ft_pass(params, pts)
    full = grads(anti=True)[0]
    parts = []
    phi_parts = numcheck._phi_parts
    monkeypatch.setattr(numcheck, "_phi_parts", lambda *a: parts.append(1) or phi_parts(*a))
    assert_bitwise(grads(), full)
    assert parts == []
    grads(anti=True)
    assert parts == [1]
