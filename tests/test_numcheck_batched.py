"""The batched numcheck kernels against their per-point use, and the sampler
against the earlier one-seed-at-a-time loop (the seed oracles in conftest)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _shell_seed, _torus_seed, all_triples
from tpqr import cli, numcheck
from tpqr.numcheck import (
    AdmissibilityError,
    FibrationParams,
    NumericalConfig,
    critical_points,
    ft_antigrad,
    ft_grad,
    project_to_level,
    sample_on_level,
    symplectic_inequality_audit,
)

TIMES = (0.0, 0.5, 1.0)


def oracle_samples(params, config):
    """The sampler as a loop: one seed drawn and projected at a time."""
    rng = np.random.default_rng(config.seed)
    crits = critical_points(params)
    out = [
        project_to_level(params, _torus_seed(params, rng), config=config)
        for _ in range(config.samples // 2)
    ]
    while len(out) < config.samples:
        crit = crits[rng.integers(len(crits))]
        out.append(project_to_level(params, _shell_seed(params, crit, rng), config=config))
    return np.array(out)


def assert_rows_close(batch, rows, rel):
    """Each row of batch equals the matching row of rows within rel of
    that row's largest finite entry (infinite entries must be equal)."""
    batch, rows = np.asarray(batch), np.asarray(rows)
    assert batch.shape == rows.shape
    flat_b = batch.reshape(len(batch), -1)
    flat_r = rows.reshape(len(rows), -1)
    finite = np.isfinite(flat_r)
    assert np.array_equal(flat_b[~finite], flat_r[~finite])
    flat_b, flat_r = np.where(finite, flat_b, 0.0), np.where(finite, flat_r, 0.0)
    scale = np.max(np.abs(flat_r), axis=1, keepdims=True)
    gap = np.abs(flat_b - flat_r)
    assert np.all(gap <= rel * np.maximum(scale, 1e-300)), np.max(gap / scale)


@pytest.mark.parametrize("triple", [(2, 3, 7), (3, 3, 4), (4, 4, 4)])
@pytest.mark.parametrize("t", TIMES)
def test_sampler_keeps_the_draw_order(triple, t):
    params = FibrationParams.minimal(*triple, theta=0.9, t=t)
    cfg = NumericalConfig(samples=120, seed=7)
    pts = sample_on_level(params, cfg)
    assert isinstance(pts, np.ndarray) and pts.shape == (120, 3)
    assert_rows_close(pts, oracle_samples(params, cfg), 1e-12)


@pytest.mark.parametrize("t", TIMES)
def test_audit_counts_and_smallest_margin_match_the_per_point_loop(t):
    params = FibrationParams.minimal(3, 3, 4, theta=0.2, t=t)
    cfg = NumericalConfig(samples=150, seed=5)
    audit = symplectic_inequality_audit(params, cfg)
    pts = sample_on_level(params, cfg)
    anti = np.array([np.linalg.norm(ft_antigrad(params, pt)) for pt in pts])
    margin = np.array([np.linalg.norm(ft_grad(params, pt)) for pt in pts]) - anti
    assert audit.samples == len(pts) == 150
    assert audit.antigrad_active == np.count_nonzero(anti > 0.0)
    assert audit.violations == np.count_nonzero(margin <= 0.0) == 0
    # the reported point has a smallest margin, up to rounding
    at = next(i for i, pt in enumerate(pts) if tuple(pt) == audit.min_margin_point)
    assert abs(margin[at] - audit.min_margin) <= 1e-12 * audit.min_margin
    assert np.all(margin >= audit.min_margin * (1 - 1e-12))


# --- batch equals per-point -------------------------------------------------------

phase = st.floats(0.0, 2 * math.pi)


@st.composite
def rows(draw):
    """A point that is generic, has one zero coordinate, lies on an axis, or
    has a bump ratio inside the transition (1/6, 1/2)."""
    kind = draw(st.sampled_from(["generic", "zero", "axis", "transition"]))
    mods = [draw(st.floats(1e-3, 1.0)) for _ in range(3)]
    axis = draw(st.integers(0, 2))
    if kind == "zero":
        mods[axis] = 0.0
    elif kind == "axis":
        mods = [mods[k] if k == axis else 0.0 for k in range(3)]
    elif kind == "transition":
        rho = mods[axis] * draw(st.floats(1 / 6, 1 / 2, exclude_min=True, exclude_max=True))
        split = draw(st.floats(0.0, math.pi / 2))
        others = [k for k in range(3) if k != axis]
        mods[others[0]] = rho * math.cos(split)
        mods[others[1]] = rho * math.sin(split)
    return [m * complex(math.cos(ph), math.sin(ph)) for m, ph in zip(mods, [draw(phase) for _ in range(3)])]


stacks = st.lists(rows(), min_size=1, max_size=20).map(np.array)


def kernels(params):
    """Every pointwise kernel, as a function of a point or a stack."""
    def omega0(pt):
        return numcheck._omega0(numcheck.g_real_jacobian(pt)[..., 0, :],
                                numcheck.ft_real_jacobian(params, pt)[..., 1, :])

    return {
        "bump": lambda pt: numcheck.bump(numcheck._ratios(pt)),
        "bump_deriv": lambda pt: numcheck.bump_deriv(numcheck._ratios(pt)),
        "_ratios": numcheck._ratios,
        "phi_values": numcheck.phi_values,
        "phi_gradients": numcheck.phi_gradients,
        "f_eval": lambda pt: numcheck.f_eval(params, pt),
        "f_grad": lambda pt: numcheck.f_grad(params, pt),
        "h_eval": lambda pt: numcheck.h_eval(params, pt),
        "ft_eval": lambda pt: numcheck.ft_eval(params, pt),
        "ft_grad": lambda pt: numcheck.ft_grad(params, pt),
        "ft_antigrad": lambda pt: numcheck.ft_antigrad(params, pt),
        "g_eval": numcheck.g_eval,
        "_real_jacobian": lambda pt: numcheck._real_jacobian(
            numcheck.ft_grad(params, pt), numcheck.g_eval(pt)[..., None] * pt),
        "ft_real_jacobian": lambda pt: numcheck.ft_real_jacobian(params, pt),
        "g_real_jacobian": numcheck.g_real_jacobian,
        "_omega0": omega0,
    }


PARAMS = {t: FibrationParams.minimal(2, 3, 7, theta=0.4, t=t) for t in TIMES}


@pytest.mark.parametrize("t", TIMES)
@settings(max_examples=40, deadline=None)
@given(stack=stacks)
def test_kernels_on_a_stack_equal_the_per_point_calls(t, stack):
    for name, kernel in kernels(PARAMS[t]).items():
        # complex integer powers of arrays and of scalars round differently
        assert_rows_close(kernel(stack), [kernel(row) for row in stack], 1e-14), name


@pytest.mark.parametrize("t", TIMES)
@settings(max_examples=30, deadline=None)
@given(
    seeds=st.lists(st.tuples(phase, phase, st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
                   min_size=1, max_size=20),
    origin_at=st.integers(0, 20),
)
def test_projection_of_a_stack_equals_the_per_point_projections(t, seeds, origin_at):
    params = PARAMS[t]
    c = params.a ** (-2.0 / 3.0)
    stack = np.array([
        [c * (1 + e1) * np.exp(1j * p1), c * (1 + e2) * np.exp(1j * p2),
         c * np.exp(1j * (params.theta - p1 - p2))]
        for p1, p2, e1, e2 in seeds
    ])
    assert_rows_close(project_to_level(params, stack),
                      [project_to_level(params, row) for row in stack], 1e-12)
    with_origin = np.insert(stack, min(origin_at, len(stack)), 0.0, axis=0)
    with pytest.raises(ValueError):
        project_to_level(params, with_origin)


@pytest.mark.parametrize("t", TIMES)
def test_a_stack_with_the_origin_is_rejected(t):
    params = PARAMS[t]
    stack = np.array([[0.3, 0.1j, 0.05], [0, 0, 0], [0.2j, 0.0, 0.4]], dtype=complex)
    for name in ("_ratios", "phi_values", "phi_gradients", "h_eval", "ft_eval",
                 "ft_grad", "ft_antigrad", "ft_real_jacobian"):
        with pytest.raises(ValueError):
            kernels(params)[name](stack)


# --- FibrationParams.minimal ---------------------------------------------------------


def old_minimal_a(p, q, r):
    """The minimal a + 1 as written out before it reused the bound properties."""
    big_m = max(p, q, r)
    m = 30 * big_m
    return float(max(12 * big_m, m * m * (m + 3)) + 1)


def test_minimal_a_is_unchanged_for_every_cusp_triple():
    triples = [
        (p, q, r)
        for p in range(2, 13) for q in range(p, 13) for r in range(q, 13)
        if q * r + p * r + p * q < p * q * r
    ]
    assert len(triples) > 100
    for triple in triples:
        params = FibrationParams.minimal(*triple, theta=0.3, t=0.5)
        assert params.a == old_minimal_a(*triple), triple
        assert (params.theta, params.t) == (0.3, 0.5)
        assert params.admissible


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=2, q=2, r=10**13, a=1.0),
        dict(p=2, q=3, r=7, a=1e8, theta=math.nan),
        dict(p=2, q=3, r=7, a=1e8, theta=math.inf),
        dict(p=2, q=3, r=7, a=1e8, theta=-math.inf),
    ],
    ids=["near-parabolic-spherical", "theta-nan", "theta-inf", "theta-minus-inf"],
)
def test_params_reject_a_spherical_triple_and_a_non_finite_theta(kwargs):
    with pytest.raises(ValueError):
        FibrationParams(**kwargs)


@pytest.mark.parametrize("t", TIMES)
def test_a_defect_report_that_used_no_point_fails(t):
    report = numcheck.DefectReport(
        samples=0, max_defect=0.0, lagrangian_expected=t == 1.0, tolerance=1e-6, tried=10
    )
    assert not report.passed and report.to_json()["passed"] is False


def test_domain_bound_beyond_the_double_range_is_infinite():
    """3^M overflows a double from M = 647 on; no a is then admissible for
    domain_y, and the check says so instead of raising OverflowError."""
    assert math.isfinite(FibrationParams(2, 3, 646, a=1e13).domain_bound)
    params = FibrationParams(2, 3, 700, a=1e13)
    assert params.domain_bound == math.inf
    assert params.admissible and not params.domain_y_admissible
    with pytest.raises(AdmissibilityError):
        params.check_domain_y()
    huge = FibrationParams(2, 3, 10**400, a=1.0)
    assert huge.tube_bound == huge.domain_bound == math.inf


@pytest.mark.parametrize("triple", list(all_triples(9)), ids=str)
def test_the_domain_audit_passes_one_ulp_above_the_domain_bound(triple):
    """The chain 1/a < 1/(m^2(m+3)) < (1/90)^3 holds for every admissible
    a, also where a and m^2(m+3) are one ulp apart and their rounded
    reciprocals are equal (as for (3, 3, 4), (3, 4, 4) and (4, 4, 4))."""
    bound = FibrationParams(*triple, a=1.0).domain_bound
    report = numcheck.domain_y_audit(FibrationParams(*triple, a=math.nextafter(bound, math.inf)))
    assert report.chain_bound_ok and report.passed, report


@pytest.mark.parametrize("triple", [(2, 3, 7), (3, 4, 5), (4, 4, 4)], ids=str)
def test_the_domain_audit_level_check_reads_the_residual_tolerance(triple):
    """The boundary points lie on the level up to rounding (relative
    residuals up to about 4e-16), so residual_tol = 1e-17 fails the check
    that the default 1e-9 passes."""
    bound = FibrationParams(*triple, a=1.0).domain_bound
    params = FibrationParams(*triple, a=math.nextafter(bound, math.inf))
    assert numcheck.domain_y_audit(params).boundary_xyz_bound_ok
    tight = numcheck.domain_y_audit(params, NumericalConfig(residual_tol=1e-17))
    assert not tight.boundary_xyz_bound_ok and not tight.passed


def _cusp_triples_with_the_domain_bound_3_to_the_m():
    """The 322 cusp triples p <= q <= 6, 18 <= r <= 40: from M = 18 on,
    3^M exceeds m^2(m+3), so the domain bound is 3^M."""
    for p in range(2, 7):
        for q in range(p, 7):
            for r in range(18, 41):
                if q * r + r * p + p * q < p * q * r:
                    yield p, q, r


def test_the_critical_values_are_inside_one_ulp_above_three_to_the_m(capsys):
    """max|cv| = a^(-2/M) < 1/9 iff a > 3^M.  One ulp above 3^M, a^(-2/M)
    and max|cv| both round onto 1/9 in doubles, so only the exact form of
    the comparison passes here."""
    triples = list(_cusp_triples_with_the_domain_bound_3_to_the_m())
    assert len(triples) == 322
    failed = []
    for triple in triples:
        bound = float(3 ** triple[2])
        params = FibrationParams(*triple, a=math.nextafter(bound, math.inf))
        assert params.domain_bound == bound
        report = numcheck.domain_y_audit(params, NumericalConfig(samples=200))
        if not (report.critical_values_inside and report.passed):
            failed.append(triple)
    assert failed == []
    a = repr(math.nextafter(float(3**18), math.inf))
    argv = ["verify-fibration", "--pqr", "2,3,18", "--a", a, "--samples", "200", "--json"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)["domain_y"]
    assert err == "" and report["critical_values_inside"] and report["passed"], report
    assert report["max_critical_value"] == 1 / 9  # still reported, as rounded


@pytest.mark.parametrize("r", [6935, 6936, 20000])
def test_minimal_a_is_admissible_past_two_to_the_53(r):
    """From 2^53 on, bound + 1.0 rounds back to the bound; minimal still
    returns an a above it."""
    assert FibrationParams.minimal(2, 3, r).admissible


def test_defect_report_for_a_fixed_seed_is_unchanged():
    """The torus phases are drawn as 2 pi * random(2), which gives the same
    doubles as uniform(0, 2 pi); the report is that of the uniform draws."""
    report = numcheck.lagrangian_defect(FibrationParams.minimal(2, 3, 7))
    assert report == numcheck.DefectReport(
        samples=100,
        max_defect=float.fromhex("0x1.70a0000000000p-47"),
        lagrangian_expected=True,
        tolerance=1e-6,
        tried=100,
    )


def test_critical_points_are_computed_once_per_params_and_handed_out_as_copies(monkeypatch):
    params = FibrationParams.minimal(3, 4, 5, theta=0.7, t=0.5)
    want = critical_points(FibrationParams.minimal(3, 4, 5, theta=0.7, t=0.5))
    computed = []
    exponents = numcheck._exponents
    monkeypatch.setattr(numcheck, "_exponents", lambda p: computed.append(p) or exponents(p))
    first = critical_points(params)
    first[:] = 0
    for _ in range(2):
        again = critical_points(params)
        assert again.tobytes() == want.tobytes() and not np.shares_memory(again, first)
    assert computed == [params]
    with pytest.raises(AdmissibilityError):
        critical_points(FibrationParams(3, 4, 5, a=1.0))
