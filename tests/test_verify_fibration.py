"""numcheck.verify_fibration against the stage-by-stage pipeline it
replaced (``staged_verify_fibration`` in conftest), report for report
but for the one key it added, and the rules behind two of its verdicts:
the corank of the differential at a critical point, and the points the
Lagrangian defect skips and the share of them it may skip."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from conftest import staged_verify_fibration
from hypothesis import example, given
from hypothesis import strategies as st

from tpqr import numcheck
from tpqr.k3glue import strange_duality_table
from tpqr.numcheck import FibrationParams, NumericalConfig, verify_fibration

TABLE_TRIPLES = sorted({t for pair in strange_duality_table() for t in (pair.left, pair.right)})
PARABOLIC_TRIPLES = [(3, 3, 3), (2, 4, 4), (2, 3, 6)]
CFG = NumericalConfig(samples=30)


def assert_same_report(params, cfg=CFG):
    """The staged pipeline's report, plus worst_corank2_ratio, the ratio
    that the critical-point verdict reads."""
    report = verify_fibration(params, cfg)
    want = staged_verify_fibration(params, cfg)
    crit = dict(report["critical_points"])
    corank2 = crit.pop("worst_corank2_ratio")
    assert corank2 == max(rep.corank2_ratio for rep in numcheck.verify_critical_points(params, cfg))
    assert json.dumps({**report, "critical_points": crit}, sort_keys=True) == json.dumps(
        want, sort_keys=True
    )
    return report


@pytest.mark.parametrize("pqr", TABLE_TRIPLES + PARABOLIC_TRIPLES, ids=str)
def test_report_equals_the_staged_pipeline(pqr):
    for t in (0.0, 0.5, 1.0):
        report = assert_same_report(FibrationParams.minimal(*pqr, theta=0.7, t=t))
        assert report["passed"] is True
        assert ("lagrangian_defect" in report) == (t == 1.0)


def test_report_with_a_failing_defect_equals_the_staged_pipeline(monkeypatch):
    def no_point(params, points=None, config=None, tolerance=1e-6):
        return numcheck.DefectReport(0, 0.0, True, tolerance, tried=10)

    monkeypatch.setattr(numcheck, "lagrangian_defect", no_point)
    report = assert_same_report(FibrationParams.minimal(2, 3, 7, theta=0.7))
    assert report["lagrangian_defect"]["samples"] == 0
    assert report["lagrangian_defect"]["passed"] is False
    assert report["passed"] is False


def test_report_without_the_domain_audit_equals_the_staged_pipeline():
    params = FibrationParams.minimal(2, 3, 18, theta=0.7)
    assert not params.domain_y_admissible
    report = assert_same_report(params)
    assert "lagrangian_defect" in report and "domain_y" not in report


def test_inadmissible_a_raises():
    with pytest.raises(numcheck.AdmissibilityError):
        verify_fibration(FibrationParams(2, 3, 7, a=5.0), CFG)


def test_projection_failure_raises_without_warnings():
    params = FibrationParams.minimal(2, 3, 700)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(numcheck.ProjectionError):
            verify_fibration(params, NumericalConfig(samples=20))


def near_critical_points(params, radius):
    """Points of X_t at transverse distance ``radius`` (relative) from each
    critical point: the two zero coordinates are moved off the axis, and
    the point is projected back onto the level."""
    crits = numcheck.critical_points(params)
    scale = np.abs(crits).sum(axis=1, keepdims=True)
    off = (crits == 0) * np.exp(1j * np.array([0.4, 1.1, 2.3]))
    return numcheck.project_to_level(params, crits + radius * scale * off)


@pytest.mark.parametrize("pqr", TABLE_TRIPLES + PARABOLIC_TRIPLES, ids=str)
def test_defect_uses_every_regular_point_however_large_a(pqr):
    # the ft rows grow with a; nearness to a singular fiber does not
    cfg = NumericalConfig(samples=200)
    for a in (1e28, 1e50, 6e153):
        report = numcheck.lagrangian_defect(FibrationParams(*pqr, a=a), config=cfg)
        assert report.samples == max(10, cfg.samples // 10), a
        assert report.passed, a


@pytest.mark.parametrize("pqr", TABLE_TRIPLES + PARABOLIC_TRIPLES, ids=str)
def test_defect_skips_points_next_to_a_critical_point(pqr):
    params = FibrationParams.minimal(*pqr, theta=0.7)
    pts = near_critical_points(params, 1e-10)
    assert np.all(np.abs(pts) > 0.0)
    assert numcheck.lagrangian_defect(params, pts).samples == 0


def test_a_defect_that_used_no_point_is_a_failure():
    params = FibrationParams.minimal(2, 3, 7, theta=0.7)
    report = numcheck.lagrangian_defect(params, near_critical_points(params, 1e-10))
    assert report.samples == 0 and report.max_defect == 0.0
    assert not report.passed and report.to_json()["passed"] is False


def test_the_report_shows_the_ratio_its_critical_point_verdict_reads():
    # the smallest ratio is far below a tolerance of 1e-16, the largest,
    # which the verdict reads, is not
    params = FibrationParams.minimal(2, 3, 7)
    report = verify_fibration(params, NumericalConfig(rank_tol=1e-16, samples=30))
    crit = report["critical_points"]
    assert crit["worst_rank_ratio"] < 1e-30
    assert crit["worst_corank2_ratio"] >= 1e-16
    assert crit["all_ok"] is False and report["passed"] is False


def _defect_over_ten_points(near: int):
    """The defect over ``near`` points at transverse radius 1e-10 from the
    (2,3,7) critical points and 10 - near points near the regular torus."""
    params = FibrationParams.minimal(2, 3, 7, theta=0.7)
    rng = np.random.default_rng(5)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(10 - near, 2))
    regular = numcheck.project_to_level(params, numcheck._torus_seeds(params, phases))
    pts = np.concatenate([near_critical_points(params, 1e-10)[:near], regular])
    return numcheck.lagrangian_defect(params, pts)


def test_a_defect_that_used_fewer_than_half_its_points_fails():
    report = _defect_over_ten_points(6)
    assert (report.samples, report.tried) == (4, 10) and report.max_defect < 1e-12
    assert not report.passed and report.to_json()["passed"] is False


def test_a_defect_that_used_half_its_points_passes():
    report = _defect_over_ten_points(5)
    assert (report.samples, report.tried) == (5, 10)
    assert report.passed and "tried" not in report.to_json()


def test_a_critical_point_needs_a_vanishing_differential():
    # on-level decoys 1e-3 off the x-axis points: the restricted
    # differential is singular (rank ratio 2-7e-4) but far from zero
    params = FibrationParams.minimal(2, 3, 7)
    cfg = NumericalConfig(rank_tol=1e-2)
    rng = np.random.default_rng(2)
    for pt in numcheck.critical_points(params)[:3]:
        noise = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        decoy = pt + 1e-3 * float(np.linalg.norm(pt)) * noise / math.sqrt(6)
        rep = numcheck.verify_critical_point(params, numcheck.project_to_level(params, decoy), cfg)
        assert rep.residual_ok and rep.rank_ratio < cfg.rank_tol
        assert not rep.rank_ok and not rep.ok
    for rep in numcheck.verify_critical_points(params, cfg):
        assert rep.ok and rep.corank2_ratio < 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf), complex(math.nan, 1)])
@pytest.mark.parametrize(
    "check",
    [
        numcheck.verify_critical_point,
        lambda params, pt: numcheck.lagrangian_defect(params, points=[numcheck.point(1, 1j, -1), pt]),
    ],
    ids=["critical point", "defect"],
)
def test_a_point_that_is_not_finite_is_refused(check, bad):
    with pytest.raises(ValueError, match="^point components must be finite$"):
        check(FibrationParams.minimal(2, 3, 7), np.array([bad, 0.5, 1j]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: numcheck.hessian_model(2, -4.0), "a must be positive and finite"),
        (lambda: numcheck.hessian_model(2, math.inf), "a must be positive and finite"),
        (lambda: numcheck.hessian_model(3, 10**400), "a must be positive and finite"),
        (lambda: FibrationParams(2, 3, 7, a=10**400), "a must be positive and finite"),
        (lambda: FibrationParams(2, 3, 7, a=1e13, theta=10**400), "theta must be finite"),
        (lambda: FibrationParams(2, 3, 7, a=1e13, theta=-(10**400)), "theta must be finite"),
    ],
)
def test_an_out_of_range_a_or_theta_is_refused_with_a_value_error(build, message):
    """Not a TypeError from a complex lam, an OverflowError from a huge
    int, or a NaN model with a RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            build()
    assert type(info.value) is ValueError


@pytest.mark.parametrize("a", [math.nan, 0.0, -0.0, 1.0])
def test_a_nan_or_small_a_keeps_its_admissibility_error(a):
    with pytest.raises(numcheck.AdmissibilityError, match="^model requires lam > 1; enlarge a$"):
        numcheck.hessian_model(2, a)


@pytest.mark.parametrize("p,below,above", [(4, 1e246, 1e247), (7, 1.45e196, 1.46e196),
                                             (100, 2.98e156, 2.99e156), (100, 2.98e156, 1e300)], ids=str)
def test_a_lam_beyond_the_double_range_is_refused_with_a_value_error(p, below, above):
    """At ``above`` a is a finite double but lam = (2/p) a^((2p-3)/p) is
    not, which raised an OverflowError; at ``below`` the model is built."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(numcheck.hessian_model(p, below).lam)
        with pytest.raises(ValueError, match=r"^lam = \(2/p\) a\^\(\(2p-3\)/p\) exceeds the double range$") as info:
            numcheck.hessian_model(p, above)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("pqr,theta", [((2, 3, 7), 3e7), ((2, 3, 7), 1e8), ((2, 3, 7), 1e16),
                                       ((2, 3, 7), -1e8), ((3, 4, 5), 1e8)], ids=str)
def test_a_large_theta_gives_the_report_of_its_reduced_angle(pqr, theta):
    """The fiber depends on e^{i theta} alone, so theta is reduced to
    [0, 2 pi) where the params are built, with the same e^{i theta}; an
    unreduced 1e8 put a residual of order |theta| 2^-52 into the
    closed-form critical points."""
    params = FibrationParams.minimal(*pqr, theta=theta)
    reduced = params.theta
    assert 0.0 <= reduced < 2.0 * math.pi
    assert abs(complex(math.cos(reduced), math.sin(reduced))
               - complex(math.cos(theta), math.sin(theta))) < 1e-15
    cfg = NumericalConfig(samples=20)
    report = verify_fibration(params, cfg)
    assert report["passed"] and report["critical_points"]["all_ok"]
    assert report["params"]["theta"] == reduced
    assert report == verify_fibration(FibrationParams.minimal(*pqr, theta=reduced), cfg)


@given(theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
@example(theta=0.0)
@example(theta=math.nextafter(2.0 * math.pi, 0.0))
def test_theta_in_range_is_kept_as_given(theta):
    assert FibrationParams(2, 3, 7, a=1e8, theta=theta).theta.hex() == theta.hex()


@given(theta=st.floats(-1e300, 1e300))
@example(theta=2.0 * math.pi)
@example(theta=-1e-300)
@example(theta=-0.0)
def test_a_reduced_theta_reduces_to_itself(theta):
    reduced = FibrationParams(2, 3, 7, a=1e8, theta=theta).theta
    assert 0.0 <= reduced < 2.0 * math.pi
    assert FibrationParams(2, 3, 7, a=1e8, theta=reduced).theta == reduced


# The five `verify-fibration` requests of the CI smoke step, as (triple,
# t, theta, config fields), with the sha256 of the report's sorted-key
# JSON less the three floats an SVD computes, whose last bits depend on
# the LAPACK build.
PINNED_REPORTS = [
    ((2, 3, 7), 1.0, 0.0, {"samples": 10000},
     "20a14f326c9b060b71a6b211865c0fe489cd0f8caf01ee3239b3048db432c14b"),
    ((3, 4, 5), 1.0, 1.0, {"samples": 3000, "seed": 7},
     "c3686ab08fb5d3952b851a7bcab499452cebbfc27d3dbf01888c9152f0a223f2"),
    ((2, 4, 5), 0.5, 2.0, {"samples": 2000, "seed": 3},
     "040b6e8ac93263b80a23264d8f36191cefdb55efbd6a352e7cccd5cb61d29ebc"),
    ((2, 3, 7), 0.0, 0.0, {"samples": 5000, "seed": 9},
     "ef1e920223b0abf76a6448f8f7a34c29a9377e0bec7edf762702d0556941dd87"),
    ((4, 4, 4), 0.5, 6.249554709692088, {"samples": 200, "seed": 1},
     "abddced5472911dd05a80ab0e92dbb8e1e52a96bdae200df0132395a30a256e6"),
]
SVD_FLOATS = [
    ("critical_points", "worst_rank_ratio"),
    ("critical_points", "worst_corank2_ratio"),
    ("lagrangian_defect", "max_defect"),
]


@pytest.mark.parametrize(
    "pqr, t, theta, fields, digest", PINNED_REPORTS, ids=[f"{c[0]}-t{c[1]}" for c in PINNED_REPORTS]
)
def test_the_checked_reports_are_pinned(pqr, t, theta, fields, digest):
    report = verify_fibration(FibrationParams.minimal(*pqr, theta=theta, t=t),
                              NumericalConfig(**fields))
    assert report["passed"]
    for stage, key in SVD_FLOATS:
        report.get(stage, {}).pop(key, None)
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest
