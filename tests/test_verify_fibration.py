"""numcheck.verify_fibration against the stage-by-stage pipeline it
replaced (``staged_verify_fibration`` in conftest), report for report."""

import json
import warnings

import pytest
from conftest import staged_verify_fibration

from tpqr import numcheck
from tpqr.k3glue import strange_duality_table
from tpqr.numcheck import FibrationParams, NumericalConfig, verify_fibration

TABLE_TRIPLES = sorted({t for pair in strange_duality_table() for t in (pair.left, pair.right)})
PARABOLIC_TRIPLES = [(3, 3, 3), (2, 4, 4), (2, 3, 6)]
CFG = NumericalConfig(samples=30)


def assert_same_report(params, cfg=CFG):
    report = verify_fibration(params, cfg)
    want = staged_verify_fibration(params, cfg)
    assert json.dumps(report, sort_keys=True) == json.dumps(want, sort_keys=True)
    return report


@pytest.mark.parametrize("pqr", TABLE_TRIPLES + PARABOLIC_TRIPLES, ids=str)
def test_report_equals_the_staged_pipeline(pqr):
    for t in (0.0, 0.5, 1.0):
        report = assert_same_report(FibrationParams.minimal(*pqr, theta=0.7, t=t))
        assert report["passed"] is True
        assert ("lagrangian_defect" in report) == (t == 1.0)


def test_report_with_a_failing_defect_equals_the_staged_pipeline():
    report = assert_same_report(FibrationParams(2, 3, 7, a=1e50, theta=0.7))
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
