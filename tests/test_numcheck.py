import math

import numpy as np
import pytest

from tpqr.numcheck import (
    AdmissibilityError,
    FibrationParams,
    NumericalConfig,
    ProjectionError,
    bump,
    bump_deriv,
    critical_points,
    critical_values,
    domain_y_audit,
    f_eval,
    f_grad,
    ft_antigrad,
    ft_eval,
    ft_grad,
    g_eval,
    h_eval,
    hessian_fd_check,
    hessian_model,
    lagrangian_defect,
    parse_config_file,
    phi_gradients,
    phi_values,
    point,
    project_to_level,
    sample_on_level,
    symplectic_inequality_audit,
    verify_critical_point,
    verify_critical_points,
)

CFG = NumericalConfig(samples=200, seed=42)


# --- parameters -----------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        FibrationParams(1, 3, 7, a=100.0)
    with pytest.raises(ValueError):
        FibrationParams(2, 3, 5, a=100.0)  # spherical triple
    with pytest.raises(ValueError):
        FibrationParams(2, 3, 7, a=-1.0)
    with pytest.raises(ValueError):
        FibrationParams(2, 3, 7, a=1e8, t=1.5)


def test_minimal_params(minimal_params_237):
    params = minimal_params_237
    m = 30 * 7
    assert params.a == m * m * (m + 3) + 1
    assert params.admissible and params.domain_y_admissible
    assert params.precision_reviewed
    bad = FibrationParams(2, 3, 7, a=1.0)
    assert not bad.admissible
    with pytest.raises(AdmissibilityError):
        bad.check()


def test_config_file_parsing(tmp_path):
    f = tmp_path / "tol.cfg"
    f.write_text("residual_tol = 1e-8  # tighter\nsamples=50\nseed = 7\n")
    cfg = parse_config_file(str(f))
    assert cfg.residual_tol == 1e-8 and cfg.samples == 50 and cfg.seed == 7
    f.write_text("bogus = 3\n")
    with pytest.raises(ValueError):
        parse_config_file(str(f))


# --- bump -----------------------------------------------------------------------


def test_bump_support():
    assert bump(0.0) == bump(0.1) == bump(1 / 6) == 1.0
    assert bump(0.5) == bump(0.6) == bump(math.inf) == 0.0
    assert 0.0 < bump(0.3) < 1.0


def test_bump_derivative_bounds_on_fine_grid():
    grid = np.linspace(0.0, 0.6, 24001)
    derivs = [bump_deriv(s) for s in grid]
    assert min(derivs) >= -4.0
    assert max(derivs) <= 0.0
    vals = [bump(s) for s in grid]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_bump_derivative_consistent_with_fd():
    for s in (0.18, 0.22, 0.3, 0.38, 0.45, 0.49):
        h = 1e-6
        fd = (bump(s + h) - bump(s - h)) / (2 * h)
        assert abs(fd - bump_deriv(s)) < 1e-6


# --- phi factors ------------------------------------------------------------------


def test_phi_disjoint_supports():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pt = point(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        ph = phi_values(pt)
        assert sum(1 for v in ph if v != 0.0) <= 1


def test_phi_rejects_origin():
    with pytest.raises(ValueError):
        phi_values(point(0, 0, 0))
    with pytest.raises(ValueError):
        h_eval(FibrationParams(2, 3, 7, a=1e7), point(0, 0, 0))


def test_phi_gradient_norm_bound():
    # holomorphic gradient of the first factor is bounded by 3/|x|
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho = rng.uniform(0.0, 0.49) * abs(x)
        ang = rng.uniform(0, 2 * np.pi)
        pt = point(x, rho * math.cos(ang), rho * math.sin(ang) * 1j)
        grad = phi_gradients(pt)[0]
        assert np.linalg.norm(grad) < 3.0 / abs(x)


# --- evaluations and gradients ------------------------------------------------------


def test_f_on_unit_axis_and_critical_origin(minimal_params_237):
    params = minimal_params_237
    for phase in (0.0, 1.3, 2.9):
        assert abs(abs(f_eval(params, point(np.exp(1j * phase), 0, 0))) - 1.0) < 1e-12
    assert np.allclose(f_grad(params, point(0, 0, 0)), 0)


def _fd_wirtinger(func, pt, h):
    holo = np.zeros(3, complex)
    anti = np.zeros(3, complex)
    for j in range(3):
        ex = np.zeros(3, complex)
        ex[j] = h
        dx = (func(pt + ex) - func(pt - ex)) / (2 * h)
        ey = np.zeros(3, complex)
        ey[j] = 1j * h
        dy = (func(pt + ey) - func(pt - ey)) / (2 * h)
        holo[j] = (dx - 1j * dy) / 2
        anti[j] = (dx + 1j * dy) / 2
    return holo, anti


@pytest.mark.parametrize("t", [0.0, 0.4, 1.0])
def test_all_gradients_match_finite_differences(minimal_params_237, t):
    params = FibrationParams(2, 3, 7, a=minimal_params_237.a, t=t)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(40):
        pt = point(
            *(
                (rng.standard_normal(3) + 1j * rng.standard_normal(3))
                * rng.uniform(1e-3, 0.5)
            )
        )
        scale = float(np.linalg.norm(pt))
        holo, anti = _fd_wirtinger(lambda q: ft_eval(params, q), pt, 1e-6 * scale)
        ga, ha = ft_grad(params, pt), ft_antigrad(params, pt)
        denom = max(float(np.linalg.norm(ga)), 1e-300)
        worst = max(
            worst,
            float(np.linalg.norm(holo - ga)) / denom,
            float(np.linalg.norm(anti - ha)) / denom,
        )
    assert worst < 1e-6


def test_g_gradient_matches_fd():
    rng = np.random.default_rng(4)
    from tpqr.numcheck import g_real_jacobian

    for _ in range(20):
        pt = point(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        jac = g_real_jacobian(pt)
        h = 1e-7
        for k in range(6):
            delta = np.zeros(6)
            delta[k] = h
            dpt = point(
                pt[0] + delta[0] + 1j * delta[1],
                pt[1] + delta[2] + 1j * delta[3],
                pt[2] + delta[4] + 1j * delta[5],
            )
            dmt = point(
                pt[0] - delta[0] - 1j * delta[1],
                pt[1] - delta[2] - 1j * delta[3],
                pt[2] - delta[4] - 1j * delta[5],
            )
            fd = (g_eval(dpt) - g_eval(dmt)) / (2 * h)
            assert abs(jac[0, k] - fd.real) < 1e-6
            assert abs(jac[1, k] - fd.imag) < 1e-6


def test_t0_reduces_to_f_and_holomorphic_region(minimal_params_237):
    a = minimal_params_237.a
    p0 = FibrationParams(2, 3, 7, a=a, t=0.0)
    pt = point(0.1 + 0.2j, 0.3, -0.1j)
    assert ft_eval(p0, pt) == f_eval(p0, pt)
    assert np.allclose(ft_antigrad(p0, pt), 0)
    # inner region: ratio below 1/6 keeps the deformed map holomorphic
    p1 = FibrationParams(2, 3, 7, a=a, t=1.0)
    inner = point(0.3, 0.3 / 12, 0.3 / 13 * 1j)
    assert np.allclose(ft_antigrad(p1, inner), 0)
    outer = point(0.3, 0.3 / 4, 0.3 / 5 * 1j)
    assert np.linalg.norm(ft_antigrad(p1, outer)) > 0


# --- projection -----------------------------------------------------------------------


def test_projection_fixed_point_and_torus(minimal_params_237):
    params = minimal_params_237
    c = params.a ** (-2.0 / 3.0)
    seed = point(c * np.exp(0.4j), c * np.exp(1.0j), c * np.exp(-1.4j))
    pt = project_to_level(params, seed)
    assert abs(ft_eval(params, pt) - params.target) <= 1e-9 * abs(params.target)
    again = project_to_level(params, pt)
    assert np.array_equal(again, pt)  # already on the level: unchanged


def test_projection_rejects_origin(minimal_params_237):
    with pytest.raises(ValueError):
        project_to_level(minimal_params_237, point(0, 0, 0))


def test_projection_nonconvergence_raises(minimal_params_237):
    params = minimal_params_237
    with pytest.raises(ProjectionError):
        project_to_level(params, point(0.5, 0.6, 0.7), max_iter=1)


# --- critical points --------------------------------------------------------------------


def test_critical_point_count_and_verification(minimal_params_237):
    params = minimal_params_237
    pts = critical_points(params)
    assert len(pts) == 12
    reports = verify_critical_points(params, CFG)
    assert all(r.ok for r in reports)
    assert max(r.residual_rel for r in reports) < 1e-9
    assert max(r.rank_ratio for r in reports) < 1e-6


def test_critical_values_closed_form(minimal_params_237):
    params = minimal_params_237
    cvs = critical_values(params)
    assert abs(cvs[0] - params.a ** (-1.0)) < 1e-18
    for pt in critical_points(params):
        fam = int(np.argmax(np.abs(pt)))
        assert abs(g_eval(pt) - cvs[fam]) < 1e-12


def test_rotation_symmetry_permutes_critical_points(minimal_params_237):
    params = minimal_params_237
    pts = [pt for pt in critical_points(params) if abs(pt[0]) > 0]
    u_p = np.exp(2j * np.pi / params.p)
    key = lambda z: (round(z.real, 12), round(z.imag, 12))
    rotated = sorted((complex(pt[0]) * u_p for pt in pts), key=key)
    original = sorted((complex(pt[0]) for pt in pts), key=key)
    assert np.allclose(rotated, original)
    reports = [verify_critical_point(params, pt, CFG) for pt in pts]
    rotated_reports = [
        verify_critical_point(params, point(pt[0] * u_p, 0, 0), CFG) for pt in pts
    ]
    assert all(r.ok for r in reports) and all(r.ok for r in rotated_reports)


def test_decoys_rejected(minimal_params_237):
    params = minimal_params_237
    rng = np.random.default_rng(1)
    for pt in critical_points(params):
        noise = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        decoy = pt + 1e-3 * float(np.linalg.norm(pt)) * noise / math.sqrt(6)
        assert not verify_critical_point(params, decoy, CFG).ok


def test_on_level_decoys_rejected_by_rank(minimal_params_237):
    # project the perturbation back onto X_t: the residual passes but the
    # rank criterion must still reject
    params = minimal_params_237
    rng = np.random.default_rng(2)
    for pt in critical_points(params)[:3]:
        noise = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        decoy = pt + 1e-3 * float(np.linalg.norm(pt)) * noise / math.sqrt(6)
        decoy = project_to_level(params, decoy, config=CFG)
        rep = verify_critical_point(params, decoy, CFG)
        assert rep.residual_ok
        assert not rep.rank_ok


# --- hessian -------------------------------------------------------------------------


def test_hessian_model_structure(minimal_params_237):
    model = hessian_model(2, minimal_params_237.a)
    assert model.ok
    assert math.isclose(model.lam, math.sqrt(minimal_params_237.a))
    eigs = sorted(np.linalg.eigvalsh(model.a_matrix))
    assert np.allclose(
        eigs, [-model.lam - 1, -model.lam - 1, model.lam - 1, model.lam - 1]
    )
    # signature (2,2): Lefschetz-compatible indefiniteness
    assert sum(1 for e in eigs if e > 0) == 2
    assert np.allclose(
        np.diag(model.ptap),
        [model.lam - 1, -model.lam - 1, model.lam - 1, -model.lam - 1],
    )
    expect_b = np.zeros((4, 4))
    expect_b[0, 1] = expect_b[1, 0] = math.sqrt(3)
    expect_b[2, 3] = expect_b[3, 2] = math.sqrt(3)
    assert np.allclose(model.ptbp, expect_b, atol=1e-12)


def test_hessian_fd_x_axis(minimal_params_237):
    params = minimal_params_237
    pts = [pt for pt in critical_points(params) if abs(pt[0]) > 0]
    reports = [hessian_fd_check(params, pt, CFG) for pt in pts]
    for rep in reports:
        assert rep.matches
        assert abs(rep.lam_measured - math.sqrt(params.a)) / math.sqrt(params.a) < 1e-3
        assert rep.a_rel_err < 1e-3 and rep.b_rel_err < 1e-3


def test_hessian_fd_other_families(minimal_params_237):
    params = minimal_params_237
    crits = critical_points(params)
    y_pt = next(pt for pt in crits if abs(pt[1]) > 0)
    z_pt = next(pt for pt in crits if abs(pt[2]) > 0)
    for pt, n in ((y_pt, 3), (z_pt, 7)):
        rep = hessian_fd_check(params, pt, CFG)
        assert rep.matches
        assert rep.exponent == n


def test_hessian_fd_negative_control(minimal_params_237):
    params = minimal_params_237
    pt = critical_points(params)[0]
    off_level = point(pt[0] * (1 + 1e-3), pt[1], pt[2])
    assert not hessian_fd_check(params, off_level, CFG).matches
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    generic = pt + 1e-3 * abs(pt[0]) * noise
    assert not hessian_fd_check(params, generic, CFG).matches


# --- audits ----------------------------------------------------------------------------


def test_symplectic_audit_t1(minimal_params_237):
    audit = symplectic_inequality_audit(minimal_params_237, CFG)
    assert audit.passed
    assert audit.min_margin > 0
    assert audit.antigrad_active > 10  # the interesting region is exercised
    assert audit.coordinate_bound_ok


@pytest.mark.parametrize("triple", [(2, 3, 7), (3, 3, 3), (2, 4, 6)])
@pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_symplectic_audit_homotopy_sweep(triple, t):
    base = FibrationParams.minimal(*triple)
    params = FibrationParams(*triple, a=base.a, t=t)
    audit = symplectic_inequality_audit(params, NumericalConfig(samples=60, seed=9))
    assert audit.passed, (triple, t, audit.min_margin)


def test_symplectic_audit_flags_doctored_params():
    audit = symplectic_inequality_audit(FibrationParams(2, 3, 7, a=1.0), CFG)
    assert not audit.passed
    assert audit.precondition_error is not None
    assert audit.samples == 0  # never ran


def test_sample_points_live_on_level(minimal_params_237):
    params = minimal_params_237
    pts = sample_on_level(params, NumericalConfig(samples=50, seed=5))
    tau = params.target
    assert len(pts) == 50
    for pt in pts:
        assert abs(ft_eval(params, pt) - tau) <= 1e-9 * abs(tau)
        assert float(np.max(np.abs(pt))) > params.m / params.a


def test_lagrangian_defect_t1(minimal_params_237):
    rep = lagrangian_defect(minimal_params_237, config=CFG)
    assert rep.lagrangian_expected
    assert rep.max_defect < 1e-6
    assert rep.passed


def test_lagrangian_defect_nonzero_at_t0(minimal_params_237):
    # same sampling at t=0: the defect sits orders of magnitude above the
    # t=1 measurement floor, exhibiting the genuinely non-Lagrangian fibers
    a = minimal_params_237.a
    p0 = FibrationParams(2, 3, 7, a=a, t=0.0)
    rep0 = lagrangian_defect(p0, config=CFG)
    rep1 = lagrangian_defect(minimal_params_237, config=CFG)
    assert not rep0.lagrangian_expected
    assert rep0.max_defect > 1e-12
    assert rep0.max_defect > 100 * rep1.max_defect


def test_lagrangian_rejects_axis_points(minimal_params_237):
    with pytest.raises(ValueError):
        lagrangian_defect(minimal_params_237, [point(0.5, 0, 0)])


def test_domain_y_audit(minimal_params_237):
    rep = domain_y_audit(minimal_params_237, CFG)
    assert rep.passed
    assert rep.max_critical_value < 1.0 / 9.0
    # a > 3^M makes a^{-2/M} < 1/9 an exact consequence
    assert minimal_params_237.a > 3**7


def test_domain_y_flags_small_a():
    # admissible for the tube but not for the domain step
    m = 90
    a = float(m * m * (m + 3) + 1)  # > bound for (3,3,3) but 3^3 = 27 < a anyway
    params = FibrationParams(3, 3, 3, a=a)
    rep = domain_y_audit(params, CFG)
    assert rep.passed  # (3,3,3): 3^M = 27 is far below m^2(m+3)
    under = FibrationParams(2, 3, 7, a=100.0)
    rep2 = domain_y_audit(under, CFG)
    assert not rep2.passed and rep2.precondition_error is not None
