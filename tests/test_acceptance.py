"""Acceptance suite: every criterion at its stated tolerance, one PASS/FAIL
line per criterion (run with -s to see them)."""

import math
import time
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from conftest import unimodular_indefinite_isomorphic
from tpqr import cuspdual, k3glue, milnorfiber, numcheck, quadlattice, sl2z


def report(n, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {label}")
    assert ok, f"criterion {n}: {label}"


def test_criterion_01_monodromy_exactness():
    sl2z.monodromy_matrix(2, 3, 7)  # warm up
    t0 = time.perf_counter()
    m = sl2z.monodromy_matrix(2, 3, 7)
    elapsed = time.perf_counter() - t0
    ok = m == sl2z.SL2Matrix(5, -11, 1, -2) and elapsed < 1e-3
    report(1, f"A_{{2,3,7}} = (5,-11;1,-2) exactly in {elapsed*1e6:.0f} us", ok)


def test_criterion_02_prop_41_sweep():
    pairs = k3glue.strange_duality_table()
    t0 = time.perf_counter()
    ok = True
    for pair in pairs:
        a = sl2z.monodromy_matrix(*pair.left)
        b = sl2z.monodromy_matrix(*pair.right)
        cert = sl2z.is_conjugate_to_inverse(a, b)
        ok = ok and cert is not None and cert.verify()
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(2, f"all 10 pairs inverse-conjugate with certificates in {elapsed:.3f} s", ok)


def test_criterion_03_twenty_four_count():
    ok = all(k3glue.critical_count(p) == 24 for p in k3glue.strange_duality_table())
    report(3, "critical count 24 for all 10 pairs", ok)


def test_criterion_04_discriminant_law():
    ok = True
    for p in range(2, 13):
        for q in range(p, 13):
            for r in range(q, 13):
                want = (-1) ** (p + q + r - 2) * (q * r + r * p + p * q - p * q * r)
                ok = ok and quadlattice.discriminant(quadlattice.t_lattice(p, q, r)) == want
    hits = []
    for p in range(2, 21):
        for q in range(p, 21):
            for r in range(q, 21):
                if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) < 1:
                    if abs(q * r + r * p + p * q - p * q * r) == 1:
                        hits.append((p, q, r))
    ok = ok and hits == [(2, 3, 7)]
    report(4, "disc law exact to 12; |disc|=1 iff (2,3,7) up to 20", ok)


def test_criterion_05_lattice_identification():
    t = quadlattice.t_lattice(2, 3, 7)
    e8h = quadlattice.direct_sum(quadlattice.e_lattice(8), quadlattice.hyperbolic_plane())
    ok = unimodular_indefinite_isomorphic(t, e8h)
    glued = quadlattice.direct_sum(t, t, quadlattice.hyperbolic_plane())
    ok = ok and unimodular_indefinite_isomorphic(glued, quadlattice.k3_lattice())
    report(5, "T(2,3,7) = E8+H and 2T(2,3,7)+H = 2E8+3H", ok)


def test_criterion_06_duality_example():
    c = cuspdual.triple_to_cycle(2, 3, 8)
    ok = c.entries == (4,)
    ok = ok and cuspdual.cf_value(cuspdual.CycleData((4,))) == cuspdual.QuadIrrational(2, 1, 1, 3)
    ok = ok and cuspdual.cf_value(cuspdual.CycleData((3, 2))) == cuspdual.QuadIrrational(3, 1, 2, 3)
    ok = ok and cuspdual.alpha_v(cuspdual.CycleData((3, 2))) == cuspdual.QuadIrrational(2, 1, 1, 3)
    ok = ok and cuspdual.dual_triple(2, 3, 8) == (2, 4, 5)
    report(6, "cycle (4), omega/alpha values, dual (2,4,5) all exact", ok)


def test_criterion_07_module_action():
    m = cuspdual.module_action_matrix(cuspdual.CycleData((3, 2)))
    cert = sl2z.is_conjugate(m, sl2z.monodromy_matrix(2, 3, 8))
    ok = cert is not None and cert.verify()
    report(7, "module action of (3,2) conjugate to A_{2,3,8} with certificate", ok)


def test_criterion_08_monodromy_isometry():
    ok = True
    for p in range(2, 11):
        for q in range(p, 11):
            for r in range(q, 11):
                if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) >= 1:
                    continue
                mu = [list(row) for row in milnorfiber.monodromy_action(p, q, r)]
                g = [list(row) for row in quadlattice.t_tilde_lattice(p, q, r, "S'").gram]
                n = len(mu)
                gmu = [[sum(map(mul, row, col)) for col in zip(*mu)] for row in g]
                mugmu = [[sum(map(mul, col, gcol)) for gcol in zip(*gmu)] for col in zip(*mu)]
                ok = ok and mugmu == g
                ok = ok and [mu[i][n - 1] for i in range(n)] == [0] * (n - 1) + [1]
    report(8, "mu* isometry and fixed fiber class for all cusp triples to 10", ok)


def test_criterion_09_inose_classification():
    cases = [
        ((0, 0, 2, 2), (2, 3, 7), 3),
        ((0, 2, 0, 2), (2, 5, 5), 7),
        ((0, 1, 0, 2), (2, 4, 5), 4),
        ((0, 2, 1, 2), (2, 3, 8), 4),
    ]
    k3glue.classify_inose_boundary(k3glue.InoseCase((0, 0, 2, 2)))  # warm up
    t0 = time.perf_counter()
    ok = True
    for counts, triple, trace in cases:
        case = k3glue.InoseCase(counts)
        m = k3glue.inose_monodromy(case)
        cls = k3glue.classify_inose_boundary(case)
        ok = ok and m.trace == trace and cls is not None and cls.triple == triple
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 0.1
    report(9, f"four boundary cases classified (traces 3,7,4,4) in {elapsed*1e3:.1f} ms", ok)


def test_criterion_10_torus_relation():
    word = sl2z.evaluate_word([(sl2z.BETA, 1), (sl2z.ALPHA, 1)])
    ok = all(word ** (6 * n) == sl2z.SL2Matrix(1, 0, 0, 1) for n in range(1, 5))
    report(10, "(tb ta)^(6n) = identity for n = 1..4", ok)


def test_criterion_11_numerical_fibration():
    t0 = time.perf_counter()
    params = numcheck.FibrationParams.minimal(2, 3, 7, theta=0.0, t=1.0)
    cfg = numcheck.NumericalConfig(samples=1000, seed=42)

    crit_reports = numcheck.verify_critical_points(params, cfg)
    ok = len(crit_reports) == 12
    ok = ok and all(r.residual_rel < 1e-9 for r in crit_reports)
    ok = ok and all(r.rank_ratio < 1e-6 for r in crit_reports)

    x_pt = numcheck.critical_points(params)[0]
    hess = numcheck.hessian_fd_check(params, x_pt, cfg, rel_tol=1e-3)
    lam = math.sqrt(params.a)
    ok = ok and hess.matches and abs(hess.lam_measured - lam) / lam < 1e-3

    audit = numcheck.symplectic_inequality_audit(params, cfg)
    ok = ok and audit.passed and audit.samples == 1000

    defect = numcheck.lagrangian_defect(params, config=cfg, tolerance=1e-6)
    ok = ok and defect.passed and defect.max_defect < 1e-6

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(
        11,
        "12 critical points, hessian lam=sqrt(a), 1000-sample audit, "
        f"defect {defect.max_defect:.1e}, in {elapsed:.1f} s",
        ok,
    )


def test_criterion_12_negative_controls():
    params = numcheck.FibrationParams.minimal(2, 3, 7)
    cfg = numcheck.NumericalConfig(samples=200, seed=42)
    rng = np.random.default_rng(1)
    decoys_rejected = True
    for pt in numcheck.critical_points(params):
        noise = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        decoy = pt + 1e-3 * float(np.linalg.norm(pt)) * noise / math.sqrt(6)
        decoys_rejected = decoys_rejected and not numcheck.verify_critical_point(
            params, decoy, cfg
        ).ok

    p0 = numcheck.FibrationParams(2, 3, 7, a=params.a, t=0.0)
    d0 = numcheck.lagrangian_defect(p0, config=cfg)
    d1 = numcheck.lagrangian_defect(params, config=cfg)
    defect_control = d0.max_defect > 1e-12 and d0.max_defect > 100 * d1.max_defect

    bad_gamma = sl2z.HomologyClass(1, 1)
    m = k3glue.inose_monodromy(k3glue.InoseCase((0, 2, 0, 2)), gamma=bad_gamma)
    gamma_control = m.trace != 7

    ok = decoys_rejected and defect_control and gamma_control
    report(
        12,
        "decoys rejected; t=0 defect nonzero "
        f"({d0.max_defect:.1e} vs t=1 floor {d1.max_defect:.1e}); "
        "gamma=(1,1) breaks case 2",
        ok,
    )
