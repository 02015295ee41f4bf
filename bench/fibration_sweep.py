"""fibration-sweep: one warm process running the verify-fibration pipeline
over the 14 cusp triples of the duality table x a grid of two fiber
directions x homotopy times t in {0, 1/2, 1}.

Each cell calls the public numcheck API the way ``tpqr verify-fibration``
does.  One cell of each triple, at a random direction and time, audits
about 2000 samples and the other five about 200, so both the per-sample
cost and the fixed cost of a cell show, on every triple alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import common
from common import Request

ROUND_S = 10.0  # nominal round time on a 2-vCPU x86-64 host

TIMES = (0.0, 0.5, 1.0)
SMALL = (180, 220)
LARGE = (1800, 2200)


@dataclass
class State:
    numcheck: object


def setup() -> State:
    from tpqr import numcheck

    state = State(numcheck)
    _cell(state, ((2, 3, 7), 0.0, 1.0, 50, 0))
    return state


def _cell(state, payload):
    (p, q, r), theta, t, samples, seed = payload
    nc = state.numcheck
    params = nc.FibrationParams.minimal(p, q, r, theta=theta, t=t)
    cfg = nc.NumericalConfig(samples=samples, seed=seed)
    crit = nc.verify_critical_points(params, cfg)
    hess = nc.hessian_fd_check(params, nc.critical_points(params)[0], cfg)
    audit = nc.symplectic_inequality_audit(params, cfg)
    defect = nc.lagrangian_defect(params, config=cfg)
    domain = None
    if t == 1.0 and params.domain_y_admissible:
        domain = nc.domain_y_audit(params, cfg)
    return crit, hess, audit, defect, domain


def _check_cell(payload, out, info):
    (p, q, r), theta, t, samples, _ = payload
    crit, hess, audit, defect, domain = out
    # lagrangian_defect's default point set: max(10, samples // 10) seeds.
    tried = max(10, samples // 10)
    info.update(samples=audit.samples, active=audit.antigrad_active,
                defect_used=defect.samples, defect_tried=tried)
    errors = []
    if len(crit) != p + q + r or not all(c.ok for c in crit):
        errors.append(f"critical points: {sum(c.ok for c in crit)} ok of {len(crit)}, "
                      f"expected {p + q + r}")
    if not hess.matches:
        errors.append("Hessian normal form does not match")
    if not audit.passed or audit.samples != samples:
        errors.append(f"inequality audit failed: {audit.to_json()}")
    if not 0 < defect.samples <= tried:
        errors.append(f"defect used {defect.samples} of {tried} points")
    if t == 1.0 and not (defect.lagrangian_expected and defect.passed):
        errors.append(f"Lagrangian defect at t=1: {defect.to_json()}")
    if t == 1.0 and (domain is None or not domain.passed):
        errors.append(f"domain_y audit at t=1: {domain and domain.to_json()}")
    return errors


def execute(state, request_id, req, tracer):
    return common.run_in_process(request_id, req, lambda p: _cell(state, p), _check_cell, tracer)


def make_round(state, seed: int, index: int) -> list[Request]:
    rng = common.rng_for(seed, "fibration-sweep", index)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    thetas = (phi, (phi + math.pi) % (2.0 * math.pi))
    cells = [(tr, theta, t) for tr in common.TABLE_TRIPLES for theta in thetas for t in TIMES]
    per_triple = len(thetas) * len(TIMES)
    large = {i + rng.randrange(per_triple) for i in range(0, len(cells), per_triple)}
    requests = []
    for i, (tr, theta, t) in enumerate(cells):
        samples = rng.randint(*(LARGE if i in large else SMALL))
        bucket = "large" if i in large else "small"
        requests.append(Request("cell", bucket, (tr, theta, t, samples, rng.randrange(2**31))))
    rng.shuffle(requests)
    return requests


def layer_metrics(rounds, tracer) -> dict:
    client = common.call_stats(rounds, tracer)
    nested = common.call_stats(rounds, tracer, client_only=False)
    traced = [d for r in rounds if r.traced for d in r.done]
    plain = [d for r in rounds if not r.traced for d in r.done]

    def total(key):
        return sum(d.info.get(key, 0) for d in traced)

    def ms(name):
        return common.median(c[0] for c in client.get((name, None), ())) * 1e3

    def seconds(name, own=False):
        return sum(c[1 if own else 0] for c in nested.get((name, None), ()))

    samples, tried = total("samples"), total("defect_tried")
    return {
        "numcheck.verify_critical_points_ms": ms("numcheck.verify_critical_points"),
        "numcheck.hessian_fd_check_ms": ms("numcheck.hessian_fd_check"),
        "numcheck.domain_y_audit_ms": ms("numcheck.domain_y_audit"),
        "numcheck.sample_us_per_sample":
            seconds("numcheck.sample_on_level") / samples * 1e6 if samples else 0.0,
        "numcheck.audit_us_per_sample":
            seconds("numcheck.symplectic_inequality_audit", own=True) / samples * 1e6
            if samples else 0.0,
        "numcheck.defect_us_per_point":
            seconds("numcheck.lagrangian_defect") / tried * 1e6 if tried else 0.0,
        "numcheck.defect_used_ratio": total("defect_used") / tried if tried else 0.0,
        "numcheck.defect_points_tried": common.per_round(rounds, lambda d: d.info.get("defect_tried", 0)),
        "numcheck.antigrad_active_ratio": total("active") / samples if samples else 0.0,
        "numcheck.audit_samples": common.per_round(rounds, lambda d: d.info.get("samples", 0)),
        "numcheck.errors": common.per_round(
            rounds,
            lambda d: d.info.get("exception") in ("ProjectionError", "AdmissibilityError"),
        ),
        "numcheck.samples_per_s":
            sum(d.info.get("samples", 0) for d in plain) / sum(d.latency for d in plain),
    }
