"""Floating-point verification of the torus-fibration construction.

The defining polynomial x^p + y^q + z^r + a*x*y*z is deformed, through
radial bump factors on the three monomials, into a map whose composition
with the weighted moment map

    g(x,y,z) = |x|^2 + e^{2 pi i/3} |y|^2 + e^{4 pi i/3} |z|^2

becomes a Lagrangian torus fibration with p+q+r Lefschetz critical points
on the coordinate axes.  Everything here is double precision: closed-form
critical points and values, bump/gradient evaluations with analytic
Wirtinger derivatives, Newton projection onto level sets, a
finite-difference check of the critical-point Hessian normal form, and
sampling audits of the gradient inequality, the Lagrangian condition and
the domain-shrinking bounds.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import triple_excess, value_class

__all__ = [
    "C3Point",
    "FibrationParams",
    "NumericalConfig",
    "AdmissibilityError",
    "ProjectionError",
    "point",
    "bump",
    "bump_deriv",
    "phi_values",
    "phi_gradients",
    "f_eval",
    "f_grad",
    "h_eval",
    "ft_eval",
    "ft_grad",
    "ft_antigrad",
    "g_eval",
    "project_to_level",
    "critical_points",
    "critical_values",
    "verify_critical_point",
    "verify_critical_points",
    "hessian_model",
    "hessian_fd_check",
    "sample_on_level",
    "symplectic_inequality_audit",
    "lagrangian_defect",
    "domain_y_audit",
    "parse_config_file",
    "verify_fibration",
]

C3Point = np.ndarray  # shape (3,), or a stack (..., 3); complex128

_TAU = 2.0 * math.pi
_OMEGA = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))

# Largest a for which |xyz| = 1/a^2 on the regular torus is a normal double.
_A_MAX = sys.float_info.min ** -0.5


def _double_or_inf(n: int) -> float:
    """n as a double, or inf where it exceeds the double range."""
    try:
        return float(n)
    except OverflowError:
        return math.inf


class AdmissibilityError(ValueError):
    pass


class ProjectionError(RuntimeError):
    pass


def point(x: complex, y: complex, z: complex) -> C3Point:
    pt = np.array([x, y, z], dtype=complex)
    if not np.all(np.isfinite(pt.view(float))):
        raise ValueError("point components must be finite")
    return pt


@value_class
class FibrationParams:
    """Fibration data (p,q,r), deformation parameter a, fiber direction
    theta and homotopy time t.

    Construction validates structure and the double-precision range of a
    (|xyz| = 1/a^2 must stay a normal double, so a <= 6.7e153) and
    reduces theta to [0, 2 pi), where it is kept as given; the
    admissibility bounds on a are checked by ``check()`` so that
    deliberately inadmissible parameters can still be built and then
    flagged by the audits.
    """

    p: int
    q: int
    r: int
    a: float
    theta: float = 0.0
    t: float = 1.0

    def __post_init__(self):
        if any(type(v) is not int for v in (self.p, self.q, self.r)):  # bool is not an index
            raise TypeError(f"integer p, q, r required, got ({self.p!r}, {self.q!r}, {self.r!r})")
        if min(self.p, self.q, self.r) < 2:
            raise ValueError("p, q, r must be >= 2")
        if triple_excess(self.p, self.q, self.r) < 0:
            raise ValueError("need 1/p + 1/q + 1/r <= 1")
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError("a must be positive and finite")
        if self.a > _A_MAX:
            raise ValueError(
                f"a = {self.a} exceeds {_A_MAX:.3g}: |xyz| = 1/a^2 on the fiber "
                "would not be a normal double"
            )
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if not 0.0 <= self.theta < _TAU:  # the fiber depends on e^{i theta} alone
            theta = math.atan2(math.sin(self.theta), math.cos(self.theta))  # exact reduction
            object.__setattr__(self, "theta", theta % _TAU % _TAU)  # a rounded 2 pi is 0
        if not 0 <= self.t <= 1:
            raise ValueError("homotopy time t must lie in [0,1]")

    @property
    def big_m(self) -> int:
        return max(self.p, self.q, self.r)

    @property
    def m(self) -> int:
        return 30 * self.big_m

    @property
    def tube_bound(self) -> float:
        return _double_or_inf(max(12 * self.big_m, self.m**2 * (self.m + 3)))

    @property
    def domain_bound(self) -> float:
        """max(3^M, m^2(m+3)); inf once 3^M exceeds the double range
        (M >= 647), where no finite a is admissible.  3^647 stands in for
        every larger power, so a huge M costs no huge integer."""
        return _double_or_inf(max(3 ** min(self.big_m, 647), self.m**2 * (self.m + 3)))

    @property
    def admissible(self) -> bool:
        return self.a > self.tube_bound

    @property
    def domain_y_admissible(self) -> bool:
        return self.a > self.domain_bound

    @property
    def precision_reviewed(self) -> bool:
        """Doubles comfortably cover the dynamic range only up to index 9."""
        return self.big_m <= 9

    def check(self) -> None:
        if not self.admissible:
            raise AdmissibilityError(
                f"a = {self.a} does not exceed max(12M, m^2(m+3)) = {self.tube_bound}"
            )

    def check_domain_y(self) -> None:
        self.check()
        if not self.domain_y_admissible:
            raise AdmissibilityError(
                f"a = {self.a} does not exceed max(3^M, m^2(m+3)) = {self.domain_bound}"
            )

    @cached_property
    def _critical_points(self) -> np.ndarray:
        """The stack behind ``critical_points``, computed once."""
        exps = _exponents(self)
        axis = np.repeat(np.arange(3), exps)
        n = exps[axis]
        j = np.concatenate([np.arange(k) for k in exps])
        out = np.zeros((len(axis), 3), dtype=complex)
        out[np.arange(len(axis)), axis] = self.a ** (-1.0 / n) * np.exp(
            1j * (self.theta + 2 * math.pi * j) / n
        )
        return out

    @property
    def target(self) -> complex:
        """The regular value (1/a) e^{i theta} cutting out the fiber X_t."""
        return complex(math.cos(self.theta), math.sin(self.theta)) / self.a

    @classmethod
    def minimal(cls, p: int, q: int, r: int, theta: float = 0.0, t: float = 1.0,
                domain_y: bool = False) -> "FibrationParams":
        """Minimal admissible a + 1 for the requested checks."""
        probe = cls(p, q, r, a=1.0, theta=theta, t=t)
        bound = probe.tube_bound
        if domain_y:
            bound = max(bound, probe.domain_bound)
        # past 2^53, bound + 1.0 rounds back to bound
        return cls(p, q, r, a=max(bound + 1.0, math.nextafter(bound, math.inf)),
                   theta=theta, t=t)


@value_class
class NumericalConfig:
    residual_tol: float = 1e-9  # relative, level-set membership
    rank_tol: float = 1e-6  # singular-value ratio at critical points
    samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        # A tolerance of 1 or more passes every rank test (a rank ratio is
        # at most 1), and residual_tol = inf every level-set test.
        for v in (self.residual_tol, self.rank_tol):
            if not 0.0 < v < 1.0:
                raise ValueError("tolerances must lie in (0, 1)")
        if self.samples <= 0:
            raise ValueError("sample count must be positive")


def parse_config_file(path: str) -> NumericalConfig:
    """key=value per line; unknown keys rejected, '#' comments allowed."""
    kwargs: dict = {}
    casts = {"residual_tol": float, "rank_tol": float, "samples": int, "seed": int}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in casts:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = casts[key](value.strip())
    return NumericalConfig(**kwargs)


# ---------------------------------------------------------------------------
# Pointwise kernels.  Each acts on the last axis: a (3,) point and an
# (N, 3) stack of points go through the same code, and a stack gives one
# value (or gradient, or Jacobian) per row.
#
# Bump function: identically 1 on [0,1/6], identically 0 from 1/2 on,
# derivative within [-3.75, 0].  The transition is a C^2 piecewise
# polynomial whose derivative profile ramps up with a quintic smoothstep
# over the first fifth of the transition, holds a plateau, and ramps down
# symmetrically; the plateau value 1/(1-1/5) scaled by the width 1/3 of
# the transition gives the slope bound 3.75.
# ---------------------------------------------------------------------------

_ALPHA = 0.2
_PLATEAU = 1.0 / (1.0 - _ALPHA)

# Row j: axis j followed by the next two axes cyclically (the adapted chart
# at an axis critical point, and the transverse pair of each bump ratio).
_CHART_ORDER = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
_NEXT, _AFTER = _CHART_ORDER[:, 1:].T.copy()  # its last two columns, for take
# x[..., _CYCLE] holds x at _NEXT in [..., :3] and at _AFTER in [..., 1:]:
# on the real moduli of large stacks one such index costs less than two takes.
_CYCLE = np.array([1, 2, 0, 1])
# Row j: the two axes other than j, ascending.
_OTHERS = np.array([[1, 2], [0, 2], [0, 1]])
_G_WEIGHTS = np.array([1.0, _OMEGA, _OMEGA**2])


def _band(u):
    """The bump and its derivative at the positions u in [0, 1] across the
    transition: 1 minus the integral of the derivative profile from 0 to u,
    and -3 times the profile, a smoothstep of the position v along a ramp.
    The smoothstep 10 v^3 - 15 v^4 + 6 v^5 and its integral share v^3."""
    ramp_in = u < _ALPHA
    v = np.where(ramp_in, u / _ALPHA, (1.0 - u) / _ALPHA)
    v3 = v * v * v
    ramp = _PLATEAU * _ALPHA * (v3 * v * (2.5 + v * (-3.0 + v)))
    plateau = _PLATEAU * (_ALPHA / 2.0 + (u - _ALPHA))
    integral = np.where(ramp_in, ramp, np.where(u <= 1.0 - _ALPHA, plateau, 1.0 - ramp))
    step = v3 * (10.0 + v * (-15.0 + 6.0 * v))
    profile = _PLATEAU * np.where(ramp_in | (u > 1.0 - _ALPHA), step, 1.0)
    return 1.0 - integral, -3.0 * profile


def _transition(s):
    """The bump and its derivative at s >= 0 (not checked, ndim >= 1).  The
    transition polynomials are evaluated only on the entries in neither
    [0, 1/6] nor [1/2, inf], by index, at the position 3 (s - 1/6) in [0, 1]."""
    low = s <= 1.0 / 6.0
    band = (~(low | (s >= 0.5))).ravel().nonzero()[0]
    phi = low.astype(float)
    dphi = np.zeros(s.shape)
    if band.size:
        phi_band, dphi_band = _band((3.0 * (s.take(band) - 1.0 / 6.0)).clip(0.0, 1.0))
        phi.put(band, phi_band)
        dphi.put(band, dphi_band)
    return phi, dphi


def _checked(s):
    """s as floats with a leading axis of one, so that a scalar is a stack
    too; a negative or NaN entry is rejected."""
    s = np.asarray(s, dtype=float)
    if not (s >= 0).all():
        raise ValueError("bump argument must be >= 0")
    return s[None]


def bump(s):
    """1 on [0, 1/6], 0 on [1/2, inf], monotone C^2 in between."""
    return _transition(_checked(s))[0][0]


def bump_deriv(s):
    return _transition(_checked(s))[1][0]


def _exponents(params: FibrationParams) -> np.ndarray:
    return np.array([params.p, params.q, params.r])


def _row_sum(x):
    """x.sum(axis=-1) over the three coordinates, bit for bit, from column
    adds: numpy adds the entries in order to its identity 0.0, and that
    differs from adding the entries alone only in turning -0.0 into 0.0."""
    return 0.0 + x[..., 0] + x[..., 1] + x[..., 2]


def _row_norm(x):
    """np.linalg.norm(x, axis=-1) over the three coordinates, bit for bit:
    numpy takes the root of the sum of (conj(x) x).real along the axis."""
    return np.sqrt(_row_sum((x.conj() * x).real))


_ORIGIN = "bump factors are undefined at the origin"


def _radii(pt: C3Point) -> tuple[np.ndarray, np.ndarray]:
    """|u_j| and the transverse radius |(u_{j+1}, u_{j+2})| for each axis j."""
    mod = np.abs(pt)
    cycled = mod[..., _CYCLE]
    rho = np.hypot(cycled[..., :3], cycled[..., 1:])
    if not np.logical_or(mod[..., 0], rho[..., 0]).all():  # |x| = |(y, z)| = 0
        raise ValueError(_ORIGIN)
    return mod, rho


def _ratios(pt: C3Point) -> np.ndarray:
    """Transverse radius over |u_j| for each axis j; inf where u_j = 0."""
    mod, rho = _radii(pt)
    with np.errstate(divide="ignore", over="ignore"):
        return rho / mod


def phi_values(pt: C3Point) -> np.ndarray:
    """The three radial bump factors; their supports are pairwise disjoint."""
    return bump(_ratios(pt))


def _phi_parts(pt, mod, rho, dphi) -> tuple[np.ndarray, np.ndarray]:
    """(coef, diag) from the radii and the bump derivatives at pt: the
    holomorphic Wirtinger gradient of the j-th bump factor is
    coef_j * conj(u_k) in entry k != j and diag_j in entry j."""
    # Both vanish with dphi; unit radii there keep the quotients finite.
    active = dphi != 0.0
    au = np.where(active, mod, 1.0)
    rho = np.where(active, rho, 1.0)
    two_au = 2.0 * au
    # d(rho/|u|)/du = -rho conj(u) / (2|u|^3); d/dv = conj(v)/(2|u| rho)
    return dphi / (two_au * rho), -dphi * rho / (two_au * au) * (np.conj(pt) / au)


def phi_gradients(pt: C3Point) -> np.ndarray:
    """Rows j = holomorphic Wirtinger gradient of the j-th bump factor;
    the antiholomorphic gradients are the complex conjugates."""
    pt = np.asarray(pt, dtype=complex)
    mod, rho = _radii(pt)
    with np.errstate(divide="ignore", over="ignore"):
        coef, diag = _phi_parts(pt, mod, rho, _transition(rho / mod)[1])
    out = coef[..., :, None] * np.conj(pt)[..., None, :]
    out[..., range(3), range(3)] = diag
    return out


def _monomials(params: FibrationParams, pt: C3Point) -> np.ndarray:
    return np.asarray(pt) ** _exponents(params)


def _axyz(params: FibrationParams, pt: C3Point):
    pt = np.asarray(pt)
    return params.a * pt[..., 0] * pt[..., 1] * pt[..., 2]


def f_eval(params: FibrationParams, pt: C3Point) -> complex:
    return np.sum(_monomials(params, pt), axis=-1) + _axyz(params, pt)


def _cross_terms(params: FibrationParams, pt: C3Point) -> np.ndarray:
    """a*y*z, a*z*x, a*x*y: the gradient of a*x*y*z."""
    pt = np.asarray(pt)
    return params.a * pt.take(_NEXT, axis=-1) * pt.take(_AFTER, axis=-1)


def f_grad(params: FibrationParams, pt: C3Point) -> np.ndarray:
    n = _exponents(params)
    return n * np.asarray(pt, dtype=complex) ** (n - 1) + _cross_terms(params, pt)


def h_eval(params: FibrationParams, pt: C3Point) -> complex:
    return np.sum(phi_values(pt) * _monomials(params, pt), axis=-1) + _axyz(params, pt)


def _ft_pass(params: FibrationParams, pt: C3Point):
    """The deformed map ft at pt, and grads(rows=None, anti=False), which
    gives its holomorphic Wirtinger gradient at the rows of pt that the
    boolean mask rows selects, or at all of pt (with anti, the pair
    holomorphic, antiholomorphic).  The radii, the bump factors and their
    derivatives, the monomials and a*x*y*z are computed once, and every
    value and gradient is the same expression as for the separate maps
    ft = (1-t) f + t h and grad = (1-t+t phi) n u^(n-1) + cross + t bump.
    At t = 0, ft = f and the weight 1-t+t phi is exactly 1, so the radii,
    the ratios and the bump factors are not computed there.  The
    holomorphic gradient alone leaves out the bump terms of rows where
    they are zeros that cannot change it: no bump derivative is nonzero,
    every monomial is finite and no part of the rest is zero.  Nothing is
    reduced along the coordinate axis: sums are column adds."""
    pt = np.asarray(pt, dtype=complex)
    t = params.t
    if t == 0.0:
        if not np.logical_or(np.logical_or(pt[..., 0], pt[..., 1]), pt[..., 2]).all():
            raise ValueError(_ORIGIN)
    else:
        mod, rho = _radii(pt)
        with np.errstate(divide="ignore", over="ignore"):
            phi, dphi = _transition(rho / mod)  # a ratio of moduli is never negative
    n = _exponents(params)
    mono = pt**n
    axyz = _axyz(params, pt)
    value = _row_sum(mono) + axyz
    if t != 0.0:
        value = (1.0 - t) * value + t * (_row_sum(phi * mono) + axyz)

    def grads(rows=None, anti=False):
        index = None if rows is None else rows.nonzero()[0]

        def at(x):  # on small stacks a take costs less than a mask selection
            return x if index is None else x.take(index, axis=0)

        u = at(pt)
        weight = n if t == 0.0 else (1.0 - t + t * at(phi)) * n
        holo = weight * u ** (n - 1) + _cross_terms(params, u)
        if t == 0.0:
            return (holo, np.zeros(u.shape, dtype=complex)) if anti else holo
        m, d = at(mono), at(dphi)
        if not (anti or d.any()) and np.isfinite(m).all() and holo.view(float).all():
            # The bump terms are then finite signed zeros, and adding a
            # zero to a nonzero part changes no bit.
            return holo
        coef, diag = _phi_parts(u, at(mod), at(rho), d)
        w = m * coef
        others = w.take(_NEXT, axis=-1) + w.take(_AFTER, axis=-1)  # j != k
        holo = holo + t * (np.conj(u) * others + m * diag)
        return (holo, t * (u * others + m * np.conj(diag))) if anti else holo

    return value, grads


def ft_eval(params: FibrationParams, pt: C3Point) -> complex:
    return _ft_pass(params, pt)[0]


def ft_grad(params: FibrationParams, pt: C3Point) -> np.ndarray:
    return _ft_pass(params, pt)[1]()


def ft_antigrad(params: FibrationParams, pt: C3Point) -> np.ndarray:
    return _ft_pass(params, pt)[1](anti=True)[1]


def g_eval(pt: C3Point) -> complex:
    return (_G_WEIGHTS * np.abs(pt) ** 2).sum(axis=-1)


def _g_wirtinger(pt: C3Point) -> tuple[np.ndarray, np.ndarray]:
    return _G_WEIGHTS * np.conj(pt), _G_WEIGHTS * np.asarray(pt)


def _real_jacobian(holo: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """2x6 real Jacobian of a complex function from its Wirtinger pair,
    coordinates ordered (Re x, Im x, Re y, Im y, Re z, Im z)."""
    dx = holo + anti
    dy = 1j * (holo - anti)
    out = np.empty(dx.shape[:-1] + (2, 6))
    out[..., 0, 0::2], out[..., 0, 1::2], out[..., 1, 0::2], out[..., 1, 1::2] = (
        dx.real, dy.real, dx.imag, dy.imag)
    return out


def ft_real_jacobian(params: FibrationParams, pt: C3Point) -> np.ndarray:
    return _real_jacobian(*_ft_pass(params, pt)[1](anti=True))


def g_real_jacobian(pt: C3Point) -> np.ndarray:
    return _real_jacobian(*_g_wirtinger(pt))


def _omega0(u: np.ndarray, v: np.ndarray) -> float:
    """Standard symplectic form on R^6 = C^3 in (Re, Im)-interleaved
    coordinates."""
    return np.sum(u[..., 0::2] * v[..., 1::2] - u[..., 1::2] * v[..., 0::2], axis=-1)


# The outcome of a row under _newton; a larger code takes precedence.
_CONVERGED, _STALLED, _VANISHED = 0, 1, 2
_PROJECTION_STEPS = 50  # the Newton steps of a projection onto the level


def _newton(params, pts, tau, tol, max_iter, step) -> np.ndarray:
    """Newton iteration on the rows of pts, (n, 3), in place, towards
    ft = tau.  Each row stops at its first iterate within tol; step(rows,
    residuals, gradients) gives the next iterate of the rows still moving,
    the only rows whose holomorphic gradients are computed, and the mask of
    the rows it could not step, or None.  Rows do not interact, so each has
    the iterates it has alone.  Returns the outcome of each row: _VANISHED
    where step could not move it, _STALLED where it was still moving after
    max_iter steps, and _CONVERGED."""
    outcome = np.full(len(pts), _CONVERGED, dtype=np.int8)
    todo = np.arange(len(pts))
    for _ in range(max_iter):
        rows = pts.take(todo, axis=0)
        value, grads = _ft_pass(params, rows)
        res = value - tau
        moving = ~(np.abs(res) <= tol)
        keep = moving.nonzero()[0]
        if keep.size == 0:
            return outcome
        todo = todo.take(keep)
        pts[todo], stuck = step(rows.take(keep, axis=0), res.take(keep), grads(moving))
        if stuck is not None:
            outcome[todo[stuck]] = _VANISHED
            todo = todo[~stuck]
    outcome[todo] = _STALLED
    return outcome


def _project(params, seeds, config, max_iter):
    """The seeds Newton-projected along the holomorphic gradient as in
    ``project_to_level``, and the outcome of each row (n, 3) under
    _newton; a row whose gradient vanishes stops where it is."""
    tau = params.target
    scale = max(abs(tau), 1e-300)
    cur = np.array(seeds, dtype=complex)

    def step(rows, res, grad):
        norm2 = _row_sum(grad.real**2 + grad.imag**2)
        stuck = norm2 == 0.0
        if stuck.any():
            norm2[stuck] = 1.0  # the step of a zero gradient is zero
        else:
            stuck = None
        return rows - res[:, None] * np.conj(grad) / norm2[:, None], stuck

    tol = config.residual_tol * scale
    return cur, _newton(params, cur.reshape(-1, 3), tau, tol, max_iter, step)


def _projection_error(outcome: np.ndarray, max_iter: int) -> Optional[str]:
    """The ProjectionError message for rows with these outcomes, or None
    when every row converged."""
    worst = outcome.max(initial=_CONVERGED)
    if worst == _VANISHED:
        return "vanishing gradient during projection"
    if worst == _STALLED:
        return f"no convergence after {max_iter} iterations"
    return None


def project_to_level(
    params: FibrationParams,
    pt: C3Point,
    config: NumericalConfig = NumericalConfig(),
    max_iter: int = _PROJECTION_STEPS,
) -> C3Point:
    """Newton step along the holomorphic gradient until the map value
    reaches params.target within the relative residual tolerance; a stack
    is projected row by row.  Raises ProjectionError if a row's gradient
    vanishes or a row has not converged after max_iter steps."""
    cur, outcome = _project(params, pt, config, max_iter)
    error = _projection_error(outcome, max_iter)
    if error is not None:
        raise ProjectionError(error)
    return cur


# ---------------------------------------------------------------------------
# Critical points
# ---------------------------------------------------------------------------


def critical_points(params: FibrationParams) -> np.ndarray:
    """The p+q+r closed-form critical points of g restricted to X_t, on
    the three coordinate axes, as a (p+q+r, 3) stack: the p points on the
    x-axis first, then the q on the y-axis, then the r on the z-axis.
    They are computed once per parameter object; each call returns a copy."""
    params.check()
    return params._critical_points.copy()


def critical_values(params: FibrationParams) -> list[complex]:
    """Images under g of the three critical families."""
    return [
        params.a ** (-2.0 / params.p) + 0j,
        _OMEGA * params.a ** (-2.0 / params.q),
        _OMEGA**2 * params.a ** (-2.0 / params.r),
    ]


def _fields(report, *skip: str) -> dict:
    """A report's fields, in declaration order, except those named."""
    return {k: v for k, v in vars(report).items() if k not in skip}


@value_class
class CriticalPointReport:
    residual_rel: float
    rank_ratio: float
    corank2_ratio: float
    residual_ok: bool
    rank_ok: bool

    @property
    def ok(self) -> bool:
        return self.residual_ok and self.rank_ok


def _critical_reports(
    params: FibrationParams, pts: np.ndarray, config: NumericalConfig
) -> list[CriticalPointReport]:
    """Checks level-set membership and the vanishing of the restricted
    differential of g at each row of pts.

    The tangent space of X_t is the numerical kernel of the 2x6 real
    Jacobian of the defining map.  At a Lefschetz point the reduced 2x4
    Jacobian of g on it vanishes (corank 2), so ``rank_ok`` needs its
    largest singular value to be small against the largest singular value
    of the ambient Jacobian of g; ``rank_ratio`` is the smallest one,
    which only shows that the differential is singular.
    """
    tau = params.target
    value, grads = _ft_pass(params, pts)
    residual = np.abs(value - tau) / abs(tau)
    _, _, vh = np.linalg.svd(_real_jacobian(*grads(anti=True)), full_matrices=True)
    tangent = np.swapaxes(vh[:, 2:], -1, -2)  # 6x4 orthonormal kernel bases
    jg = g_real_jacobian(pts)
    svals = np.linalg.svd(jg @ tangent, compute_uv=False)
    ambient = np.linalg.svd(jg, compute_uv=False)[:, 0]
    corank2_ratio = svals[:, 0] / ambient
    columns = (residual, svals[:, -1] / ambient, corank2_ratio,
               residual < config.residual_tol, corank2_ratio < config.rank_tol)
    # the fields in order, as Python floats and bools
    return [CriticalPointReport(*row) for row in zip(*(c.tolist() for c in columns))]


def verify_critical_point(
    params: FibrationParams, pt: C3Point, config: NumericalConfig = NumericalConfig()
) -> CriticalPointReport:
    return _critical_reports(params, np.asarray(pt, dtype=complex)[None], config)[0]


def verify_critical_points(
    params: FibrationParams, config: NumericalConfig = NumericalConfig()
) -> list[CriticalPointReport]:
    params.check()
    return _critical_reports(params, critical_points(params), config)


# ---------------------------------------------------------------------------
# Hessian normal form at the axis critical points
# ---------------------------------------------------------------------------


@value_class
class HessianModel:
    lam: float
    a_matrix: np.ndarray
    b_matrix: np.ndarray
    p_matrix: np.ndarray
    ptap: np.ndarray
    ptbp: np.ndarray
    conjugation_dev: float
    ok: bool


# The parts of the model that do not depend on lam: B, the conjugation P,
# P^T B P and its deviation from the sqrt(3) antidiagonal blocks.
_S3 = math.sqrt(3.0)
_B = np.diag([_S3, _S3, -_S3, -_S3])
_P = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0],
               [-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]) / math.sqrt(2.0)
_PTBP = _P.T @ _B @ _P
_B_DEV = float(np.abs(_PTBP - np.kron(np.eye(2), [[0.0, _S3], [_S3, 0.0]])).max()) / _S3
_B.flags.writeable = _P.flags.writeable = _PTBP.flags.writeable = False  # shared by every model


def hessian_model(p: int, a: float) -> HessianModel:
    """The quadratic model at an axis critical point with local exponent p:
    real and imaginary Hessians A, B in the adapted chart, and the
    orthogonal conjugation splitting A into diag(lam-1, -lam-1) pairs and
    B into sqrt(3) antidiagonal blocks; the split is re-verified to
    relative 1e-12."""
    if p < 2:
        raise ValueError("exponent must be >= 2")
    lam = (2.0 / p) * a ** ((2 * p - 3) / p)
    if not lam > 1.0:
        raise AdmissibilityError("model requires lam > 1; enlarge a")
    A = np.array(
        [
            [-1.0, 0.0, -lam, 0.0],
            [0.0, -1.0, 0.0, lam],
            [-lam, 0.0, -1.0, 0.0],
            [0.0, lam, 0.0, -1.0],
        ]
    )
    ptap = _P.T @ A @ _P
    target_a = np.diag([lam - 1.0, -lam - 1.0, lam - 1.0, -lam - 1.0])
    dev = max(float(np.abs(ptap - target_a).max()) / (lam + 1.0), _B_DEV)
    return HessianModel(lam, A, _B, _P, ptap, _PTBP, dev, bool(dev <= 1e-12))


def _rounding_floor(params: FibrationParams, pts: np.ndarray) -> np.ndarray:
    """A bound, per row of pts, on the residual |ft - tau| that a Newton
    iteration in one coordinate can be sure to reach in doubles:
    8 (N + 3) eps M, with N the largest exponent, eps = 2^-53 and
    M = sum_k |u_k^{n_k}| + |a x y z| the size of the summed terms.

    ft is a sum of the monomials and a x y z, each with a weight in [0, 1].
    A complex product or sum in doubles has a relative error below 3 eps
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.6), so to
    first order in eps: the binary powering of u^n (at most 2 log2 n <= 2N
    products) errs by 6 N eps |u^n|, a x y z (three products) by
    9 eps |a x y z|, the four sums of f by 4 eps M, and at 0 < t the
    products phi u^n, the sums of h and the weighting (1 - t) f + t h
    by 11 eps M more.  So the computed value is off by at most
    (6 N + 24) eps M.  The iterate is itself a double: its axial coordinate
    u is fixed only to eps |u|, which moves ft by up to eps |u dft/du|
    <= N eps M.  A row whose residual is below 8 (N + 3) eps M is thus on
    the level to within what doubles resolve there, and Newton steps may
    move it around inside that floor without end."""
    size = _row_sum(np.abs(pts ** _exponents(params))) + np.abs(_axyz(params, pts))
    return 8 * (params.big_m + 3) * 2.0**-53 * size


def _solve_axial(
    params: FibrationParams, axis: int, transverse: np.ndarray, seed: complex
) -> np.ndarray:
    """1D Newton for the axial coordinate on the level set, from the seed,
    for each row of transverse chart coordinates (n, 2); valid in the
    chart region where the bump factor of the axis is identically 1.
    Returns the (n, 3) points.

    A row stops at its first iterate within 1e-15 |tau|.  That is below
    what doubles resolve at some rows, so a row still moving after the 60
    steps is accepted when its residual is within ``_rounding_floor``; any
    other row raises ProjectionError."""
    order = _CHART_ORDER[axis]
    tau = params.target
    pts = np.empty((len(transverse), 3), dtype=complex)
    pts[:, order[0]] = seed
    pts[:, order[1:]] = transverse

    def step(rows, res, grad):
        rows[:, axis] -= res / grad[:, axis]
        return rows, None

    stalled = (_newton(params, pts, tau, 1e-15 * abs(tau), 60, step) != _CONVERGED).nonzero()[0]
    if stalled.size:
        rows = pts.take(stalled, axis=0)
        if not (np.abs(_ft_pass(params, rows)[0] - tau) <= _rounding_floor(params, rows)).all():
            raise ProjectionError("axial Newton did not converge")
    return pts


_UPPER = np.triu_indices(4, 1)  # the entries above the diagonal of a 4x4 matrix
# Offsets of the central second differences in R^4, in steps: the origin,
# +-e_i for each i, then e_i+e_j, e_i-e_j, -e_i+e_j, -e_i-e_j for each i < j.
_STENCIL = np.array(
    [np.zeros(4)]
    + [s * e for e in np.eye(4) for s in (1.0, -1.0)]
    + [si * np.eye(4)[i] + sj * np.eye(4)[j] for i, j in zip(*_UPPER)
       for si, sj in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))]
)


def _fd_hessian(values: np.ndarray, delta: float) -> np.ndarray:
    """4x4 Hessian from the values on delta * _STENCIL."""
    g0 = values[0]
    h = np.diag((values[1:9:2] - 2.0 * g0 + values[2:9:2]) / delta**2)
    corners = values[9:].reshape(6, 4)
    h[_UPPER] = h[_UPPER[::-1]] = (
        corners[:, 0] - corners[:, 1] - corners[:, 2] + corners[:, 3]
    ) / (4.0 * delta**2)
    return h


@value_class
class HessianReport:
    axis: int
    exponent: int
    lam_model: float
    lam_measured: float
    center_rel_err: float
    a_rel_err: float
    b_rel_err: float
    residual_rel: float
    a_fd: np.ndarray
    b_fd: np.ndarray
    matches: bool

    def to_json(self) -> dict:
        return _fields(self, "a_fd", "b_fd")


def hessian_fd_check(
    params: FibrationParams,
    pt: C3Point,
    config: NumericalConfig = NumericalConfig(),
    rel_tol: float = 1e-3,
) -> HessianReport:
    """Finite-difference 2-jet of g restricted to X_t in the adapted chart
    at an axis critical point, compared against the model Hessians.

    The chart takes the two transverse coordinates (v, w), the w-direction
    carrying the phase that absorbs the center's argument, and solves the
    axial coordinate back onto the level set; second differences of g then
    estimate the real and imaginary Hessians, compared after removing the
    cube-root-of-unity factor attached to the critical family.

    Two step sizes are used.  The real part carries the entry -lam, whose
    fourth-order contamination grows like lam^2 * step^2, so its step
    shrinks with lam; the derotated imaginary part is exact in the
    transverse coordinates and only fights rounding noise, so it keeps the
    larger step, 1e-4 of the center's modulus.
    """
    pt = np.asarray(pt, dtype=complex)
    axis = int(np.argmax(np.abs(pt)))
    n = (params.p, params.q, params.r)[axis]
    tau = params.target
    residual = abs(ft_eval(params, pt) - tau) / abs(tau)

    u0 = complex(pt[axis])
    au0 = abs(u0)
    c_w = u0 ** (n - 2) / (np.conj(u0) * au0 ** (n - 3))
    model = hessian_model(n, params.a)
    center_expected = _OMEGA**axis * params.a ** (-2.0 / n)

    delta_a = min(1e-4, 0.02 / math.sqrt(model.lam)) * au0
    delta_b = 1e-4 * au0
    # Chart coordinates (v, w / c_w) of both stencils, one axial solve.
    transverse = np.concatenate([delta_a * _STENCIL, delta_b * _STENCIL]).view(complex)
    transverse[:, 1] *= c_w
    values = g_eval(_solve_axial(params, axis, transverse, u0))
    g0 = values[0]
    a_fd = (_fd_hessian(values[:33], delta_a) * _OMEGA ** (-axis)).real
    b_fd = (_fd_hessian(values[33:], delta_b) * _OMEGA ** (-axis)).imag

    a_err = float(np.abs(a_fd - model.a_matrix).max()) / float(np.abs(model.a_matrix).max())
    b_err = float(np.abs(b_fd - model.b_matrix).max()) / _S3
    lam_measured = -float(a_fd[0, 2])
    lam_err = abs(lam_measured - model.lam) / model.lam
    center_err = abs(g0 - center_expected) / abs(center_expected)
    matches = bool(
        residual < config.residual_tol
        and center_err < 1e-6
        and a_err < rel_tol
        and b_err < rel_tol
        and lam_err < rel_tol
    )
    return HessianReport(
        axis=axis,
        exponent=n,
        lam_model=model.lam,
        lam_measured=lam_measured,
        center_rel_err=center_err,
        a_rel_err=a_err,
        b_rel_err=b_err,
        residual_rel=float(residual),
        a_fd=a_fd,
        b_fd=b_fd,
        matches=matches,
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _torus_seeds(params: FibrationParams, phases: np.ndarray) -> np.ndarray:
    """Points of the regular torus |x| = |y| = |z| = a^(-2/3) with
    arg(xyz) = theta, from the phases (n, 2) of x and y."""
    c = params.a ** (-2.0 / 3.0)
    last = params.theta - phases[:, 0] - phases[:, 1]
    return c * np.exp(1j * np.column_stack([phases, last]))


def _draw_per_seed(rng: np.random.Generator, count: int, choices: int, low, high):
    """For each of count seeds in turn: an index below choices, then one
    uniform in [low[k], high[k]) for each k; the stream and the final state
    of rng are those of rng.integers(choices), rng.random(len(low)) per
    seed, replayed from raw PCG64 words.  A 32-bit draw is the high half
    cached by the previous one, or else the low half of a new word; the
    index is (u32 * choices) >> 32 (Lemire), a double (word >> 11) 2^-53."""
    bits = rng.bit_generator
    saved = bits.state
    cached, width = saved["has_uint32"], len(low)
    fresh = (np.arange(count) + cached) % 2 == 0  # seeds whose index takes a new word
    sizes = width + fresh
    words = bits.random_raw(int(sizes.sum()))
    is_index = np.zeros(len(words), dtype=bool)
    is_index[(np.cumsum(sizes) - sizes)[fresh]] = True
    # The cached half-word, then the low and high halves of each index word.
    halves = np.empty(1 + 2 * np.count_nonzero(fresh), dtype=np.uint64)
    halves[0] = saved["uinteger"]
    halves[1::2] = words[is_index] & np.uint64(0xFFFFFFFF)
    halves[2::2] = words[is_index] >> np.uint64(32)
    first = 1 - cached
    scaled = halves[first:first + count] * np.uint64(choices)
    unit = (words[~is_index].reshape(count, width) >> np.uint64(11)) * 2.0**-53
    if choices < 2 or (scaled & np.uint64(0xFFFFFFFF) < (2**32 - choices) % choices).any():
        # Lemire's method draws again (or, for one choice, draws nothing):
        # replay with the generator's own calls.
        bits.state = saved
        picks = np.empty(count, dtype=int)
        for i in range(count):
            picks[i] = rng.integers(choices)
            unit[i] = rng.random(width)
    else:
        picks = (scaled >> np.uint64(32)).astype(int)
        bits.state = {**bits.state, "has_uint32": len(halves) - first - count,
                      "uinteger": int(halves[-1])}
    low = np.asarray(low)
    return picks, low + (np.asarray(high) - low) * unit


def _shell_seeds(
    params: FibrationParams, crits: np.ndarray, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Points near the critical points, transverse radius covering the bump
    transition region.  Per seed: the critical point, the transverse
    radius relative to it, two phases, the split between the transverse
    coordinates and the relative stretch of the axial one."""
    picks, draws = _draw_per_seed(
        rng, count, len(crits),
        (0.02, 0.0, 0.0, 0.0, -0.05), (0.48, 2 * math.pi, 2 * math.pi, math.pi / 2, 0.05),
    )
    eta, ph1, ph2, split, stretch = draws.T
    crit = crits[picks]
    rows = np.arange(count)
    axis = np.argmax(np.abs(crit), axis=-1)
    center = crit[rows, axis]
    others = _OTHERS[axis]
    out = np.zeros((count, 3), dtype=complex)
    out[rows, axis] = center * (1.0 + stretch)
    out[rows, others[:, 0]] = eta * np.abs(center) * np.cos(split) * np.exp(1j * ph1)
    out[rows, others[:, 1]] = eta * np.abs(center) * np.sin(split) * np.exp(1j * ph2)
    return out


def _sample_seeds(params: FibrationParams, config: NumericalConfig) -> np.ndarray:
    """The seeds of ``sample_on_level``: samples // 2 on the regular torus,
    then the rest on shells around the critical points, all drawn from
    default_rng(config.seed)."""
    rng = np.random.default_rng(config.seed)
    crits = critical_points(params)
    n_torus = config.samples // 2
    return np.concatenate([
        _torus_seeds(params, rng.uniform(0.0, 2.0 * math.pi, size=(n_torus, 2))),
        _shell_seeds(params, crits, rng, config.samples - n_torus),
    ])


def _defect_seeds(params: FibrationParams, config: NumericalConfig) -> np.ndarray:
    """The seeds of the default points of ``lagrangian_defect``:
    max(10, samples // 10) points near the regular torus, drawn from their
    own default_rng(config.seed)."""
    rng = np.random.default_rng(config.seed)
    phases, noise = _defect_draws(rng, max(10, config.samples // 10))
    return _torus_seeds(params, phases) * (1.0 + 0.05 * noise)


def _level_stack(params: FibrationParams, config: NumericalConfig):
    """At t = 1, where ``verify_fibration`` runs both the inequality audit
    and the Lagrangian defect: the seeds of both projected in one Newton
    stack, and ft's Wirtinger pair at the projected points from one kernel
    pass.  Rows do not interact, so each row keeps the bits it has when its
    own side is projected alone.

    Returns, for the audit and then for the defect, (points, holo, anti,
    error): error is the ProjectionError message of that side's own rows,
    or None; a side with an error has no gradients.  The result is kept on
    params for the last config asked for, read-only; whichever caller
    comes first computes it, failed rows included, so a failure on one
    side leaves the other's result in place."""
    memo = vars(params).get("_level_memo")
    if memo is not None and memo[0] == config:
        return memo[1]
    audit, defect = _sample_seeds(params, config), _defect_seeds(params, config)
    pts, outcome = _project(params, np.concatenate([audit, defect]), config, _PROJECTION_STEPS)
    n = len(audit)
    errors = [_projection_error(o, _PROJECTION_STEPS) for o in (outcome[:n], outcome[n:])]
    ok = np.repeat([errors[0] is None, errors[1] is None], [n, len(pts) - n])
    holo, anti = _ft_pass(params, pts[ok])[1](anti=True)
    cut = n if errors[0] is None else 0  # where the defect's rows start in the pass
    for a in (pts, holo, anti):
        a.flags.writeable = False
    sides = ((pts[:n], holo[:cut], anti[:cut], errors[0]),
             (pts[n:], holo[cut:], anti[cut:], errors[1]))
    vars(params)["_level_memo"] = (config, sides)
    return sides


def _projected(side):
    """(points, holo, anti) of one side of ``_level_stack``, or its
    ProjectionError."""
    points, holo, anti, error = side
    if error is not None:
        raise ProjectionError(error)
    return points, holo, anti


def sample_on_level(
    params: FibrationParams, config: NumericalConfig = NumericalConfig()
) -> np.ndarray:
    """Sample points of X_t, as a (samples, 3) stack: seeds on the regular
    torus and on transverse shells around each critical point,
    Newton-projected onto the level.  At t = 1 they are projected together
    with the default points of ``lagrangian_defect``."""
    params.check()
    if params.t == 1.0:
        return _projected(_level_stack(params, config)[0])[0].copy()
    return project_to_level(params, _sample_seeds(params, config), config=config)


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------


@value_class
class InequalityAudit:
    samples: int
    min_margin: float
    min_margin_point: Optional[tuple[complex, complex, complex]]
    antigrad_active: int
    coordinate_bound_ok: bool
    violations: int
    precondition_error: Optional[str]
    precision_note: Optional[str] = None

    @property
    def passed(self) -> bool:
        return (
            self.precondition_error is None
            and self.violations == 0
            and self.min_margin > 0.0
            and self.coordinate_bound_ok
        )

    def to_json(self) -> dict:
        return {**_fields(self, "min_margin_point"), "passed": self.passed}


def symplectic_inequality_audit(
    params: FibrationParams, config: NumericalConfig = NumericalConfig()
) -> InequalityAudit:
    """On sampled points of X_t: the holomorphic gradient must dominate
    the antiholomorphic one, and every point must have a coordinate larger
    than m/a."""
    try:
        params.check()
    except AdmissibilityError as exc:
        return InequalityAudit(0, math.nan, None, 0, False, 0, str(exc))
    pts = sample_on_level(params, config)
    if params.t == 1.0:
        _, holo, anti, _ = _level_stack(params, config)[0]
    else:
        holo, anti = _ft_pass(params, pts)[1](anti=True)
    anti = _row_norm(anti)
    margin = _row_norm(holo) - anti
    worst = int(margin.argmin())  # the first of equal minima
    mod = np.abs(pts)
    largest = np.maximum(np.maximum(mod[:, 0], mod[:, 1]), mod[:, 2])
    coord_ok = bool((largest > params.m / params.a).all())
    note = None if params.precision_reviewed else "index above 9: review precision"
    return InequalityAudit(
        len(pts),
        float(margin[worst]),
        tuple(complex(c) for c in pts[worst]),
        int(np.count_nonzero(anti > 0.0)),
        coord_ok,
        int(np.count_nonzero(margin <= 0.0)),
        None,
        note,
    )


@value_class
class DefectReport:
    samples: int  # the points used
    max_defect: float
    lagrangian_expected: bool
    tolerance: float
    tried: int  # the points given; kept out of to_json

    @property
    def passed(self) -> bool:
        """Needs at least half of the points tried to be used, so at least
        one: a defect over the few points the skip rule left says little
        about the fibers, and one over no point would pass vacuously."""
        return self.samples > 0 and 2 * self.samples >= self.tried and (
            (not self.lagrangian_expected) or self.max_defect < self.tolerance
        )

    def to_json(self) -> dict:
        return {**_fields(self, "tried"), "passed": self.passed}


def _defect_draws(rng: np.random.Generator, count: int):
    """Phases (count, 2) and complex noise (count, 3) of count seeds, each
    from rng.random(2) and then rng.standard_normal(6), drawn in place."""
    unit, z = np.empty((count, 2)), np.empty((count, 6))
    for u, normal in zip(unit, z):
        rng.random(out=u)
        rng.standard_normal(out=normal)
    return 2.0 * math.pi * unit, z[:, :3] + 1j * z[:, 3:]


def lagrangian_defect(
    params: FibrationParams,
    points: Optional[Sequence[C3Point]] = None,
    config: NumericalConfig = NumericalConfig(),
    tolerance: float = 1e-6,
) -> DefectReport:
    """Evaluate the symplectic form on the numerically-computed tangent
    planes of the fibers of g on X_t at the given points (default: sampled
    near the regular torus; at t = 1 projected together with the samples
    of the inequality audit), away from the axes.

    At t = 1 the fibers are Lagrangian and the defect must vanish to
    tolerance; at t < 1 the report is informational - the defect is a
    genuine obstruction there, and at t = 0 it is visibly nonzero on
    unit-scale points of the holomorphic hypersurface.
    """
    params.check()
    if points is None and params.t == 1.0:
        pts, holo, anti = _projected(_level_stack(params, config)[1])
    else:
        if points is None:
            points = project_to_level(params, _defect_seeds(params, config), config=config)
        pts = np.asarray(points, dtype=complex).reshape(-1, 3)
        holo = anti = None
    if (np.abs(pts) == 0.0).any():
        raise ValueError("fiber tangent planes are not defined on the axes")
    if holo is None:
        holo, anti = _ft_pass(params, pts)[1](anti=True)
    jg = g_real_jacobian(pts)
    _, svals, vh = np.linalg.svd(
        np.concatenate([_real_jacobian(holo, anti), jg], axis=-2), full_matrices=True
    )
    # Points too close to a singular fiber for a clean kernel are skipped:
    # there the fourth singular value vanishes against the size of g's own
    # differential (their ratio is 1/sqrt(2) on the regular torus).  The ft
    # rows grow with a, so their scale says nothing about that nearness.
    used = ~(svals[:, 3] < 1e-9 * np.linalg.norm(jg, axis=(-2, -1)))
    defect = np.abs(_omega0(vh[used, 4], vh[used, 5]))
    return DefectReport(
        samples=int(np.count_nonzero(used)),
        max_defect=float(defect.max(initial=0.0)),
        lagrangian_expected=bool(params.t == 1.0),
        tolerance=tolerance,
        tried=len(pts),
    )


@value_class
class DomainYAudit:
    critical_values_inside: bool
    max_critical_value: float
    samples: int
    boundary_xyz_bound_ok: bool
    chain_bound_ok: bool
    vertex_checks_ok: bool
    precondition_error: Optional[str]

    @property
    def passed(self) -> bool:
        return (
            self.precondition_error is None
            and self.critical_values_inside
            and self.boundary_xyz_bound_ok
            and self.chain_bound_ok
            and self.vertex_checks_ok
        )

    def to_json(self) -> dict:
        return {**_fields(self), "passed": self.passed}


def _triangle_boundary_distance(w, radius: float):
    """Distance from w to the boundary of the triangle with vertices
    radius * cube roots of unity."""
    verts = radius * _G_WEIGHTS
    best = np.inf
    for a, b in zip(verts, np.roll(verts, -1)):
        ab = b - a
        s = np.clip(((w - a) * np.conj(ab)).real / abs(ab) ** 2, 0.0, 1.0)
        best = np.minimum(best, np.abs(w - (a + s * ab)))
    return best


def _half_sphere_boundary_points(
    params: FibrationParams, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Closed-form points of the intersection of X_1 with the radius-1/2
    sphere: two coordinates carry the radius, the third is pinned by
    a*x*y*z = target (all bump factors vanish there).  Per point: the axis
    of the tiny coordinate, the ratio mu of the two large moduli and their
    two phases."""
    tau = params.target
    tiny_axis, draws = _draw_per_seed(
        rng, count, 3, (0.75, 0.0, 0.0), (1.3, 2 * math.pi, 2 * math.pi)
    )
    mu, ph1, ph2 = draws.T
    # solve c with c^2 (mu^2 + mu^-2) + |z|^2 = 1/4, |z| = |tau| / (a c^2)
    spread = mu**2 + mu**-2
    c = np.sqrt(0.25 / spread)
    for _ in range(3):
        tiny = abs(tau) / (params.a * ((c * mu) * (c / mu)))
        c = np.sqrt(np.maximum(0.25 - tiny**2, 0.0) / spread)
    rows = np.arange(count)
    others = _OTHERS[tiny_axis]
    big1 = c * mu * np.exp(1j * ph1)
    big2 = c * (1.0 / mu) * np.exp(1j * ph2)
    out = np.zeros((count, 3), dtype=complex)
    out[rows, others[:, 0]] = big1
    out[rows, others[:, 1]] = big2
    out[rows, tiny_axis] = tau / (params.a * big1 * big2)
    return out


def domain_y_audit(
    params: FibrationParams, config: NumericalConfig = NumericalConfig()
) -> DomainYAudit:
    """Checks the computable ingredients of the domain-shrinking step:
    all critical values of g on X_1 lie strictly inside radius 1/9, and on
    the sphere of radius 1/2 the product |xyz| obeys the chain
    min|.|^3 <= |xyz| < 1/a < 1/(m^2(m+3)) < (1/90)^3, with g exactly on
    the boundary triangle iff a coordinate vanishes."""
    try:
        params.check_domain_y()
    except AdmissibilityError as exc:
        return DomainYAudit(False, math.nan, 0, False, False, False, str(exc))
    if params.t != 1.0:
        raise ValueError("the domain audit concerns the end of the homotopy, t = 1")

    max_cv = max(abs(v) for v in critical_values(params))
    inside = max_cv < 1.0 / 9.0 and params.a ** (-2.0 / params.big_m) < 1.0 / 9.0

    rng = np.random.default_rng(config.seed)
    pts = _half_sphere_boundary_points(params, rng, max(16, config.samples // 10))
    tau = params.target
    prod = np.abs(pts[:, 0] * pts[:, 1] * pts[:, 2])
    xyz_ok = not (
        np.any(np.abs(ft_eval(params, pts) - tau) > 1e-9 * abs(tau))
        or np.any(np.abs(np.linalg.norm(pts, axis=-1) - 0.5) > 1e-9)
        or not np.all((np.min(np.abs(pts), axis=-1) ** 3 <= prod) & (prod < 1.0 / params.a))
    )
    m = params.m
    chain_ok = 1.0 / params.a < 1.0 / (m * m * (m + 3)) < (1.0 / 90.0) ** 3

    # Spot checks for "on the boundary triangle iff some coordinate is 0":
    # a vanishing coordinate lands exactly on the radius-1/4 triangle's
    # boundary, while the sampled points (all coordinates nonzero) sit a
    # distance ~ min|coordinate|^2 inside - far below the stated width
    # 1/4050, which is what is checkable in doubles.
    axis_pt = point(0.5, 0, 0)
    edge_pt = point(math.sqrt(1 / 8), math.sqrt(1 / 8) * 1j, 0)
    vertex_ok = (
        _triangle_boundary_distance(g_eval(axis_pt), 0.25) <= 1e-15
        and _triangle_boundary_distance(g_eval(edge_pt), 0.25) <= 1e-12
        and not np.any(_triangle_boundary_distance(g_eval(pts), 0.25) >= 1.0 / 4050.0)
    )

    return DomainYAudit(
        critical_values_inside=bool(inside),
        max_critical_value=float(max_cv),
        samples=len(pts),
        boundary_xyz_bound_ok=bool(xyz_ok),
        chain_bound_ok=bool(chain_ok),
        vertex_checks_ok=bool(vertex_ok),
        precondition_error=None,
    )


def verify_fibration(
    params: FibrationParams, config: NumericalConfig = NumericalConfig()
) -> dict:
    """The report that ``tpqr verify-fibration --json`` prints: params,
    config, the critical points, the Hessian normal form at the first
    x-axis point and the inequality audit; at t = 1 also the Lagrangian
    defect and, where a admits it, the domain audit.  "passed" requires
    all p+q+r critical points and every stage that ran to pass.

    Raises AdmissibilityError for an inadmissible a, and ProjectionError
    where doubles cannot hold the fiber (large indices or a); numpy's
    floating-point warnings are off, as on the way there they would only
    repeat the ProjectionError."""
    params.check()
    n = params.p + params.q + params.r
    report: dict = {
        "params": {"pqr": [params.p, params.q, params.r], "a": params.a,
                   "theta": params.theta, "t": params.t},
        "config": _fields(config),
    }
    with np.errstate(all="ignore"):
        crits = critical_points(params)
        reps = _critical_reports(params, crits, config)
        crit = report["critical_points"] = {
            "count": len(reps),
            "expected": n,
            "all_ok": all(rep.ok for rep in reps),
            "worst_residual": max(rep.residual_rel for rep in reps),
            "worst_rank_ratio": max(rep.rank_ratio for rep in reps),
            "worst_corank2_ratio": max(rep.corank2_ratio for rep in reps),
        }
        hess = report["hessian_x_axis"] = hessian_fd_check(params, crits[0], config).to_json()
        report["symplectic_inequality"] = symplectic_inequality_audit(params, config).to_json()
        if params.t == 1.0:
            report["lagrangian_defect"] = lagrangian_defect(params, config=config).to_json()
            if params.domain_y_admissible:
                report["domain_y"] = domain_y_audit(params, config).to_json()
    audits = ("symplectic_inequality", "lagrangian_defect", "domain_y")
    report["passed"] = (
        crit["all_ok"]
        and crit["count"] == n
        and hess["matches"]
        and all(report[k]["passed"] for k in audits if k in report)
    )
    return report
