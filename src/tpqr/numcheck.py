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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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
]

C3Point = np.ndarray  # shape (3,), complex128

_OMEGA = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))


class AdmissibilityError(ValueError):
    pass


class ProjectionError(RuntimeError):
    pass


def point(x: complex, y: complex, z: complex) -> C3Point:
    pt = np.array([x, y, z], dtype=complex)
    if not np.all(np.isfinite(pt.view(float))):
        raise ValueError("point components must be finite")
    return pt


@dataclass(frozen=True)
class FibrationParams:
    """Fibration data (p,q,r), deformation parameter a, fiber direction
    theta and homotopy time t.

    Construction validates only structure; the size bounds on a are
    checked by ``check()`` so that deliberately inadmissible parameters
    can still be built and then flagged by the audits.
    """

    p: int
    q: int
    r: int
    a: float
    theta: float = 0.0
    t: float = 1.0

    def __post_init__(self):
        if min(self.p, self.q, self.r) < 2:
            raise ValueError("p, q, r must be >= 2")
        if 1 / self.p + 1 / self.q + 1 / self.r > 1 + 1e-12:
            raise ValueError("need 1/p + 1/q + 1/r <= 1")
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError("a must be positive and finite")
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
        return float(max(12 * self.big_m, self.m**2 * (self.m + 3)))

    @property
    def domain_bound(self) -> float:
        return float(max(3**self.big_m, self.m**2 * (self.m + 3)))

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

    @property
    def target(self) -> complex:
        """The regular value (1/a) e^{i theta} cutting out the fiber X_t."""
        return complex(math.cos(self.theta), math.sin(self.theta)) / self.a

    @classmethod
    def minimal(cls, p: int, q: int, r: int, theta: float = 0.0, t: float = 1.0,
                domain_y: bool = False) -> "FibrationParams":
        """Minimal admissible a + 1 for the requested checks."""
        big_m = max(p, q, r)
        m = 30 * big_m
        bound = max(12 * big_m, m * m * (m + 3))
        if domain_y:
            bound = max(bound, 3**big_m)
        return cls(p, q, r, a=float(bound + 1), theta=theta, t=t)


@dataclass(frozen=True)
class NumericalConfig:
    residual_tol: float = 1e-9  # relative, level-set membership
    rank_tol: float = 1e-6  # singular-value ratio at critical points
    fd_step: float = 1e-6  # gradient checks, relative to point norm
    samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        for v in (self.residual_tol, self.rank_tol, self.fd_step):
            if not v > 0:
                raise ValueError("tolerances must be positive")
        if self.samples <= 0:
            raise ValueError("sample count must be positive")


def parse_config_file(path: str) -> NumericalConfig:
    """key=value per line; unknown keys rejected, '#' comments allowed."""
    kwargs: dict = {}
    casts = {"residual_tol": float, "rank_tol": float, "fd_step": float,
             "samples": int, "seed": int}
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
# Bump function: identically 1 on [0,1/6], identically 0 from 1/2 on,
# derivative within [-3.75, 0].  The transition is a C^2 piecewise
# polynomial whose derivative profile ramps up with a quintic smoothstep
# over the first fifth of the transition, holds a plateau, and ramps down
# symmetrically; the plateau value 1/(1-1/5) scaled by the width 1/3 of
# the transition gives the slope bound 3.75.
# ---------------------------------------------------------------------------

_ALPHA = 0.2
_PLATEAU = 1.0 / (1.0 - _ALPHA)


def _smoothstep(t: float) -> float:
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_integral(t: float) -> float:
    return t * t * t * t * (2.5 + t * (-3.0 + t))


def _profile(u: float) -> float:
    if u <= 0.0 or u >= 1.0:
        return 0.0
    if u < _ALPHA:
        return _PLATEAU * _smoothstep(u / _ALPHA)
    if u > 1.0 - _ALPHA:
        return _PLATEAU * _smoothstep((1.0 - u) / _ALPHA)
    return _PLATEAU


def _profile_integral(u: float) -> float:
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    if u < _ALPHA:
        return _PLATEAU * _ALPHA * _smoothstep_integral(u / _ALPHA)
    if u <= 1.0 - _ALPHA:
        return _PLATEAU * (_ALPHA / 2.0 + (u - _ALPHA))
    return 1.0 - _PLATEAU * _ALPHA * _smoothstep_integral((1.0 - u) / _ALPHA)


def bump(s: float) -> float:
    """1 on [0, 1/6], 0 on [1/2, inf], monotone C^2 in between."""
    if s < 0:
        raise ValueError("bump argument must be >= 0")
    if s <= 1.0 / 6.0:
        return 1.0
    if s >= 0.5:  # also swallows s = inf
        return 0.0
    return 1.0 - _profile_integral(3.0 * (s - 1.0 / 6.0))


def bump_deriv(s: float) -> float:
    if s < 0:
        raise ValueError("bump argument must be >= 0")
    if s <= 1.0 / 6.0 or s >= 0.5:
        return 0.0
    return -3.0 * _profile(3.0 * (s - 1.0 / 6.0))


def _ratios(pt: C3Point) -> tuple[float, float, float]:
    ax, ay, az = (abs(pt[0]), abs(pt[1]), abs(pt[2]))
    if ax == 0.0 and ay == 0.0 and az == 0.0:
        raise ValueError("bump factors are undefined at the origin")

    def ratio(num: float, den: float) -> float:
        return math.inf if den == 0.0 else num / den

    return (
        ratio(math.hypot(ay, az), ax),
        ratio(math.hypot(az, ax), ay),
        ratio(math.hypot(ax, ay), az),
    )


def phi_values(pt: C3Point) -> tuple[float, float, float]:
    """The three radial bump factors; their supports are pairwise disjoint."""
    s1, s2, s3 = _ratios(pt)
    return bump(s1), bump(s2), bump(s3)


def phi_gradients(pt: C3Point) -> np.ndarray:
    """Rows j = holomorphic Wirtinger gradient of the j-th bump factor;
    the antiholomorphic gradients are the complex conjugates."""
    x, y, z = pt
    out = np.zeros((3, 3), dtype=complex)
    s1, s2, s3 = _ratios(pt)
    for j, (s, axis) in enumerate(((s1, 0), (s2, 1), (s3, 2))):
        dphi = bump_deriv(s)
        if dphi == 0.0:
            continue
        u = pt[axis]
        au = abs(u)
        others = [k for k in (0, 1, 2) if k != axis]
        rho = math.hypot(abs(pt[others[0]]), abs(pt[others[1]]))
        # d(rho/|u|)/du = -rho conj(u) / (2|u|^3); d/dv = conj(v)/(2|u| rho)
        out[j, axis] = -dphi * rho / (2.0 * au * au) * (np.conj(u) / au)
        for k in others:
            out[j, k] = dphi * np.conj(pt[k]) / (2.0 * au * rho)
    return out


def f_eval(params: FibrationParams, pt: C3Point) -> complex:
    x, y, z = pt
    return x**params.p + y**params.q + z**params.r + params.a * x * y * z


def f_grad(params: FibrationParams, pt: C3Point) -> np.ndarray:
    x, y, z = pt
    a = params.a
    return np.array(
        [
            params.p * x ** (params.p - 1) + a * y * z,
            params.q * y ** (params.q - 1) + a * z * x,
            params.r * z ** (params.r - 1) + a * x * y,
        ],
        dtype=complex,
    )


def h_eval(params: FibrationParams, pt: C3Point) -> complex:
    ph = phi_values(pt)
    x, y, z = pt
    return (
        ph[0] * x**params.p
        + ph[1] * y**params.q
        + ph[2] * z**params.r
        + params.a * x * y * z
    )


def ft_eval(params: FibrationParams, pt: C3Point) -> complex:
    t = params.t
    if t == 0.0:
        _ratios(pt)  # keep the domain of the whole family uniform
        return f_eval(params, pt)
    return (1.0 - t) * f_eval(params, pt) + t * h_eval(params, pt)


def _monomials(params: FibrationParams, pt: C3Point) -> np.ndarray:
    x, y, z = pt
    return np.array([x**params.p, y**params.q, z**params.r], dtype=complex)


def ft_grad(params: FibrationParams, pt: C3Point) -> np.ndarray:
    x, y, z = pt
    t = params.t
    a = params.a
    ph = phi_values(pt)
    weights = [1.0 - t + t * ph[j] for j in range(3)]
    grad = np.array(
        [
            weights[0] * params.p * x ** (params.p - 1) + a * y * z,
            weights[1] * params.q * y ** (params.q - 1) + a * z * x,
            weights[2] * params.r * z ** (params.r - 1) + a * x * y,
        ],
        dtype=complex,
    )
    if t != 0.0:
        mono = _monomials(params, pt)
        grad = grad + t * (phi_gradients(pt).T @ mono)
    return grad


def ft_antigrad(params: FibrationParams, pt: C3Point) -> np.ndarray:
    t = params.t
    if t == 0.0:
        _ratios(pt)
        return np.zeros(3, dtype=complex)
    mono = _monomials(params, pt)
    return t * (np.conj(phi_gradients(pt)).T @ mono)


def g_eval(pt: C3Point) -> complex:
    x, y, z = pt
    return abs(x) ** 2 + _OMEGA * abs(y) ** 2 + _OMEGA**2 * abs(z) ** 2


def _g_wirtinger(pt: C3Point) -> tuple[np.ndarray, np.ndarray]:
    x, y, z = pt
    holo = np.array([np.conj(x), _OMEGA * np.conj(y), _OMEGA**2 * np.conj(z)])
    anti = np.array([x, _OMEGA * y, _OMEGA**2 * z])
    return holo, anti


def _real_jacobian(holo: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """2x6 real Jacobian of a complex function from its Wirtinger pair,
    coordinates ordered (Re x, Im x, Re y, Im y, Re z, Im z)."""
    jac = np.zeros((2, 6))
    for j in range(3):
        dx = holo[j] + anti[j]
        dy = 1j * (holo[j] - anti[j])
        jac[0, 2 * j] = dx.real
        jac[0, 2 * j + 1] = dy.real
        jac[1, 2 * j] = dx.imag
        jac[1, 2 * j + 1] = dy.imag
    return jac


def ft_real_jacobian(params: FibrationParams, pt: C3Point) -> np.ndarray:
    return _real_jacobian(ft_grad(params, pt), ft_antigrad(params, pt))


def g_real_jacobian(pt: C3Point) -> np.ndarray:
    return _real_jacobian(*_g_wirtinger(pt))


def _omega0(u: np.ndarray, v: np.ndarray) -> float:
    """Standard symplectic form on R^6 = C^3 in (Re, Im)-interleaved
    coordinates."""
    total = 0.0
    for j in range(3):
        total += u[2 * j] * v[2 * j + 1] - u[2 * j + 1] * v[2 * j]
    return total


def project_to_level(
    params: FibrationParams,
    pt: C3Point,
    target: complex | None = None,
    config: NumericalConfig = NumericalConfig(),
    max_iter: int = 50,
) -> C3Point:
    """Newton step along the holomorphic gradient until the map value
    reaches the target within the relative residual tolerance."""
    tau = params.target if target is None else target
    scale = max(abs(tau), 1e-300)
    cur = np.array(pt, dtype=complex)
    for _ in range(max_iter):
        res = ft_eval(params, cur) - tau
        if abs(res) <= config.residual_tol * scale:
            return cur
        grad = ft_grad(params, cur)
        norm2 = float(np.vdot(grad, grad).real)
        if norm2 == 0.0:
            raise ProjectionError("vanishing gradient during projection")
        cur = cur - res * np.conj(grad) / norm2
    raise ProjectionError(f"no convergence after {max_iter} iterations")


# ---------------------------------------------------------------------------
# Critical points
# ---------------------------------------------------------------------------


def critical_points(params: FibrationParams) -> list[C3Point]:
    """The p+q+r closed-form critical points of g restricted to X_t, on
    the three coordinate axes."""
    params.check()
    out = []
    for axis, n in ((0, params.p), (1, params.q), (2, params.r)):
        radius = params.a ** (-1.0 / n)
        for j in range(n):
            coords = [0j, 0j, 0j]
            coords[axis] = radius * np.exp(1j * (params.theta + 2 * math.pi * j) / n)
            out.append(point(*coords))
    return out


def critical_values(params: FibrationParams) -> list[complex]:
    """Images under g of the three critical families."""
    return [
        params.a ** (-2.0 / params.p) + 0j,
        _OMEGA * params.a ** (-2.0 / params.q),
        _OMEGA**2 * params.a ** (-2.0 / params.r),
    ]


@dataclass(frozen=True)
class CriticalPointReport:
    point: tuple[complex, complex, complex]
    residual_rel: float
    rank_ratio: float
    corank2_ratio: float
    residual_ok: bool
    rank_ok: bool

    @property
    def ok(self) -> bool:
        return self.residual_ok and self.rank_ok

    def to_json(self) -> dict:
        return {
            "point": [[c.real, c.imag] for c in self.point],
            "residual_rel": self.residual_rel,
            "rank_ratio": self.rank_ratio,
            "corank2_ratio": self.corank2_ratio,
            "ok": self.ok,
        }


def verify_critical_point(
    params: FibrationParams, pt: C3Point, config: NumericalConfig = NumericalConfig()
) -> CriticalPointReport:
    """Checks level-set membership and rank deficiency of the restricted
    differential of g.

    The tangent space of X_t is the numerical kernel of the 2x6 real
    Jacobian of the defining map; the reduced 2x4 Jacobian of g on it must
    be singular, measured against the largest singular value of the
    ambient Jacobian of g.
    """
    tau = params.target
    residual = abs(ft_eval(params, pt) - tau) / abs(tau)
    jf = ft_real_jacobian(params, pt)
    _, _, vh = np.linalg.svd(jf, full_matrices=True)
    tangent = vh[2:].T  # 6x4 orthonormal kernel basis
    jg = g_real_jacobian(pt)
    reduced = jg @ tangent
    svals = np.linalg.svd(reduced, compute_uv=False)
    ambient = float(np.linalg.svd(jg, compute_uv=False)[0])
    rank_ratio = float(svals[-1] / ambient)
    corank2_ratio = float(svals[0] / ambient)
    return CriticalPointReport(
        point=(complex(pt[0]), complex(pt[1]), complex(pt[2])),
        residual_rel=float(residual),
        rank_ratio=rank_ratio,
        corank2_ratio=corank2_ratio,
        residual_ok=bool(residual < config.residual_tol),
        rank_ok=bool(rank_ratio < config.rank_tol),
    )


def verify_critical_points(
    params: FibrationParams, config: NumericalConfig = NumericalConfig()
) -> list[CriticalPointReport]:
    params.check()
    return [verify_critical_point(params, pt, config) for pt in critical_points(params)]


# ---------------------------------------------------------------------------
# Hessian normal form at the axis critical points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HessianModel:
    lam: float
    a_matrix: np.ndarray
    b_matrix: np.ndarray
    p_matrix: np.ndarray
    ptap: np.ndarray
    ptbp: np.ndarray
    conjugation_dev: float
    ok: bool


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
    s3 = math.sqrt(3.0)
    B = np.diag([s3, s3, -s3, -s3])
    P = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
        ]
    ) / math.sqrt(2.0)
    ptap = P.T @ A @ P
    ptbp = P.T @ B @ P
    target_a = np.diag([lam - 1.0, -lam - 1.0, lam - 1.0, -lam - 1.0])
    target_b = np.zeros((4, 4))
    target_b[0, 1] = target_b[1, 0] = s3
    target_b[2, 3] = target_b[3, 2] = s3
    dev = max(
        float(np.max(np.abs(ptap - target_a))) / (lam + 1.0),
        float(np.max(np.abs(ptbp - target_b))) / s3,
    )
    return HessianModel(lam, A, B, P, ptap, ptbp, dev, bool(dev <= 1e-12))


_CHART_ORDER = {0: (0, 1, 2), 1: (1, 2, 0), 2: (2, 0, 1)}


def _solve_axial(
    params: FibrationParams, axis: int, transverse: tuple[complex, complex],
    seed: complex
) -> complex:
    """1D Newton for the axial coordinate on the level set; valid in the
    chart region where the bump factor of the axis is identically 1."""
    n = (params.p, params.q, params.r)[axis]
    order = _CHART_ORDER[axis]
    tau = params.target
    u = seed
    for _ in range(60):
        coords = [0j, 0j, 0j]
        coords[order[0]] = u
        coords[order[1]] = transverse[0]
        coords[order[2]] = transverse[1]
        pt = np.array(coords, dtype=complex)
        res = ft_eval(params, pt) - tau
        if abs(res) <= 1e-15 * abs(tau):
            return u
        dres = ft_grad(params, pt)[order[0]]
        u = u - res / dres
    raise ProjectionError("axial Newton did not converge")


@dataclass(frozen=True)
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
        return {
            "axis": self.axis,
            "exponent": self.exponent,
            "lam_model": self.lam_model,
            "lam_measured": self.lam_measured,
            "center_rel_err": self.center_rel_err,
            "a_rel_err": self.a_rel_err,
            "b_rel_err": self.b_rel_err,
            "residual_rel": self.residual_rel,
            "matches": self.matches,
        }


def hessian_fd_check(
    params: FibrationParams,
    pt: C3Point,
    config: NumericalConfig = NumericalConfig(),
    rel_tol: float = 1e-3,
    step_rel: float = 1e-4,
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
    larger step.
    """
    pt = np.asarray(pt, dtype=complex)
    axis = int(np.argmax(np.abs(pt)))
    n = (params.p, params.q, params.r)[axis]
    order = _CHART_ORDER[axis]
    tau = params.target
    residual = abs(ft_eval(params, pt) - tau) / abs(tau)

    u0 = complex(pt[axis])
    au0 = abs(u0)
    c_w = u0 ** (n - 2) / (np.conj(u0) * au0 ** (n - 3))
    model = hessian_model(n, params.a)
    center_expected = _OMEGA**axis * params.a ** (-2.0 / n)

    def g_chart(vw: np.ndarray) -> complex:
        v = complex(vw[0], vw[1])
        w = complex(vw[2], vw[3]) * c_w
        u = _solve_axial(params, axis, (v, w), u0)
        coords = [0j, 0j, 0j]
        coords[order[0]] = u
        coords[order[1]] = v
        coords[order[2]] = w
        return g_eval(np.array(coords, dtype=complex))

    def fd_hessian(delta: float) -> np.ndarray:
        h = np.zeros((4, 4), dtype=complex)
        g0 = g_chart(np.zeros(4))
        for i in range(4):
            ei = np.zeros(4)
            ei[i] = delta
            h[i, i] = (g_chart(ei) - 2.0 * g0 + g_chart(-ei)) / delta**2
            for j in range(i + 1, 4):
                ej = np.zeros(4)
                ej[j] = delta
                val = (
                    g_chart(ei + ej)
                    - g_chart(ei - ej)
                    - g_chart(-ei + ej)
                    + g_chart(-ei - ej)
                ) / (4.0 * delta**2)
                h[i, j] = h[j, i] = val
        return h

    g0 = g_chart(np.zeros(4))
    delta_a = min(step_rel, 0.02 / math.sqrt(model.lam)) * au0
    delta_b = step_rel * au0
    a_fd = (fd_hessian(delta_a) * _OMEGA ** (-axis)).real
    b_fd = (fd_hessian(delta_b) * _OMEGA ** (-axis)).imag

    a_scale = float(np.max(np.abs(model.a_matrix)))
    b_scale = math.sqrt(3.0)
    a_err = float(np.max(np.abs(a_fd - model.a_matrix))) / a_scale
    b_err = float(np.max(np.abs(b_fd - model.b_matrix))) / b_scale
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


def _torus_seed(params: FibrationParams, rng: np.random.Generator) -> C3Point:
    c = params.a ** (-2.0 / 3.0)
    ph1, ph2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    ph3 = params.theta - ph1 - ph2
    return point(c * np.exp(1j * ph1), c * np.exp(1j * ph2), c * np.exp(1j * ph3))


def _shell_seed(
    params: FibrationParams, crit: C3Point, rng: np.random.Generator
) -> C3Point:
    """Point near a critical point, transverse radius covering the bump
    transition region."""
    axis = int(np.argmax(np.abs(crit)))
    scale = abs(crit[axis])
    eta = rng.uniform(0.02, 0.48)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
    split = rng.uniform(0.0, math.pi / 2.0)
    others = [k for k in (0, 1, 2) if k != axis]
    coords = [0j, 0j, 0j]
    coords[axis] = crit[axis] * (1.0 + rng.uniform(-0.05, 0.05))
    coords[others[0]] = eta * scale * math.cos(split) * np.exp(1j * phases[0])
    coords[others[1]] = eta * scale * math.sin(split) * np.exp(1j * phases[1])
    return point(*coords)


def sample_on_level(
    params: FibrationParams, config: NumericalConfig = NumericalConfig()
) -> list[C3Point]:
    """Sample points of X_t: seeds on the regular torus and on transverse
    shells around each critical point, Newton-projected onto the level."""
    params.check()
    rng = np.random.default_rng(config.seed)
    crits = critical_points(params)
    out: list[C3Point] = []
    n_torus = config.samples // 2
    for _ in range(n_torus):
        out.append(project_to_level(params, _torus_seed(params, rng), config=config))
    while len(out) < config.samples:
        crit = crits[rng.integers(len(crits))]
        out.append(
            project_to_level(params, _shell_seed(params, crit, rng), config=config)
        )
    return out


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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
        return {
            "samples": self.samples,
            "min_margin": self.min_margin,
            "antigrad_active": self.antigrad_active,
            "coordinate_bound_ok": self.coordinate_bound_ok,
            "violations": self.violations,
            "precondition_error": self.precondition_error,
            "passed": self.passed,
        }


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
    floor = params.m / params.a
    min_margin = math.inf
    argmin = None
    active = 0
    violations = 0
    coord_ok = True
    for pt in pts:
        margin = float(
            np.linalg.norm(ft_grad(params, pt))
            - np.linalg.norm(ft_antigrad(params, pt))
        )
        if np.linalg.norm(ft_antigrad(params, pt)) > 0.0:
            active += 1
        if margin <= 0.0:
            violations += 1
        if margin < min_margin:
            min_margin = margin
            argmin = (complex(pt[0]), complex(pt[1]), complex(pt[2]))
        if not float(np.max(np.abs(pt))) > floor:
            coord_ok = False
    note = None if params.precision_reviewed else "index above 9: review precision"
    return InequalityAudit(
        len(pts), min_margin, argmin, active, coord_ok, violations, None, note
    )


@dataclass(frozen=True)
class DefectReport:
    samples: int
    max_defect: float
    lagrangian_expected: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        return (not self.lagrangian_expected) or self.max_defect < self.tolerance

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "max_defect": self.max_defect,
            "lagrangian_expected": self.lagrangian_expected,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def lagrangian_defect(
    params: FibrationParams,
    points: Optional[Sequence[C3Point]] = None,
    config: NumericalConfig = NumericalConfig(),
    tolerance: float = 1e-6,
) -> DefectReport:
    """Evaluate the symplectic form on the numerically-computed tangent
    planes of the fibers of g on X_t at the given points (default: sampled
    near the regular torus), away from the axes.

    At t = 1 the fibers are Lagrangian and the defect must vanish to
    tolerance; at t < 1 the report is informational - the defect is a
    genuine obstruction there, and at t = 0 it is visibly nonzero on
    unit-scale points of the holomorphic hypersurface.
    """
    params.check()
    if points is None:
        rng = np.random.default_rng(config.seed)
        points = []
        while len(points) < max(10, config.samples // 10):
            seed = _torus_seed(params, rng)
            seed = seed * (
                1.0 + 0.05 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            )
            points.append(project_to_level(params, seed, config=config))
    max_defect = 0.0
    used = 0
    for pt in points:
        pt = np.asarray(pt, dtype=complex)
        if float(np.min(np.abs(pt))) == 0.0:
            raise ValueError("fiber tangent planes are not defined on the axes")
        stacked = np.vstack([ft_real_jacobian(params, pt), g_real_jacobian(pt)])
        _, svals, vh = np.linalg.svd(stacked, full_matrices=True)
        if svals[3] < 1e-9 * svals[0]:
            continue  # too close to a singular fiber for a clean kernel
        v1, v2 = vh[4], vh[5]
        max_defect = max(max_defect, abs(_omega0(v1, v2)))
        used += 1
    return DefectReport(
        samples=used,
        max_defect=float(max_defect),
        lagrangian_expected=bool(params.t == 1.0),
        tolerance=tolerance,
    )


@dataclass(frozen=True)
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
        return {
            "critical_values_inside": self.critical_values_inside,
            "max_critical_value": self.max_critical_value,
            "samples": self.samples,
            "boundary_xyz_bound_ok": self.boundary_xyz_bound_ok,
            "chain_bound_ok": self.chain_bound_ok,
            "vertex_checks_ok": self.vertex_checks_ok,
            "precondition_error": self.precondition_error,
            "passed": self.passed,
        }


def _triangle_boundary_distance(w: complex, radius: float) -> float:
    """Distance from w to the boundary of the triangle with vertices
    radius * cube roots of unity."""
    verts = [radius + 0j, radius * _OMEGA, radius * _OMEGA**2]
    best = math.inf
    for i in range(3):
        a, b = verts[i], verts[(i + 1) % 3]
        ab = b - a
        s = ((w - a) * np.conj(ab)).real / abs(ab) ** 2
        s = min(1.0, max(0.0, s))
        best = min(best, abs(w - (a + s * ab)))
    return best


def _half_sphere_boundary_points(
    params: FibrationParams, rng: np.random.Generator, count: int
) -> list[C3Point]:
    """Closed-form points of the intersection of X_1 with the radius-1/2
    sphere: two coordinates carry the radius, the third is pinned by
    a*x*y*z = target (all bump factors vanish there)."""
    tau = params.target
    out = []
    for _ in range(count):
        tiny_axis = rng.integers(3)
        mu = rng.uniform(0.75, 1.3)
        ph = rng.uniform(0.0, 2.0 * math.pi, size=2)
        big = [mu, 1.0 / mu]
        # solve c with c^2 (mu^2 + mu^-2) + |z|^2 = 1/4, |z| = 1/(a^2 c^2 ...)
        c = math.sqrt(0.25 / (mu**2 + mu**-2))
        for _ in range(3):
            prod = (c * mu) * (c / mu)
            tiny = abs(tau) / (params.a * prod)
            c = math.sqrt(max(0.25 - tiny**2, 0.0) / (mu**2 + mu**-2))
        others = [k for k in (0, 1, 2) if k != tiny_axis]
        coords = [0j, 0j, 0j]
        coords[others[0]] = c * big[0] * np.exp(1j * ph[0])
        coords[others[1]] = c * big[1] * np.exp(1j * ph[1])
        coords[tiny_axis] = tau / (params.a * coords[others[0]] * coords[others[1]])
        out.append(point(*coords))
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
    count = max(16, config.samples // 10)
    pts = _half_sphere_boundary_points(params, rng, count)
    tau = params.target
    xyz_ok = True
    for pt in pts:
        if abs(ft_eval(params, pt) - tau) > 1e-9 * abs(tau):
            xyz_ok = False
        if abs(np.linalg.norm(pt) - 0.5) > 1e-9:
            xyz_ok = False
        prod = abs(pt[0] * pt[1] * pt[2])
        if not (float(np.min(np.abs(pt))) ** 3 <= prod < 1.0 / params.a):
            xyz_ok = False
    m = params.m
    chain_ok = 1.0 / params.a < 1.0 / (m * m * (m + 3)) < (1.0 / 90.0) ** 3

    # Spot checks for "on the boundary triangle iff some coordinate is 0":
    # a vanishing coordinate lands exactly on the radius-1/4 triangle's
    # boundary, while the sampled points (all coordinates nonzero) sit a
    # distance ~ min|coordinate|^2 inside - far below the stated width
    # 1/4050, which is what is checkable in doubles.
    vertex_ok = True
    axis_pt = point(0.5, 0, 0)
    if _triangle_boundary_distance(g_eval(axis_pt), 0.25) > 1e-15:
        vertex_ok = False
    edge_pt = point(math.sqrt(1 / 8), math.sqrt(1 / 8) * 1j, 0)
    if _triangle_boundary_distance(g_eval(edge_pt), 0.25) > 1e-12:
        vertex_ok = False
    width = 1.0 / 4050.0
    if any(_triangle_boundary_distance(g_eval(pt), 0.25) >= width for pt in pts):
        vertex_ok = False

    return DomainYAudit(
        critical_values_inside=bool(inside),
        max_critical_value=float(max_cv),
        samples=len(pts),
        boundary_xyz_bound_ok=bool(xyz_ok),
        chain_bound_ok=bool(chain_ok),
        vertex_checks_ok=bool(vertex_ok),
        precondition_error=None,
    )
